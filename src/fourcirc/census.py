"""Exact counting: brute-force censuses and the closed-form enumeration.

Everything here is integer-exact.  The self-dual pair sweep filters all
q^(2n) generator pairs through the residue criterion; the closed form

    (q - eta(-1)) * (q^((n-1)/2) + 1) * (q^(n-1) - q^((n-1)/2))   q odd
    q             * (q^((n-1)/2) + 1) * (q^(n-1) - q^((n-1)/2))   q even

applies when n is an odd prime and q is a primitive root mod n, and the
two are compared by the acceptance suite.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .codes import (DEFAULT_CAP, CapExceeded, FourCirculantCode, check_distance_cap, count_messages,
                    least_weight_messages, split_word)
from .fields import Field, default_field, field_sum, is_prime, power_text, quad_char
from .polyring import QuotientRing, is_primitive_root


# ---------------------------------------------------------------------------
# solution counts behind the closed form

def _sum_count(field: Field, values: np.ndarray, target: int) -> int:
    """Exact number of index pairs (x, y) with values[x] + values[y] = target:
    the pairs with values[x] = target - values[y], joined by _matches."""
    rest = field_sum(field, np.stack([np.full_like(values, target), field.neg_array[values]]), 0)
    return _matches(values, rest)


def count_sum_of_squares(field: Field) -> tuple[int, int]:
    """Solutions of x^2 + y^2 = -1 in F_q, exact count next to q - eta(-1)."""
    if field.q % 2 == 0:
        raise ValueError("x^2 + y^2 = -1 count requires odd q")
    squares = field.exp_array[2 * field.log_array]  # exp_array[2 * log 0] is 0
    brute = _sum_count(field, squares, field.neg(field.one))
    formula = field.q - quad_char(field, field.neg(field.one))
    return brute, formula


def count_hermitian(field: Field) -> tuple[int, int]:
    """Solutions of a^(1+q) + b^(1+q) = -1 in F_{q^2}, next to (q+1)(q^2-q).

    Valid for every prime power q, even characteristic included.
    """
    q = field.q
    big = default_field(field.p, 2 * field.k)
    norms = big.exp_array[(1 + q) * big.log_array % (q * q - 1)]  # log N(x) = (1 + q) log x
    norms[0] = 0
    brute = _sum_count(big, norms, big.neg(big.one))
    formula = (q + 1) * (q * q - q)
    return brute, formula


def self_dual_count_formula(field: Field, n: int) -> Optional[int]:
    """Closed-form count of self-dual pairs, or None when outside its hypotheses."""
    q = field.q
    if n < 3 or n % 2 == 0 or not is_prime(n):
        return None
    if math.gcd(n, q) != 1 or not is_primitive_root(q, n):
        return None
    h = (n - 1) // 2
    core = (q**h + 1) * (q ** (n - 1) - q**h)
    if q % 2 == 0:
        return q * core
    return (q - quad_char(field, field.neg(field.one))) * core


# ---------------------------------------------------------------------------
# exhaustive self-dual pair sweep

@dataclass
class CensusReport:
    """Everything the self-dual pair sweep finds, pairs as the (a, b) index rows of self_dual_pairs.

    distinct_code_count always equals pair_count; see distinct_code_count.
    """

    q: int
    n: int
    pair_count: int
    formula_count: Optional[int]
    distinct_code_count: int
    pairs: np.ndarray
    pair_distances: Optional[list] = None
    per_code_distances: Optional[dict] = None
    orbit_count: Optional[int] = None  # codes scanned for pair_distances
    messages_enumerated: Optional[int] = None  # messages evaluated for pair_distances


PAIR_WORDS = 2  # one pair: a row of two int64 words in the pair array
PAIR_CHUNK_ROWS = 1 << 16  # rows of the pair array self_dual_pairs fills at once


@lru_cache(maxsize=1)
def _self_duality(field: Field, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of u*u' and of -(1 + u*u') for every residue u of R(n, F_q):
    (a, b) is self-dual, 1 + a*a' + b*b' = 0, exactly when the first at b
    is the second at a.  Kept, read-only, for the most recent (field, n).

    u*u' is the norm of the ring tables.  Adding 1 adds 1 to its constant
    coefficient's lowest F_p digit, the lowest base-p digit of the index.
    """
    t, p = QuotientRing(field, n).tables(), field.p
    have = t.norm
    need = t.neg[have - have % p + (have + 1) % p]
    need.flags.writeable = False
    return have, need


def self_dual_pairs(field: Field, n: int, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Index pairs (a, b) with 1 + a*a' + b*b' = 0: rows of an (N, 2) int64 array, a-major.

    The cap counts work units: the sweep's Q ring products of n^2
    coefficient terms each, checked before it starts, and then PAIR_WORDS
    memory words for each row of the array, checked on the exact pair count
    before the array is allocated.
    """
    ring = QuotientRing(field, n)
    work = ring.size * n * n
    if work > cap:
        raise CapExceeded(
            f"pair sweep needs {power_text(field.q, n, n * n)} coefficient products, cap is {cap}"
        )
    have, need = _self_duality(field, n)
    order = np.argsort(have, kind="stable")  # the b grouped by b*b', ascending within a group
    grouped = have[order]
    lo = np.searchsorted(grouped, need, "left")  # the partners of a are order[lo[a]:lo[a] + sizes[a]]
    sizes = np.searchsorted(grouped, need, "right") - lo
    count = int(sizes.sum())
    if work + PAIR_WORDS * count > cap:
        raise CapExceeded(
            f"pair sweep finds {count} pairs, {work + PAIR_WORDS * count} work units with "
            f"the sweep, cap is {cap}"
        )
    pairs = np.empty((count, 2), dtype=np.int64)
    ends = np.cumsum(sizes)  # a's rows are [ends[a] - sizes[a], ends[a])
    # whole runs of a, about PAIR_CHUNK_ROWS rows each, so no temporary is a full column
    cuts = np.searchsorted(ends, np.arange(PAIR_CHUNK_ROWS, count, PAIR_CHUNK_ROWS)).tolist()
    cuts = [0, *cuts, ring.size]
    for a0, a1 in zip(cuts, cuts[1:]):
        if a1 == a0:
            continue
        part = sizes[a0:a1]
        start, stop = int(ends[a0] - part[0]), int(ends[a1 - 1])
        block = pairs[start:stop]
        block[:, 0] = np.repeat(np.arange(a0, a1), part)
        # row r is partner r - start[a] of a
        at = np.repeat(lo[a0:a1] - (ends[a0:a1] - part), part)
        at += np.arange(start, stop)
        block[:, 1] = order[at]
    return pairs


def distinct_code_count(field: Field, n: int, pairs: np.ndarray) -> int:
    """Number of distinct codes C_{a,b} among the codes of the given pairs.

    The generator matrix G = [I | M] is already in reduced row echelon form,
    and a row space has exactly one such form, so two pairs give the same
    code only when they are the same pair: the count is the number of
    distinct pairs.
    """
    keys = np.sort(pairs[:, 0] * field.q**n + pairs[:, 1])  # not np.unique: its first call costs ~15 ms
    return len(keys) - int(np.count_nonzero(keys[1:] == keys[:-1]))


def code_distances(
    field: Field,
    n: int,
    pairs: np.ndarray,
    cap: int = DEFAULT_CAP,
    counters: Optional[dict] = None,
) -> list[int]:
    """Exact minimum distance for each (a, b) row of an index pair array,
    from least_weight_messages with no witness, on the pairs' coefficient
    rows.  Adds the messages evaluated to counters["messages_enumerated"]
    when counters is given.  Indices outside [0, q^n) are refused, as
    their digits would read as another residue."""
    ring = QuotientRing(field, n)
    check_distance_cap(ring, cap)
    pairs = np.asarray(pairs)
    if pairs.size and (int(pairs.min()) < 0 or int(pairs.max()) >= field.q**n):
        raise ValueError(f"residue indices must lie in [0, {power_text(field.q, n)}) at n={n} over F_{field.q}")
    rows = pairs[:, :, None] // field.q ** np.arange(n) % field.q  # exact: index pairs are int64
    found = list(least_weight_messages(ring, rows, witness=False))
    count_messages(counters, sum(m.messages for m in found))
    return [m.weight for m in found]


# ---------------------------------------------------------------------------
# equivalent codes

def equivalence_maps(field: Field, n: int) -> tuple[list[tuple[str, np.ndarray]], list[tuple[str, np.ndarray]]]:
    """The named residue permutations (index arrays over all residues) of H
    and of Σ, for the group G = (H x H) ⋊ Σ ⋊ <swap> of maps on pairs (a, b)
    that keep 1 + a*a' + b*b' = 0 and the weight enumerator of C_{a,b}.

    H acts on a alone or on b alone: u -> x^s*u and u -> -x^s*u, 0 <= s < n
    (the f block of every codeword is shifted, a message block negated).
    Σ acts on both: every multiplier x -> x^s with gcd(s, n) = 1 (a
    coordinate permutation in each block; s = -1 is the reciprocal)
    composed with every power of Frobenius on the coefficients.  Σ
    normalises H, and the swap (a, b) -> (b, a) (message (c, -d))
    normalises both.  A multiplier on a alone does not keep self-duality.
    """
    t, j = QuotientRing(field, n).tables(), np.arange(n)

    def residue_map(src: np.ndarray, table: np.ndarray = np.arange(field.q)) -> np.ndarray:
        """Index of the residue whose coefficient j is table[coefficient src[j] of u], for every u."""
        return table[t.coeffs[:, src]] @ field.q**j

    def iterates(perm: np.ndarray, count: int) -> list[np.ndarray]:
        """The identity, perm, perm composed with perm, ...: count permutations."""
        out = [np.arange(t.size)]
        while len(out) < count:
            out.append(perm[out[-1]])
        return out

    # x^s* is x* s times, then -x^s* negates; x -> x^s moves coefficient i to i*s, so its
    # coefficient j comes from j/s, and then frobenius^i acts on every coefficient
    shifts = iterates(residue_map((j - 1) % n), n)
    block = [(f"{sign}x^{s}*", perm) for s, h in enumerate(shifts) for sign, perm in (("", h), ("-", t.neg[h]))]
    frobs = iterates(residue_map(j, np.array([field.frobenius(c, 1) for c in field.elements()])), field.k)
    both = [
        (f"x->x^{s}" + f", frobenius^{i}" * (i > 0), frob[mult])
        for s in range(1, n + 1) if math.gcd(s, n) == 1
        for mult in [residue_map(j * pow(s, -1, n) % n)]
        for i, frob in enumerate(frobs)
    ]
    return block, both


def code_orbits(field: Field, n: int, pairs: np.ndarray) -> np.ndarray:
    """For each row of the a-major self-dual pair array, the position of the
    least pair in its orbit under the group of equivalence_maps.

    With Hc[u] = min over h in H of h(u) and K[u] = min over σ in Σ of
    Hc[σ(u)], the least pair (m, s) of the orbit of (a, b) has
    m = min(K[a], K[b]), and s = the least Hc[σ(b)] over the σ with
    Hc[σ(a)] = m or the least Hc[σ(a)] over the σ with Hc[σ(b)] = m: |Σ|
    passes over the pairs.  The checks run on residues: every h keeps u*u',
    every σ commutes with u*u' and -(1 + u*u'), and the pairs are exactly the
    self-dual list, so every least pair is self-dual and must be listed.
    """
    Q = field.q**n
    have, need = _self_duality(field, n)
    a, b = pairs.T
    keys = a * Q + b
    where = f"at (q={field.q}, n={n})"
    every = len(keys) == _matches(need, have)  # as many rows as self-dual pairs
    if (np.diff(keys) <= 0).any() or (have[b] != need[a]).any() or not every:
        raise ValueError(f"pairs must be the a-major list of every self-dual pair {where}")
    block, both = equivalence_maps(field, n)
    least_h = np.full(Q, Q)  # Hc
    for name, h in block:
        if (have[h] != have).any():
            raise AssertionError(f"map {name} on one block does not keep u*u' {where}")
        np.minimum(least_h, h, out=least_h)
    least = np.full(Q, Q)  # K
    for name, sigma in both:
        if (have[sigma] != sigma[have]).any() or (need[sigma] != sigma[need]).any():
            raise AssertionError(f"map {name} on both blocks does not commute with u*u' and -(1 + u*u') {where}")
        np.minimum(least, least_h[sigma], out=least)
    m, s = np.minimum(least[a], least[b]), np.full(len(keys), Q)
    for _, sigma in both:
        ha, hb = least_h[sigma][a], least_h[sigma][b]
        np.minimum(s, np.where(ha == m, hb, Q), out=s)
        np.minimum(s, np.where(hb == m, ha, Q), out=s)
    pos = np.searchsorted(keys, m * Q + s).clip(max=len(keys) - 1)
    if (keys[pos] != m * Q + s).any():
        raise AssertionError(f"a least pair of an orbit is not in the list {where}")
    return pos


def orbit_distances(
    field: Field,
    n: int,
    pairs: np.ndarray,
    cap: int = DEFAULT_CAP,
    counters: Optional[dict] = None,
) -> tuple[np.ndarray, int]:
    """Exact minimum distance of every pair, from one scan per orbit.

    Returns the distances, an int64 array, and the number of orbits.
    Equivalent codes share their weight enumerator, so only the least pair
    of each orbit is scanned, by code_distances (which fills counters).
    The cap is charged Q^2 codeword evaluations per orbit, what an
    exhaustive scan would evaluate, after labelling and before any scan.
    """
    Q = QuotientRing(field, n).size
    labels = code_orbits(field, n, pairs)
    reps = np.flatnonzero(labels == np.arange(len(labels)))
    work = len(reps) * Q * Q
    if work > cap:
        raise CapExceeded(
            f"distance scans of {len(reps)} orbits of equivalent codes ({len(labels)} pairs) "
            f"need {work} codeword evaluations, {Q * Q} per orbit, cap is {cap}"
        )
    dists = np.zeros(len(labels), dtype=np.int64)
    dists[reps] = code_distances(field, n, pairs[reps], cap=cap, counters=counters)
    return dists[labels], len(reps)


def enumerate_self_dual(
    field: Field,
    n: int,
    with_distances: bool = False,
    cap: int = DEFAULT_CAP,
) -> CensusReport:
    """Sweep all q^(2n) pairs and report every self-dual one.

    The closed-form count is attached when its hypotheses hold (n an odd
    prime, q a primitive root mod n) and left as None otherwise.  Pairs
    are the index rows of self_dual_pairs, a-major and ascending, so
    reports are deterministic.

    The CLI writes every pair as 2n coefficients, from the index array in
    chunks, so its memory is the pair array and one chunk; its output
    still grows with pair_count * n (206 MB of indented JSON at (2, 13)).
    So the report is bounded on its own, before the sweep starts: it may
    list at most cap pairs, and there are up to Q^2 of them.
    """
    ring = QuotientRing(field, n)
    if ring.size**2 > cap:
        raise CapExceeded(f"enumeration lists up to {power_text(field.q, 2 * n)} pairs, cap is {cap}")
    pairs = self_dual_pairs(field, n, cap=cap)
    work: dict = {}
    dists, orbits = orbit_distances(field, n, pairs, cap=cap, counters=work) if with_distances else (None, None)
    report = CensusReport(
        q=field.q,
        n=n,
        pair_count=len(pairs),
        formula_count=self_dual_count_formula(field, n),
        distinct_code_count=distinct_code_count(field, n, pairs),
        pairs=pairs,
        orbit_count=orbits,
        messages_enumerated=work.get("messages_enumerated"),
    )
    if with_distances:
        report.pair_distances = dists.tolist()
        report.per_code_distances = dict(sorted(Counter(report.pair_distances).items()))
    return report


# ---------------------------------------------------------------------------
# membership census (how many codes contain a given word)

@dataclass
class MembershipReport:
    """Counts of generator pairs whose code contains one fixed word.

    count ranges over all q^(2n) pairs; unit_count only over pairs with both
    a and b coprime to x^n - 1, which is the setting of the q^n*(q-1) bound
    (the all-pair count can exceed it, see max_nonconstant on the sweep).
    """

    blocks: tuple
    count: int
    unit_count: int
    bound: int
    unique: bool
    solution: Optional[tuple]
    solution_valid: Optional[bool]
    self_dual_count: int


def constant_vectors(ring: QuotientRing) -> set[tuple]:
    """Scalar multiples of the all-ones vector, the length-n cyclic code
    generated by (x^n - 1)/(x - 1)."""
    return {ring.scalar_mul(c, ring.all_ones) for c in ring.field.elements()}


def _matches(key_a: np.ndarray, key_b: np.ndarray) -> int:
    """Number of index pairs (a, b) with key_a[a] == key_b[b].

    Both are sorted: numpy's binary search is several times faster on
    large arrays when the queries ascend.
    """
    key_a, key_b = np.sort(key_a), np.sort(key_b)
    return int((np.searchsorted(key_b, key_a, "right") - np.searchsorted(key_b, key_a, "left")).sum())


def membership_census(field: Field, n: int, word, cap: int = DEFAULT_CAP) -> MembershipReport:
    """Count generator pairs (a, b) whose code contains the given word.

    Counts over all q^(2n) pairs, not only self-dual ones; the unit and
    self-dual-restricted counts ride along.  Every b gets the key
    (d*b', c*b) and every a the key (c*a - e, f - d*a'), as index arrays
    over all Q residues from the ring tables, and the counts join equal keys
    by sorting: O(Q) ring products and memory, and no Q x Q table.  The cap
    charges that work as self_dual_pairs does, Q ring products of n^2
    coefficient terms each, before any.  When c*c' + d*d' is a unit the
    word pins (a, b) uniquely and the explicit solution

        a = (e*c' + d*f') / (c*c' + d*d')
        b = (f*c' - d*e') / (c*c' + d*d')

    is computed and checked against the linear system.
    """
    ring = QuotientRing(field, n)
    Q = ring.size
    work = Q * n * n
    if work > cap:
        raise CapExceeded(
            f"membership census needs {power_text(field.q, n, n * n)} coefficient products, cap is {cap}"
        )
    c, d, e, f = split_word(field.q, n, word)
    have, need = _self_duality(field, n)
    t = ring.tables()
    c_times = t.times(ring.index(c))  # c_times[x]: index of c*x
    d_times_rec = t.times(ring.index(d))[t.recip]  # d_times_rec[x]: index of d*x'
    # the word lies in C_{a,b} exactly when key_a[a] == key_b[b]
    key_b = d_times_rec * Q + c_times
    key_a = t.add(c_times, t.neg[ring.index(e)]) * Q + t.add(ring.index(f), t.neg[d_times_rec])
    count = _matches(key_a, key_b)
    unit_count = _matches(key_a[t.units], key_b[t.units])
    rank = np.unique(np.concatenate([key_a, key_b]), return_inverse=True)[1]  # keys below 2Q
    sd_count = _matches(rank[:Q] * Q + need, rank[Q:] * Q + have)
    c_rec = ring.reciprocal(c)
    d_rec = ring.reciprocal(d)
    delta = ring.add(ring.mul(c, c_rec), ring.mul(d, d_rec))
    unique = bool(t.units[ring.index(delta)])
    solution = None
    solution_valid = None
    if unique:
        dinv = ring.inv(delta)
        e_rec = ring.reciprocal(e)
        f_rec = ring.reciprocal(f)
        a_sol = ring.mul(ring.add(ring.mul(e, c_rec), ring.mul(d, f_rec)), dinv)
        b_sol = ring.mul(ring.sub(ring.mul(f, c_rec), ring.mul(d, e_rec)), dinv)
        solution = (a_sol, b_sol)
        check = FourCirculantCode(ring, a_sol, b_sol).encode(c, d)
        solution_valid = check.blocks[2] == e and check.blocks[3] == f
    return MembershipReport(
        blocks=(c, d, e, f),
        count=count,
        unit_count=unit_count,
        bound=field.q**n * (field.q - 1),
        unique=unique,
        solution=solution,
        solution_valid=solution_valid,
        self_dual_count=sd_count,
    )


SWEEP_CHUNK_WORDS = 1 << 16  # words that membership_sweep tallies, or max_nonconstant compares, at once


@dataclass
class MembershipSweep:
    """Membership counts for every word of F_q^(4n) at once.

    counts[u] is the number of generator pairs whose code contains the word
    with block index u = c + Q*d + Q^2*e + Q^3*f (Q = q^n).  unit_counts
    restricts to pairs with a and b both coprime to x^n - 1 (the setting of
    the q^n*(q-1) bound); sd_counts restricts to self-dual pairs.  Each
    table is an array('i') of Q^4 counts, 4 bytes per word: indexing it
    gives a Python int, and sum() and len() read it like a list: 12*Q^4
    bytes for the three.  Every table T is invariant under
    (c, d, e, f) -> (α(c), β(d), αβ(e), f) for α, β in H, the maps
    u -> ±x^s*u; membership_sweep proves it and builds the tables from it.
    """

    q: int
    n: int
    Q: int
    bound: int
    counts: array
    unit_counts: array
    sd_counts: array
    constant_indices: frozenset

    def word_index(self, word) -> int:
        return sum(v * self.q**i for i, v in enumerate(sum(split_word(self.q, self.n, word), ())))

    def max_nonconstant(self, which: str = "unit") -> tuple[int, int]:
        """Largest count over words whose c and d blocks are both non-constant
        and the least word attaining it, or (-1, -1) when no word qualifies.

        which selects the pair universe: "all", "unit" or "self_dual".  The
        table is read as a numpy view of its Q^2 x Q^2 counts at
        [e + Q*f, c + Q*d], whose flat index is the word index: once for the
        column maxima, then by blocks of rows up to the first allowed column
        that holds the largest of them.
        """
        table = {"all": self.counts, "unit": self.unit_counts, "self_dual": self.sd_counts}[which]
        Q = self.Q
        const = np.isin(np.arange(Q), list(self.constant_indices))
        ok = ~(const[None, :] | const[:, None]).ravel()  # at c + Q*d
        if not ok.any():
            return -1, -1
        view = np.frombuffer(table, dtype=np.intc).reshape(Q * Q, Q * Q)
        best = int(view.max(axis=0)[ok].max())
        step = max(1, SWEEP_CHUNK_WORDS // (Q * Q))
        for start in range(0, Q * Q, step):
            hits = (view[start : start + step] == best) & ok
            if hits.any():  # the least word among the largest
                return best, start * Q * Q + int(hits.argmax())
        raise AssertionError("a column maximum is in no row")


def membership_sweep(field: Field, n: int, cap: int = DEFAULT_CAP) -> MembershipSweep:
    """Exhaustive membership census over every word, from one tally per
    H x H orbit of messages.

    H is the block list of equivalence_maps, u -> ±x^s*u.  For h in H and
    e = c*a - d*b', f = c*b + d*a':

        (c, d, e, f) in C_{h(a),b}  <=>  (h(c), d, e, h(f)) in C_{a,b}
        (c, d, e, f) in C_{a,h(b)}  <=>  (c, h^-1(d), e, h^-1(f)) in C_{a,b}

    since h(a)*c = h(c)*a and h(a)' = h^-1(a') (and likewise for b).  Each
    code also holds h(w) for its codewords w, as it is quasi-cyclic and
    linear, and the pair sets (all, unit, self-dual) are kept by h on a or
    on b alone, as h(u)*h(u)' = u*u'.  So each table T has
    T(c, d, e, f) = T(α(c), β(d), αβ(e), f) for all α, β in H.

    Only the messages (c0, d0) with c0 and d0 least in their H-orbits are
    encoded: the codewords of all Q^2 generator pairs are tallied by
    bincount, in chunks of messages that cover at most SWEEP_CHUNK_WORDS
    words, into the tables at those messages (membership forces the
    message blocks).  Every other word then takes the count at its
    representative (c0, d0, αβ(e), f), one f at a time, through one index
    of Q^3 entries.  Besides the three tables of Q^4 words, 4 bytes each,
    memory is one chunk, then that index, and Q x Q ring tables.  The cap
    charges the words of the tables.
    """
    ring = QuotientRing(field, n)
    Q = ring.size
    if Q**4 > cap:
        raise CapExceeded(f"membership sweep tables hold {power_text(field.q, 4 * n)} words, cap is {cap}")
    t = ring.tables()
    block = np.array([h for _, h in equivalence_maps(field, n)[0]])  # block[i, u] = h_i(u)
    lower = block.argmin(axis=0)  # γ_u = h_lower[u] takes u to the least of its orbit
    least = block[lower, np.arange(Q)]
    reps = np.flatnonzero(least == np.arange(Q))
    R = len(reps)
    rank = np.searchsorted(reps, least)  # the position of γ_u(u) in reps
    add = t.add(np.arange(Q)[:, None], np.arange(Q))  # add[u, v]: index of u + v
    rows = np.array([t.times(m) for m in reps])  # rows[i, x]: index of reps[i]*x
    rows_rec = rows[:, t.recip]  # rows_rec[i, x]: index of reps[i]*x'
    neg_rows_rec = t.neg[rows_rec]
    have, need = _self_duality(field, n)
    masks = (t.units[:, None] & t.units[None, :], have[None, :] == need[:, None])  # over [a, b]
    tables = [array("i", [0]) * Q**4 for _ in range(3)]
    # views[i][e + Q*f, c + Q*d] is tables[i][u]
    views = [np.frombuffer(table, dtype=np.intc).reshape(Q * Q, Q * Q) for table in tables]
    cols = (reps + Q * reps[:, None]).ravel()  # message m = i + R*j is (reps[i], reps[j])
    step = max(1, SWEEP_CHUNK_WORDS // (Q * Q))
    for start in range(0, R * R, step):
        msg = np.arange(start, min(start + step, R * R))
        ci, di = msg % R, msg // R
        # the codeword of message (c, d) in C_{a,b} is word e + Q*f of the message's row
        slot = add[rows[ci][:, None, :], rows_rec[di][:, :, None]]  # f = c*b + d*a' at [m, a, b]
        slot *= Q
        slot += add[rows[ci][:, :, None], neg_rows_rec[di][:, None, :]]  # e = c*a - d*b'
        slot += (msg - start)[:, None, None] * (Q * Q)  # [m, word] flattened
        for view, sel in zip(views, (slot, slot[:, masks[0]], slot[:, masks[1]])):
            tally = np.bincount(sel.ravel(), minlength=len(msg) * Q * Q)
            view[:, cols[start : start + len(msg)]] = tally.reshape(len(msg), Q * Q).T
    del slot, sel, tally  # so that the chunk and the index are not held at once
    # word (c, d, e, f) has the count of (γ_c(c), γ_d(d), γ_c(γ_d(e)), f), entry
    # [γ_c(γ_d(e)), rank[c] + R*rank[d]] of the [e, m] counts at f: at[c + Q*d + Q^2*e]
    by_lower = block[lower].T  # by_lower[x, u] = γ_u(x)
    at = (by_lower * (R * R) + rank)[by_lower]  # [e, d, c]
    at += R * rank[:, None]
    at = at.ravel()
    for view in views:
        for f, out in enumerate(view.reshape(Q, Q**3)):
            # mode "raise" would first copy out
            np.take(view[Q * f : Q * (f + 1), cols], at, out=out, mode="clip")
    const_idx = frozenset(ring.index(u) for u in constant_vectors(ring))
    counts, unit_counts, sd_counts = tables
    return MembershipSweep(
        q=field.q,
        n=n,
        Q=Q,
        bound=field.q**n * (field.q - 1),
        counts=counts,
        unit_counts=unit_counts,
        sd_counts=sd_counts,
        constant_indices=const_idx,
    )


# ---------------------------------------------------------------------------
# primitive-root length scan

@dataclass(frozen=True)
class ArtinReport:
    q: int
    limit: int
    primes: tuple
    candidates: int
    density: float
    note: str


def _smallest_prime_factors(limit: int) -> np.ndarray:
    """spf[m] = the least prime dividing m, for 2 <= m <= limit (0 at 0 and
    1): a sieve of Eratosthenes that marks each composite with the first
    prime to strike it, so m is prime exactly when spf[m] == m."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for i in range(2, math.isqrt(limit) + 1):
        if not spf[i]:
            multiples = spf[i * i :: i]
            multiples[multiples == 0] = i
    primes = np.flatnonzero(spf[2:] == 0) + 2
    spf[primes] = primes
    return spf


def artin_scan(q: int, limit: int) -> ArtinReport:
    """Odd primes n <= limit for which q generates (Z/nZ)*.

    These are exactly the lengths where x^n - 1 splits into two irreducible
    factors over F_q.  A perfect-square q is flagged, since squares can
    never be primitive roots for n > 3.  For a prime n not dividing q, q
    has order n - 1 unless q^((n-1)/r) = 1 for some prime r dividing
    n - 1; one smallest-prime-factor sieve gives both the primes n and the
    primes of every n - 1.
    """
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    if limit > 10**6:
        raise ValueError(f"scan limit {limit} is above the supported 10^6")
    spf = _smallest_prime_factors(max(limit, 1)).tolist()

    def generates(n: int) -> bool:
        m = n - 1
        while m > 1:
            r = spf[m]
            if pow(q, (n - 1) // r, n) == 1:
                return False
            while m % r == 0:
                m //= r
        return True

    candidates = [n for n in range(3, limit + 1, 2) if spf[n] == n and q % n != 0]
    hits = tuple(n for n in candidates if generates(n))
    note = ""
    root = math.isqrt(q)
    if root * root == q:
        note = "q is a perfect square; its order mod n divides (n-1)/2, so hits can only be degenerate"
    density = len(hits) / len(candidates) if candidates else 0.0
    return ArtinReport(
        q=q, limit=limit, primes=hits, candidates=len(candidates), density=density, note=note
    )
