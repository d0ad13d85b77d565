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
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional, Sequence

import numpy as np

from .codes import DEFAULT_CAP, CapExceeded, FourCirculantCode, check_distance_cap, message_weights
from .fields import Field, digits, is_prime, quad_char
from .polyring import QuotientRing, is_primitive_root, multiplicative_order


# ---------------------------------------------------------------------------
# solution counts behind the closed form

def _pair_count(field: Field, values: Sequence[int], target: int) -> int:
    """Exact number of index pairs (x, y) with values[x] + values[y] = target.

    With c_v the number of x whose value is v, the count is the sum over v of
    c_v * c_(target - v): linear in len(values), not quadratic.
    """
    counts = Counter(values)
    return sum(c * counts[field.sub(target, v)] for v, c in counts.items())


def count_sum_of_squares(field: Field) -> tuple[int, int]:
    """Solutions of x^2 + y^2 = -1 in F_q, exact histogram count next to q - eta(-1)."""
    if field.q % 2 == 0:
        raise ValueError("x^2 + y^2 = -1 count requires odd q")
    squares = [field.mul(x, x) for x in field.elements()]
    brute = _pair_count(field, squares, field.neg(field.one))
    formula = field.q - quad_char(field, field.neg(field.one))
    return brute, formula


def count_hermitian(field: Field) -> tuple[int, int]:
    """Solutions of a^(1+q) + b^(1+q) = -1 in F_{q^2}, next to (q+1)(q^2-q).

    Valid for every prime power q, even characteristic included.
    """
    q = field.q
    big = Field(field.p, 2 * field.k)
    norms = [big.pow(x, 1 + q) for x in big.elements()]
    brute = _pair_count(big, norms, big.neg(big.one))
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
    """Everything the self-dual pair sweep finds.

    distinct_code_count always equals pair_count; see distinct_code_count.
    """

    q: int
    n: int
    pair_count: int
    formula_count: Optional[int]
    distinct_code_count: int
    pairs: list = dataclass_field(default_factory=list)
    pair_distances: Optional[list] = None
    per_code_distances: Optional[dict] = None
    orbit_count: Optional[int] = None  # codes scanned for pair_distances


PAIR_WORDS = 8  # a listed pair: a 2-tuple (7 words of 8 bytes) and its list slot


def self_dual_pairs(field: Field, n: int, cap: int = DEFAULT_CAP) -> list[tuple[int, int]]:
    """Index pairs (a, b) with 1 + a*a' + b*b' = 0, in a-major order.

    The cap counts work units: the sweep's Q ring products of n^2
    coefficient terms each, checked before it starts, and then PAIR_WORDS
    memory words for each pair in the list, checked on the exact pair count
    before any pair is listed.
    """
    ring = QuotientRing(field, n)
    Q = ring.size
    work = Q * n * n
    if work > cap:
        raise CapExceeded(f"pair sweep needs {work} coefficient products, cap is {cap}")
    # u * u' for every element u, and the element indices grouped by that value
    sc = [ring.mul(u, ring.reciprocal(u)) for u in map(ring.element, range(Q))]
    groups: dict[tuple, list[int]] = {}
    for i, v in enumerate(sc):
        groups.setdefault(v, []).append(i)
    one = ring.one
    partners = [groups.get(ring.neg(ring.add(one, v)), ()) for v in sc]
    count = sum(map(len, partners))
    if work + PAIR_WORDS * count > cap:
        raise CapExceeded(
            f"pair sweep finds {count} pairs, {work + PAIR_WORDS * count} work units with "
            f"the sweep, cap is {cap}"
        )
    return [(ai, bi) for ai, bs in enumerate(partners) for bi in bs]


def distinct_code_count(field: Field, n: int, pairs: Sequence[tuple[int, int]]) -> int:
    """Number of distinct codes C_{a,b} among the codes of the given pairs.

    The generator matrix G = [I | M] is already in reduced row echelon form,
    and a row space has exactly one such form, so two pairs give the same
    code only when they are the same pair: the count is the number of
    distinct pairs.
    """
    return len(set(pairs))


def code_distances(
    field: Field,
    n: int,
    pairs: Sequence[tuple[int, int]],
    cap: int = DEFAULT_CAP,
) -> list[int]:
    """Exact minimum distance for each (a, b) index pair."""
    ring = QuotientRing(field, n)
    check_distance_cap(ring.size, cap)
    return [int(wt.min()) for wt in message_weights(ring.tables(), pairs)]


# ---------------------------------------------------------------------------
# equivalent codes

PairMap = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def equivalence_maps(field: Field, n: int) -> list[tuple[str, PairMap]]:
    """Generators of a group of maps on index pairs (a, b) that keep
    1 + a*a' + b*b' = 0 and the weight enumerator of C_{a,b}.

    Each map takes index arrays (a, b) to the index arrays of the image.
    On a alone or on b alone: multiplication by x (the f block of every
    codeword is shifted) and negation (a message block is negated).  On
    both at once: the swap (a, b) -> (b, a) (message (c, -d)), every
    multiplier x -> x^t with gcd(t, n) = 1 (coordinates are permuted
    inside each block; t = -1 is the reciprocal) and, over F_(p^k) with
    k > 1, Frobenius on every coefficient.  A multiplier on a alone does
    not keep self-duality.

    Every map acts on each residue through its coefficients, so it is
    built from the coefficient digits alone, without the ring tables.
    """
    q = field.q
    coeffs = digits(np.arange(q**n), q, n)  # coeffs[u, j]: coefficient j of u
    powers = q ** np.arange(n)
    j = np.arange(n)

    def coefficient_map(src: np.ndarray, table: np.ndarray = np.arange(q)) -> np.ndarray:
        """Index of the residue whose coefficient j is table[coefficient src[j] of u], for every u."""
        return table[coeffs[:, src]] @ powers

    maps: list[tuple[str, PairMap]] = []
    for name, perm in (("x*", coefficient_map((j - 1) % n)), ("-", coefficient_map(j, field.neg_array))):
        maps.append((name + "a", lambda a, b, perm=perm: (perm[a], b)))
        maps.append((name + "b", lambda a, b, perm=perm: (a, perm[b])))
    maps.append(("swap", lambda a, b: (b, a)))
    # x -> x^s moves coefficient i to i*s, so coefficient j comes from j/s
    both = [
        (f"x->x^{s}", coefficient_map(j * pow(s, -1, n) % n)) for s in range(2, n) if math.gcd(s, n) == 1
    ]
    if field.k > 1:
        frob = np.array([field.frobenius(c, 1) for c in field.elements()])
        both.append(("frobenius", coefficient_map(j, frob)))
    for name, perm in both:
        maps.append((name, lambda a, b, perm=perm: (perm[a], perm[b])))
    return maps


def code_orbits(field: Field, n: int, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """For each pair of the a-major self-dual list, the position of the
    least pair in its orbit under equivalence_maps.

    Every map is first checked to take the list onto itself.  Labels then
    start as the positions and take, until they stop changing, the least
    label over each map's image and preimage, with a pointer-jumping step
    (label of the label) per round.  A label is always a position in the
    same orbit and no larger, so the fixed point is the orbit minimum.
    """
    Q = QuotientRing(field, n).size
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    a, b = arr[:, 0], arr[:, 1]
    keys = a * Q + b
    if (np.diff(keys) <= 0).any():
        raise ValueError("pairs must be distinct and in a-major order")
    images = []
    for name, pair_map in equivalence_maps(field, n):
        ia, ib = pair_map(a, b)
        image = ia * Q + ib
        pos = np.searchsorted(keys, image).clip(max=len(keys) - 1)
        if (keys[pos] != image).any():
            raise AssertionError(
                f"map {name} takes a self-dual pair outside the list at (q={field.q}, n={n})"
            )
        images.append(pos)
    labels = np.arange(len(keys))
    while True:
        new = labels.copy()
        for pos in images:  # pos is a permutation of the positions
            np.minimum(new, new[pos], out=new)
            new[pos] = np.minimum(new[pos], new)
        new = new[new]
        if (new == labels).all():
            return labels
        labels = new


def orbit_distances(
    field: Field,
    n: int,
    pairs: Sequence[tuple[int, int]],
    cap: int = DEFAULT_CAP,
) -> tuple[list[int], int]:
    """Exact minimum distance of every pair, from one scan per orbit.

    Returns the distances and the number of orbits.  Equivalent codes
    share their weight enumerator, so only the least pair of each orbit
    is scanned.  The cap is charged Q^2 codeword evaluations per orbit,
    after labelling and before any scan.
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
    dists[reps] = code_distances(field, n, [pairs[r] for r in reps], cap=cap)
    return dists[labels].tolist(), len(reps)


def enumerate_self_dual(
    field: Field,
    n: int,
    with_distances: bool = False,
    cap: int = DEFAULT_CAP,
) -> CensusReport:
    """Sweep all q^(2n) pairs and report every self-dual one.

    The closed-form count is attached when its hypotheses hold (n an odd
    prime, q a primitive root mod n) and left as None otherwise.  Pair
    order is a-major with coefficient vectors ascending in base-q code
    order, so reports are deterministic.

    The report spells out every pair as 2n coefficients, and a rendered
    pair costs far more than PAIR_WORDS (about 3 KB in the CLI at n = 13),
    so the report is bounded on its own, before the sweep starts: it may
    list at most cap pairs, and there are up to Q^2 of them.
    """
    ring = QuotientRing(field, n)
    if ring.size**2 > cap:
        raise CapExceeded(f"enumeration lists up to {ring.size**2} pairs, cap is {cap}")
    idx_pairs = self_dual_pairs(field, n, cap=cap)
    dists, orbits = orbit_distances(field, n, idx_pairs, cap=cap) if with_distances else (None, None)
    pairs = [(ring.element(ai), ring.element(bi)) for ai, bi in idx_pairs]
    report = CensusReport(
        q=field.q,
        n=n,
        pair_count=len(idx_pairs),
        formula_count=self_dual_count_formula(field, n),
        distinct_code_count=distinct_code_count(field, n, idx_pairs),
        pairs=pairs,
        orbit_count=orbits,
    )
    if with_distances:
        report.pair_distances = dists
        report.per_code_distances = dict(sorted(Counter(dists).items()))
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


def _split_blocks(n: int, word) -> tuple:
    flat = tuple(word)
    if len(flat) == 4 and all(isinstance(b, tuple) for b in flat):
        return flat
    if len(flat) != 4 * n:
        raise ValueError(f"expected 4 blocks or a flat vector of length {4 * n}")
    return flat[:n], flat[n : 2 * n], flat[2 * n : 3 * n], flat[3 * n :]


def membership_census(
    field: Field, n: int, word, cap: int = DEFAULT_CAP
) -> MembershipReport:
    """Count generator pairs (a, b) whose code contains the given word.

    Scans all q^(2n) pairs, not only self-dual ones; the self-dual-restricted
    count rides along.  When c*c' + d*d' is a unit the word pins (a, b)
    uniquely and the explicit solution

        a = (e*c' + d*f') / (c*c' + d*d')
        b = (f*c' - d*e') / (c*c' + d*d')

    is computed and checked against the linear system.
    """
    ring = QuotientRing(field, n)
    Q = ring.size
    if Q * Q > cap:
        raise CapExceeded(f"membership census covers {Q * Q} pairs, cap is {cap}")
    c, d, e, f = _split_blocks(n, word)
    count = 0
    unit_count = 0
    sd_count = 0
    elems = [ring.element(i) for i in range(Q)]
    recs = [ring.reciprocal(u) for u in elems]
    units = [ring.is_unit(u) for u in elems]
    # the products that involve b alone, computed once per b
    d_recs = [ring.mul(d, r) for r in recs]
    c_bs = [ring.mul(c, b) for b in elems]
    b_recs = [ring.mul(b, r) for b, r in zip(elems, recs)]
    one = ring.one
    for ai, a in enumerate(elems):
        want_e = ring.sub(ring.mul(c, a), e)  # c*a - d*b' = e
        want_f = ring.sub(f, ring.mul(d, recs[ai]))  # c*b + d*a' = f
        want_sd = ring.neg(ring.add(one, ring.mul(a, recs[ai])))  # 1 + a*a' + b*b' = 0
        for bi in range(Q):
            if d_recs[bi] != want_e or c_bs[bi] != want_f:
                continue
            count += 1
            if units[ai] and units[bi]:
                unit_count += 1
            if b_recs[bi] == want_sd:
                sd_count += 1
    c_rec = ring.reciprocal(c)
    d_rec = ring.reciprocal(d)
    delta = ring.add(ring.mul(c, c_rec), ring.mul(d, d_rec))
    unique = ring.is_unit(delta)
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


@dataclass
class MembershipSweep:
    """Membership counts for every word of F_q^(4n) at once.

    counts[u] is the number of generator pairs whose code contains the word
    with block index u = c + Q*d + Q^2*e + Q^3*f (Q = q^n).  unit_counts
    restricts to pairs with a and b both coprime to x^n - 1 (the setting of
    the q^n*(q-1) bound); sd_counts restricts to self-dual pairs.
    """

    q: int
    n: int
    Q: int
    bound: int
    counts: list
    unit_counts: list
    sd_counts: list
    constant_indices: frozenset

    def word_index(self, word) -> int:
        c, d, e, f = _split_blocks(self.n, word)
        out = 0
        for block in (f, e, d, c):
            code = 0
            for v in reversed(block):
                code = code * self.q + v
            out = out * self.Q + code
        return out

    def max_nonconstant(self, which: str = "unit") -> tuple[int, int]:
        """Largest count over words whose c and d blocks are both non-constant.

        which selects the pair universe: "all", "unit" or "self_dual".
        """
        table = {"all": self.counts, "unit": self.unit_counts, "self_dual": self.sd_counts}[
            which
        ]
        Q = self.Q
        best, best_u = -1, -1
        const = self.constant_indices
        for u, cnt in enumerate(table):
            ci = u % Q
            di = (u // Q) % Q
            if ci in const or di in const:
                continue
            if cnt > best:
                best, best_u = cnt, u
        return best, best_u


def membership_sweep(field: Field, n: int, cap: int = DEFAULT_CAP) -> MembershipSweep:
    """Exhaustive membership census over every word, via encoding all pairs.

    For each message (c, d) the codewords of all Q^2 generator pairs are
    tallied at once, which gives |{(a, b) : u in C_{a,b}}| for every word u
    with message blocks (c, d), since membership forces the message blocks.
    The cap bounds Q^4, so the Q x Q index tables used here stay small.
    """
    ring = QuotientRing(field, n)
    Q = ring.size
    if Q**4 > cap:
        raise CapExceeded(f"membership sweep covers {Q ** 4} encodings, cap is {cap}")
    t = ring.tables()
    P = t.digit_vectors
    add = (P[:, None] + P[None, :]) % field.p @ t.digit_powers  # add[u, v]: index of u + v
    rows = np.array([t.times(m) for m in range(Q)])  # rows[m, x]: index of m*x
    rows_rec = rows[:, t.recip]  # rows_rec[m, x]: index of m*x'
    neg_rows_rec = t.neg[rows_rec]
    self_rec = rows_rec.diagonal()  # x*x'
    # 1 + a*a' + b*b' = 0 exactly when b*b' = -(1 + a*a')
    sd_need = t.neg[add[ring.index(ring.one), self_rec]]
    units = np.array([ring.is_unit(ring.element(i)) for i in range(Q)])
    counts, unit_counts, sd_counts = ([0] * Q**4 for _ in range(3))
    pair_sets = [
        (counts, np.ones((Q, Q), dtype=bool)),
        (unit_counts, units[:, None] & units[None, :]),
        (sd_counts, self_rec[None, :] == sd_need[:, None]),
    ]  # masks over [a, b]
    for m in range(Q * Q):
        ci, di = m % Q, m // Q
        # the codeword of message (c, d) in C_{a,b} has index m + Q^2*(e + Q*f)
        e = add[rows[ci][:, None], neg_rows_rec[di][None, :]]  # c*a - d*b' at [a, b]
        f = add[rows[ci][None, :], rows_rec[di][:, None]]  # c*b + d*a'
        key = e + Q * f
        for out, mask in pair_sets:
            out[m :: Q * Q] = np.bincount(key[mask], minlength=Q * Q).tolist()
    const_idx = frozenset(ring.index(u) for u in constant_vectors(ring))
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


def _primes_up_to(limit: int) -> list[int]:
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [i for i in range(2, limit + 1) if sieve[i]]


def artin_scan(q: int, limit: int) -> ArtinReport:
    """Odd primes n <= limit for which q generates (Z/nZ)*.

    These are exactly the lengths where x^n - 1 splits into two irreducible
    factors over F_q.  A perfect-square q is flagged, since squares can
    never be primitive roots for n > 3.
    """
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    if limit > 10**6:
        raise ValueError(f"scan limit {limit} is above the supported 10^6")
    candidates = [n for n in _primes_up_to(limit) if n % 2 == 1 and q % n != 0]
    hits = tuple(n for n in candidates if multiplicative_order(q, n) == n - 1)
    note = ""
    root = math.isqrt(q)
    if root * root == q:
        note = "q is a perfect square; its order mod n divides (n-1)/2, so hits can only be degenerate"
    density = len(hits) / len(candidates) if candidates else 0.0
    return ArtinReport(
        q=q, limit=limit, primes=hits, candidates=len(candidates), density=density, note=note
    )
