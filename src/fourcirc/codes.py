"""Four circulant codes: encoding, duality criteria, distances.

A code is determined by a pair (a, b) of residues in R(n, F_q).  Its
generator matrix is

    G = [ I  0  A  B  ]
        [ 0  I -Bt At ]

with A, B the circulant matrices whose first rows are the coefficient
vectors of a and b.  Rows of G span a [4n, 2n] code; the identity blocks
make the first two length-n blocks of any codeword equal to its message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .fields import inverse_matrices, power_text
from .polyring import CapExceeded, QuotientRing, chunk_tables, times_matrices

DEFAULT_CAP = 1 << 26
PASS_WORDS = 1 << 15  # codewords least_weight_messages weighs in one pass
CODE_BATCH = 64  # codes least_weight_messages searches side by side
CHUNK_CODES = 256  # most codes per side of its chunk tables


def check_distance_cap(ring: QuotientRing, cap: int) -> None:
    """Refuse distance runs above the cap, charging Q^2 = q^(2n) messages
    per code, the work of an exhaustive scan.  least_weight_messages
    evaluates only its level sizes, but the charge is kept, so the same
    runs are refused as under the scan."""
    if ring.size**2 > cap:
        need = power_text(ring.field.q, 2 * ring.n)
        raise CapExceeded(f"distance scans need {need} codeword evaluations per code, cap is {cap}")


def count_messages(counters: Optional[dict], messages: int) -> None:
    """Add messages to counters["messages_enumerated"], if counters is given."""
    if counters is not None:
        counters["messages_enumerated"] = counters.get("messages_enumerated", 0) + messages


def split_word(q: int, n: int, word) -> tuple:
    """Blocks (c, d, e, f) of a word given as 4 tuples or one flat vector;
    ValueError names the first block that is not n codes in [0, q)."""
    flat = tuple(word)
    if len(flat) == 4 and all(isinstance(b, tuple) for b in flat):
        blocks = flat
    elif len(flat) == 4 * n:
        blocks = flat[:n], flat[n : 2 * n], flat[2 * n : 3 * n], flat[3 * n :]
    else:
        raise ValueError(f"expected 4 blocks or a flat vector of length {4 * n}")
    for name, block in zip("cdef", blocks):
        if len(block) != n or not all(isinstance(v, (int, np.integer)) and 0 <= v < q for v in block):
            raise ValueError(f"block {name} must hold {n} codes in [0, {q}), got {block}")
    return tuple(tuple(int(v) for v in block) for block in blocks)


@dataclass(frozen=True)
class Codeword:
    """Codeword split into its four length-n blocks (c, d, e, f)."""

    blocks: tuple

    @property
    def vector(self) -> tuple:
        return self.blocks[0] + self.blocks[1] + self.blocks[2] + self.blocks[3]

    @property
    def weight(self) -> int:
        return sum(1 for x in self.vector if x)


class FourCirculantCode:
    """The [4n, 2n] code C_{a,b} over F_q."""

    def __init__(self, ring: QuotientRing, a: Sequence[int], b: Sequence[int]):
        n = ring.n
        if len(a) != n or len(b) != n:
            raise ValueError(f"generator polynomials must have exactly {n} coefficients")
        for c in tuple(a) + tuple(b):
            if not 0 <= c < ring.field.q:
                raise ValueError(f"coefficient {c} out of range for F_{ring.field.q}")
        self.ring = ring
        self.field = ring.field
        self.n = n
        self.a = tuple(a)
        self.b = tuple(b)
        self.a_rec = ring.reciprocal(self.a)
        self.b_rec = ring.reciprocal(self.b)
        self._residue: Optional[tuple] = None

    # -- encoding and membership ------------------------------------------------

    def encode(self, c: Sequence[int], d: Sequence[int]) -> Codeword:
        """c*(1,0,a,b) + d*(0,1,-b',a') with products taken in R(n, F_q)."""
        R = self.ring
        c = tuple(c)
        d = tuple(d)
        e = R.sub(R.mul(c, self.a), R.mul(d, self.b_rec))
        f = R.add(R.mul(c, self.b), R.mul(d, self.a_rec))
        return Codeword((c, d, e, f))

    def contains(self, word) -> bool:
        """Membership via the systematic form: blocks (c, d) are the message."""
        c, d, e, f = split_word(self.field.q, self.n, word.blocks if isinstance(word, Codeword) else word)
        return self.encode(c, d).blocks[2:] == (e, f)

    # -- duality criteria ---------------------------------------------------------

    def criterion_residue(self) -> tuple:
        """1 + a*a' + b*b' reduced in R(n, F_q)."""
        if self._residue is None:
            R = self.ring
            s = R.add(R.mul(self.a, self.a_rec), R.mul(self.b, self.b_rec))
            self._residue = R.add(R.one, s)
        return self._residue

    def is_self_dual_poly(self) -> bool:
        return self.criterion_residue() == self.ring.zero

    def is_lcd(self) -> bool:
        """Complementary dual: the criterion residue is a unit mod x^n - 1."""
        return self.ring.is_unit(self.criterion_residue())

    # -- minimum distance ------------------------------------------------------------

    def min_distance(self, cap: int = DEFAULT_CAP, counters: Optional[dict] = None) -> tuple[int, Codeword]:
        """Exact minimum distance, from the messages of least weight on
        either half of the code (least_weight_messages).

        Returns the distance and the codeword of the least message attaining
        it (in the order of c_index * q^n + d_index), as a scan of all
        q^(2n) messages would.  Adds the messages evaluated to
        counters["messages_enumerated"] when counters is given.  Raises
        CapExceeded when q^(2n) > cap, as the scan would.
        """
        check_distance_cap(self.ring, cap)
        best = next(least_weight_messages(self.ring, np.array([[self.a, self.b]])))
        count_messages(counters, best.messages)
        return best.weight, self.encode(*best.message)

    def __repr__(self) -> str:
        return f"FourCirculantCode(q={self.field.q}, n={self.n}, a={list(self.a)}, b={list(self.b)})"


class MinWeight(NamedTuple):
    """A code's least nonzero codeword weight, the coefficient tuples (c, d)
    of the least message of a codeword of that weight (in the order of
    c_index * Q + d_index), and the number of messages evaluated to find
    them.  A search without witness leaves message None."""

    weight: int
    message: Optional[tuple]
    messages: int


class _Levels:
    """The elements of R(n, F_q) by weight, grown on demand: those of weight
    i are at positions start[i]:start[i + 1], and the one at position
    e >= 1 is the one at parent[e] plus term term[e]: term j*(q - 1) + v - 1
    is v*x^j, of coefficient row term_rows[term], and the zero element's
    term n*(q - 1) has a zero row.  after holds 1 + the last nonzero
    position of each element of the top weight."""

    def __init__(self, ring: QuotientRing):
        n, q = ring.n, ring.field.q
        self.after_term = np.repeat(np.arange(n), q - 1) + 1
        self.later = self.after_term > np.arange(n + 1)[:, None]  # [after, term]
        self.term_rows = (np.arange(1, q)[:, None] * np.eye(n + 1, n, dtype=np.int64)[:, None]).reshape(-1, n)
        self.parent = self.after = np.zeros(1, dtype=np.int64)
        self.term = np.array([n * (q - 1)])
        self.start = [0, 1]

    def grow(self, w: int) -> None:
        """Hold every element of weight at most w: each element of the top
        weight gains each term after its last nonzero coefficient."""
        while len(self.start) <= w + 1:
            row, term = np.nonzero(self.later[self.after])
            parent = row + self.start[-2]
            self.parent, self.term = np.concatenate([self.parent, parent]), np.concatenate([self.term, term])
            self.after = self.after_term[term]
            self.start.append(len(self.parent))

    def rows(self, positions: np.ndarray) -> np.ndarray:
        """The coefficient rows [..., coefficient] of the elements at positions, a term per weight held."""
        out = np.zeros(positions.shape + self.term_rows.shape[1:], dtype=np.int64)
        for _ in range(len(self.start) - 2):
            out += self.term_rows.take(self.term.take(positions), axis=0)
            positions = self.parent.take(positions)
        return out


def least_weight_messages(ring: QuotientRing, ab: np.ndarray, witness: bool = True) -> Iterator[MinWeight]:
    """The least codeword weight of each (a, b) of an (N, 2, n) array of
    coefficient rows, from its least-weight messages on h information sets.

    The left half is always one: the message (c, d) has e = c*a - d*b' and
    f = c*b + d*a' on the right.  When Delta = a*a' + b*b' is a unit the
    right half is one too (h = 2), and (e, f) comes back as
    (c, d) = Delta^-1 * (e*a' + f*b', f*a - e*b); a self-dual pair has
    Delta = -1.  Otherwise the left half is searched alone (h = 1).  Level
    w holds the messages of weight w, walked as its splits (i, w - i): the
    elements of weight i (_Levels) against those of weight w - i, at most
    PASS_WORDS codewords (or one x against every y) at a time, for up to
    CODE_BATCH codes of equal h side by side.  The other half is read off
    generator rows (times_matrices) in chunks of c <= n - n // 2
    coefficients, q^c <= CHUNK_CODES: an element's chunk codes are its
    parent's plus its term's, and a weight is a sum of chunk_tables
    lookups, so no array spans the ring.

    A codeword of weight at most h*w + h - 1 weighs at most w on one of
    the h halves, so after level w it has been seen.  With witness the
    search stops once h*w + h - 1 >= best: every codeword of the least
    weight has been seen, and message is the least (c, d) among them in
    the order of c_index * Q + d_index, as an argmin over all Q^2
    messages gives.  Without it, it stops at the bound h*(w + 1) >= best
    (Zimmermann), sooner by a level at h = 1 and for even weights at
    h = 2: the weight is final, and message is None.  A non-unit Delta
    makes (c, d) -> (e, f) singular, so some word (c, d, 0, 0) is nonzero
    and h = 1 needs no level above 2n.
    """
    field, n = ring.field, ring.n
    p, k, q, nk = field.p, field.k, field.q, ring.n * field.k
    width = 1  # coefficients per chunk
    while width < n - n // 2 and q ** (width + 1) <= CHUNK_CODES:
        width += 1
    chunks, span = -(-2 * n // width), q**width
    sums, weights = (table.ravel() for table in chunk_tables(field, width))  # at u * span + v
    at = np.arange(2 * nk)
    to_chunks = (at // (width * k) == np.arange(chunks)[:, None]) * p ** (at % (width * k))  # [chunk, digit]
    place, levels = p ** np.arange(k), _Levels(ring)  # an F_q code is its F_p digits @ place
    per_key = 1  # base-q digits of a message one int64 sort key holds
    while q ** (per_key + 1) < 1 << 63:
        per_key += 1
    cuts = range(per_key, 2 * n, per_key)  # the witness message's 2n digits, cut into keys
    # on half j the other half of (x, y) is x @ block 4j + y @ block 4j + 2 and x @ block 4j + 1
    # + y @ block 4j + 3: the left half's (e, f) = (c*a - d*b', c*b + d*a'), the right half's
    # (c, d) = ((e*a' + f*b')/Delta, (f*a - e*b)/Delta), here for Delta = -1, from a, b, a', b'
    order, signs = [0, 1, 3, 2, 2, 1, 3, 0], np.array([1, 1, -1, 1, -1, 1, -1, -1])[:, None, None]
    scale, unscale = np.array([[span], [1]])[:, :, None], np.array([[1], [span]])[:, :, None]  # by block

    def search(gens: np.ndarray, h: int) -> np.ndarray:
        """[weight, messages, c, d] of the codes with generator rows gens, side by side (c, d = 0 without witness)."""
        start, out = levels.start, np.zeros((len(gens), 2 + 2 * n), dtype=np.int64)
        # [code, half, block, chunk, term]: the chunk codes of the term's generator rows
        terms = (field.digit_array[1:] @ gens.reshape(len(gens), n, k, -1) % p).reshape(len(gens), -1, 2 * h, 2 * nk)
        terms = (terms @ to_chunks.T).transpose(0, 2, 3, 1).reshape(len(gens), h, 2, chunks, -1)
        # [code, half, block, chunk, element]: the chunk codes, the first block's times span
        weighed = np.zeros((len(gens), h, 2, chunks, 1), dtype=np.intp)
        ids, best = np.arange(len(gens)), np.full(len(gens), 4 * n + 1)
        seen, w, worst = 0, 0, 4 * n + 1  # messages per half in levels 1..w; the largest best
        found = []  # (code, weight, half, x, y) of the messages at their code's best weight so far
        while True:
            done = h * w + h - 1 >= best if witness else h * (w + 1) >= best
            if done.any():
                out[ids[done], 0], out[ids[done], 1] = best[done], h * seen
                ids, best, weighed, terms = ids[~done], best[~done], weighed[~done], terms[~done]
                if not len(ids):
                    break
                worst = int(best.max())
            w += 1
            if w <= n:
                levels.grow(w)
                level = slice(start[w], start[w + 1])
                lookup = weighed.take(levels.parent[level], axis=4) * unscale + terms.take(levels.term[level], axis=4)
                weighed = np.concatenate([weighed, sums.take(lookup) * scale], axis=4)
            for i in range(max(0, w - n), min(w, n) + 1):
                x0, x1, y0, y1 = start[i], start[i + 1], start[w - i], start[w - i + 1]
                seen += (x1 - x0) * (y1 - y0)
                seconds = weighed[:, :, 1, :, None, y0:y1]
                step = max(1, PASS_WORDS // (len(ids) * h * (y1 - y0)))  # rows of x per pass
                for c0 in range(x0, x1, step):
                    firsts = weighed[:, :, 0, :, c0 : min(c0 + step, x1), None]
                    total = np.add.reduce(weights.take(firsts + seconds), axis=2, dtype=np.int16)  # [code, half, x, y]
                    if int(total.min()) + w > worst:
                        continue
                    best = np.minimum(best, total.reshape(len(ids), -1).min(axis=1) + w)
                    worst = int(best.max())
                    if witness:
                        code, half, x, y = np.nonzero(total == (best - w)[:, None, None, None])
                        found.append((ids[code], best[code], half, c0 + x, y0 + y))
        if witness:
            code, weight, half, x, y = (np.concatenate(v) for v in zip(*found))
            keep = weight == out[code, 0]
            code, half, cd = code[keep], half[keep], levels.rows(np.stack([x[keep], y[keep]], axis=1))
            for j in np.flatnonzero(np.bincount(code[half == 1])).tolist():  # the right half's (e, f) is (c, d)
                mine = (half == 1) & (code == j)
                e, f = field.digit_array[cd[mine]].reshape(-1, 2, nk).swapaxes(0, 1)
                cd[mine] = (e @ gens[j, :, 4 * nk : 6 * nk] + f @ gens[j, :, 6 * nk :]).reshape(-1, 2, n, k) % p @ place
            message = cd[:, :, ::-1].reshape(len(cd), -1)  # c's, then d's, highest coefficient first
            keys = [part @ q ** np.arange(part.shape[1])[::-1] for part in np.split(message, cuts, axis=1)]
            top = np.lexsort(keys[::-1] + [code])
            top = top[np.diff(code[top], prepend=-1) > 0]  # the least message (c, d) of each code
            out[code[top], 2:] = cd[top].reshape(len(top), -1)
        return out

    minus_one, recip = field.digit_array[[field.neg(1)] + [0] * (n - 1)].ravel(), -np.arange(n) % n
    for b0 in range(0, len(ab), CODE_BATCH):
        rows = np.asarray(ab[b0 : b0 + CODE_BATCH])
        times = times_matrices(field, np.concatenate([rows, rows[:, :, recip]], axis=1))
        # the digits of a*a' + b*b': row 0 of a matrix holds the digits of 1*a or of 1*b
        delta = (times[:, 0, :1] @ times[:, 2] + times[:, 1, :1] @ times[:, 3])[:, 0] % p
        unit, blocks = (delta == minus_one).all(axis=1), times[:, order] * signs
        other = np.flatnonzero(~unit)
        if len(other):  # Delta is a unit when its matrix M_a M_a' + M_b M_b' is invertible; the inverse replaces -1
            inverses, invertible = inverse_matrices(field, (times[other, :2] @ times[other, 2:]).sum(axis=1))
            other = other[invertible]
            unit[other], blocks[other, 4:] = True, -blocks[other, 4:] @ inverses[invertible, None]
        gens = (blocks % p).transpose(0, 2, 1, 3).reshape(len(rows), nk, 8 * nk)
        out = np.empty((len(rows), 2 + 2 * n), dtype=np.int64)
        for h, sel in ((1, ~unit), (2, unit)):
            if sel.any():
                out[sel] = search(gens[sel][:, :, : 4 * h * nk], h)
        yield from (MinWeight(w, (tuple(cd[:n]), tuple(cd[n:])) if witness else None, m) for w, m, *cd in out.tolist())
