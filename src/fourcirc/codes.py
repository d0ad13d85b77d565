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

from .fields import power_text
from .polyring import QuotientRing, RingTables

DEFAULT_CAP = 1 << 26


class CapExceeded(RuntimeError):
    """An exhaustive scan would exceed its workload cap."""


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
        it (message index = c_index * q^n + d_index), as a scan of all
        q^(2n) messages would.  Adds the messages evaluated to
        counters["messages_enumerated"] when counters is given.  Raises
        CapExceeded when q^(2n) > cap, as the scan would.
        """
        ring = self.ring
        check_distance_cap(ring, cap)
        pair = np.array([[ring.index(self.a), ring.index(self.b)]])
        best = next(least_weight_messages(ring.tables(), pair))
        count_messages(counters, best.messages)
        ci, di = divmod(best.message, ring.size)
        return best.weight, self.encode(ring.element(ci), ring.element(di))

    def __repr__(self) -> str:
        return f"FourCirculantCode(q={self.field.q}, n={self.n}, a={list(self.a)}, b={list(self.b)})"


class MinWeight(NamedTuple):
    """A code's least nonzero codeword weight, the least message index
    c_index * Q + d_index of a codeword of that weight, and the number of
    messages evaluated to find them."""

    weight: int
    message: int
    messages: int


def least_weight_messages(t: RingTables, pairs: np.ndarray, witness: bool = True) -> Iterator[MinWeight]:
    """The least codeword weight of each (a, b) row of an index pair array,
    from its messages of least weight on h information sets of the code.

    The left half is always one: the message (c, d) has e = c*a - d*b' and
    f = c*b + d*a' on the right.  When Delta = a*a' + b*b' is a unit the
    right half is one too (h = 2), and (e, f) comes back as
    (c, d) = Delta^-1 * (e*a' + f*b', f*a - e*b); a self-dual pair has
    Delta = -1.  Otherwise the left half is searched alone (h = 1).  Level
    w holds the messages of weight w, walked as its splits (i, w - i): the
    elements of weight i against those of weight w - i (by_weight), at
    most Q messages at a time.  A weight is read as weight(u + v) =
    hi[u // L, v // L] + lo[u % L, v % L] from the half tables, so no level
    array and no Q x Q table is built.

    A codeword of weight at most h*w + h - 1 weighs at most w on one of
    the h halves, so after level w it has been seen.  With witness the
    search stops once h*w + h - 1 >= best: every codeword of the least
    weight has been seen and message is the least index among them, as an
    argmin over all Q^2 messages gives.  Without it, it stops at the bound
    h*(w + 1) >= best (Zimmermann), sooner by a level at h = 1 and for
    even weights at h = 2: the weight is final, and message is the least
    index seen.  A non-unit Delta makes (c, d) -> (e, f) singular, so some
    word (c, d, 0, 0) is nonzero and h = 1 needs no level above 2n.
    """
    Q, n = t.size, t.n
    ring = QuotientRing(t.field, n)
    NEG, REC = t.neg, t.recip
    hi, lo = t.half_weights
    L, Qh = len(lo), len(hi)
    table = np.concatenate([hi.ravel(), lo.ravel()])
    # weight(u + v) = table[row_at[0, u] + col_at[0, v]] + table[row_at[1, u] + col_at[1, v]]
    col_at = np.stack(divmod(np.arange(Q), L))
    row_at = np.stack([col_at[0] * Qh, col_at[1] * L + Qh * Qh])
    # the elements ordered by weight: those of weight i are by_order[start[i]:start[i + 1]]
    by_order = np.concatenate(t.by_weight)
    start = np.cumsum([0] + [len(block) for block in t.by_weight]).tolist()
    maps: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def times_pair(m):
        """c -> c*m and c -> c*m', the second as c'*m reflected: c*m' = (c'*m)'."""
        if m not in maps:
            row = t.times(m)
            maps[m] = (row, REC[row[REC]])
        return maps[m]

    for ai, bi in pairs:
        row_a, row_ap = times_pair(ai)
        row_b, row_bp = times_pair(bi)
        # block i of the other half of (x, y) is firsts[i][x] + seconds[i][y]: the left
        # half's (e, f) = (c*a - d*b', c*b + d*a') and, when Delta is a unit, the right
        # half's (c, d) = ((e*a' + f*b')/Delta, (f*a - e*b)/Delta)
        firsts, seconds = [row_a, row_b], [NEG[row_bp], row_ap]
        delta = int(t.add(row_a[REC[ai]], row_b[REC[bi]]))
        if delta == NEG[1] or ring.is_unit(ring.element(delta)):
            times_inv = NEG if delta == NEG[1] else t.times(ring.index(ring.inv(ring.element(delta))))
            firsts += [times_inv[row_ap], NEG[times_inv[row_b]]]
            seconds += [times_inv[row_bp], times_inv[row_a]]
        h = len(firsts) // 2
        firsts, seconds = np.stack(firsts), np.stack(seconds)
        # [high or low coefficients, block, element in by_order]
        rows = row_at.take(firsts.take(by_order, axis=1), axis=1)
        cols = col_at.take(seconds.take(by_order, axis=1), axis=1)
        best, count, w = 4 * n + 1, 0, 0
        found = []  # (half, c, d) of the messages seen at weight best, as positions in by_order
        while not (h * w + h - 1 >= best if witness else h * (w + 1) >= best):
            w += 1
            for i in range(max(0, w - n), min(w, n) + 1):
                d0, d1 = start[w - i], start[w - i + 1]
                step = Q // (d1 - d0)  # rows of c per pass, at most Q messages
                for c0 in range(start[i], start[i + 1], step):
                    c1 = min(c0 + step, start[i + 1])
                    index = rows[:, :, c0:c1, None] + cols[:, :, None, d0:d1]
                    blocks = table.take(index)
                    blocks = blocks[0] + blocks[1]  # high plus low coefficients, per block
                    sums = blocks[0::2] + blocks[1::2]  # [half, c, d]
                    count += sums.size
                    lightest = int(sums.min()) + w
                    if lightest > best:
                        continue
                    if lightest < best:
                        best, found = lightest, []
                    half, x, y = np.nonzero(sums == lightest - w)
                    found.append((half, c0 + x, d0 + y))
        half, x, y = (np.concatenate(v) for v in zip(*found))
        x, y = by_order[x], by_order[y]
        messages = x * Q + y
        if h == 2:
            right = half == 1
            x, y = x[right], y[right]
            messages[right] = t.add(firsts[2, x], seconds[2, y]) * Q + t.add(firsts[3, x], seconds[3, y])
        yield MinWeight(best, int(messages.min()), count)
