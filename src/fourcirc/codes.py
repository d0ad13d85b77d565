"""Four circulant codes: generator matrices, duality criteria, distances.

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
from typing import Iterator, Optional, Sequence

import numpy as np

from .fields import Field, digits, mul_matrices
from .polyring import QuotientRing, RingTables, poly_degree, poly_gcd

DEFAULT_CAP = 1 << 26
SWEEP_CHUNK = 8192  # (a, b) pairs per batch of self_dual_matrix_sweep over F_p


class CapExceeded(RuntimeError):
    """An exhaustive scan would exceed its workload cap."""


def check_distance_cap(Q: int, cap: int) -> None:
    """Refuse exhaustive distance scans of Q^2 messages per code above the cap."""
    if Q * Q > cap:
        raise CapExceeded(f"distance scans need {Q * Q} codeword evaluations per code, cap is {cap}")


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


def circulant(first_row: Sequence[int]) -> list[list[int]]:
    """Expand a first row into the circulant matrix M[i][j] = row[(j - i) % n]."""
    n = len(first_row)
    return [[first_row[(j - i) % n] for j in range(n)] for i in range(n)]


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
        self._neg_b_rec = ring.neg(self.b_rec)
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
        if isinstance(word, Codeword):
            c, d, e, f = word.blocks
        else:
            flat = tuple(word)
            if len(flat) != 4 * self.n:
                raise ValueError(f"expected a vector of length {4 * self.n}")
            n = self.n
            c, d, e, f = flat[:n], flat[n : 2 * n], flat[2 * n : 3 * n], flat[3 * n :]
        expected = self.encode(c, d)
        return expected.blocks[2] == tuple(e) and expected.blocks[3] == tuple(f)

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
        g = poly_gcd(self.field, self.ring.lift(self.criterion_residue()), self.ring.modulus_poly)
        return poly_degree(g) == 0

    def generator_matrix(self) -> list[list[int]]:
        n, F = self.n, self.field
        A = circulant(self.a)
        B = circulant(self.b)
        NBt = circulant(self._neg_b_rec)
        At = circulant(self.a_rec)
        rows = []
        for i in range(n):
            row = [0] * (2 * n)
            row[i] = F.one
            rows.append(row + A[i] + B[i])
        for i in range(n):
            row = [0] * (2 * n)
            row[n + i] = F.one
            rows.append(row + NBt[i] + At[i])
        return rows

    def is_self_dual_matrix(self) -> bool:
        """Matrix-side criterion: A*At + B*Bt + I = 0 and the full Gram G*Gt = 0.

        Works entirely on expanded matrices with literal transposition, so it
        shares no machinery with the residue criterion.
        """
        n, F = self.n, self.field
        A = circulant(self.a)
        B = circulant(self.b)
        At = [[A[j][i] for j in range(n)] for i in range(n)]
        Bt = [[B[j][i] for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                s = F.one if i == j else F.zero
                for t in range(n):
                    s = F.add(s, F.mul(A[i][t], At[t][j]))
                    s = F.add(s, F.mul(B[i][t], Bt[t][j]))
                if s != F.zero:
                    return False
        G = []
        for i in range(n):
            row = [0] * (2 * n)
            row[i] = F.one
            G.append(row + A[i] + B[i])
        for i in range(n):
            row = [0] * (2 * n)
            row[n + i] = F.one
            G.append(row + [F.neg(x) for x in Bt[i]] + At[i])
        for i in range(2 * n):
            for j in range(2 * n):
                s = F.zero
                for t in range(4 * n):
                    s = F.add(s, F.mul(G[i][t], G[j][t]))
                if s != F.zero:
                    return False
        return True

    # -- minimum distance ------------------------------------------------------------

    def min_distance(self, cap: int = DEFAULT_CAP) -> tuple[int, Codeword]:
        """Exact minimum distance by scanning all q^(2n) messages.

        Returns the distance and the codeword of the lexicographically least
        message attaining it (message index = c_index * q^n + d_index).
        Raises CapExceeded when q^(2n) > cap.
        """
        ring = self.ring
        Q = ring.size
        check_distance_cap(Q, cap)
        pair = (ring.index(self.a), ring.index(self.b))
        wt = next(message_weights(ring.tables(), [pair]))
        # argmin returns the first minimum in c-major order: the least message
        best_m = int(wt.argmin())
        best_w = int(wt.flat[best_m])
        ci, di = divmod(best_m, Q)
        witness = self.encode(ring.element(ci), ring.element(di))
        return best_w, witness

    def __repr__(self) -> str:
        return f"FourCirculantCode(q={self.field.q}, n={self.n}, a={list(self.a)}, b={list(self.b)})"


def message_weights(
    t: RingTables, pairs: Sequence[tuple[int, int]]
) -> Iterator[np.ndarray]:
    """Codeword weights of every message, one Q x Q array per (a, b) index pair.

    Entry [ci, di] is the weight of the codeword of message (c, d) with
    c = element(ci), d = element(di); the zero message gets 4n + 1, above
    every real weight.  Weights are int8, which holds 4n + 1 for n <= 31,
    far beyond any ring whose Q x Q arrays fit in memory.
    """
    W = t.weight.astype(np.int8)
    SW, NEG, REC = t.sum_weight, t.neg, t.recip
    big = np.int8(4 * t.n + 1)
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
        # gathering rows, then columns, beats one broadcast 2-d gather
        wt = SW[row_a][:, NEG[row_bp]]  # weight(c*a - d*b')
        wt += SW[row_b][:, row_ap]  # weight(c*b + d*a')
        wt += W[:, None]  # weight(c)
        wt += W  # weight(d)
        wt[0, 0] = big
        yield wt


def self_dual_matrix_sweep(
    field: Field,
    n: int,
    pairs: Optional[Sequence[tuple[int, int]]] = None,
) -> np.ndarray:
    """Matrix-side self-duality test over many (a, b) pairs at once.

    pairs is a sequence of (a_index, b_index) ring element indices; None means
    all q^(2n) pairs in a-major order.  A batched integer computation
    assembles every G explicitly and checks A*At + B*Bt + I = 0 together
    with the full Gram G*Gt = 0.  Each F_q entry x is taken to its k x k
    matrix rep[x] over F_p, multiplication by x on coefficient vectors vec[y],
    so a product of matrices over F_q becomes an integer einsum mod p.
    """
    ring = QuotientRing(field, n)
    Q = ring.size
    if pairs is None:
        ai_all = np.repeat(np.arange(Q, dtype=np.int64), Q)
        bi_all = np.tile(np.arange(Q, dtype=np.int64), Q)
    else:
        arr = np.asarray(pairs, dtype=np.int64)
        ai_all, bi_all = arr[:, 0], arr[:, 1]
    total = len(ai_all)

    p, k, q = field.p, field.k, field.q
    vec = digits(np.arange(q), p, k)
    rep = mul_matrices(field, np.arange(q))
    neg = field.neg_array
    E = digits(np.arange(Q), q, n)
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    I_n = np.eye(n, dtype=np.int64)
    one = I_n[:, None, :] * vec[1][:, None]  # I as one[i, a, j]

    def gram_is_zero(X, extra=0):
        """Per pair, whether X*Xt + extra is the zero matrix over F_q."""
        m, r, c = X.shape
        RX = rep[X].transpose(0, 1, 3, 2, 4).reshape(m, r * k, c * k)
        VX = vec[X].reshape(m, r, c * k)
        g = np.einsum("sij,skj->sik", RX, VX).reshape(m, r, k, r) + extra
        return (g % p == 0).all(axis=(1, 2, 3))

    chunk = max(1, SWEEP_CHUNK // (k * k))  # rep[] makes each entry k*k times larger
    out = np.empty(total, dtype=bool)
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        A = E[ai_all[start:stop]][:, idx]
        B = E[bi_all[start:stop]][:, idx]
        AB = np.concatenate([A, B], axis=2)  # A*At + B*Bt = [A B] * [A B]t
        ok = gram_is_zero(AB, one)
        m = stop - start
        G = np.zeros((m, 2 * n, 4 * n), dtype=np.int64)
        G[:, :n, :n] = I_n
        G[:, n:, n : 2 * n] = I_n
        G[:, :n, 2 * n :] = AB
        G[:, n:, 2 * n : 3 * n] = neg[B.transpose(0, 2, 1)]
        G[:, n:, 3 * n :] = A.transpose(0, 2, 1)
        ok &= gram_is_zero(G)
        out[start:stop] = ok
    return out
