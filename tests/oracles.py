"""Exhaustive cross-check oracles, one definition each.

Every oracle computes a quantity the library also computes, by a route
that shares none of the library's fast machinery: literal matrices,
schoolbook arithmetic, plain scans.  Tests import them as `from oracles
import ...`, the way they import `helpers`.

| oracle                      | checks                                              |
| --------------------------- | --------------------------------------------------- |
| `SchoolbookField`           | `Field` add/neg/mul/inv/frobenius tables            |
| `brute_gcd`                 | `polyring.poly_gcd`                                 |
| `einsum_prime_tables`       | `RingTables` neg/recip/weight/times/sum_weight      |
| `is_two_factor_case`        | `polyring.is_primitive_root`, by coset count        |
| `circulant`                 | building block of the two below                     |
| `generator_matrix`          | `is_self_dual_poly` (Gram of G), and feeds `rref`   |
| `is_self_dual_matrix`       | `FourCirculantCode.is_self_dual_poly`               |
| `self_dual_matrix_sweep`    | `census.self_dual_pairs`, all pairs at once         |
| `poly_truth_table`          | residue side of the sweep comparison                |
| `rref`                      | `census.distinct_code_count`                        |
| `second_pass_distance`      | `FourCirculantCode.min_distance`                    |
| `encode_scan_distance`      | `min_distance` distance and witness                 |
| `generator_matrix_distance` | `min_distance` above 1024 ring elements             |
| `all_pairs_distances`       | `census.orbit_distances`, one scan per pair         |
| `entropy_volume_gap`        | `asympt.entropy` against `asympt.ball_volume`       |
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from fourcirc.asympt import ball_volume, entropy
from fourcirc.census import code_distances, self_dual_pairs
from fourcirc.fields import Field, digits, mul_matrices
from fourcirc.polyring import QuotientRing, cyclotomic_cosets, monic_polys, poly_divmod

SWEEP_CHUNK = 8192  # (a, b) pairs per batch of self_dual_matrix_sweep over F_p


# ---------------------------------------------------------------------------
# fields and polynomials

class SchoolbookField:
    """Polynomial-basis reference arithmetic for F_q, independent of the tables.

    Elements use the same codes as Field; products are schoolbook polynomial
    products reduced by precomputed rows for y^k, ..., y^(2k-2).
    """

    def __init__(self, p, k, modulus):
        self.p, self.k, self.q = p, k, p**k
        self._xpow = ()
        if k > 1:
            red = tuple((-c) % p for c in modulus[:k])
            rows = [red]
            for _ in range(k - 2):
                prev = rows[-1]
                top = prev[-1]
                row = [0] + list(prev[:-1])
                if top:
                    row = [(row[i] + top * red[i]) % p for i in range(k)]
                rows.append(tuple(row))
            self._xpow = tuple(rows)

    def coeffs(self, x):
        out = []
        for _ in range(self.k):
            out.append(x % self.p)
            x //= self.p
        return out

    def add(self, x, y):
        if self.k == 1:
            return (x + y) % self.p
        p = self.p
        a, b = self.coeffs(x), self.coeffs(y)
        return sum(((a[i] + b[i]) % p) * p**i for i in range(self.k))

    def neg(self, x):
        if self.k == 1:
            return (-x) % self.p
        p = self.p
        return sum(((-c) % p) * p**i for i, c in enumerate(self.coeffs(x)))

    def mul(self, x, y):
        if self.k == 1:
            return (x * y) % self.p
        if x == 0 or y == 0:
            return 0
        p, k = self.p, self.k
        a, b = self.coeffs(x), self.coeffs(y)
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        res = [v % p for v in prod[:k]]
        for j in range(k, 2 * k - 1):
            v = prod[j] % p
            if v:
                row = self._xpow[j - k]
                for i in range(k):
                    res[i] = (res[i] + v * row[i]) % p
        return sum(c * p**i for i, c in enumerate(res))

    def pow(self, x, e):
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, x)
            x = self.mul(x, x)
            e >>= 1
        return result


def brute_gcd(field, f, g):
    """Largest-degree monic common divisor, by scanning every candidate."""
    best = ()
    top = max(len(f), len(g))
    for d in range(0, top):
        for h in monic_polys(field, d):
            if not poly_divmod(field, f, h)[1] and not poly_divmod(field, g, h)[1]:
                if d >= len(best) - 1:
                    best = h
    return best


def is_two_factor_case(field: Field, n: int) -> bool:
    """True when x^n - 1 splits into exactly two irreducible factors over F_q."""
    return len(cyclotomic_cosets(field.q, n)) == 2


# ---------------------------------------------------------------------------
# ring tables

def einsum_prime_tables(p, n):
    """Dense tables of R(n, F_p) by one integer convolution of digit vectors."""
    Q = p**n
    v = np.arange(Q, dtype=np.int64)
    E = np.empty((Q, n), dtype=np.int64)
    for j in range(n):
        E[:, j] = v % p
        v //= p
    pw = p ** np.arange(n, dtype=np.int64)
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n  # (j - i) % n
    conv = np.einsum("xi,yij->xyj", E, E[:, idx]) % p
    return {
        "mul": conv @ pw,
        "add": ((E[:, None, :] + E[None, :, :]) % p) @ pw,
        "neg": ((-E) % p) @ pw,
        "recip": E[:, [(n - j) % n for j in range(n)]] @ pw,
        "weight": (E != 0).sum(axis=1),
    }


# ---------------------------------------------------------------------------
# generator matrices and the Gram-matrix self-duality criterion

def circulant(first_row: Sequence[int]) -> list[list[int]]:
    """Expand a first row into the circulant matrix M[i][j] = row[(j - i) % n]."""
    n = len(first_row)
    return [[first_row[(j - i) % n] for j in range(n)] for i in range(n)]


def generator_matrix(code) -> list[list[int]]:
    """G = [I 0 A B; 0 I -Bt At] of a FourCirculantCode, as nested lists."""
    n, F = code.n, code.field
    A = circulant(code.a)
    B = circulant(code.b)
    NBt = circulant(code.ring.neg(code.b_rec))
    At = circulant(code.a_rec)
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


def is_self_dual_matrix(code) -> bool:
    """Matrix-side criterion: A*At + B*Bt + I = 0 and the full Gram G*Gt = 0.

    Works entirely on expanded matrices with literal transposition, so it
    shares no machinery with the residue criterion.
    """
    n, F = code.n, code.field
    A = circulant(code.a)
    B = circulant(code.b)
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


def poly_truth_table(field, n):
    """Residue-criterion truth table over all q^(2n) pairs, a-major, from self_dual_pairs."""
    size = QuotientRing(field, n).size
    poly = np.zeros(size**2, dtype=bool)
    for ai, bi in self_dual_pairs(field, n):
        poly[ai * size + bi] = True
    return poly


def rref(field, rows):
    """Reduced row echelon form of a matrix over F_q, as a hashable tuple."""
    mat = [list(r) for r in rows]
    nrows, ncols = len(mat), len(mat[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(inv, v) for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [field.sub(mat[i][j], field.mul(f, mat[r][j])) for j in range(ncols)]
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in mat)


# ---------------------------------------------------------------------------
# minimum distance

def second_pass_distance(code):
    """Independent oracle: d-major enumeration in reverse, plain encode calls."""
    ring = code.ring
    best = 4 * code.n + 1
    for di in reversed(range(ring.size)):
        for ci in reversed(range(ring.size)):
            if ci == 0 and di == 0:
                continue
            w = code.encode(ring.element(ci), ring.element(di)).weight
            if w < best:
                best = w
    return best


def encode_scan_distance(code):
    """Least weight over nonzero messages, and the least message attaining it,
    by encoding every message in c-major order."""
    ring = code.ring
    Q = ring.size
    best_w, best_m = 4 * code.n + 1, -1
    for m in range(1, Q * Q):
        ci, di = divmod(m, Q)
        w = code.encode(ring.element(ci), ring.element(di)).weight
        if w < best_w:
            best_w, best_m = w, m
    ci, di = divmod(best_m, Q)
    return best_w, code.encode(ring.element(ci), ring.element(di))


def generator_matrix_distance(code, chunk=32):
    """Least weight over nonzero messages and the least message attaining it,
    as (d, c index, d index), from [c d] G mod p over a prime field, a block
    of c values at a time."""
    p, n, Q = code.field.p, code.n, code.ring.size
    G = np.array(generator_matrix(code), dtype=np.int32)
    msgs = (np.arange(Q)[:, None] // p ** np.arange(n) % p).astype(np.int32)
    from_c, from_d = msgs @ G[:n], msgs @ G[n:]
    best = (4 * n + 1, 0, 0)
    for start in range(0, Q, chunk):
        words = (from_c[start : start + chunk, None, :] + from_d[None, :, :]) % p
        wt = np.count_nonzero(words, axis=2)
        if start == 0:
            wt[0, 0] = 4 * n + 1
        ci, di = np.unravel_index(wt.argmin(), wt.shape)
        if wt[ci, di] < best[0]:
            best = (int(wt[ci, di]), start + int(ci), int(di))
    return best


def all_pairs_distances(field, n):
    """Self-dual pairs in a-major order and the minimum distance of each,
    from one kernel scan per pair rather than one per orbit."""
    pairs = self_dual_pairs(field, n)
    return pairs, code_distances(field, n, pairs)


# ---------------------------------------------------------------------------
# entropy

def entropy_volume_gap(q: int, t: float, N: int) -> float:
    """log_q(ball_volume(q, N, floor(t*N))) / N - H_q(t).

    Converges to 0 as N grows; the exact volume sits below q^(N*H_q(t)) for
    t below (q-1)/q.
    """
    r = math.floor(t * N)
    vol = ball_volume(q, N, r)
    return math.log(vol) / (N * math.log(q)) - entropy(q, t)
