"""Independent arithmetic for checking fourcirc outputs.

Nothing here imports fourcirc.  Fields, the ring R(n, F_q), the self-dual
pair sweep, minimum distances, membership counts and cyclotomic cosets are
re-implemented with plain integers (and numpy for the distance scan), so
an output that agrees with this module agrees with a second derivation.

Element codes follow the library's documented encoding: a field element
with F_p coefficients (c_0, ..., c_{k-1}) has code sum(c_j * p**j), and a
ring element (u_0, ..., u_{n-1}) has index sum(u_i * q**i).  Extension
fields use the least monic irreducible modulus in that code order.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict

import numpy as np


def _digits(v: int, base: int, count: int) -> list[int]:
    out = []
    for _ in range(count):
        out.append(v % base)
        v //= base
    return out


class GF:
    """F_q, q = p^k, as add/mul/neg lookup tables over element codes."""

    def __init__(self, p: int, k: int = 1):
        self.p, self.k, self.q = p, k, p**k
        q = self.q
        vecs = [_digits(x, p, k) for x in range(q)]

        def code(vec):
            return sum((c % p) * p**j for j, c in enumerate(vec))

        modulus = _least_irreducible(p, k) if k > 1 else None
        self.add = [[code([a + b for a, b in zip(vecs[x], vecs[y])]) for y in range(q)] for x in range(q)]
        self.neg = [code([-a for a in vecs[x]]) for x in range(q)]
        self.mul = [[code(_polymulmod(vecs[x], vecs[y], modulus, p)) for y in range(q)] for x in range(q)]


def _polymulmod(a: list[int], b: list[int], modulus, p: int) -> list[int]:
    if modulus is None:
        return [a[0] * b[0] % p]
    k = len(modulus) - 1
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    for top in range(2 * k - 2, k - 1, -1):
        lead = prod[top] % p
        if lead:
            for i, mc in enumerate(modulus):
                prod[top - k + i] -= lead * mc
    return [c % p for c in prod[:k]]


def _least_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Least monic irreducible of degree k over F_p in code order, by trial
    division by every monic polynomial of degree at most k/2."""
    for c in range(p**k):
        f = _digits(c, p, k) + [1]
        if all(_polymod(f, g, p) for d in range(1, k // 2 + 1) for g in _monics(p, d)):
            return tuple(f)
    raise AssertionError(f"no irreducible of degree {k} over F_{p}")


def _monics(p: int, d: int):
    for c in range(p**d):
        yield _digits(c, p, d) + [1]


def _polymod(f: list[int], g: list[int], p: int) -> list[int]:
    """Remainder of f by monic g over F_p, trailing zeros stripped."""
    r = [c % p for c in f]
    dg = len(g) - 1
    while len(r) - 1 >= dg:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - dg
            for i, gi in enumerate(g):
                r[shift + i] = (r[shift + i] - lead * gi) % p
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


class Ring:
    """R(n, F_q) = F_q[x]/(x^n - 1) on coefficient tuples."""

    def __init__(self, gf: GF, n: int):
        self.gf, self.n, self.size = gf, n, gf.q**n
        self.one = (1,) + (0,) * (n - 1)

    def element(self, i: int) -> tuple:
        return tuple(_digits(i, self.gf.q, self.n))

    def index(self, u) -> int:
        return sum(c * self.gf.q**i for i, c in enumerate(u))

    def mul(self, u, v) -> tuple:
        add, mul, n = self.gf.add, self.gf.mul, self.n
        acc = [0] * n
        for i, ui in enumerate(u):
            if ui:
                row = mul[ui]
                for j, vj in enumerate(v):
                    if vj:
                        t = (i + j) % n
                        acc[t] = add[acc[t]][row[vj]]
        return tuple(acc)

    def add(self, u, v) -> tuple:
        add = self.gf.add
        return tuple(add[x][y] for x, y in zip(u, v))

    def neg(self, u) -> tuple:
        neg = self.gf.neg
        return tuple(neg[x] for x in u)

    def reciprocal(self, u) -> tuple:
        n = self.n
        return tuple(u[(n - i) % n] for i in range(n))

    def weight(self, u) -> int:
        return sum(1 for c in u if c)


# ---------------------------------------------------------------------------
# self-dual pairs: exhaustive sweep and the per-factor product


def self_dual_pairs(ring: Ring) -> list[tuple[int, int]]:
    """All index pairs (a, b) with 1 + a*a' + b*b' = 0 in R(n, F_q)."""
    elems = [ring.element(i) for i in range(ring.size)]
    sq = [ring.mul(u, ring.reciprocal(u)) for u in elems]
    by_value = defaultdict(list)
    for i, v in enumerate(sq):
        by_value[v].append(i)
    out = []
    for ai, v in enumerate(sq):
        need = ring.neg(ring.add(ring.one, v))
        out.extend((ai, bi) for bi in by_value.get(need, ()))
    return out


def cyclotomic_cosets(q: int, n: int) -> list[list[int]]:
    seen, out = set(), []
    for s in range(n):
        if s in seen:
            continue
        orbit, i = [], s
        while i not in seen:
            seen.add(i)
            orbit.append(i)
            i = i * q % n
        out.append(sorted(orbit))
    return out


def self_dual_count(p: int, k: int, n: int) -> int:
    """Per-factor product count of self-dual pairs, gcd(n, q) = 1.

    Each irreducible factor of x^n - 1 is a cyclotomic coset of q mod n.
    A self-reciprocal factor of degree 1 contributes q (q even) or
    q - eta(-1) (q odd), one of degree 2m contributes (q^m + 1)(q^2m - q^m),
    and a reciprocal pair of degree d contributes (q^2d - 1) q^d.
    """
    q = p**k
    if math.gcd(n, q) != 1:
        raise ValueError("the product count needs gcd(n, q) = 1")
    total = 1
    cosets = cyclotomic_cosets(q, n)
    seen = set()
    for c in cosets:
        key = tuple(c)
        if key in seen:
            continue
        mirror = tuple(sorted((-i) % n for i in c))
        d = len(c)
        if mirror == key:
            if d == 1:
                total *= q if q % 2 == 0 else q - (1 if q % 4 == 1 else -1)
            else:
                m = d // 2
                total *= (q**m + 1) * (q ** (2 * m) - q**m)
        else:
            seen.add(mirror)
            total *= (q ** (2 * d) - 1) * q**d
        seen.add(key)
    return total


# ---------------------------------------------------------------------------
# minimum distance, by a numpy scan over all q^(2n) messages


def _add_table(ring: Ring) -> np.ndarray:
    """Index-space addition: digitwise over F_p, as ring indices are base p."""
    Q, p = ring.size, ring.gf.p
    if p == 2:
        idx = np.arange(Q, dtype=np.int64)
        return idx[:, None] ^ idx[None, :]
    width = ring.n * ring.gf.k
    digits = np.array([_digits(i, p, width) for i in range(Q)], dtype=np.int64)
    pw = p ** np.arange(width, dtype=np.int64)
    return ((digits[:, None, :] + digits[None, :, :]) % p) @ pw


def min_distance(ring: Ring, a, b) -> int:
    """Least weight of a nonzero codeword (c, d, c*a - d*b', c*b + d*a')."""
    Q = ring.size
    elems = [ring.element(i) for i in range(Q)]
    a, b = tuple(a), tuple(b)
    ar, br = ring.reciprocal(a), ring.reciprocal(b)
    nbr = ring.neg(br)

    def mul_map(m):
        return np.array([ring.index(ring.mul(c, m)) for c in elems], dtype=np.int64)

    W = np.array([ring.weight(u) for u in elems], dtype=np.int64)
    add = _add_table(ring)
    e = add[mul_map(a)[:, None], mul_map(nbr)[None, :]]
    f = add[mul_map(b)[:, None], mul_map(ar)[None, :]]
    wt = W[:, None] + W[None, :] + W[e] + W[f]
    wt[0, 0] = 4 * ring.n + 1
    return int(wt.min())


# ---------------------------------------------------------------------------
# membership: the pairs (a, b) whose code contains a word form an affine space


def _solve_affine(rows: list[list[int]], rhs: list[int], p: int):
    """Particular solution and nullspace basis of rows * x = rhs over F_p,
    or None when the system is inconsistent."""
    m, ncols = len(rows), len(rows[0])
    aug = [[v % p for v in row] + [r % p] for row, r in zip(rows, rhs)]
    pivots, r = [], 0
    for c in range(ncols):
        piv = next((i for i in range(r, m) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = pow(aug[r][c], p - 2, p)
        aug[r] = [v * inv % p for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if any(row[-1] for row in aug[r:]):
        return None
    particular = [0] * ncols
    for i, c in enumerate(pivots):
        particular[c] = aug[i][-1]
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[free] = 1
        for i, c in enumerate(pivots):
            v[c] = (-aug[i][free]) % p
        basis.append(v)
    return particular, basis


def containing_pairs(ring: Ring, word) -> list[tuple[int, int]]:
    """Index pairs (a, b) with c*a - d*b' = e and c*b + d*a' = f (prime q)."""
    gf, n = ring.gf, ring.n
    if gf.k != 1:
        raise ValueError("membership oracle handles prime fields only")
    p = gf.p
    w = tuple(word)
    c, d, e, f = w[:n], w[n : 2 * n], w[2 * n : 3 * n], w[3 * n :]
    nd = ring.neg(d)

    def image(a, b):
        left = ring.add(ring.mul(c, a), ring.mul(nd, ring.reciprocal(b)))
        right = ring.add(ring.mul(c, b), ring.mul(d, ring.reciprocal(a)))
        return left + right

    zero = (0,) * n
    cols = []
    for j in range(2 * n):
        unit = tuple(1 if i == j % n else 0 for i in range(n))
        cols.append(image(unit, zero) if j < n else image(zero, unit))
    rows = [[cols[j][i] for j in range(2 * n)] for i in range(2 * n)]
    solved = _solve_affine(rows, list(e + f), p)
    if solved is None:
        return []
    particular, basis = solved
    out = []
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        x = list(particular)
        for s, v in zip(coeffs, basis):
            if s:
                x = [(xi + s * vi) % p for xi, vi in zip(x, v)]
        out.append((ring.index(x[:n]), ring.index(x[n:])))
    return out


def is_unit(ring: Ring, u) -> bool:
    """gcd(u(x), x^n - 1) = 1 over a prime field."""
    p, n = ring.gf.p, ring.n
    f = list(u)
    g = [p - 1] + [0] * (n - 1) + [1]
    while f and f[-1] == 0:
        f.pop()
    while f:
        inv = pow(f[-1], p - 2, p)
        f = [c * inv % p for c in f]
        f, g = _polymod(g, f, p), f
    return len(g) == 1


def encode(ring: Ring, a, b, c, d) -> tuple:
    """The codeword (c, d, c*a - d*b', c*b + d*a') as a flat tuple."""
    e = ring.add(ring.mul(c, a), ring.neg(ring.mul(d, ring.reciprocal(b))))
    f = ring.add(ring.mul(c, b), ring.mul(d, ring.reciprocal(a)))
    return tuple(c) + tuple(d) + e + f
