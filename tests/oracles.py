"""Exhaustive cross-check oracles, one definition each.

Every oracle computes a quantity the library also computes, by a route
that shares none of the library's fast machinery: literal matrices,
schoolbook arithmetic, plain scans.  Tests import them as `from oracles
import ...`, the way they import `helpers`.

| oracle                      | checks                                              |
| --------------------------- | --------------------------------------------------- |
| `SchoolbookField`           | `Field` add/neg/mul/inv/frobenius tables            |
| `least_primitive_scan`      | the base of `Field`'s tables, by stepping powers    |
| `monic_polys`               | building block of the three below                   |
| `brute_gcd`                 | `polyring.poly_gcd`                                 |
| `gcd_is_unit`               | `QuotientRing.is_unit` and `inv`, `RingTables`      |
|                             | units: one `poly_gcd` with x^n - 1 per residue      |
| `irreducible_scan`          | `polyring.is_irreducible`, by trial division        |
| `least_irreducible_scan`    | `Field`'s default modulus                           |
| `poly_eval`                 | oracle roots and root-free factors, Horner's rule   |
| `first_root_scan`           | `Embedding.root` and the roots of the CRT oracles,  |
|                             | one `poly_eval` per element                         |
| `primitive_root_of_unity`   | building block of `splitting_field_factors`: the    |
|                             | least element of order n, read off the log table    |
| `root_of_unity_scan`        | `primitive_root_of_unity`, by scalar powers         |
| `splitting_field_factors`   | `polyring.factor_xn_minus_1`, as a set: minimal     |
|                             | polynomials over the splitting field F_(q^m)        |
| `einsum_prime_tables`       | `RingTables` neg/recip/add/times, weights of coeffs |
| `times_matrix_scan`         | `polyring.times_matrices`, SchoolbookField products |
| `sum_weight_table`          | the Q x Q table of weight(u + v) behind             |
|                             | `message_weights`, coefficient by coefficient       |
| `is_two_factor_case`        | `polyring.is_primitive_root`, by coset count        |
| `order_scan`                | `polyring.multiplicative_order`, q^i mod n in turn  |
| `circulant`                 | building block of the two below                     |
| `generator_matrix`          | `is_self_dual_poly` (Gram of G), and feeds `rref`   |
| `is_self_dual_matrix`       | `FourCirculantCode.is_self_dual_poly`               |
| `self_dual_matrix_sweep`    | `census.self_dual_pairs`, all pairs at once         |
| `self_duality_scan`         | `census._self_duality`, a ring product per residue  |
| `poly_truth_table`          | residue side of the sweep comparison                |
| `rref`                      | `census.distinct_code_count`; its rank, the         |
|                             | invertible flags of `fields.inverse_matrices`       |
| `message_weights`           | `codes.least_weight_messages`: every message's      |
|                             | weight, one Q x Q array per code, for an argmin     |
| `second_pass_distance`      | `FourCirculantCode.min_distance`                    |
| `encode_scan_distance`      | `min_distance` distance and witness                 |
| `generator_matrix_distance` | `min_distance` above 1024 ring elements             |
| `light_message_weight`      | `min_distance` over F_2 where q^n > 2^63: the least |
|                             | weight of the words of messages of weight <= 3      |
| `all_pairs_distances`       | `census.orbit_distances`, one scan per pair         |
| `pair_maps`                 | building block of `code_orbits_fixed_point`: the    |
|                             | generators of the equivalences, as pair closures    |
| `code_orbits_fixed_point`   | `census.code_orbits`: each generator's image of     |
|                             | every pair, min-label passes to a fixed point       |
| `burnside_orbit_count`      | the number of `code_orbits` labels, by Burnside's   |
|                             | lemma over the group of `census.equivalence_maps`   |
| `membership_scan`           | `census.membership_census`, all q^(2n) pairs        |
| `membership_tables`         | the three `census.membership_sweep` tables, every   |
|                             | message of every pair through `generator_matrix`    |
| `remainder_decompose`       | `crt.decompose`, one `poly_divmod` per factor       |
| `horner_decompose`          | `crt.decompose` on `splitting_field_factors`: a and |
|                             | b at each factor's root found by `first_root_scan`, |
|                             | one Horner step per coefficient                     |
| `trace_loop_reconstruct`    | `crt.reconstruct`, from `horner_decompose` images:  |
|                             | one trace per coefficient                           |
| `max_nonconstant_scan`      | `MembershipSweep.max_nonconstant`, all q^(4n) words |
| `entropy_volume_gap`        | `asympt.entropy` against `asympt.ball_volume`       |
| `nested_render`             | `cli.render` of pair lists, whole-text json.dumps   |
|                             | (indent 2), csv module rows and text lines          |
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from fourcirc.asympt import ball_volume, entropy
from fourcirc.census import code_distances, self_dual_pairs
from fourcirc.codes import FourCirculantCode
from fourcirc.crt import Constituent
from fourcirc.fields import Embedding, Field, digits, mul_matrices
from fourcirc.polyring import (
    QuotientRing,
    cyclotomic_cosets,
    factor_xn_minus_1,
    multiplicative_order,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_trim,
)

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


def least_primitive_scan(ref) -> int:
    """Least code of multiplicative order q - 1 in the SchoolbookField ref,
    by stepping through the powers of each code in turn until one is 1."""
    for z in range(1, ref.q):
        x, order = z, 1
        while x != 1:
            x, order = ref.mul(x, z), order + 1
        if order == ref.q - 1:
            return z
    raise ValueError(f"no primitive element in F_{ref.q}")


def monic_polys(field, d):
    """All monic polynomials of degree d, ascending code order of lower coefficients."""
    q = field.q
    for c in range(q**d):
        coeffs = []
        v = c
        for _ in range(d):
            coeffs.append(v % q)
            v //= q
        coeffs.append(1)
        yield tuple(coeffs)


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


def gcd_is_unit(ring, u) -> bool:
    """Whether the residue u is coprime to x^n - 1, by one Euclidean gcd."""
    field, n = ring.field, ring.n
    modulus = poly_trim([field.neg(1)] + [0] * (n - 1) + [1])
    return len(poly_gcd(field, poly_trim(u), modulus)) == 1


def irreducible_scan(field, f) -> bool:
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    d = len(f) - 1
    if d < 1:
        return False
    for e in range(1, d // 2 + 1):
        for g in monic_polys(field, e):
            if not poly_divmod(field, f, g)[1]:
                return False
    return True


def least_irreducible_scan(p: int, k: int):
    """First monic irreducible of degree k over F_p in monic_polys order."""
    prime = Field(p)
    return next(f for f in monic_polys(prime, k) if irreducible_scan(prime, f))


def poly_eval(field: Field, f, x: int) -> int:
    """f(x) by Horner's rule, one field call per step."""
    acc = 0
    for c in reversed(f):
        acc = field.add(field.mul(acc, x), c)
    return acc


def first_root_scan(field, f):
    """Least element code z with f(z) = 0, by one Horner evaluation per
    element in code order; every z is a root of the zero polynomial."""
    for z in field.elements():
        if poly_eval(field, f, z) == 0:
            return z
    raise ValueError(f"polynomial {list(f)} has no root in F_{field.q}")


def root_of_unity_scan(field, n):
    """Least element code of multiplicative order exactly n, by scalar
    powers: z^n = 1 and z^(n/l) != 1 for every prime l dividing n."""
    primes = [l for l in range(2, n + 1) if n % l == 0 and all(l % f for f in range(2, l))]
    for z in range(1, field.q):
        if field.pow(z, n) == 1 and all(field.pow(z, n // l) != 1 for l in primes):
            return z
    raise ValueError(f"no element of order {n} in F_{field.q}")


def primitive_root_of_unity(big: Field, n: int) -> int:
    """First element of multiplicative order exactly n, in code order.

    With m = |big| - 1, the element g^L has order m / gcd(L, m).
    """
    m = big.q - 1
    orders = m // np.gcd(big.log_array[1:], m)
    return 1 + int(np.flatnonzero(orders == n)[0])


def splitting_field_factors(field: Field, n: int) -> list:
    """The irreducible factors of x^n - 1 over F_q, gcd(n, q) = 1, one per
    cyclotomic coset C, in coset order: prod over i in C of (x - beta^i),
    formed in the splitting field F_(q^m) (m the order of q mod n, q^m <=
    2^16), with beta its least element of order n, and pulled back into
    F_q through the subfield embedding."""
    m = multiplicative_order(field.q, n)
    big = field if m == 1 else Field(field.p, field.k * m)
    emb = Embedding(field, big)
    beta = primitive_root_of_unity(big, n)
    factors = []
    for coset in cyclotomic_cosets(field.q, n):
        g = (big.one,)
        for i in coset:
            g = poly_mul(big, g, (big.neg(big.pow(beta, i)), big.one))
        factors.append(tuple(emb.preimage(c) for c in g))
    return factors


def is_two_factor_case(field: Field, n: int) -> bool:
    """True when x^n - 1 splits into exactly two irreducible factors over F_q."""
    return len(cyclotomic_cosets(field.q, n)) == 2


def order_scan(q: int, n: int) -> int:
    """The multiplicative order of q mod n, by stepping through q^i mod n."""
    if n == 1:
        return 1
    if math.gcd(q, n) != 1:
        raise ValueError(f"{q} is not invertible modulo {n}")
    r = q % n
    order = 1
    acc = r
    while acc != 1:
        acc = acc * r % n
        order += 1
    return order


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


def times_matrix_scan(field, m):
    """The n*k x n*k F_p matrix of c -> c*m for a coefficient row m: row
    (j, d) holds the digits of y^d * x^j * m, whose coefficient (i + j) % n
    is y^d * m_i, a SchoolbookField product."""
    ref = SchoolbookField(field.p, field.k, field.modulus)
    n, k = len(m), field.k
    out = np.zeros((n * k, n * k), dtype=np.int64)
    for j in range(n):
        for d in range(k):
            for i, c in enumerate(m):
                at = (i + j) % n * k
                out[j * k + d, at : at + k] = ref.coeffs(ref.mul(field.p**d, c))
    return out


def sum_weight_table(t):
    """The Q x Q int8 table of weight(u + v), one coefficient at a time:
    coefficient j of u + v is nonzero unless coefficient j of v is minus
    coefficient j of u."""
    neg = t.field.neg_array[t.coeffs]
    table = np.zeros((t.size, t.size), dtype=np.int8)
    for j in range(t.n):
        table += t.coeffs[None, :, j] != neg[:, None, j]
    return table


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


def self_duality_scan(ring):
    """Indices of u*u' and of -(1 + u*u') for every residue u, one ring
    product per residue."""
    have, need = [], []
    for u in ring.elements():
        v = ring.mul(u, ring.reciprocal(u))
        have.append(ring.index(v))
        need.append(ring.index(ring.neg(ring.add(ring.one, v))))
    return have, need


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

def message_weights(t, pairs):
    """Codeword weights of every message, one Q x Q int8 array per (a, b)
    row of an index pair array: entry [ci, di] is the weight of the codeword
    of message (element(ci), element(di)), weight(c) + weight(d) +
    weight(c*a - d*b') + weight(c*b + d*a'), and the zero message gets
    4n + 1, above every real weight."""
    SW = sum_weight_table(t)
    W = (t.coeffs != 0).sum(axis=1).astype(np.int8)
    for ai, bi in pairs:
        wt = SW[t.times(ai)][:, t.neg[t.times(t.recip[bi])]]  # weight(c*a - d*b')
        wt += SW[t.times(bi)][:, t.times(t.recip[ai])]  # weight(c*b + d*a')
        wt += W[:, None]
        wt += W
        wt[0, 0] = 4 * t.n + 1
        yield wt


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


def light_message_weight(code):
    """Least weight of a nonzero codeword over F_2 whose message (c, d)
    weighs at most 3: every such word is the XOR of one, two or three rows
    of the literal generator matrix, taken on packed bits, the triples one
    least row at a time."""
    G = np.packbits(np.array(generator_matrix(code), dtype=np.uint8), axis=1)
    ones = np.array([bin(v).count("1") for v in range(256)], dtype=np.int64)

    def least(words):
        return int(ones[words].sum(axis=1).min())

    i, j = np.triu_indices(len(G), 1)
    twos = G[i] ^ G[j]
    return min([least(G), least(twos)] + [least(twos[i > r] ^ G[r]) for r in range(len(G) - 2)])


def all_pairs_distances(field, n):
    """Self-dual pairs in a-major order, as lists of Python ints (json.dumps
    rejects numpy integers), and the minimum distance of each, from one
    kernel scan per pair rather than one per orbit."""
    pairs = self_dual_pairs(field, n)
    return pairs.tolist(), code_distances(field, n, pairs)


# ---------------------------------------------------------------------------
# equivalent codes

def pair_maps(field, n):
    """Generators of the equivalences on index pairs (a, b), as named
    closures taking index arrays (a, b) to the index arrays of the image:
    multiplication by x and negation on a alone or on b alone; the swap,
    every multiplier x -> x^t with gcd(t, n) = 1 and, for k > 1, Frobenius
    on both at once."""
    q = field.q
    t = QuotientRing(field, n).tables()
    powers = q ** np.arange(n)
    j = np.arange(n)

    def coefficient_map(src, table=np.arange(q)):
        return table[t.coeffs[:, src]] @ powers

    maps = []
    for name, perm in (("x*", coefficient_map((j - 1) % n)), ("-", t.neg)):
        maps.append((name + "a", lambda a, b, perm=perm: (perm[a], b)))
        maps.append((name + "b", lambda a, b, perm=perm: (a, perm[b])))
    maps.append(("swap", lambda a, b: (b, a)))
    both = [(f"x->x^{s}", coefficient_map(j * pow(s, -1, n) % n)) for s in range(2, n) if math.gcd(s, n) == 1]
    if field.k > 1:
        frob = np.array([field.frobenius(c, 1) for c in field.elements()])
        both.append(("frobenius", coefficient_map(j, frob)))
    for name, perm in both:
        maps.append((name, lambda a, b, perm=perm: (perm[a], perm[b])))
    return maps


def code_orbits_fixed_point(field, n, pairs):
    """Position of the least pair in the orbit of each row of the a-major
    self-dual pair array, under the generators of pair_maps.

    Each generator's image of every pair is looked up in the list (and must
    be there).  Labels start as the positions and take, until they stop
    changing, the least label over each image and preimage, with a
    pointer-jumping step (label of the label) per round."""
    Q = QuotientRing(field, n).size
    a, b = pairs.T
    keys = a * Q + b
    images = []
    for name, pair_map in pair_maps(field, n):
        ia, ib = pair_map(a, b)
        image = ia * Q + ib
        pos = np.searchsorted(keys, image).clip(max=len(keys) - 1)
        assert (keys[pos] == image).all(), name
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


def burnside_orbit_count(have, need, block, both):
    """Orbits of the self-dual pairs under G = (H x H) ⋊ Σ ⋊ <swap>, by
    Burnside's lemma, as a Fraction: the mean, over the 2*|H|^2*|Σ| formal
    elements (h1σ, h2σ) and swap∘(h1σ, h2σ), of the self-dual pairs each
    fixes.  block and both are the permutations of H and Σ; have and need
    index u*u' and -(1 + u*u'), so (a, b) is self-dual when have[b] = need[a].

    (h1σ, h2σ) fixes (a, b) when h1σ fixes a and h2σ fixes b: summed over
    h1 and h2, the residues that the block maps fix, joined on the need and
    have histograms.  swap∘(h1σ, h2σ) fixes (a, h1σ(a)) for the a with
    h2σ(h1σ(a)) = a and have[h1σ(a)] = need[a]."""
    have, need = np.asarray(have), np.asarray(need)
    Q = len(have)
    u = np.arange(Q)
    fixed = 0
    for sigma in both:
        hs = np.array([h[sigma] for h in block])  # hs[i] = h_i∘σ
        held = np.nonzero(hs == u)[1]  # the residue of every (h, residue) it fixes
        fixed += int(np.bincount(need[held], minlength=Q) @ np.bincount(have[held], minlength=Q))
        for g in hs:
            fixed += int(((hs[:, g] == u) & (have[g] == need)).sum())
    return Fraction(fixed, 2 * len(block) ** 2 * len(both))


# ---------------------------------------------------------------------------
# membership

def membership_scan(field, n, blocks):
    """(count, unit_count, self_dual_count) of the pairs (a, b) whose code
    holds the word with blocks (c, d, e, f), by testing c*a - d*b' = e and
    c*b + d*a' = f, unit-ness and 1 + a*a' + b*b' = 0 on all q^(2n) pairs."""
    ring = QuotientRing(field, n)
    Q = ring.size
    c, d, e, f = blocks
    count = unit_count = sd_count = 0
    elems = [ring.element(i) for i in range(Q)]
    recs = [ring.reciprocal(u) for u in elems]
    units = [gcd_is_unit(ring, u) for u in elems]
    # the products that involve b alone, computed once per b
    d_recs = [ring.mul(d, r) for r in recs]
    c_bs = [ring.mul(c, b) for b in elems]
    b_recs = [ring.mul(b, r) for b, r in zip(elems, recs)]
    for ai, a in enumerate(elems):
        want_e = ring.sub(ring.mul(c, a), e)  # c*a - d*b' = e
        want_f = ring.sub(f, ring.mul(d, recs[ai]))  # c*b + d*a' = f
        want_sd = ring.neg(ring.add(ring.one, ring.mul(a, recs[ai])))  # 1 + a*a' + b*b' = 0
        for bi in range(Q):
            if d_recs[bi] != want_e or c_bs[bi] != want_f:
                continue
            count += 1
            if units[ai] and units[bi]:
                unit_count += 1
            if b_recs[bi] == want_sd:
                sd_count += 1
    return count, unit_count, sd_count


def membership_tables(field, n):
    """(counts, unit_counts, self_dual_counts) over every word index
    c + Q*d + Q^2*e + Q^3*f, as int64 arrays of Q^4 entries: for every pair
    (a, b), every message [c d] is encoded as [c d]*G mod p with G from
    generator_matrix, and each codeword's index is read off its 4n digits.
    Units come from gcd_is_unit and self-duality from self_duality_scan.
    Prime fields only: the digits of an index are its F_p coefficients."""
    if field.k != 1:
        raise ValueError("membership_tables handles prime fields only")
    ring = QuotientRing(field, n)
    Q, p = ring.size, field.p
    elems = [ring.element(i) for i in range(Q)]
    units = [gcd_is_unit(ring, u) for u in elems]
    have, need = self_duality_scan(ring)
    messages = np.arange(Q * Q)[:, None] // p ** np.arange(2 * n) % p  # digit row of message c + Q*d
    powers = p ** np.arange(4 * n)
    counts, unit_counts, sd_counts = (np.zeros(Q**4, dtype=np.int64) for _ in range(3))
    for ai, a in enumerate(elems):
        for bi, b in enumerate(elems):
            G = np.array(generator_matrix(FourCirculantCode(ring, a, b)))
            words = messages @ G % p @ powers  # distinct: each holds its message
            counts[words] += 1
            if units[ai] and units[bi]:
                unit_counts[words] += 1
            if have[bi] == need[ai]:
                sd_counts[words] += 1
    return counts, unit_counts, sd_counts


def max_nonconstant_scan(sweep, which):
    """Largest count of a MembershipSweep universe over words whose c and d
    blocks are both non-constant, and the least word attaining it, by a plain
    scan of every word; (-1, -1) when none qualifies."""
    table = {"all": sweep.counts, "unit": sweep.unit_counts, "self_dual": sweep.sd_counts}[which]
    Q = sweep.Q
    best, best_u = -1, -1
    for u, cnt in enumerate(table):
        if u % Q in sweep.constant_indices or (u // Q) % Q in sweep.constant_indices:
            continue
        if cnt > best:
            best, best_u = cnt, u
    return best, best_u


# ---------------------------------------------------------------------------
# CRT constituents

def remainder_decompose(code):
    """crt.decompose by one schoolbook poly_divmod of a and of b per factor
    of factor_xn_minus_1, in its order."""
    field = code.field
    out = []
    for factor, kind in factor_xn_minus_1(field, code.n).factors():
        d = len(factor) - 1
        a, b = (poly_divmod(field, poly_trim(u), factor)[1] for u in (code.a, code.b))
        out.append(Constituent(n=code.n, factor=factor, kind=kind, a_image=a + (0,) * (d - len(a)),
                               b_image=b + (0,) * (d - len(b))))
    return out


@dataclass(frozen=True)
class RootImage:
    """a and b at a deterministic root of one factor of x^n - 1, in the
    factor's extension field F_(q^d)."""

    factor: tuple
    field: Field
    root: int
    a_image: int
    b_image: int


def constituent_context(field, factor):
    """Extension field F_{q^d} of a factor of degree d, the embedding of
    F_q in it and the least root of the embedded factor, by a plain scan."""
    d = len(factor) - 1
    ext = field if d == 1 else Field(field.p, field.k * d)
    emb = Embedding(field, ext)
    return ext, emb, first_root_scan(ext, [emb.apply(c) for c in factor])


def eval_at_root(ext, emb, coeffs, root):
    """The F_q polynomial coeffs at root of ext, by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = ext.add(ext.mul(acc, root), emb.apply(c))
    return acc


def horner_decompose(code):
    """a and b at the root of each factor of splitting_field_factors, by
    Horner evaluation, one field operation per coefficient."""
    field = code.field
    out = []
    for factor in splitting_field_factors(field, code.n):
        ext, emb, root = constituent_context(field, factor)
        out.append(RootImage(factor, ext, root, eval_at_root(ext, emb, code.a, root),
                             eval_at_root(ext, emb, code.b, root)))
    return out


def trace_loop_reconstruct(field, n, images):
    """(a, b) from horner_decompose images by the trace formula a_i = n^(-1)
    * sum over f of Tr(a(root_f) * root_f^(-i)), one scalar trace per
    coefficient and factor."""
    if sorted(im.factor for im in images) != sorted(splitting_field_factors(field, n)):
        raise ValueError("images are not exactly the factors of x^n - 1")
    a = [field.zero] * n
    b = [field.zero] * n
    for im in images:
        ext, emb, root = constituent_context(field, im.factor)
        if (im.field, im.root) != (ext, root):
            raise ValueError("image does not match its deterministic context")
        step = ext.inv(root)
        for image, out in ((im.a_image, a), (im.b_image, b)):
            y = image
            for i in range(n):
                trace, t = ext.zero, y
                for _ in range(len(im.factor) - 1):
                    trace = ext.add(trace, t)
                    t = ext.pow(t, field.q)
                out[i] = field.add(out[i], emb.preimage(trace))
                y = ext.mul(y, step)
    n_inv = field.element([pow(n, -1, field.p)])
    return tuple(field.mul(n_inv, c) for c in a), tuple(field.mul(n_inv, c) for c in b)


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


# ---------------------------------------------------------------------------
# report rendering

def nested_render(payload: dict, fmt: str, command: str) -> str:
    """The whole text of an enumerate or search report whose pairs are
    nested coefficient lists [[a, b], ...], built in one piece."""
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    body = payload["report"]
    if fmt == "text":
        return "\n".join(_text_lines(body)) + "\n"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["a", "b", "distance"])
    if command == "enumerate":
        dists = body.get("pair_distances")
        rows = [(a, b, dists[i] if dists else "") for i, (a, b) in enumerate(body["pairs"])]
    else:
        rows = [(r["a"], r["b"], r["distance"]) for r in body["top"]]
    for a, b, d in rows:
        writer.writerow([",".join(map(str, a)), ",".join(map(str, b)), d])
    return out.getvalue()


def _text_lines(value, indent: str = "") -> list[str]:
    def nested(v):
        return isinstance(v, (dict, list)) and v and not (
            isinstance(v, list) and all(not isinstance(x, (dict, list)) for x in v)
        )

    def flat(v):
        return ",".join(str(x) for x in v) if isinstance(v, list) else str(v)

    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if nested(v):
                lines.append(f"{indent}{k}:")
                lines.extend(_text_lines(v, indent + "  "))
            else:
                lines.append(f"{indent}{k}: {flat(v)}")
    else:
        for v in value:
            if nested(v):
                lines.append(f"{indent}-")
                lines.extend(_text_lines(v, indent + "  "))
            else:
                lines.append(f"{indent}- {flat(v)}")
    return lines
