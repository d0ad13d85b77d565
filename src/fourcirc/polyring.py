"""Polynomials over F_q and the cyclic quotient ring R(n, F_q) = F_q[x]/(x^n - 1).

Polynomials are tuples of field element codes, ascending in degree, with no
trailing zeros; the zero polynomial is ().  Ring residues are tuples of
exactly n codes.  The factorization of x^n - 1 is computed over F_q alone,
from the primitive idempotents of R(n, F_q), which the cyclotomic coset
sums yield; no extension field is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

import numpy as np

from .fields import Field, digits, field_sum, inverse_matrices, mul_matrices, prime_divisors

Poly = tuple  # coefficient tuple, ascending
RingElem = tuple  # exactly n coefficients


# ---------------------------------------------------------------------------
# dense polynomial arithmetic

def poly_trim(coeffs: Sequence[int]) -> Poly:
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return tuple(coeffs[:i])


def poly_degree(f: Poly) -> int:
    """Degree of f, with -1 for the zero polynomial."""
    return len(f) - 1


def poly_add(field: Field, f: Poly, g: Poly) -> Poly:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = field.add(out[i], c)
    return poly_trim(out)


def poly_neg(field: Field, f: Poly) -> Poly:
    return tuple(field.neg(c) for c in f)


def poly_sub(field: Field, f: Poly, g: Poly) -> Poly:
    return poly_add(field, f, poly_neg(field, g))


def poly_mul(field: Field, f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ()
    add, mul = field.add, field.mul
    out = [0] * (len(f) + len(g) - 1)
    terms = [(j, gj) for j, gj in enumerate(g) if gj]
    for i, fi in enumerate(f):
        if fi:
            for j, gj in terms:
                out[i + j] = add(out[i + j], mul(fi, gj))
    return poly_trim(out)


def poly_divmod(field: Field, f: Poly, g: Poly) -> tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(f)
    dg = len(g) - 1
    lead_inv = field.inv(g[-1])
    quot = [0] * max(len(f) - dg, 0)
    add, mul = field.add, field.mul
    terms = [(i, gi) for i, gi in enumerate(g) if gi]
    while len(r) - 1 >= dg and r:
        c = mul(r[-1], lead_inv)
        shift = len(r) - 1 - dg
        quot[shift] = c
        if c:
            minus_c = field.neg(c)
            for i, gi in terms:
                r[shift + i] = add(r[shift + i], mul(minus_c, gi))
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return poly_trim(quot), poly_trim(r)


def poly_mod(field: Field, f: Poly, g: Poly) -> Poly:
    return poly_divmod(field, f, g)[1]


def poly_monic(field: Field, f: Poly) -> Poly:
    if not f:
        return ()
    lead_inv = field.inv(f[-1])
    return tuple(field.mul(lead_inv, c) for c in f)


def poly_gcd(field: Field, f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean algorithm."""
    a, b = poly_trim(f), poly_trim(g)
    while b:
        a, b = b, poly_mod(field, a, b)
    return poly_monic(field, a)


def monic_reciprocal(field: Field, f: Poly) -> Poly:
    """x^deg(f) * f(1/x), normalized monic.  Requires f(0) != 0."""
    if not f or f[0] == 0:
        raise ValueError("reciprocal normalization needs a nonzero constant term")
    rev = tuple(reversed(f))
    return poly_monic(field, rev)


def poly_pow_mod(field: Field, g: Poly, e: int, f: Poly) -> Poly:
    """g^e mod f for e >= 0, by square-and-multiply from the top bit of e."""
    g = poly_mod(field, g, f)
    out = g if e else poly_mod(field, (field.one,), f)
    for bit in bin(e)[3:]:  # the bits below the top one
        out = poly_mod(field, poly_mul(field, out, out), f)
        if bit == "1":
            out = poly_mod(field, poly_mul(field, out, g), f)
    return out


def is_irreducible(field: Field, f: Poly) -> bool:
    """Rabin's test: f of degree d >= 1 is irreducible exactly when it
    divides x^(q^d) - x and gcd(f, x^(q^(d/r)) - x) = 1 for every prime r
    dividing d (Rabin, Probabilistic algorithms in finite fields, 1980).

    The powers x^(q^i) mod f are taken for i = 1, ..., d in turn, each the
    q-th power of the one before, and the test stops at the first gcd that
    is not 1.
    """
    d = poly_degree(f)
    if d < 1:
        return False
    x = poly_mod(field, (0, field.one), f)
    gcd_at = {d // r for r in prime_divisors(d)}
    power = x
    for i in range(1, d + 1):
        power = poly_pow_mod(field, power, field.q, f)
        if i in gcd_at and poly_degree(poly_gcd(field, f, poly_sub(field, power, x))) > 0:
            return False
    return power == x


# ---------------------------------------------------------------------------
# integer-side machinery: orders, cosets

def multiplicative_order(q: int, n: int) -> int:
    """The least d >= 1 with q^d = 1 mod n, in O(sqrt(n)) steps.

    The order divides phi(n), so it is phi(n) divided by each prime p of
    phi(n) for as long as q^(d/p) stays 1: two trial factorizations and
    a few modular powers, where stepping through q^i mod n takes up to n
    multiplications.
    """
    if n == 1:
        return 1
    if math.gcd(q, n) != 1:
        raise ValueError(f"{q} is not invertible modulo {n}")
    phi = n
    for p in prime_divisors(n):
        phi -= phi // p
    order = phi
    for p in prime_divisors(phi):
        while order % p == 0 and pow(q, order // p, n) == 1:
            order //= p
    return order


def is_primitive_root(q: int, n: int) -> bool:
    """True when q has multiplicative order n - 1 modulo n (n an odd prime)."""
    if math.gcd(q, n) != 1:
        return False
    return multiplicative_order(q, n) == n - 1


def cyclotomic_cosets(q: int, n: int) -> list[list[int]]:
    """Orbits of multiplication by q on Z/nZ, each sorted, ordered by minimum."""
    if n == 1:
        return [[0]]
    if math.gcd(q, n) != 1:
        raise ValueError(f"cyclotomic cosets need gcd(q, n) = 1, got q={q}, n={n}")
    seen = [False] * n
    cosets = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = []
        i = start
        while not seen[i]:
            seen[i] = True
            orbit.append(i)
            i = i * q % n
        cosets.append(sorted(orbit))
    return cosets


# ---------------------------------------------------------------------------
# quotient ring

class QuotientRing:
    """R(n, F_q) with residues as length-n coefficient tuples.  u is a unit
    when its F_p multiplication matrix (times_matrices) is invertible
    (inverse_matrices), and row 0 of the inverse holds the digits of u^-1."""

    def __init__(self, field: Field, n: int):
        if n < 1:
            raise ValueError(f"ring length must be >= 1, got {n}")
        self.field = field
        self.n = n
        self.size = field.q**n
        self.zero: RingElem = (0,) * n
        self.one: RingElem = (1,) + (0,) * (n - 1) if n > 1 else (1,)
        self.all_ones: RingElem = (1,) * n

    # -- enumeration ---------------------------------------------------------

    def element(self, i: int) -> RingElem:
        q = self.field.q
        out = []
        for _ in range(self.n):
            out.append(i % q)
            i //= q
        return tuple(out)

    def index(self, u: RingElem) -> int:
        q = self.field.q
        code = 0
        for c in reversed(u):
            code = code * q + c
        return code

    def elements(self) -> Iterator[RingElem]:
        for i in range(self.size):
            yield self.element(i)

    # -- arithmetic ----------------------------------------------------------
    # add, neg and mul read the field's log, exp and Zech tables directly.

    def add(self, u: RingElem, v: RingElem) -> RingElem:
        F = self.field
        log, exp, zech = F.log_table, F.exp_table, F.zech_table
        out = []
        for a, b in zip(u, v):
            if a and b:
                la = log[a]
                out.append(exp[la + zech[log[b] - la]])
            else:
                out.append(a or b)
        return tuple(out)

    def neg(self, u: RingElem) -> RingElem:
        neg = self.field.neg_table
        return tuple([neg[a] for a in u])

    def sub(self, u: RingElem, v: RingElem) -> RingElem:
        return self.add(u, self.neg(v))

    def scalar_mul(self, c: int, u: RingElem) -> RingElem:
        F = self.field
        return tuple(F.mul(c, a) for a in u)

    def mul(self, u: RingElem, v: RingElem) -> RingElem:
        """Cyclic convolution: the product in F_q[x]/(x^n - 1)."""
        F, n = self.field, self.n
        log, exp, zech = F.log_table, F.exp_table, F.zech_table
        acc = [0] * n
        # j is kept as j - n: acc[i + j - n] is acc[(i + j) % n] by negative indexing
        terms = [(j - n, log[b]) for j, b in enumerate(v) if b]
        for i, a in enumerate(u):
            if a:
                la = log[a]
                for j, lb in terms:
                    t = i + j
                    c = acc[t]
                    if c:
                        lc = log[c]
                        acc[t] = exp[lc + zech[la + lb - lc]]
                    else:
                        acc[t] = exp[la + lb]
        return tuple(acc)

    def reciprocal(self, u: RingElem) -> RingElem:
        """u(x^(n-1)) mod (x^n - 1): coefficient index i moves to (n - i) mod n."""
        n = self.n
        return tuple(u[(n - i) % n] for i in range(n))

    def weight(self, u: RingElem) -> int:
        return sum(1 for c in u if c)

    # -- units ------------------------------------------------------------------

    def is_unit(self, u: RingElem) -> bool:
        return bool(inverse_matrices(self.field, times_matrices(self.field, [u]))[1][0])

    def inv(self, u: RingElem) -> RingElem:
        inverses, invertible = inverse_matrices(self.field, times_matrices(self.field, [u]))
        if not invertible[0]:
            raise ValueError("ring element is not a unit")
        return tuple((inverses[0, 0].reshape(self.n, -1) @ self.field.p ** np.arange(self.field.k)).tolist())

    # -- index tables ----------------------------------------------------------

    def tables(self) -> "RingTables":
        """Index-space tables of the ring, built once per (field, n)."""
        return _ring_tables(self.field, self.n)

    def __repr__(self) -> str:
        return f"QuotientRing(q={self.field.q}, n={self.n})"


NORM_BLOCK = 1 << 15  # elements RingTables.norm multiplies out at once


class RingTables:
    """Index-space tables of a quotient ring, indexed by element code.

    coeffs is the size x n array of coefficient codes of every element;
    neg, recip and norm are flat int64 arrays, the indices of -u, u' and
    u*u'; add(x, y) and times(m) give the indices of sums and of products
    c*m; units marks the elements coprime to x^n - 1, those with an
    invertible multiplication matrix.  An element code is also the base-p
    number of the n*k F_p digits of its coefficients, held in
    digit_vectors, and addition and multiplication by a fixed m act on
    those digits F_p-linearly (times_matrices).  norm and units are built
    on first use.  No table holds more than Q * n * k entries.  The sweep,
    orbit labelling, membership and report rendering read these tables;
    the distance engine (codes.least_weight_messages) needs none of them.
    """

    def __init__(self, ring: QuotientRing):
        field, n, Q = ring.field, ring.n, ring.size
        p, q = field.p, field.q
        self.field, self.n, self.size = field, n, Q
        self.digit_vectors = digits(np.arange(Q), p, n * field.k)
        self.digit_powers = p ** np.arange(n * field.k)
        # coeffs[x, j]: coefficient j of element x, read off its k F_p digits
        self.coeffs = self.digit_vectors.reshape(Q, n, field.k) @ self.digit_powers[: field.k]
        qpw = q ** np.arange(n)
        self.neg = field.neg_array[self.coeffs] @ qpw
        self.recip = self.coeffs[:, [(n - j) % n for j in range(n)]] @ qpw
        for arr in (self.coeffs, self.neg, self.recip, self.digit_vectors, self.digit_powers):
            arr.flags.writeable = False  # shared by every ring of the same field and n

    def add(self, x, y) -> np.ndarray:
        """Index of x + y for broadcast index arrays x and y."""
        P = self.digit_vectors
        return (P[x] + P[y]) % self.field.p @ self.digit_powers

    def times(self, m: int) -> np.ndarray:
        """Index of c*m for every element index c."""
        field = self.field
        return self.digit_vectors @ times_matrices(field, self.coeffs[m]) % field.p @ self.digit_powers

    @cached_property
    def norm(self) -> np.ndarray:
        """Index of u*u' for every element u.  Its coefficient k, the sum over
        i of u_i * u_(i-k), is read off the coefficient logarithms of
        NORM_BLOCK elements at a time, one lag k at a time, so no temporary
        holds more than NORM_BLOCK * n entries; u*u' is its own reciprocal,
        so lag n - k repeats lag k."""
        field, n = self.field, self.n
        i = np.arange(n)
        norm = np.empty(self.size, dtype=np.int64)
        for start in range(0, self.size, NORM_BLOCK):
            logs = field.log_array[self.coeffs[start : start + NORM_BLOCK]]  # logs[u, i]: log of coefficient i of u
            prod = np.empty(logs.shape, dtype=np.int64)  # prod[u, k]: coefficient k of u*u'
            for k in range(n // 2 + 1):
                prod[:, k] = field_sum(field, field.exp_array[logs + logs[:, i - k]], 1)
                prod[:, -k] = prod[:, k]
            norm[start : start + NORM_BLOCK] = prod @ field.q**i
        norm.flags.writeable = False
        return norm

    @cached_property
    def units(self) -> np.ndarray:
        """Whether each element is a unit, that is coprime to x^n - 1.

        u -> u' is a ring automorphism, so u is a unit exactly when u*u' is,
        and u*u', its own reciprocal, takes at most q^(n//2 + 1) values: one
        inverse_matrices call decides them all, on their times_matrices, and
        the answers are gathered back through norm.
        """
        taken = np.zeros(self.size, dtype=bool)
        taken[self.norm] = True
        values = np.flatnonzero(taken)
        taken[values] = inverse_matrices(self.field, times_matrices(self.field, self.coeffs[values]))[1]
        units = taken[self.norm]
        units.flags.writeable = False
        return units


def times_matrices(field: Field, coeffs) -> np.ndarray:
    """The n*k x n*k F_p matrices M with (digit row of c) @ M = digit row
    of c*m mod p, one for each coefficient row m of coeffs (shape (..., n)).
    Coefficient j of c contributes coefficient (j + i) % n of c*m times
    coefficient i of m, so M is the block circulant of the transposed
    mul_matrices of m's coefficients, whose row d holds the digits of
    y^d times the coefficient."""
    coeffs = np.asarray(coeffs)
    n, k = coeffs.shape[-1], field.k
    at = np.arange(n)
    blocks = np.swapaxes(mul_matrices(field, coeffs.ravel()), 1, 2).reshape(*coeffs.shape, k, k)
    # rows (j, d), columns (l, out digit) from coefficient (l - j) % n
    blocks = blocks[..., (at - at[:, None]) % n, :, :]
    return np.swapaxes(blocks, -3, -2).reshape(*coeffs.shape[:-1], n * k, n * k)


@lru_cache(maxsize=8)
def chunk_tables(field: Field, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The uint16 table of the code of u + v and the int8 table of
    weight(u + v), at [u, v], for u and v the codes of m >= 1 coefficients
    (base q, coefficient 0 least significant), q^m <= 2^16; read-only.

    Split into the high and the low coefficients down to one, where the
    F_p digits add, a block of rows at a time; each step writes its table
    once, with a contiguous inner dimension.
    """
    if m == 1:
        q, digit = field.q, field.digit_array
        sums, step = np.empty((q, q), dtype=np.uint16), max(1, (1 << 16) // q)
        for u in range(0, q, step):
            sums[u : u + step] = (digit[u : u + step, None] + digit) % field.p @ field.p ** np.arange(field.k)
        weights = (sums != 0).astype(np.int8)
    else:
        (hi_sums, hi_weights), (lo_sums, lo_weights) = chunk_tables(field, m - m // 2), chunk_tables(field, m // 2)
        sums, weights = _join(hi_sums, lo_sums, len(lo_sums)), _join(hi_weights, lo_weights, 1)
    sums.flags.writeable = weights.flags.writeable = False
    return sums, weights


def _join(hi: np.ndarray, lo: np.ndarray, scale: int) -> np.ndarray:
    """The table hi * scale + lo over the codes whose high block is one of
    hi's and whose low block is one of lo's."""
    size = len(hi) * len(lo)
    return (hi[:, None, :, None] * scale + lo[None, :, None, :]).reshape(size, size)


@lru_cache(maxsize=1)
def _ring_tables(field: Field, n: int) -> RingTables:
    """The tables of R(n, F_q), kept for the most recent (field, n) only."""
    return RingTables(QuotientRing(field, n))


# ---------------------------------------------------------------------------
# factorization of x^n - 1

class CapExceeded(RuntimeError):
    """An exhaustive scan, or the factoring of x^n - 1, would exceed its workload cap."""


FACTOR_CAP = 1 << 26  # field operations factor_xn_minus_1 is charged at most


@dataclass(frozen=True)
class Factorization:
    """x^n - 1 = prod(self_reciprocal) * prod(h * h_star for pairs).

    All factors are monic irreducible.  Self-reciprocal factors and pairs
    are ordered by degree and then by coefficient tuple (ascending powers);
    within a pair the smaller coefficient tuple comes first.  idempotents
    holds the primitive idempotent e of each factor g, in the order of
    factors(): e = 1 mod g and e = 0 mod every other factor.
    """

    field: Field
    n: int
    self_reciprocal: tuple[Poly, ...]
    pairs: tuple[tuple[Poly, Poly], ...]
    cosets: tuple[tuple[int, ...], ...]
    idempotents: tuple[RingElem, ...]

    def factors(self) -> list[tuple[Poly, str]]:
        """All factors with kind labels, in a deterministic order."""
        out = [(g, "self_reciprocal") for g in self.self_reciprocal]
        for h, hstar in self.pairs:
            out.append((h, "pair_first"))
            out.append((hstar, "pair_second"))
        return out


def _check_expansion(field: Field, n: int, factors: Sequence[Poly]) -> None:
    """Raise AssertionError unless the factors multiply out to x^n - 1.

    The product is kept as an array of codes; multiplying it by a factor
    g takes one log/exp gather and one field sum per coefficient of g.
    """
    log, exp = field.log_array, field.exp_array
    product = np.array([field.one])
    for g in factors:
        out = np.zeros(len(product) + len(g) - 1, dtype=np.int64)
        for j, c in enumerate(g):  # out += c * x^j * product
            part = out[j : j + len(product)]
            part[:] = field_sum(field, np.stack([part, exp[log[product] + log[c]]]), 0)
        product = out
    expected = poly_trim([field.neg(1)] + [0] * (n - 1) + [1])
    if poly_trim(product.tolist()) != expected:
        raise AssertionError("factor product does not re-expand to x^n - 1")


def factor_charge(field: Field, n: int) -> tuple[int, list[list[int]]]:
    """The field operations factor_xn_minus_1 is charged at (field, n),
    and the cyclotomic cosets of q mod n, whose number r is that of the
    factors.

    With r factors, r Euclidean algorithms on polynomials of degree up to
    n (at most about n^2 operations each) read the factors off their
    idempotents.  The refinement takes about one step per factor, and a
    step row-reduces at most r rows of n digits, the pieces times powers
    of z, about r n operations, once per piece and once more per value a
    piece splits into; it looks for the values among all of F_p, p per
    value, about 2r values in all: r n^2 + r^2 n + 2 p r.  As r >= 1, the
    charge is at least n^2, and above FACTOR_CAP that floor alone refuses
    with CapExceeded, before the cosets are listed.  Requires n >= 1 and
    gcd(n, q) = 1.
    """
    if n < 1:
        raise ValueError(f"ring length must be >= 1, got {n}")
    if math.gcd(n, field.p) != 1:
        raise ValueError(f"x^n - 1 has repeated roots when gcd(n, q) != 1 (n={n}, q={field.q})")
    if n * n > FACTOR_CAP:
        raise CapExceeded(
            f"factoring x^n - 1 over F_{field.q} at n={n} takes at least {n * n} field operations, "
            f"cap is {FACTOR_CAP}"
        )
    cosets = cyclotomic_cosets(field.q, n)
    r = len(cosets)
    return r * (n * n + r * n + 2 * field.p), cosets


PRODUCT_BLOCK = 1 << 20  # terms one array of products holds at most


def _times(field: Field, rows: np.ndarray, z: np.ndarray) -> np.ndarray:
    """rows * z in R(n, F_q) for rows (..., n) and one row z: the sum over
    the nonzero terms z_t of z_t times rows shifted by t, taken for as many
    terms at a time as PRODUCT_BLOCK allows."""
    n = rows.shape[-1]
    at = np.flatnonzero(z)
    step = max(1, PRODUCT_BLOCK // max(rows.size, 1))
    parts = [np.zeros_like(rows)]  # z may be 0
    for t in (at[lo : lo + step] for lo in range(0, len(at), step)):
        shifted = rows[..., (np.arange(n) - t[:, None]) % n]  # [..., t, i]: coefficient i - t of the row
        parts.append(field_sum(field, field.exp_array[field.log_array[shifted] + field.log_array[z[t]][:, None]],
                               rows.ndim - 1))
    return field_sum(field, np.stack(parts), 0)


def _values_split(field: Field, pieces: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The pieces e * E_lam, over every piece e and every value lam that z
    takes on e, for orthogonal idempotents e and a z in B with z^p = z.

    The rows e, e z, e z^2, ... of each piece are row-reduced over F_p,
    on their digits, with the powers that made them alongside, until e
    z^m depends on those before it: then mu_e(t) = t^m - ..., read off
    the powers, is the least polynomial with mu_e(z) e = 0, and its roots,
    all in F_p and distinct as z^p = z, are the values of z on e, each
    marked by the idempotent E_lam, 1 where z = lam and 0 elsewhere
    (_lagrange_rows).  All pieces step together; a piece drops out at its
    m, and one with m = 1 stays whole.
    """
    p, (count, n), width = field.p, pieces.shape, pieces.shape[1] * field.k
    inverse = field.exp_array[field.q - 1 - field.log_array[:p]]  # F_p inverses, as in inverse_matrices
    rows = pieces  # e z^j, for the pieces still stepping
    span = np.zeros((count, 0, n), dtype=np.int64)  # their e z^i, i < j
    basis = np.zeros((count, 0, width + min(p, n) + 1), dtype=np.int64)  # reduced rows: digits, then powers of z
    pivots = np.zeros((count, 0), dtype=np.int64)
    out = []
    for j in range(min(p, n) + 1):  # m is at most the number of values, p, and of coordinates, n
        reduced = np.zeros((len(rows), basis.shape[2]), dtype=np.int64)
        reduced[:, :width] = field.digit_array[rows].reshape(len(rows), width)
        reduced[:, width + j] = 1
        lead = np.take_along_axis(reduced, pivots, 1)
        reduced = (reduced - (lead[:, None, :] @ basis)[:, 0]) % p
        done = ~reduced[:, :width].any(axis=1)  # e z^j = -(sum of mu_i e z^i, i < j)
        if j == 1:
            out.append(span[done, 0])
        elif done.any():
            mu = reduced[done, width : width + j + 1]
            out.append(_lagrange_rows(field, mu, span[done]))
        live = ~done
        if not live.any():
            break
        reduced, basis, pivots, span = reduced[live], basis[live], pivots[live], span[live]
        at = np.argmax(reduced[:, :width] != 0, axis=1)
        reduced = reduced * inverse[reduced[np.arange(len(reduced)), at]][:, None] % p
        basis = (basis - basis[np.arange(len(basis)), :, at][:, :, None] * reduced[:, None, :]) % p
        basis = np.concatenate([basis, reduced[:, None]], axis=1)
        pivots = np.concatenate([pivots, at[:, None]], axis=1)
        span = np.concatenate([span, rows[live][:, None]], axis=1)
        rows = _times(field, rows[live], z)
    return np.concatenate(out)


def _lagrange_rows(field: Field, mu: np.ndarray, span: np.ndarray) -> np.ndarray:
    """The rows e E_lam for every root lam of each mu_e (coefficient rows
    (D, m + 1) over F_p, ascending, monic, m >= 2), from span[e, i] = e z^i.

    The roots are found among all of F_p, as many rows of candidates at
    a time as PRODUCT_BLOCK allows.  e z^i = sum over lam of lam^i e E_lam,
    so the rows e E_lam are the inverse of the Vandermonde matrix of the
    roots times the rows e z^i.
    """
    p, (count, m, n) = field.p, span.shape
    lam, step = np.arange(p), max(1, PRODUCT_BLOCK // p)
    found = []
    for lo in range(0, count, step):
        value = np.zeros((len(mu[lo : lo + step]), p), dtype=np.int64)
        for c in mu[lo : lo + step, ::-1].T:  # Horner's rule at every lam at once
            value = (value * lam + c[:, None]) % p
        found.append(value == 0)
    found = np.concatenate(found)
    if (found.sum(axis=1) != m).any():
        raise AssertionError("z takes values outside F_p")
    lam = np.nonzero(found)[1].reshape(count, m)  # the roots of each mu_e
    vandermonde = np.ones((count, m, m), dtype=np.int64)  # [e, i, lam]: lam^i
    for i in range(1, m):
        vandermonde[:, i] = vandermonde[:, i - 1] * lam % p
    solve = inverse_matrices(field, vandermonde)[0]
    split = np.einsum("eli,eink->elnk", solve, field.digit_array[span]) % p
    return (split @ p ** np.arange(field.k)).reshape(-1, n)


def primitive_idempotents(field: Field, n: int, cosets: Sequence[Sequence[int]]) -> np.ndarray:
    """The primitive idempotents of R(n, F_q), one coefficient row each,
    gcd(n, q) = 1 (MacWilliams and Sloane, The Theory of Error-Correcting
    Codes, ch. 8).

    u -> u^q permutes coefficients (i -> q*i), so B = {u : u^q = u} is
    spanned by the coset sums c_C = sum of x^i over i in C, and B = F_q^r,
    one coordinate per factor of x^n - 1; e_i is 1 at coordinate i and 0
    elsewhere.  A z in B with z^p = z has its values in F_p, and {1} is
    refined by the idempotents that mark where z takes each of its values
    (_values_split), dropping nothing, for z = Tr(theta * c_C) = sum over
    i < k of (theta * c_C)^(p^i), every coset C but {0} (c_{0} = 1 is
    constant) and theta = 1, y, ..., y^(k-1); the traces of the values of
    the c_C tell every two coordinates apart, and over F_p, z is c_C
    itself.  v -> v^(p^i) moves coefficient j to place p^i * j and raises
    it to the power p^i, so z costs no ring product.  The refinement stops
    once it holds r pieces.
    """
    p, k = field.p, field.k
    pieces = np.zeros((1, n), dtype=np.int64)
    pieces[0, 0] = field.one
    for coset in cosets[1:]:  # c_{0} = 1 takes one value
        for theta in (p**u for u in range(k)):  # the codes of y^u
            if len(pieces) == len(cosets):
                return pieces
            conjugates = np.zeros((k, n), dtype=np.int64)
            for i in range(k):
                conjugates[i, np.array(coset) * p**i % n] = field.frobenius(theta, i)
            pieces = _values_split(field, pieces, field_sum(field, conjugates, 0))
    return pieces


@lru_cache(maxsize=None)
def factor_xn_minus_1(field: Field, n: int) -> Factorization:
    """Factor x^n - 1 into distinct monic irreducibles over F_q alone.

    Requires n >= 1 and gcd(n, q) = 1, so the factors are distinct and their
    number r equals the number of cyclotomic cosets of q mod n, which
    factor_charge lists.  Refused with CapExceeded, before any work, when
    the charge exceeds FACTOR_CAP.  The r primitive idempotents e_i come from
    primitive_idempotents, and each factor is g_i = gcd(1 - e_i, x^n - 1),
    the zeros of 1 - e_i being those of g_i.  The result is certified: the
    factors are r in number, their degrees are the coset sizes, and they
    multiply out to x^n - 1.  Pairwise coprime factors, as many as
    x^n - 1 has irreducible factors, are irreducible.
    """
    charge, cosets = factor_charge(field, n)
    if charge > FACTOR_CAP:
        raise CapExceeded(
            f"factoring x^n - 1 over F_{field.q} at n={n} takes about {charge} field operations, "
            f"cap is {FACTOR_CAP}"
        )
    xn1 = poly_trim([field.neg(1)] + [0] * (n - 1) + [1])
    idempotent = {}
    for e in primitive_idempotents(field, n, cosets).tolist():
        one_minus_e = [field.neg(c) for c in e]
        one_minus_e[0] = field.add(one_minus_e[0], field.one)
        idempotent[poly_gcd(field, poly_trim(one_minus_e), xn1)] = tuple(e)
    factors = list(idempotent)

    if len(factors) != len(cosets):
        raise AssertionError("factor count does not match coset count")
    if sorted(map(poly_degree, factors)) != sorted(map(len, cosets)):
        raise AssertionError("factor degrees do not match coset sizes")
    _check_expansion(field, n, factors)

    def order(g: Poly) -> tuple:
        return len(g), g

    self_rec = sorted((g for g in factors if monic_reciprocal(field, g) == g), key=order)
    pairs = sorted({tuple(sorted((g, monic_reciprocal(field, g)))) for g in factors if g not in self_rec},
                   key=lambda pair: order(pair[0]))
    ordered = self_rec + [h for pair in pairs for h in pair]
    if len(ordered) != len(factors):
        raise AssertionError("non-self-reciprocal factor without a partner")
    return Factorization(
        field=field,
        n=n,
        self_reciprocal=tuple(self_rec),
        pairs=tuple(pairs),
        cosets=tuple(tuple(c) for c in cosets),
        idempotents=tuple(idempotent[g] for g in ordered),
    )
