"""Polynomials over F_q and the cyclic quotient ring R(n, F_q) = F_q[x]/(x^n - 1).

Polynomials are tuples of field element codes, ascending in degree, with no
trailing zeros; the zero polynomial is ().  Ring residues are tuples of
exactly n codes.  The factorization of x^n - 1 is computed from cyclotomic
cosets: each irreducible factor is the minimal polynomial of a power of a
primitive n-th root of unity in the splitting field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

import numpy as np

from .fields import ORDER_CAP, Field, default_field, digits, embedding, field_sum, power_text, prime_divisors

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


def poly_scale(field: Field, c: int, f: Poly) -> Poly:
    if c == 0:
        return ()
    return poly_trim([field.mul(c, x) for x in f])


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
    return poly_scale(field, field.inv(f[-1]), f)


def poly_gcd(field: Field, f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean algorithm."""
    a, b = poly_trim(f), poly_trim(g)
    while b:
        a, b = b, poly_mod(field, a, b)
    return poly_monic(field, a)


def poly_ext_gcd(field: Field, f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """Return (d, s, t), monic d = gcd(f, g) with s*f + t*g = d."""
    r0, r1 = poly_trim(f), poly_trim(g)
    s0, s1 = (field.one,), ()
    t0, t1 = (), (field.one,)
    while r1:
        q, r = poly_divmod(field, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(field, s0, poly_mul(field, q, s1))
        t0, t1 = t1, poly_sub(field, t0, poly_mul(field, q, t1))
    if not r0:
        return (), s0, t0
    c = field.inv(r0[-1])
    return poly_scale(field, c, r0), poly_scale(field, c, s0), poly_scale(field, c, t0)


ROOT_CHUNK = 1 << 9  # elements first_roots evaluates the polynomials at in one pass


def first_roots(field: Field, polys: Sequence[Poly]) -> list[int]:
    """Least element code z with f(z) = 0, for each f in polys; every z is
    a root of the zero polynomial.

    A polynomial c0 + c1*x has the one root -c0/c1.  The others are
    evaluated at ROOT_CHUNK elements at a time, in code order, by Horner's
    rule on one array for all of them: per chunk, max deg(f) steps of a
    log/exp gather and a field sum, for every f without a root in the
    chunks before, and the scan stops once every f has one.
    """
    roots = [field.div(field.neg(f[0]), f[1]) if len(f) == 2 else -1 for f in polys]
    left = np.array([j for j, root in enumerate(roots) if root < 0], dtype=np.intp)
    top = np.zeros((len(polys), max([1, *map(len, polys)])), dtype=np.int64)  # top[j]: polys[j], highest first
    for row, f in zip(top, polys):
        row[len(row) - len(f) :] = f[::-1]
    log, exp = field.log_array, field.exp_array
    for start in range(0, field.q, ROOT_CHUNK):
        if not len(left):
            break
        z_log = log[start : start + ROOT_CHUNK]
        coeffs = top[left]
        values = np.repeat(coeffs[:, :1], len(z_log), axis=1)  # values[j, z - start]: f_j(z), so far
        for c in coeffs[:, 1:].T:
            values = field_sum(field, np.stack(np.broadcast_arrays(exp[log[values] + z_log], c[:, None])), 0)
        zero = values == 0
        found = zero.any(axis=1)
        for j, at in zip(left[found].tolist(), zero[found].argmax(axis=1).tolist()):
            roots[j] = start + at
        left = left[~found]
    if len(left):
        raise ValueError(f"polynomial {list(polys[left[0]])} has no root in F_{field.q}")
    return roots


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
    """R(n, F_q) with residues as length-n coefficient tuples."""

    def __init__(self, field: Field, n: int):
        if n < 1:
            raise ValueError(f"ring length must be >= 1, got {n}")
        self.field = field
        self.n = n
        self.size = field.q**n
        self.zero: RingElem = (0,) * n
        self.one: RingElem = (1,) + (0,) * (n - 1) if n > 1 else (1,)
        self.all_ones: RingElem = (1,) * n
        # x^n - 1 as a dense polynomial, used for unit tests and inverses
        self.modulus_poly: Poly = poly_trim(
            [field.neg(1)] + [0] * (n - 1) + [1]
        )

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

    # -- lifting and units -----------------------------------------------------

    def lift(self, u: RingElem) -> Poly:
        return poly_trim(u)

    def reduce(self, f: Sequence[int]) -> RingElem:
        """Fold a dense polynomial modulo x^n - 1."""
        F, n = self.field, self.n
        acc = [0] * n
        for i, c in enumerate(f):
            if c:
                acc[i % n] = F.add(acc[i % n], c)
        return tuple(acc)

    def is_unit(self, u: RingElem) -> bool:
        g = poly_gcd(self.field, self.lift(u), self.modulus_poly)
        return poly_degree(g) == 0

    def inv(self, u: RingElem) -> RingElem:
        d, s, _ = poly_ext_gcd(self.field, self.lift(u), self.modulus_poly)
        if poly_degree(d) != 0:
            raise ValueError("ring element is not a unit")
        return self.reduce(poly_scale(self.field, self.field.inv(d[0]), s))

    # -- index tables ----------------------------------------------------------

    def tables(self) -> "RingTables":
        """Index-space tables of the ring, built once per (field, n)."""
        return _ring_tables(self.field, self.n)

    def __repr__(self) -> str:
        return f"QuotientRing(q={self.field.q}, n={self.n})"


class RingTables:
    """Index-space tables of a quotient ring, indexed by element code.

    coeffs is the size x n array of coefficient codes of every element;
    neg, recip and norm are flat int64 arrays, the indices of -u, u' and
    u*u'; add(x, y) and times(m) give the indices of sums and of products
    c*m; units marks the elements coprime to x^n - 1.  An element code is
    also the base-p number of the n*k F_p digits of its coefficients, held
    in digit_vectors, and addition and multiplication by a fixed m act on
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
        i of u_i * u_(i-k), is read off the coefficient logarithms of all
        elements at once, one lag k at a time, in O(Q*n) memory; u*u' is its
        own reciprocal, so lag n - k repeats lag k."""
        field, n = self.field, self.n
        logs = field.log_array[self.coeffs]  # logs[u, i]: log of coefficient i of u
        i = np.arange(n)
        prod = np.empty(logs.shape, dtype=np.int64)  # prod[u, k]: coefficient k of u*u'
        for k in range(n // 2 + 1):
            prod[:, k] = field_sum(field, field.exp_array[logs + logs[:, i - k]], 1)
            prod[:, -k] = prod[:, k]
        norm = prod @ field.q ** i
        norm.flags.writeable = False
        return norm

    @cached_property
    def units(self) -> np.ndarray:
        """Whether each element is a unit, that is coprime to x^n - 1.

        u -> u' is a ring automorphism, so u is a unit exactly when u*u' is,
        and u*u', its own reciprocal, takes at most q^(n//2 + 1) values: one
        QuotientRing.is_unit gcd per value taken, gathered back through norm.
        """
        ring = QuotientRing(self.field, self.n)
        unit_at = np.zeros(self.size, dtype=bool)
        unit_at[self.norm] = True  # the values norm takes, then whether each is a unit
        for v in np.flatnonzero(unit_at).tolist():
            unit_at[v] = ring.is_unit(ring.element(v))
        units = unit_at[self.norm]
        units.flags.writeable = False
        return units


def times_matrices(field: Field, coeffs) -> np.ndarray:
    """The n*k x n*k F_p matrices M with (digit row of c) @ M = digit row
    of c*m mod p, one for each coefficient row m of coeffs (shape (..., n)).
    Coefficient j of c contributes coefficient (j + i) % n of c*m times
    coefficient i of m, so M is the block circulant of the k x k matrices
    whose row d holds the digits of y^d times m's coefficients."""
    coeffs = np.asarray(coeffs)
    n, k = coeffs.shape[-1], field.k
    at = np.arange(n)
    # [..., coefficient, in digit d, out digit]: the digits of y^d * coefficient, from the log tables
    logs = field.log_array[coeffs][..., None] + field.log_array[field.p ** np.arange(k)]
    blocks = field.digit_array[field.exp_array[logs]]
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

@dataclass(frozen=True)
class Factorization:
    """x^n - 1 = alpha * prod(self_reciprocal) * prod(h * h_star for pairs).

    All factors are monic irreducible; within a pair the lexicographically
    smaller coefficient vector comes first.
    """

    field: Field
    n: int
    alpha: int
    self_reciprocal: tuple[Poly, ...]
    pairs: tuple[tuple[Poly, Poly], ...]
    cosets: tuple[tuple[int, ...], ...]

    def factors(self) -> list[tuple[Poly, str]]:
        """All factors with kind labels, in a deterministic order."""
        out = [(g, "self_reciprocal") for g in self.self_reciprocal]
        for h, hstar in self.pairs:
            out.append((h, "pair_first"))
            out.append((hstar, "pair_second"))
        return out


def _find_primitive_root_of_unity(big: Field, n: int) -> int:
    """First element of multiplicative order exactly n, in code order.

    With m = |big| - 1, the element g^L has order m / gcd(L, m).
    """
    m = big.q - 1
    orders = m // np.gcd(big.log_array[1:], m)
    return 1 + int(np.flatnonzero(orders == n)[0])


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


@lru_cache(maxsize=None)
def factor_xn_minus_1(field: Field, n: int) -> Factorization:
    """Factor x^n - 1 into distinct monic irreducibles via cyclotomic cosets.

    Requires n >= 1 and gcd(n, q) = 1, so the factors are distinct and their
    number equals the number of cyclotomic cosets of q mod n.  Every minimal
    polynomial is formed in the splitting field F_{q^m} (m the order of
    q mod n), which must be within the field order cap, and its
    coefficients are pulled back into F_q through the deterministic
    subfield embedding; a pullback failure would mean the construction is
    wrong and raises immediately.
    """
    if n < 1:
        raise ValueError(f"ring length must be >= 1, got {n}")
    if math.gcd(n, field.p) != 1:
        raise ValueError(f"x^n - 1 has repeated roots when gcd(n, q) != 1 (n={n}, q={field.q})")
    m = multiplicative_order(field.q, n)
    # q >= 2, so q^m > ORDER_CAP once 2^m is, and q^m is never formed at large m
    if m >= ORDER_CAP.bit_length() or field.q**m > ORDER_CAP:
        raise ValueError(
            f"x^n - 1 splits only over F_(q^m) with n={n}, q={field.q}, m={m}: "
            f"q^m = {power_text(field.q, m)} exceeds the field order cap {ORDER_CAP}"
        )
    cosets = cyclotomic_cosets(field.q, n)
    big = field if m == 1 else default_field(field.p, field.k * m)
    emb = embedding(field, big)
    beta = _find_primitive_root_of_unity(big, n)

    factors = []
    for coset in cosets:
        g_big: Poly = (big.one,)
        for i in coset:
            root = big.pow(beta, i)
            g_big = poly_mul(big, g_big, (big.neg(root), big.one))
        factors.append(tuple(emb.preimage(c) for c in g_big))

    self_rec: list[Poly] = []
    pairs: list[tuple[Poly, Poly]] = []
    waiting: dict[Poly, None] = {}
    for g in factors:
        rg = monic_reciprocal(field, g)
        if rg == g:
            self_rec.append(g)
        elif rg in waiting:
            pairs.append((g, rg) if g < rg else (rg, g))
            del waiting[rg]
        else:
            waiting[g] = None
    if waiting:
        raise AssertionError("non-self-reciprocal factor without a partner")

    _check_expansion(field, n, factors)
    if len(factors) != len(cosets):
        raise AssertionError("factor count does not match coset count")

    return Factorization(
        field=field,
        n=n,
        alpha=field.one,
        self_reciprocal=tuple(self_rec),
        pairs=tuple(pairs),
        cosets=tuple(tuple(c) for c in cosets),
    )
