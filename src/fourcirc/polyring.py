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
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .fields import Embedding, Field, digits

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
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                if gj:
                    out[i + j] = field.add(out[i + j], field.mul(fi, gj))
    return poly_trim(out)


def poly_divmod(field: Field, f: Poly, g: Poly) -> tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(f)
    dg = len(g) - 1
    lead_inv = field.inv(g[-1])
    quot = [0] * max(len(f) - dg, 0)
    while len(r) - 1 >= dg and r:
        c = field.mul(r[-1], lead_inv)
        shift = len(r) - 1 - dg
        quot[shift] = c
        if c:
            for i, gi in enumerate(g):
                r[shift + i] = field.sub(r[shift + i], field.mul(c, gi))
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


def poly_eval(field: Field, f: Poly, x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = field.add(field.mul(acc, x), c)
    return acc


def first_root(field: Field, f: Poly) -> int:
    """Least element code z with f(z) = 0; every z is a root of the zero polynomial."""
    if len(f) == 2:  # c0 + c1*x has the one root -c0/c1
        return field.div(field.neg(f[0]), f[1])
    for z in field.elements():
        if poly_eval(field, f, z) == 0:
            return z
    raise ValueError(f"polynomial {list(f)} has no root in F_{field.q}")


def monic_reciprocal(field: Field, f: Poly) -> Poly:
    """x^deg(f) * f(1/x), normalized monic.  Requires f(0) != 0."""
    if not f or f[0] == 0:
        raise ValueError("reciprocal normalization needs a nonzero constant term")
    rev = tuple(reversed(f))
    return poly_monic(field, rev)


def monic_polys(field: Field, d: int) -> Iterator[Poly]:
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


def is_irreducible(field: Field, f: Poly) -> bool:
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    d = poly_degree(f)
    if d < 1:
        return False
    for e in range(1, d // 2 + 1):
        for g in monic_polys(field, e):
            if not poly_mod(field, f, g):
                return False
    return True


# ---------------------------------------------------------------------------
# integer-side machinery: orders, cosets

def prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def multiplicative_order(q: int, n: int) -> int:
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


def is_two_factor_case(field: Field, n: int) -> bool:
    """True when x^n - 1 splits into exactly two irreducible factors over F_q."""
    return len(cyclotomic_cosets(field.q, n)) == 2


# ---------------------------------------------------------------------------
# quotient ring

TABLE_LIMIT = 1024  # largest ring size that gets dense operation tables


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
        self._tables: Optional[RingTables] = None
        self._tables_checked = False

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

    # -- dense tables ----------------------------------------------------------

    def tables(self) -> Optional["RingTables"]:
        """Dense index-space operation tables, or None above TABLE_LIMIT elements."""
        if not self._tables_checked:
            self._tables_checked = True
            if self.size <= TABLE_LIMIT:
                self._tables = RingTables(self)
        return self._tables

    def __repr__(self) -> str:
        return f"QuotientRing(q={self.field.q}, n={self.n})"


class RingTables:
    """Dense operation tables for a small quotient ring, indexed by element code.

    mul and add are size x size int64 arrays; neg, recip and weight are
    flat ones.
    """

    def __init__(self, ring: QuotientRing):
        field, n, Q = ring.field, ring.n, ring.size
        p, q = field.p, field.q
        self.size = Q
        E = digits(np.arange(Q), q, n)  # E[x, j]: coefficient j of element x
        qpw = q ** np.arange(n)
        # an element code is also the base-p number of its n*k F_p digits,
        # so add acts digit by digit
        digit_add = np.add.outer(np.arange(p), np.arange(p)) % p
        add = np.zeros((1, 1), dtype=np.int64)
        while len(add) < Q:
            add = (p * add[:, None, :, None] + digit_add[None, :, None, :]).reshape(
                p * len(add), p * len(add)
            )
        self.add = add
        self.neg = field.neg_array[E] @ qpw
        self.recip = E[:, [(n - j) % n for j in range(n)]] @ qpw
        self.weight = (E != 0).sum(axis=1)
        # x = x0 + q*(x div q) as polynomials x0 + t*(x div q), so
        # mul[x] = add[scal[x0], shift[mul[x div q]]], filled one digit level at a time
        log, exp = field.log_array, field.exp_array
        scal = exp[log[:, None, None] + log[E][None]] @ qpw  # scal[c, y] = c*y
        top = q ** (n - 1)
        shift = np.arange(Q) % top * q + np.arange(Q) // top  # shift[y] = t*y
        mul = np.empty((Q, Q), dtype=np.int64)
        mul[:q] = scal
        lo = q
        while lo < Q:
            x = np.arange(lo, lo * q)
            mul[lo : lo * q] = add[scal[x % q], shift[mul[x // q]]]
            lo *= q
        self.mul = mul


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

    def factor_count(self) -> int:
        return len(self.self_reciprocal) + 2 * len(self.pairs)


def _find_primitive_root_of_unity(big: Field, n: int) -> int:
    """First element of multiplicative order exactly n, in code order."""
    if n == 1:
        return big.one
    prime_divs = prime_factors(n)
    for z in range(1, big.q):
        if big.pow(z, n) != big.one:
            continue
        if all(big.pow(z, n // ell) != big.one for ell in prime_divs):
            return z
    raise AssertionError(f"no element of order {n} in F_{big.q}")


@lru_cache(maxsize=None)
def factor_xn_minus_1(field: Field, n: int) -> Factorization:
    """Factor x^n - 1 into distinct monic irreducibles via cyclotomic cosets.

    Requires gcd(n, q) = 1, so the factors are distinct and their number
    equals the number of cyclotomic cosets of q mod n.  Every minimal
    polynomial is formed in the splitting field F_{q^m} (m the order of
    q mod n) and its coefficients are pulled back into F_q through the
    deterministic subfield embedding; a pullback failure would mean the
    construction is wrong and raises immediately.
    """
    if math.gcd(n, field.p) != 1:
        raise ValueError(f"x^n - 1 has repeated roots when gcd(n, q) != 1 (n={n}, q={field.q})")
    cosets = cyclotomic_cosets(field.q, n)
    m = multiplicative_order(field.q, n) if n > 1 else 1
    big = field if m == 1 else Field(field.p, field.k * m)
    emb = Embedding(field, big)
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

    product: Poly = (field.one,)
    for g in factors:
        product = poly_mul(field, product, g)
    expected = poly_trim([field.neg(1)] + [0] * (n - 1) + [1])
    if product != expected:
        raise AssertionError("factor product does not re-expand to x^n - 1")
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
