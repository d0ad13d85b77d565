"""Exact arithmetic in small finite fields F_q with q = p^k.

An element of F_{p^k} is stored as an integer code in [0, q): the element
with coefficient vector (c_0, ..., c_{k-1}) over F_p, ascending in powers
of the modulus root, has code sum(c_j * p**j).  Prime-field elements are
their own residues.  Field objects are immutable after construction and
every operation is a pure function, so contexts can be shared freely.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

ORDER_CAP = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# Internal polynomial helpers over F_p (coefficient lists, ascending order).
# Only used for modulus generation and validation; general polynomial
# arithmetic over arbitrary fields lives in polyring.

def _ptrim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmod(f: list[int], g: list[int], p: int) -> list[int]:
    # remainder of f by g, g monic
    r = list(f)
    dg = len(g) - 1
    while len(r) - 1 >= dg and r:
        lead = r[-1]
        shift = len(r) - 1 - dg
        if lead:
            for i, gi in enumerate(g):
                r[shift + i] = (r[shift + i] - lead * gi) % p
        r.pop()
        _ptrim(r)
        if not r:
            break
    return r


def _monic_polys_mod_p(p: int, d: int) -> Iterator[list[int]]:
    for c in range(p**d):
        coeffs = []
        v = c
        for _ in range(d):
            coeffs.append(v % p)
            v //= p
        coeffs.append(1)
        yield coeffs


def _is_irreducible_mod_p(f: Sequence[int], p: int) -> bool:
    d = len(f) - 1
    if d < 1:
        return False
    for e in range(1, d // 2 + 1):
        for g in _monic_polys_mod_p(p, e):
            if not _pmod(list(f), g, p):
                return False
    return True


def _lexleast_irreducible(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible of degree k in ascending code order.

    Candidates are ordered by the integer encoding of their lower
    coefficients (c_0 + c_1 p + ...), which makes the choice reproducible
    byte for byte across runs and platforms.
    """
    for f in _monic_polys_mod_p(p, k):
        if _is_irreducible_mod_p(f, p):
            return tuple(f)
    raise AssertionError(f"no irreducible polynomial of degree {k} over F_{p}")


class Field:
    """Arithmetic context for F_q, q = p^k.

    For k > 1 the field is F_p[y]/(modulus).  If no modulus is supplied the
    lexicographically least monic irreducible of degree k is generated, so
    enumeration outputs are deterministic.
    """

    __slots__ = ("p", "k", "q", "modulus", "_xpow", "_coeff_cache")

    def __init__(self, p: int, k: int = 1, modulus: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        if k < 1:
            raise ValueError(f"extension degree must be >= 1, got {k}")
        q = p**k
        if q > ORDER_CAP:
            raise ValueError(f"field order {q} exceeds the supported cap {ORDER_CAP}")
        self.p = p
        self.k = k
        self.q = q
        if k == 1:
            if modulus:
                raise ValueError("prime fields take no modulus")
            self.modulus: tuple[int, ...] = ()
        elif modulus is None:
            self.modulus = _lexleast_irreducible(p, k)
        else:
            mod = tuple(c % p for c in modulus)
            if len(mod) != k + 1 or mod[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {k}")
            if not _is_irreducible_mod_p(mod, p):
                raise ValueError(f"modulus {list(mod)} is reducible over F_{p}")
            self.modulus = mod

        # Reduction rows: coefficient vector of y^j mod modulus, j = k..2k-2.
        self._xpow: tuple[tuple[int, ...], ...] = ()
        if k > 1:
            red = tuple((-c) % p for c in self.modulus[:k])
            rows = [red]
            for _ in range(k - 2):
                prev = rows[-1]
                top = prev[-1]
                row = [0] + list(prev[:-1])
                if top:
                    row = [(row[i] + top * red[i]) % p for i in range(k)]
                rows.append(tuple(row))
            self._xpow = tuple(tuple(r) for r in rows)
        self._coeff_cache: Optional[list[tuple[int, ...]]] = None

    # -- representation helpers --------------------------------------------

    def coeffs(self, x: int) -> tuple[int, ...]:
        """Coefficient vector of an element code, length k, ascending."""
        if self.k == 1:
            return (x,)
        cache = self._coeff_cache
        if cache is None and self.q <= 4096:
            cache = self._coeff_cache = [self._decode(i) for i in range(self.q)]
        if cache is not None:
            return cache[x]
        return self._decode(x)

    def _decode(self, x: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.k):
            out.append(x % p)
            x //= p
        return tuple(out)

    def element(self, coeffs: Iterable[int]) -> int:
        """Code of the element with the given F_p coefficient vector."""
        vec = list(coeffs)
        if len(vec) > self.k:
            raise ValueError(f"coefficient vector longer than degree {self.k}")
        code = 0
        for j, c in enumerate(vec):
            code += (c % self.p) * self.p**j
        return code

    def elements(self) -> range:
        return range(self.q)

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    # -- arithmetic ---------------------------------------------------------

    def add(self, x: int, y: int) -> int:
        if self.k == 1:
            return (x + y) % self.p
        p = self.p
        a, b = self.coeffs(x), self.coeffs(y)
        code = 0
        pw = 1
        for i in range(self.k):
            code += ((a[i] + b[i]) % p) * pw
            pw *= p
        return code

    def neg(self, x: int) -> int:
        if self.k == 1:
            return (-x) % self.p
        p = self.p
        a = self.coeffs(x)
        code = 0
        pw = 1
        for i in range(self.k):
            code += ((-a[i]) % p) * pw
            pw *= p
        return code

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
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
        code = 0
        pw = 1
        for c in res:
            code += c * pw
            pw *= p
        return code

    def pow(self, x: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(x), -e)
        if self.k == 1:
            return pow(x, e, self.p)
        result = 1
        base = x
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, x: int) -> int:
        if x == 0:
            raise ValueError("0 has no multiplicative inverse")
        return self.pow(x, self.q - 2)

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def frobenius(self, x: int, e: int) -> int:
        """Apply the p-power automorphism e times: x -> x^(p^e).

        This fixes the prime subfield, and e = k is the identity on the
        whole field.  Conjugation by q^m for q = p^k is frobenius(x, k*m).
        """
        if e < 0:
            raise ValueError("frobenius exponent must be >= 0")
        for _ in range(e):
            x = self.pow(x, self.p)
        return x

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        if self.k == 1:
            return f"Field(p={self.p})"
        return f"Field(p={self.p}, k={self.k}, modulus={list(self.modulus)})"


def field_of_order(q: int) -> Field:
    """Build F_q from its order alone (q must be a prime power)."""
    if q < 2:
        raise ValueError(f"not a prime power: {q}")
    p = q
    for f in range(2, q + 1):
        if f * f > q:
            break
        if q % f == 0:
            p = f
            break
    k = 0
    v = q
    while v > 1:
        if v % p:
            raise ValueError(f"not a prime power: {q}")
        v //= p
        k += 1
    return Field(p, k)


def quad_char(field: Field, x: int) -> int:
    """Quadratic character: +1 on nonzero squares, -1 on nonsquares, 0 at 0.

    Only defined for odd q.  Computed by Euler's criterion,
    x^((q-1)/2) in {1, -1}.
    """
    if field.q % 2 == 0:
        raise ValueError("quadratic character requires odd field order")
    if x == 0:
        return 0
    s = field.pow(x, (field.q - 1) // 2)
    if s == field.one:
        return 1
    if s == field.neg(field.one):
        return -1
    raise AssertionError("Euler criterion produced a value other than +-1")


class Embedding:
    """Field homomorphism F_{p^k} -> F_{p^K} fixing F_p, for k dividing K.

    The image of the source modulus root is the first root of the source
    modulus found in code order, so embeddings are deterministic.
    """

    __slots__ = ("src", "dst", "_fwd", "_back", "root")

    def __init__(self, src: Field, dst: Field):
        if src.p != dst.p:
            raise ValueError("embedding requires equal characteristic")
        if dst.k % src.k != 0:
            raise ValueError(f"F_{src.q} does not embed in F_{dst.q}")
        self.src = src
        self.dst = dst
        if src.k == 1 or src == dst:
            # prime subfield or identity: codes map to themselves
            self._fwd = None
            self._back = None
            self.root = None if src.k == 1 else src.p
            return
        root = None
        for z in dst.elements():
            acc = 0
            for c in reversed(src.modulus):
                acc = dst.add(dst.mul(acc, z), c)
            if acc == 0:
                root = z
                break
        if root is None:
            raise AssertionError("subfield modulus has no root in the extension")
        self.root = root
        powers = [dst.one]
        for _ in range(src.k - 1):
            powers.append(dst.mul(powers[-1], root))
        fwd = []
        for x in src.elements():
            acc = 0
            for c, rp in zip(src.coeffs(x), powers):
                acc = dst.add(acc, dst.mul(c, rp))
            fwd.append(acc)
        self._fwd = fwd
        self._back = {v: i for i, v in enumerate(fwd)}

    def apply(self, x: int) -> int:
        if self._fwd is None:
            return x
        return self._fwd[x]

    def contains(self, y: int) -> bool:
        if self._back is None:
            return y < self.src.q
        return y in self._back

    def preimage(self, y: int) -> int:
        if self._back is None:
            if y < self.src.q:
                return y
            raise ValueError(f"element {y} is not in the embedded subfield")
        try:
            return self._back[y]
        except KeyError:
            raise ValueError(f"element {y} is not in the embedded subfield") from None
