"""Exact arithmetic in small finite fields F_q with q = p^k.

An element of F_{p^k} is stored as an integer code in [0, q): the element
with coefficient vector (c_0, ..., c_{k-1}) over F_p, ascending in powers
of the modulus root, has code sum(c_j * p**j).  Prime-field elements are
their own residues.

Every field, prime or not, computes through the same tables, built once at
construction: logarithms and antilogarithms to the base g, the least
primitive element in code order, Zech logarithms log(1 + g^d) for
addition (Lidl and Niederreiter, Finite Fields, ch. 9), and the F_p digits
of every code.  The base is internal and appears in no output.  Field
objects are immutable after construction and every operation is a pure
function, so contexts can be shared freely.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

ORDER_CAP = 1 << 16
POWER_DIGITS = 30  # power_text writes longer numbers as powers


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


def power_text(base: int, exp: int, times: int = 1) -> str:
    """times * base^exp for a message: its decimal digits when there are at
    most POWER_DIGITS of them, else the power, as in 2^200000 or 100*3^5000.

    Work sizes such as q^(2n) can have millions of digits; Python refuses
    to write an int of more than 4300 digits in decimal, and the power is
    never computed here.
    """
    if exp * math.log10(base) + math.log10(times) < POWER_DIGITS:
        return str(times * base**exp)
    return f"{base}^{exp}" if times == 1 else f"{times}*{base}^{exp}"


def digits(codes: np.ndarray, base: int, width: int) -> np.ndarray:
    """Base-`base` digits of each code, least significant first: shape (len, width)."""
    return np.asarray(codes, dtype=np.int64)[:, None] // base ** np.arange(width) % base


def field_sum(field: "Field", codes: np.ndarray, axis) -> np.ndarray:
    """Sum of element codes over axis (an int >= 0 or a tuple of them).

    Addition in F_{p^k} adds the F_p digits of the codes mod p.  In
    characteristic 2 the codes are bit vectors of their digits, and that sum
    is their exclusive or.
    """
    if field.p == 2:
        return np.bitwise_xor.reduce(codes, axis=axis)
    return field.digit_array[codes].sum(axis=axis) % field.p @ (field.p ** np.arange(field.k))


def mul_matrices(field: "Field", xs) -> np.ndarray:
    """k x k matrices over F_p of multiplication by each code in xs.

    Column j of matrix i is the coefficient vector of xs[i] * y^j, so
    matrix i times vec(z) is vec(xs[i] * z).  Built from the modulus alone,
    so it also serves the field's own table construction.
    """
    p, k = field.p, field.k
    red = -np.array(field.modulus[:k], dtype=np.int64) % p  # y^k = sum red[i] y^i
    col = digits(xs, p, k)
    cols = [col]
    for _ in range(k - 1):
        col = (np.pad(col[:, :-1], ((0, 0), (1, 0))) + col[:, -1:] * red) % p
        cols.append(col)
    return np.stack(cols, axis=2)


def _lexleast_irreducible(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible of degree k in ascending code order.

    Candidates are ordered by the integer encoding of their lower
    coefficients (c_0 + c_1 p + ...), which makes the choice reproducible
    byte for byte across runs and platforms.
    """
    from .polyring import is_irreducible, monic_polys

    prime = Field(p)
    for f in monic_polys(prime, k):
        if is_irreducible(prime, f):
            return f
    raise AssertionError(f"no irreducible polynomial of degree {k} over F_{p}")


class Field:
    """Arithmetic context for F_q, q = p^k.

    For k > 1 the field is F_p[y]/(modulus).  If no modulus is supplied the
    lexicographically least monic irreducible of degree k is generated, so
    enumeration outputs are deterministic.

    With m = q - 1 and Z = 2m standing for log 0, the tables are
      log_table[x]   log_g x in [0, m) for x != 0, and Z for x = 0;
      exp_table[i]   g^i for 0 <= i < 2m, and 0 for 2m <= i <= 4m, so
                     exp_table[log x + log y] = x*y for all x, y;
      zech_table[d]  log(1 + g^d), or Z when 1 + g^d = 0, periodic in d
                     with period m over 3m entries, so any d in (-m, 2m)
                     indexes it directly;
      neg_table[x]   -x.
    log_array, exp_array and neg_array hold the same values as numpy arrays,
    for the table builders that gather from them, and digit_array[x] is the
    int64 row of the k F_p coefficients of x that coeffs(x) returns.
    """

    __slots__ = (
        "p", "k", "q", "modulus",
        "log_table", "exp_table", "zech_table", "neg_table",
        "log_array", "exp_array", "neg_array", "digit_array",
    )

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
            from .polyring import is_irreducible

            mod = tuple(c % p for c in modulus)
            if len(mod) != k + 1 or mod[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {k}")
            if not is_irreducible(Field(p), mod):
                raise ValueError(f"modulus {list(mod)} is reducible over F_{p}")
            self.modulus = mod
        self._build_tables()

    # -- table construction ---------------------------------------------------

    def _powers(self, g: int) -> Optional[np.ndarray]:
        """g^0, ..., g^(q-2) by doubling, or None when g is not primitive.

        Each step multiplies the powers found so far by g^filled at once; g
        is primitive exactly when no power g^i with 0 < i < q - 1 is 1.
        """
        p, k, m = self.p, self.k, self.q - 1
        pw = p ** np.arange(k)
        exp = np.empty(m, dtype=np.int64)
        exp[0] = 1
        times, filled = mul_matrices(self, [g])[0], 1  # times multiplies by g^filled
        while filled < m:
            block = exp[: min(filled, m - filled)]
            new = digits(block, p, k) @ times.T % p @ pw
            if (new == 1).any():
                return None
            exp[filled : filled + len(new)] = new
            times = times @ times % p
            filled *= 2
        return exp

    def _build_tables(self) -> None:
        p, k, q = self.p, self.k, self.q
        m = q - 1
        exp = next(e for e in map(self._powers, range(1, q)) if e is not None)
        zero_log = 2 * m
        log = np.empty(q, dtype=np.int64)
        log[exp] = np.arange(m)
        log[0] = zero_log
        one_plus = exp - exp % p + (exp + 1) % p  # add 1 to the constant digit
        self.log_array = log
        self.exp_array = np.concatenate([exp, exp, np.zeros(2 * m + 1, np.int64)])
        self.digit_array = digits(np.arange(q), p, k)
        self.neg_array = -self.digit_array % p @ (p ** np.arange(k))
        for arr in (self.log_array, self.exp_array, self.neg_array, self.digit_array):
            arr.flags.writeable = False  # shared by every user of the field
        # Python lists for the scalar operations, which index one entry at a time
        self.log_table = log.tolist()
        self.exp_table = self.exp_array.tolist()
        self.zech_table = np.tile(log[one_plus], 3).tolist()
        self.neg_table = self.neg_array.tolist()

    # -- representation helpers --------------------------------------------

    def coeffs(self, x: int) -> tuple[int, ...]:
        """Coefficient vector of an element code, length k, ascending."""
        return tuple(self.digit_array[x].tolist())

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
        if not x:
            return y
        if not y:
            return x
        lx = self.log_table[x]
        return self.exp_table[lx + self.zech_table[self.log_table[y] - lx]]

    def neg(self, x: int) -> int:
        return self.neg_table[x]

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg_table[y])

    def mul(self, x: int, y: int) -> int:
        return self.exp_table[self.log_table[x] + self.log_table[y]]

    def pow(self, x: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(x), -e)
        if not x:
            return 0 if e else 1
        return self.exp_table[self.log_table[x] * e % (self.q - 1)]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ValueError("0 has no multiplicative inverse")
        return self.exp_table[self.q - 1 - self.log_table[x]]

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def frobenius(self, x: int, e: int) -> int:
        """Apply the p-power automorphism e times: x -> x^(p^e).

        This fixes the prime subfield, and e = k is the identity on the
        whole field.  Conjugation by q^m for q = p^k is frobenius(x, k*m).
        """
        if e < 0:
            raise ValueError("frobenius exponent must be >= 0")
        return self.pow(x, self.p**e)

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


@lru_cache(maxsize=None)
def default_field(p: int, k: int = 1) -> Field:
    """F_{p^k} with its default modulus, built once per (p, k).

    The splitting field of x^n - 1, the extension fields of the CRT
    constituents and F_{q^2} of the Hermitian count are all fields of this
    kind; building one costs O(p^k) table work, so they are shared.
    """
    return Field(p, k)


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

    Only defined for odd q.  Read off the log table: q - 1 is even, so
    x = g^L is a square exactly when L is even.
    """
    if field.q % 2 == 0:
        raise ValueError("quadratic character requires odd field order")
    if x == 0:
        return 0
    return -1 if field.log_table[x] % 2 else 1


class Embedding:
    """Field homomorphism F_{p^k} -> F_{p^K} fixing F_p, for k dividing K.

    The source modulus root goes to root, the first root of the source
    modulus in code order (0 for a prime source, whose modulus is empty), so
    embeddings are deterministic.  The map is F_p-linear: c_0 + c_1 y + ...
    goes to c_0 + c_1 root + ..., one product of the two fields' digit
    arrays.  fwd[x] is the image of x, and back[y] the preimage of y, or -1
    off the embedded subfield; both are read-only index arrays.
    """

    __slots__ = ("src", "dst", "fwd", "back", "root")

    def __init__(self, src: Field, dst: Field):
        from .polyring import first_root

        if src.p != dst.p:
            raise ValueError("embedding requires equal characteristic")
        if dst.k % src.k != 0:
            raise ValueError(f"F_{src.q} does not embed in F_{dst.q}")
        self.src = src
        self.dst = dst
        self.root = first_root(dst, src.modulus)
        powers = [dst.one]
        for _ in range(src.k - 1):
            powers.append(dst.mul(powers[-1], self.root))
        p = src.p
        self.fwd = src.digit_array @ dst.digit_array[powers] % p @ p ** np.arange(dst.k)
        self.back = np.full(dst.q, -1, dtype=np.int64)
        self.back[self.fwd] = np.arange(src.q)
        for arr in (self.fwd, self.back):
            arr.flags.writeable = False  # shared through embedding()

    def apply(self, x: int) -> int:
        return int(self.fwd[x])

    def preimage(self, y: int) -> int:
        x = int(self.back[y]) if 0 <= y < self.dst.q else -1
        if x < 0:
            raise ValueError(f"element {y} is not in the embedded subfield")
        return x


@lru_cache(maxsize=None)
def embedding(src: Field, dst: Field) -> Embedding:
    """The Embedding of src in dst, built once per pair of fields.

    Building one costs O(|src| * k) work and memory; the factorization of
    x^n - 1 and the CRT constituents use the same ones.
    """
    return Embedding(src, dst)
