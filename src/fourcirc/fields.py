"""Exact arithmetic in small finite fields F_q with q = p^k.

An element of F_{p^k} is stored as an integer code in [0, q): the element
with coefficient vector (c_0, ..., c_{k-1}) over F_p, ascending in powers
of the modulus root, has code sum(c_j * p**j).  Prime-field elements are
their own residues.

Every field, prime or not, computes through the same tables, built once at
construction: logarithms and antilogarithms to the base g, the least
primitive element in code order (certified by the order test g^((q-1)/r)
!= 1 for every prime r dividing q - 1), Zech logarithms log(1 + g^d) for
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


def prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


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
    cols = [digits(xs, p, k)]
    for _ in range(k - 1):
        col = cols[-1][:, -1:] * red  # y times the previous column
        col[:, 1:] += cols[-1][:, :-1]
        cols.append(col % p)
    return np.stack(cols, axis=2)


def inverse_matrices(field: "Field", mats) -> tuple[np.ndarray, np.ndarray]:
    """(inverses, invertible) over F_p of a stack of square integer
    matrices (N, m, m), taken mod p, by Gauss-Jordan elimination on [M | I]
    for all N at once: inverses[i] (int64) is meaningful where
    invertible[i].  Pivots are inverted through the field's log/exp tables,
    as codes below p are F_p, and at column c only columns c and up of
    [M | I] still change.  A zero pivot has inverse 0, so its row stays
    zero and the diagonal of M's side ends 1 exactly where M is invertible.
    """
    p, q, (count, m, _) = field.p, field.q, np.shape(mats)
    inverse = field.exp_array[q - 1 - field.log_array[:p]]  # and 0 at 0, whose index q - 1 - 2(q - 1) wraps to a 0
    work = np.zeros((count, m, 2 * m), dtype=np.min_scalar_type(p * (p - 1)))
    work[:, :, :m], work[:, :, m:] = np.asarray(mats) % p, np.eye(m, dtype=work.dtype)
    at = np.arange(count)
    for c in range(m):
        pivot = c + np.argmax(work[:, c:, c] != 0, axis=1)  # the first row at or below c with a nonzero in column c
        top = work[at, pivot, c:]
        work[at, pivot, c:] = work[:, c, c:]
        work[:, c, c:] = top * inverse[top[:, :1]] % p
        factor = (p - work[:, :, c : c + 1]) % p  # clears column c
        factor[:, c] = 0
        work[:, :, c:] = (work[:, :, c:] + factor * work[:, c : c + 1, c:]) % p
    return work[:, :, m:].astype(np.int64), work[:, :, :m].diagonal(axis1=1, axis2=2).all(axis=1)


def _lexleast_irreducible(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible of degree k >= 2 in ascending code order.

    Candidates are ordered by the integer encoding of their lower
    coefficients (c_0 + c_1 p + ...), which makes the choice reproducible
    byte for byte across runs and platforms.  Those with the root 0 (c_0 =
    0) or 1 (coefficient sum 0 mod p) are passed over before Rabin's test.
    """
    from .polyring import is_irreducible

    prime = default_field(p)
    for c in range(p**k):
        f = tuple(c // p**j % p for j in range(k)) + (1,)
        if f[0] and sum(f) % p and is_irreducible(prime, f):
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
            if not is_irreducible(default_field(p), mod):
                raise ValueError(f"modulus {list(mod)} is reducible over F_{p}")
            self.modulus = mod
        self._build_tables()

    # -- table construction ---------------------------------------------------

    def _least_generator(self) -> int:
        """The least code g of multiplicative order q - 1.

        g is primitive exactly when g^((q-1)/r) != 1 for every prime r
        dividing q - 1 (Lidl and Niederreiter, Finite Fields, ch. 3).  Codes
        below p form F_p, whose orders divide p - 1, so for k > 1 the
        candidates start at p; for k = 1 they start at 2 (F_2 has g = 1).
        They are tested in blocks of doubling length by square-and-multiply
        on their multiplication matrices: at bit i, square multiplies by
        g^(2^i), its column 0 holds the digits of g^(2^i), and the digits of
        g^e are a product of such matrices applied to that column.
        """
        p, k, q = self.p, self.k, self.q
        exps = [(q - 1) // r for r in prime_divisors(q - 1)]
        if not exps:  # F_2, where 1 has order q - 1 = 1
            return 1
        place = p ** np.arange(k)  # an element's code is its digits @ place
        lo = p if k > 1 else 2
        while lo < q:
            block = np.arange(lo, min(2 * lo, q))
            square = mul_matrices(self, block)
            power = {}  # e -> digit columns of g^(the bits of e below i)
            for i in range(max(exps).bit_length()):
                if i:
                    square = square @ square % p
                for e in exps:
                    if e >> i & 1:
                        power[e] = square @ power[e] % p if e in power else square[:, :, :1]
            primitive = np.flatnonzero(np.all([col[:, :, 0] @ place != 1 for col in power.values()], axis=0))
            if len(primitive):
                return lo + int(primitive[0])
            lo *= 2
        raise AssertionError(f"no primitive element in F_{q}")

    def _powers(self, g: int) -> tuple[np.ndarray, np.ndarray]:
        """The codes and the F_p digit rows of g^0, ..., g^(q-2) for a
        primitive g, by doubling.

        Each step multiplies the rows found so far by g^filled at once.
        """
        p, k, m = self.p, self.k, self.q - 1
        rows = np.zeros((m, k), dtype=np.int64)
        rows[0, 0] = 1
        times, filled = mul_matrices(self, [g])[0], 1  # times multiplies by g^filled
        while filled < m:
            step = min(filled, m - filled)
            rows[filled : filled + step] = rows[:step] @ times.T % p
            times = times @ times % p
            filled *= 2
        exp = rows @ p ** np.arange(k)
        assert not (exp[1:] == 1).any(), f"{g} is not primitive in F_{self.q}"
        return exp, rows

    def _build_tables(self) -> None:
        p, k, q = self.p, self.k, self.q
        m = q - 1
        exp, rows = self._powers(self._least_generator())
        zero_log = 2 * m
        log = np.empty(q, dtype=np.int64)
        log[exp] = np.arange(m)
        log[0] = zero_log
        one_plus = exp - exp % p + (exp + 1) % p  # add 1 to the constant digit
        self.log_array = log
        self.exp_array = np.concatenate([exp, exp, np.zeros(2 * m + 1, np.int64)])
        self.digit_array = np.zeros((q, k), dtype=np.int64)
        self.digit_array[exp] = rows
        half = m // 2 if p > 2 else 0  # -1 is g^(m/2) for odd p, and 1 = g^0 for p = 2
        self.neg_array = self.exp_array[log + half]
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

    F_{q^2} of the Hermitian count and the prime fields behind Rabin's test
    on candidate moduli are fields of this kind; building one costs O(p^k)
    table work, so they are shared.  Factoring x^n - 1 and the CRT work
    over F_q alone and build none.
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
    embeddings are deterministic.  The root comes from one Horner pass over
    every element of the destination at once, a log/exp gather and a field
    sum per coefficient.  The map is F_p-linear: c_0 + c_1 y + ... goes to
    c_0 + c_1 root + ..., one product of the two fields' digit arrays.
    fwd[x] is the image of x, and back[y] the preimage of y, or -1 off the
    embedded subfield; both are read-only index arrays.  Building one costs
    O(|dst| k) work and memory.

    No library path embeds a field.  The class stays for two outside
    readers: perfbench/traced.py times field construction by rebinding
    Embedding.__init__, and the splitting-field oracles of tests/oracles.py
    embed F_q in F_(q^d).
    """

    __slots__ = ("src", "dst", "fwd", "back", "root")

    def __init__(self, src: Field, dst: Field):
        if src.p != dst.p:
            raise ValueError("embedding requires equal characteristic")
        if dst.k % src.k != 0:
            raise ValueError(f"F_{src.q} does not embed in F_{dst.q}")
        self.src = src
        self.dst = dst
        log, exp = dst.log_array, dst.exp_array
        values = np.zeros(dst.q, dtype=np.int64)  # values[z]: the source modulus at z, so far
        for c in reversed(src.modulus):
            values = field_sum(dst, np.stack([exp[log[values] + log], np.full(dst.q, c)]), 0)
        self.root = int(np.argmax(values == 0))
        powers = [dst.one]
        for _ in range(src.k - 1):
            powers.append(dst.mul(powers[-1], self.root))
        p = src.p
        self.fwd = src.digit_array @ dst.digit_array[powers] % p @ p ** np.arange(dst.k)
        self.back = np.full(dst.q, -1, dtype=np.int64)
        self.back[self.fwd] = np.arange(src.q)
        for arr in (self.fwd, self.back):
            arr.flags.writeable = False

    def apply(self, x: int) -> int:
        return int(self.fwd[x])

    def preimage(self, y: int) -> int:
        x = int(self.back[y]) if 0 <= y < self.dst.q else -1
        if x < 0:
            raise ValueError(f"element {y} is not in the embedded subfield")
        return x
