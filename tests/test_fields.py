import pytest

from fourcirc.fields import Embedding, Field, field_of_order, is_prime, quad_char


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


def _prime_powers(limit):
    return [(p, k) for p in range(2, limit + 1) if is_prime(p) for k in range(1, 9) if p**k <= limit]

SMALL_FIELDS = [
    Field(2),
    Field(3),
    Field(5),
    Field(7),
    Field(2, 2),
    Field(2, 3),
    Field(3, 2),
]

LARGER_FIELDS = [Field(2, 4), Field(5, 2), Field(7, 2)]


def test_prime_checks():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)


def test_construction_errors():
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(6)
    with pytest.raises(ValueError):
        Field(2, 0)
    with pytest.raises(ValueError):
        Field(2, 2, (1, 0, 1))  # y^2 + 1 = (y+1)^2 over F_2
    with pytest.raises(ValueError):
        Field(2, 2, (1, 1))  # wrong degree
    with pytest.raises(ValueError):
        Field(2, 17)  # order above the cap


def test_deterministic_modulus():
    # the unique monic irreducible quadratic over F_2
    assert Field(2, 2).modulus == (1, 1, 1)
    # least cubic over F_2 is y^3 + y + 1
    assert Field(2, 3).modulus == (1, 1, 0, 1)
    # least quartic over F_2 is y^4 + y + 1
    assert Field(2, 4).modulus == (1, 1, 0, 0, 1)
    # least quadratic over F_3 is y^2 + 1
    assert Field(3, 2).modulus == (1, 0, 1)


@pytest.mark.parametrize("p,k", _prime_powers(256), ids=lambda v: str(v))
def test_tables_match_schoolbook_reference(p, k):
    # every pair of elements, for every q <= 256
    F = Field(p, k)
    ref = SchoolbookField(p, k, F.modulus)
    els = list(F.elements())
    assert [F.neg(x) for x in els] == [ref.neg(x) for x in els]
    assert [F.inv(x) for x in els[1:]] == [ref.pow(x, F.q - 2) for x in els[1:]]
    assert [F.frobenius(x, 1) for x in els] == [ref.pow(x, p) for x in els]
    for x in els:
        assert [F.add(x, y) for y in els] == [ref.add(x, y) for y in els]
        assert [F.mul(x, y) for y in els] == [ref.mul(x, y) for y in els]


def test_code_coeff_round_trip():
    for F in SMALL_FIELDS:
        for x in F.elements():
            assert F.element(F.coeffs(x)) == x


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=lambda F: f"q{F.q}")
def test_field_axioms_exhaustive(F):
    els = list(F.elements())
    for x in els:
        assert F.add(x, 0) == x
        assert F.mul(x, 1) == x
        assert F.add(x, F.neg(x)) == 0
        if x:
            assert F.mul(x, F.inv(x)) == 1
        for y in els:
            assert F.add(x, y) == F.add(y, x)
            assert F.mul(x, y) == F.mul(y, x)
            for z in els:
                assert F.add(F.add(x, y), z) == F.add(x, F.add(y, z))
                assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))
                assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))


@pytest.mark.parametrize("F", LARGER_FIELDS, ids=lambda F: f"q{F.q}")
def test_field_axioms_pairwise(F):
    els = list(F.elements())
    for x in els:
        if x:
            assert F.mul(x, F.inv(x)) == 1
        for y in els:
            assert F.add(x, y) == F.add(y, x)
            assert F.mul(x, y) == F.mul(y, x)
            assert F.sub(F.add(x, y), y) == x
            if y:
                assert F.mul(F.div(x, y), y) == x


def test_pow_and_order():
    for F in SMALL_FIELDS:
        for x in F.elements():
            if x:
                assert F.pow(x, F.q - 1) == 1
            assert F.pow(x, 0) == 1
            assert F.pow(x, 2) == F.mul(x, x)


def test_quad_char_examples():
    F3, F5 = Field(3), Field(5)
    assert quad_char(F3, 1) == 1
    assert quad_char(F3, 2) == -1  # squares of F_3 are {0, 1}
    assert quad_char(F5, 4) == 1  # 2^2 = 4
    assert quad_char(F3, 0) == 0
    with pytest.raises(ValueError):
        quad_char(Field(2), 1)
    with pytest.raises(ValueError):
        quad_char(Field(2, 2), 1)


@pytest.mark.parametrize("F", [Field(3), Field(5), Field(7), Field(11), Field(13), Field(3, 2)],
                         ids=lambda F: f"q{F.q}")
def test_quad_char_against_square_sets(F):
    squares = {F.mul(x, x) for x in F.elements() if x}
    plus = 0
    for x in F.elements():
        if x == 0:
            assert quad_char(F, x) == 0
        elif x in squares:
            assert quad_char(F, x) == 1
            plus += 1
        else:
            assert quad_char(F, x) == -1
    assert plus == (F.q - 1) // 2
    # multiplicativity on nonzero arguments
    for x in F.elements():
        for y in F.elements():
            if x and y:
                assert quad_char(F, F.mul(x, y)) == quad_char(F, x) * quad_char(F, y)


def test_frobenius():
    F4 = Field(2, 2)
    omega = F4.element((0, 1))
    assert F4.frobenius(omega, 1) == F4.add(omega, 1)  # omega^2 = omega + 1
    assert F4.frobenius(0, 3) == 0
    for F in [Field(3), Field(7)]:
        for x in F.elements():
            assert F.frobenius(x, 1) == x  # Fermat
    for F in [Field(2, 3), Field(3, 2)]:
        for x in F.elements():
            assert F.frobenius(x, F.k) == x
            for y in F.elements():
                assert F.frobenius(F.add(x, y), 1) == F.add(F.frobenius(x, 1), F.frobenius(y, 1))
                assert F.frobenius(F.mul(x, y), 1) == F.mul(F.frobenius(x, 1), F.frobenius(y, 1))


def test_field_of_order():
    assert field_of_order(9).p == 3 and field_of_order(9).k == 2
    assert field_of_order(8).q == 8
    assert field_of_order(7).k == 1
    with pytest.raises(ValueError):
        field_of_order(12)
    with pytest.raises(ValueError):
        field_of_order(1)


def test_embedding_prime_subfield():
    F2, F16 = Field(2), Field(2, 4)
    emb = Embedding(F2, F16)
    assert emb.apply(1) == 1
    assert emb.preimage(1) == 1
    with pytest.raises(ValueError):
        emb.preimage(5)


def test_embedding_proper_subfield():
    F4, F16 = Field(2, 2), Field(2, 4)
    emb = Embedding(F4, F16)
    # ring homomorphism, exhaustively
    for x in F4.elements():
        assert emb.preimage(emb.apply(x)) == x
        for y in F4.elements():
            assert emb.apply(F4.add(x, y)) == F16.add(emb.apply(x), emb.apply(y))
            assert emb.apply(F4.mul(x, y)) == F16.mul(emb.apply(x), emb.apply(y))
    # image elements are exactly the solutions of z^4 = z
    image = {emb.apply(x) for x in F4.elements()}
    assert image == {z for z in F16.elements() if F16.pow(z, 4) == z}
    with pytest.raises(ValueError):
        Embedding(F4, Field(2, 3))
    with pytest.raises(ValueError):
        Embedding(Field(3), F16)
