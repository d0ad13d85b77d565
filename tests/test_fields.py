from functools import reduce

import numpy as np
import pytest

from fourcirc.fields import Embedding, Field, field_of_order, field_sum, is_prime, power_text, quad_char

from oracles import SchoolbookField


def test_power_text_writes_digits_or_powers():
    assert power_text(2, 32) == "4294967296"
    assert power_text(7, 5, 49) == str(49 * 7**5)
    assert power_text(10, 29) == str(10**29)  # 30 digits
    assert power_text(10, 30) == "10^30"
    assert power_text(2, 200000) == "2^200000"
    assert power_text(3, 5000, 100) == "100*3^5000"


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


@pytest.mark.parametrize(
    "F",
    [Field(3), Field(5), Field(7), Field(11), Field(13), Field(3, 2), Field(131), Field(257)],
    ids=lambda F: f"q{F.q}",
)
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


@pytest.mark.parametrize(
    "F", [Field(2, 3), Field(3), Field(3, 2), Field(11, 2), Field(131), Field(257)],
    ids=lambda F: f"q{F.q}",
)
def test_field_sum_matches_add(F):
    rng = np.random.default_rng(F.q)
    codes = rng.integers(0, F.q, size=(64, 5))
    assert field_sum(F, codes, 1).tolist() == [reduce(F.add, row) for row in codes.tolist()]
    assert field_sum(F, codes, 0).tolist() == [reduce(F.add, col) for col in codes.T.tolist()]
    # F_p digits above 127 must not wrap: over F_257, 200 + 0 is 200
    x = min(200, F.q - 1)
    assert field_sum(F, np.array([x, 0]), 0) == x


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
    # F_121 -> F_(11^4) sums products of F_11 digits past 127
    for src, dst in [(F4, F16), (Field(11, 2), Field(11, 4))]:
        emb = Embedding(src, dst)
        # ring homomorphism, exhaustively
        for x in src.elements():
            assert emb.preimage(emb.apply(x)) == x
            for y in src.elements():
                assert emb.apply(src.add(x, y)) == dst.add(emb.apply(x), emb.apply(y))
                assert emb.apply(src.mul(x, y)) == dst.mul(emb.apply(x), emb.apply(y))
        # image elements are exactly the solutions of z^|src| = z
        image = {emb.apply(x) for x in src.elements()}
        assert image == {z for z in dst.elements() if dst.pow(z, src.q) == z}
        # preimage refuses every element off the subfield, and codes outside dst
        for y in [z for z in dst.elements() if z not in image][:50] + [-1, dst.q]:
            with pytest.raises(ValueError):
                emb.preimage(y)
    with pytest.raises(ValueError):
        Embedding(F4, Field(2, 3))
    with pytest.raises(ValueError):
        Embedding(Field(3), F16)
