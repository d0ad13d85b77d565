from functools import reduce

import numpy as np
import pytest

from fourcirc import polyring
from fourcirc.fields import Embedding, Field, field_of_order, field_sum, inverse_matrices, is_prime, power_text, quad_char

from oracles import SchoolbookField, first_root_scan, least_irreducible_scan, least_primitive_scan, rref


def test_power_text_writes_digits_or_powers():
    assert power_text(2, 32) == "4294967296"
    assert power_text(7, 5, 49) == str(49 * 7**5)
    assert power_text(10, 29) == str(10**29)  # 30 digits
    assert power_text(10, 30) == "10^30"
    assert power_text(2, 200000) == "2^200000"
    assert power_text(3, 5000, 100) == "100*3^5000"


def _prime_powers(limit):
    return [(p, k) for p in range(2, limit + 1) if is_prime(p) for k in range(1, limit.bit_length()) if p**k <= limit]

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


@pytest.mark.parametrize(
    "p,k", [(p, k) for p, k in _prime_powers(1 << 12) if k > 1] + [(2, 16), (3, 8), (3, 10), (5, 6), (251, 2)],
    ids=lambda v: str(v),
)
def test_default_modulus_is_least_irreducible(p, k):
    assert Field(p, k).modulus == least_irreducible_scan(p, k)


@pytest.mark.parametrize("p,k", [(2, 8), (2, 11), (3, 8), (5, 4), (7, 2)])
def test_candidates_with_root_zero_or_one_skip_rabin(p, k, monkeypatch):
    # x or x - 1 divides them, so they are reducible at degree k >= 2
    tested = []
    rabin = polyring.is_irreducible

    def counted(field, f):
        tested.append(f)
        return rabin(field, f)

    monkeypatch.setattr(polyring, "is_irreducible", counted)
    Field(p, k)
    assert tested and all(f[0] and sum(f) % p for f in tested)


@pytest.mark.parametrize("p", [2, 3, 7, 251, 65521])
def test_inverse_matrices_in_a_mixed_batch(p):
    # random 5 x 5 matrices, a third made singular (row 4 a combination of
    # rows 0 and 1), and permutation matrices that need a pivot search
    rng = np.random.default_rng(p)
    mats = rng.integers(0, p, (45, 5, 5))
    mats[::3, 4] = (mats[::3, 0] + 2 * mats[::3, 1]) % p
    mats[1::9] = np.eye(5, dtype=np.int64)[[3, 0, 4, 1, 2]] * rng.integers(1, p, (5, 1))
    F = Field(p)
    inverses, invertible = inverse_matrices(F, mats)
    ranks = [sum(any(row) for row in rref(F, m.tolist())) for m in mats]
    assert invertible.tolist() == [rank == 5 for rank in ranks]
    assert 0 < invertible.sum() < len(mats) and inverses.dtype == np.int64
    for m, inverse in zip(mats[invertible], inverses[invertible]):
        np.testing.assert_array_equal(m @ inverse % p, np.eye(5, dtype=np.int64))
    assert inverse_matrices(F, mats[:0])[0].shape == (0, 5, 5)


@pytest.mark.parametrize(
    "p,k", _prime_powers(256) + [(p, k) for p, k in _prime_powers(1 << 12) if k > 1 and p**k > 256],
    ids=lambda v: str(v),
)
def test_generator_is_least_primitive(p, k):
    # the base of the tables is g = exp_table[1]
    F = Field(p, k)
    assert F.exp_table[1] == least_primitive_scan(SchoolbookField(p, k, F.modulus))


@pytest.mark.parametrize("p,k", [(3, 10), (251, 2)])
def test_one_doubling_run_per_field(p, k, monkeypatch):
    # the least primitive element is 34 in F_(3^10) and 256 in F_(251^2)
    calls = []
    powers = Field._powers

    def counted(self, g):
        calls.append(g)
        return powers(self, g)

    monkeypatch.setattr(Field, "_powers", counted)
    F = Field(p, k)
    assert calls == [F.exp_table[1]] == [{3: 34, 251: 256}[p]]


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


def test_embedding_root_is_the_first_root_in_code_order():
    # one Horner pass over every element finds the least root, as a scan of
    # poly_eval does: the pairs above, two more, and F_q in F_(q^d) for the
    # degrees d of the factors of x^n - 1 that the CRT oracles embed
    pairs = [(Field(2), Field(2, 4)), (Field(2, 2), Field(2, 4)), (Field(11, 2), Field(11, 4)),
             (Field(2, 3), Field(2, 6)), (Field(5, 2), Field(5, 4))]
    for base, n in [(Field(2), 23), (Field(2), 89), (Field(2, 2), 5)]:
        for d in {len(g) - 1 for g, _ in polyring.factor_xn_minus_1(base, n).factors()}:
            pairs.append((base, Field(base.p, base.k * d)))
    for src, dst in pairs:
        assert Embedding(src, dst).root == first_root_scan(dst, src.modulus), (src, dst)
