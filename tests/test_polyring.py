import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fourcirc.fields import Field
from fourcirc.polyring import (
    QuotientRing,
    cyclotomic_cosets,
    factor_xn_minus_1,
    is_irreducible,
    is_primitive_root,
    is_two_factor_case,
    monic_polys,
    monic_reciprocal,
    multiplicative_order,
    poly_divmod,
    poly_eval,
    poly_ext_gcd,
    poly_gcd,
    poly_mul,
    poly_trim,
)

F2, F3, F4, F5 = Field(2), Field(3), Field(2, 2), Field(5)


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


def test_divmod_round_trip():
    from fourcirc.polyring import poly_add

    cases = [(F2, 5, (1, 1)), (F3, 4, (2, 1, 1)), (F5, 3, (1, 2))]
    for field, deg, g in cases:
        for fi in range(field.q**deg):
            f = poly_trim([fi // field.q**j % field.q for j in range(deg)])
            quot, rem = poly_divmod(field, f, g)
            assert len(rem) < len(g)
            assert poly_add(field, poly_mul(field, quot, g), rem) == f


def test_gcd_matches_brute_force():
    for field in (F2, F3):
        polys = [poly_trim([c // field.q**j % field.q for j in range(3)]) for c in range(field.q**3)]
        for f in polys[: field.q**2]:
            for g in polys[: field.q**2]:
                if not f and not g:
                    continue
                assert poly_gcd(field, f, g) == brute_gcd(field, f, g)


def test_ext_gcd_bezout():
    from fourcirc.polyring import poly_add

    for field in (F2, F3, F5):
        for fc in range(1, field.q**3):
            f = poly_trim([fc // field.q**j % field.q for j in range(3)])
            g = (field.neg(1), 0, 0, 1)  # x^3 - 1
            d, s, t = poly_ext_gcd(field, f, g)
            assert poly_add(field, poly_mul(field, s, f), poly_mul(field, t, g)) == d
            assert d == poly_gcd(field, f, g)


def test_monic_reciprocal():
    # x^2 + x + 1 is its own reciprocal
    assert monic_reciprocal(F2, (1, 1, 1)) == (1, 1, 1)
    # over F_3: reciprocal of x^2 + 1 is itself, reciprocal of x + 2 is x + 2^-1... = x+2
    assert monic_reciprocal(F3, (1, 0, 1)) == (1, 0, 1)
    # a genuinely non-self-reciprocal example over F_3: x^2 + x + 2
    rec = monic_reciprocal(F3, (2, 1, 1))
    assert rec != (2, 1, 1)
    assert monic_reciprocal(F3, rec) == (2, 1, 1)
    with pytest.raises(ValueError):
        monic_reciprocal(F2, (0, 1))


def test_is_irreducible():
    assert is_irreducible(F2, (1, 1, 1))
    assert not is_irreducible(F2, (1, 0, 1))  # (x+1)^2
    assert is_irreducible(F3, (1, 0, 1))  # x^2 + 1 has no root mod 3
    assert not is_irreducible(F3, (2, 0, 1))  # x^2 - 1
    assert is_irreducible(F2, (1, 1))
    assert not is_irreducible(F2, (1,))


# -- quotient ring ----------------------------------------------------------

def test_reciprocal_examples():
    R = QuotientRing(F2, 3)
    assert R.reciprocal((0, 1, 0)) == (0, 0, 1)  # x -> x^2
    assert R.reciprocal((1, 0, 0)) == (1, 0, 0)  # constants fixed
    assert R.reciprocal((1, 1, 0)) == (1, 0, 1)  # 1 + x -> 1 + x^2


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=16),
    st.sampled_from([2, 3, 4, 5]),
    st.data(),
)
def test_reciprocal_involution_and_homomorphism(n, q, data):
    field = {2: F2, 3: F3, 4: F4, 5: F5}[q]
    R = QuotientRing(field, n)
    u = tuple(data.draw(st.integers(0, q - 1)) for _ in range(n))
    v = tuple(data.draw(st.integers(0, q - 1)) for _ in range(n))
    assert R.reciprocal(R.reciprocal(u)) == u
    assert R.reciprocal(R.mul(u, v)) == R.mul(R.reciprocal(u), R.reciprocal(v))
    assert R.reciprocal(R.add(u, v)) == R.add(R.reciprocal(u), R.reciprocal(v))


def test_ring_mul_examples():
    R = QuotientRing(F2, 3)
    assert R.mul((0, 1, 0), (0, 0, 1)) == (1, 0, 0)  # x * x^2 = 1
    assert poly_gcd(F2, (1, 0, 0, 1), (1, 1)) == (1, 1)  # gcd(x^3 - 1, x - 1) over F_2
    R5 = QuotientRing(F2, 5)
    assert R5.is_unit((0, 1, 0, 0, 0))  # gcd(x, x^5 - 1) = 1


def test_ring_inverse():
    for field, n in [(F2, 5), (F3, 4), (F5, 3)]:
        R = QuotientRing(field, n)
        units = 0
        for i in range(R.size):
            u = R.element(i)
            if R.is_unit(u):
                units += 1
                assert R.mul(u, R.inv(u)) == R.one
            else:
                with pytest.raises(ValueError):
                    R.inv(u)
        assert units > 0


def test_ring_index_round_trip():
    R = QuotientRing(F3, 4)
    for i in range(R.size):
        assert R.index(R.element(i)) == i


def test_ring_tables_agree_with_ops():
    cases = [(F2, 4), (F3, 3), (F4, 2), (F4, 4), (Field(2, 3), 2), (Field(3, 2), 2)]
    for field, n in cases:
        R = QuotientRing(field, n)
        t = R.tables()
        assert t is not None
        elems = [R.element(i) for i in range(R.size)]
        assert t.neg.tolist() == [R.index(R.neg(u)) for u in elems]
        assert t.recip.tolist() == [R.index(R.reciprocal(u)) for u in elems]
        assert t.weight.tolist() == [R.weight(u) for u in elems]
        for i, u in enumerate(elems):
            assert t.mul[i].tolist() == [R.index(R.mul(u, v)) for v in elems], (field.q, n, i)
            assert t.add[i].tolist() == [R.index(R.add(u, v)) for v in elems], (field.q, n, i)


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


@pytest.mark.parametrize("p,n", [(2, 10), (3, 6)])
def test_ring_tables_match_einsum_reference(p, n):
    t = QuotientRing(Field(p), n).tables()
    for name, expected in einsum_prime_tables(p, n).items():
        assert np.array_equal(getattr(t, name), expected), name


# -- orders and cosets ---------------------------------------------------------

def test_multiplicative_order():
    assert multiplicative_order(2, 3) == 2
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 5) == 4
    assert multiplicative_order(2, 1) == 1
    with pytest.raises(ValueError):
        multiplicative_order(3, 9)


def test_is_primitive_root_examples():
    assert is_primitive_root(2, 3)
    assert not is_primitive_root(2, 7)  # order 3 < 6
    assert is_primitive_root(3, 5)  # powers 3, 4, 2, 1
    assert not is_primitive_root(3, 9)


def test_cyclotomic_cosets():
    assert cyclotomic_cosets(2, 3) == [[0], [1, 2]]
    assert cyclotomic_cosets(2, 5) == [[0], [1, 2, 3, 4]]
    assert cyclotomic_cosets(2, 7) == [[0], [1, 2, 4], [3, 5, 6]]
    assert cyclotomic_cosets(3, 7) == [[0], [1, 2, 3, 4, 5, 6]]
    with pytest.raises(ValueError):
        cyclotomic_cosets(3, 6)


def test_two_factor_case_matches_primitive_root():
    for field in (F2, F3, F5):
        for n in (3, 5, 7, 11):
            if math.gcd(n, field.q) != 1:
                continue
            assert is_two_factor_case(field, n) == is_primitive_root(field.q, n)


# -- factorization ----------------------------------------------------------------

def expand(field, factors):
    prod = (field.one,)
    for g in factors:
        prod = poly_mul(field, prod, g)
    return prod


def test_factor_examples():
    # n=7, q=3: (x - 1)(x^6 + ... + 1)
    fact = factor_xn_minus_1(F3, 7)
    assert fact.self_reciprocal == ((2, 1), (1, 1, 1, 1, 1, 1, 1))
    assert fact.pairs == ()
    # n=3, q=2: (x + 1)(x^2 + x + 1)
    fact = factor_xn_minus_1(F2, 3)
    assert fact.self_reciprocal == ((1, 1), (1, 1, 1))
    # n=5, q=2: (x + 1)(x^4 + x^3 + x^2 + x + 1)
    fact = factor_xn_minus_1(F2, 5)
    assert fact.self_reciprocal == ((1, 1), (1, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        factor_xn_minus_1(F3, 6)


def test_factorization_properties():
    cases = [
        (F2, [1, 3, 5, 7, 9, 11, 15]),
        (F3, [1, 2, 4, 5, 7, 8, 10]),
        (F4, [3, 5, 7, 9]),
        (F5, [2, 3, 4, 6, 7, 8]),
        (Field(3, 2), [2, 4, 5, 7]),
    ]
    for field, lengths in cases:
        for n in lengths:
            fact = factor_xn_minus_1(field, n)
            factors = [g for g, _ in fact.factors()]
            # re-expansion is exact
            expected = poly_trim([field.neg(1)] + [0] * (n - 1) + [1])
            assert expand(field, factors) == expected
            # count matches cosets
            assert len(factors) == len(fact.cosets)
            # distinctness
            assert len(set(factors)) == len(factors)
            # classification
            for g in fact.self_reciprocal:
                assert monic_reciprocal(field, g) == g
            for h, hstar in fact.pairs:
                assert h != hstar
                assert monic_reciprocal(field, h) == hstar
                assert h < hstar
            # irreducibility, exhaustive trial division up to degree 6
            for g in factors:
                if len(g) - 1 <= 6:
                    assert is_irreducible(field, g)
                if len(g) - 1 > 1:
                    for x in field.elements():
                        assert poly_eval(field, g, x) != 0
