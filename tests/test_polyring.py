import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fourcirc import codes, polyring
from fourcirc.fields import Field, field_of_order, inverse_matrices
from fourcirc.polyring import (
    QuotientRing,
    _check_expansion,
    cyclotomic_cosets,
    factor_xn_minus_1,
    is_irreducible,
    is_primitive_root,
    monic_reciprocal,
    multiplicative_order,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_trim,
    times_matrices,
)

from helpers import largest_table
from oracles import (
    brute_gcd,
    einsum_prime_tables,
    gcd_is_unit,
    irreducible_scan,
    monic_polys,
    order_scan,
    is_two_factor_case,
    poly_eval,
    primitive_root_of_unity,
    root_of_unity_scan,
    self_duality_scan,
    splitting_field_factors,
    sum_weight_table,
    times_matrix_scan,
)

F2, F3, F4, F5 = Field(2), Field(3), Field(2, 2), Field(5)


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


@pytest.mark.parametrize("field,top", [(F2, 6), (F3, 6), (F5, 6), (Field(7), 4), (F4, 3)], ids=lambda v: str(v))
def test_is_irreducible_matches_trial_division(field, top):
    # Rabin's test against trial division, every monic polynomial of degree <= top
    for d in range(top + 1):
        for f in monic_polys(field, d):
            assert is_irreducible(field, f) == irreducible_scan(field, f), f


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


INVERSE_POINTS = [(F2, 4), (F2, 5), (F2, 6), (F3, 4), (F3, 6), (F5, 3), (F4, 3), (Field(2, 3), 2), (Field(3, 2), 2)]


@pytest.mark.parametrize("field,n", INVERSE_POINTS, ids=lambda v: str(v))
def test_units_and_inverses_match_gcd(field, n):
    # the elimination on multiplication matrices, batched and one element at
    # a time, against one Euclidean gcd with x^n - 1 per residue; p divides
    # n at (2, 4), (2, 6) and (3, 6), where x^n - 1 has repeated factors
    R = QuotientRing(field, n)
    elems = list(R.elements())
    want = [gcd_is_unit(R, u) for u in elems]
    assert inverse_matrices(field, times_matrices(field, elems))[1].tolist() == want
    for u, unit in zip(elems, want):
        assert R.is_unit(u) == unit
        if unit:
            assert R.mul(u, R.inv(u)) == R.one
        else:
            with pytest.raises(ValueError, match="not a unit"):
                R.inv(u)
    assert 0 < sum(want) < R.size


@pytest.mark.parametrize("field", [F2, F3, F4, Field(2, 3), Field(3, 2)], ids=str)
def test_times_matrices_match_schoolbook(field):
    rng = np.random.default_rng(field.q)
    for shape in [(5,), (3, 4), (2, 2, 7)]:
        coeffs = rng.integers(0, field.q, shape)
        got = times_matrices(field, coeffs)
        assert got.shape == shape[:-1] + (shape[-1] * field.k,) * 2
        for at in np.ndindex(shape[:-1]):
            np.testing.assert_array_equal(got[at], times_matrix_scan(field, coeffs[at].tolist()))


def test_norm_temporaries_stay_within_blocks():
    # (3, 11): Q = 177,147 residues, six blocks; u*u' over all residues at
    # once peaked at about 61 MB traced, four Q x n int64 temporaries
    t = polyring.RingTables(QuotientRing(F3, 11))
    tracemalloc.start()
    try:
        norm = t.norm
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < norm.nbytes + 6 * polyring.NORM_BLOCK * 11 * 8, peak / 2**20


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_norm_blocks_keep_values(monkeypatch, block):
    # blocks that split the residues anywhere give u*u' of every residue
    cases = [(F3, 5), (F2, 7), (F4, 4)]
    monkeypatch.setattr(polyring, "NORM_BLOCK", block)
    for field, n in cases:
        ring = QuotientRing(field, n)
        assert polyring.RingTables(ring).norm.tolist() == self_duality_scan(ring)[0], (field.q, n)


def test_ring_index_round_trip():
    R = QuotientRing(F3, 4)
    for i in range(R.size):
        assert R.index(R.element(i)) == i


def test_ring_tables_agree_with_ops():
    cases = [(F2, 4), (F3, 3), (F4, 2), (F4, 4), (Field(2, 3), 2), (Field(3, 2), 2)]
    for field, n in cases:
        R = QuotientRing(field, n)
        t = R.tables()
        elems = [R.element(i) for i in range(R.size)]
        assert t.coeffs.tolist() == [list(u) for u in elems]
        assert t.units.tolist() == [gcd_is_unit(R, u) for u in elems]
        assert t.neg.tolist() == [R.index(R.neg(u)) for u in elems]
        assert t.recip.tolist() == [R.index(R.reciprocal(u)) for u in elems]
        assert (t.coeffs != 0).sum(axis=1).tolist() == [R.weight(u) for u in elems]
        sum_weight = sum_weight_table(t)
        for i, m in enumerate(elems):
            assert t.times(i).tolist() == [R.index(R.mul(u, m)) for u in elems], (field.q, n, i)
            assert t.add(i, np.arange(R.size)).tolist() == [R.index(R.add(m, v)) for v in elems]
            sums = [R.weight(R.add(m, v)) for v in elems]
            assert sum_weight[i].tolist() == sums, (field.q, n, i)


@pytest.mark.parametrize("p,n", [(2, 10), (3, 6)])
def test_ring_tables_match_einsum_reference(p, n):
    t = QuotientRing(Field(p), n).tables()
    ref = einsum_prime_tables(p, n)
    for name in ("neg", "recip"):
        assert np.array_equal(getattr(t, name), ref[name]), name
    assert np.array_equal((t.coeffs != 0).sum(axis=1), ref["weight"])
    for m in range(p**n):
        assert np.array_equal(t.times(m), ref["mul"][:, m]), m
    assert np.array_equal(t.add(np.arange(p**n)[:, None], np.arange(p**n)), ref["add"])
    assert np.array_equal(sum_weight_table(t), ref["weight"][ref["add"]])


@pytest.mark.parametrize("field, n", [(F2, 11), (F3, 7), (F5, 3), (F4, 5), (Field(2, 3), 3)])
def test_sum_weight_matches_weight_of_sums(field, n):
    # the oracles' Q x Q table of weight(u + v), built coefficient by
    # coefficient, against the weights of the ring's own sums; odd n, and
    # coefficients of k > 1 F_p digits
    t = QuotientRing(field, n).tables()
    sum_weight, weight = sum_weight_table(t), (t.coeffs != 0).sum(axis=1)
    elems = np.arange(t.size)
    for lo in range(0, t.size, 128):
        rows = elems[lo : lo + 128]
        assert np.array_equal(sum_weight[rows], weight[t.add(rows[:, None], elems)]), lo


@pytest.mark.parametrize("field, n", [(F2, 1), (F3, 2), (F2, 11), (F3, 7), (F4, 5), (Field(2, 3), 3)])
def test_chunk_tables_read_sums_and_weights(field, n):
    # the tables of sums and of their weights over the codes of n coefficients, the
    # elements of R(n, F_q), against the ring's own sums and their weights;
    # halves of unequal size: odd n, and coefficients of k > 1 F_p digits
    t = polyring.RingTables(QuotientRing(field, n))  # not the shared tables
    sums, weights = polyring.chunk_tables(field, n)
    assert sums.shape == weights.shape == (t.size, t.size)
    assert (sums.dtype, weights.dtype) == (np.uint16, np.int8)
    assert not sums.flags.writeable and not weights.flags.writeable
    u = np.random.default_rng(n).integers(0, t.size, size=(2, 4000))
    u[:, :2] = [[0, t.size - 1], [0, t.size - 1]]
    assert np.array_equal(sums[u[0], u[1]], t.add(u[0], u[1]))
    assert np.array_equal(weights[u[0], u[1]], (t.coeffs != 0).sum(axis=1)[t.add(u[0], u[1])])


@pytest.mark.parametrize("field, n", [(F2, 5), (F3, 3), (F4, 3)])
def test_message_levels_partition_the_messages(field, n):
    # the engine's levels hold every element of weight i once, whose
    # coefficient row rows() rebuilds, each its parent of weight i - 1 plus
    # one term v*x^j; so the splits (i, w - i) of the levels w = 1..2n hold
    # every nonzero message (c, d) once
    ring = QuotientRing(field, n)
    t, q = ring.tables(), field.q
    levels = codes._Levels(ring)
    levels.grow(2)
    assert len(levels.start) == 4  # built on demand
    levels.grow(n)
    start = levels.start
    assert len(start) == n + 2 and start[-1] == t.size
    rows = levels.rows(np.arange(t.size))
    index = rows @ q ** np.arange(n)
    assert np.array_equal(t.coeffs[index], rows)
    weight = (t.coeffs != 0).sum(axis=1)
    for i in range(n + 1):
        assert sorted(index[start[i] : start[i + 1]].tolist()) == np.flatnonzero(weight == i).tolist(), i
    e = np.arange(1, t.size)
    j, v = np.divmod(levels.term[e], q - 1)
    assert np.array_equal(index[e], t.add(index[levels.parent[e]], (v + 1) * q**j))
    assert np.array_equal(levels.rows(e[::-7]), rows[e[::-7]])  # in any order
    assert not levels.rows(np.zeros(3, dtype=np.int64)).any()
    seen = np.zeros((t.size, t.size), dtype=int)
    for w in range(1, 2 * n + 1):
        for i in range(max(0, w - n), min(w, n) + 1):
            seen[np.ix_(index[start[i] : start[i + 1]], index[start[w - i] : start[w - i + 1]])] += 1
    seen[0, 0] += 1
    assert (seen == 1).all()


# -- orders and cosets ---------------------------------------------------------

def test_multiplicative_order():
    assert multiplicative_order(2, 3) == 2
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 5) == 4
    assert multiplicative_order(2, 1) == 1
    with pytest.raises(ValueError):
        multiplicative_order(3, 9)


def test_multiplicative_order_matches_scan():
    # every coprime q <= 60 at every n <= 3000
    for n in range(1, 3001):
        for q in range(1, 61):
            if math.gcd(q, n) == 1:
                assert multiplicative_order(q, n) == order_scan(q, n), (q, n)


def test_multiplicative_order_at_large_n():
    # 10000019 is prime; the scan takes 1428574 steps
    assert multiplicative_order(2, 10000019) == order_scan(2, 10000019) == 1428574
    assert not is_primitive_root(2, 10000019)


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
    for n in (0, -1):
        with pytest.raises(ValueError, match="ring length must be >= 1"):
            factor_xn_minus_1(F2, n)
    # 2 is a primitive root mod 19: (x + 1)(x^18 + ... + 1), though x^19 - 1
    # splits only over F_(2^18), above the field order cap
    fact = factor_xn_minus_1(F2, 19)
    assert fact.self_reciprocal == ((1, 1), (1,) * 19)
    # the order is by degree, then by coefficients: the pair of cubics at
    # (2, 7), and over F_4 at n = 3 the linear factors x - 1 and the pair
    # x - w, x - w^2
    assert factor_xn_minus_1(F2, 7).pairs == (((1, 0, 1, 1), (1, 1, 0, 1)),)
    assert factor_xn_minus_1(F4, 3).self_reciprocal == ((1, 1),)
    assert factor_xn_minus_1(F4, 3).pairs == (((2, 1), (3, 1)),)


def test_expansion_check_rejects_a_missing_factor():
    for field, n in [(F2, 7), (F3, 8), (F4, 5), (F5, 6)]:
        factors = [g for g, _ in factor_xn_minus_1(field, n).factors()]
        _check_expansion(field, n, factors)
        for i in range(len(factors)):
            with pytest.raises(AssertionError, match="does not re-expand to x\\^n - 1"):
                _check_expansion(field, n, factors[:i] + factors[i + 1 :])


def test_factorization_properties():
    cases = [
        (F2, [1, 3, 5, 7, 9, 11, 15]),
        (F3, [1, 2, 4, 5, 7, 8, 10]),
        (F4, [3, 5, 7, 9]),
        (F5, [2, 3, 4, 6, 7, 8]),
        (Field(3, 2), [2, 4, 5, 7]),
        (Field(131), [2, 5]),
        (Field(257), [2, 4]),
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
            # distinctness, and the same set as over the splitting field
            assert len(set(factors)) == len(factors)
            assert set(factors) == set(splitting_field_factors(field, n))
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
                    assert irreducible_scan(field, g)
                assert is_irreducible(field, g)
                if len(g) - 1 > 1:
                    for x in field.elements():
                        assert poly_eval(field, g, x) != 0


def test_factors_equal_the_splitting_field_at_every_desk_point():
    # q in {2, 3, 4, 5, 7} and n < 60: the same set of factors as the
    # minimal polynomials over F_(q^m) wherever q^m <= 2^16 (107 points);
    # the other 92 points run only over F_q, and certify themselves
    both = 0
    for q in (2, 3, 4, 5, 7):
        field = field_of_order(q)
        for n in range(1, 60):
            if math.gcd(n, q) == 1:
                factors = {g for g, _ in factor_xn_minus_1(field, n).factors()}
                if q ** multiplicative_order(q, n) <= 1 << 16:
                    assert factors == set(splitting_field_factors(field, n)), (q, n)
                    both += 1
    assert both == 107


def test_primitive_idempotents_and_their_factors():
    # e^2 = e, e_i e_j = 0, sum of e = 1, and e = 1 mod its own factor and
    # 0 mod every other one, by schoolbook ring products and remainders
    for field, n in [(F2, 7), (F2, 9), (F2, 15), (F3, 8), (F4, 5), (F5, 6), (Field(3, 2), 5), (Field(7), 4)]:
        ring = QuotientRing(field, n)
        fact = factor_xn_minus_1(field, n)
        factors = [g for g, _ in fact.factors()]
        total = ring.zero
        for i, e in enumerate(fact.idempotents):
            assert ring.mul(e, e) == e
            assert all(ring.mul(e, f) == ring.zero for f in fact.idempotents[i + 1 :])
            total = ring.add(total, e)
            for j, g in enumerate(factors):
                residue = poly_divmod(field, poly_trim(e), g)[1]
                assert residue == ((field.one,) if i == j else ()), (field, n, i, j)
        assert total == ring.one


def test_coset_count_and_factor_charge():
    # the charge counts the cosets it lists, and n^2 alone refuses before
    # any listing, as there is at least one factor
    assert polyring.factor_charge(F2, 89) == (9 * (89**2 + 9 * 89 + 2 * 2), cyclotomic_cosets(2, 89))
    assert polyring.factor_charge(Field(65521), 2)[0] == 2 * (4 + 2 * 2 + 2 * 65521)
    for field, n, refusal in [(F2, 4095, "about"), (F2, 1000003, "at least"), (F3, 10000019, "at least")]:
        start = time.perf_counter()
        with pytest.raises(polyring.CapExceeded, match=f"at n={n} takes {refusal}"):
            factor_xn_minus_1(field, n)
        assert time.perf_counter() - start < 1
    factor_xn_minus_1(Field(65521), 1)  # one factor: nothing to refine


def test_large_fields_factor_inside_the_charge():
    # the refinement looks for the values of z, not through all of F_p, so
    # large fields cost no p^2: the splitting-field factors at every n < 60
    # with q^m <= 2^16 (m = 1 above q = 256), and the worst points of that
    # reach (q = 1 mod n, n factors) within the charge and in under 2 s
    assert {g for g, _ in factor_xn_minus_1(Field(65521), 2).factors()} == {(65520, 1), (1, 1)}
    for q in (127, 131, 251, 256, 257, 4099, 65521, 1 << 16):
        field = field_of_order(q)
        for n in range(1, 60):
            if math.gcd(n, q) == 1 and q ** multiplicative_order(q, n) <= 1 << 16:
                assert polyring.factor_charge(field, n)[0] <= polyring.FACTOR_CAP, (q, n)
                factors = {g for g, _ in factor_xn_minus_1(field, n).factors()}
                assert factors == set(splitting_field_factors(field, n)), (q, n)
    for q, n in [(65521, 240), (7681, 256), (1 << 16, 257)]:
        start = time.perf_counter()
        assert len(factor_xn_minus_1(field_of_order(q), n).factors()) == len(cyclotomic_cosets(q, n))
        assert time.perf_counter() - start < 2, (q, n)


@pytest.mark.parametrize(
    "q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 31, 49, 64, 81, 121, 128, 131, 243, 256, 257]
)
def test_root_of_unity_matches_scan(q):
    # the least element of order n, read off the log table, at every n | q - 1:
    # the root of unity of the splitting-field oracle
    big = field_of_order(q)
    for n in range(1, q):
        if (q - 1) % n == 0:
            assert primitive_root_of_unity(big, n) == root_of_unity_scan(big, n), n
