import time

import numpy as np
import pytest

from fourcirc import census
from fourcirc.census import (
    PAIR_WORDS,
    artin_scan,
    code_distances,
    code_orbits,
    count_hermitian,
    count_sum_of_squares,
    distinct_code_count,
    enumerate_self_dual,
    equivalence_maps,
    membership_census,
    membership_sweep,
    orbit_distances,
    self_dual_count_formula,
    self_dual_pairs,
)
from fourcirc.codes import CapExceeded, FourCirculantCode, message_weights
from fourcirc.fields import Field
from fourcirc.polyring import QuotientRing

from oracles import generator_matrix, is_self_dual_matrix, rref

F2, F3, F5 = Field(2), Field(3), Field(5)


def test_count_sum_of_squares_examples():
    assert count_sum_of_squares(F3) == (4, 4)
    assert count_sum_of_squares(F5) == (4, 4)
    assert count_sum_of_squares(Field(7)) == (8, 8)
    # the largest prime the field cap admits: a scan of all q^2 pairs takes
    # minutes at this q, the histogram count a fraction of a second
    big = Field(65521)
    start = time.perf_counter()
    assert count_sum_of_squares(big) == (65520, 65520)  # 65521 = 1 mod 4
    assert time.perf_counter() - start < 10
    with pytest.raises(ValueError):
        count_sum_of_squares(F2)


def test_count_hermitian_examples():
    assert count_hermitian(F2) == (6, 6)
    assert count_hermitian(F3) == (24, 24)
    assert count_hermitian(Field(2, 2)) == (60, 60)


def test_formula_hypotheses():
    assert self_dual_count_formula(F2, 3) == 12
    assert self_dual_count_formula(F2, 7) is None  # 2 has order 3 mod 7
    assert self_dual_count_formula(F3, 3) is None  # gcd(3, 3) != 1
    assert self_dual_count_formula(F2, 9) is None  # 9 is not prime
    assert self_dual_count_formula(F2, 2) is None  # n must be odd


def test_enumerate_example_2_3():
    rep = enumerate_self_dual(F2, 3)
    assert rep.pair_count == 12
    assert rep.formula_count == 12
    assert rep.distinct_code_count == 12
    assert len(rep.pairs) == 12
    ring = QuotientRing(F2, 3)
    # a-major enumeration order
    indices = [(ring.index(a), ring.index(b)) for a, b in rep.pairs]
    assert indices == sorted(indices)
    # every reported pair passes the matrix criterion
    for a, b in rep.pairs:
        assert is_self_dual_matrix(FourCirculantCode(ring, a, b))


def test_enumerate_inapplicable_formula():
    rep = enumerate_self_dual(F2, 7)
    assert rep.formula_count is None
    assert rep.pair_count > 0


def test_enumerate_cap_and_gcd():
    with pytest.raises(CapExceeded):
        enumerate_self_dual(F3, 13)
    # the sweep alone fits the cap at (2, 15), but a report of up to Q^2 pairs does not
    with pytest.raises(CapExceeded):
        enumerate_self_dual(F2, 15)
    # repeated-root length: sweep still runs, formula is inapplicable
    rep = enumerate_self_dual(F2, 4)
    assert rep.formula_count is None


def test_pair_sweep_cap_counts_its_work():
    # the sweep does Q ring products of n^2 terms: Q * n^2 = 2^15 * 225 fits
    # the default cap, though Q^2 = 2^30 does not; 2,937,600 is the product
    # of the per-factor counts for x^15 - 1 over F_2
    assert len(self_dual_pairs(F2, 15)) == 2_937_600
    with pytest.raises(CapExceeded):
        self_dual_pairs(F2, 15, cap=2**15 * 225 - 1)


def test_pair_sweep_cap_counts_its_output():
    # (2, 7): the sweep costs 2^7 * 49 = 6272 units and lists 1008 pairs of
    # PAIR_WORDS words each
    need = 2**7 * 49 + PAIR_WORDS * 1008
    assert len(self_dual_pairs(F2, 7, cap=need)) == 1008
    with pytest.raises(CapExceeded, match="finds 1008 pairs"):
        self_dual_pairs(F2, 7, cap=need - 1)
    # (2, 16) has a repeated-root length: the sweep (2^24 units) fits the
    # default cap, but its 2^24 pairs would make a list of about 1 GB
    with pytest.raises(CapExceeded, match="finds 16777216 pairs"):
        self_dual_pairs(F2, 16)


def test_enumerate_length_one():
    # n = 1 gives [4, 2] codes; over F_3 the four solutions of
    # 1 + a^2 + b^2 = 0 all yield codes of minimum distance 3
    rep = enumerate_self_dual(F3, 1, with_distances=True)
    assert rep.pair_count == 4
    assert rep.formula_count is None
    assert rep.per_code_distances == {3: 4}


def test_enumerate_2_13_matches_formula():
    # the length where the expurgation inequality first bites; the sweep is
    # at the default cap boundary
    rep = enumerate_self_dual(F2, 13)
    assert rep.pair_count == rep.formula_count == 524160
    assert rep.distinct_code_count == rep.pair_count


def test_enumerate_even_extension_field():
    # even-q branch of the closed form on a proper extension field
    rep = enumerate_self_dual(Field(2, 3), 3)
    assert rep.pair_count == rep.formula_count == 8 * 9 * 56


def test_enumerate_with_distances():
    rep = enumerate_self_dual(F2, 3, with_distances=True)
    assert rep.pair_distances is not None
    assert len(rep.pair_distances) == 12
    assert sum(rep.per_code_distances.values()) == 12
    # all binary self-dual codes have even distance
    assert all(d % 2 == 0 for d in rep.pair_distances)


def test_code_distances_matches_min_distance():
    pairs = self_dual_pairs(F2, 5)
    dists = code_distances(F2, 5, pairs)
    ring = QuotientRing(F2, 5)
    for (ai, bi), d in list(zip(pairs, dists))[::7]:
        code = FourCirculantCode(ring, ring.element(ai), ring.element(bi))
        assert code.min_distance()[0] == d


def test_distinct_codes_equal_pairs():
    # the generator matrix is already in reduced row echelon form, so the
    # pair -> code map is injective; an RREF census of the row spaces must
    # agree with distinct_code_count, on all pairs and on self-dual ones
    all_pairs = [(F2, 3), (F3, 2), (Field(2, 2), 2)]
    self_dual = [(F2, 3), (F5, 3)]
    cases = [(f, n, None) for f, n in all_pairs] + [(f, n, self_dual_pairs(f, n)) for f, n in self_dual]
    for field, n, pairs in cases:
        ring = QuotientRing(field, n)
        if pairs is None:
            pairs = [(ai, bi) for ai in range(ring.size) for bi in range(ring.size)]
        codes = {
            rref(field, generator_matrix(FourCirculantCode(ring, ring.element(ai), ring.element(bi))))
            for ai, bi in pairs
        }
        assert distinct_code_count(field, n, pairs) == len(codes) == len(pairs), (field.q, n)


# -- equivalent codes -------------------------------------------------------------

@pytest.mark.parametrize(
    "field, n, orbits",
    [(F2, 7, 6), (F3, 5, 7), (F2, 9, 14), (F3, 6, 24), (F2, 10, 72)],
)
def test_orbit_counts(field, n, orbits):
    pairs = self_dual_pairs(field, n)
    labels = code_orbits(field, n, pairs)
    positions = np.arange(len(pairs))
    # each label is the least position of its orbit
    assert (labels <= positions).all()
    assert (labels[labels] == labels).all()
    assert len(np.unique(labels)) == orbits


@pytest.mark.parametrize("field, n", [(F2, 6), (F2, 7), (F3, 4), (Field(2, 2), 3), (F5, 3)])
def test_equivalence_maps_keep_self_duality_and_weights(field, n):
    pairs = self_dual_pairs(field, n)
    a, b = np.array(pairs).T
    t = QuotientRing(field, n).tables()
    weights = {
        pair: np.bincount(wt.ravel(), minlength=4 * n + 2)
        for pair, wt in zip(pairs, message_weights(t, pairs))
    }
    maps = equivalence_maps(field, n)
    names = [name for name, _ in maps]
    assert names[:5] == ["x*a", "x*b", "-a", "-b", "swap"]
    assert ("frobenius" in names) == (field.k > 1)
    assert f"x->x^{n - 1}" in names  # the reciprocal
    for name, pair_map in maps:
        ia, ib = pair_map(a, b)
        images = list(zip(ia.tolist(), ib.tolist()))
        assert sorted(images) == pairs, name  # onto the self-dual list
        for pair, image in zip(pairs, images):
            assert (weights[pair] == weights[image]).all(), (name, pair, image)


def test_code_orbits_checks_closure(monkeypatch):
    pairs = self_dual_pairs(F2, 7)
    with pytest.raises(AssertionError, match="outside the list"):
        code_orbits(F2, 7, pairs[1:])
    # a multiplier on a alone does not keep self-duality
    ring = QuotientRing(F2, 7)
    square = np.array([ring.index(ring.mul(u, u)) for u in ring.elements()])  # x -> x^2 over F_2
    maps = equivalence_maps(F2, 7)
    monkeypatch.setattr(
        census, "equivalence_maps", lambda field, n: maps + [("x->x^2 on a", lambda a, b: (square[a], b))]
    )
    with pytest.raises(AssertionError, match="x->x\\^2 on a"):
        code_orbits(F2, 7, pairs)


def test_orbit_distances_charge_the_cap_per_orbit():
    # (2, 7): 6 orbits of 2^14 evaluations each
    pairs = self_dual_pairs(F2, 7)
    dists, orbits = orbit_distances(F2, 7, pairs, cap=6 * 2**14)
    assert orbits == 6 and dists == code_distances(F2, 7, pairs)
    with pytest.raises(CapExceeded, match="6 orbits"):
        orbit_distances(F2, 7, pairs, cap=6 * 2**14 - 1)
    # (2, 13): 148 orbits at 2^26 each; the parent ran 524,160 scans
    with pytest.raises(CapExceeded, match="148 orbits"):
        enumerate_self_dual(F2, 13, with_distances=True)


# -- membership -----------------------------------------------------------------

def test_membership_unit_case_reproduces_generator():
    # u = encode((1, 0)) for a = x, b = 0: the closed-form solution is (x, 0)
    rep = membership_census(F2, 3, ((1, 0, 0), (0, 0, 0), (0, 1, 0), (0, 0, 0)))
    assert rep.unique
    assert rep.solution == ((0, 1, 0), (0, 0, 0))
    assert rep.solution_valid
    assert rep.count == 1
    assert rep.self_dual_count == 1
    assert rep.bound == 8


def test_membership_zero_message():
    rep = membership_census(F2, 3, ((0, 0, 0), (0, 0, 0), (0, 1, 0), (0, 0, 0)))
    assert rep.count == 0
    rep0 = membership_census(F2, 3, ((0, 0, 0),) * 4)
    assert rep0.count == 64  # the zero word lies in every code


def test_membership_sweep_matches_single():
    sw = membership_sweep(F2, 3)
    ring = QuotientRing(F2, 3)
    # cross-check a deterministic sample of words
    for u_idx in range(0, len(sw.counts), 157):
        blocks = tuple(
            ring.element((u_idx // ring.size**i) % ring.size) for i in range(4)
        )
        rep = membership_census(F2, 3, blocks)
        assert sw.counts[sw.word_index(blocks)] == rep.count
        assert sw.unit_counts[sw.word_index(blocks)] == rep.unit_count
        assert sw.sd_counts[sw.word_index(blocks)] == rep.self_dual_count


def test_membership_bound_unit_pairs():
    sw = membership_sweep(F2, 3)
    max_unit, _ = sw.max_nonconstant("unit")
    assert max_unit <= sw.bound
    # the all-pair count can break the bound; record that it really does here
    max_all, _ = sw.max_nonconstant("all")
    assert max_all == 16 > sw.bound


def test_membership_unique_always_count_one():
    ring = QuotientRing(F2, 3)
    for u_idx in range(0, 4096, 97):
        blocks = tuple(ring.element((u_idx // 8**i) % 8) for i in range(4))
        rep = membership_census(F2, 3, blocks)
        if rep.unique:
            assert rep.count == 1
            assert rep.solution_valid


def test_constant_vectors():
    from fourcirc.census import constant_vectors

    ring = QuotientRing(F3, 3)
    consts = constant_vectors(ring)
    assert consts == {(0, 0, 0), (1, 1, 1), (2, 2, 2)}


# -- artin scan -------------------------------------------------------------------

def test_artin_examples():
    assert artin_scan(2, 30).primes == (3, 5, 11, 13, 19, 29)
    assert artin_scan(3, 10).primes == (5, 7)
    rep4 = artin_scan(4, 30)
    assert rep4.primes == ()
    assert "square" in rep4.note
    assert artin_scan(2, 30).density == pytest.approx(6 / 9)
    with pytest.raises(ValueError):
        artin_scan(1, 100)
    with pytest.raises(ValueError):
        artin_scan(2, 10**7)
