import functools
import json
import math
import random
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from fourcirc import census, cli, fields, polyring
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
from fourcirc.codes import CapExceeded, FourCirculantCode
from fourcirc.fields import Field, field_of_order, is_prime
from fourcirc.polyring import QuotientRing, is_primitive_root

from helpers import largest_table
from oracles import (
    burnside_orbit_count,
    code_orbits_fixed_point,
    gcd_is_unit,
    generator_matrix,
    is_self_dual_matrix,
    max_nonconstant_scan,
    membership_scan,
    membership_tables,
    message_weights,
    rref,
    self_duality_scan,
)

F2, F3, F5 = Field(2), Field(3), Field(5)
F4, F8 = Field(2, 2), Field(2, 3)


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
    for field in (Field(7), Field(3, 2), Field(2, 8)):  # F_{q^2} up to 2^16 elements
        brute, formula = count_hermitian(field)
        assert brute == formula


def is_prime_power(q):
    return any(is_prime(p) and q == p ** round(math.log(q, p)) for p in range(2, q + 1) if q % p == 0)


@pytest.mark.parametrize("q", [q for q in range(3, 126, 2) if is_prime_power(q)] + [65521])
def test_sum_of_squares_count_at_odd_prime_powers(q):
    # q - eta(-1), with eta(-1) = 1 exactly when q = 1 mod 4
    assert count_sum_of_squares(field_of_order(q)) == (q - 1 if q % 4 == 1 else q + 1,) * 2


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 2**5])
def test_hermitian_count_at_prime_powers(q):
    assert count_hermitian(field_of_order(q)) == ((q + 1) * (q * q - q),) * 2


def test_matches_equals_counter_oracle():
    # the number of index pairs with equal keys: for each key of the first
    # array, how often it occurs in the second
    rng = np.random.default_rng(25)
    empty = np.zeros(0, dtype=np.int64)
    cases = [(rng.integers(0, 6, size), rng.integers(0, 6, other)) for size, other in [(1, 1), (9, 40), (300, 70)]]
    cases += [(rng.integers(-(2**62), 2**62, 50), rng.integers(-(2**62), 2**62, 50))]
    cases += [(empty, empty), (empty, rng.integers(0, 5, 9)), (rng.integers(0, 5, 9), empty)]
    cases += [(np.arange(0, 40, 2), np.arange(1, 40, 2)), (rng.integers(0, 10, 30), rng.integers(10, 20, 30))]
    for key_a, key_b in cases:
        count = Counter(key_b.tolist())
        expect = sum(count[key] for key in key_a.tolist())
        assert census._matches(key_a, key_b) == expect == census._matches(key_b, key_a)
    assert [census._matches(*case) for case in cases[4:]] == [0] * 5  # empty or disjoint


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
    indices = rep.pairs.tolist()
    assert indices == sorted(indices)
    # every reported pair passes the matrix criterion
    for ai, bi in indices:
        assert is_self_dual_matrix(FourCirculantCode(ring, ring.element(ai), ring.element(bi)))


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
    # (2, 16): the pair array fits the cap, the report's Q^2 = 2^32 does not
    with pytest.raises(CapExceeded, match="up to 4294967296 pairs"):
        enumerate_self_dual(F2, 16)
    # q^(2n) of 60,206 digits is written as a power
    with pytest.raises(CapExceeded, match=r"up to 2\^200000 pairs"):
        enumerate_self_dual(F2, 100000)
    # repeated-root length: sweep still runs, formula is inapplicable
    rep = enumerate_self_dual(F2, 4)
    assert rep.formula_count is None


def test_pair_sweep_cap_counts_its_work():
    # the sweep does Q ring products of n^2 terms: Q * n^2 = 2^15 * 225 fits
    # the default cap, though Q^2 = 2^30 does not; 2,937,600 is the product
    # of the per-factor counts for x^15 - 1 over F_2
    pairs = self_dual_pairs(F2, 15)
    assert pairs.shape == (2_937_600, 2) and pairs.dtype == np.int64
    # a-major rows, each pair once
    assert (np.diff(pairs[:, 0] * 2**15 + pairs[:, 1]) > 0).all()
    with pytest.raises(CapExceeded):
        self_dual_pairs(F2, 15, cap=2**15 * 225 - 1)


def test_pair_array_is_filled_without_column_temporaries():
    # (2, 15): the 2,937,600 pairs take 47 MB; a column-wide np.repeat or
    # arange beside them would lift the peak to about twice that
    QuotientRing(F2, 15).tables()  # the cached ring tables are not the sweep's to count
    tracemalloc.start()
    try:
        pairs = self_dual_pairs(F2, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * pairs.nbytes, peak / pairs.nbytes


@pytest.mark.parametrize("rows", [1, 7, 1000])
def test_pair_array_chunks_keep_pairs(monkeypatch, rows):
    # chunk bounds fall inside a's run of partners, and one chunk can hold many runs
    cases = [(F3, 5), (F2, 7), (Field(2, 2), 4)]
    whole = [self_dual_pairs(field, n) for field, n in cases]
    monkeypatch.setattr(census, "PAIR_CHUNK_ROWS", rows)
    for (field, n), expect in zip(cases, whole):
        assert np.array_equal(self_dual_pairs(field, n), expect), (field.q, n)


def test_pair_sweep_cap_counts_its_output():
    # (2, 7): the sweep costs 2^7 * 49 = 6272 units and lists 1008 pairs of
    # PAIR_WORDS words each
    need = 2**7 * 49 + PAIR_WORDS * 1008
    assert len(self_dual_pairs(F2, 7, cap=need)) == 1008
    with pytest.raises(CapExceeded, match="finds 1008 pairs"):
        self_dual_pairs(F2, 7, cap=need - 1)
    # (2, 17) at the default cap: the sweep (2^17 * 289 units) fits, but with
    # its 33,292,800 pairs of PAIR_WORDS words it needs 104,465,408 units; the
    # refusal comes before the 533 MB array, or even one of its columns, is
    # allocated (the sweep itself peaks near 71 MB)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="finds 33292800 pairs, 104465408 work units"):
            self_dual_pairs(F2, 17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 33_292_800


def test_enumerate_length_one():
    # n = 1 gives [4, 2] codes; over F_3 the four solutions of
    # 1 + a^2 + b^2 = 0 all yield codes of minimum distance 3
    rep = enumerate_self_dual(F3, 1, with_distances=True)
    assert rep.pair_count == 4
    assert rep.formula_count is None
    assert rep.per_code_distances == {3: 4}


@pytest.mark.parametrize(
    "p, n, count",
    [(3, 1, 4), (131, 1, 132), (257, 1, 256), (65521, 1, 65520), (131, 2, 17424), (257, 2, 65536)],
)
def test_short_lengths_count_lemma_4_1_solutions(p, n, count):
    # for n <= 2, x^n - 1 has n linear factors, each fixed by reciprocation,
    # and each constituent pair solves 1 + a^2 + b^2 = 0 (Lemma 4.1); the
    # primes above 127 have F_p digits that an 8-bit table would wrap
    field = Field(p)
    assert len(self_dual_pairs(field, n)) == count == count_sum_of_squares(field)[0] ** n


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


@pytest.mark.parametrize("field, n", [(F2, 6), (F3, 6), (Field(2, 2), 4), (F5, 2), (F2, 9)])
def test_self_duality_matches_scan(field, n):
    # p divides n at (2, 6) and (3, 6); an extension field at (F_4, 4)
    ring = QuotientRing(field, n)
    have, need = census._self_duality(field, n)
    assert (have.tolist(), need.tolist()) == self_duality_scan(ring)
    assert not have.flags.writeable and not need.flags.writeable  # cached for the next caller


def test_search_computes_self_duality_once(capsys):
    # self_dual_pairs and code_orbits share the cached u*u' and -(1 + u*u')
    census._self_duality.cache_clear()
    assert cli.main(["search", "--q", "2", "--n", "7"]) == 0
    assert census._self_duality.cache_info().misses == 1
    assert json.loads(capsys.readouterr().out)["report"]["total_self_dual"] == 1008


def test_code_distances_matches_min_distance():
    pairs = self_dual_pairs(F2, 5)
    dists = code_distances(F2, 5, pairs)
    ring = QuotientRing(F2, 5)
    for (ai, bi), d in list(zip(pairs.tolist(), dists))[::7]:
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
            pairs = np.array([(ai, bi) for ai in range(ring.size) for bi in range(ring.size)])
        codes = {
            rref(field, generator_matrix(FourCirculantCode(ring, ring.element(ai), ring.element(bi))))
            for ai, bi in pairs.tolist()
        }
        assert distinct_code_count(field, n, pairs) == len(codes) == len(pairs), (field.q, n)
        # a repeated pair spans no new code
        assert distinct_code_count(field, n, np.concatenate([pairs[::-1], pairs[:3]])) == len(pairs)


# -- equivalent codes -------------------------------------------------------------

ORBIT_COUNTS = [(F2, 7, 6), (F3, 5, 7), (F2, 9, 14), (F3, 6, 24), (F2, 10, 72), (F2, 13, 148)]


def _perms(maps):
    return [perm for _, perm in maps]


@pytest.mark.parametrize("field, n, orbits", ORBIT_COUNTS)
def test_orbit_counts(field, n, orbits):
    pairs = self_dual_pairs(field, n)
    labels = code_orbits(field, n, pairs)
    positions = np.arange(len(pairs))
    # each label is the least position of its orbit
    assert (labels <= positions).all()
    assert (labels[labels] == labels).all()
    assert len(np.unique(labels)) == orbits


@pytest.mark.parametrize(
    "field, n",
    [(F2, 1), (F2, 2), (F3, 2), (F2, 6), (F2, 7), (F3, 5), (F2, 9), (F4, 4), (F3, 6), (F2, 10), (F4, 3), (F8, 3),
     (F5, 3), (F2, 11), (F2, 13)],
)
def test_code_orbits_equal_fixed_point_oracle(field, n):
    pairs = self_dual_pairs(field, n)
    assert (code_orbits(field, n, pairs) == code_orbits_fixed_point(field, n, pairs)).all()


@pytest.mark.parametrize("field, n, orbits", ORBIT_COUNTS)
def test_burnside_counts_the_orbits(field, n, orbits):
    # Burnside's lemma over the group of equivalence_maps, from u*u' and
    # -(1 + u*u') of the ring-product scan; neither labeler takes part
    block, both = equivalence_maps(field, n)
    have, need = self_duality_scan(QuotientRing(field, n))
    count = burnside_orbit_count(have, need, _perms(block), _perms(both))
    labels = code_orbits(field, n, self_dual_pairs(field, n))
    assert count == len(np.unique(labels)) == orbits


@pytest.mark.parametrize("field, n, orbits", [(F3, 5, 7), (F2, 9, 14)])
def test_dropping_any_multiplier_changes_labels_and_burnside(field, n, orbits, monkeypatch):
    # at (2, 7) dropping one multiplier leaves the labels as they are
    pairs = self_dual_pairs(field, n)
    labels = code_orbits(field, n, pairs)
    block, both = equivalence_maps(field, n)
    have, need = self_duality_scan(QuotientRing(field, n))
    for i, (name, _) in enumerate(both):
        fewer = both[:i] + both[i + 1 :]
        monkeypatch.setattr(census, "equivalence_maps", lambda field, n, fewer=fewer: (block, fewer))
        assert (code_orbits(field, n, pairs) != labels).any(), name
        assert burnside_orbit_count(have, need, _perms(block), _perms(fewer)) != orbits, name


@pytest.mark.parametrize("field, n", [(F2, 6), (F2, 7), (F3, 4), (F4, 3), (F5, 3)])
def test_equivalence_maps_keep_self_duality_and_weights(field, n):
    pairs = self_dual_pairs(field, n)
    a, b = pairs.T
    listed = [tuple(pair) for pair in pairs.tolist()]
    t = QuotientRing(field, n).tables()
    weights = {
        pair: np.bincount(wt.ravel(), minlength=4 * n + 2)
        for pair, wt in zip(listed, message_weights(t, pairs))
    }
    block, both = equivalence_maps(field, n)
    names = [name for name, _ in block + both]
    assert len(block) == 2 * n and names[:4] == ["x^0*", "-x^0*", "x^1*", "-x^1*"]
    assert len(both) == sum(math.gcd(s, n) == 1 for s in range(n)) * field.k
    assert ("x->x^1, frobenius^1" in names) == (field.k > 1)
    assert f"x->x^{n - 1}" in names  # the reciprocal
    images = (
        [(f"{name} on a", h[a], b) for name, h in block]
        + [(f"{name} on b", a, h[b]) for name, h in block]
        + [(name, sigma[a], sigma[b]) for name, sigma in both]
        + [("swap", b, a)]
    )
    for name, ia, ib in images:
        image = list(zip(ia.tolist(), ib.tolist()))
        assert sorted(image) == listed, name  # onto the self-dual list
        for pair, pair_image in zip(listed, image):
            assert (weights[pair] == weights[pair_image]).all(), (name, pair, pair_image)


def test_code_orbits_checks_the_list(monkeypatch):
    pairs = self_dual_pairs(F2, 7)
    Q = 2**7
    # a row short, a row repeated, out of order, and rows in order that are
    # not self-dual
    not_self_dual = np.stack(np.divmod(np.arange(len(pairs)), Q), axis=1)
    for bad in (pairs[1:], np.insert(pairs, 5, pairs[5], axis=0), pairs[::-1], not_self_dual):
        with pytest.raises(ValueError, match="every self-dual pair"):
            code_orbits(F2, 7, bad)
    # at (2, 2) Σ is the identity; with a need that x* does not keep (the
    # true one is a function of u*u'), every other check passes, and the
    # least pair (1, 1) of the orbit of (x, 1) is not listed
    have, need = census._self_duality(F2, 2)
    need = need.copy()
    need[2] = 1  # at x; at 1 it stays 0, and have is 1 at both
    monkeypatch.setattr(census, "_self_duality", lambda field, n: (have, need))
    listed = np.array([(a, b) for a in range(4) for b in range(4) if have[b] == need[a]])
    with pytest.raises(AssertionError, match="not in the list"):
        code_orbits(F2, 2, listed)


def test_code_orbits_checks_the_maps(monkeypatch):
    pairs = self_dual_pairs(F2, 7)
    ring = QuotientRing(F2, 7)
    block, both = equivalence_maps(F2, 7)
    # x -> x^2 is in Σ over F_2, but on one block it does not keep u*u'
    square = np.array([ring.index(ring.mul(u, u)) for u in ring.elements()])
    monkeypatch.setattr(census, "equivalence_maps", lambda field, n: (block + [("x->x^2", square)], both))
    with pytest.raises(AssertionError, match="x->x\\^2 on one block"):
        code_orbits(F2, 7, pairs)
    # x* keeps u*u' on one block, but on both it does not commute with it
    shift = dict(block)["x^1*"]
    monkeypatch.setattr(census, "equivalence_maps", lambda field, n: (block, both + [("x* on both", shift)]))
    with pytest.raises(AssertionError, match="x\\* on both"):
        code_orbits(F2, 7, pairs)


def test_orbit_distances_charge_the_cap_per_orbit():
    # (2, 7): 6 orbits of 2^14 evaluations each
    pairs = self_dual_pairs(F2, 7)
    dists, orbits = orbit_distances(F2, 7, pairs, cap=6 * 2**14)
    assert orbits == 6 and dists.dtype == np.int64 and dists.tolist() == code_distances(F2, 7, pairs)
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
    # cross-check a deterministic sample of words: the sweep, the census and
    # the all-pairs scan
    for u_idx in range(0, len(sw.counts), 157):
        blocks = tuple(
            ring.element((u_idx // ring.size**i) % ring.size) for i in range(4)
        )
        rep = membership_census(F2, 3, blocks)
        assert sw.counts[sw.word_index(blocks)] == rep.count
        assert sw.unit_counts[sw.word_index(blocks)] == rep.unit_count
        assert sw.sd_counts[sw.word_index(blocks)] == rep.self_dual_count
        assert (rep.count, rep.unit_count, rep.self_dual_count) == membership_scan(F2, 3, blocks)


def _census_counts(field, n, blocks):
    rep = membership_census(field, n, blocks)
    return rep.count, rep.unit_count, rep.self_dual_count


def test_membership_census_matches_scan_every_word():
    ring = QuotientRing(F2, 2)
    for u_idx in range(ring.size**4):
        blocks = tuple(ring.element((u_idx // ring.size**i) % ring.size) for i in range(4))
        assert _census_counts(F2, 2, blocks) == membership_scan(F2, 2, blocks), blocks


@pytest.mark.parametrize("p,k,n", [(2, 1, 3), (3, 1, 3), (2, 2, 2), (3, 2, 2)])
def test_membership_census_matches_scan_sampled(p, k, n):
    field = Field(p, k)
    ring = QuotientRing(field, n)
    rng = random.Random(p * 100 + k * 10 + n)
    pairs = self_dual_pairs(field, n)

    def pick():
        return ring.element(rng.randrange(ring.size))

    words = [(ring.zero,) * 4] + [tuple(pick() for _ in range(4)) for _ in range(6)]
    # codewords of self-dual codes, where the self-dual count is nonzero
    for ai, bi in rng.sample(pairs.tolist(), 4):
        code = FourCirculantCode(ring, ring.element(ai), ring.element(bi))
        words.append(code.encode(pick(), pick()).blocks)
    sd_hits = 0
    for blocks in words:
        got = _census_counts(field, n, blocks)
        assert got == membership_scan(field, n, blocks), blocks
        sd_hits += got[2] > 0
    assert sd_hits >= 5  # the zero word and the four codewords


@pytest.mark.parametrize("p,k,n", [(2, 1, 1), (3, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2)])
def test_max_nonconstant_matches_scan(p, k, n):
    sw = membership_sweep(Field(p, k), n)
    for which in ("all", "unit", "self_dual"):
        got = sw.max_nonconstant(which)
        assert got == max_nonconstant_scan(sw, which), which
        assert all(type(v) is int for v in got)
    if n == 1:  # every residue of R(1, F_q) is constant: no word qualifies
        assert sw.max_nonconstant("all") == (-1, -1)


@pytest.mark.parametrize("p,k,n", [(2, 1, 3), (3, 1, 2), (2, 2, 2)])
def test_membership_sweep_tables(p, k, n, monkeypatch):
    # array('i') tables, 4 bytes a word, whose entries are Python ints;
    # test_max_nonconstant_matches_scan pins the maxima at these points
    field = Field(p, k)
    ring = QuotientRing(field, n)
    Q = ring.size
    sw = membership_sweep(field, n)
    tables = (sw.counts, sw.unit_counts, sw.sd_counts)
    for table in tables:
        assert len(table) == Q**4 and table.itemsize == 4
        assert type(table[-1]) is int and json.loads(json.dumps(table[-1])) == table[-1]
    # here one chunk holds every message; chunks of 3 messages, the last one short
    monkeypatch.setattr(census, "SWEEP_CHUNK_WORDS", 3 * Q * Q)
    small = membership_sweep(field, n)
    assert (small.counts, small.unit_counts, small.sd_counts) == tables
    # every word, but at (F_4, 2), where scanning all 65536 words takes about
    # half a minute, a seeded sample and codewords of self-dual codes
    words = range(Q**4)
    if k > 1:
        rng = random.Random(Q)
        words = rng.sample(words, 256)
        for ai, bi in rng.sample(self_dual_pairs(field, n).tolist(), 16):
            code = FourCirculantCode(ring, ring.element(ai), ring.element(bi))
            word = code.encode(ring.element(rng.randrange(Q)), ring.element(rng.randrange(Q)))
            words.append(sw.word_index(word.blocks))
    for u in words:
        blocks = tuple(ring.element(u // Q**i % Q) for i in range(4))
        assert tuple(table[u] for table in tables) == membership_scan(field, n, blocks), u


def _sweep_tables(field, n):
    sw = membership_sweep(field, n)
    return [np.frombuffer(table, dtype=np.intc) for table in (sw.counts, sw.unit_counts, sw.sd_counts)]


@functools.lru_cache(maxsize=3)  # the last three points below, read again by the H tests
def _oracle_tables(p, n):
    return membership_tables(Field(p), n)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (2, 4), (7, 2), (2, 5), (3, 3), (5, 2)])
def test_membership_sweep_matches_oracle_tables(p, n):
    for which, got, want in zip(("all", "unit", "self_dual"), _sweep_tables(Field(p), n), _oracle_tables(p, n)):
        np.testing.assert_array_equal(got, want, err_msg=which)


def _generated_group(perms):
    """Every composition of the given residue permutations, the given ones first."""
    group = {perm.tobytes(): perm for perm in perms}
    new = list(group.values())
    while new:
        found = {}
        for g in new:
            for h in perms:
                if (gh := g[h]).tobytes() not in group:
                    found[gh.tobytes()] = gh
        group.update(found)
        new = list(found.values())
    return list(group.values())


def _with_block(monkeypatch, field, n, block):
    both = equivalence_maps(field, n)[1]
    monkeypatch.setattr(census, "equivalence_maps", lambda field, n: (block, both))


@pytest.mark.parametrize("p,n,extra", [(5, 2, "2*u"), (2, 5, "x->x^2")])
def test_membership_sweep_tables_break_beyond_h(p, n, extra, monkeypatch):
    # H grown by the scalar 2 or by the multiplier x -> x^2, neither of them a
    # symmetry of the tables: the words read off the representatives go wrong
    field = Field(p)
    ring = QuotientRing(field, n)
    image = {
        "2*u": lambda u: ring.scalar_mul(2, u),
        "x->x^2": lambda u: tuple(u[j * pow(2, -1, n) % n] for j in range(n)),
    }[extra]
    bad = np.array([ring.index(image(u)) for u in ring.elements()])
    block = [h for _, h in equivalence_maps(field, n)[0]]
    grown = _generated_group(block + [bad])
    assert len(grown) > len({h.tobytes() for h in block})
    _with_block(monkeypatch, field, n, [(f"g{i}", g) for i, g in enumerate(grown)])
    for which, got, want in zip(("all", "unit", "self_dual"), _sweep_tables(field, n), _oracle_tables(p, n)):
        assert (got != want).any(), which


@pytest.mark.parametrize("p,n", [(2, 5), (3, 3), (5, 2)])
@pytest.mark.parametrize("keep", ["shifts", "signs"])
def test_membership_sweep_on_a_subgroup_of_h(p, n, keep, monkeypatch):
    # a subgroup of H (the shifts x^s*, or +-1) is still a symmetry: fewer
    # messages share a representative, and the tables stay the same
    field = Field(p)
    block = equivalence_maps(field, n)[0]
    kept = [(name, h) for name, h in block if (name[0] != "-" if keep == "shifts" else name.lstrip("-") == "x^0*")]
    _with_block(monkeypatch, field, n, kept)
    for which, got, want in zip(("all", "unit", "self_dual"), _sweep_tables(field, n), _oracle_tables(p, n)):
        np.testing.assert_array_equal(got, want, err_msg=which)


def test_membership_sweep_holds_no_other_table():
    # past the three tables of Q^4 words the sweep holds one chunk and an index
    # of Q^3 entries, and max_nonconstant holds no array of Q^4 entries
    Q = 2**5
    membership_sweep(F2, 5)  # ring tables and pair masks are cached
    tracemalloc.start()
    try:
        sw = membership_sweep(F2, 5)
        sweep_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for which in ("all", "unit", "self_dual"):
            sw.max_nonconstant(which)
        max_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sweep_peak - 3 * 4 * Q**4 < 4 * Q**4
    assert max_peak < Q**4


def test_membership_sweep_cap_counts_table_words():
    assert len(membership_sweep(F2, 2, cap=4**4).counts) == 4**4
    with pytest.raises(CapExceeded, match="tables hold 256 words, cap is 255"):
        membership_sweep(F2, 2, cap=4**4 - 1)


def test_membership_word_validation():
    ok = ((1, 0, 0), (0, 0, 0), (0, 1, 0), (0, 0, 0))
    bad = [
        (((1, 0), (0, 0, 0), (0, 1, 0), (0, 0, 0)), "block c"),  # 2 entries
        (((1, 0, 0), (0, 2, 0), (0, 1, 0), (0, 0, 0)), "block d"),  # code 2 in F_2
        (((1, 0, 0), (0, 0, 0), (0, 1, 0), (0, 0, 0, 1)), "block f"),  # 4 entries
        ((1, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0), "block e"),  # flat, a negative code
        ((1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), "flat vector of length 12"),
    ]
    assert membership_census(F2, 3, ok).count == 1
    for word, match in bad:
        with pytest.raises(ValueError, match=match):
            membership_census(F2, 3, word)
    sw = membership_sweep(F2, 2)
    assert sw.word_index([1, 0, 0, 0, 0, 0, 1, 1]) == 1 + 64 + 128
    with pytest.raises(ValueError, match="block f"):
        sw.word_index([1, 0, 0, 0, 0, 0, 0, 7])  # was index 897, past Q^4 = 256


UNIT_POINTS = [(2, 1, 1), (2, 1, 4), (2, 1, 6), (3, 1, 5), (3, 1, 6), (2, 2, 3), (5, 1, 4)]


@pytest.mark.parametrize("p,k,n", UNIT_POINTS)
def test_units_match_gcd_on_every_residue(p, k, n, monkeypatch):
    # one elimination over the values of u*u', gathered back to every
    # residue, against one gcd per residue; with factor_xn_minus_1 failing,
    # as the mask must not need the factors (p divides n at (2, 4), (2, 6)
    # and (3, 6))
    ring = QuotientRing(Field(p, k), n)
    want = np.array([gcd_is_unit(ring, u) for u in ring.elements()])

    def too_large(field, n):
        raise ValueError("splitting field above the cap")

    monkeypatch.setattr(polyring, "factor_xn_minus_1", too_large)
    polyring._ring_tables.cache_clear()
    try:
        units = ring.tables().units
        np.testing.assert_array_equal(units, want, strict=True)  # bool, as want
        assert not units.flags.writeable
    finally:
        polyring._ring_tables.cache_clear()
    assert 0 < want.sum() < ring.size


def unit_count_formula(q: int, n: int) -> int:
    """|R(n, F_q)^x| for n = p^e * m, p the characteristic and p not
    dividing m: the product over the cyclotomic cosets C of q mod m of
    (q^|C| - 1) * q^(|C| * (p^e - 1))."""
    p = next(r for r in range(2, q + 1) if q % r == 0)
    m, pe = n, 1
    while m % p == 0:
        m, pe = m // p, pe * p
    count, seen = 1, set()
    for start in range(m):
        if start not in seen:
            coset = {start * q**i % m for i in range(m)}
            seen |= coset
            count *= (q ** len(coset) - 1) * q ** (len(coset) * (pe - 1))
    return count


@pytest.mark.parametrize("p,k,n", UNIT_POINTS)
def test_unit_count_matches_closed_form(p, k, n):
    ring = QuotientRing(Field(p, k), n)
    assert int(ring.tables().units.sum()) == unit_count_formula(p**k, n)


def test_unit_count_formula_examples():
    # x^7 - 1 = (x + 1)(x^3 + x + 1)(x^3 + x^2 + 1) over F_2; (x + 1)^4 = x^4 - 1
    assert unit_count_formula(2, 7) == 1 * 7 * 7
    assert unit_count_formula(2, 4) == 1 * 2**3
    assert unit_count_formula(3, 1) == 2
    assert unit_count_formula(2, 19) == 262143  # one coset of size 18 besides {0}


def test_membership_census_cap_counts_its_work():
    # Q ring products of n^2 coefficient terms each, as for the pair sweep:
    # 2^7 * 49 at (2, 7), where Q^2 = 2^14 was charged before
    word = ((1,) + (0,) * 6, (0,) * 7, (0,) * 7, (0,) * 7)
    assert membership_census(F2, 7, word, cap=2**7 * 49).count == 1
    with pytest.raises(CapExceeded, match="6272 coefficient products"):
        membership_census(F2, 7, word, cap=2**7 * 49 - 1)


def test_refusals_at_huge_n_write_powers():
    # q^n of 30,103 digits: each message writes it as a power
    word = ((0,) * 100000,) * 4
    with pytest.raises(CapExceeded, match=r"needs 10000000000\*2\^100000 coefficient products"):
        membership_census(F2, 100000, word)
    with pytest.raises(CapExceeded, match=r"needs 10000000000\*2\^100000 coefficient products"):
        self_dual_pairs(F2, 100000)
    with pytest.raises(CapExceeded, match=r"tables hold 2\^400000 words"):
        membership_sweep(F2, 100000)


def test_membership_census_builds_no_weight_table():
    # the census reads only the O(Q*n) ring tables; a Q x Q table of
    # weight(u + v) at (2, 13) would peak near 67 MB
    word = ((1, 1) + (0,) * 11, (0, 1) + (0,) * 11, (0,) * 13, (1,) + (0,) * 12)
    polyring._ring_tables.cache_clear()
    tracemalloc.start()
    try:
        membership_census(F2, 13, word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert largest_table(QuotientRing(F2, 13).tables()) <= 2**13 * 13


def test_membership_builds_no_extension_field(monkeypatch):
    # the unit mask reads u*u', not the factors of x^n - 1, which at (3, 5)
    # would need F_81 and at (2, 6) the factors of x^3 - 1 over F_4
    built = []
    init = Field.__init__

    def counting_init(self, p, k=1, modulus=None):
        built.append((p, k))
        init(self, p, k, modulus)

    def no_factors(field, n):
        raise AssertionError("membership factors x^n - 1")

    monkeypatch.setattr(Field, "__init__", counting_init)
    monkeypatch.setattr(polyring, "factor_xn_minus_1", no_factors)
    caches = (fields.default_field, polyring._ring_tables, census._self_duality)
    for cache in caches:
        cache.cache_clear()
    try:
        word = ((1, 2, 0, 0, 0), (0, 1, 1, 0, 0), (2,) * 5, (0, 0, 1, 0, 0))
        assert membership_census(F3, 5, word).unit_count <= 3**5 * 2
        assert max(membership_sweep(F2, 2).unit_counts) > 0
        membership_census(F2, 6, ((1,) + (0,) * 5,) + ((0,) * 6,) * 3)
    finally:
        for cache in caches:
            cache.cache_clear()
    assert built == []


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


@pytest.mark.parametrize("field, n", [(F2, 3), (F2, 4), (F2, 5), (F3, 3), (F4, 3)])
def test_membership_count_one_exactly_when_unique(field, n):
    # over every word: (a, b) -> (c*a - d*b', c*b + d*a') is F_q-linear, so
    # a word lies in one code exactly when that map is injective, that is
    # when c*c' + d*d' is a unit (one gcd each, not the tables' mask); n = 4
    # has repeated roots
    ring = QuotientRing(field, n)
    Q = ring.size
    elems = list(ring.elements())
    norms = [ring.mul(u, ring.reciprocal(u)) for u in elems]
    unique = np.array([gcd_is_unit(ring, ring.add(norms[c], norms[d])) for d in range(Q) for c in range(Q)])  # at c + Q*d
    counts = np.frombuffer(membership_sweep(field, n).counts, dtype=np.intc).reshape(Q * Q, Q * Q)
    np.testing.assert_array_equal(counts == 1, np.broadcast_to(unique, counts.shape))
    assert 0 < unique.sum() < Q * Q


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


def test_smallest_prime_factors():
    spf = census._smallest_prime_factors(5000)
    assert spf[:2].tolist() == [0, 0]
    for m in range(2, 5001):
        assert spf[m] == next(p for p in range(2, m + 1) if m % p == 0), m


@pytest.mark.parametrize("q", [2, 3, 4, 5, 10])
def test_artin_scan_matches_trial_division(q):
    # the sieve's primes of each n - 1 against is_primitive_root, which
    # trial-divides n and n - 1
    limit = 10**5
    odd_primes = [n for n in range(3, limit + 1, 2) if is_prime(n) and q % n]
    rep = artin_scan(q, limit)
    assert rep.primes == tuple(n for n in odd_primes if is_primitive_root(q, n))
    assert rep.candidates == len(odd_primes)
