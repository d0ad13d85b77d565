import math
import time
import tracemalloc

import numpy as np
import pytest

from fourcirc import codes, polyring
from fourcirc.census import code_distances, code_orbits, self_dual_pairs
from fourcirc.codes import CapExceeded, FourCirculantCode, least_weight_messages
from fourcirc.fields import Field
from fourcirc.polyring import QuotientRing

from oracles import (
    circulant,
    encode_scan_distance,
    generator_matrix,
    generator_matrix_distance,
    is_self_dual_matrix,
    light_message_weight,
    message_weights,
    poly_truth_table,
    second_pass_distance,
    self_dual_matrix_sweep,
)

F2, F3, F4, F5, F8 = Field(2), Field(3), Field(2, 2), Field(5), Field(2, 3)
R23 = QuotientRing(F2, 3)

X = (0, 1, 0)
ZERO = (0, 0, 0)
ONE = (1, 0, 0)


def code23(a, b):
    return FourCirculantCode(R23, a, b)


def test_circulant_shift_structure():
    M = circulant((1, 2, 3))
    assert M == [[1, 2, 3], [3, 1, 2], [2, 3, 1]]
    # each row is the cyclic right-shift of the previous one
    for i in range(1, 3):
        assert M[i] == [M[i - 1][-1]] + M[i - 1][:-1]


def test_encode_generators():
    code = code23(X, ZERO)
    w1 = code.encode(ONE, ZERO)
    assert w1.blocks == (ONE, ZERO, X, ZERO)
    assert w1.weight == 2
    w2 = code.encode(ZERO, ONE)
    assert w2.blocks == (ZERO, ONE, code.ring.neg(code.b_rec), code.a_rec)


def test_encode_linearity():
    ring = QuotientRing(F3, 4)
    code = FourCirculantCode(ring, (1, 2, 0, 1), (0, 1, 1, 0))
    for _ in range(50):
        i1, i2, j1, j2 = np.random.RandomState(_).randint(0, ring.size, 4)
        c1, c2 = ring.element(int(i1)), ring.element(int(i2))
        d1, d2 = ring.element(int(j1)), ring.element(int(j2))
        lhs = code.encode(ring.add(c1, c2), ring.add(d1, d2))
        w1, w2 = code.encode(c1, d1), code.encode(c2, d2)
        summed = tuple(
            ring.add(b1, b2) for b1, b2 in zip(w1.blocks, w2.blocks)
        )
        assert lhs.blocks == summed


def test_encode_injectivity():
    code = code23(X, (1, 1, 0))
    words = {code.encode(R23.element(i), R23.element(j)).vector
             for i in range(8) for j in range(8)}
    assert len(words) == 64  # q^(2n)


def test_self_dual_poly_examples():
    assert code23(X, ZERO).is_self_dual_poly()
    assert not code23(ZERO, ZERO).is_self_dual_poly()
    # criterion residue of the zero pair is the constant 1
    assert code23(ZERO, ZERO).criterion_residue() == ONE


def test_self_dual_matrix_examples():
    assert is_self_dual_matrix(code23(X, ZERO))
    assert not is_self_dual_matrix(code23(ZERO, ZERO))


def test_matrix_agrees_with_poly_exhaustive_2_3():
    for ai in range(8):
        for bi in range(8):
            code = code23(R23.element(ai), R23.element(bi))
            assert code.is_self_dual_poly() == is_self_dual_matrix(code)


def test_matrix_agrees_with_poly_exhaustive_5_3():
    field = Field(5)
    assert (self_dual_matrix_sweep(field, 3) == poly_truth_table(field, 3)).all()


@pytest.mark.parametrize("field", [Field(2, 3), Field(3, 2)], ids=["q8", "q9"])
def test_matrix_agrees_with_poly_exhaustive_extension(field):
    # F_8 and F_9 multiplication matrices are not symmetric, unlike F_4's
    poly = poly_truth_table(field, 2)
    assert poly.any()
    assert (self_dual_matrix_sweep(field, 2) == poly).all()


def test_matrix_sweep_agrees_with_single_calls():
    # batched path vs per-code expansion on every pair, then on F_4 spot pairs
    sweep = self_dual_matrix_sweep(F2, 3)
    for ai in range(8):
        for bi in range(8):
            code = code23(R23.element(ai), R23.element(bi))
            assert sweep[ai * 8 + bi] == is_self_dual_matrix(code)
    ring4 = QuotientRing(F4, 2)
    pairs = [(ai, bi) for ai in range(6) for bi in range(6)]
    sweep4 = self_dual_matrix_sweep(F4, 2, pairs=pairs)
    for (ai, bi), got in zip(pairs, sweep4):
        code = FourCirculantCode(ring4, ring4.element(ai), ring4.element(bi))
        assert got == is_self_dual_matrix(code)
        assert got == code.is_self_dual_poly()


def test_lcd_examples():
    assert code23(X, ONE).is_lcd()
    assert not code23(X, ZERO).is_lcd()
    # self-dual and complementary-dual exclude each other
    for ai in range(8):
        for bi in range(8):
            code = code23(R23.element(ai), R23.element(bi))
            assert not (code.is_self_dual_poly() and code.is_lcd())


def test_self_orthogonality_when_self_dual():
    rng = np.random.RandomState(11)
    for field, n in [(F2, 3), (F3, 3)]:
        ring = QuotientRing(field, n)
        for ai in range(ring.size):
            for bi in range(ring.size):
                code = FourCirculantCode(ring, ring.element(ai), ring.element(bi))
                if not code.is_self_dual_poly():
                    continue
                G = generator_matrix(code)
                rows = len(G)
                for i in range(rows):
                    for j in range(rows):
                        s = 0
                        for t in range(4 * n):
                            s = field.add(s, field.mul(G[i][t], G[j][t]))
                        assert s == 0
                # sampled codewords are orthogonal to each other
                words = []
                for _ in range(8):
                    ci, di = rng.randint(0, ring.size, 2)
                    words.append(code.encode(ring.element(int(ci)), ring.element(int(di))))
                for w1 in words:
                    for w2 in words:
                        s = 0
                        for x, y in zip(w1.vector, w2.vector):
                            s = field.add(s, field.mul(x, y))
                        assert s == 0


def test_contains():
    code = code23(X, ZERO)
    w = code.encode((1, 1, 0), (0, 1, 1))
    assert code.contains(w)
    assert code.contains(w.vector)
    assert code.contains((0,) * 12)
    assert not code.contains((1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0))  # f must be 0
    with pytest.raises(ValueError):
        code.contains((0,) * 5)
    # the same word forms and checks as the membership census
    assert code.contains(w.blocks)
    with pytest.raises(ValueError, match="block e"):
        code.contains((1, 1, 0, 0, 1, 1, 0, 2, 0, 0, 0, 0))


def test_min_distance_example():
    code = code23(X, ZERO)
    d, witness = code.min_distance()
    assert d == 2
    assert witness.weight == 2
    # brute-force oracle over all 64 codewords, different enumeration order
    weights = []
    for di in reversed(range(8)):
        for ci in reversed(range(8)):
            if ci == 0 and di == 0:
                continue
            weights.append(code.encode(R23.element(ci), R23.element(di)).weight)
    assert min(weights) == 2


def test_min_distance_second_pass_oracle():
    cases = [(F2, 3), (F3, 3), (F4, 2)]
    for field, n in cases:
        ring = QuotientRing(field, n)
        for idx in range(0, ring.size**2, max(1, ring.size**2 // 40)):
            ai, bi = divmod(idx, ring.size)
            code = FourCirculantCode(ring, ring.element(ai), ring.element(bi))
            assert code.min_distance()[0] == second_pass_distance(code)


def test_min_distance_matches_encode_scan():
    # the engine against a per-message encode scan: distance and witness agree
    r33 = QuotientRing(F3, 3)
    cases = [
        (F3, 3, [(r33.index((1, 1, 0)), r33.index((1, 0, 2)))]),
        (F2, 5, self_dual_pairs(F2, 5)),
        (F4, 3, [(1, 0), (5, 17), (23, 42), (63, 63)]),
        (Field(3, 2), 2, [(1, 0), (10, 29), (40, 80), (77, 5)]),
    ]
    for field, n, pairs in cases:
        ring = QuotientRing(field, n)
        for ai, bi in pairs:
            code = FourCirculantCode(ring, ring.element(ai), ring.element(bi))
            d, witness = code.min_distance()
            d_scan, w_scan = encode_scan_distance(code)
            assert (d, witness.blocks) == (d_scan, w_scan.blocks), (field.q, n, ai, bi)


@pytest.mark.parametrize(
    "p,n,a,b",
    [
        (2, 11, (1, 0, 1), (1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 1)),  # self-dual, d = 8
        (3, 7, (1, 1), (2, 1, 1, 2, 0, 1, 1)),  # self-dual, d = 9
    ],
)
def test_min_distance_above_1024_elements(p, n, a, b):
    # Q = 2048 and 2187: a per-message encode scan takes minutes per code here
    ring = QuotientRing(Field(p), n)
    code = FourCirculantCode(ring, a + (0,) * (n - len(a)), b)
    assert code.is_self_dual_poly()
    start = time.perf_counter()
    d, witness = code.min_distance()
    elapsed = time.perf_counter() - start
    d_ref, ci, di = generator_matrix_distance(code)
    assert (d, witness.blocks[:2]) == (d_ref, (ring.element(ci), ring.element(di)))
    assert witness.weight == d
    assert elapsed < 20, f"min_distance took {elapsed:.1f} s at Q = {ring.size}"


def test_message_weights_above_1024_elements_match_generator_matrix():
    # Q = 4096: 16 random message rows c of two self-dual codes in the
    # oracle's weight arrays against [c d] G mod 2 for every d, without tables
    n = 12
    ring = QuotientRing(F2, n)
    rng = np.random.default_rng(12)
    pairs = self_dual_pairs(F2, n)
    pairs = pairs[rng.choice(len(pairs), 2, replace=False)]
    msgs = (np.arange(ring.size)[:, None] // 2 ** np.arange(n) % 2).astype(np.int32)
    for (ai, bi), wt in zip(pairs.tolist(), message_weights(ring.tables(), pairs)):
        code = FourCirculantCode(ring, ring.element(ai), ring.element(bi))
        assert code.is_self_dual_poly()
        G = np.array(generator_matrix(code), dtype=np.int32)
        from_d = msgs @ G[n:]
        for ci in rng.choice(ring.size, 16, replace=False):
            expect = np.count_nonzero((msgs[ci] @ G[:n] + from_d) % 2, axis=1)
            if ci == 0:
                expect[0] = 4 * n + 1
            assert np.array_equal(wt[ci], expect), (ai, bi, ci)


def test_min_distance_cap():
    code = code23(X, ZERO)
    with pytest.raises(CapExceeded):
        code.min_distance(cap=10)


def test_witness_is_least_message():
    code = code23(X, ZERO)
    _, witness = code.min_distance()
    # message (c, d) = (0, 1) has index 1 in c-major order and weight 2,
    # and no earlier nonzero message does better
    assert witness.blocks[0] == ZERO
    assert witness.blocks[1] == ONE


def test_validation():
    with pytest.raises(ValueError):
        FourCirculantCode(R23, (0, 1), ZERO)
    with pytest.raises(ValueError):
        FourCirculantCode(R23, (0, 5, 0), ZERO)


def kernel_least(ring, pairs):
    """(weight, least message (c, d)) of each pair of an index pair array,
    from the oracle's Q x Q weights: the argmin c_index * Q + d_index."""
    out = []
    for wt in message_weights(ring.tables(), pairs):
        ci, di = divmod(int(wt.argmin()), ring.size)
        out.append((int(wt[ci, di]), (ring.element(ci), ring.element(di))))
    return out


def engine_least(ring, pairs, witness=True):
    """(weight, message) of each pair of an index pair array, given to the engine as coefficient rows."""
    rows = ring.tables().coeffs[pairs]
    return [(m.weight, m.message) for m in least_weight_messages(ring, rows, witness=witness)]


def orbit_representatives(field, n):
    pairs = self_dual_pairs(field, n)
    labels = code_orbits(field, n, pairs)
    return pairs[labels == np.arange(len(labels))]


@pytest.mark.parametrize(
    "field, n", [(F2, 5), (F2, 7), (F3, 5), (F4, 4), (F5, 3), (F2, 9)], ids=["2,5", "2,7", "3,5", "4,4", "5,3", "2,9"]
)
def test_engine_matches_kernel_on_every_orbit(field, n):
    # the distance and the least message of that weight, on every orbit
    # representative; without the witness level the distance still agrees
    ring = QuotientRing(field, n)
    reps = orbit_representatives(field, n)
    expect = kernel_least(ring, reps)
    assert engine_least(ring, reps) == expect
    assert [w for w, _ in engine_least(ring, reps, witness=False)] == [w for w, _ in expect]


@pytest.mark.parametrize(
    "field, n, count", [(F3, 6, 12), (F2, 10, 8), (F8, 3, 12), (F2, 12, 2)], ids=["3,6", "2,10", "8,3", "2,12"]
)
def test_engine_matches_kernel_on_samples(field, n, count):
    ring = QuotientRing(field, n)
    pairs = self_dual_pairs(field, n)
    pairs = pairs[np.random.default_rng(n).choice(len(pairs), count, replace=False)]
    assert engine_least(ring, pairs) == kernel_least(ring, pairs)


@pytest.mark.parametrize(
    "field, n",
    [(F2, 1), (F5, 1), (F2, 6), (F2, 7), (F3, 5), (F4, 4), (F5, 3), (F8, 3)],
    ids=["2,1", "5,1", "2,6", "2,7", "3,5", "4,4", "5,3", "8,3"],
)
def test_engine_on_pairs_that_are_not_self_dual(field, n):
    # Delta = a*a' + b*b' is a unit: both halves with Delta^-1, levels 1 to
    # d // 2 on each; not a unit: the left half alone, levels 1 to d.  At
    # (5, 1), a^2 + b^2 = 0 has nonzero solutions
    ring = QuotientRing(field, n)
    pairs = np.random.default_rng(7).integers(0, ring.size, size=(60, 2))
    units = []
    for ai, bi in pairs:
        code = FourCirculantCode(ring, ring.element(ai), ring.element(bi))
        units.append(ring.is_unit(ring.add(code.criterion_residue(), ring.neg(ring.one))))
    assert 0 < sum(units) < len(units)
    expect = kernel_least(ring, pairs)
    assert engine_least(ring, pairs) == expect
    levels = [math.comb(2 * n, w) * (field.q - 1) ** w for w in range(2 * n + 1)]
    counts = [m.messages for m in least_weight_messages(ring, ring.tables().coeffs[pairs])]
    for (d, _), count, unit in zip(expect, counts, units):
        assert count == (2 * sum(levels[1 : d // 2 + 1]) if unit else sum(levels[1 : d + 1])), (d, unit)


@pytest.mark.parametrize("field, n", [(F3, 5), (F2, 7)], ids=["3,5", "2,7"])
def test_dropping_a_generator_row_changes_some_distance(field, n, monkeypatch):
    # the last row of the matrix of c -> c*a, of c = x^(n-1), zeroed: some
    # orbit representative then disagrees with the message-weight oracle
    ring = QuotientRing(field, n)
    reps = orbit_representatives(field, n)
    expect = kernel_least(ring, reps)
    assert engine_least(ring, reps) == expect
    real = codes.times_matrices

    def dropped(field, coeffs):
        out = real(field, coeffs)
        out[:, 0, -1] = 0  # [code, matrix of a, b, a', b', row]
        return out

    monkeypatch.setattr(codes, "times_matrices", dropped)
    assert engine_least(ring, reps) != expect


@pytest.mark.parametrize("field, n", [(F2, 10), (F3, 6), (F4, 4)], ids=["2,10", "3,6", "4,4"])
def test_distances_build_no_ring_tables(field, n, monkeypatch):
    # the engine reads generator rows: min_distance and code_distances build
    # no RingTables, whose arrays span all Q ring elements
    ring = QuotientRing(field, n)
    pairs = self_dual_pairs(field, n)[::97]
    polyring._ring_tables.cache_clear()
    built = []
    real = polyring.RingTables.__init__
    monkeypatch.setattr(polyring.RingTables, "__init__", lambda t, ring: built.append(ring) or real(t, ring))
    code = FourCirculantCode(ring, ring.element(pairs[0, 0]), ring.element(pairs[0, 1]))
    d, _ = code.min_distance()
    assert code_distances(field, n, pairs)[0] == d
    assert built == [] and polyring._ring_tables.cache_info().currsize == 0


def test_min_distance_of_a_non_unit_pair_builds_no_square_table():
    # at (2, 12) Delta is not a unit, and the left half alone is searched
    # with arrays of about Q entries; one Q x Q int8 weight table is Q^2 bytes
    ring = QuotientRing(F2, 12)
    a, b = (0, 1, 1, 0, 0, 1, 1, 1, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1)
    code = FourCirculantCode(ring, a, b)
    assert not ring.is_unit(ring.add(code.criterion_residue(), ring.neg(ring.one)))
    polyring._ring_tables.cache_clear()
    tracemalloc.start()
    try:
        d, witness = code.min_distance()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ring.size**2 // 4
    [(expect, message)] = kernel_least(ring, np.array([[ring.index(a), ring.index(b)]]))
    assert d == expect == 8
    assert witness.blocks[:2] == message


def test_zimmermann_stop_misses_the_least_witness():
    # Stopping at the bound 2(w + 1) >= best finds the distance but can miss
    # the least message of that weight: at (3, 5), d = 6, the pair (41, 43)
    # has its least weight-6 word, message 14, at weight 3 on both halves.
    # The bound stops after levels 1 and 2, so only the witness level w = 3
    # sees it
    ring = QuotientRing(F3, 5)
    pair = np.array([[41, 43]])
    word = FourCirculantCode(ring, ring.element(41), ring.element(43)).encode(ring.zero, ring.element(14))
    c, d, e, f = word.blocks
    assert np.count_nonzero(c + d) == np.count_nonzero(e + f) == 3
    levels = [math.comb(10, w) * 2**w for w in range(4)]  # messages of weight w on one half
    [bound] = least_weight_messages(ring, ring.tables().coeffs[pair], witness=False)
    assert (bound.weight, bound.message, bound.messages) == (6, None, 2 * sum(levels[1:3]))
    [full] = least_weight_messages(ring, ring.tables().coeffs[pair])
    message = (ring.zero, ring.element(14))
    assert (full.weight, full.message, full.messages) == (6, message, 2 * sum(levels[1:4]))
    assert kernel_least(ring, pair) == [(6, message)]


@pytest.mark.parametrize("n", [63, 64, 65, 70, 101])
def test_min_distance_past_int64_residue_indices(n):
    # q^n from 2^63, the last length whose residue indices fit int64, to
    # 2^101: message (0, 1) gives the weight-4 word (0, 1, -b', a').  A
    # word of weight at most 3 has a message of weight at most 3, and the
    # oracle sums every such set of generator matrix rows, so no nonzero
    # word weighs less than 4
    ring = QuotientRing(F2, n)
    code = FourCirculantCode(ring, ring.one, (0, 1, 1) + (0,) * (n - 3))
    d, witness = code.min_distance(cap=10**80)
    assert d == witness.weight == 4 and witness.blocks[:2] == (ring.zero, ring.one)
    assert code.contains(witness)
    assert light_message_weight(code) == 4


def test_min_distance_counts_the_messages_it_evaluates():
    # levels 1..d // 2 on both halves of a self-dual code; level w holds the
    # C(14, w) binary messages of weight w
    ring = QuotientRing(F2, 7)
    ai, bi = self_dual_pairs(F2, 7)[100]
    code = FourCirculantCode(ring, ring.element(ai), ring.element(bi))
    levels = sum(math.comb(14, w) for w in range(1, code.min_distance()[0] // 2 + 1))
    counters = {"messages_enumerated": 5}
    code.min_distance(counters=counters)
    assert counters == {"messages_enumerated": 5 + 2 * levels}
