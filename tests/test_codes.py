import time

import numpy as np
import pytest

from fourcirc import codes
from fourcirc.census import self_dual_pairs
from fourcirc.codes import CapExceeded, FourCirculantCode, message_weights
from fourcirc.fields import Field
from fourcirc.polyring import QuotientRing

from oracles import (
    circulant,
    encode_scan_distance,
    generator_matrix,
    generator_matrix_distance,
    is_self_dual_matrix,
    poly_truth_table,
    second_pass_distance,
    self_dual_matrix_sweep,
)

F2, F3, F4 = Field(2), Field(3), Field(2, 2)
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
    # the table kernel against a per-message encode scan: distance and witness agree
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
    # Q = 4096, where the kernel fills 16 row blocks: 16 random message rows
    # c of two self-dual codes against [c d] G mod 2 for every d, without tables
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


@pytest.mark.parametrize("entries", [1, 1000, 4096])
def test_message_weights_row_blocks_keep_weights(monkeypatch, entries):
    # Q = 243 in blocks of 1, 4 and 16 rows; the last two leave a short last block
    t = QuotientRing(F3, 5).tables()
    pairs = self_dual_pairs(F3, 5)[::97]
    whole = list(message_weights(t, pairs))
    monkeypatch.setattr(codes, "KERNEL_BLOCK_ENTRIES", entries)
    for expect, wt in zip(whole, message_weights(t, pairs)):
        assert np.array_equal(wt, expect)


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
