import numpy as np
import pytest

from fourcirc.codes import (
    CapExceeded,
    FourCirculantCode,
    circulant,
    self_dual_matrix_sweep,
)
from fourcirc.fields import Field
from fourcirc.polyring import QuotientRing

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
    assert code23(X, ZERO).is_self_dual_matrix()
    assert not code23(ZERO, ZERO).is_self_dual_matrix()


def test_matrix_agrees_with_poly_exhaustive_2_3():
    for ai in range(8):
        for bi in range(8):
            code = code23(R23.element(ai), R23.element(bi))
            assert code.is_self_dual_poly() == code.is_self_dual_matrix()


def poly_truth_table(field, n):
    from fourcirc.census import self_dual_pairs

    size = QuotientRing(field, n).size
    poly = np.zeros(size**2, dtype=bool)
    for ai, bi in self_dual_pairs(field, n):
        poly[ai * size + bi] = True
    return poly


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
            assert sweep[ai * 8 + bi] == code.is_self_dual_matrix()
    ring4 = QuotientRing(F4, 2)
    pairs = [(ai, bi) for ai in range(6) for bi in range(6)]
    sweep4 = self_dual_matrix_sweep(F4, 2, pairs=pairs)
    for (ai, bi), got in zip(pairs, sweep4):
        code = FourCirculantCode(ring4, ring4.element(ai), ring4.element(bi))
        assert got == code.is_self_dual_matrix()
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
                G = code.generator_matrix()
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


def second_pass_distance(code):
    """Independent oracle: d-major enumeration in reverse, plain encode calls."""
    ring = code.ring
    best = 4 * code.n + 1
    for di in reversed(range(ring.size)):
        for ci in reversed(range(ring.size)):
            if ci == 0 and di == 0:
                continue
            w = code.encode(ring.element(ci), ring.element(di)).weight
            if w < best:
                best = w
    return best


def test_min_distance_second_pass_oracle():
    cases = [(F2, 3), (F3, 3), (F4, 2)]
    for field, n in cases:
        ring = QuotientRing(field, n)
        for idx in range(0, ring.size**2, max(1, ring.size**2 // 40)):
            ai, bi = divmod(idx, ring.size)
            code = FourCirculantCode(ring, ring.element(ai), ring.element(bi))
            assert code.min_distance()[0] == second_pass_distance(code)


def test_min_distance_without_tables_matches():
    # the dense-table kernel against the per-message fallback scan, which a
    # fresh ring with suppressed tables selects; distance and witness agree
    from fourcirc.census import self_dual_pairs

    r33 = QuotientRing(F3, 3)
    cases = [
        (F3, 3, [(r33.index((1, 1, 0)), r33.index((1, 0, 2)))]),
        (F2, 5, self_dual_pairs(F2, 5)),
        (F4, 3, [(1, 0), (5, 17), (23, 42), (63, 63)]),
        (Field(3, 2), 2, [(1, 0), (10, 29), (40, 80), (77, 5)]),
    ]
    for field, n, pairs in cases:
        ring = QuotientRing(field, n)
        plain = QuotientRing(field, n)
        plain._tables_checked = True
        for ai, bi in pairs:
            a, b = ring.element(ai), ring.element(bi)
            d_tables, w_tables = FourCirculantCode(ring, a, b).min_distance()
            d_plain, w_plain = FourCirculantCode(plain, a, b).min_distance()
            assert (d_tables, w_tables.blocks) == (d_plain, w_plain.blocks), (field.q, n, ai, bi)
        assert ring.tables() is not None and plain.tables() is None


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
