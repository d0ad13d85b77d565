import math

import pytest
from hypothesis import given, settings, strategies as st

from fourcirc.asympt import ball_volume, entropy, entropy_inverse, expurgation_bound

from oracles import entropy_volume_gap


def test_entropy_examples():
    assert entropy(2, 0) == 0.0
    assert entropy(2, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert entropy(3, 2 / 3) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        entropy(2, 0.6)
    with pytest.raises(ValueError):
        entropy(2, -0.1)
    with pytest.raises(ValueError):
        entropy(1, 0.2)


def test_entropy_monotone():
    for q in (2, 3, 4, 5):
        hi = (q - 1) / q
        grid = [hi * (i + 1) / 402 for i in range(400)]
        vals = [entropy(q, t) for t in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_entropy_inverse_examples():
    assert entropy_inverse(2, 1) == 0.5
    assert entropy_inverse(2, 0) == 0.0
    t = entropy_inverse(2, 1 / 8)
    assert abs(entropy(2, t) - 1 / 8) < 1e-10


def test_entropy_round_trip_grid():
    for q in (2, 3, 4, 5):
        hi = (q - 1) / q
        for i in range(200):
            t = hi * (i + 1) / 202
            assert abs(entropy_inverse(q, entropy(q, t)) - t) < 1e-10
    with pytest.raises(ValueError):
        entropy_inverse(2, 1.5)


def test_ball_volume_examples():
    assert ball_volume(2, 12, 2) == 1 + 12 + 66
    assert ball_volume(7, 30, 0) == 1
    assert ball_volume(2, 52, 52) == 2**52
    with pytest.raises(ValueError):
        ball_volume(2, 10, 11)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 4, 5]), st.integers(1, 64), st.data())
def test_ball_volume_recurrence(q, N, data):
    r = data.draw(st.integers(1, N))
    assert ball_volume(q, N, r) == ball_volume(q, N, r - 1) + math.comb(N, r) * (q - 1) ** r
    assert ball_volume(q, N, N) == q**N


def test_entropy_volume_gap():
    g = entropy_volume_gap(2, 0.25, 64)
    assert -0.25 < g < 0
    gaps = [abs(entropy_volume_gap(2, 0.25, N)) for N in (64, 128, 256, 512)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert entropy_volume_gap(2, 0.5, 40) <= 0


def test_guarantee_meets_entropy_target_at_large_length():
    """At lengths where the counting inequality has room, the guaranteed
    relative distance carries entropy at least 1/8 (exact ball volumes sit
    below the entropy estimate, so the finite-length guarantee is at least
    as strong as the asymptotic one)."""
    for n in (53, 101):
        rep = expurgation_bound(2, n)
        assert rep.guaranteed_distance is not None
        assert rep.entropy_at_guarantee >= 1 / 8
        assert rep.guaranteed_distance / (4 * n) >= rep.delta_star


def test_bad_bounds_nondecreasing():
    rep = expurgation_bound(2, 13)
    vals = [v for _, v in rep.bad_bounds]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_expurgation_bound_2_13():
    rep = expurgation_bound(2, 13)
    # totals recomputed from scratch
    assert rep.total_self_dual == 2 * (2**6 + 1) * (2**12 - 2**6) == 524160
    d1 = dict(rep.bad_bounds)[1]
    assert d1 == 2**13 * 1 * 52 == 425984
    assert d1 < rep.total_self_dual
    assert dict(rep.bad_bounds)[2] >= rep.total_self_dual
    assert rep.guaranteed_distance == 2
    assert abs(entropy(2, rep.delta_star) - 1 / 8) < 1e-10
    assert rep.entropy_at_guarantee == pytest.approx(entropy(2, 2 / 52))
    assert rep.notes


def test_expurgation_bound_small_n_is_vacuous():
    rep = expurgation_bound(2, 3)
    assert rep.total_self_dual == 12
    assert dict(rep.bad_bounds)[1] == 8 * 12 == 96
    assert rep.guaranteed_distance is None
    assert rep.entropy_at_guarantee is None


def test_expurgation_bound_hypotheses():
    with pytest.raises(ValueError):
        expurgation_bound(2, 7)  # 2 is not a primitive root mod 7
    with pytest.raises(ValueError):
        expurgation_bound(3, 9)  # not prime
    with pytest.raises(ValueError):
        expurgation_bound(3, 3)  # gcd > 1
    with pytest.raises(ValueError):
        expurgation_bound(2, 2)  # even


def test_expurgation_accepts_field_or_int():
    from fourcirc.fields import Field

    assert expurgation_bound(Field(2), 13).total_self_dual == expurgation_bound(2, 13).total_self_dual


def test_bound_consistent_with_census():
    """Where both the bound and an exhaustive census run, any distance
    guarantee must be realized by an actual code (vacuous guarantees hold
    trivially; at desk scale the bound only bites at lengths like n = 13)."""
    from fourcirc.census import code_distances, self_dual_pairs
    from fourcirc.fields import Field

    for p, n in [(2, 3), (2, 5), (3, 5), (5, 3)]:
        field = Field(p)
        rep = expurgation_bound(field, n)
        pairs = self_dual_pairs(field, n)
        assert rep.total_self_dual == len(pairs)
        best = max(code_distances(field, n, pairs))
        if rep.guaranteed_distance is not None:
            assert best >= rep.guaranteed_distance
        else:
            assert best >= 1
