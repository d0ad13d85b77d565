"""q-ary entropy, exact Hamming ball volumes, and the expurgation bound.

The expurgation argument compares, at a fixed length, the number of
self-dual pairs against an upper bound on how many of them can contain a
word of weight at most d.  The count side uses the exact closed form, the
ball side exact binomial volumes, so the comparison is an integer
inequality with no asymptotic slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from .census import self_dual_count_formula
from .fields import Field, field_of_order, is_prime
from .polyring import is_primitive_root

_BISECT_TOL = 1e-12


def entropy(q: int, t: float) -> float:
    """q-ary entropy H_q(t) for 0 <= t <= (q-1)/q.

    H_q(0) = 0 and otherwise
    H_q(t) = t*log_q(q-1) - t*log_q(t) - (1-t)*log_q(1-t).
    """
    if q < 2:
        raise ValueError(f"entropy needs q >= 2, got {q}")
    hi = (q - 1) / q
    if not 0 <= t <= hi + 1e-15:
        raise ValueError(f"t = {t} outside [0, {hi}]")
    if t == 0:
        return 0.0
    t = min(t, hi)
    lq = math.log(q)
    val = t * math.log(q - 1) / lq - t * math.log(t) / lq
    if t < 1.0:
        val -= (1 - t) * math.log(1 - t) / lq
    return val


def entropy_inverse(q: int, y: float) -> float:
    """The unique t in [0, (q-1)/q] with H_q(t) = y, by bisection.

    H_q is strictly increasing on this interval, so bisection to interval
    width 1e-12 pins t.
    """
    if not 0 <= y <= 1:
        raise ValueError(f"y = {y} outside [0, 1]")
    hi_t = (q - 1) / q
    if y == 0:
        return 0.0
    if y == 1:
        return hi_t
    lo, hi = 0.0, hi_t
    while hi - lo > _BISECT_TOL:
        mid = (lo + hi) / 2
        if entropy(q, mid) < y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def ball_volume(q: int, N: int, r: int) -> int:
    """Exact number of words of F_q^N within Hamming distance r of a point."""
    if not 0 <= r <= N:
        raise ValueError(f"radius {r} outside [0, {N}]")
    return sum(math.comb(N, i) * (q - 1) ** i for i in range(r + 1))


@dataclass(frozen=True)
class BoundReport:
    """Finite-length expurgation data for self-dual four circulant codes.

    bad_bound(d) = q^n * (q-1) * (ball_volume(q, 4n, d) - 1) bounds the
    number of pairs whose code can contain a nonzero word of weight <= d.
    guaranteed_distance is 1 + the largest d with bad_bound(d) strictly
    below the total pair count, or None when even d = 1 fails (the bound
    is vacuous at small lengths).
    """

    q: int
    n: int
    total_self_dual: int
    bad_bounds: tuple
    guaranteed_distance: Optional[int]
    delta_star: float
    entropy_at_guarantee: Optional[float]
    notes: str


_BOUND_NOTES = (
    "exact pair count and exact ball volumes; the generator-count bound is "
    "applied to every nonzero low-weight word, ignoring the non-constant "
    "block hypothesis, so the guarantee is conservative"
)


def expurgation_bound(field_or_q: Union[Field, int], n: int) -> BoundReport:
    """Evaluate the counting inequality behind the distance guarantee.

    Requires n an odd prime with q a primitive root mod n, so the closed-form
    pair count applies.
    """
    field = field_or_q if isinstance(field_or_q, Field) else field_of_order(field_or_q)
    q = field.q
    if n < 3 or n % 2 == 0 or not is_prime(n):
        raise ValueError(f"n must be an odd prime, got {n}")
    if math.gcd(n, q) != 1:
        raise ValueError(f"gcd(n, q) must be 1, got n={n}, q={q}")
    if not is_primitive_root(q, n):
        raise ValueError(f"{q} is not a primitive root modulo {n}")
    total = self_dual_count_formula(field, n)
    assert total is not None
    scale = q**n * (q - 1)
    bad = []
    guaranteed = None
    for d in range(1, 4 * n + 1):
        bb = scale * (ball_volume(q, 4 * n, d) - 1)
        bad.append((d, bb))
        if bb < total:
            guaranteed = d + 1
        else:
            break
    delta_star = entropy_inverse(q, 1 / 8)
    ent_at = None
    if guaranteed is not None:
        frac = guaranteed / (4 * n)
        if frac <= (q - 1) / q:
            ent_at = entropy(q, frac)
    return BoundReport(
        q=q,
        n=n,
        total_self_dual=total,
        bad_bounds=tuple(bad),
        guaranteed_distance=guaranteed,
        delta_star=delta_star,
        entropy_at_guarantee=ent_at,
        notes=_BOUND_NOTES,
    )

