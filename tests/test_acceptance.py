"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines.  Expected
values are recomputed here from scratch with arbitrary-precision integer
arithmetic wherever a closed form exists; real-valued checks carry their
stated tolerances inline.
"""

import json
import math
import random
import subprocess
import sys
from contextlib import contextmanager

import numpy as np

from fourcirc.asympt import entropy, entropy_inverse, entropy_volume_gap, expurgation_bound
from fourcirc.census import (
    count_hermitian,
    count_sum_of_squares,
    enumerate_self_dual,
    membership_census,
    membership_sweep,
    self_dual_pairs,
)
from fourcirc.codes import FourCirculantCode, self_dual_matrix_sweep
from fourcirc.crt import constituent_self_dual, decompose, reconstruct
from fourcirc.fields import Field, quad_char
from fourcirc.polyring import QuotientRing

ODD_Q_FIELDS = [Field(3), Field(5), Field(7), Field(3, 2), Field(11), Field(13)]
HERMITIAN_FIELDS = [Field(2), Field(3), Field(2, 2), Field(5)]
ENUMERATION_CASES = [
    (Field(2), 3, 12),
    (Field(2), 5, 120),
    (Field(5), 3, 480),
    (Field(3), 5, 2880),
]
TRUTH_TABLE_CASES = [(Field(2), 3), (Field(2), 5), (Field(3), 3), (Field(3), 5)]


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL ({text})")
        raise
    print(f"criterion {num}: PASS ({text})")


def test_criterion_01_sum_of_squares_counts():
    with criterion(1, "x^2+y^2=-1 counts equal q - eta(-1) for odd q in {3,5,7,9,11,13}"):
        for field in ODD_Q_FIELDS:
            brute, formula = count_sum_of_squares(field)
            expected = field.q - quad_char(field, field.neg(field.one))
            assert brute == formula == expected, f"q={field.q}"


def test_criterion_02_hermitian_counts():
    with criterion(2, "norm-form counts equal (q+1)(q^2-q) for q in {2,3,4,5}"):
        for field in HERMITIAN_FIELDS:
            q = field.q
            brute, formula = count_hermitian(field)
            assert brute == formula == (q + 1) * (q * q - q), f"q={q}"


def test_criterion_03_enumeration_formula():
    with criterion(3, "exhaustive pair counts match the closed form: 12, 120, 480, 2880"):
        for field, n, expected in ENUMERATION_CASES:
            q = field.q
            # closed form recomputed here, independently of the library
            h = (n - 1) // 2
            lead = q if q % 2 == 0 else q - quad_char(field, field.neg(field.one))
            formula = lead * (q**h + 1) * (q ** (n - 1) - q**h)
            assert formula == expected
            rep = enumerate_self_dual(field, n)
            assert rep.pair_count == expected, f"(q={q}, n={n})"
            assert rep.formula_count == expected


def test_criterion_04_polynomial_vs_matrix_criterion():
    with criterion(4, "residue and Gram-matrix criteria give identical truth tables"):
        for field, n in TRUTH_TABLE_CASES:
            ring = QuotientRing(field, n)
            Q = ring.size
            poly_table = np.zeros(Q * Q, dtype=bool)
            for ai, bi in self_dual_pairs(field, n):
                poly_table[ai * Q + bi] = True
            matrix_table = self_dual_matrix_sweep(field, n)
            assert (poly_table == matrix_table).all(), f"(q={field.q}, n={n})"
            # the batched matrix path agrees with the single-code expansion
            rng = random.Random(5)
            for _ in range(25):
                ai, bi = rng.randrange(Q), rng.randrange(Q)
                code = FourCirculantCode(ring, ring.element(ai), ring.element(bi))
                assert matrix_table[ai * Q + bi] == code.is_self_dual_matrix()


def test_criterion_05_constituents():
    with criterion(5, "self-reciprocal constituents Hermitian-pass; CRT round-trips exactly"):
        rng = random.Random(20240601)
        for field, n, _ in ENUMERATION_CASES:
            ring = QuotientRing(field, n)
            for ai, bi in self_dual_pairs(field, n):
                code = FourCirculantCode(ring, ring.element(ai), ring.element(bi))
                for con in decompose(code):
                    if con.kind == "self_reciprocal":
                        assert constituent_self_dual(con), (field.q, n, ai, bi)
            for _ in range(100):
                a = ring.element(rng.randrange(ring.size))
                b = ring.element(rng.randrange(ring.size))
                code = FourCirculantCode(ring, a, b)
                assert reconstruct(field, n, decompose(code)) == (a, b)


def test_criterion_06_membership_bound():
    with criterion(6, "membership counts within q^n(q-1) for non-constant blocks; "
                      "unit-case closed form reproduces the generator"):
        for p, n in [(2, 3), (3, 3)]:
            field = Field(p)
            sweep = membership_sweep(field, n)
            max_unit, _ = sweep.max_nonconstant("unit")
            max_all, _ = sweep.max_nonconstant("all")
            assert max_unit <= sweep.bound, f"(q={p}, n={n})"
            print(
                f"  (q={p}, n={n}): coprime-pair max {max_unit} <= bound {sweep.bound}; "
                f"all-pair empirical max {max_all}"
            )
            ring = QuotientRing(field, n)
            rng = random.Random(99)
            checked = 0
            while checked < 40:
                ai, bi = rng.randrange(ring.size), rng.randrange(ring.size)
                ci, di = rng.randrange(ring.size), rng.randrange(ring.size)
                a, b = ring.element(ai), ring.element(bi)
                c, d = ring.element(ci), ring.element(di)
                delta = ring.add(
                    ring.mul(c, ring.reciprocal(c)), ring.mul(d, ring.reciprocal(d))
                )
                if not ring.is_unit(delta):
                    continue
                word = FourCirculantCode(ring, a, b).encode(c, d)
                rep = membership_census(field, n, word.blocks)
                assert rep.unique
                assert rep.solution == (a, b)
                assert rep.solution_valid
                assert rep.count == 1
                checked += 1


def test_criterion_07_expurgation_inequality():
    with criterion(7, "total 524160 > bad(1) 425984 at (q=2, n=13): guaranteed distance 2"):
        rep = expurgation_bound(2, 13)
        # every term recomputed from scratch in exact integer arithmetic
        total = 2 * (2**6 + 1) * (2**12 - 2**6)
        assert total == 524160
        assert rep.total_self_dual == total
        ball_minus_center = sum(math.comb(52, i) for i in range(2)) - 1
        bad1 = 2**13 * (2 - 1) * ball_minus_center
        assert bad1 == 425984
        assert dict(rep.bad_bounds)[1] == bad1
        assert bad1 < total
        bad2 = 2**13 * (sum(math.comb(52, i) for i in range(3)) - 1)
        assert dict(rep.bad_bounds)[2] == bad2
        assert bad2 >= total
        assert rep.guaranteed_distance == 2
        # tiny lengths give no guarantee
        assert expurgation_bound(2, 3).guaranteed_distance is None


def test_criterion_08_entropy_machinery():
    with criterion(8, "entropy round-trip within 1e-10 on 1000-point grids; gap shrinks"):
        for q in (2, 3, 5):
            hi = (q - 1) / q
            worst = 0.0
            for i in range(1000):
                t = hi * (i + 1) / 1002
                err = abs(entropy_inverse(q, entropy(q, t)) - t)
                worst = max(worst, err)
            assert worst <= 1e-10, f"q={q}: worst round-trip error {worst}"
        gaps = [abs(entropy_volume_gap(2, 0.25, N)) for N in (64, 128, 256, 512)]
        assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps


def test_criterion_09_distance_properties():
    with criterion(9, "binary self-dual distances all even"):
        for n in (3, 5):
            field = Field(2)
            ring = QuotientRing(field, n)
            for ai, bi in self_dual_pairs(field, n):
                code = FourCirculantCode(ring, ring.element(ai), ring.element(bi))
                d, _ = code.min_distance()
                assert d % 2 == 0, f"odd distance {d} at (2, {n})"


def test_criterion_10_cli_determinism():
    with criterion(10, "enumerate (q=3, n=5) report bodies byte-identical for 1 and 8 workers"):
        def body(workers: str) -> bytes:
            proc = subprocess.run(
                [sys.executable, "-m", "fourcirc", "enumerate", "--q", "3", "--n", "5",
                 "--workers", workers],
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            return json.dumps(json.loads(proc.stdout)["report"], sort_keys=True).encode()

        assert body("1") == body("8")
