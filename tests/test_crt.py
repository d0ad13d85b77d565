import dataclasses
import json
import random
import re
import time

import pytest

from fourcirc import cli, crt, polyring
from fourcirc.codes import FourCirculantCode
from fourcirc.crt import Constituent, constituent_self_dual, decompose, decompose_report, reconstruct
from fourcirc.fields import Field
from fourcirc.polyring import QuotientRing, factor_xn_minus_1, is_irreducible, poly_mul, poly_pow_mod, poly_trim

from oracles import (constituent_context, eval_at_root, horner_decompose, poly_eval, remainder_decompose,
                     trace_loop_reconstruct)

F2, F3, F5 = Field(2), Field(3), Field(5)

ROUND_TRIP_POINTS = [
    (F3, 5), (F2, 5), (F5, 3), (F2, 3), (F2, 7), (Field(2, 2), 3),
    (F5, 6), (Field(7), 8), (F3, 20), (Field(2, 3), 7), (Field(3, 2), 4),
    (Field(2, 4), 15), (F2, 1), (Field(2, 3, modulus=(1, 0, 1, 1)), 9),
    (Field(131), 5), (Field(257), 2),
]

# the first five split x^n - 1 only over F_(q^m) with q^m > 2^16; (2, 255)
# has 35 factors
REACH_POINTS = [(F2, 19), (F2, 29), (F3, 17), (F2, 199), (F3, 199), (F2, 255)]


def make_code(field, n, a, b):
    return FourCirculantCode(QuotientRing(field, n), a, b)


def test_decompose_example():
    code = make_code(F2, 3, (0, 1, 0), (0, 0, 0))
    cons = decompose(code)
    assert [c.kind for c in cons] == ["self_reciprocal", "self_reciprocal"]
    lin, quad = cons
    assert lin.factor == (1, 1)
    assert (lin.a_image, lin.b_image) == ((1,), (0,))  # x = 1 mod x + 1
    assert quad.factor == (1, 1, 1)
    assert (quad.a_image, quad.b_image) == ((0, 1), (0, 0))  # x mod x^2 + x + 1
    # in F_4 the residue x takes the value of the root of x^2 + x + 1
    ext, emb, root = constituent_context(F2, quad.factor)
    assert eval_at_root(ext, emb, quad.a_image, root) == root
    assert poly_eval(ext, [emb.apply(c) for c in quad.factor], root) == 0


def test_decompose_zero():
    code = make_code(F3, 5, (0,) * 5, (0,) * 5)
    for con in decompose(code):
        assert con.a_image == con.b_image == (0,) * con.degree


def test_decompose_requires_coprime_length():
    code = make_code(F3, 6, (0,) * 6, (0,) * 6)
    with pytest.raises(ValueError):
        decompose(code)


def test_round_trip_random():
    random.seed(20240601)
    for field, n in ROUND_TRIP_POINTS:
        ring = QuotientRing(field, n)
        for _ in range(100):
            a = ring.element(random.randrange(ring.size))
            b = ring.element(random.randrange(ring.size))
            code = FourCirculantCode(ring, a, b)
            assert reconstruct(field, n, decompose(code)) == (a, b)


def random_codes(field, n, count, rng):
    """The zero code, the code of (1, x) and count random codes."""
    ring = QuotientRing(field, n)
    x = (0, 1) + (0,) * (n - 2) if n > 1 else ring.one
    pairs = [(ring.zero, ring.zero), (ring.one, x)]
    pairs += [(ring.element(rng.randrange(ring.size)), ring.element(rng.randrange(ring.size)))
              for _ in range(count)]
    return [FourCirculantCode(ring, a, b) for a, b in pairs]


def test_decompose_and_reconstruct_match_oracles():
    # the residue maps against one schoolbook remainder per factor, and
    # against the splitting field: each residue takes the oracle's image at
    # the oracle's root, and the round trip equals the trace formula's
    rng = random.Random(20261018)
    for field, n in ROUND_TRIP_POINTS:
        for code in random_codes(field, n, 20, rng):
            cons = decompose(code)
            assert cons == remainder_decompose(code), (field, n, code.a, code.b)
            images = {im.factor: im for im in horner_decompose(code)}
            assert sorted(images) == sorted(con.factor for con in cons)
            for con in cons:
                im = images[con.factor]
                emb = constituent_context(field, con.factor)[1]
                assert eval_at_root(im.field, emb, con.a_image, im.root) == im.a_image
                assert eval_at_root(im.field, emb, con.b_image, im.root) == im.b_image
            shuffled = rng.sample(cons, len(cons))
            assert reconstruct(field, n, shuffled) == trace_loop_reconstruct(field, n, list(images.values()))
            # images the round trip never produces: every residue is (1, 0),
            # which takes the values 1 and 0 at every root
            ones = [dataclasses.replace(con, a_image=(1,) + (0,) * (con.degree - 1), b_image=(0,) * con.degree)
                    for con in cons]
            root_ones = [dataclasses.replace(im, a_image=1, b_image=0) for im in images.values()]
            assert reconstruct(field, n, ones) == trace_loop_reconstruct(field, n, root_ones)


def test_evaluations_in_small_chunks(monkeypatch):
    # one term (refinement products) or one column (both maps) per array
    # when the block is tiny: the same factors, idempotents and residues
    rng = random.Random(7)
    points = [(F2, 7), (F3, 20), (Field(2, 4), 15), (Field(2, 2), 5)]
    want = {point: factor_xn_minus_1(*point) for point in points}
    try:
        for block in (1, 7):
            monkeypatch.setattr(polyring, "PRODUCT_BLOCK", block)
            monkeypatch.setattr(crt, "PRODUCT_BLOCK", block)
            factor_xn_minus_1.cache_clear()
            crt._maps.cache_clear()
            for field, n in points:
                assert factor_xn_minus_1(field, n) == want[field, n]
                for code in random_codes(field, n, 5, rng):
                    cons = decompose(code)
                    assert cons == remainder_decompose(code)
                    assert reconstruct(field, n, cons) == (code.a, code.b)
    finally:
        factor_xn_minus_1.cache_clear()
        crt._maps.cache_clear()


@pytest.mark.parametrize(
    "q, order, n, modulus",
    [("2", 2, 3, None), ("2^2", 4, 5, None), ("2", 2, 23, None), ("3", 3, 7, None),
     ("3^2", 9, 4, None), ("2^3", 8, 9, "1,0,1,1")],
)
def test_crt_report_bodies_match_oracle(q, order, n, modulus, monkeypatch, capsys):
    # fourcirc crt prints the same JSON (but for the wall time) and text
    # bodies with the schoolbook remainders in place of decompose
    rng = random.Random(n)
    argv = ["crt", "--q", q, "--n", str(n),
            "--a", ",".join(str(rng.randrange(order)) for _ in range(n)),
            "--b", ",".join(str(rng.randrange(order)) for _ in range(n))]
    if modulus:
        argv += ["--modulus", modulus]
    bodies = []
    for decomposer in (decompose, remainder_decompose):
        monkeypatch.setattr(crt, "decompose", decomposer)
        outs = []
        for fmt in ("json", "text"):
            assert cli.main(argv + ["--format", fmt]) == 0
            outs.append(capsys.readouterr().out)
        payload = json.loads(outs[0])
        assert payload["schema"] == "fourcirc/crt/v2"
        payload["manifest"].pop("wall_time_s")
        bodies.append((json.dumps(payload, indent=2), outs[1]))
    assert bodies[0] == bodies[1]


def test_crt_builds_no_field_but_the_base(monkeypatch):
    # factoring, both maps and the Hermitian test work over F_q alone: no
    # Field is constructed, where the splitting-field path built F_(2^11)
    # at (2, 23) and F_16 at (F_4, 5)
    points = [(F2, 23), (Field(2, 2), 5), (F3, 20), (F2, 29)]
    built = []
    monkeypatch.setattr(Field, "__init__", lambda self, *args, **kwargs: built.append(args))
    factor_xn_minus_1.cache_clear()
    crt._maps.cache_clear()
    for field, n in points:
        for code in random_codes(field, n, 3, random.Random(n)):
            cons = decompose(code)
            assert reconstruct(field, n, cons) == (code.a, code.b)
            decompose_report(code)
    assert built == []


def test_reconstruct_rejects_bad_constituents():
    code = make_code(F2, 7, (1, 1, 0, 1, 0, 0, 0), (0, 1, 1, 0, 0, 0, 1))
    lin, cubic1, cubic2 = decompose(code)
    assert (lin.degree, cubic1.degree, cubic2.degree) == (1, 3, 3)
    with pytest.raises(ValueError):
        reconstruct(F2, 7, [lin, cubic1, cubic1])  # repeated factor, one missing
    with pytest.raises(ValueError):
        reconstruct(F2, 7, [lin, cubic1])  # missing factor
    with pytest.raises(ValueError):
        reconstruct(F2, 7, [lin, cubic1, cubic2, lin])  # extra copy
    with pytest.raises(ValueError, match="3 coefficients"):
        reconstruct(F2, 7, [lin, dataclasses.replace(cubic1, a_image=(1, 0)), cubic2])  # short residue
    # decomposed over another base field: F_4 has other factors of x^3 - 1
    with pytest.raises(ValueError):
        reconstruct(F2, 3, decompose(make_code(Field(2, 2), 3, (0, 1, 0), (1, 0, 0))))
    other = Field(2, 3, modulus=(1, 0, 1, 1))
    cons = decompose(make_code(other, 7, (0, 1) + (0,) * 5, (3,) + (0,) * 6))
    assert reconstruct(other, 7, cons) == ((0, 1) + (0,) * 5, (3,) + (0,) * 6)


def test_reconstruct_and_hermitian_reject_codes_outside_the_field():
    # a negative code read as another element (reconstruct returned a pair),
    # and a code at q or above ran off the field's tables (IndexError)
    code = make_code(F2, 7, (1, 1, 0, 1, 0, 0, 0), (0, 1, 1, 0, 0, 0, 1))
    lin, cubic1, cubic2 = decompose(code)
    for bad in (-1, 2, 5):
        for wrong, cons in [(cubic1, [lin, dataclasses.replace(cubic1, a_image=(bad, 0, 0)), cubic2]),
                            (lin, [dataclasses.replace(lin, b_image=(bad,)), cubic1, cubic2])]:
            message = f"factor {list(wrong.factor)} has image codes outside [0, 2)"
            with pytest.raises(ValueError, match=re.escape(message)):
                reconstruct(F2, 7, cons)
        with pytest.raises(ValueError, match=re.escape("factor [1, 1] has image codes outside [0, 2)")):
            constituent_self_dual(F2, dataclasses.replace(lin, a_image=(bad,)))
    con = Constituent(n=4, factor=(1, 0, 1), kind="self_reciprocal", a_image=(0, 1), b_image=(0, 0))
    assert constituent_self_dual(F3, dataclasses.replace(con, b_image=(2, 0)))  # 1 - x^2 + 4 = 0 mod x^2 + 1
    for bad in (-1, 3):
        with pytest.raises(ValueError, match=re.escape("factor [1, 0, 1] has image codes outside [0, 3)")):
            constituent_self_dual(F3, dataclasses.replace(con, b_image=(0, bad)))


def test_round_trip_many_linear_factors_at_large_q():
    # 2^16 = 1 mod 255, so x^255 - 1 splits into 255 linear factors x - c
    # over F_{2^16}, and each residue is the value at c
    field = Field(2, 16)
    ring = QuotientRing(field, 255)
    a = tuple((7 * i + 3) % field.q for i in range(255))
    b = tuple((11 * i + 1) % field.q for i in range(255))
    start = time.perf_counter()
    cons = decompose(FourCirculantCode(ring, a, b))
    assert reconstruct(field, 255, cons) == (a, b)
    assert time.perf_counter() - start < 20
    assert len(cons) == 255
    assert all(con.degree == 1 for con in cons)
    for con in cons[::17]:
        c = field.neg(con.factor[0])
        assert con.a_image == (poly_eval(field, a, c),) and con.b_image == (poly_eval(field, b, c),)


@pytest.mark.parametrize("field, n", REACH_POINTS, ids=[f"{field.q}-{n}" for field, n in REACH_POINTS])
def test_factor_and_round_trip_beyond_the_splitting_field_cap(field, n):
    # the factors re-expand, have the coset sizes as degrees and pass
    # Rabin's test, and the CRT round trip returns its input
    fact = factor_xn_minus_1(field, n)
    factors = [g for g, _ in fact.factors()]
    product = (field.one,)
    for g in factors:
        product = poly_mul(field, product, g)
    assert product == poly_trim([field.neg(1)] + [0] * (n - 1) + [1])
    assert sorted(len(g) - 1 for g in factors) == sorted(map(len, fact.cosets))
    assert all(is_irreducible(field, g) for g in factors)
    for code in random_codes(field, n, 5, random.Random(n)):
        cons = decompose(code)
        assert cons == remainder_decompose(code)
        assert reconstruct(field, n, cons) == (code.a, code.b)


def test_images_respect_evaluation():
    # the residues of a take the values a(root) at every root of each factor
    ring = QuotientRing(F3, 5)
    code = FourCirculantCode(ring, (1, 2, 0, 0, 1), (0, 1, 1, 0, 2))
    for con in decompose(code):
        ext, emb, root = constituent_context(F3, con.factor)
        for _ in range(con.degree):  # the Frobenius conjugates root^(3^j)
            assert eval_at_root(ext, emb, con.a_image, root) == eval_at_root(ext, emb, code.a, root)
            assert eval_at_root(ext, emb, con.b_image, root) == eval_at_root(ext, emb, code.b, root)
            root = ext.pow(root, 3)


def test_hermitian_examples():
    code = make_code(F2, 3, (0, 1, 0), (0, 0, 0))
    lin, quad = decompose(code)
    assert constituent_self_dual(F2, quad)  # 1 + x * x^2 = 1 + x^3 = 0 mod x^2 + x + 1
    assert constituent_self_dual(F2, lin)  # 1 + 1*1 + 0 = 0 over F_2
    # degree-1 arithmetic over F_3: residues (1, 1) satisfy 1 + 1 + 1 = 0
    con = Constituent(n=1, factor=(2, 1), kind="self_reciprocal", a_image=(1,), b_image=(1,))
    assert constituent_self_dual(F3, con)
    assert not constituent_self_dual(F3, dataclasses.replace(con, b_image=(0,)))
    # x^2 + 1 over F_3: x' = x^(-1) = -x, so a = x, b = 0 gives 1 - x^2 = 2,
    # and a = x, b = 1 gives 1 - x^2 + 1 = 0 mod x^2 + 1; with a' = a instead
    # the second would read 1 + x^2 + 1 = 1
    con = Constituent(n=4, factor=(1, 0, 1), kind="self_reciprocal", a_image=(0, 1), b_image=(0, 0))
    assert not constituent_self_dual(F3, con)
    assert constituent_self_dual(F3, dataclasses.replace(con, b_image=(1, 0)))


def test_hermitian_rejects_pair_kinds():
    # q=2, n=7 has a reciprocal pair of cubics
    code = make_code(F2, 7, (0, 1) + (0,) * 5, (0,) * 7)
    cons = decompose(code)
    kinds = [c.kind for c in cons]
    assert kinds.count("pair_first") == 1 and kinds.count("pair_second") == 1
    pair_con = next(c for c in cons if c.kind == "pair_first")
    with pytest.raises(ValueError):
        constituent_self_dual(F2, pair_con)


def test_conjugation_inverts_root():
    # for a self-reciprocal factor g of degree 2m, x^(q^m) = x^(-1) = x^(n-1)
    # mod g: the ring reciprocal is the conjugation of F_q[x]/(g)
    for field, n in [(F2, 3), (F2, 5), (F3, 5), (F5, 3), (F2, 9), (F3, 10), (Field(2, 2), 5)]:
        for g in factor_xn_minus_1(field, n).self_reciprocal:
            if len(g) > 2:
                frobenius = poly_pow_mod(field, (0, 1), field.q ** ((len(g) - 1) // 2), g)
                assert frobenius == poly_pow_mod(field, (0, 1), n - 1, g), (field, n, g)


def test_self_dual_iff_constituent_conditions():
    """Residue form of the constituent criterion, exhaustively.

    Self-duality of the code is equivalent to: every self-reciprocal
    constituent passes the Hermitian test, and the criterion residue is
    divisible by both members of every reciprocal pair.
    """
    from fourcirc.polyring import poly_mod, poly_trim

    for field, n in [(F2, 3), (F2, 7), (Field(2, 2), 3), (F3, 4)]:
        ring = QuotientRing(field, n)
        fact = factor_xn_minus_1(field, n)
        paired = [h for pair in fact.pairs for h in pair]
        for ai in range(ring.size):
            for bi in range(ring.size):
                code = FourCirculantCode(ring, ring.element(ai), ring.element(bi))
                sd = code.is_self_dual_poly()
                cons = decompose(code)
                herm = all(
                    constituent_self_dual(field, c) for c in cons if c.kind == "self_reciprocal"
                )
                residue = poly_trim(code.criterion_residue())
                pair_div = all(not poly_mod(field, residue, h) for h in paired)
                assert sd == (herm and pair_div)


def test_decompose_report_shape():
    code = make_code(F2, 3, (0, 1, 0), (0, 0, 0))
    rep = decompose_report(code)
    assert [list(con) for con in rep] == [["factor", "degree", "kind", "a_image", "b_image", "hermitian_self_dual"]] * 2
    assert [con["degree"] for con in rep] == [1, 2]
    assert rep[1]["a_image"] == [0, 1]
    assert rep[1]["hermitian_self_dual"] is True
    assert rep[0]["factor"] == [1, 1]
