import dataclasses
import json
import random
import time

import pytest

from fourcirc import cli, crt, fields, polyring
from fourcirc.codes import FourCirculantCode
from fourcirc.crt import Constituent, constituent_self_dual, decompose, decompose_report, reconstruct
from fourcirc.fields import Field
from fourcirc.polyring import QuotientRing, factor_xn_minus_1

from oracles import horner_decompose, poly_eval, trace_loop_reconstruct

F2, F3, F5 = Field(2), Field(3), Field(5)

ROUND_TRIP_POINTS = [
    (F3, 5), (F2, 5), (F5, 3), (F2, 3), (F2, 7), (Field(2, 2), 3),
    (F5, 6), (Field(7), 8), (F3, 20), (Field(2, 3), 7), (Field(3, 2), 4),
    (Field(2, 4), 15), (F2, 1), (Field(2, 3, modulus=(1, 0, 1, 1)), 9),
    (Field(131), 5), (Field(257), 2),
]


def make_code(field, n, a, b):
    return FourCirculantCode(QuotientRing(field, n), a, b)


def test_decompose_example():
    code = make_code(F2, 3, (0, 1, 0), (0, 0, 0))
    cons = decompose(code)
    assert [c.kind for c in cons] == ["self_reciprocal", "self_reciprocal"]
    lin, quad = cons
    assert lin.factor == (1, 1)
    assert lin.field == F2
    assert lin.a_image == 1  # a = x evaluated at the root 1
    assert lin.b_image == 0
    assert quad.factor == (1, 1, 1)
    assert quad.field.q == 4
    assert quad.a_image == quad.root  # a = x maps to the chosen root
    # root really is a root of the factor inside F_4
    assert poly_eval(quad.field, quad.factor, quad.root) == 0


def test_decompose_zero():
    code = make_code(F3, 5, (0,) * 5, (0,) * 5)
    for con in decompose(code):
        assert con.a_image == 0
        assert con.b_image == 0


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
    # the array evaluations against one Horner step and one scalar trace per
    # coefficient, at every round-trip point
    rng = random.Random(20261018)
    for field, n in ROUND_TRIP_POINTS:
        for code in random_codes(field, n, 20, rng):
            cons = decompose(code)
            assert cons == horner_decompose(code), (field, n, code.a, code.b)
            shuffled = rng.sample(cons, len(cons))
            assert reconstruct(field, n, shuffled) == trace_loop_reconstruct(field, n, shuffled)
            # images the round trip never produces: every constituent holds (1, 0)
            ones = [dataclasses.replace(con, a_image=1, b_image=0) for con in cons]
            assert reconstruct(field, n, ones) == trace_loop_reconstruct(field, n, ones)


def test_evaluations_in_small_chunks(monkeypatch):
    # one factor (decompose) or one coefficient (reconstruct) per array when
    # the chunk budget is tiny, as for x^n - 1 with very many factors
    monkeypatch.setattr(crt, "CHUNK_TERMS", 1)
    rng = random.Random(7)
    for field, n in [(F2, 7), (F3, 20), (Field(2, 4), 15)]:
        for code in random_codes(field, n, 5, rng):
            cons = decompose(code)
            assert cons == horner_decompose(code)
            assert reconstruct(field, n, cons) == (code.a, code.b)


@pytest.mark.parametrize(
    "q, order, n, modulus",
    [("2", 2, 3, None), ("2^2", 4, 5, None), ("2", 2, 23, None), ("3", 3, 7, None),
     ("3^2", 9, 4, None), ("2^3", 8, 9, "1,0,1,1")],
)
def test_crt_report_bodies_match_oracle(q, order, n, modulus, monkeypatch, capsys):
    # fourcirc crt prints the same JSON (but for the wall time) and text
    # bodies with the Horner oracle in place of decompose
    rng = random.Random(n)
    argv = ["crt", "--q", q, "--n", str(n),
            "--a", ",".join(str(rng.randrange(order)) for _ in range(n)),
            "--b", ",".join(str(rng.randrange(order)) for _ in range(n))]
    if modulus:
        argv += ["--modulus", modulus]
    bodies = []
    for decomposer in (decompose, horner_decompose):
        monkeypatch.setattr(crt, "decompose", decomposer)
        outs = []
        for fmt in ("json", "text"):
            assert cli.main(argv + ["--format", fmt]) == 0
            outs.append(capsys.readouterr().out)
        payload = json.loads(outs[0])
        payload["manifest"].pop("wall_time_s")
        bodies.append((json.dumps(payload, indent=2), outs[1]))
    assert bodies[0] == bodies[1]


def test_plan_and_factorization_share_extension_field(monkeypatch):
    # x^23 - 1 over F_2 has two factors of degree 11, both over F_2^11, the
    # splitting field that factor_xn_minus_1 builds first
    caches = (fields.default_field, polyring.factor_xn_minus_1, crt._plan)
    built = []
    init = Field.__init__

    def counting_init(self, p, k=1, modulus=None):
        built.append((p, k))
        init(self, p, k, modulus)

    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(Field, "__init__", counting_init)
    try:
        plan = crt._plan(Field(2), 23)
        shared = fields.default_field(2, 11)
    finally:
        for cache in caches:
            cache.cache_clear()
    assert built.count((2, 11)) == 1
    assert [g.field is shared for g in plan.groups] == [False, True]  # degrees 1 and 11
    assert all(ext is shared for ext, _ in plan.contexts if ext.k == 11)


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
    moved = dataclasses.replace(cubic1, root=cubic1.field.pow(cubic1.root, 2))
    with pytest.raises(ValueError):
        reconstruct(F2, 7, [lin, moved, cubic2])  # another root of the same factor
    # decomposed over another base field: F_4 has other factors of x^3 - 1,
    # and F_8 under another modulus has the same linear factors but other roots
    with pytest.raises(ValueError):
        reconstruct(F2, 3, decompose(make_code(Field(2, 2), 3, (0, 1, 0), (1, 0, 0))))
    other = Field(2, 3, modulus=(1, 0, 1, 1))
    cons = decompose(make_code(other, 7, (0, 1) + (0,) * 5, (3,) + (0,) * 6))
    with pytest.raises(ValueError):
        reconstruct(Field(2, 3), 7, cons)
    assert reconstruct(other, 7, cons) == ((0, 1) + (0,) * 5, (3,) + (0,) * 6)


def test_round_trip_many_linear_factors_at_large_q():
    # 2^16 = 1 mod 255, so x^255 - 1 splits into 255 linear factors over
    # F_{2^16}: every constituent lives in one shared copy of the base field,
    # and the round trip stays cheap however many factors there are
    field = Field(2, 16)
    ring = QuotientRing(field, 255)
    a = tuple((7 * i + 3) % field.q for i in range(255))
    b = tuple((11 * i + 1) % field.q for i in range(255))
    start = time.perf_counter()
    cons = decompose(FourCirculantCode(ring, a, b))
    assert reconstruct(field, 255, cons) == (a, b)
    assert time.perf_counter() - start < 20
    assert len(cons) == 255
    assert all(con.field is cons[0].field == field for con in cons)
    assert all(con.root == field.neg(con.factor[0]) for con in cons)  # x - root

def test_images_respect_evaluation():
    ring = QuotientRing(F3, 5)
    code = FourCirculantCode(ring, (1, 2, 0, 0, 1), (0, 1, 1, 0, 2))
    for con in decompose(code):
        ext = con.field
        # recompute a(root) directly in the extension
        from fourcirc.fields import Embedding

        emb = Embedding(F3, ext)
        acc = 0
        for c in reversed(code.a):
            acc = ext.add(ext.mul(acc, con.root), emb.apply(c))
        assert acc == con.a_image


def test_hermitian_examples():
    code = make_code(F2, 3, (0, 1, 0), (0, 0, 0))
    lin, quad = decompose(code)
    assert constituent_self_dual(quad)  # 1 + w*w^2 = 1 + 1 = 0 in F_4
    assert constituent_self_dual(lin)  # 1 + 1*1 + 0 = 0 over F_2
    # degree-1 arithmetic over F_3: images (1, 1) satisfy 1 + 1 + 1 = 0
    con = Constituent(
        factor=(2, 1), kind="self_reciprocal", base=F3, field=F3, root=1, a_image=1, b_image=1
    )
    assert constituent_self_dual(con)
    con2 = Constituent(
        factor=(2, 1), kind="self_reciprocal", base=F3, field=F3, root=1, a_image=1, b_image=0
    )
    assert not constituent_self_dual(con2)


def test_hermitian_rejects_pair_kinds():
    # q=2, n=7 has a reciprocal pair of cubics
    code = make_code(F2, 7, (0, 1) + (0,) * 5, (0,) * 7)
    cons = decompose(code)
    kinds = [c.kind for c in cons]
    assert kinds.count("pair_first") == 1 and kinds.count("pair_second") == 1
    pair_con = next(c for c in cons if c.kind == "pair_first")
    with pytest.raises(ValueError):
        constituent_self_dual(pair_con)


def test_conjugation_inverts_root():
    # for a self-reciprocal factor of degree 2m, root^(q^m) is 1/root
    for field, n in [(F2, 3), (F2, 5), (F3, 5), (F5, 3)]:
        code = FourCirculantCode(QuotientRing(field, n), (0, 1) + (0,) * (n - 2), (0,) * n)
        for con in decompose(code):
            if con.kind != "self_reciprocal" or con.degree == 1:
                continue
            ext = con.field
            exp = field.q ** (con.degree // 2)
            assert ext.pow(con.root, exp) == ext.inv(con.root)


def test_self_dual_iff_constituent_conditions():
    """Residue form of the constituent criterion, exhaustively.

    Self-duality of the code is equivalent to: every self-reciprocal
    constituent passes the Hermitian test, and the criterion residue is
    divisible by both members of every reciprocal pair.
    """
    from fourcirc.polyring import poly_mod, poly_trim

    for field, n in [(F2, 3), (F2, 7)]:
        ring = QuotientRing(field, n)
        fact = factor_xn_minus_1(field, n)
        paired = [h for pair in fact.pairs for h in pair]
        for ai in range(ring.size):
            for bi in range(ring.size):
                code = FourCirculantCode(ring, ring.element(ai), ring.element(bi))
                sd = code.is_self_dual_poly()
                cons = decompose(code)
                herm = all(
                    constituent_self_dual(c) for c in cons if c.kind == "self_reciprocal"
                )
                residue = poly_trim(code.criterion_residue())
                pair_div = all(not poly_mod(field, residue, h) for h in paired)
                assert sd == (herm and pair_div)


def test_decompose_report_shape():
    code = make_code(F2, 3, (0, 1, 0), (0, 0, 0))
    rep = decompose_report(code)
    assert rep[0]["field"] == "2^1"
    assert rep[1]["field"] == "2^2"
    assert rep[1]["hermitian_self_dual"] is True
    assert rep[0]["factor"] == [1, 1]
