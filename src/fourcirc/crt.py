"""CRT decomposition of a four circulant code into length-4 constituents.

With x^n - 1 = prod of distinct irreducible factors, reducing (a, b) modulo
each factor gives one constituent per factor, living over the extension
field F_q[x]/(factor).  Extensions are realized as single-step extensions
F_{p^(k*d)} together with a deterministic choice of root of the factor, and
a and b are represented by their values at that root.

Reconstruction inverts this by interpolation at the n-th roots of unity.
The values at the other roots of a factor are Frobenius conjugates of the
value at the chosen root, so the sum over them is a trace, and
a_i = n^(-1) * sum over factors f of Tr_{F_{q^d}/F_q}(a(root_f) * root_f^(-i)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .codes import FourCirculantCode
from .fields import Embedding, Field
from .polyring import Poly, factor_xn_minus_1, first_root, poly_degree


@dataclass(frozen=True)
class Constituent:
    """Image of (a, b) modulo one irreducible factor of x^n - 1.

    kind is "self_reciprocal", "pair_first" or "pair_second"; field is the
    extension F_{p^(k*deg)} and root the chosen zero of the factor there.
    """

    factor: Poly
    kind: str
    base: Field
    field: Field
    root: int
    a_image: int
    b_image: int

    @property
    def degree(self) -> int:
        return poly_degree(self.factor)


@lru_cache(maxsize=None)
def _extension(base: Field, d: int) -> tuple[Field, Embedding]:
    """F_{q^d} and the embedding of F_q in it, shared by all factors of degree d."""
    ext = base if d == 1 else Field(base.p, base.k * d)
    return ext, Embedding(base, ext)


@lru_cache(maxsize=None)
def _constituent_context(base: Field, factor: Poly) -> tuple[Field, Embedding, int]:
    """Extension field, embedding and deterministic root for one factor."""
    ext, emb = _extension(base, poly_degree(factor))
    root = first_root(ext, tuple(emb.apply(c) for c in factor))
    return ext, emb, root


def _eval_at_root(ext: Field, emb: Embedding, coeffs, root: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = ext.add(ext.mul(acc, root), emb.apply(c))
    return acc


def decompose(code: FourCirculantCode) -> list[Constituent]:
    """One constituent per irreducible factor of x^n - 1, deterministic order."""
    field, n = code.field, code.n
    fact = factor_xn_minus_1(field, n)
    out = []
    for factor, kind in fact.factors():
        ext, emb, root = _constituent_context(field, factor)
        a_img = _eval_at_root(ext, emb, code.a, root)
        b_img = _eval_at_root(ext, emb, code.b, root)
        out.append(
            Constituent(
                factor=factor,
                kind=kind,
                base=field,
                field=ext,
                root=root,
                a_image=a_img,
                b_image=b_img,
            )
        )
    return out


def constituent_self_dual(con: Constituent) -> bool:
    """Hermitian self-duality test for a self-reciprocal constituent.

    For a factor of even degree 2m the conjugation is x -> x^(q^m), and the
    condition reads 1 + a*conj(a) + b*conj(b) = 0.  A degree-1 factor has
    trivial conjugation, giving the Euclidean form 1 + a^2 + b^2 = 0.
    """
    if con.kind != "self_reciprocal":
        raise ValueError("Hermitian test only applies to self-reciprocal constituents")
    F = con.field
    d = con.degree
    if d == 1:
        conj_a, conj_b = con.a_image, con.b_image
    else:
        if d % 2:
            raise AssertionError("self-reciprocal factor of odd degree > 1")
        exp = con.base.q ** (d // 2)
        conj_a = F.pow(con.a_image, exp)
        conj_b = F.pow(con.b_image, exp)
    s = F.add(F.one, F.add(F.mul(con.a_image, conj_a), F.mul(con.b_image, conj_b)))
    return s == F.zero


def reconstruct(field: Field, n: int, constituents: list[Constituent]) -> tuple[tuple, tuple]:
    """Interpolate (a, b) in R(n, F_q) back from all its constituents.

    The roots of a factor f of degree d are root^(q^j) for j < d, and a has
    coefficients in F_q, so a(root^(q^j)) = a(root)^(q^j).  Lagrange
    interpolation at the n-th roots of unity therefore reads

        a_i = n^(-1) * sum over f of Tr(a(root_f) * root_f^(-i)),

    with Tr(y) = y + y^q + ... + y^(q^(d-1)) the trace from F_{q^d} to F_q;
    n is invertible because factor_xn_minus_1 requires gcd(n, q) = 1.  The
    same holds for b.  The constituents must be exactly those of decompose
    over this field, in any order.
    """
    expected = sorted(factor for factor, _ in factor_xn_minus_1(field, n).factors())
    if sorted(con.factor for con in constituents) != expected:
        raise ValueError("constituents are not exactly the factors of x^n - 1")
    a = [field.zero] * n
    b = [field.zero] * n
    for con in constituents:
        ext, emb, root = _constituent_context(field, con.factor)
        if (con.base, con.field, con.root) != (field, ext, root):
            raise ValueError("constituent does not match its deterministic context")
        step = ext.inv(root)
        for image, out in ((con.a_image, a), (con.b_image, b)):
            y = image
            for i in range(n):
                trace, t = ext.zero, y
                for _ in range(con.degree):
                    trace = ext.add(trace, t)
                    t = ext.pow(t, field.q)
                out[i] = field.add(out[i], emb.preimage(trace))
                y = ext.mul(y, step)
    n_inv = field.element([pow(n, -1, field.p)])
    return tuple(field.mul(n_inv, c) for c in a), tuple(field.mul(n_inv, c) for c in b)


def decompose_report(code: FourCirculantCode) -> list[dict]:
    """JSON-friendly view of the decomposition, with the Hermitian verdicts."""
    out = []
    for con in decompose(code):
        out.append(
            {
                "factor": list(con.factor),
                "field": f"{con.field.p}^{con.field.k}",
                "kind": con.kind,
                "a_image": list(con.field.coeffs(con.a_image)),
                "b_image": list(con.field.coeffs(con.b_image)),
                "hermitian_self_dual": (
                    constituent_self_dual(con) if con.kind == "self_reciprocal" else None
                ),
            }
        )
    return out
