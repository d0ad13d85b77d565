"""CRT decomposition of a four circulant code into length-4 constituents.

With x^n - 1 = prod of distinct irreducible factors, reducing (a, b) modulo
each factor gives one constituent per factor, living over the extension
field F_q[x]/(factor).  Extensions are realized as single-step extensions
F_{p^(k*d)} together with a deterministic choice of root of the factor, and
a and b are represented by their values at that root.  Decompose and
reconstruct are mutually inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .codes import FourCirculantCode
from .fields import Embedding, Field
from .polyring import (
    Poly,
    QuotientRing,
    factor_xn_minus_1,
    first_root,
    poly_add,
    poly_degree,
    poly_divmod,
    poly_ext_gcd,
    poly_mod,
    poly_mul,
    poly_scale,
    poly_trim,
)


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


def _solve_mod_p(rows: list[list[int]], rhs: list[int], p: int) -> list[int]:
    """Solve a square linear system over F_p by Gaussian elimination."""
    m = len(rows)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    pivots = []
    for col in range(m):
        piv = None
        for r in range(len(pivots), m):
            if aug[r][col] % p:
                piv = r
                break
        if piv is None:
            raise AssertionError("singular basis matrix in constituent inversion")
        r0 = len(pivots)
        aug[r0], aug[piv] = aug[piv], aug[r0]
        inv = pow(aug[r0][col], p - 2, p)
        aug[r0] = [(v * inv) % p for v in aug[r0]]
        for r in range(m):
            if r != r0 and aug[r][col] % p:
                factor = aug[r][col]
                aug[r] = [(aug[r][j] - factor * aug[r0][j]) % p for j in range(m + 1)]
        pivots.append(col)
    return [aug[i][m] for i in range(m)]


def _image_to_residue(base: Field, ext: Field, emb: Embedding, root: int, image: int, d: int) -> Poly:
    """Invert c_0 + c_1*root + ... + c_{d-1}*root^(d-1) = image for c_i in F_q."""
    if d == 1:
        return poly_trim((emb.preimage(image),))
    k = base.k
    p = base.p
    powers = [ext.one]
    for _ in range(d - 1):
        powers.append(ext.mul(powers[-1], root))
    # columns indexed by (i, j): basis element y^j of F_q times root^i
    cols = []
    for i in range(d):
        for j in range(k):
            basis = emb.apply(base.element([0] * j + [1]))
            cols.append(ext.coeffs(ext.mul(basis, powers[i])))
    dim = k * d
    rows = [[cols[c][r] for c in range(dim)] for r in range(dim)]
    sol = _solve_mod_p(rows, list(ext.coeffs(image)), p)
    coeffs = []
    for i in range(d):
        coeffs.append(base.element(sol[i * k : (i + 1) * k]))
    return poly_trim(coeffs)


def reconstruct(field: Field, n: int, constituents: list[Constituent]) -> tuple[tuple, tuple]:
    """CRT interpolation back to (a, b) in R(n, F_q) from all constituents."""
    ring = QuotientRing(field, n)
    modulus = ring.modulus_poly
    a_poly: Poly = ()
    b_poly: Poly = ()
    seen_degree = 0
    for con in constituents:
        d = con.degree
        seen_degree += d
        ext, emb, root = _constituent_context(field, con.factor)
        if (ext, root) != (con.field, con.root):
            raise ValueError("constituent does not match its deterministic context")
        ra = _image_to_residue(field, ext, emb, root, con.a_image, d)
        rb = _image_to_residue(field, ext, emb, root, con.b_image, d)
        cofactor, rem = poly_divmod(field, modulus, con.factor)
        if rem:
            raise ValueError("constituent factor does not divide x^n - 1")
        g, s, _ = poly_ext_gcd(field, cofactor, con.factor)
        if poly_degree(g) != 0:
            raise AssertionError("cofactor not invertible modulo its factor")
        inv_cof = poly_scale(field, field.inv(g[0]), s)
        idem = poly_mul(field, cofactor, poly_mod(field, inv_cof, con.factor))
        a_poly = poly_mod(field, poly_add(field, a_poly, poly_mul(field, ra, idem)), modulus)
        b_poly = poly_mod(field, poly_add(field, b_poly, poly_mul(field, rb, idem)), modulus)
    if seen_degree != n:
        raise ValueError("constituents do not cover every factor of x^n - 1")
    return ring.reduce(a_poly), ring.reduce(b_poly)


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
