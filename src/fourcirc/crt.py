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

Both directions are array evaluations over each extension field's log and
antilog tables, driven by a plan built once per (field, n): the factors
grouped by extension field, the powers root^i and root^(-i) as logarithms,
the embedding of F_q as a forward index array, and the way back to F_q as
one table of y -> n^(-1) * Tr(y).  The plan is the F_q-linear map between
(a, b) and its constituents; no per-coefficient field call is left.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .codes import FourCirculantCode
from .fields import Field, default_field, embedding, field_sum
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


CHUNK_TERMS = 1 << 20  # extension elements one array evaluation holds at once


@dataclass(frozen=True)
class _Group:
    """The factors of x^n - 1 of one degree d, which share F_{q^d}.

    Products are sums of logarithms in field.log_array, read back through
    field.exp_array, whose zero sentinel makes any product with 0 come out 0.
    """

    field: Field
    positions: tuple[int, ...]  # places of the factors in _Plan.factors
    up: np.ndarray  # up[j, i]: log of root_j^i, for 0 <= i < n
    down: np.ndarray  # down[j, i]: log of root_j^(-i)
    fwd: np.ndarray  # fwd[c]: image of the base code c in field
    trace: np.ndarray  # trace[y]: base code of n^(-1) * Tr(y), Tr from field to F_q


@dataclass(frozen=True)
class _Plan:
    """Everything decompose and reconstruct need at one (field, n)."""

    factors: tuple[tuple[Poly, str], ...]
    contexts: tuple[tuple[Field, int], ...]  # per factor: its extension field and root there
    groups: tuple[_Group, ...]


def _trace_table(base: Field, ext: Field, back: np.ndarray, n: int) -> np.ndarray:
    """Base code of n^(-1) * Tr(y) for every code y of ext = F_{q^d}.

    Tr(y) = y + y^q + ... + y^(q^(d-1)) lies in the embedded F_q, which back
    maps to base codes; y^(q^t) has logarithm log(y) * q^t, and 0 stays 0.
    """
    m, d = ext.q - 1, ext.k // base.k
    y = np.arange(ext.q)
    logs = ext.log_array[y][:, None] * np.array([base.q**t % m for t in range(d)]) % m
    tr = field_sum(ext, ext.exp_array[logs] * (y != 0)[:, None], 1)
    n_inv = pow(n, -1, base.p)  # the code of n^(-1) in the prime subfield
    return base.exp_array[base.log_array[back[tr]] + base.log_table[n_inv]]


@lru_cache(maxsize=None)
def _plan(base: Field, n: int) -> _Plan:
    """The factors of x^n - 1 with their contexts, grouped by extension field.

    The factors of degree d share F_{q^d} = F_{p^(k*d)} and the embedding of
    F_q in it, built once here; each factor's root is the least zero of its
    embedded coefficients, and its context is that field and root.
    """
    factors = tuple(factor_xn_minus_1(base, n).factors())
    by_degree: dict[int, list[int]] = {}
    for pos, (factor, _) in enumerate(factors):
        by_degree.setdefault(poly_degree(factor), []).append(pos)
    contexts = [None] * len(factors)
    groups = []
    for d, positions in by_degree.items():
        ext = base if d == 1 else default_field(base.p, base.k * d)
        emb = embedding(base, ext)
        roots = [first_root(ext, tuple(emb.fwd[list(factors[pos][0])].tolist())) for pos in positions]
        for pos, root in zip(positions, roots):
            contexts[pos] = (ext, root)
        logs = ext.log_array[roots][:, None]
        group = _Group(
            field=ext,
            positions=tuple(positions),
            up=logs * np.arange(n) % (ext.q - 1),
            down=-logs * np.arange(n) % (ext.q - 1),
            fwd=emb.fwd,
            trace=_trace_table(base, ext, emb.back, n),
        )
        for arr in (group.up, group.down, group.trace):
            arr.flags.writeable = False  # shared by every caller at this (field, n)
        groups.append(group)
    return _Plan(factors=factors, contexts=tuple(contexts), groups=tuple(groups))


def _chunks(length: int, per_item: int) -> list[slice]:
    """Slices that cover range(length), where one item puts per_item
    elements in an array: as many items per slice as CHUNK_TERMS allows,
    and at least one."""
    step = max(1, CHUNK_TERMS // per_item)
    return [slice(lo, lo + step) for lo in range(0, length, step)]


def decompose(code: FourCirculantCode) -> list[Constituent]:
    """One constituent per irreducible factor of x^n - 1, deterministic order.

    The images a(root) = sum over i of a_i * root^i are, per extension
    field, one array of products a_i * root_j^i summed over i.
    """
    field, n = code.field, code.n
    plan = _plan(field, n)
    images = [()] * len(plan.factors)
    coeffs = np.array([code.a, code.b], dtype=np.int64)
    for g in plan.groups:
        ext = g.field
        logs = ext.log_array[g.fwd[coeffs]]  # (2, n)
        for rows in _chunks(len(g.positions), 2 * n):
            terms = ext.exp_array[logs[:, None, :] + g.up[rows]]  # a_i * root^i at [a or b, factor, i]
            for pos, a_img, b_img in zip(g.positions[rows], *field_sum(ext, terms, 2).tolist()):
                images[pos] = (a_img, b_img)
    out = []
    for (factor, kind), (ext, root), (a_img, b_img) in zip(plan.factors, plan.contexts, images):
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

    Per extension field, a(root_f) * root_f^(-i) is one array for all f
    and i, and the plan's table of y -> n^(-1) * Tr(y), built from the d
    Frobenius powers of every element, maps it to F_q in one lookup.
    """
    plan = _plan(field, n)
    if sorted(con.factor for con in constituents) != sorted(factor for factor, _ in plan.factors):
        raise ValueError("constituents are not exactly the factors of x^n - 1")
    place = {factor: pos for pos, (factor, _) in enumerate(plan.factors)}
    images = [()] * len(plan.factors)
    for con in constituents:
        pos = place[con.factor]
        if (con.base, con.field, con.root) != (field, *plan.contexts[pos]):
            raise ValueError("constituent does not match its deterministic context")
        images[pos] = (con.a_image, con.b_image)
    logs = [g.field.log_array[[images[pos] for pos in g.positions]].T[:, :, None] for g in plan.groups]
    out = np.empty((2, n), dtype=np.int64)
    for cols in _chunks(n, 2 * len(plan.factors)):
        # n^(-1) * Tr(image * root^(-i)) at [a or b, factor, i]
        traces = [g.trace[g.field.exp_array[lg + g.down[:, cols]]] for g, lg in zip(plan.groups, logs)]
        out[:, cols] = field_sum(field, np.concatenate(traces, axis=1), 1)
    a, b = out.tolist()
    return tuple(a), tuple(b)


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
