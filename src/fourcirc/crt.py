"""CRT decomposition of a four circulant code into length-4 constituents.

With x^n - 1 = prod of distinct irreducible factors g_i over F_q, reducing
(a, b) modulo each factor gives one constituent per factor, over the field
F_q[x]/(g_i).  A constituent holds a mod g_i and b mod g_i as coefficient
rows of length deg g_i; no extension field is built.

Reconstruction is a = sum over i of e_i * a~_i, for any lifts a~_i of the
residues and the primitive idempotents e_i of factor_xn_minus_1 (e_i = 1
mod g_i and 0 mod every other factor).  In the basis {x^j * e_i : j <
deg g_i} of R(n, F_q), a constituent's residue row is its coordinates, so
both directions are one F_q-linear map of n x n coefficient codes, built
once per (field, n): row t of the decomposition map holds x^t mod g_i for
every i, from one shift recurrence over all factors at once, and row
(i, j) of the reconstruction map holds x^j * e_i, a cyclic shift of e_i.
Either map is applied by the field's log and antilog tables, one array
of products summed digit-wise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .codes import FourCirculantCode
from .fields import Field, field_sum
from .polyring import (FACTOR_CAP, PRODUCT_BLOCK, CapExceeded, Poly, factor_charge, factor_xn_minus_1, poly_add,
                       poly_degree, poly_mod, poly_mul, poly_trim)


@dataclass(frozen=True)
class Constituent:
    """Image of (a, b) modulo one irreducible factor of x^n - 1.

    kind is "self_reciprocal", "pair_first" or "pair_second"; a_image and
    b_image are the coefficient rows of a mod factor and b mod factor,
    ascending, of length deg factor; n is the length of the ring R(n, F_q)
    they come from.
    """

    n: int
    factor: Poly
    kind: str
    a_image: tuple
    b_image: tuple

    @property
    def degree(self) -> int:
        return poly_degree(self.factor)


def crt_charge(field: Field, n: int) -> int:
    """The field operations decompose and its Hermitian tests are charged
    at (field, n): factor_charge and 16 n^2 more, about 8 n^2 for the two
    n x n maps, built through about eight arrays of that size, and at
    most 6 n^2 for the tests, as each reduces an n-term reciprocal mod g
    (n d operations) and multiplies and reduces residues of degree below
    d (2 d^2), for a and for b, and the degrees d sum to at most n.
    factor_charge refuses first where n^2 alone exceeds FACTOR_CAP."""
    return factor_charge(field, n)[0] + 16 * n * n


@lru_cache(maxsize=None)
def _maps(field: Field, n: int) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The factors with their kinds, and the logarithms of the decomposition
    and reconstruction maps, each n x n, at (field, n).

    Factor i takes the places off_i, ..., off_i + d_i - 1 of a residue
    row.  x * (u mod g) = sum of u_(j-1) x^j - u_(d-1) * (g - x^d), so
    one step of the recurrence shifts every block up by one place and
    subtracts its top coefficient times its factor's lower coefficients.

    Refused with CapExceeded, before any work, when crt_charge exceeds
    FACTOR_CAP.
    """
    charge = crt_charge(field, n)
    if charge > FACTOR_CAP:
        raise CapExceeded(f"the CRT of R({n}, F_{field.q}) takes about {charge} field operations, cap is {FACTOR_CAP}")
    fact = factor_xn_minus_1(field, n)
    factors = tuple(fact.factors())
    log, exp, neg = field.log_array, field.exp_array, field.neg_array
    degrees = np.array([poly_degree(g) for g, _ in factors])
    offsets = np.cumsum(degrees) - degrees
    block = np.repeat(np.arange(len(factors)), degrees)  # block[place]: its factor
    top = (offsets + degrees - 1)[block]  # the top place of each place's block
    below = np.arange(-1, n - 1)
    below[offsets] = n  # the place one down in the block, or n, which holds 0
    lower = log[np.concatenate([g[:-1] for g, _ in factors])]  # logs of g_i's coefficients below x^d_i
    down = np.zeros((n, n + 1), dtype=np.int64)  # down[t]: x^t mod every g_i, then a 0
    down[0, offsets] = field.one
    for t in range(n - 1):
        row = down[t]
        down[t + 1, :n] = field_sum(field, np.stack([row[below], neg[exp[log[row[top]] + lower]]]), 0)
    down = down[:, :n]
    lifts = np.array(fact.idempotents, dtype=np.int64)[block]  # e_i, once per place of factor i
    power = np.arange(n) - offsets[block]  # j at place off_i + j
    up = lifts[np.arange(n)[:, None], (np.arange(n) - power[:, None]) % n]  # x^j * e_i
    down, up = log[down], log[up]
    down.flags.writeable = up.flags.writeable = False  # shared by every caller at this (field, n)
    return factors, down, up


def _apply(field: Field, rows: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """rows @ M over F_q, for coefficient rows (..., n) and M given by logs,
    for as many columns at a time as PRODUCT_BLOCK allows."""
    row_logs = field.log_array[rows][..., :, None]
    step = max(1, PRODUCT_BLOCK // rows.size)
    return np.concatenate([field_sum(field, field.exp_array[row_logs + logs[:, lo : lo + step]], rows.ndim - 1)
                           for lo in range(0, logs.shape[1], step)], axis=-1)


def decompose(code: FourCirculantCode) -> list[Constituent]:
    """One constituent per irreducible factor of x^n - 1, in the order of
    Factorization.factors()."""
    factors, down, _ = _maps(code.field, code.n)
    a, b = _apply(code.field, np.array([code.a, code.b], dtype=np.int64), down).tolist()
    out, at = [], 0
    for factor, kind in factors:
        d = poly_degree(factor)
        out.append(Constituent(n=code.n, factor=factor, kind=kind, a_image=tuple(a[at : at + d]),
                               b_image=tuple(b[at : at + d])))
        at += d
    return out


def _check_codes(field: Field, con: Constituent) -> None:
    """Refuse image codes outside [0, q), which the field's tables would
    read as other elements."""
    codes = (*con.a_image, *con.b_image)
    if codes and (min(codes) < 0 or max(codes) >= field.q):
        raise ValueError(f"constituent of factor {list(con.factor)} has image codes outside [0, {field.q})")


def constituent_self_dual(field: Field, con: Constituent) -> bool:
    """Hermitian self-duality test for a self-reciprocal constituent over
    F_q = field: 1 + a*a' + b*b' = 0 mod g, with u' the ring reciprocal of
    u in R(n, F_q) (coefficient j moves to (n - j) mod n), reduced mod g.

    For a self-reciprocal g, u -> u' mod g is the conjugation of
    F_q[x]/(g) over its subfield of index 2 (x -> x^(q^(d/2))), or the
    identity when d = 1.
    """
    if con.kind != "self_reciprocal":
        raise ValueError("Hermitian test only applies to self-reciprocal constituents")
    _check_codes(field, con)
    g, n = con.factor, con.n

    def norm(u: tuple) -> Poly:  # u * u' mod g
        lift = tuple(u) + (0,) * (n - len(u))
        return poly_mul(field, poly_trim(u), poly_mod(field, poly_trim([lift[-j % n] for j in range(n)]), g))

    total = poly_add(field, (field.one,), poly_add(field, norm(con.a_image), norm(con.b_image)))
    return not poly_mod(field, total, g)


def reconstruct(field: Field, n: int, constituents: list[Constituent]) -> tuple[tuple, tuple]:
    """(a, b) in R(n, F_q) back from all its constituents: the sum over
    factors of e_i * a~_i, and the same for b.  The constituents must be
    exactly one per factor of x^n - 1 over this field, in any order, all
    of length n."""
    factors, _, up = _maps(field, n)
    place, at = {}, 0
    for factor, _ in factors:
        place[factor] = at
        at += poly_degree(factor)
    if any(con.n != n for con in constituents) or sorted(con.factor for con in constituents) != sorted(place):
        raise ValueError("constituents are not exactly the factors of x^n - 1")
    residues = np.empty((2, n), dtype=np.int64)
    for con in constituents:
        at, d = place[con.factor], con.degree
        if len(con.a_image) != d or len(con.b_image) != d:
            raise ValueError(f"constituent images must have {d} coefficients, the degree of their factor")
        _check_codes(field, con)
        residues[:, at : at + d] = con.a_image, con.b_image
    a, b = _apply(field, residues, up).tolist()
    return tuple(a), tuple(b)


def decompose_report(code: FourCirculantCode) -> list[dict]:
    """JSON-friendly view of the decomposition, with the Hermitian verdicts."""
    out = []
    for con in decompose(code):
        out.append(
            {
                "factor": list(con.factor),
                "degree": con.degree,
                "kind": con.kind,
                "a_image": list(con.a_image),
                "b_image": list(con.b_image),
                "hermitian_self_dual": (
                    constituent_self_dual(code.field, con) if con.kind == "self_reciprocal" else None
                ),
            }
        )
    return out
