"""Self-dual four circulant codes over finite fields.

Construction and verification of [4n, 2n] four circulant codes, exact
enumeration of the self-dual ones, CRT constituent analysis, membership
censuses, and finite-length expurgation bounds, all with exhaustive
desk-scale oracles.

The public names in __all__ are exported lazily (PEP 562): importing the
package loads no submodule, and the first access to a name, as
fourcirc.X or from fourcirc import X, imports the one submodule that
defines it.  A submodule is likewise loaded on its first access as
fourcirc.<module>.  So `python -m fourcirc distance` never compiles the
census, crt or asympt layers.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_MODULE_EXPORTS = {
    "asympt": ["BoundReport", "ball_volume", "entropy", "entropy_inverse", "expurgation_bound"],
    "census": [
        "ArtinReport",
        "CensusReport",
        "MembershipReport",
        "MembershipSweep",
        "artin_scan",
        "code_distances",
        "count_hermitian",
        "count_sum_of_squares",
        "distinct_code_count",
        "enumerate_self_dual",
        "membership_census",
        "membership_sweep",
        "self_dual_count_formula",
        "self_dual_pairs",
    ],
    "codes": ["DEFAULT_CAP", "CapExceeded", "Codeword", "FourCirculantCode"],
    "crt": ["Constituent", "constituent_self_dual", "decompose", "decompose_report", "reconstruct"],
    "fields": ["Embedding", "Field", "field_of_order", "is_prime", "quad_char"],
    "polyring": [
        "Factorization",
        "QuotientRing",
        "RingTables",
        "cyclotomic_cosets",
        "factor_xn_minus_1",
        "is_primitive_root",
        "multiplicative_order",
    ],
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

_SUBMODULES = frozenset([*_MODULE_EXPORTS, "cli"])

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value  # later accesses skip this hook
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
