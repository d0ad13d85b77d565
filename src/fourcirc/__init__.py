"""Self-dual four circulant codes over finite fields.

Construction and verification of [4n, 2n] four circulant codes, exact
enumeration of the self-dual ones, CRT constituent analysis, membership
censuses, and finite-length expurgation bounds, all with exhaustive
desk-scale oracles.
"""

__version__ = "0.1.0"

from .asympt import (
    BoundReport,
    ball_volume,
    entropy,
    entropy_inverse,
    expurgation_bound,
)
from .census import (
    ArtinReport,
    CensusReport,
    MembershipReport,
    MembershipSweep,
    artin_scan,
    code_distances,
    count_hermitian,
    count_sum_of_squares,
    distinct_code_count,
    enumerate_self_dual,
    membership_census,
    membership_sweep,
    self_dual_count_formula,
    self_dual_pairs,
)
from .codes import (
    DEFAULT_CAP,
    CapExceeded,
    Codeword,
    FourCirculantCode,
)
from .crt import Constituent, constituent_self_dual, decompose, decompose_report, reconstruct
from .fields import Embedding, Field, field_of_order, is_prime, quad_char
from .polyring import (
    Factorization,
    QuotientRing,
    RingTables,
    cyclotomic_cosets,
    factor_xn_minus_1,
    is_primitive_root,
    multiplicative_order,
)

__all__ = [
    "ArtinReport",
    "BoundReport",
    "CapExceeded",
    "CensusReport",
    "Codeword",
    "Constituent",
    "DEFAULT_CAP",
    "Embedding",
    "Factorization",
    "Field",
    "FourCirculantCode",
    "MembershipReport",
    "MembershipSweep",
    "QuotientRing",
    "RingTables",
    "artin_scan",
    "ball_volume",
    "code_distances",
    "constituent_self_dual",
    "count_hermitian",
    "count_sum_of_squares",
    "cyclotomic_cosets",
    "decompose",
    "decompose_report",
    "distinct_code_count",
    "entropy",
    "entropy_inverse",
    "enumerate_self_dual",
    "expurgation_bound",
    "factor_xn_minus_1",
    "field_of_order",
    "is_prime",
    "is_primitive_root",
    "membership_census",
    "membership_sweep",
    "multiplicative_order",
    "quad_char",
    "reconstruct",
    "self_dual_count_formula",
    "self_dual_pairs",
]
