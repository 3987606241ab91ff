"""Exact arithmetic for two-faced pairs: two-bands bi-free cumulants, bi-free
additive convolution, rank <= 1 commutation systems, and the free-product
operator models that cross-validate them.

Everything computes over ``fractions.Fraction``; results are identities, not
approximations.
"""

from .series import (
    BadNormalization,
    BoxMismatch,
    NegativeOrder,
    NonzeroConstantSubstitution,
    NotInvertible,
    Series1,
    Series2,
    ZeroConstantTerm,
)
from .transforms import (
    free_convolve1,
    moments_to_r,
    r_to_moments,
    subordination_series,
)
from .partial_r import (
    PartialRTable,
    TwoBandsTable,
    biconvolve,
    compute_partial_r,
    mixed_cumulants_vanish,
    partial_r_to_moments,
)
from .oracle import (
    LEFT,
    RIGHT,
    FactorMismatch,
    ProductState,
    TruncationUnsound,
    TwoFacedPairRep,
    gaussian_pair_rep,
    shift_pair_rep,
    sum_two_bands_table,
    two_bands_table,
)
from .rank1 import (
    CapExceeded,
    NotRank1,
    Rank1System,
    UnsupportedIndexSets,
    biconvolve_rank1,
    extract_system,
    mixed_moment,
)

__version__ = "0.1.0"

__all__ = [
    "Series1",
    "Series2",
    "ZeroConstantTerm",
    "NotInvertible",
    "NonzeroConstantSubstitution",
    "NegativeOrder",
    "BadNormalization",
    "moments_to_r",
    "r_to_moments",
    "free_convolve1",
    "subordination_series",
    "TwoBandsTable",
    "PartialRTable",
    "BoxMismatch",
    "compute_partial_r",
    "partial_r_to_moments",
    "biconvolve",
    "mixed_cumulants_vanish",
    "LEFT",
    "RIGHT",
    "TwoFacedPairRep",
    "ProductState",
    "FactorMismatch",
    "TruncationUnsound",
    "gaussian_pair_rep",
    "shift_pair_rep",
    "two_bands_table",
    "sum_two_bands_table",
    "Rank1System",
    "mixed_moment",
    "biconvolve_rank1",
    "extract_system",
    "CapExceeded",
    "UnsupportedIndexSets",
    "NotRank1",
    "__version__",
]
