"""cubenoise: verification toolkit for noise-operator norm inequalities on the
boolean cube and their consequences for binary linear codes and binary matroids."""

from .cube import (
    CubeFunction,
    SubsetMask,
    character,
    conditional_expectation,
    dirichlet_forms,
    wht_forward,
)
from .inequalities import (
    GapReport,
    derivative_sweep,
    hypercontractive_sweep,
    log_sobolev_sweep,
    main_inequality_sweep,
    noisy_entropy_sweep,
    r_exponent,
    subset_expectation_mc,
    two_point_gap,
)

__all__ = [
    "CubeFunction",
    "GapReport",
    "SubsetMask",
    "character",
    "conditional_expectation",
    "derivative_sweep",
    "dirichlet_forms",
    "hypercontractive_sweep",
    "log_sobolev_sweep",
    "main_inequality_sweep",
    "noisy_entropy_sweep",
    "r_exponent",
    "subset_expectation_mc",
    "two_point_gap",
    "wht_forward",
]

__version__ = "0.1.0"
