"""cubenoise: verification toolkit for noise-operator norm inequalities on the
boolean cube and their consequences for binary linear codes and binary matroids."""

from .cube import (
    CubeFunction,
    FourierSpectrum,
    SubsetMask,
    character,
    conditional_expectation,
    dirichlet_form,
    entropy,
    lq_norm,
    noise_operator,
    renyi_entropy,
    wht_forward,
    wht_inverse,
)
from .inequalities import (
    GapReport,
    derivative_check,
    hypercontractive_gap,
    log_sobolev_gap,
    main_inequality_gap,
    noisy_entropy_gap,
    r_exponent,
    subset_expectation_exact,
    subset_expectation_mc,
    two_point_gap,
)

__all__ = [
    "CubeFunction",
    "FourierSpectrum",
    "GapReport",
    "SubsetMask",
    "character",
    "conditional_expectation",
    "derivative_check",
    "dirichlet_form",
    "entropy",
    "hypercontractive_gap",
    "log_sobolev_gap",
    "lq_norm",
    "main_inequality_gap",
    "noise_operator",
    "noisy_entropy_gap",
    "r_exponent",
    "renyi_entropy",
    "subset_expectation_exact",
    "subset_expectation_mc",
    "two_point_gap",
    "wht_forward",
    "wht_inverse",
]

__version__ = "0.1.0"
