"""Serial extremal dependence in stationary time series.

Estimators for the extremogram family (univariate, cross, trivariate
unions, return times), confidence bands from the stationary bootstrap,
significance bands from random permutation, and GARCH(1,1) / stochastic
volatility tooling for simulation and devolatilization.
"""

__version__ = "0.1.0"

from .core import (
    LOWER,
    TAILS,
    TWO_SIDED,
    UPPER,
    ExtremalRegion,
    ThresholdSpec,
    TimeSeries,
    empirical_quantile,
    log_returns,
    lower_tail_region,
    make_indicators,
    two_sided_region,
    upper_tail_region,
)
from .errors import (
    DegenerateThreshold,
    ExtremogramError,
    FitDiverged,
    InvalidInput,
    InvalidState,
    NoExceedances,
    UnstableResample,
)
from .estimators import (
    FAMILIES,
    RatioKernel,
    cross_kernel,
    geometric_pmf,
    return_times_kernel,
    tri_source_kernel,
    tri_target_kernel,
    univariate_kernel,
)
from .models import (
    GarchParams,
    SvParams,
    VolatilityDecomposition,
    devolatilize,
    fit_garch_qmle,
    simulate_garch,
    simulate_sv,
)
from .resample import (
    BAND_METHODS,
    METHOD_CENTERED,
    METHOD_QUANTILE,
    BlockPlan,
    BootstrapBands,
    bootstrap_bands,
    bootstrap_variance_s2,
    draw_block_plan,
    materialize,
    permutation_bands,
)

__all__ = [
    "__version__",
    "ExtremalRegion",
    "ThresholdSpec",
    "TimeSeries",
    "UPPER",
    "LOWER",
    "TWO_SIDED",
    "TAILS",
    "empirical_quantile",
    "log_returns",
    "lower_tail_region",
    "make_indicators",
    "two_sided_region",
    "upper_tail_region",
    "ExtremogramError",
    "InvalidInput",
    "InvalidState",
    "DegenerateThreshold",
    "NoExceedances",
    "UnstableResample",
    "FitDiverged",
    "FAMILIES",
    "RatioKernel",
    "univariate_kernel",
    "cross_kernel",
    "tri_target_kernel",
    "tri_source_kernel",
    "return_times_kernel",
    "geometric_pmf",
    "GarchParams",
    "SvParams",
    "VolatilityDecomposition",
    "simulate_garch",
    "simulate_sv",
    "fit_garch_qmle",
    "devolatilize",
    "BlockPlan",
    "BootstrapBands",
    "BAND_METHODS",
    "METHOD_CENTERED",
    "METHOD_QUANTILE",
    "draw_block_plan",
    "materialize",
    "bootstrap_bands",
    "bootstrap_variance_s2",
    "permutation_bands",
]
