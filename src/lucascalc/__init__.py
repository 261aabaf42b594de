"""Calculus on two-parameter integer-like sequences and its deformed
exponential, trigonometric, and hyperbolic function families, with an
exact identity-verification suite."""

from .errors import (
    BackendMismatch,
    DivisionByZeroFactor,
    DivisionByZeroValue,
    IndexOutOfRange,
    LucasError,
    NegativeNormalizer,
    NonContractingNodes,
    NonConvergent,
    NonUnitConstantTerm,
    NoRootFound,
    OrderMismatch,
    PoleAtOrigin,
    RootsUnavailable,
    SeriesDiverging,
    UnknownIdentityId,
    VanishingFactor,
    ZeroParameter,
)
from .scalars import (
    Backend,
    GaussianRational,
    GAUSSIAN_I,
    LucasParams,
    Scalar,
    backend_of,
    binet,
    binom2,
    lucas_u,
    lucas_v,
    lucasnomial,
    lucasnomial_row,
    lucastorial,
    magnitude,
    make_params,
    params_from_roots,
    promote,
    promote_params,
)
from .series import TruncatedSeries, TruncatedSeries2, outer, promote_series, promote_series2
from .deformed import (
    DeformedBinomial,
    DeformedPowerWeights,
    DeformedZeroWeights,
    MultinomialWeights,
    PowerWeights,
    deformed_power_coeffs,
    deformed_power_value,
    deformed_zero,
    multinomial_number,
    phi_product_power,
)
from .calculus import (
    antiderivative_series,
    antiderivative_series2,
    derivative_series,
    derivative_series2,
    derivative_value,
    integral_value,
    integration_by_parts_residual,
)
from .functions import (
    EvalInfo,
    FnKind,
    PiU,
    SERIES_KINDS,
    binomial_series2,
    binomial_value,
    deformed_zero_series,
    deformed_zero_value,
    find_pi_u,
    fn_series,
    fn_value,
    fn_value_info,
    multinomial_series,
    multinomial_value,
    tilde_value,
    weighted_binomial_value,
    weighted_fn_series,
    weighted_fn_value,
)
from .identities import CATALOG, IdentityOutcome, IdentityRecord, SuiteReport, run_suite

__version__ = "0.1.0"
