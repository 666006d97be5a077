"""Distance bounds between additive processes, and their Monte Carlo validation.

An additive process is determined by local characteristics (f(.), sigma^2(.),
nu): a drift function, a squared-volatility function and a Levy measure. This
package computes explicit upper bounds on the L1 distance (twice the total
variation distance) between the laws of two such processes on a finite
horizon, and validates the bounds empirically by simulating the pathwise
likelihood ratio.
"""

__version__ = "0.1.0"

from .errors import (
    AddgapError,
    ConfigParse,
    DivergentIntegral,
    DivergentMass,
    HypothesisFailed,
    NonFiniteIntegrand,
    NotAbsolutelyContinuous,
    NotGaussianCase,
    RatioUndefined,
    ToleranceNotMet,
    UnknownParameterPath,
    ZeroVolatility,
)
from .quadrature import (
    IntegrationRequest,
    IntegrationResult,
    integrate,
    integrate_fn,
)
from .measures import (
    CompoundPoissonMeasure,
    ExponentialDensity,
    JumpDensity,
    LevyMeasure,
    NormalDensity,
    TabulatedDensity,
    TabulatedLevyMeasure,
    TemperedStableMeasure,
    UniformDensity,
    ZeroMeasure,
    check_abs_continuity,
    gamma_nu,
    hellinger_sq,
    l1_distance,
)
from .processes import (
    ConstantFunction,
    PiecewiseConstantFunction,
    PolynomialFunction,
    ProblemSpec,
    ProcessSpec,
    TimeFunction,
    char_function,
)
from .bounds import (
    BoundReport,
    bound_simple_sqrt,
    bound_thm1,
    bound_thm2,
    compute_report,
    gaussian_tv_exact,
    normal_cdf,
)
from .simulate import (
    DEFAULT_EPSILON,
    RngStream,
    sample_terminal_values,
)
from .montecarlo import (
    EstimateResult,
    default_epsilon,
    e_abs_one_minus_exp_normal,
    estimate_sinh_oracle,
    estimate_tv,
    martingale_check,
)
from .config import (
    EstimatorSettings,
    ExperimentConfig,
    SweepSettings,
    parse_config,
    parse_config_dict,
    set_config_value,
)

__all__ = [
    "AddgapError",
    "BoundReport",
    "CompoundPoissonMeasure",
    "ConfigParse",
    "ConstantFunction",
    "DEFAULT_EPSILON",
    "DivergentIntegral",
    "DivergentMass",
    "EstimateResult",
    "EstimatorSettings",
    "ExperimentConfig",
    "ExponentialDensity",
    "HypothesisFailed",
    "IntegrationRequest",
    "IntegrationResult",
    "JumpDensity",
    "LevyMeasure",
    "NonFiniteIntegrand",
    "NormalDensity",
    "NotAbsolutelyContinuous",
    "NotGaussianCase",
    "PiecewiseConstantFunction",
    "PolynomialFunction",
    "ProblemSpec",
    "ProcessSpec",
    "RatioUndefined",
    "RngStream",
    "SweepSettings",
    "TabulatedDensity",
    "TabulatedLevyMeasure",
    "TemperedStableMeasure",
    "TimeFunction",
    "ToleranceNotMet",
    "UniformDensity",
    "UnknownParameterPath",
    "ZeroMeasure",
    "ZeroVolatility",
    "bound_simple_sqrt",
    "bound_thm1",
    "bound_thm2",
    "char_function",
    "check_abs_continuity",
    "compute_report",
    "default_epsilon",
    "e_abs_one_minus_exp_normal",
    "estimate_sinh_oracle",
    "estimate_tv",
    "gamma_nu",
    "gaussian_tv_exact",
    "hellinger_sq",
    "integrate",
    "integrate_fn",
    "l1_distance",
    "martingale_check",
    "normal_cdf",
    "parse_config",
    "parse_config_dict",
    "sample_terminal_values",
    "set_config_value",
]
