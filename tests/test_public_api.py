"""The names ``addgap`` exports, pinned: a change to the public API is a
visible diff of PUBLIC_API."""

import addgap
from addgap import errors

PUBLIC_API = [
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
    "TabulatedDensity",
    "TabulatedLevyMeasure",
    "TemperedStableMeasure",
    "ToleranceNotMet",
    "UniformDensity",
    "UnknownParameterPath",
    "ZeroMeasure",
    "ZeroVolatility",
    "bound_simple_sqrt",
    "bound_thm1",
    "bound_thm2",
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
    "l1_distance",
    "martingale_check",
    "parse_config",
    "parse_config_dict",
    "sample_terminal_values",
]


def test_all_is_the_pinned_list():
    assert addgap.__all__ == PUBLIC_API


def test_every_name_is_importable():
    assert [name for name in PUBLIC_API if not hasattr(addgap, name)] == []


def test_every_error_class_is_exported():
    # Callers catch them by name.
    classes = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.AddgapError)
    }
    assert classes <= set(PUBLIC_API)
