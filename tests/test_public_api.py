"""The names ``addgap`` exports, pinned: a change to the public API is a
visible diff of PUBLIC_API."""

import ast
from collections import Counter
from pathlib import Path

import addgap
from addgap import errors

SOURCE = Path(addgap.__file__).parent

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


def _referenced_names(tree) -> Counter:
    """Each name a tree reads, as a name, an attribute or an import."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
    return names


def test_every_private_definition_is_used():
    # A module-level function or class whose name starts with "_" is read
    # somewhere in the package outside its own body: code that no command,
    # estimator or demo reaches is deleted, not kept.
    trees = [ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))]
    everywhere = sum(map(_referenced_names, trees), Counter())
    unused = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and everywhere[node.name] <= _referenced_names(node)[node.name]
    ]
    assert unused == []
