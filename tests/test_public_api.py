"""The names ``addgap`` exports, pinned: a change to the public API is a
visible diff of PUBLIC_API."""

import ast
from collections import Counter
from pathlib import Path

import pytest

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


def _defined_names(node) -> list:
    """The names a module-level statement defines: a function's or class's,
    or the targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]


def unused_private_definitions(sources) -> list:
    """The module-level functions, classes and constants of ``sources``
    whose name starts with "_" and that nothing reads outside their own
    definition."""
    trees = [ast.parse(source) for source in sources]
    everywhere = sum(map(_referenced_names, trees), Counter())
    return [
        name
        for tree in trees
        for node in tree.body
        for name in _defined_names(node)
        if name.startswith("_")
        and not name.startswith("__")
        and everywhere[name] <= _referenced_names(node)[name]
    ]


@pytest.mark.parametrize(
    "sources, unused",
    [
        (["def _f():\n    return _f()\n"], ["_f"]),
        (["class _C:\n    pass\n", "from .a import _C\n"], []),
        (["_TOL = 1e-8\n"], ["_TOL"]),
        (["_TOL = 1e-8\ndef f():\n    return _TOL\n"], []),
        (["_LO_X, _LO_W = leggauss(7)\n_N = _LO_X.size\n"], ["_LO_W", "_N"]),
        (["_CAP: int = 5\n", "import m\nm._CAP\n"], []),
        (["__all__ = []\nPUBLIC = 1\n"], []),
    ],
)
def test_checker_flags_every_unused_private_definition(sources, unused):
    assert unused_private_definitions(sources) == unused


def test_every_private_definition_is_used():
    # A module-level function, class or constant whose name starts with "_"
    # is read somewhere in the package outside its own definition: code
    # that no command, estimator or demo reaches is deleted, not kept, and
    # so is a tuning constant that a deleted path left behind.
    sources = [path.read_text() for path in sorted(SOURCE.glob("*.py"))]
    assert unused_private_definitions(sources) == []
