"""One rule decides which formulas a measure gets: ``measures._family``.

A subclass of a built-in Levy family that overrides ``density`` and
``log_density`` leaves the family, so every site weighs it by those two
methods alone: the functionals, its total mass included, integrate its
density, the log-ratio reads its log-density, and its sizes come from the
table of its density.  The battery holds each site to that plain reference
for one such subclass of each family.  The last tests read the source of
every module of ``addgap`` and refuse any other test of a built-in family
than ``_family``, any call of ``_family`` outside ``_closed_form``, the
one dispatch that reads each family's forms, and any family class that
``simulate`` imports.  The jump densities with closed forms (uniform,
exponential, normal, tabulated) are families too.

The verdict on nu1 << nu2 is no family formula: every measure, in a family
or not, gets it from its support segments.  Its expectations here were
re-recorded when it stopped probing a grid: ``checked`` counts nu1's
segments where it counted probes, and the verdict is held equal to the
grid's (``_oracles.probe_abs_continuity``), which these pairs do not fool.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from addgap import ConstantFunction, ProblemSpec, ProcessSpec, measures, simulate
from addgap.measures import (
    CompoundPoissonMeasure,
    TabulatedLevyMeasure,
    TemperedStableMeasure,
    UniformDensity,
    check_abs_continuity,
    eta_nu,
    gamma_nu,
    hellinger_sq,
    l1_distance,
    pair_difference_fn,
    pair_jump_law,
    pair_log_ratio,
    support_integral,
    validate_levy,
)
from addgap.montecarlo import martingale_check
from addgap.simulate import RngStream

from _oracles import probe_abs_continuity

SRC = Path(measures.__file__).resolve().parent
FAMILIES = {
    "TemperedStableMeasure",
    "CompoundPoissonMeasure",
    "TabulatedLevyMeasure",
    "UniformDensity",
    "ExponentialDensity",
    "NormalDensity",
    "TabulatedDensity",
}


class _Twice:
    """Twice the density of the family it is mixed into, by its own
    ``density`` and ``log_density``."""

    def density(self, y):
        return 2.0 * super().density(y)

    def log_density(self, y):
        with np.errstate(divide="ignore"):
            return np.log(self.density(y))


class _TwiceTS(_Twice, TemperedStableMeasure):
    pass


class _TwiceCP(_Twice, CompoundPoissonMeasure):
    pass


class _TwiceTab(_Twice, TabulatedLevyMeasure):
    pass


GRID = (-1.0, -0.2, 0.1, 0.4, 1.0)
# Each family's subclass, a measure of the family itself, and points inside
# both supports.
CASES = {
    "tempered_stable": (
        _TwiceTS(1.0, 1.0, 1.0, 2.0, -0.5),
        TemperedStableMeasure(2.0, 2.0, 1.0, 1.0, -0.5),
        np.array([-3.0, -0.5, 1e-3, 0.25, 2.0]),
    ),
    "compound_poisson": (
        _TwiceCP(1.0, UniformDensity(0.0, 1.0)),
        CompoundPoissonMeasure(1.0, UniformDensity(0.0, 1.0)),
        np.array([1e-3, 0.25, 0.5, 1.0]),
    ),
    "tabulated": (
        _TwiceTab(GRID, (1.0, 3.0, 4.0, 2.0, 1.0)),
        TabulatedLevyMeasure(GRID, (2.0, 5.0, 3.0, 3.0, 0.5)),
        np.array([-0.9, -0.5, 0.1, 0.3, 0.7]),
    ),
}


# The base class of each family's subclass, with the subclass's parameters:
# the subclass's mass is twice the base's.
BASES = {
    "tempered_stable": TemperedStableMeasure(1.0, 1.0, 1.0, 2.0, -0.5),
    "compound_poisson": CompoundPoissonMeasure(1.0, UniformDensity(0.0, 1.0)),
    "tabulated": TabulatedLevyMeasure(GRID, (1.0, 3.0, 4.0, 2.0, 1.0)),
}


def plain_functionals(nu1, nu2, sub):
    """L1, H^2 and eta of the pair, and gamma of the subclass sub, each one
    quadrature of the plain densities."""
    d1, d2, ds = nu1.density, nu2.density, sub.density
    values = {
        "l1": support_integral((nu1, nu2), lambda y: np.abs(d1(y) - d2(y))),
        "h2": support_integral((nu1, nu2), lambda y: (np.sqrt(d1(y)) - np.sqrt(d2(y))) ** 2),
        "gamma": support_integral((sub,), lambda y: y * ds(y), -1.0, 1.0),
        "eta": support_integral((nu1, nu2), lambda y: y * (d1(y) - d2(y)), -1.0, 1.0),
    }
    return {k: v.hex() for k, v in values.items()}


def ordered_pairs():
    for name, (sub, plain, y) in CASES.items():
        yield pytest.param(sub, plain, y, id=f"{name}-subclass_first")
        yield pytest.param(plain, sub, y, id=f"{name}-subclass_second")


class TestSubclassBattery:
    @pytest.mark.parametrize("family", sorted(CASES))
    def test_subclass_leaves_its_family(self, family):
        sub, plain, _ = CASES[family]
        assert measures._family(type(plain)) is type(plain)
        assert measures._family(type(sub)) is None

    @pytest.mark.parametrize("nu1, nu2, y", ordered_pairs())
    def test_functionals_are_the_plain_quadrature(self, nu1, nu2, y):
        # The pair's functionals, and gamma and the Levy verdict of the
        # subclass, which is outside every family whichever side it is on
        # (the measure of the family takes its closed forms).
        sub = nu1 if measures._family(type(nu1)) is None else nu2
        got = {
            "l1": l1_distance(nu1, nu2),
            "h2": hellinger_sq(nu1, nu2),
            "gamma": gamma_nu(sub),
            "eta": eta_nu(nu1, nu2),
        }
        assert {k: v.hex() for k, v in got.items()} == plain_functionals(nu1, nu2, sub)
        assert validate_levy(sub).ok

    @pytest.mark.parametrize("nu1, nu2, y", ordered_pairs())
    def test_verdict_is_probed(self, nu1, nu2, y):
        # The exact verdict, which the probe grid confirms for these pairs;
        # ``checked`` counts nu1's segments.
        report = check_abs_continuity(nu1, nu2)
        assert report.ok and probe_abs_continuity(nu1, nu2).ok
        assert report.checked == len(nu1.support_segments())

    @pytest.mark.parametrize("nu1, nu2, y", ordered_pairs())
    def test_pointwise_sites_read_the_plain_densities(self, nu1, nu2, y):
        d1, d2 = nu1.density(y), nu2.density(y)
        assert np.array_equal(pair_difference_fn(nu1, nu2)(y), d1 - d2)
        plain_ratio = nu1.log_density(y) - nu2.log_density(y)
        assert np.array_equal(pair_log_ratio(nu1, nu2)(y), plain_ratio)
        law = pair_jump_law(nu1, nu2)
        assert law.kind == "generic" and np.array_equal(law.value(y), plain_ratio)

    @pytest.mark.parametrize("family", sorted(CASES))
    def test_sizes_come_from_the_table_of_its_density(self, family):
        sub, _, _ = CASES[family]
        source = simulate._size_source(sub, 0.0, RngStream(1, 0), 10)
        assert type(source) is simulate._TableSizes
        assert source.table is simulate._size_table(sub, 0.0)

    @pytest.mark.parametrize("family", sorted(CASES))
    def test_mass_is_the_plain_quadrature(self, family):
        # The mass of its own density, twice its base class's (within the
        # quadrature's tolerance, 1e-8): 6.0515... for the tempered-stable
        # subclass and 2.0 for the compound Poisson one, which had read
        # their base class's formulas.
        sub, _, _ = CASES[family]
        plain = support_integral((sub,), sub.density)
        twice = 2.0 * BASES[family].total_mass()
        for mass in (sub.total_mass(), sub.mass_above(0.0)):
            assert mass == pytest.approx(plain, rel=1e-12)
            assert mass == pytest.approx(twice, rel=1e-8)

    def test_compound_poisson_martingale_covers_one(self):
        # M_T's compensator reads the doubled mass, so its mean is 1; with
        # the base class's mass it read e = 2.72.
        sub, plain, _ = CASES["compound_poisson"]
        zero, unit = ConstantFunction(0.0), ConstantFunction(1.0)
        spec = ProblemSpec(ProcessSpec(zero, unit, sub), ProcessSpec(zero, unit, plain), 1.0)
        result = martingale_check(spec, 200_000, 1)
        assert abs(result.mean - 1.0) <= 4.0 * result.half_width_95

    def test_compound_poisson_l1_reads_the_doubled_density(self):
        # The density gap of a compound Poisson pair with one jump density
        # is (lambda1 - lambda2) times that density only within the family;
        # twice U(0, 1) against U(0, 1) is 1 apart on [0, 1].
        sub, plain, _ = CASES["compound_poisson"]
        assert l1_distance(sub, plain) == pytest.approx(1.0, rel=1e-15)


def nodes_inside(tree: ast.AST, function: str) -> set[int]:
    """The ids of the nodes inside the functions of tree named function."""
    return {
        id(n)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == function
        for n in ast.walk(node)
    }


def family_tests(source: str) -> list[int]:
    """Lines of ``source`` outside ``_family`` that test membership of a
    built-in family: isinstance or issubclass against one, or a comparison
    naming one whose other operands are not ``_family(...)`` calls, such
    as ``type(x) is F`` or ``type(x).density is F.density``."""

    def names_family(node):
        return any(isinstance(n, ast.Name) and n.id in FAMILIES for n in ast.walk(node))

    def allowed(operand):
        if isinstance(operand, ast.Name) and operand.id in FAMILIES:
            return True
        return isinstance(operand, ast.Call) and getattr(operand.func, "id", None) == "_family"

    tree = ast.parse(source)
    inside = nodes_inside(tree, "_family")
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
            "isinstance",
            "issubclass",
        ):
            if any(names_family(arg) for arg in node.args[1:]):
                found.append(node.lineno)
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(names_family, operands)) and not all(map(allowed, operands)):
                found.append(node.lineno)
    return found


@pytest.mark.parametrize(
    "snippet, lines",
    [
        ("isinstance(nu, CompoundPoissonMeasure)", [1]),
        ("isinstance(g, (JumpDensity, UniformDensity))", [1]),
        ("issubclass(cls, TabulatedLevyMeasure)", [1]),
        ("type(nu1) is type(nu2) is TemperedStableMeasure", [1]),
        ("type(nu).density is TemperedStableMeasure.density", [1]),
        ("type(g) in (UniformDensity,)", [1]),
        ("_family(type(nu1)) is _family(type(nu2)) is TemperedStableMeasure", []),
        ("isinstance(nu, ZeroMeasure)", []),
        ("def _family(cls):\n    return issubclass(cls, UniformDensity)", []),
    ],
)
def test_checker_flags_every_form_of_a_family_test(snippet, lines):
    assert family_tests(snippet) == lines


MODULES = sorted(path.name for path in SRC.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_family_is_the_one_family_test(module):
    assert family_tests((SRC / module).read_text()) == []


def dispatch_bypasses(source: str) -> list[int]:
    """Lines of ``source`` that name ``_ts_alpha``, or call ``_family``
    outside ``_closed_form``: a second caller would be a second place that
    decides which family gets which formula."""
    tree = ast.parse(source)
    inside = nodes_inside(tree, "_closed_form")
    found = [
        n.lineno for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "_ts_alpha"
    ]
    found += [
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and getattr(n.func, "id", None) == "_family"
        and id(n) not in inside
    ]
    return sorted(found)


@pytest.mark.parametrize(
    "snippet, lines",
    [
        ("_ts_alpha(nu1, nu2)", [1]),
        ("def l1_distance(nu1, nu2):\n    return _family(type(nu1))", [2]),
        ("def eta_nu(nu1, nu2):\n    f = lambda: _family(type(nu2))", [2]),
        ("def pair_jump_law(nu1, nu2):\n    return _family(type(nu1))", [2]),
        ("def l1_distance(nu1, nu2):\n    return _closed_form('l1', (nu1, nu2))", []),
        ("def _closed_form(name, measures):\n    return _family(type(measures[0]))", []),
        ("FAMILY = _family(TemperedStableMeasure)", [1]),
        ("def _size_source(nu):\n    if _family(type(nu)):\n        pass", [2]),
    ],
)
def test_checker_flags_every_dispatch_bypass(snippet, lines):
    assert dispatch_bypasses(snippet) == lines


def test_functionals_read_the_family_through_the_dispatch():
    found = {module: dispatch_bypasses((SRC / module).read_text()) for module in MODULES}
    assert found == {module: [] for module in MODULES}


def family_imports(source: str) -> list[int]:
    """Lines of ``source`` that import a family class or ``_family``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and any(alias.name in FAMILIES | {"_family"} for alias in node.names)
    ]


@pytest.mark.parametrize(
    "snippet, lines",
    [
        ("from .measures import CompoundPoissonMeasure", [1]),
        ("from .measures import (\n    LevyMeasure,\n    _family,\n)", [1]),
        ("import os\nfrom addgap.measures import UniformDensity as U", [2]),
        ("from .measures import JumpDensity, LevyMeasure, _closed_form", []),
    ],
)
def test_checker_flags_every_family_import(snippet, lines):
    assert family_imports(snippet) == lines


def test_simulate_imports_no_family():
    # The samplers take their family's form from ``_closed_form``.
    assert family_imports((SRC / "simulate.py").read_text()) == []


FAMILY_FIELDS = {"intensity", "jump_density", "alpha", "c_plus", "c_minus", "lam_plus", "lam_minus"}


def family_field_reads(source: str) -> list[int]:
    """Lines of ``source`` that read a field only some families have."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in FAMILY_FIELDS
    ]


@pytest.mark.parametrize(
    "snippet, lines",
    [
        ("acceptance = _mass_above(nu, epsilon) / nu.intensity", [1]),
        ("density = nu.jump_density", [1]),
        ("x = 1\nif nu.alpha < 0 and nu.lam_minus:\n    pass", [2, 2]),
        ("nu.c_plus + nu.c_minus + nu.lam_plus", [1, 1, 1]),
        ("acceptance = _mass_above(nu, epsilon) / _mass_above(nu, 0.0)", []),
        ("intensity = _closed_form('total_mass', (nu,))", []),
    ],
)
def test_checker_flags_every_family_field(snippet, lines):
    assert family_field_reads(snippet) == lines


def test_simulate_reads_no_family_field():
    # The samplers read a measure through its methods and ``_closed_form``.
    assert family_field_reads((SRC / "simulate.py").read_text()) == []
