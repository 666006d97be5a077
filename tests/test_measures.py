"""Tests for Levy measures, jump densities, and pairwise functionals."""

import dataclasses
import math
import random
from bisect import bisect_right
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammainc

from addgap import _forms, measures as measures_module
from addgap.bounds import compute_report
from addgap.errors import (
    DivergentIntegral,
    NonFiniteIntegrand,
    NotAbsolutelyContinuous,
    RatioUndefined,
)
from addgap.measures import (
    AbsContinuityReport,
    CompoundPoissonMeasure,
    ExponentialDensity,
    LevyValidation,
    NormalDensity,
    TabulatedDensity,
    TabulatedLevyMeasure,
    TemperedStableMeasure,
    UniformDensity,
    ZeroMeasure,
    check_abs_continuity,
    eta_nu,
    gamma_nu,
    hellinger_sq,
    l1_distance,
    pair_difference_fn,
    pair_jump_law,
    pair_log_ratio,
    support_edges,
    support_integral,
    validate_levy,
)
from addgap.config import parse_config, parse_config_dict
from addgap.processes import ConstantFunction, ProblemSpec, ProcessSpec
from addgap.simulate import RngStream, sample_jump_batch
from addgap.quadrature import IntegrationRequest, integrate

from _oracles import (
    ETA_EX3,
    GAMMA_POS_LAM1,
    GAMMA_POS_LAM2,
    H2_EX3,
    H2_EX3_A15,
    L1_EX3,
    AC_PROBES_PER_SIDE,
    AC_PROBE_MAX_FLOOR,
    OneSide,
    _same_shape_ts_difference,
    _side_edges,
    ac_probes,
    _unit_cut_edges,
    clear_caches,
    direct_ts_total_mass,
    loaded,
    loglinear_functionals,
    pair_support_edges,
    probe_abs_continuity,
    report_bits,
    upper_gamma_cf_with_abs,
)

TOL_EXACT = 1e-12
TOL_QUAD = 1e-7
TOL_CLOSED = 1e-9

EX3_NU1 = TemperedStableMeasure(c_minus=1.0, c_plus=1.0, lam_minus=1.0, lam_plus=2.0, alpha=0.5)
EX3_NU2 = TemperedStableMeasure(c_minus=1.0, c_plus=1.0, lam_minus=1.0, lam_plus=1.0, alpha=0.5)

CP_U01 = lambda lam: CompoundPoissonMeasure(lam, UniformDensity(0.0, 1.0))


@dataclasses.dataclass(frozen=True)
class OwnDensityCP(CompoundPoissonMeasure):
    """A compound Poisson measure given by its own ``density`` (the same
    formula): outside every family, so its functionals take the quadrature."""

    def density(self, y):
        return super().density(y)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestJumpDensities:
    def test_uniform_pdf_and_support(self):
        d = UniformDensity(-1.0, 3.0)
        y = np.array([-2.0, -1.0, 0.0, 3.0, 3.5])
        np.testing.assert_allclose(d.pdf(y), [0.0, 0.25, 0.25, 0.25, 0.0])
        assert d.support() == ((-1.0, 3.0),)

    def test_uniform_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            UniformDensity(1.0, 1.0)

    def test_exponential_pdf(self):
        d = ExponentialDensity(2.0)
        assert d.pdf(np.array([-1.0]))[0] == 0.0
        assert abs(d.pdf(np.array([1.0]))[0] - 2.0 * math.exp(-2.0)) < TOL_EXACT

    def test_normal_pdf_peak(self):
        d = NormalDensity(1.0, 4.0)
        peak = 1.0 / math.sqrt(2.0 * math.pi * 4.0)
        assert abs(d.pdf(np.array([1.0]))[0] - peak) < TOL_EXACT

    def test_uniform_sampling_moments(self):
        gen = np.random.default_rng(11)
        x = UniformDensity(2.0, 5.0).sample(gen, 200_000)
        assert abs(x.mean() - 3.5) < 4.0 * math.sqrt(0.75 / 200_000)
        assert x.min() >= 2.0 and x.max() <= 5.0

    def test_exponential_sampling_ks(self):
        gen = np.random.default_rng(12)
        x = ExponentialDensity(3.0).sample(gen, 100_000)
        assert stats.kstest(x, stats.expon(scale=1.0 / 3.0).cdf).pvalue > 1e-3

    def test_normal_sampling_ks(self):
        gen = np.random.default_rng(13)
        x = NormalDensity(-1.0, 0.25).sample(gen, 100_000)
        assert stats.kstest(x, stats.norm(loc=-1.0, scale=0.5).cdf).pvalue > 1e-3


class TestTabulatedDensity:
    def triangular(self):
        return TabulatedDensity((0.0, 1.0, 2.0), (0.0, 1.0, 0.0))

    def test_pdf_interpolates(self):
        d = self.triangular()
        y = np.array([-0.5, 0.5, 1.0, 1.5, 2.5])
        np.testing.assert_allclose(d.pdf(y), [0.0, 0.5, 1.0, 0.5, 0.0], atol=TOL_EXACT)

    def test_requires_unit_mass(self):
        with pytest.raises(ValueError):
            TabulatedDensity((0.0, 1.0), (1.0, 3.0))

    def test_requires_sorted_grid(self):
        with pytest.raises(ValueError):
            TabulatedDensity((1.0, 0.0, 2.0), (0.0, 1.0, 0.0))

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            TabulatedDensity((0.0, 1.0, 2.0), (0.5, -0.1, 1.1))

    def test_sampling_matches_cdf(self):
        gen = np.random.default_rng(21)
        x = self.triangular().sample(gen, 100_000)

        def cdf(t):
            t = np.asarray(t, dtype=float)
            return np.where(t < 1.0, 0.5 * t**2, 1.0 - 0.5 * (2.0 - t) ** 2)

        assert stats.kstest(x, cdf).pvalue > 1e-3
        assert ((x >= 0.0) & (x <= 2.0)).all()

    def test_sampling_concentrated_cell(self):
        width = 1e-6
        grid = (0.999999, 1.0, 1.0 + width, 1.000002)
        values = (0.0, 0.5e6, 0.5e6, 0.0)
        d = TabulatedDensity(grid, values)
        gen = np.random.default_rng(22)
        x = d.sample(gen, 100_000)
        assert ((x >= grid[0]) & (x <= grid[-1])).all()
        frac = ((x >= 1.0) & (x <= 1.0 + width)).mean()
        assert abs(frac - 0.5) < 4.0 * math.sqrt(0.25 / 100_000)


class TestDensityEvaluation:
    def test_tempered_stable_point_value(self):
        nu = TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, 0.5)
        assert abs(nu.density(np.array([1.0]))[0] - math.exp(-1.0)) < TOL_EXACT

    def test_compound_poisson_point_value(self):
        assert abs(CP_U01(2.0).density(np.array([0.5]))[0] - 2.0) < TOL_EXACT

    def test_tempered_stable_sides(self):
        nu = TemperedStableMeasure(c_minus=3.0, c_plus=1.0, lam_minus=2.0, lam_plus=1.0, alpha=0.5)
        got = nu.density(np.array([-0.5]))[0]
        expect = 3.0 * 0.5 ** (-1.5) * math.exp(-1.0)
        assert abs(got - expect) < TOL_EXACT * expect

    def test_log_density_consistent(self):
        nu = TemperedStableMeasure(1.0, 2.0, 1.0, 3.0, 0.5)
        y = np.array([-2.0, -0.1, 0.3, 1.7])
        np.testing.assert_allclose(nu.log_density(y), np.log(nu.density(y)), rtol=1e-13)

    def test_density_zero_at_origin(self):
        for nu in (EX3_NU1, CP_U01(1.0), ZeroMeasure()):
            assert nu.density(np.array([0.0]))[0] == 0.0


class TestTotalMass:
    def test_zero(self):
        assert ZeroMeasure().total_mass() == 0.0

    def test_compound_poisson_exact(self):
        assert CP_U01(2.0).total_mass() == 2.0

    def test_tempered_stable_finite_activity(self):
        nu = TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, -0.5)
        expect = 2.0 * math.gamma(0.5)
        assert abs(nu.total_mass() - expect) < TOL_QUAD * expect

    @pytest.mark.parametrize("alpha", [-1e-9, -1e-3, -0.05, -0.5, -1.5, -3.0])
    def test_tempered_stable_closed_form_against_mpmath(self, alpha):
        nu = TemperedStableMeasure(1.0, 2.0, 1.5, 0.7, alpha)
        a = mpmath.mpf(alpha)
        with mpmath.workdps(40):
            expect = mpmath.gamma(-a) * (2 * mpmath.mpf(0.7) ** a + mpmath.mpf(1.5) ** a)
        assert abs(nu.total_mass() - float(expect)) <= 1e-14 * float(expect)

    @pytest.mark.parametrize(
        "nu",
        [
            TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, -200.0),  # Gamma(200)
            TemperedStableMeasure(1.0, 1.0, 1e-300, 1.0, -2.0),  # lambda^alpha
            TemperedStableMeasure(1e300, 1e300, 1e-20, 1e-20, -0.5),  # the product
        ],
    )
    def test_tempered_stable_overflow_is_infinite(self, nu):
        assert nu.total_mass() == math.inf

    @pytest.mark.parametrize(
        "nu",
        [
            TemperedStableMeasure(1.0, 1.0, 300.0, 300.0, -169.0),  # both powers underflow
            TemperedStableMeasure(1.0, 2.0, 1.0, 1e16, -20.0),  # lambda+^alpha is subnormal
            TemperedStableMeasure(1e-310, 1e-310, 1.0, 1.0, -100.0),  # the sum is subnormal
            TemperedStableMeasure(1.0, 1.0, 1000.0, 1000.0, -200.0),  # Gamma(200) overflows
            TemperedStableMeasure(1e-300, 1e-300, 1e-3, 1e-3, -110.0),  # lambda^alpha overflows
        ],
    )
    def test_tempered_stable_beyond_the_doubles(self, nu):
        # A factor or the sum leaves the normal doubles on the way to a
        # mass that does not: each side is taken through logs, to about
        # 2^-53 times the size of its exponent.
        a = mpmath.mpf(nu.alpha)
        with mpmath.workdps(40):
            sides = [(nu.c_plus, nu.lam_plus), (nu.c_minus, nu.lam_minus)]
            expect = mpmath.gamma(-a) * sum(c * mpmath.mpf(lam) ** a for c, lam in sides)
        assert math.isclose(nu.total_mass(), float(expect), rel_tol=1e-12)

    def test_found_value(self):
        # 2 Gamma(169) 300^-169, which read 0.0 while both powers were
        # taken as they stand (30-digit mpmath).
        nu = TemperedStableMeasure(1.0, 1.0, 300.0, 300.0, -169.0)
        assert math.isclose(nu.total_mass(), 1.1748551281289954e-116, rel_tol=1e-13)

    def test_tempered_stable_keeps_its_bits_in_range(self):
        # Where both powers, the sum and the product are normal doubles the
        # mass is the one product it always was; elsewhere it is within
        # 1e-12 of mpmath, or inf where that overflows.
        moved = 0
        for alpha in (-1e-9, -0.5, -3.0, -20.0, -100.0, -169.0, -171.0, -180.0):
            for c in (1e-300, 1e-5, 1.0, 1e5, 1e300):
                for lams in ((1e-300, 1.0), (1e-3, 2.0), (1.0, 1.0), (300.0, 0.7), (1e16, 1e300)):
                    nu = TemperedStableMeasure(c, 2.0 * c, *lams, alpha)
                    direct, in_range = direct_ts_total_mass(nu)
                    if in_range:
                        assert nu.total_mass().hex() == direct.hex()
                        continue
                    moved += 1
                    with mpmath.workdps(40):
                        a = mpmath.mpf(alpha)
                        minus, plus = (mpmath.mpf(lam) ** a for lam in lams)
                        expect = float(mpmath.gamma(-a) * (c * minus + 2 * c * plus))
                    assert math.isclose(nu.total_mass(), expect, rel_tol=1e-12), nu
        assert moved > 0

    def test_tempered_stable_infinite_activity(self):
        assert EX3_NU1.total_mass() == math.inf

    def test_mass_above_compound_poisson(self):
        assert abs(CP_U01(2.0).mass_above(0.5) - 1.0) < TOL_CLOSED

    def test_mass_above_tempered_stable(self):
        nu = TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, 0.5)
        eps = 1e-4
        expect = 2.0 * float(mpmath.gammainc(-0.5, eps))
        assert abs(nu.mass_above(eps) - expect) < TOL_QUAD * expect

    def test_mass_above_zero_epsilon_is_total(self):
        assert CP_U01(3.0).mass_above(0.0) == 3.0
        assert EX3_NU1.mass_above(0.0) == math.inf


class TestUpperGammaFraction:
    """``_forms._upper_gamma_cf`` compares each value with tiny by two
    comparisons, not ``abs``; it matches the loop written with ``abs``
    (``_oracles.upper_gamma_cf_with_abs``) bit for bit, nan and inf
    included."""

    S = [-1.99, -1.5, -0.5, -1e-9, 0.0, 1e-9, 0.5, 1.5, 2.0, 10.5, 55.5, 200.0]
    X = [1e-300, 1e-5, 0.5, 1.0, 1.75, 2.5, 10.0, 1e3, 1e300]
    ODD = [math.nan, math.inf, -math.inf, 0.0]

    @staticmethod
    def outcome(fn, s, x):
        """fn(s, x) as hex, or the type of what it raised (x + 1 = s
        divides by 0)."""
        try:
            return fn(s, x).hex()
        except ArithmeticError as exc:
            return type(exc)

    @pytest.mark.parametrize("s", S + ODD)
    def test_matches_the_abs_loop(self, s):
        for x in self.X + self.ODD:
            got = self.outcome(_forms._upper_gamma_cf, s, x)
            assert got == self.outcome(upper_gamma_cf_with_abs, s, x), (s, x)

    def test_matches_the_abs_loop_at_random(self):
        rng = random.Random(20)
        for _ in range(2000):
            s, x = rng.uniform(-2.0, 60.0), 10.0 ** rng.uniform(-3.0, 3.0)
            got = self.outcome(_forms._upper_gamma_cf, s, x)
            assert got == self.outcome(upper_gamma_cf_with_abs, s, x), (s, x)


class TestGamma:
    def test_compound_poisson_uniform(self):
        assert abs(gamma_nu(CP_U01(3.0)) - 1.5) < TOL_CLOSED

    def test_zero_measure(self):
        assert gamma_nu(ZeroMeasure()) == 0.0

    def test_symmetric_tempered_stable(self):
        assert abs(gamma_nu(EX3_NU2)) < 1e-10

    def test_asymmetric_tempered_stable(self):
        expect = GAMMA_POS_LAM2 - GAMMA_POS_LAM1
        assert abs(gamma_nu(EX3_NU1) - expect) < TOL_QUAD * abs(expect)
        assert abs(expect - ETA_EX3) < TOL_EXACT

    def test_symmetric_normal_jumps(self):
        nu = CompoundPoissonMeasure(2.0, NormalDensity(0.0, 1.0))
        assert abs(gamma_nu(nu)) < 1e-10

    def test_divergent_for_alpha_above_one(self):
        nu = TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, 1.5)
        with pytest.raises(DivergentIntegral):
            gamma_nu(nu)

    def test_jumps_clipped_to_unit_ball(self):
        # jumps supported on [2, 3] contribute nothing
        nu = CompoundPoissonMeasure(5.0, UniformDensity(2.0, 3.0))
        assert gamma_nu(nu) == 0.0


class TestAbsoluteContinuity:
    def test_nested_supports_ok(self):
        rep = check_abs_continuity(CP_U01(2.0), CP_U01(4.0))
        assert isinstance(rep, AbsContinuityReport)
        assert rep.ok and not rep.violations

    def test_wider_support_fails(self):
        wide = CompoundPoissonMeasure(1.0, UniformDensity(0.0, 2.0))
        rep = check_abs_continuity(wide, CP_U01(1.0))
        assert not rep.ok
        assert all(1.0 < v <= 2.0 for v in rep.violations)

    def test_zero_measure_dominated_by_anything(self):
        assert check_abs_continuity(ZeroMeasure(), ZeroMeasure()).ok
        assert check_abs_continuity(ZeroMeasure(), CP_U01(1.0)).ok

    def test_positive_measure_not_dominated_by_zero(self):
        assert not check_abs_continuity(CP_U01(1.0), ZeroMeasure()).ok

    def test_tabulated_knots_probed(self):
        grid = tuple(np.logspace(-2.0, 1.0, 50))
        vals = tuple(1.0 / g**2 for g in grid)
        tab = TabulatedLevyMeasure(grid, vals)
        narrow = TabulatedLevyMeasure(grid[10:40], vals[10:40])
        assert check_abs_continuity(narrow, tab).ok
        rep = check_abs_continuity(tab, narrow)
        assert not rep.ok

    @staticmethod
    def nested_tables():
        """A positive table, one on part of its knots, and the first with
        a negative side inside (-1, -0.01) added."""
        grid = tuple(np.logspace(-2.0, 1.0, 50))
        vals = tuple(1.0 / g**2 for g in grid)
        tab = TabulatedLevyMeasure(grid, vals)
        narrow = TabulatedLevyMeasure(grid[10:40], vals[10:40])
        mirrored = tuple(-g for g in reversed(grid[5:20]))
        two_sided = TabulatedLevyMeasure(mirrored + grid, tuple(reversed(vals[5:20])) + vals)
        return tab, narrow, two_sided

    def test_nested_tabulated_ranges_need_no_probe(self):
        tab, narrow, two_sided = self.nested_tables()

        def exact(nu1):
            return AbsContinuityReport(True, (), len(nu1.support_segments()))

        assert check_abs_continuity(narrow, tab) == exact(narrow)
        assert check_abs_continuity(tab, tab) == exact(tab)
        # nu1 has no negative side, so only the positive ranges must nest.
        assert check_abs_continuity(narrow, two_sided) == exact(narrow)

        class Sub(TabulatedLevyMeasure):
            pass

        # The verdict reads the segments of any measure, a subclass too.
        sub = Sub(narrow.grid, narrow.values)
        assert check_abs_continuity(sub, tab) == exact(sub)

    def test_tabulated_ranges_not_nested_are_probed(self):
        tab, narrow, two_sided = self.nested_tables()
        g, n = tab.grid, narrow.grid
        # Knots that overlap without nesting: the midpoint of each part of
        # tab's range that narrow's leaves out.
        outer = check_abs_continuity(tab, narrow)
        gaps = ((g[0], n[0]), (n[-1], g[-1]))
        assert outer == AbsContinuityReport(False, tuple(a + 0.5 * (b - a) for a, b in gaps), 1)
        # A side nu2 lacks.
        negative = check_abs_continuity(two_sided, tab)
        (lo, hi), _ = two_sided.support_segments()
        assert negative == AbsContinuityReport(False, (lo + 0.5 * (hi - lo),), 2)
        point = outer.violations[0]
        with pytest.raises(NotAbsolutelyContinuous, match=rf"e\.g\. at y = {point!r}$"):
            l1_distance(tab, narrow)

    def test_opposite_sides_fail(self):
        pos = CompoundPoissonMeasure(1.0, UniformDensity(0.5, 1.0))
        neg = CompoundPoissonMeasure(1.0, UniformDensity(-1.0, -0.5))
        assert not check_abs_continuity(pos, neg).ok

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
    @pytest.mark.parametrize("field", ["c_minus", "c_plus", "lam_minus", "lam_plus"])
    def test_tempered_stable_constants_are_finite_and_positive(self, field, value):
        # A tempered-stable measure's segments, both half lines, rest on
        # C+- and lambda+- in (0, inf): at lambda = inf a side has no density.
        params = dict(c_minus=1.0, c_plus=1.0, lam_minus=1.0, lam_plus=1.0, alpha=0.5)
        params[field] = value
        with pytest.raises(ValueError):
            TemperedStableMeasure(**params)

    @pytest.mark.parametrize("intensity", [math.inf, math.nan, 0.0, -1.0])
    def test_compound_poisson_intensity_is_finite_and_positive(self, intensity):
        # At lambda = inf the report read nan for H^2 and mass_above raised.
        with pytest.raises(ValueError, match="intensity must be finite and > 0"):
            CompoundPoissonMeasure(intensity, UniformDensity(0.0, 1.0))

    @pytest.mark.parametrize("alpha", [-math.inf, math.nan, 2.0])
    def test_tempered_stable_alpha_is_finite_and_below_two(self, alpha):
        # At alpha = -inf the pair's closed forms would read nan.
        with pytest.raises(ValueError):
            TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, alpha)


# Support ends of the battery's jump densities, and knots of its tabulated
# Levy measures: two sets apart from each other, off the probe magnitudes
# and far enough apart that a probe falls between any two of them.
CP_ENDS = (0.013, 0.37, 1.9, 7.3, 23.1, 61.7)
LEVY_KNOTS = (0.021, 0.55, 3.1, 11.7, 41.3)


def _signed(mags):
    return sorted({0.0, *mags, *(-m for m in mags)})


@st.composite
def battery_measures(draw):
    """A built-in measure on which the probe grid is reliable: every finite
    end below AC_PROBE_MAX_FLOOR and in CP_ENDS or LEVY_KNOTS, and no
    density underflowing to 0 on the probed range."""
    kind = draw(st.sampled_from(
        ["uniform", "exponential", "normal", "tabulated", "ts", "tabulated_levy", "zero"]
    ))
    if kind == "uniform":
        ends = st.lists(st.sampled_from(_signed(CP_ENDS)), min_size=2, max_size=2, unique=True)
        a, b = draw(ends)
        return CompoundPoissonMeasure(1.0, UniformDensity(min(a, b), max(a, b)))
    if kind == "exponential":
        return CompoundPoissonMeasure(1.0, ExponentialDensity(draw(st.floats(0.1, 5.0))))
    if kind == "normal":
        mean, variance = draw(st.floats(-2.0, 2.0)), draw(st.floats(8.0, 20.0))
        return CompoundPoissonMeasure(1.0, NormalDensity(mean, variance))
    if kind == "tabulated":
        knots = st.lists(st.sampled_from(_signed(CP_ENDS)), min_size=2, max_size=6, unique=True)
        grid = sorted(draw(knots))
        n = len(grid)
        values = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 2.0]), min_size=n, max_size=n))
        values[draw(st.integers(0, n - 1))] = 1.0
        values = np.array(values) / np.trapezoid(values, grid)
        return CompoundPoissonMeasure(1.0, TabulatedDensity(tuple(grid), tuple(values)))
    if kind == "ts":
        c, lam = st.floats(0.5, 2.0), st.floats(0.1, 5.0)
        alpha = draw(st.floats(-1.0, 1.9))
        return TemperedStableMeasure(draw(c), draw(c), draw(lam), draw(lam), alpha)
    if kind == "tabulated_levy":
        sides = draw(st.sampled_from([(-1.0,), (1.0,), (-1.0, 1.0)]))
        knots = st.lists(st.sampled_from(LEVY_KNOTS), min_size=2, max_size=4, unique=True)
        grid = sorted(sign * m for sign in sides for m in draw(knots))
        values = draw(st.lists(st.floats(0.1, 10.0), min_size=len(grid), max_size=len(grid)))
        return TabulatedLevyMeasure(tuple(grid), tuple(values))
    return ZeroMeasure()


class TestExactVerdictAgainstTheProbeGrid:
    """``check_abs_continuity`` against the probe grid it replaced
    (``_oracles.probe_abs_continuity``): equal wherever the grid is
    reliable, and right where it is not."""

    U01 = CompoundPoissonMeasure(1.0, UniformDensity(0.0, 1.0))

    def test_battery_ends_lie_off_the_probes(self):
        probes = ac_probes(ZeroMeasure(), ZeroMeasure())
        ends = np.array(sorted(CP_ENDS + LEVY_KNOTS))
        assert ends[-1] < AC_PROBE_MAX_FLOOR and not np.isin(ends, np.abs(probes)).any()
        # Each ratio of neighbouring ends is over two probe spacings.
        spacing = (math.log(AC_PROBE_MAX_FLOOR) - math.log(1e-8)) / (AC_PROBES_PER_SIDE - 1)
        assert np.diff(np.log(ends)).min() > 2.0 * spacing

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(battery_measures(), battery_measures())
    def test_equal_where_the_grid_is_reliable(self, nu1, nu2):
        exact = check_abs_continuity(nu1, nu2)
        assert exact.ok == probe_abs_continuity(nu1, nu2).ok
        assert exact.checked == len(nu1.support_segments())
        # Each violation lies inside one of nu1's segments, where nu2 is 0.
        for y in exact.violations:
            assert any(a < y < b for a, b in nu1.support_segments())
            assert nu2.density(np.array([y]))[0] == 0.0

    def test_triangular_reference(self):
        # The triangular pdf is 0 at y = 1 alone, a probe: a false refusal.
        tri = CompoundPoissonMeasure(1.0, TabulatedDensity((0.0, 0.5, 1.0), (0.0, 2.0, 0.0)))
        assert probe_abs_continuity(self.U01, tri).violations == (1.0,)
        assert check_abs_continuity(self.U01, tri) == AbsContinuityReport(True, (), 1)
        assert l1_distance(self.U01, tri) == pytest.approx(0.5, abs=1e-8)

    def test_zero_cell_reference(self):
        # 0 on [0.50001, 0.50002], between two probes: a false acceptance.
        v = 2.0 / 0.99999
        cell = CompoundPoissonMeasure(
            1.0, TabulatedDensity((0.0, 0.50001, 0.50002, 1.0), (v, 0.0, 0.0, v))
        )
        assert cell.support_segments() == ((0.0, 0.50001), (0.50002, 1.0))
        assert probe_abs_continuity(self.U01, cell).ok
        report = check_abs_continuity(self.U01, cell)
        assert report == AbsContinuityReport(False, (0.50001 + 0.5 * (0.50002 - 0.50001),), 1)

    def test_underflowing_normal_reference(self):
        # The normal pdf underflows to 0 past y ~ 27.59: a false refusal.
        nu1 = CompoundPoissonMeasure(1.5, ExponentialDensity(1.5))
        nu2 = CompoundPoissonMeasure(3.0, NormalDensity(0.2, 0.5))
        grid = probe_abs_continuity(nu1, nu2)
        assert not grid.ok and grid.violations[0] == pytest.approx(27.59, abs=0.01)
        assert check_abs_continuity(nu1, nu2) == AbsContinuityReport(True, (), 1)
        # scipy's quad, cut at 0.5, 1, 2 and 5, gives 1.7422875626.
        assert l1_distance(nu1, nu2) == pytest.approx(1.7422875626, abs=1e-9)

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_measure_outside_every_family(self, side):
        # OneSide is given by its own density and segments: the half line
        # of sign side.  Against it, a tempered-stable measure is refused
        # on the side it leaves out.
        ts = TemperedStableMeasure(1.0, 1.0, 1.0, 2.0, 0.5)
        half = OneSide(1.0, 1.0, 1.0, 2.0, 0.5, side=side)
        assert check_abs_continuity(half, ts) == AbsContinuityReport(True, (), 1)
        assert check_abs_continuity(ts, half) == AbsContinuityReport(False, (-side,), 2)
        assert probe_abs_continuity(ts, half).violations[0] * side < 0.0


class TestL1Distance:
    def test_compound_poisson_shared_density(self):
        assert abs(l1_distance(CP_U01(2.0), CP_U01(1.0)) - 1.0) < TOL_CLOSED

    def test_identical_measures(self):
        assert abs(l1_distance(EX3_NU1, EX3_NU1)) < TOL_EXACT

    def test_zero_vs_compound_poisson(self):
        assert abs(l1_distance(ZeroMeasure(), CP_U01(2.5)) - 2.5) < TOL_CLOSED

    def test_tempered_stable_pair(self):
        got = l1_distance(EX3_NU1, EX3_NU2)
        assert abs(got - L1_EX3) < TOL_QUAD * L1_EX3

    def test_divergent_for_alpha_above_one(self):
        nu1 = TemperedStableMeasure(1.0, 1.0, 1.0, 2.0, 1.5)
        nu2 = TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, 1.5)
        assert l1_distance(nu1, nu2) == math.inf

    def test_requires_absolute_continuity(self):
        wide = CompoundPoissonMeasure(1.0, UniformDensity(0.0, 2.0))
        with pytest.raises(NotAbsolutelyContinuous):
            l1_distance(wide, CP_U01(1.0))

    def test_mixed_families(self):
        # CP(2, U(0,1)) against CP(1, Exp(1)): both have positive density
        # on (0, 1]; the exponential extends beyond. |n1 - n2| integrates to
        # a value computable by direct quadrature of the absolute gap.
        cp = CP_U01(2.0)
        ce = CompoundPoissonMeasure(1.0, ExponentialDensity(1.0))
        got = l1_distance(cp, ce)
        xs = np.linspace(1e-9, 1.0, 2_000_001)
        inner = np.trapezoid(np.abs(2.0 - np.exp(-xs)), xs)
        outer = math.exp(-1.0)
        assert abs(got - (inner + outer)) < 1e-6


class TestHellinger:
    def test_compound_poisson_shared_density(self):
        got = hellinger_sq(CP_U01(4.0), CP_U01(1.0))
        assert abs(got - 1.0) < TOL_CLOSED

    def test_compound_poisson_closed_form(self):
        lam1, lam2 = 2.7, 0.4
        got = hellinger_sq(CP_U01(lam1), CP_U01(lam2))
        expect = (math.sqrt(lam1) - math.sqrt(lam2)) ** 2
        assert abs(got - expect) < TOL_CLOSED

    def test_tempered_stable_pair(self):
        got = hellinger_sq(EX3_NU1, EX3_NU2)
        assert abs(got - H2_EX3) < TOL_QUAD * H2_EX3

    def test_finite_when_l1_diverges(self):
        nu1 = TemperedStableMeasure(1.0, 1.0, 1.0, 2.0, 1.5)
        nu2 = TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, 1.5)
        got = hellinger_sq(nu1, nu2)
        assert math.isfinite(got)
        assert abs(got - H2_EX3_A15) < TOL_QUAD * H2_EX3_A15

    def test_bounded_by_l1(self):
        pairs = [
            (CP_U01(2.0), CP_U01(1.0)),
            (EX3_NU1, EX3_NU2),
            (
                CP_U01(2.0),
                CompoundPoissonMeasure(1.0, ExponentialDensity(1.0)),
            ),
        ]
        for nu1, nu2 in pairs:
            assert hellinger_sq(nu1, nu2) <= l1_distance(nu1, nu2) + 1e-12


# Same-shape tempered-stable pairs for the closed forms: (lambda-, lambda+)
# of nu1 and of nu2, with lambda1 > lambda2 or lambda1 < lambda2 on one
# side or on both.
LAMBDA_GAPS = {
    "plus_side": ((1.0, 2.0), (1.0, 1.0)),
    "plus_side_swapped": ((1.0, 1.0), (1.0, 2.0)),
    "both_sides": ((3.0, 1.5), (1.0, 4.0)),
    "both_sides_swapped": ((1.0, 4.0), (3.0, 1.5)),
}
CLOSED_ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9)
# Where |y|^(-1-alpha) overflows inside the quadrature of gamma and L1,
# which then take their closed forms.
NEAR_ONE_ALPHAS = (0.953, 0.97, 0.99, 0.999)


def closed_form_pair(alpha, c, gap):
    (lam1, lam2), m = LAMBDA_GAPS[gap], mpmath.mpf(alpha)
    nu1, nu2 = (TemperedStableMeasure(c[0], c[1], lam[0], lam[1], alpha) for lam in (lam1, lam2))
    sides = [(mpmath.mpf(k), mpmath.mpf(a), mpmath.mpf(b)) for k, a, b in zip(c, lam1, lam2)]
    return nu1, nu2, m, sides


def assert_within_quadrature_error(integrand, edges, cached, closed, scale=None):
    """The one quadrature of integrand on edges lies within its error
    estimate of the closed form, and the functional, ``cached``, is the
    closed form: within 1e-14 of ``scale``, by default its size."""
    request = IntegrationRequest(
        integrand, edges[0], edges[-1], singular_at_zero=True, breakpoints=tuple(edges[1:-1])
    )
    res = integrate(request)
    assert abs(res.value - float(closed)) <= res.error_estimate
    assert abs(cached - float(closed)) <= 1e-14 * float(abs(closed) if scale is None else scale)


@pytest.mark.parametrize("c", [(1.0, 1.0), (0.5, 2.0)], ids=["equal_c", "unequal_c"])
@pytest.mark.parametrize("gap", sorted(LAMBDA_GAPS))
class TestClosedForms:
    """Per side, int |nu1 - nu2| = C |Gamma(-alpha)(lambda1^alpha -
    lambda2^alpha)| for alpha < 1, H^2 = C Gamma(-alpha)(lambda1^alpha +
    lambda2^alpha - 2((lambda1 + lambda2)/2)^alpha), and int_0^1 y nu(dy) =
    C lambda^(alpha - 1) Gamma(1 - alpha) P(1 - alpha, lambda).  The
    functionals return these closed forms; the direct quadrature of each
    integrand lies within its own error estimate of them."""

    @pytest.fixture(autouse=True)
    def _precise(self):
        # The closed forms cancel near alpha = 1; 40 digits keep them exact.
        with mpmath.workdps(40):
            yield

    @pytest.mark.parametrize("alpha", CLOSED_ALPHAS)
    def test_l1(self, alpha, c, gap):
        nu1, nu2, m, sides = closed_form_pair(alpha, c, gap)
        closed = sum(k * abs(mpmath.gamma(-m) * (a**m - b**m)) for k, a, b in sides)
        diff = _same_shape_ts_difference(nu1, nu2, lambda x: x, 1.0)
        assert_within_quadrature_error(
            lambda y: np.abs(diff(y)), support_edges((nu1, nu2)), l1_distance(nu1, nu2), closed
        )

    @pytest.mark.parametrize("alpha", CLOSED_ALPHAS + NEAR_ONE_ALPHAS + (1.5,))
    def test_hellinger(self, alpha, c, gap):
        nu1, nu2, m, sides = closed_form_pair(alpha, c, gap)
        closed = sum(
            k * mpmath.gamma(-m) * (a**m + b**m - 2 * ((a + b) / 2) ** m) for k, a, b in sides
        )
        sdiff = _same_shape_ts_difference(nu1, nu2, np.sqrt, 0.5)
        assert_within_quadrature_error(
            lambda y: sdiff(y) ** 2, support_edges((nu1, nu2)), hellinger_sq(nu1, nu2), closed
        )

    @pytest.mark.parametrize("alpha", CLOSED_ALPHAS)
    def test_gamma(self, alpha, c, gap):
        # The quadrature is within its error estimate, not 1e-8 relative:
        # the sides cancel, and at alpha 0.9, C+- 1, lambda+- (1, 4) each
        # is about 9 in size while gamma is -1.006, 2e-8 relative off.  So
        # the closed form is held to the size of its sides.
        nu1, _, _, _ = closed_form_pair(alpha, c, gap)
        sides = [
            sign * k * lam ** (alpha - 1.0) * gammainc(1.0 - alpha, lam)
            for sign, k, lam in zip((-1.0, 1.0), c, LAMBDA_GAPS[gap][0])
        ]
        g = math.gamma(1.0 - alpha)
        assert_within_quadrature_error(
            lambda y: y * nu1.density(y), support_edges((nu1,), -1.0, 1.0), gamma_nu(nu1),
            g * sum(sides), g * sum(map(abs, sides)),
        )

    @pytest.mark.parametrize("alpha", NEAR_ONE_ALPHAS)
    def test_near_one(self, alpha, c, gap):
        # Half of int_0^1 y^(-0.999) dy lies below the smallest double, so
        # no quadrature in y reaches these values: the plain integrand
        # overflows on the way.  The functionals take the closed forms.
        nu1, nu2, m, sides = closed_form_pair(alpha, c, gap)
        edges = support_edges((nu1,), -1.0, 1.0)
        request = IntegrationRequest(
            lambda y: y * nu1.density(y), edges[0], edges[-1], singular_at_zero=True,
            breakpoints=tuple(edges[1:-1]),
        )
        with pytest.raises(NonFiniteIntegrand):
            integrate(request)
        l1 = sum(k * abs(mpmath.gamma(-m) * (a**m - b**m)) for k, a, b in sides)
        assert l1_distance(nu1, nu2) == pytest.approx(float(l1), rel=1e-14)
        lower = sum(
            sign * k * lam ** (m - 1) * mpmath.gammainc(1 - m, 0, lam)
            for sign, (k, lam, _) in zip((-1, 1), sides)
        )
        scale = sum(k * lam ** (m - 1) * mpmath.gamma(1 - m) for k, lam, _ in sides)
        assert abs(gamma_nu(nu1) - float(lower)) <= 1e-15 * float(scale)


# lambda1 - lambda2 on the positive side; the negative side's gap is twice
# as large, so both sides differ.
ACCURACY_GAPS = (1e-9, 1e-6, 1e-3, 0.5, 3.0, 1e6)
ACCURACY_ALPHAS = (1e-300, 1e-12, 0.1, 0.5, 0.9, 0.999)
# Where the forms took the quadrature's place: alpha <= 0 for L1, H^2 and
# eta, and alpha = 1 for H^2.
NONPOSITIVE_ALPHAS = (-3.0, -0.5, -1e-9, 0.0)


def digits_for(alpha):
    """mpmath precision that holds 1 - alpha and keeps 40 digits more."""
    return 40 + (max(0, -math.floor(math.log10(abs(alpha)))) if alpha else 0)


def mp_ts_l1(m, sides):
    """sum of C |Gamma(-alpha)(lambda1^alpha - lambda2^alpha)| over the
    (C, lambda1, lambda2) of each side, C |log(lambda1 / lambda2)| at
    alpha = 0."""
    if m == 0:
        return sum(k * abs(mpmath.log(a / b)) for k, a, b in sides)
    return sum(k * abs(mpmath.gamma(-m) * (a**m - b**m)) for k, a, b in sides)


def mp_ts_hellinger(m, sides):
    """sum of C Gamma(-alpha)(lambda1^alpha + lambda2^alpha - 2 mean^alpha)
    over the sides, and its limits at alpha = 0 and 1."""
    def side(k, a, b):
        mean = (a + b) / 2
        if m == 0:
            return k * (2 * mpmath.log(mean) - mpmath.log(a) - mpmath.log(b))
        if m == 1:
            return k * (a * mpmath.log(a) + b * mpmath.log(b) - 2 * mean * mpmath.log(mean))
        return k * mpmath.gamma(-m) * (a**m + b**m - 2 * mean**m)

    return sum(side(*s) for s in sides)


def mp_ts_eta(m, sides):
    """sum of sign C int_0^1 y^-alpha (e^(-lambda1 y) - e^(-lambda2 y)) dy
    over the sides, negative first, by the lower incomplete gamma function
    (at alpha = 1, log(lambda2 / lambda1) + E1(lambda2) - E1(lambda1)), and
    the sum of the sides' sizes."""
    s = 1 - m

    def gap(a, b):
        if s == 0:
            return mpmath.log(b / a) + mpmath.e1(b) - mpmath.e1(a)
        return a**-s * mpmath.gammainc(s, 0, a) - b**-s * mpmath.gammainc(s, 0, b)

    parts = [sign * k * gap(a, b) for sign, (k, a, b) in zip((-1, 1), sides)]
    return sum(parts), sum(map(abs, parts))


def accuracy_pair(alpha, gap, swapped):
    """Unequal C+- (0.5, 2), nu2's lambdas 1, nu1's 1 + 2 gap and 1 + gap
    (or the two measures swapped), and the (C, lambda1, lambda2) of each
    side, negative first, as mpmath numbers."""
    nu1 = TemperedStableMeasure(0.5, 2.0, 1.0 + 2.0 * gap, 1.0 + gap, alpha)
    nu2 = TemperedStableMeasure(0.5, 2.0, 1.0, 1.0, alpha)
    if swapped:
        nu1, nu2 = nu2, nu1
    sides = [
        tuple(map(mpmath.mpf, side))
        for side in ((0.5, nu1.lam_minus, nu2.lam_minus), (2.0, nu1.lam_plus, nu2.lam_plus))
    ]
    return nu1, nu2, sides


@pytest.mark.parametrize("swapped", [False, True], ids=["nu1_lighter", "nu1_heavier"])
@pytest.mark.parametrize("gap", ACCURACY_GAPS)
class TestClosedFormAccuracy:
    """The closed forms within 1e-11 relative of 40-digit mpmath values,
    from lambda gaps of 1e-9 up to 1e6 and for alpha from -3 up (the
    quadrature they replace was 1.3e-3 off for L1 at alpha 0.9 and 7.7e-6
    for H^2)."""

    @pytest.fixture(autouse=True)
    def _precise(self, alpha):
        with mpmath.workdps(digits_for(alpha)):
            yield

    @pytest.mark.parametrize("alpha", ACCURACY_ALPHAS + NONPOSITIVE_ALPHAS)
    def test_l1(self, alpha, gap, swapped):
        nu1, nu2, sides = accuracy_pair(alpha, gap, swapped)
        exact = mp_ts_l1(mpmath.mpf(alpha), sides)
        assert abs(l1_distance(nu1, nu2) - exact) <= 1e-11 * exact

    @pytest.mark.parametrize("alpha", ACCURACY_ALPHAS + NONPOSITIVE_ALPHAS + (1.0, 1.5, 1.95))
    def test_hellinger(self, alpha, gap, swapped):
        nu1, nu2, sides = accuracy_pair(alpha, gap, swapped)
        exact = mp_ts_hellinger(mpmath.mpf(alpha), sides)
        assert abs(hellinger_sq(nu1, nu2) - exact) <= 1e-11 * exact

    @pytest.mark.parametrize("alpha", ACCURACY_ALPHAS + NONPOSITIVE_ALPHAS)
    def test_eta(self, alpha, gap, swapped):
        # Held to the size of the sides, which have opposite signs here.
        nu1, nu2, sides = accuracy_pair(alpha, gap, swapped)
        exact, scale = mp_ts_eta(mpmath.mpf(alpha), sides)
        spec = ProblemSpec(
            ProcessSpec(ConstantFunction(0.0), ConstantFunction(0.0), nu1),
            ProcessSpec(ConstantFunction(0.0), ConstantFunction(0.0), nu2),
            1.0,
        )
        assert abs(spec.eta() - exact) <= 1e-11 * scale


def whole_range_pair(alpha, lams):
    """Unequal C+- (0.5, 2), lambda- 1.5 on both measures and lambda+
    lams, and the (C, lambda1, lambda2) of each side as mpmath numbers."""
    nu1 = TemperedStableMeasure(0.5, 2.0, 1.5, lams[0], alpha)
    nu2 = TemperedStableMeasure(0.5, 2.0, 1.5, lams[1], alpha)
    sides = [
        tuple(map(mpmath.mpf, side)) for side in ((0.5, 1.5, 1.5), (2.0, lams[0], lams[1]))
    ]
    return nu1, nu2, sides


class TestWholeRange:
    """L1, H^2 and eta of a same-shape pair have a closed form for every
    alpha < 2 and take no quadrature: L1 is infinite from alpha = 1 on, L1
    and H^2 read math.inf, never an exception, where a Gamma function or a
    power overflows, and no form reads nan."""

    @pytest.fixture(autouse=True)
    def _no_quadrature(self, monkeypatch):
        no_quadrature(monkeypatch)
        clear_caches()

    @pytest.mark.parametrize(
        "alpha", [-3.0, -2.0, -0.5, -1e-9, 0.0, 1e-9, 1.0, 1.000001, 1.5]
    )
    @pytest.mark.parametrize("lams", [(2.0, 1.0), (1.0 + 1e-6, 1.0), (50.0, 0.01), (0.3, 7.0)])
    def test_within_1e_14_of_mpmath(self, alpha, lams):
        nu1, nu2, sides = whole_range_pair(alpha, lams)
        with mpmath.workdps(digits_for(alpha)):
            m = mpmath.mpf(alpha)
            l1 = mp_ts_l1(m, sides) if alpha < 1.0 else None
            h2 = mp_ts_hellinger(m, sides)
            eta, _ = mp_ts_eta(m, sides)
        if l1 is not None:
            assert math.isclose(l1_distance(nu1, nu2), float(l1), rel_tol=1e-14)
        assert math.isclose(hellinger_sq(nu1, nu2), float(h2), rel_tol=1e-14)
        assert math.isclose(eta_nu(nu1, nu2), float(eta), rel_tol=1e-14)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 1.99])
    def test_l1_is_infinite_from_alpha_one(self, alpha):
        nu1, nu2, _ = whole_range_pair(alpha, (2.0, 1.0))
        assert l1_distance(nu1, nu2) == math.inf
        assert l1_distance(nu1, nu1) == 0.0

    @pytest.mark.parametrize(
        "alpha, lams", [(-200.0, (2.0, 1.0)), (-2.0, (1e-200, 2e-200))], ids=["gamma", "power"]
    )
    def test_overflow_reads_inf(self, alpha, lams):
        # Gamma(1 - alpha) overflows at alpha = -200, and lambda^alpha at
        # lambda 1e-200: L1 and H^2, about Gamma(-alpha) lambda^alpha,
        # exceed the largest double.  eta integrates a bounded function on
        # [0, 1], so it stays finite.
        nu1, nu2, sides = whole_range_pair(alpha, lams)
        assert l1_distance(nu1, nu2) == math.inf
        assert hellinger_sq(nu1, nu2) == math.inf
        with mpmath.workdps(250):  # the moments of lambda 1e-200 and 2e-200 cancel
            eta, _ = mp_ts_eta(mpmath.mpf(alpha), sides)
        assert math.isclose(eta_nu(nu1, nu2), float(eta), rel_tol=1e-14)

    @pytest.mark.parametrize(
        "alpha, lams",
        [
            (-20.0, (1e16, 1.0)),  # (lo / hi)^alpha overflows
            (-169.0, (300.0, 200.0)),  # both powers underflow
            (-169.0, (300.0, 299.0)),  # the same, with close lambdas
            (-20.0, (1e16, 300.0)),  # hi^alpha is subnormal
            (-200.0, (10.0, 20.0)),  # Gamma(1 - alpha) overflows
            (-170.0, (1.0, 1.0 + 1e-12)),  # Gamma(2 - alpha) overflows
            (-0.5, (1e300, 1e-300)),
        ],
    )
    def test_sides_beyond_the_doubles(self, alpha, lams):
        # A power, a Gamma function or their product leaves the doubles on
        # the way to a value that does not: the side is taken through logs,
        # to about 2^-53 times the size of its exponent.
        nu1, nu2, sides = whole_range_pair(alpha, lams)
        with mpmath.workdps(50):
            m = mpmath.mpf(alpha)
            l1, h2 = mp_ts_l1(m, sides), mp_ts_hellinger(m, sides)
        assert math.isclose(l1_distance(nu1, nu2), float(l1), rel_tol=1e-12)
        assert math.isclose(hellinger_sq(nu1, nu2), float(h2), rel_tol=1e-12)

    def test_first_found_values(self):
        # alpha = -20, lambda+ 1e16 vs 1 read inf and alpha = -169, lambda+
        # 300 vs 200 read 0.0 while every power was taken as it stands.
        for alpha, lams, value in (
            (-20.0, (1e16, 1.0), 1.21645100408832e17),
            (-169.0, (300.0, 200.0), 3.3758030530921089e-87),
        ):
            nu1 = TemperedStableMeasure(1.0, 1.0, 1.0, lams[0], alpha)
            nu2 = TemperedStableMeasure(1.0, 1.0, 1.0, lams[1], alpha)
            assert math.isclose(l1_distance(nu1, nu2), value, rel_tol=1e-12)
            assert math.isclose(hellinger_sq(nu1, nu2), value, rel_tol=1e-12)

    @pytest.mark.parametrize("alpha", [-1e6, -170.5, -150.0])
    @pytest.mark.parametrize("lams", [(1e308, 1.7e308), (1000.0, 100.0), (1e300, 1.0)])
    def test_far_below_zero_nothing_reads_nan(self, alpha, lams):
        # Where Gamma(1 - alpha) times the bracket overflows and the power
        # of lambda underflows, inf times 0 would read nan.
        nu1, nu2, _ = whole_range_pair(alpha, lams)
        values = (l1_distance(nu1, nu2), hellinger_sq(nu1, nu2), eta_nu(nu1, nu2))
        assert not any(math.isnan(v) for v in values)

    @pytest.mark.parametrize(
        "alpha, lams",
        [(-10.0, (60.0, 55.0)), (-20.0, (300.0, 200.0)), (-50.0, (1000.0, 1.0)),
         (-100.0, (300.0, 200.0)), (-200.0, (2e4, 1.0))],
    )
    def test_eta_far_below_zero(self, alpha, lams):
        # Lambdas where y^-alpha e^(-lambda y) peaks inside [0, 1]: the
        # power law takes over only from 50 (1 - alpha) on, the series of
        # each piece is as long as its terms need, and its first
        # incomplete gamma function, where x^s leaves the doubles, takes
        # Gamma(s) x^-s as a product of factors below 1.
        nu1, nu2, sides = whole_range_pair(alpha, lams)
        with mpmath.workdps(40):
            eta, _ = mp_ts_eta(mpmath.mpf(alpha), sides)
        assert math.isclose(eta_nu(nu1, nu2), float(eta), rel_tol=1e-14)

    @pytest.mark.parametrize("alpha", [5e-324, 1e-310])
    def test_l1_at_a_subnormal_alpha(self, alpha):
        # Gamma(1 - alpha) / alpha overflows below the smallest normal
        # double; the bracket of alpha <= 0 reads C log(hi / lo) there.
        nu1, nu2 = (TemperedStableMeasure(1.0, 1.0, 1.0, lam, alpha) for lam in (2.0, 1.0))
        assert l1_distance(nu1, nu2) == math.log(2.0)
        near = TemperedStableMeasure(1.0, 1.0, 1.0, math.nextafter(1.0, 2.0), alpha)
        assert l1_distance(near, nu2) == pytest.approx(2.0**-52, rel=1e-15)

    def test_no_quadrature_on_a_grid_of_alpha(self):
        for alpha in [*np.linspace(-3.0, 1.99, 24).tolist(), -2.0, -1.0, 0.0, 1.0]:
            for lams in ((2.0, 1.0), (1.0, 1.0 + 1e-9), (60.0, 0.3)):
                nu1, nu2, _ = whole_range_pair(alpha, lams)
                values = (l1_distance(nu1, nu2), hellinger_sq(nu1, nu2), eta_nu(nu1, nu2))
                assert not any(math.isnan(v) for v in values)


@pytest.mark.parametrize("alpha", [1.0, 1.5, 1.9, 1.99])
@pytest.mark.parametrize(
    "lams", [(2.0, 1.0), (1.0, 2.0), (0.3, 1e-3), (60.0, 1.0), (200.0, 55.0), (40.0, 48.0)]
)
def test_eta_from_alpha_1_to_2_is_the_lambda_series(alpha, lams, monkeypatch):
    # Per side, sign C int_0^1 y^-alpha (e^(-lambda1 y) - e^(-lambda2 y)) dy
    # = sign C sum_(k >= 1) ((-lambda1)^k - (-lambda2)^k) / (k! (k + 1 -
    # alpha)), finite for every alpha < 2; lambda on both sides of the
    # power-law branch's _POWER_LAW_LAMBDA (50), with no quadrature.
    def refuse(request):
        raise AssertionError("quadrature.integrate called")

    monkeypatch.setattr(measures_module, "integrate", refuse)
    nu1 = TemperedStableMeasure(0.5, 2.0, 1.5, lams[0], alpha)
    nu2 = TemperedStableMeasure(0.5, 2.0, 1.5, lams[1], alpha)
    with mpmath.workdps(200):
        a, l1, l2 = (mpmath.mpf(x) for x in (alpha, *lams))
        terms = lambda k: ((-l1) ** k - (-l2) ** k) / (mpmath.factorial(k) * (k + 1 - a))
        exact = 2 * mpmath.nsum(terms, [1, mpmath.inf], method="direct", steps=[600])
    clear_caches()
    assert eta_nu(nu1, nu2) == pytest.approx(float(exact), rel=2e-15)
    # gamma alone stays divergent at alpha >= 1, by the quadrature.
    monkeypatch.undo()
    with pytest.raises(DivergentIntegral):
        gamma_nu(nu1)


class TestClosedFormReach:
    def test_alpha_just_below_one(self):
        # The quadrature's stall detector read these as divergent.
        nu1 = TemperedStableMeasure(1.0, 1.0, 1.0, 2.0, 0.9999)
        nu2 = TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, 0.9999)
        assert math.isfinite(gamma_nu(nu1)) and gamma_nu(nu2) == 0.0
        l1 = abs(math.gamma(-0.9999) * (2.0**0.9999 - 1.0))
        assert l1_distance(nu1, nu2) == pytest.approx(l1, rel=1e-13)
        assert round(l1, 2) == 9999.04

    def test_subclass_takes_the_closed_forms(self, monkeypatch):
        # A subclass that keeps density and log_density is of the
        # tempered-stable family (``measures._family``): it takes the
        # closed forms, no quadrature, and its bits are those of its base
        # class.  Its verdict, like every measure's, reads its two segments.
        class Sub(TemperedStableMeasure):
            pass

        def no_quadrature(request):
            raise AssertionError("the quadrature ran")

        monkeypatch.setattr("addgap.measures.integrate", no_quadrature)
        clear_caches()
        zero = ConstantFunction(0.0)

        def functionals(nu1, nu2):
            spec = ProblemSpec(ProcessSpec(zero, zero, nu1), ProcessSpec(zero, zero, nu2), 1.0)
            values = {
                "l1": l1_distance(nu1, nu2),
                "h2": hellinger_sq(nu1, nu2),
                "gamma": gamma_nu(nu1),
                "eta": spec.eta(),
            }
            return {k: v.hex() for k, v in values.items()}, check_abs_continuity(nu1, nu2)

        sub = functionals(Sub(1.0, 1.0, 1.0, 2.0, 0.5), Sub(1.0, 1.0, 1.0, 1.0, 0.5))
        base = functionals(TemperedStableMeasure(1.0, 1.0, 1.0, 2.0, 0.5), EX3_NU2)
        assert sub == base
        assert sub[1] == AbsContinuityReport(True, (), 2)

    def test_subclass_with_its_own_density(self):
        # Doubled's density is twice its base class's, so the base's
        # same-shape density gap (zero here) does not apply to it.
        class Doubled(TemperedStableMeasure):
            def density(self, y):
                return 2.0 * super().density(y)

        clear_caches()
        nu1 = Doubled(1.0, 1.0, 1.0, 1.0, -0.5)
        nu2 = TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, -0.5)
        mass = 3.5449077018110318  # nu2's mass, 2 sqrt(pi)
        assert nu2.total_mass() == pytest.approx(mass, rel=1e-15)
        assert abs(l1_distance(nu1, nu2) - mass) <= 1e-8
        assert abs(hellinger_sq(nu1, nu2) - (math.sqrt(2.0) - 1.0) ** 2 * mass) <= 1e-8


@dataclasses.dataclass(frozen=True)
class OwnPdfUniform(UniformDensity):
    """A uniform jump density given by its own ``pdf`` (the same formula):
    outside every family, so a measure with it takes the quadrature."""

    def pdf(self, y):
        return super().pdf(y)


LEVY_ALPHAS = (-500.0, -200.0, -2.0, -1.0, -1e-3, 0.0, 5e-324, 1e-300, 0.5, 0.999, 1.0, 1.001,
               1.5, 1.95, 1.999999)
LEVY_CS = (1e-300, 1.0, 1e300)
LEVY_LAMS = (1e-200, 1e-3, 1.0, 1e300)
LEVY_CP_DENSITIES = {
    "U(0,1)": UniformDensity(0.0, 1.0),
    "U(-3,-1)": UniformDensity(-3.0, -1.0),
    "Exp(2)": ExponentialDensity(2.0),
    "N(0.3,1)": NormalDensity(0.3, 1.0),
    "N(0,0.01)": NormalDensity(0.0, 0.01),
    "N(1.5,0.001)": NormalDensity(1.5, 0.001),
    "N(0,1e-300)": NormalDensity(0.0, 1e-300),
    "tabulated": TabulatedDensity((0.0, 1.0, 2.0), (0.0, 1.0, 0.0)),
    "own_pdf": OwnPdfUniform(-0.5, 2.0),
}
_MAGS = np.geomspace(1e-6, 10.0, 40)
LEVY_TABLES = {
    "y^-3.5": (_MAGS, _MAGS**-3.5),
    "y^-3": (_MAGS, _MAGS**-3.0),
    "y^-4_and_y^-0.5": (np.concatenate([-_MAGS[::-1], _MAGS]),
                        np.concatenate([_MAGS[::-1] ** -4.0, _MAGS**-0.5])),
    "1.7e308_one_side": ((1.0, 2.0), (1.7e308, 1.7e308)),
    "1.7e308_two_sides": ((-2.0, -1.0, 0.5, 1.0, 1.5),
                          (1.7e308, 1.7e308, 1.7e308, 1e308, 1.7e308)),
}
LEVY_GRID = {
    **{f"ts({c!r}, {lam!r}, {a!r})": TemperedStableMeasure(c, c, lam, lam, a)
       for a in LEVY_ALPHAS for c in LEVY_CS for lam in LEVY_LAMS},
    **{f"cp({lam!r}, {name})": CompoundPoissonMeasure(lam, density)
       for lam in (1e-300, 1.0, 1e300) for name, density in LEVY_CP_DENSITIES.items()},
    **{f"tab({name})": TabulatedLevyMeasure(tuple(grid), tuple(values))
       for name, (grid, values) in LEVY_TABLES.items()},
}
_OVERFLOW_AT = "density overflows: integrand returned a non-finite value at x = "
_NOT_FINITE = "int min(y^2, 1) nu(dy) is not finite"
_STEEP = "inner-edge trend steeper than y^-3: y^2-integral diverges toward 0"
# The refusals of LEVY_GRID; every other measure passes.  Those marked
# "valid" are refused although int min(y^2, 1) nu(dy) is a finite double
# (30-digit mpmath value after the mark): the quadrature reads a value
# above its 1e8 cap as divergent, and nu(R) = inf for alpha >= 0, or the
# density overflows where the integrand does not.
LEVY_REFUSALS = {
    **{f"ts({c!r}, {lam!r}, {a!r})": _OVERFLOW_AT + x
       for a, c, x in (
           (-500.0, 1e-300, "0.7854860863042694"),
           (-500.0, 1.0, "0.7854860863042694"),
           (-500.0, 1e300, "0.0758967082947864"),
           (-200.0, 1e-300, "0.9939962590102427"),
           (-200.0, 1.0, "0.9939962590102427"),
           (-200.0, 1e300, "0.13779113431991497"),
       ) for lam in LEVY_LAMS},
    "ts(1.0, 1e-200, -2.0)": _NOT_FINITE,
    "ts(1e+300, 1e-200, -2.0)": _NOT_FINITE,
    "ts(1e+300, 1e-200, -1.0)": _NOT_FINITE,
    "ts(1e+300, 1e+300, -0.001)": _OVERFLOW_AT + "0.006003740989757311",  # valid: 1.0028e-300
    "ts(1.0, 1e-200, 0.0)": _NOT_FINITE,  # valid: 920.88
    "ts(1e+300, 1e-200, 0.0)": _NOT_FINITE,  # valid: 9.2088e302
    "ts(1e+300, 0.001, 0.0)": _NOT_FINITE,  # valid: 1.36624e301
    "ts(1e+300, 1.0, 0.0)": _NOT_FINITE,  # valid: 9.6725e299
    "ts(1e+300, 1e+300, 0.0)": _OVERFLOW_AT + "0.006003740989757311",  # valid: 2.0e-300
    "ts(1e+300, 1e-200, 1.0)": _OVERFLOW_AT + "0.006003740989757311",  # valid: 4.0e300
    "ts(1e+300, 0.001, 1.0)": _NOT_FINITE,  # valid: 3.98434e300
    "ts(1e+300, 1.0, 1.0)": _NOT_FINITE,  # valid: 1.56123e300
    "ts(1e+300, 1e+300, 1.0)": _OVERFLOW_AT + "0.006003740989757311",  # valid: 2.0
    "tab(y^-3.5)": _STEEP,
    "tab(y^-3)": _STEEP,
    "tab(y^-4_and_y^-0.5)": _STEEP,
    "tab(1.7e308_one_side)": _NOT_FINITE,  # valid: 1.7e308
    "tab(1.7e308_two_sides)": _NOT_FINITE,
}


class TestValidateLevy:
    @pytest.mark.parametrize("alpha", [1e-300, 1e-12, 0.5, 0.999, 1.001, 1.5, 1.95])
    @pytest.mark.parametrize("lam", [1e-300, 1e-6, 0.56, 1.0, 3.0])
    def test_tempered_stable_closed_form_accuracy(self, alpha, lam, monkeypatch):
        # Per side C [lambda^(alpha - 2) gamma(2 - alpha, lambda) +
        # lambda^alpha Gamma(-alpha, lambda)] is a finite double by mpmath
        # as alpha approaches 0, 1 and 2 and for lambda below and above 1,
        # and the closed form passes the measure, from alpha alone, with no
        # quadrature.
        with mpmath.workdps(digits_for(alpha)):
            m, x = mpmath.mpf(alpha), mpmath.mpf(lam)
            side = x ** (m - 2) * mpmath.gammainc(2 - m, 0, x) + x**m * mpmath.gammainc(-m, x)
            exact = float(2.5 * side)
        assert 0.0 < exact < math.inf
        no_quadrature(monkeypatch)
        clear_caches()
        rep = validate_levy(TemperedStableMeasure(0.5, 2.0, lam, lam, alpha))
        assert rep == LevyValidation(True, "")

    def test_zero(self):
        rep = validate_levy(ZeroMeasure())
        assert rep.ok and rep.message == ""

    def test_compound_poisson_value(self):
        rep = validate_levy(CP_U01(2.0))
        assert rep.ok

    def test_tempered_stable_value(self):
        rep = validate_levy(TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, 0.5))
        assert rep.ok

    def test_alpha_close_to_two_still_valid(self):
        rep = validate_levy(TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, 1.9))
        assert rep.ok

    def test_finite_mass_past_the_divergence_cap_is_valid(self):
        # int min(y^2, 1) nu(dy) = 1e9 / 3 reads as divergent to the
        # quadrature; nu(R) = 1e9 bounds it.  The measure outside every
        # family takes the quadrature, for nu(R) too; the family's closed
        # form passes the measure.
        nu = OwnDensityCP(1e9, UniformDensity(0.0, 1.0))
        rep = validate_levy(nu)
        assert rep.ok and nu.total_mass() == pytest.approx(1e9, rel=1e-15)
        assert validate_levy(CP_U01(1e9)).ok

    def test_tabulated_steep_inner_trend_fails(self):
        grid = tuple(np.logspace(-6, 1, 200))
        vals = tuple(g**-3.0 for g in grid)
        rep = validate_levy(TabulatedLevyMeasure(grid, vals))
        assert not rep.ok
        assert rep.message

    def test_tabulated_mild_inner_trend_ok(self):
        grid = tuple(np.logspace(-6, 1, 200))
        vals = tuple(g**-0.5 * math.exp(-g) for g in grid)
        rep = validate_levy(TabulatedLevyMeasure(grid, vals))
        assert rep.ok

    def test_grid_has_every_refusal(self):
        assert len(LEVY_GRID) == 212 and set(LEVY_REFUSALS) < set(LEVY_GRID)

    @pytest.mark.parametrize("name", list(LEVY_GRID))
    def test_verdict_grid(self, name):
        rep = validate_levy(LEVY_GRID[name])
        assert rep == LevyValidation(name not in LEVY_REFUSALS, LEVY_REFUSALS.get(name, ""))


class TestTabulatedLevyMeasure:
    def test_log_linear_reproduces_power_law(self):
        grid = tuple(np.logspace(-3, 1, 40))
        vals = tuple(2.0 * g**-1.5 for g in grid)
        tab = TabulatedLevyMeasure(grid, vals)
        mids = np.sqrt(np.asarray(grid[:-1]) * np.asarray(grid[1:]))
        np.testing.assert_allclose(tab.density(mids), 2.0 * mids**-1.5, rtol=1e-12)

    def test_zero_outside_knots(self):
        tab = TabulatedLevyMeasure((0.1, 1.0), (1.0, 1.0))
        y = np.array([-1.0, 0.05, 2.0])
        assert (tab.density(y) == 0.0).all()

    def test_two_sided(self):
        grid = (-2.0, -0.5, 0.5, 2.0)
        vals = (1.0, 2.0, 3.0, 4.0)
        tab = TabulatedLevyMeasure(grid, vals)
        assert abs(tab.density(np.array([-2.0]))[0] - 1.0) < TOL_EXACT
        assert abs(tab.density(np.array([0.5]))[0] - 3.0) < TOL_EXACT
        assert tab.support_segments() == ((-2.0, -0.5), (0.5, 2.0))

    def test_rejects_zero_knot(self):
        with pytest.raises(ValueError):
            TabulatedLevyMeasure((-1.0, 0.0, 1.0), (1.0, 1.0, 1.0))

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            TabulatedLevyMeasure((0.1, 1.0), (1.0, 0.0))

    def test_rejects_single_knot_side(self):
        with pytest.raises(ValueError):
            TabulatedLevyMeasure((-1.0, 0.5, 1.0), (1.0, 1.0, 1.0))

    def test_truncated_mass_matches_quadrature(self):
        grid = tuple(np.logspace(-2, 1, 60))
        vals = tuple(g**-0.5 * math.exp(-g) for g in grid)
        tab = TabulatedLevyMeasure(grid, vals)
        # inner knot 1e-2 >= 1e-3: no extrapolation, plain truncated mass
        mass = tab.total_mass()
        assert math.isfinite(mass)
        ys = np.logspace(-2, 1, 3_000_001)
        ref = np.trapezoid(tab.density(ys), ys)
        assert abs(mass - ref) < 1e-6 * ref

    def test_breakpoints_are_the_grid(self):
        grid = tuple(np.logspace(-3, 1, 500))
        vals = tuple(g**-1.0 for g in grid)
        tab = TabulatedLevyMeasure(grid, vals)
        assert tab.breakpoints() == tab.grid

    def test_infinite_mass_flag_from_inner_trend(self):
        grid = tuple(np.logspace(-6, 0, 100))
        vals = tuple(g**-1.5 for g in grid)
        tab = TabulatedLevyMeasure(grid, vals)
        assert tab.total_mass() == math.inf


def loglinear_pair(knots, lo=0.02, hi=4.0, phase=1.0):
    """Two tabulated measures on one grid of ``knots`` magnitudes per side,
    the first a tilt of the second, as the benchmark's tabulated pair."""
    mags = np.geomspace(lo, hi, knots)
    grid = np.concatenate([-mags[::-1], mags])
    base = np.abs(grid) ** -1.2 * np.exp(-np.abs(grid))
    tilted = base * np.exp(0.3 * np.sin(0.2 * np.arange(grid.size) + phase))
    return TabulatedLevyMeasure(grid, tilted), TabulatedLevyMeasure(grid, base)


def crossing_pair():
    """Two tabulated measures on different grids, the first inside the
    second's range on each side, whose densities cross several times."""
    neg, pos = np.geomspace(0.05, 2.5, 17), np.geomspace(0.03, 3.5, 23)
    grid1 = np.concatenate([-neg[::-1], pos])
    mags = np.geomspace(0.02, 4.0, 31)
    grid2 = np.concatenate([-mags[::-1], mags])
    a1, a2 = np.abs(grid1), np.abs(grid2)
    values1 = a1**-1.1 * np.exp(-a1) * (1.0 + 0.4 * np.sin(4.0 * np.log(a1)))
    values2 = a2**-1.2 * np.exp(-0.9 * a2)
    return TabulatedLevyMeasure(grid1, values1), TabulatedLevyMeasure(grid2, values2)


@pytest.fixture
def workloads():
    # Per test: Hypothesis draws constants from the local modules it finds
    # in sys.modules, so a module left loaded would change the examples of
    # the property tests that run after it.
    yield from loaded("workloads")


def tabulated_functionals(nu1, nu2):
    """The library's values of the keys of ``loglinear_functionals``."""
    clear_caches()
    out = {}
    for i, nu in ((1, nu1), (2, nu2)):
        out[f"gamma_nu[{i}]"] = gamma_nu(nu)
        for eps in (0.0, 0.3, 1.5):
            out[f"mass_above({eps})[{i}]"] = nu.mass_above(eps)
    out["eta_nu"] = eta_nu(nu1, nu2)
    out["l1_distance"] = l1_distance(nu1, nu2)
    out["hellinger_sq"] = hellinger_sq(nu1, nu2)
    return out


class TestTabulatedOracle:
    """Every functional of log-linear tables against the exact integrals of
    their power laws (``loglinear_functionals``), within 5.2e-16 of the
    integral of the absolute integrand: the closed forms sum the same
    pieces (the quadrature they replaced was held to 1e-12 here)."""

    @pytest.fixture(params=["benchmark", "crossing", "knots512"])
    def pair(self, request, workloads):
        if request.param == "benchmark":
            config = workloads.tabulated_pair(random.Random("report_sweep:1:0"))
            problem = parse_config_dict(config).problem
            return problem.process1.levy, problem.process2.levy
        if request.param == "crossing":
            return crossing_pair()
        return loglinear_pair(256)

    def test_functionals_match_the_exact_integrals(self, pair):
        exact = loglinear_functionals(*pair)
        got = tabulated_functionals(*pair)
        assert sorted(got) == sorted(exact)
        errors = {key: abs(got[key] - value) / scale for key, (value, scale) in exact.items()}
        assert max(errors.values()) <= 5.2e-16, errors

    def test_crossings_lie_where_the_densities_meet(self):
        nu1, nu2 = crossing_pair()
        crossings = sorted(measures_module._table_pieces(nu1, nu2).crossings.tolist())
        assert len(crossings) >= 4 and crossings[0] < 0.0 < crossings[-1]
        gap = nu1.density(np.array(crossings)) - nu2.density(np.array(crossings))
        assert np.all(np.abs(gap) <= 1e-12 * nu2.density(np.array(crossings)))

    def test_4096_knots_meet_their_tolerance(self):
        nu1, nu2 = loglinear_pair(2048)
        clear_caches()
        assert validate_levy(nu1).ok
        values = [gamma_nu(nu1), eta_nu(nu1, nu2), l1_distance(nu1, nu2), hellinger_sq(nu1, nu2)]
        assert all(math.isfinite(v) for v in values)


def tilted_pair(tilt, grid=None, phase=1.0):
    """Two tables on one grid (the benchmark's 32 magnitudes per side by
    default), the first the second tilted by exp(tilt sin(0.2 i + phase))."""
    if grid is None:
        mags = np.geomspace(0.02, 4.0, 32)
        grid = np.concatenate([-mags[::-1], mags])
    base = np.abs(grid) ** -1.2 * np.exp(-np.abs(grid))
    tilted = base * np.exp(tilt * np.sin(0.2 * np.arange(grid.size) + phase))
    return TabulatedLevyMeasure(grid, tilted), TabulatedLevyMeasure(grid, base)


def no_quadrature(monkeypatch):
    def refuse(request):
        raise AssertionError("quadrature.integrate called")

    monkeypatch.setattr(measures_module, "integrate", refuse)


ONE_SIDED = np.geomspace(0.1, 3.0, 9)


class TestTabulatedClosedForms:
    """The closed forms of log-linear tables make no quadrature call and lie
    within 1e-15 of the integral of the absolute integrand of the 40-digit
    sums (``loglinear_functionals``), also where the two densities nearly
    cancel (tilts 1e-4 and 1e-7, where the three-power-law expansion of H^2
    is off by 2.7e-8 and 0.8%), for one-sided tables, for densities that
    cross inside a knot cell and for tables on different grids."""

    @pytest.fixture(
        params=["tilt_0.3", "tilt_1e-4", "tilt_1e-7", "one_sided", "one_sided_apart",
                "crossing", "dense_tilt_1e-7"]
    )
    def pair(self, request):
        name = request.param
        if name.startswith("tilt_"):
            return tilted_pair(float(name[5:]))
        if name == "dense_tilt_1e-7":
            mags = np.geomspace(1e-3, 30.0, 200)
            return tilted_pair(1e-7, np.concatenate([-mags[::-1], mags]), phase=0.3)
        if name == "one_sided":
            return tilted_pair(0.2, ONE_SIDED)
        if name == "one_sided_apart":
            # nu1 on the positive side only, nu2 on both: nu1 << nu2.
            nu1, nu2 = tilted_pair(0.2, ONE_SIDED)
            return nu1, TabulatedLevyMeasure(np.concatenate([-ONE_SIDED[::-1], ONE_SIDED]),
                                             np.concatenate([nu2.values[::-1], nu2.values]))
        return crossing_pair()

    def test_within_1e_15_of_the_exact_sums(self, pair, monkeypatch):
        no_quadrature(monkeypatch)
        exact = loglinear_functionals(*pair)
        got = tabulated_functionals(*pair)
        errors = {key: abs(got[key] - value) / scale for key, (value, scale) in exact.items()}
        assert max(errors.values()) <= 1e-15, errors

    def test_random_steep_tables(self, monkeypatch):
        # 40 seeded pairs of random tables: knots over 1e-6 to 1e2,
        # neighbouring values up to 1e16 apart, one or both sides, on one
        # grid (tilted) or two.  A steep power law is itself only good to
        # about |p log(y / y_i)| eps where it is read inside a cell, so the
        # bound is 1e-14 here; the quadrature these forms replace was off
        # by up to 0.76 (H^2) and 1.4e-2 (eta) of the same scale on such
        # tables.
        no_quadrature(monkeypatch)
        rng = np.random.default_rng(5)

        def table():
            mags = np.unique(10.0 ** np.sort(rng.uniform(-6.0, 2.0, rng.integers(2, 12))))
            if mags.size < 2:
                mags = np.array([0.1, 1.0])
            grid = (mags, -mags[::-1], np.concatenate([-mags[::-1], mags]))[rng.integers(0, 3)]
            return grid, 10.0 ** rng.uniform(-8.0, 8.0, grid.size)

        checked = 0
        while checked < 40:
            g1, v1 = table()
            if rng.random() < 0.5:
                tilt = rng.choice([1e-7, 1e-3, 0.5, 3.0]) * rng.standard_normal(g1.size)
                g2, v2 = g1, v1 * np.exp(tilt)
            else:
                g2, v2 = table()
            pair = TabulatedLevyMeasure(g1, v1), TabulatedLevyMeasure(g2, v2)
            if not check_abs_continuity(*pair).ok or any(
                nu.diverges_near_zero(1.0) for nu in pair
            ):
                continue
            exact = loglinear_functionals(*pair)
            got = tabulated_functionals(*pair)
            errors = {
                key: abs(got[key] - value) / scale
                for key, (value, scale) in exact.items()
                if scale > 0.0 and "(0.0)" not in key
            }
            assert max(errors.values()) <= 1e-14, (checked, errors)
            checked += 1

    def test_crossing_inside_a_cell(self):
        # The densities of the crossing pair meet inside knot cells of
        # both grids; each such point cuts L1.
        nu1, nu2 = crossing_pair()
        knots = set(nu1.grid) | set(nu2.grid)
        assert not knots & set(measures_module._table_pieces(nu1, nu2).crossings.tolist())

    def test_overflowing_table_takes_the_quadrature(self, monkeypatch):
        # A form whose piece integrals overflow does not apply.
        nu = TabulatedLevyMeasure((1.0, 2.0), (1e308, 1e308))
        calls = []
        monkeypatch.setattr(
            measures_module, "integrate", lambda r: calls.append(r) or integrate(r)
        )
        assert measures_module._closed_form("levy", (nu,)) is None
        validate_levy.cache_clear()
        validate_levy(nu)
        assert calls


def mp_moments(pdf, cuts, tails=0):
    """(E[min(Y^2, 1)], E[Y; |Y| <= 1], E[|Y|; |Y| <= 1]) of a density in
    40-digit mpmath: integrated over the pieces between the sorted finite
    cuts, plus the mass ``tails`` beyond them."""
    with mpmath.workdps(40):
        pts = sorted({mpmath.mpf(c) for c in cuts})
        square, first, size = mpmath.mpf(tails), mpmath.mpf(0), mpmath.mpf(0)
        for a, b in zip(pts, pts[1:]):
            inner = -1 <= a and b <= 1
            square += mpmath.quad(lambda y: (y * y if inner else 1) * pdf(y), [a, b])
            if inner:
                m = mpmath.quad(lambda y: y * pdf(y), [a, b])
                first += m
                size += abs(m)
        return float(square), float(first), float(size)


def mp_uniform(a, b):
    p = mpmath.mpf(1.0 / (b - a))
    return mp_moments(lambda y: p, [a, b, *(c for c in (-1, 0, 1) if a < c < b)])


def mp_exponential(rate):
    """int_0^1 y^k rate e^(-rate y) dy = gamma(k + 1, rate) / rate^k, and
    the mass e^-rate above 1."""
    with mpmath.workdps(40):
        r = mpmath.mpf(rate)
        low = [mpmath.gammainc(k + 1, 0, r) / r**k for k in (1, 2)]
        return float(low[1] + mpmath.exp(-r)), float(low[0]), float(low[0])


def mp_normal(mean, variance):
    """Each side of [-1, 1] cut at the mean by quad, and the tails from the
    normal CDF."""
    with mpmath.workdps(40):
        m, v = mpmath.mpf(mean), mpmath.mpf(variance)
        s = mpmath.sqrt(v)
        tails = mpmath.ncdf((-1 - m) / s) + mpmath.ncdf((m - 1) / s)
        pdf = lambda y: mpmath.exp(-((y - m) ** 2) / (2 * v)) / mpmath.sqrt(2 * mpmath.pi * v)
        return mp_moments(pdf, [-1, 0, 1, *([m] if -1 < m < 1 else [])], tails)


def mp_tabulated(grid, values):
    g, v = np.asarray(grid, float), np.asarray(values, float)
    v = v / float(np.trapezoid(v, g))
    knots = [mpmath.mpf(x) for x in g]

    def pdf(y):
        if not knots[0] <= y <= knots[-1]:
            return mpmath.mpf(0)
        i = min(max(bisect_right(knots, y) - 1, 0), len(knots) - 2)
        t = (y - knots[i]) / (knots[i + 1] - knots[i])
        return mpmath.mpf(v[i]) * (1 - t) + mpmath.mpf(v[i + 1]) * t

    return mp_moments(pdf, [*g, *(c for c in (-1, 0, 1) if g[0] < c < g[-1])])


def unit_table(grid, values):
    """A grid and its values scaled to unit trapezoid mass."""
    return grid, tuple((np.asarray(values) / np.trapezoid(values, grid)).tolist())


TAB_DENSITIES = {
    "around_zero": unit_table((-2.0, -0.5, 0.25, 1.5), (0.1, 0.6, 0.5, 0.05)),
    "inside_unit": unit_table((0.1, 0.3, 0.9), (1.0, 3.0, 0.5)),
    "wide": unit_table((-40.0, -3.0, 0.0, 2.0, 60.0), (0.0, 0.02, 0.03, 0.01, 0.0)),
    "zero_cells": unit_table((0.0, 0.5, 0.6, 0.7, 1.4), (2.0, 0.0, 0.0, 1.0, 0.0)),
}
# (density, the mpmath moments): uniform, exponential and tabulated
# densities have forms everywhere; the normal where its Phi and phi terms
# cancel by at most a factor 2.
CP_DENSITIES = {
    "uniform_01": (UniformDensity(0.0, 1.0), lambda: mp_uniform(0.0, 1.0)),
    "uniform_wide": (UniformDensity(-7.5, 3.25), lambda: mp_uniform(-7.5, 3.25)),
    "uniform_narrow": (UniformDensity(0.4, 0.4 + 1e-9), lambda: mp_uniform(0.4, 0.4 + 1e-9)),
    "uniform_far": (UniformDensity(1e5, 2e5), lambda: mp_uniform(1e5, 2e5)),
    "uniform_negative": (UniformDensity(-0.9, -0.2), lambda: mp_uniform(-0.9, -0.2)),
    **{
        f"exponential_{r:g}": (ExponentialDensity(r), lambda r=r: mp_exponential(r))
        for r in (1e-300, 1e-8, 0.5, 1.0, 3.0, 40.0, 1e8)
    },
    **{
        f"normal_{m:g}_{v:g}": (NormalDensity(m, v), lambda m=m, v=v: mp_normal(m, v))
        for m, v in ((0.0, 1e-8), (0.0, 0.09), (0.0, 1.0), (0.0, 1e4), (0.3, 1e-6), (-0.7, 1e-6),
                     (-3.0, 1e-4), (10.0, 1e-2), (50.0, 1.0))
    },
    **{
        f"tabulated_{name}": (TabulatedDensity(*table), lambda table=table: mp_tabulated(*table))
        for name, table in TAB_DENSITIES.items()
    },
}


class TestCompoundPoissonClosedForms:
    """The Levy verdict, and lambda E[Y; |Y| <= 1] and, for two measures
    sharing the density, |lambda1 - lambda2|, (sqrt lambda1 - sqrt
    lambda2)^2 and (lambda1 - lambda2) E[Y; |Y| <= 1], against 40-digit
    mpmath, from rates of 1e-300 up to 1e300: within 1e-15 relative, or
    of the size of the sides for gamma and eta; no quadrature call."""

    @pytest.mark.parametrize("name", sorted(CP_DENSITIES))
    @pytest.mark.parametrize("lam", [1e-300, 0.7, 3.0, 1e300])
    def test_one_measure(self, name, lam, monkeypatch):
        density, oracle = CP_DENSITIES[name]
        _, first, size = oracle()
        no_quadrature(monkeypatch)
        clear_caches()
        nu = CompoundPoissonMeasure(lam, density)
        assert validate_levy(nu).ok
        assert abs(gamma_nu(nu) - lam * first) <= 1e-15 * lam * size

    @pytest.mark.parametrize("name", sorted(CP_DENSITIES))
    @pytest.mark.parametrize("lams", [(2.0, 1.0), (1.0, 1.0 + 2e-16), (1e-300, 5e-301), (1e300, 1.0)])
    def test_shared_density(self, name, lams, monkeypatch):
        density, oracle = CP_DENSITIES[name]
        _, first, size = oracle()
        no_quadrature(monkeypatch)
        clear_caches()
        nu1, nu2 = (CompoundPoissonMeasure(lam, density) for lam in lams)
        with mpmath.workdps(40):
            l1, l2 = map(mpmath.mpf, lams)
            h2 = float((mpmath.sqrt(l1) - mpmath.sqrt(l2)) ** 2)
            gap = float(l1 - l2)
        assert l1_distance(nu1, nu2) == pytest.approx(abs(gap), rel=1e-15, abs=0.0)
        assert hellinger_sq(nu1, nu2) == pytest.approx(h2, rel=1e-15, abs=0.0)
        assert abs(eta_nu(nu1, nu2) - gap * first) <= 1e-15 * abs(gap) * size

    @pytest.mark.parametrize("mean, variance", [(0.3, 1.0), (0.5, 4.0), (-0.7, 0.25), (1.5, 1e-3)])
    def test_cancelling_normal_takes_the_quadrature(self, mean, variance, monkeypatch):
        # Where its terms cancel by more than a factor 2 the normal has no
        # form: the Levy check and gamma take the quadrature, gamma within
        # its tolerance of mpmath.
        calls = []
        monkeypatch.setattr(
            measures_module, "integrate", lambda r: calls.append(r) or integrate(r)
        )
        clear_caches()
        nu = CompoundPoissonMeasure(2.0, NormalDensity(mean, variance))
        first = mp_normal(mean, variance)[1]
        assert validate_levy(nu).ok
        assert gamma_nu(nu) == pytest.approx(2.0 * first, rel=1e-10)
        assert len(calls) == 2

    def test_different_densities_take_the_quadrature(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            measures_module, "integrate", lambda r: calls.append(r) or integrate(r)
        )
        clear_caches()
        nu1 = CompoundPoissonMeasure(2.0, ExponentialDensity(1.0))
        nu2 = CompoundPoissonMeasure(1.0, ExponentialDensity(2.0))
        l1_distance(nu1, nu2), hellinger_sq(nu1, nu2), eta_nu(nu1, nu2)
        assert len(calls) == 3


class TestTabulatedKnotTypes:
    """Tables built from lists or arrays hash, compare and report like the
    same table built from tuples of float."""

    LEVY = ([-1.0, -0.5, 0.5, 1.0], [1, 2, 2, 1], [2, 1, 2, 3])
    JUMPS = ([0, 1, 2], [0, 1, 0])

    @staticmethod
    def report(nu1, nu2):
        clear_caches()
        procs = [
            ProcessSpec(ConstantFunction(c), ConstantFunction(1.0), nu)
            for c, nu in ((0.3, nu1), (0.0, nu2))
        ]
        return report_bits(compute_report(ProblemSpec(*procs, 1.0)))

    def pairs(self, kind):
        grid, v1, v2 = self.LEVY
        jgrid, jvals = self.JUMPS
        levy = lambda g, v: TabulatedLevyMeasure(kind(g), kind(v))
        cp = lambda lam: CompoundPoissonMeasure(lam, TabulatedDensity(kind(jgrid), kind(jvals)))
        return {
            "levy": (levy(grid, v1), levy(grid, v2)),
            "jump_density": (cp(2.0), cp(1.0)),
        }

    @pytest.mark.parametrize("kind", [list, np.array, lambda xs: np.array(xs, dtype=np.float32)])
    def test_report_equals_tuple_built(self, kind):
        floats = lambda xs: tuple(float(x) for x in xs)
        for name, pair in self.pairs(kind).items():
            want = self.pairs(floats)[name]
            assert pair == want and hash(pair) == hash(want)
            assert self.report(*pair) == self.report(*want)

    def test_knots_are_tuples_of_float(self):
        nu, _ = self.pairs(np.array)["levy"]
        assert type(nu.grid) is tuple and type(nu.values) is tuple
        assert {type(x) for x in nu.grid + nu.values} == {float}
        density = self.pairs(list)["jump_density"][0].jump_density
        assert {type(x) for x in density.grid + density.values} == {float}


class TestPairHooks:
    def test_generic_difference_matches_densities(self):
        cp = CP_U01(2.0)
        ce = CompoundPoissonMeasure(1.0, ExponentialDensity(1.0))
        diff = pair_difference_fn(cp, ce)
        y = np.array([0.25, 0.75, 1.5])
        np.testing.assert_allclose(diff(y), cp.density(y) - ce.density(y), rtol=1e-13)

    def test_measures_hashable(self):
        assert EX3_NU1 == TemperedStableMeasure(1.0, 1.0, 1.0, 2.0, 0.5)
        d = {EX3_NU1: "a", EX3_NU2: "b", ZeroMeasure(): "c"}
        assert d[TemperedStableMeasure(1.0, 1.0, 1.0, 2.0, 0.5)] == "a"


# ---------------------------------------------------------------------------
# Jump log-ratio hook
# ---------------------------------------------------------------------------


def two_pass_log_ratio(nu1, nu2, y):
    """The generic log-ratio: two full log-density passes, the reference
    the fused tempered stable path must match bit for bit."""
    ld2 = nu2.log_density(y)
    if np.any(np.isneginf(ld2)):
        raise RatioUndefined("reference density vanishes")
    with np.errstate(invalid="ignore"):
        return nu1.log_density(y) - ld2


def ratio_outcome(fn, y):
    """The ratio's bit pattern, or None when it raises RatioUndefined."""
    try:
        return fn(y).view(np.uint64)
    except RatioUndefined:
        return None


def assert_same_ratio(nu1, nu2, y):
    fused = ratio_outcome(pair_log_ratio(nu1, nu2), y)
    generic = ratio_outcome(lambda v: two_pass_log_ratio(nu1, nu2, v), y)
    if generic is None:
        assert fused is None
    else:
        assert fused is not None and np.array_equal(fused, generic)


def signed_magnitudes(seed, n=2000):
    """Mixed signs with |y| log-uniform on [1e-12, 1e3]."""
    gen = np.random.default_rng(seed)
    mags = 10.0 ** gen.uniform(-12.0, 3.0, n)
    return np.where(gen.random(n) < 0.5, -mags, mags)


positive = st.floats(1e-3, 1e3)
tempered_stable = st.builds(
    TemperedStableMeasure,
    c_minus=positive,
    c_plus=positive,
    lam_minus=positive,
    lam_plus=positive,
    alpha=st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1.5]), st.floats(-3.0, 1.99)),
)


class TestPairLogRatio:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        nu1=tempered_stable,
        nu2=tempered_stable,
        same_shape=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tempered_stable_matches_two_passes_bitwise(self, nu1, nu2, same_shape, seed):
        if same_shape:
            nu1 = dataclasses.replace(
                nu1, alpha=nu2.alpha, c_plus=nu2.c_plus, c_minus=nu2.c_minus
            )
        assert_same_ratio(nu1, nu2, signed_magnitudes(seed))

    @pytest.mark.parametrize("alpha", [-1.5, -1.0, 0.5, 1.5])
    @pytest.mark.parametrize(
        "special", [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1e308]
    )
    def test_tempered_stable_special_values(self, alpha, special):
        nu1 = TemperedStableMeasure(1.0, 2.0, 1.0, 3.0, alpha)
        nu2 = TemperedStableMeasure(0.5, 1.0, 2.0, 1.0, 0.25)
        y = np.concatenate([signed_magnitudes(1, 50), [special]])
        assert_same_ratio(nu1, nu2, y)
        assert_same_ratio(nu2, nu1, y)

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_zero_and_nan_are_undefined(self, bad):
        with pytest.raises(RatioUndefined):
            pair_log_ratio(EX3_NU1, EX3_NU2)(np.array([0.5, bad]))

    def test_input_shapes(self):
        ratio = pair_log_ratio(EX3_NU1, EX3_NU2)
        assert ratio(np.empty(0)).shape == (0,)
        matrix = signed_magnitudes(2, 12).reshape(3, 4)
        for y in (matrix, matrix[:, ::2], 0.25, -3.0):
            got = ratio(y)
            want = two_pass_log_ratio(EX3_NU1, EX3_NU2, y)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)

    def test_subclass_with_its_own_log_density(self):
        # Doubled's density is twice its base class's, so the ratio against
        # the base measure is log 2 everywhere, not the base's fused form.
        class Doubled(TemperedStableMeasure):
            def density(self, y):
                return 2.0 * super().density(y)

            def log_density(self, y):
                return math.log(2.0) + super().log_density(y)

        nu1 = Doubled(1.0, 1.0, 1.0, 1.0, -0.5)
        nu2 = TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, -0.5)
        assert pair_log_ratio(nu1, nu2)(0.5) == pytest.approx(math.log(2.0), rel=1e-15)
        y = np.array([-2.0, -0.5, 0.25, 3.0])
        for a, b in ((nu1, nu2), (nu2, nu1), (nu1, nu1)):
            assert np.array_equal(pair_log_ratio(a, b)(y), two_pass_log_ratio(a, b, y))

    def test_generic_pair_uses_log_densities(self):
        nu1 = CP_U01(2.0)
        nu2 = CompoundPoissonMeasure(1.0, ExponentialDensity(1.0))
        y = np.array([0.25, 0.75])
        assert np.array_equal(pair_log_ratio(nu1, nu2)(y), two_pass_log_ratio(nu1, nu2, y))
        with pytest.raises(RatioUndefined):
            pair_log_ratio(nu1, nu2)(np.array([0.5, -1.0]))


def ig_sides(nu1, nu2):
    law = pair_jump_law(nu1, nu2)
    assert law.kind == "ig_sides"
    return law.value


class TestPairIgSides:
    """The ``"ig_sides"`` law of ``pair_jump_law``."""

    def test_differing_sides_negative_first(self):
        nu1 = TemperedStableMeasure(0.7, 1.3, 1.5, 2.0, 0.5)
        nu2 = TemperedStableMeasure(0.7, 1.3, 1.0, 0.8, 0.5)
        assert ig_sides(nu1, nu2) == ((0.7, 1.5, 1.0), (1.3, 2.0, 0.8))
        assert ig_sides(EX3_NU1, EX3_NU2) == ((1.0, 2.0, 1.0),)
        assert ig_sides(EX3_NU2, EX3_NU2) == ()
        assert pair_jump_law(EX3_NU2, EX3_NU2).mass_gap == 0.0

    @pytest.mark.parametrize(
        "nu1, nu2",
        [
            (TemperedStableMeasure(1.0, 1.0, 1.0, 2.0, 0.7), TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, 0.7)),
            (TemperedStableMeasure(1.0, 1.5, 1.0, 2.0, 0.5), TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, 0.5)),
            (TemperedStableMeasure(2.0, 1.0, 1.0, 2.0, 0.5), TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, 0.5)),
            (CP_U01(2.0), CP_U01(1.0)),
            (CP_U01(1.0), EX3_NU2),
        ],
    )
    def test_other_pairs_have_no_exact_law(self, nu1, nu2):
        assert pair_jump_law(nu1, nu2).kind != "ig_sides"

    def test_log_ratio_and_mass_gap_of_each_side(self):
        # On each listed side log(dnu1/dnu2)(y) = -(lambda1 - lambda2)|y|
        # and nu1 - nu2 integrates to C Gamma(-1/2)(sqrt(lambda1) - sqrt(lambda2)).
        nu1 = TemperedStableMeasure(0.7, 1.3, 1.5, 2.0, 0.5)
        nu2 = TemperedStableMeasure(0.7, 1.3, 1.0, 0.8, 0.5)
        ratio = pair_log_ratio(nu1, nu2)
        diff = _same_shape_ts_difference(nu1, nu2, lambda x: x, 1.0)
        y = np.geomspace(1e-6, 30.0, 50)
        total = 0.0
        for sign, (c, lam1, lam2) in zip((-1.0, 1.0), ig_sides(nu1, nu2)):
            np.testing.assert_allclose(ratio(sign * y), -(lam1 - lam2) * y, rtol=1e-12, atol=1e-13)
            lo, hi = sorted((0.0, sign * math.inf))
            gap = integrate(IntegrationRequest(diff, lo, hi, singular_at_zero=True)).value
            want = c * math.gamma(-0.5) * (math.sqrt(lam1) - math.sqrt(lam2))
            assert math.isclose(gap, want, rel_tol=1e-9)
            total += want
        assert math.isclose(pair_jump_law(nu1, nu2).mass_gap, total, rel_tol=1e-12)


class _OtherUniform(UniformDensity):
    """A subclass that keeps pdf and sample, so of the uniform family."""


class _OwnPdfUniform(UniformDensity):
    """A subclass with its own pdf, so outside the uniform family."""

    def pdf(self, x):
        return super().pdf(x)


def bundled_levy_pair(name):
    spec = parse_config(CONFIG_DIR / f"{name}.json").problem
    return spec.process1.levy, spec.process2.levy


class TestPairConstantLogRatio:
    """The ``"constant"`` law of ``pair_jump_law``."""

    @pytest.mark.parametrize(
        "nu1, nu2",
        [
            bundled_levy_pair("compound_poisson"),
            bundled_levy_pair("jump_diffusion"),
            (CP_U01(2.0), CompoundPoissonMeasure(1.0, UniformDensity(0.2, 0.7))),
            (CP_U01(0.8), CP_U01(1.5)),
            (CompoundPoissonMeasure(2.0, _OtherUniform(0.0, 1.0)), CP_U01(1.0)),
            (CP_U01(2.0), CompoundPoissonMeasure(1.0, _OtherUniform(0.0, 1.0))),
        ],
        ids=[
            "cp_bundled", "jd_bundled", "inner_support", "lambda1_below_lambda2",
            "subclass_nu1", "subclass_nu2",
        ],
    )
    def test_equals_the_log_ratio_of_every_sampled_jump(self, nu1, nu2):
        law = pair_jump_law(nu1, nu2)
        assert law.kind == "constant"
        constant = law.value
        sizes = sample_jump_batch(nu2, 1.0, 10**5, RngStream(4, 0)).sizes
        ratio = pair_log_ratio(nu1, nu2)(sizes)
        assert sizes.size > 50_000 and type(constant) is float
        assert np.array_equal(ratio.view(np.uint64), np.full(sizes.size, constant).view(np.uint64))
        g1, g2 = nu1.jump_density, nu2.jump_density
        closed = math.log(nu1.intensity / (g1.b - g1.a)) - math.log(nu2.intensity / (g2.b - g2.a))
        assert math.isclose(constant, closed, rel_tol=1e-12, abs_tol=1e-15)

    @pytest.mark.parametrize(
        "nu1, nu2",
        [
            (CompoundPoissonMeasure(1.0, ExponentialDensity(1.0)),
             CompoundPoissonMeasure(1.0, ExponentialDensity(2.0))),
            (CompoundPoissonMeasure(2.0, ExponentialDensity(1.0)),
             CompoundPoissonMeasure(1.0, ExponentialDensity(1.0))),
            (CompoundPoissonMeasure(2.0, NormalDensity(0.0, 1.0)),
             CompoundPoissonMeasure(1.0, NormalDensity(0.0, 1.0))),
            # the log-ratio is -inf on (1, 2]
            (CP_U01(1.0), CompoundPoissonMeasure(1.0, UniformDensity(0.0, 2.0))),
            (CP_U01(1.0), CompoundPoissonMeasure(1.0, ExponentialDensity(1.0))),
            (EX3_NU1, EX3_NU2),
            (TabulatedLevyMeasure((0.1, 1.0), (2.0, 2.0)), TabulatedLevyMeasure((0.1, 1.0), (1.0, 1.0))),
            (ZeroMeasure(), CP_U01(1.0)),
            (CP_U01(1.0), ZeroMeasure()),
            # nu2's sampler overflows to inf, outside [a2, b2]
            (CompoundPoissonMeasure(1.0, UniformDensity(-1e308, 1e308)),
             CompoundPoissonMeasure(1.0, UniformDensity(-1e308, 1e308))),
            # nu2's density underflows to 0, so every jump's ratio is undefined
            (CP_U01(1.0), CompoundPoissonMeasure(5e-324, UniformDensity(0.0, 2.0))),
            (CompoundPoissonMeasure(2.0, _OwnPdfUniform(0.0, 1.0)), CP_U01(1.0)),
            (CP_U01(2.0), CompoundPoissonMeasure(1.0, _OwnPdfUniform(0.0, 1.0))),
        ],
        ids=[
            "exponential", "exponential_same_density", "normal", "wider_reference",
            "uniform_vs_exponential", "tempered_stable",
            "tabulated", "zero_nu1", "zero_nu2", "overflowing_sampler", "vanishing_density",
            "subclass_nu1", "subclass_nu2",
        ],
    )
    def test_other_pairs_have_no_constant(self, nu1, nu2):
        assert pair_jump_law(nu1, nu2).kind != "constant"


def _knots(lo, hi):
    """Sorted, distinct knots in [lo, hi]: 2 to 40 of them, so that a long
    tabulation's breakpoints are subsampled."""
    return st.lists(st.floats(lo, hi), min_size=2, max_size=40, unique=True).map(sorted)


@st.composite
def tabulated_densities(draw):
    # Knots may nearly coincide.  A grid narrower than 1 gets one more knot
    # 1 past its first, so the trapezoid is at least 0.1 and the normalised
    # values stay below 50: a narrow grid's density can overflow.
    grid = draw(_knots(-5.0, 5.0))
    if grid[-1] - grid[0] < 1.0:
        grid.append(grid[0] + 1.0)
    values = np.asarray(draw(st.lists(st.floats(0.1, 5.0), min_size=len(grid), max_size=len(grid))))
    return TabulatedDensity(tuple(grid), tuple(values / np.trapezoid(values, grid)))


@st.composite
def tabulated_levy_measures(draw):
    sides = draw(st.sampled_from(["negative", "positive", "both"]))
    neg = draw(_knots(1e-3, 10.0)) if sides != "positive" else []
    pos = draw(_knots(1e-3, 10.0)) if sides != "negative" else []
    grid = [-m for m in reversed(neg)] + pos
    values = draw(st.lists(st.floats(0.01, 10.0), min_size=len(grid), max_size=len(grid)))
    return TabulatedLevyMeasure(tuple(grid), tuple(values))


jump_densities = st.one_of(
    st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2, unique=True)
    .map(sorted)
    .map(lambda ab: UniformDensity(*ab)),
    st.builds(ExponentialDensity, st.floats(0.1, 10.0)),
    st.builds(NormalDensity, st.floats(-3.0, 3.0), st.floats(0.1, 4.0)),
    tabulated_densities(),
)
# Supports with -1 and 1 in a gap, besides those drawn at random.
GAPPED = [
    CompoundPoissonMeasure(1.0, UniformDensity(1.5, 3.0)),
    CompoundPoissonMeasure(1.0, UniformDensity(-3.0, -2.0)),
    TabulatedLevyMeasure((-3.0, -2.0, 2.0, 3.0), (1.0, 0.5, 0.5, 1.0)),
]
levy_measures = st.one_of(
    st.sampled_from([ZeroMeasure(), *GAPPED]),
    st.builds(CompoundPoissonMeasure, st.floats(0.1, 10.0), jump_densities),
    tempered_stable,
    tabulated_levy_measures(),
)
special_bounds = st.sampled_from([-math.inf, -1.0, -0.0, 0.0, 1.0, math.inf])
windows = st.lists(st.one_of(special_bounds, st.floats(-6.0, 6.0)), min_size=2, max_size=2).map(
    sorted
)
magnitude_windows = st.lists(
    st.one_of(st.sampled_from([0.0, 1.0, math.inf]), st.floats(0.0, 6.0)), min_size=2, max_size=2
).map(sorted)


def hexes(edges):
    """Edges as hex strings, so that 0.0 and -0.0 differ."""
    return [float(e).hex() for e in edges]


def never_called(y):
    raise AssertionError("integrand called on a window without support")


class TestSupportEdges:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(nu1=levy_measures, nu2=levy_measures, window=windows, mags=magnitude_windows)
    def test_matches_the_reference_helpers(self, nu1, nu2, window, mags):
        lo_mag, hi_mag = mags
        sides = [support_edges((nu1,), -hi_mag, -lo_mag), support_edges((nu1,), lo_mag, hi_mag)]
        assert list(map(hexes, sides)) == list(map(hexes, _side_edges(nu1, lo_mag, hi_mag)))
        assert hexes(support_edges((nu1,), cuts=(-1.0, 1.0))) == hexes(_unit_cut_edges(nu1))
        assert hexes(support_edges((nu1, nu2))) == hexes(pair_support_edges(nu1, nu2))
        for lo, hi in (window, (-1.0, 1.0)):
            pieces = [
                (max(a, lo), min(b, hi)) for nu in (nu1, nu2) for a, b in nu.support_segments()
            ]
            pieces = [(a, b) for a, b in pieces if a < b]
            got = support_edges((nu1, nu2), lo, hi)
            if not pieces:
                assert got == []
                assert hexes([support_integral((nu1, nu2), never_called, lo, hi)]) == ["0x0.0p+0"]
                continue
            # Equal as floats: at a clip bound of -0.0 the old helper's hull
            # ends in the bound, the clipped segment's in 0.0.
            first, last = min(a for a, _ in pieces), max(b for _, b in pieces)
            reference = pair_support_edges(nu1, nu2, clip=(lo, hi))
            assert got == [e for e in reference if first <= e <= last]

    @pytest.mark.parametrize(
        "nu, lo, hi",
        [
            (ZeroMeasure(), -math.inf, math.inf),
            (GAPPED[0], -1.0, 1.0),
            (GAPPED[2], -1.0, 1.0),
            (EX3_NU1, 0.5, 0.5),
            (EX3_NU1, 1.0, -1.0),
        ],
        ids=["zero", "cp_gap", "tabulated_gap", "empty_window", "reversed_window"],
    )
    def test_integral_without_support_is_zero(self, nu, lo, hi):
        assert support_edges((nu,), lo, hi) == []
        value = support_integral((nu,), never_called, lo, hi, cuts=(-1.0, 1.0))
        assert hexes([value]) == ["0x0.0p+0"]

    def test_gap_at_the_unit_clip_is_skipped(self):
        # The old rule clipped the hull of the union support, [-3, 3], so
        # eta and gamma integrated [-1, 0, 1], where every density is 0.
        cp01 = CompoundPoissonMeasure(1.0, UniformDensity(0.0, 1.0))
        assert pair_support_edges(cp01, GAPPED[1], clip=(-1.0, 1.0)) == [-1.0, 0.0, 1.0]
        assert support_edges((cp01, GAPPED[1]), -1.0, 1.0) == [0.0, 1.0]
        assert pair_support_edges(GAPPED[2], ZeroMeasure(), clip=(-1.0, 1.0)) == [-1.0, 0.0, 1.0]
        assert support_edges((GAPPED[2],), -1.0, 1.0) == []


# ---------------------------------------------------------------------------
# Per-point pins
# ---------------------------------------------------------------------------

PIN_POINTS = (
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-300, -1e-300,
    1e-155, -1e-155, 0.3, -0.3, 1.0, -1.0, 50.0, -50.0, 3000.0, -3000.0,
)
PIN_ALPHAS = (-0.5, 0.5, 0.7, 1.5)


def pin_measures():
    """Every built-in family: tempered stable with equal and unequal C+-
    at each of PIN_ALPHAS, tabulated with one and two sides, compound
    Poisson with each jump density, and zero."""
    measures = {}
    for alpha in PIN_ALPHAS:
        measures[f"ts_equal_c_{alpha}"] = TemperedStableMeasure(1.0, 1.0, 1.0, 2.0, alpha)
        measures[f"ts_unequal_c_{alpha}"] = TemperedStableMeasure(0.5, 2.0, 3.0, 1.5, alpha)
    measures["tabulated_one_sided"] = TabulatedLevyMeasure(
        (1e-4, 0.3, 2.0, 50.0), (1e4, 3.0, 0.2, 1e-3)
    )
    measures["tabulated_two_sided"] = TabulatedLevyMeasure(
        (-50.0, -1.0, -1e-3, 1e-155, 0.3, 3.0), (1e-3, 0.5, 40.0, 1e10, 2.0, 0.1)
    )
    measures["cp_uniform"] = CompoundPoissonMeasure(2.0, UniformDensity(-0.3, 1.0))
    measures["cp_exponential"] = CompoundPoissonMeasure(1.5, ExponentialDensity(2.0))
    measures["cp_normal"] = CompoundPoissonMeasure(0.7, NormalDensity(0.5, 4.0))
    measures["cp_tabulated"] = CompoundPoissonMeasure(
        3.0, TabulatedDensity((-1.0, 0.3, 2.0), (0.1, 0.51, 0.2))
    )
    measures["zero"] = ZeroMeasure()
    return measures


def pin_pairs():
    """Same-shape tempered-stable pairs with lambda1 > lambda2 on one side
    and lambda1 < lambda2 on the other at each of PIN_ALPHAS, and the
    bundled pair (lambda+ 2 against 1), each way round; and one pair for
    each other branch of the pair hooks."""
    measures = pin_measures()
    pairs = {}
    for alpha in PIN_ALPHAS:
        nu1 = TemperedStableMeasure(0.5, 2.0, 3.0, 1.5, alpha)
        nu2 = TemperedStableMeasure(0.5, 2.0, 1.0, 4.0, alpha)
        pairs[f"ts_both_sides_{alpha}"] = (nu1, nu2)
        pairs[f"ts_both_sides_swapped_{alpha}"] = (nu2, nu1)
    pairs["ts_plus_side"] = (EX3_NU1, EX3_NU2)
    pairs["ts_plus_side_swapped"] = (EX3_NU2, EX3_NU1)
    pairs["ts_alpha"] = (measures["ts_unequal_c_0.5"], measures["ts_unequal_c_0.7"])
    pairs["cp_intensity"] = (
        measures["cp_uniform"],
        CompoundPoissonMeasure(1.0, UniformDensity(-0.3, 1.0)),
    )
    pairs["tabulated_cp"] = (measures["tabulated_two_sided"], measures["cp_normal"])
    return pairs


def point_functions():
    """Each pinned function by name: density and log_density per measure of
    pin_measures(), and the two pair hooks per pair of pin_pairs()."""
    functions = {}
    for name, nu in pin_measures().items():
        functions[f"density/{name}"] = nu.density
        functions[f"log_density/{name}"] = nu.log_density
    for name, (nu1, nu2) in pin_pairs().items():
        functions[f"difference/{name}"] = pair_difference_fn(nu1, nu2)
        functions[f"log_ratio/{name}"] = pair_log_ratio(nu1, nu2)
    return functions


def point_pins(fn, shape=(1,)):
    """fn at each of PIN_POINTS, one point a call given as an array of
    ``shape``, as hex floats; "RatioUndefined" where it raises so."""
    pins = []
    for y in PIN_POINTS:
        try:
            with np.errstate(all="ignore"):
                value = fn(np.full(shape, y))
        except RatioUndefined:
            pins.append("RatioUndefined")
            continue
        assert np.shape(value) == shape
        pins.append(float(np.ravel(value)[0]).hex())
    return tuple(pins)


def zero_d_pins():
    """point_pins(fn, ()) per name where 0-d input differs from 1-d: numpy
    takes a scalar power, not its array loop, for a 0-d |y|."""
    pins = {}
    for name, fn in point_functions().items():
        zero_d = point_pins(fn, ())
        if zero_d != point_pins(fn):
            pins[name] = zero_d
    return pins


# point_pins(fn) per name of point_functions(), and zero_d_pins().
# ``python tests/test_measures.py`` prints both for the tree on the import
# path.
POINT_GOLDEN = {
    "density/cp_exponential": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x1.8000000000000p+1",
        "0x0.0p+0", "0x1.8000000000000p+1", "0x0.0p+0",
        "0x1.8000000000000p+1", "0x0.0p+0", "0x1.a57cc21610754p+0",
        "0x0.0p+0", "0x1.9fbfff59f42b2p-2", "0x0.0p+0",
        "0x1.3e9174faa0386p-143", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "density/cp_normal": (
        "0x0.0p+0", "0x0.0p+0", "nan",
        "0x0.0p+0", "0x0.0p+0", "0x1.1529e8a501f29p-3",
        "0x1.1529e8a501f29p-3", "0x1.1529e8a501f29p-3", "0x1.1529e8a501f29p-3",
        "0x1.1529e8a501f29p-3", "0x1.1529e8a501f29p-3", "0x1.1c891c2a8994ep-3",
        "0x1.07f9dd88595e4p-3", "0x1.1529e8a501f29p-3", "0x1.afb5eb5f27c1dp-4",
        "0x1.38d4a87983decp-445", "0x1.319c492416509p-463", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "density/cp_tabulated": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x1.3f03f03f03f04p+0",
        "0x1.3f03f03f03f04p+0", "0x1.3f03f03f03f04p+0", "0x1.3f03f03f03f04p+0",
        "0x1.3f03f03f03f04p+0", "0x1.3f03f03f03f04p+0", "0x1.87ae147ae147bp+0",
        "0x1.ecb398064d31ap-1", "0x1.25a5a5a5a5a5bp+0", "0x1.3333333333334p-2",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "density/cp_uniform": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x1.89d89d89d89d8p+0",
        "0x1.89d89d89d89d8p+0", "0x1.89d89d89d89d8p+0", "0x1.89d89d89d89d8p+0",
        "0x1.89d89d89d89d8p+0", "0x1.89d89d89d89d8p+0", "0x1.89d89d89d89d8p+0",
        "0x1.89d89d89d89d8p+0", "0x1.89d89d89d89d8p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "density/tabulated_one_sided": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x1.8000000000001p+1",
        "0x0.0p+0", "0x1.136d43c1c69bfp-1", "0x0.0p+0",
        "0x1.0624dd2f1a9fdp-10", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "density/tabulated_two_sided": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x1.2a05f20000002p+33", "0x0.0p+0", "0x1.0000000000000p+1",
        "0x1.12bab7338f49ep+0", "0x1.ab9c744db6251p-2", "0x1.0000000000000p-1",
        "0x0.0p+0", "0x1.0624dd2f1a9fdp-10", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "density/ts_equal_c_-0.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+537",
        "0x1.0000000000000p+537", "0x1.38d352e5096afp+498", "0x1.38d352e5096afp+498",
        "0x1.5d914951a394dp+257", "0x1.5d914951a394dp+257", "0x1.00824f6b77995p+0",
        "0x1.5a403f4a73c7dp+0", "0x1.152aaa3bf81ccp-3", "0x1.78b56362cef38p-2",
        "0x1.e08ef043cafd6p-148", "0x1.07cdb1c290c9ap-75", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "density/ts_equal_c_0.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "inf",
        "inf", "inf", "inf",
        "0x1.45e632df75aeap+772", "0x1.45e632df75aeap+772", "0x1.ab83d9b31caa3p+1",
        "0x1.208adf68b5d13p+2", "0x1.152aaa3bf81ccp-3", "0x1.78b56362cef38p-2",
        "0x1.338eae3fde12dp-153", "0x1.51ab20f90b3f9p-81", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "density/ts_equal_c_0.7": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "inf",
        "inf", "inf", "inf",
        "0x1.415c87115962cp+875", "0x1.415c87115962cp+875", "0x1.0ff47f2509225p+2",
        "0x1.6f19d731be97bp+2", "0x1.152aaa3bf81ccp-3", "0x1.78b56362cef38p-2",
        "0x1.194b88d23116cp-154", "0x1.34d5c24e70761p-82", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "density/ts_equal_c_1.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "inf",
        "inf", "inf", "inf",
        "inf", "inf", "0x1.6443356a97e32p+3",
        "0x1.e0e774592f075p+3", "0x1.152aaa3bf81ccp-3", "0x1.78b56362cef38p-2",
        "0x1.89ac6428ca559p-159", "0x1.b0373471f9eafp-87", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "density/ts_unequal_c_-0.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+538",
        "0x1.0000000000000p+536", "0x1.38d352e5096afp+499", "0x1.38d352e5096afp+497",
        "0x1.5d914951a394dp+258", "0x1.5d914951a394dp+256", "0x1.2a055e29a5929p+1",
        "0x1.7c0d99246aceep-2", "0x1.c8f87724b5c1dp-2", "0x1.97db0ccceb0afp-6",
        "0x1.f78890d337ed1p-111", "0x1.b5b4892674c68p-221", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "density/ts_unequal_c_0.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "inf",
        "inf", "inf", "inf",
        "0x1.45e632df75aeap+773", "0x1.45e632df75aeap+771", "0x1.f0b39cf013f45p+2",
        "0x1.3cb5ff9e5901cp+0", "0x1.c8f87724b5c1dp-2", "0x1.97db0ccceb0afp-6",
        "0x1.4242ec0c4cc0bp-116", "0x1.18219f74c59dcp-226", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "density/ts_unequal_c_0.7": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "inf",
        "inf", "inf", "inf",
        "0x1.415c87115962cp+876", "0x1.415c87115962cp+874", "0x1.3bf77a1d97542p+3",
        "0x1.92f043d182494p+0", "0x1.c8f87724b5c1dp-2", "0x1.97db0ccceb0afp-6",
        "0x1.26be590145649p-117", "0x1.0036010a78238p-227", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "density/ts_unequal_c_1.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "inf",
        "inf", "inf", "inf",
        "inf", "inf", "0x1.9deb02c810a0fp+4",
        "0x1.07ecffae9f817p+2", "0x1.c8f87724b5c1dp-2", "0x1.97db0ccceb0afp-6",
        "0x1.9c7e9ec81052dp-122", "0x1.66916ff1a0c9fp-232", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "density/zero": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "difference/cp_intensity": (
        "0x1.89d89d89d89d8p-1", "0x1.89d89d89d89d8p-1", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x1.89d89d89d89d8p-1",
        "0x1.89d89d89d89d8p-1", "0x1.89d89d89d89d8p-1", "0x1.89d89d89d89d8p-1",
        "0x1.89d89d89d89d8p-1", "0x1.89d89d89d89d8p-1", "0x1.89d89d89d89d8p-1",
        "0x1.89d89d89d89d8p-1", "0x1.89d89d89d89d8p-1", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "difference/tabulated_cp": (
        "0x0.0p+0", "0x0.0p+0", "nan",
        "0x0.0p+0", "0x0.0p+0", "-0x1.1529e8a501f29p-3",
        "-0x1.1529e8a501f29p-3", "-0x1.1529e8a501f29p-3", "-0x1.1529e8a501f29p-3",
        "0x1.2a05f1ffeead8p+33", "-0x1.1529e8a501f29p-3", "0x1.dc6edc7aaecd6p+0",
        "0x1.e376f705083c3p-1", "0x1.21077ffb352bcp-2", "0x1.94128528360f9p-2",
        "-0x1.38d4a87983decp-445", "0x1.0624dd2f1a9fdp-10", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "difference/ts_alpha": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "nan",
        "nan", "nan", "nan",
        "-0x1.415c87115962cp+876", "-0x1.415c87115962cp+874", "-0x1.0e76ae963567ep+1",
        "-0x1.58e910cca51e0p-2", "0x0.0p+0", "0x0.0p+0",
        "0x1.5dc77f17541cdp-117", "0x1.300d3ddf13180p-227", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "difference/ts_both_sides_-0.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x1.3a7ddd869611dp+0",
        "-0x1.3872e5707cc0cp-2", "0x1.a375cbb47347ep-2", "-0x1.45ba01c931922p-3",
        "0x1.f78890d337ed1p-111", "-0x1.07cdb1c290c9ap-76", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "difference/ts_both_sides_0.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "nan",
        "nan", "nan", "nan",
        "0x0.0p+0", "0x0.0p+0", "0x1.06138df027b98p+2",
        "-0x1.045fbf3312a0ap+0", "0x1.a375cbb47347ep-2", "-0x1.45ba01c931922p-3",
        "0x1.4242ec0c4cc0bp-116", "-0x1.51ab20f90b3f9p-82", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "difference/ts_both_sides_0.7": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "nan",
        "nan", "nan", "nan",
        "0x0.0p+0", "0x0.0p+0", "0x1.4d6de06db4c91p+2",
        "-0x1.4b436a91fae62p+0", "0x1.a375cbb47347ep-2", "-0x1.45ba01c931922p-3",
        "0x1.26be590145649p-117", "-0x1.34d5c24e70761p-83", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "difference/ts_both_sides_1.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "nan",
        "nan", "nan", "nan",
        "nan", "nan", "0x1.b4cb41e5978a9p+3",
        "-0x1.b1f4e9551f0bcp+1", "0x1.a375cbb47347ep-2", "-0x1.45ba01c931922p-3",
        "0x1.9c7e9ec81052dp-122", "-0x1.b0373471f9eafp-88", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "difference/ts_both_sides_swapped_-0.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "-0x1.3a7ddd869611dp+0",
        "0x1.3872e5707cc0cp-2", "-0x1.a375cbb47347ep-2", "0x1.45ba01c931922p-3",
        "-0x1.f78890d337ed1p-111", "0x1.07cdb1c290c9ap-76", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "difference/ts_both_sides_swapped_0.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "nan",
        "nan", "nan", "nan",
        "0x0.0p+0", "0x0.0p+0", "-0x1.06138df027b98p+2",
        "0x1.045fbf3312a0ap+0", "-0x1.a375cbb47347ep-2", "0x1.45ba01c931922p-3",
        "-0x1.4242ec0c4cc0bp-116", "0x1.51ab20f90b3f9p-82", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "difference/ts_both_sides_swapped_0.7": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "nan",
        "nan", "nan", "nan",
        "0x0.0p+0", "0x0.0p+0", "-0x1.4d6de06db4c91p+2",
        "0x1.4b436a91fae62p+0", "-0x1.a375cbb47347ep-2", "0x1.45ba01c931922p-3",
        "-0x1.26be590145649p-117", "0x1.34d5c24e70761p-83", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "difference/ts_both_sides_swapped_1.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "nan",
        "nan", "nan", "nan",
        "nan", "nan", "-0x1.b4cb41e5978a9p+3",
        "0x1.b1f4e9551f0bcp+1", "-0x1.a375cbb47347ep-2", "0x1.45ba01c931922p-3",
        "-0x1.9c7e9ec81052dp-122", "0x1.b0373471f9eafp-88", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "difference/ts_plus_side": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "nan",
        "nan", "nan", "nan",
        "0x0.0p+0", "0x0.0p+0", "-0x1.2b23ca3c9df06p+0",
        "0x0.0p+0", "-0x1.dc401c89a5ca4p-3", "0x0.0p+0",
        "-0x1.51ab20f90b3f9p-81", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "difference/ts_plus_side_swapped": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "nan",
        "nan", "nan", "nan",
        "0x0.0p+0", "0x0.0p+0", "0x1.2b23ca3c9df06p+0",
        "0x0.0p+0", "0x1.dc401c89a5ca4p-3", "0x0.0p+0",
        "0x1.51ab20f90b3f9p-81", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "log_density/cp_exponential": (
        "-inf", "-inf", "-inf",
        "-inf", "-inf", "0x1.193ea7aad030bp+0",
        "-inf", "0x1.193ea7aad030bp+0", "-inf",
        "0x1.193ea7aad030bp+0", "-inf", "0x1.fe943844da5c1p-2",
        "-inf", "-0x1.cd82b0aa5f9eap-1", "-inf",
        "-0x1.8b9b056154bf4p+6", "-inf", "-inf",
        "-inf",
    ),
    "log_density/cp_normal": (
        "-inf", "-inf", "nan",
        "-inf", "-inf", "-0x1.000059673e613p+1",
        "-0x1.000059673e613p+1", "-0x1.000059673e613p+1", "-0x1.000059673e613p+1",
        "-0x1.000059673e613p+1", "-0x1.000059673e613p+1", "-0x1.f94860e2f7a3ap+0",
        "-0x1.063dca0b156b7p+1", "-0x1.000059673e613p+1", "-0x1.200059673e613p+1",
        "-0x1.344000b2ce7ccp+8", "-0x1.40c000b2ce7ccp+8", "-inf",
        "-inf",
    ),
    "log_density/cp_tabulated": (
        "-inf", "-inf", "-inf",
        "-inf", "-inf", "0x1.c2afce31b32a8p-3",
        "0x1.c2afce31b32a8p-3", "0x1.c2afce31b32a8p-3", "0x1.c2afce31b32a8p-3",
        "0x1.c2afce31b32a8p-3", "0x1.c2afce31b32a8p-3", "0x1.b379629e6c2cbp-2",
        "-0x1.3abebf0475335p-5", "0x1.18fce6ceffe0fp-3", "-0x1.34378fcbda720p+0",
        "-inf", "-inf", "-inf",
        "-inf",
    ),
    "log_density/cp_uniform": (
        "-inf", "-inf", "-inf",
        "-inf", "-inf", "0x1.b91f28212ba01p-2",
        "0x1.b91f28212ba01p-2", "0x1.b91f28212ba01p-2", "0x1.b91f28212ba01p-2",
        "0x1.b91f28212ba01p-2", "0x1.b91f28212ba01p-2", "0x1.b91f28212ba01p-2",
        "0x1.b91f28212ba01p-2", "0x1.b91f28212ba01p-2", "-inf",
        "-inf", "-inf", "-inf",
        "-inf",
    ),
    "log_density/tabulated_one_sided": (
        "-inf", "-inf", "-inf",
        "-inf", "-inf", "-inf",
        "-inf", "-inf", "-inf",
        "-inf", "-inf", "0x1.193ea7aad030bp+0",
        "-inf", "-0x1.3d70fd9d8acb6p-1", "-inf",
        "-0x1.ba18a998fffa0p+2", "-inf", "-inf",
        "-inf",
    ),
    "log_density/tabulated_two_sided": (
        "-inf", "-inf", "-inf",
        "-inf", "-inf", "-inf",
        "-inf", "-inf", "-inf",
        "0x1.7069e2aa2aa5bp+4", "-inf", "0x1.62e42fefa39efp-1",
        "0x1.2136eb4ddf25fp-4", "-0x1.bf1b9d24347ccp-1", "-0x1.62e42fefa39efp-1",
        "-inf", "-0x1.ba18a998fffa0p+2", "-inf",
        "-inf",
    ),
    "log_density/ts_equal_c_-0.5": (
        "-inf", "-inf", "-inf",
        "-inf", "-inf", "0x1.74385446d71c3p+8",
        "0x1.74385446d71c3p+8", "0x1.5963447f87fb5p+8", "0x1.5963447f87fb5p+8",
        "0x1.64e69394d9508p+7", "0x1.64e69394d9508p+7", "0x1.045c98a73ee00p-9",
        "0x1.353bec6481b0fp-2", "-0x1.0000000000000p+1", "-0x1.0000000000000p+0",
        "-0x1.97d2f4adeb06fp+6", "-0x1.9fa5e95bd60ddp+5", "-0x1.77400d0a70768p+12",
        "-0x1.77801a14e0ed0p+11",
    ),
    "log_density/ts_equal_c_0.5": (
        "-inf", "-inf", "-inf",
        "-inf", "-inf", "0x1.172a3f3521552p+10",
        "0x1.172a3f3521552p+10", "0x1.030a735fa5fc8p+10", "0x1.030a735fa5fc8p+10",
        "0x1.0baceeafa2fc6p+9", "0x1.0baceeafa2fc6p+9", "0x1.34b9be182e118p+0",
        "0x1.81868ae4fade5p+0", "-0x1.0000000000000p+1", "-0x1.0000000000000p+0",
        "-0x1.a778de09c114cp+6", "-0x1.bef1bc1382298p+5", "-0x1.77c0271f51638p+12",
        "-0x1.78804e3ea2c70p+11",
    ),
    "log_density/ts_equal_c_0.7": (
        "-inf", "-inf", "-inf",
        "-inf", "-inf", "0x1.3c63146f6a0b2p+10",
        "0x1.3c63146f6a0b2p+10", "0x1.2594609f99fc0p+10", "0x1.2594609f99fc0p+10",
        "0x1.2f5d970b52513p+9", "0x1.2f5d970b52513p+9", "0x1.725e7474268eap+0",
        "0x1.bf2b4140f35b7p+0", "-0x1.0000000000000p+1", "-0x1.0000000000000p+0",
        "-0x1.aa9a0cb5b8b12p+6", "-0x1.c534196b71624p+5", "-0x1.77d9c5f04b2c8p+12",
        "-0x1.78b38be096590p+11",
    ),
    "log_density/ts_equal_c_1.5": (
        "-inf", "-inf", "-inf",
        "-inf", "-inf", "0x1.d14669588ce34p+10",
        "0x1.d14669588ce34p+10", "0x1.afbc159f69fa2p+10", "0x1.afbc159f69fa2p+10",
        "0x1.be20387a0fa4ap+9", "0x1.be20387a0fa4ap+9", "0x1.3478a6f20441cp+1",
        "0x1.5adf0d586aa83p+1", "-0x1.0000000000000p+1", "-0x1.0000000000000p+0",
        "-0x1.b71ec7659722ap+6", "-0x1.de3d8ecb2e453p+5", "-0x1.7840413432508p+12",
        "-0x1.7980826864a10p+11",
    ),
    "log_density/ts_unequal_c_-0.5": (
        "-inf", "-inf", "-inf",
        "-inf", "-inf", "0x1.74e9c65eceee0p+8",
        "0x1.7386e22edf4a6p+8", "0x1.5a14b6977fcd2p+8", "0x1.58b1d26790298p+8",
        "0x1.664977c4c8f42p+7", "0x1.6383af64e9acep+7", "0x1.b0b5595517aaap-1",
        "-0x1.fb796cf095f9ap-1", "-0x1.9d1bd0105c611p-1", "-0x1.d8b90bfbe8e7cp+1",
        "-0x1.310d2c4e0bbfbp+6", "-0x1.314c5e86e5271p+7", "-0x1.1974f5e8f0f96p+12",
        "-0x1.19659215f7f9dp+13",
    ),
    "log_density/ts_unequal_c_0.5": (
        "-inf", "-inf", "-inf",
        "-inf", "-inf", "0x1.17569bbb1f499p+10",
        "0x1.16fde2af2360bp+10", "0x1.0336cfe5a3f0fp+10", "0x1.02de16d9a8081p+10",
        "0x1.0c05a7bb9ee54p+9", "0x1.0b5435a3a7138p+9", "0x1.06491e3b3323cp+1",
        "0x1.b3d6ca9c7baa0p-3", "-0x1.9d1bd0105c611p-1", "-0x1.d8b90bfbe8e7cp+1",
        "-0x1.40b315a9e1cd8p+6", "-0x1.391f5334d02e0p+7", "-0x1.19f50ffdd1e66p+12",
        "-0x1.19a59f2068705p+13",
    ),
    "log_density/ts_unequal_c_0.7": (
        "-inf", "-inf", "-inf",
        "-inf", "-inf", "0x1.3c8f70f567ff9p+10",
        "0x1.3c36b7e96c16bp+10", "0x1.25c0bd2597f07p+10", "0x1.256804199c079p+10",
        "0x1.2fb650174e3a1p+9", "0x1.2f04ddff56685p+9", "0x1.251b79692f624p+1",
        "0x1.d07e3ebe1fc98p-2", "-0x1.9d1bd0105c611p-1", "-0x1.d8b90bfbe8e7cp+1",
        "-0x1.43d44455d969ep+6", "-0x1.3aafea8acbfc3p+7", "-0x1.1a0eaececbaf6p+12",
        "-0x1.19b26e88e554dp+13",
    ),
    "log_density/ts_unequal_c_1.5": (
        "-inf", "-inf", "-inf",
        "-inf", "-inf", "0x1.d172c5de8ad7bp+10",
        "0x1.d11a0cd28eeedp+10", "0x1.afe8722567ee9p+10", "0x1.af8fb9196c05bp+10",
        "0x1.be78f1860b8d8p+9", "0x1.bdc77f6e13bbcp+9", "0x1.a064e621205ccp+1",
        "0x1.6ab2691f69e74p+0", "-0x1.9d1bd0105c611p-1", "-0x1.d8b90bfbe8e7cp+1",
        "-0x1.5058ff05b7db6p+6", "-0x1.40f247e2bb34fp+7", "-0x1.1a752a12b2d36p+12",
        "-0x1.19e5ac2ad8e6dp+13",
    ),
    "log_density/zero": (
        "-inf", "-inf", "-inf",
        "-inf", "-inf", "-inf",
        "-inf", "-inf", "-inf",
        "-inf", "-inf", "-inf",
        "-inf", "-inf", "-inf",
        "-inf", "-inf", "-inf",
        "-inf",
    ),
    "log_ratio/cp_intensity": (
        "RatioUndefined", "RatioUndefined", "RatioUndefined",
        "RatioUndefined", "RatioUndefined", "0x1.62e42fefa39efp-1",
        "0x1.62e42fefa39efp-1", "0x1.62e42fefa39efp-1", "0x1.62e42fefa39efp-1",
        "0x1.62e42fefa39efp-1", "0x1.62e42fefa39efp-1", "0x1.62e42fefa39efp-1",
        "0x1.62e42fefa39efp-1", "0x1.62e42fefa39efp-1", "RatioUndefined",
        "RatioUndefined", "RatioUndefined", "RatioUndefined",
        "RatioUndefined",
    ),
    "log_ratio/tabulated_cp": (
        "RatioUndefined", "RatioUndefined", "nan",
        "RatioUndefined", "RatioUndefined", "-inf",
        "-inf", "-inf", "-inf",
        "0x1.9069edd71271dp+4", "-inf", "0x1.555d3c6d64b99p+1",
        "0x1.0f4781658464ap+1", "0x1.2072e43c62840p+0", "0x1.8e8e9ad6aaf2ep+0",
        "-inf", "0x1.39d79e0c6a7cep+8", "RatioUndefined",
        "RatioUndefined",
    ),
    "log_ratio/ts_alpha": (
        "RatioUndefined", "RatioUndefined", "RatioUndefined",
        "RatioUndefined", "RatioUndefined", "-0x1.29c6a9d245b00p+7",
        "-0x1.29c6a9d245b00p+7", "-0x1.144f69ff9ffc0p+7", "-0x1.144f69ff9ffc0p+7",
        "-0x1.1d8542dd7aa68p+6", "-0x1.1d8542dd7aa68p+6", "-0x1.ed25b2dfc3e80p-3",
        "-0x1.ed25b2dfc3e90p-3", "0x0.0p+0", "0x0.0p+0",
        "0x1.909755fbce300p-1", "0x1.909755fbce300p-1", "0x1.99ed0f9c90000p+0",
        "0x1.99ed0f9c90000p+0",
    ),
    "log_ratio/ts_both_sides_-0.5": (
        "RatioUndefined", "RatioUndefined", "RatioUndefined",
        "RatioUndefined", "RatioUndefined", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x1.8000000000000p-1",
        "-0x1.3333333333332p-1", "0x1.4000000000000p+1", "-0x1.0000000000000p+1",
        "0x1.f3fffffffffffp+6", "-0x1.9000000000000p+6", "0x1.d4c0000000000p+12",
        "-0x1.7700000000000p+12",
    ),
    "log_ratio/ts_both_sides_0.5": (
        "RatioUndefined", "RatioUndefined", "RatioUndefined",
        "RatioUndefined", "RatioUndefined", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x1.8000000000002p-1",
        "-0x1.3333333333332p-1", "0x1.4000000000000p+1", "-0x1.0000000000000p+1",
        "0x1.f400000000000p+6", "-0x1.9000000000000p+6", "0x1.d4c0000000000p+12",
        "-0x1.7700000000000p+12",
    ),
    "log_ratio/ts_both_sides_0.7": (
        "RatioUndefined", "RatioUndefined", "RatioUndefined",
        "RatioUndefined", "RatioUndefined", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x1.7fffffffffffep-1",
        "-0x1.3333333333332p-1", "0x1.4000000000000p+1", "-0x1.0000000000000p+1",
        "0x1.f400000000000p+6", "-0x1.9000000000000p+6", "0x1.d4c0000000000p+12",
        "-0x1.7700000000000p+12",
    ),
    "log_ratio/ts_both_sides_1.5": (
        "RatioUndefined", "RatioUndefined", "RatioUndefined",
        "RatioUndefined", "RatioUndefined", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x1.8000000000000p-1",
        "-0x1.3333333333334p-1", "0x1.4000000000000p+1", "-0x1.0000000000000p+1",
        "0x1.f400000000000p+6", "-0x1.9000000000000p+6", "0x1.d4c0000000000p+12",
        "-0x1.7700000000000p+12",
    ),
    "log_ratio/ts_both_sides_swapped_-0.5": (
        "RatioUndefined", "RatioUndefined", "RatioUndefined",
        "RatioUndefined", "RatioUndefined", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "-0x1.8000000000000p-1",
        "0x1.3333333333332p-1", "-0x1.4000000000000p+1", "0x1.0000000000000p+1",
        "-0x1.f3fffffffffffp+6", "0x1.9000000000000p+6", "-0x1.d4c0000000000p+12",
        "0x1.7700000000000p+12",
    ),
    "log_ratio/ts_both_sides_swapped_0.5": (
        "RatioUndefined", "RatioUndefined", "RatioUndefined",
        "RatioUndefined", "RatioUndefined", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "-0x1.8000000000002p-1",
        "0x1.3333333333332p-1", "-0x1.4000000000000p+1", "0x1.0000000000000p+1",
        "-0x1.f400000000000p+6", "0x1.9000000000000p+6", "-0x1.d4c0000000000p+12",
        "0x1.7700000000000p+12",
    ),
    "log_ratio/ts_both_sides_swapped_0.7": (
        "RatioUndefined", "RatioUndefined", "RatioUndefined",
        "RatioUndefined", "RatioUndefined", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "-0x1.7fffffffffffep-1",
        "0x1.3333333333332p-1", "-0x1.4000000000000p+1", "0x1.0000000000000p+1",
        "-0x1.f400000000000p+6", "0x1.9000000000000p+6", "-0x1.d4c0000000000p+12",
        "0x1.7700000000000p+12",
    ),
    "log_ratio/ts_both_sides_swapped_1.5": (
        "RatioUndefined", "RatioUndefined", "RatioUndefined",
        "RatioUndefined", "RatioUndefined", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "-0x1.8000000000000p-1",
        "0x1.3333333333334p-1", "-0x1.4000000000000p+1", "0x1.0000000000000p+1",
        "-0x1.f400000000000p+6", "0x1.9000000000000p+6", "-0x1.d4c0000000000p+12",
        "0x1.7700000000000p+12",
    ),
    "log_ratio/ts_plus_side": (
        "RatioUndefined", "RatioUndefined", "RatioUndefined",
        "RatioUndefined", "RatioUndefined", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "-0x1.3333333333334p-2",
        "0x0.0p+0", "-0x1.0000000000000p+0", "0x0.0p+0",
        "-0x1.9000000000000p+5", "0x0.0p+0", "-0x1.7700000000000p+11",
        "0x0.0p+0",
    ),
    "log_ratio/ts_plus_side_swapped": (
        "RatioUndefined", "RatioUndefined", "RatioUndefined",
        "RatioUndefined", "RatioUndefined", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x1.3333333333334p-2",
        "0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0",
        "0x1.9000000000000p+5", "0x0.0p+0", "0x1.7700000000000p+11",
        "0x0.0p+0",
    ),
}
ZERO_D_GOLDEN = {
    "density/ts_equal_c_-0.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+537",
        "0x1.0000000000000p+537", "0x1.38d352e5096afp+498", "0x1.38d352e5096afp+498",
        "0x1.5d914951a394ep+257", "0x1.5d914951a394ep+257", "0x1.00824f6b77995p+0",
        "0x1.5a403f4a73c7dp+0", "0x1.152aaa3bf81ccp-3", "0x1.78b56362cef38p-2",
        "0x1.e08ef043cafd6p-148", "0x1.07cdb1c290c9ap-75", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "density/ts_unequal_c_-0.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+538",
        "0x1.0000000000000p+536", "0x1.38d352e5096afp+499", "0x1.38d352e5096afp+497",
        "0x1.5d914951a394ep+258", "0x1.5d914951a394ep+256", "0x1.2a055e29a5929p+1",
        "0x1.7c0d99246aceep-2", "0x1.c8f87724b5c1dp-2", "0x1.97db0ccceb0afp-6",
        "0x1.f78890d337ed1p-111", "0x1.b5b4892674c68p-221", "0x0.0p+0",
        "0x0.0p+0",
    ),
}


class TestPointPins:
    @pytest.mark.parametrize("name", sorted(POINT_GOLDEN))
    def test_one_and_two_d_input(self, name):
        # A call raises RatioUndefined as soon as one point does; the rest
        # come back with the pins.
        fn = point_functions()[name]
        pins = np.array(POINT_GOLDEN[name])
        defined = pins != "RatioUndefined"
        if not defined.all():
            with pytest.raises(RatioUndefined):
                fn(np.array(PIN_POINTS))
        y, pins = np.array(PIN_POINTS)[defined], pins[defined]
        for arg, want in ((y, pins), (np.stack([y, y[::-1]]), np.stack([pins, pins[::-1]]))):
            with np.errstate(all="ignore"):
                got = fn(arg)
            assert np.shape(got) == arg.shape
            assert [float(v).hex() for v in got.ravel()] == want.ravel().tolist()

    @pytest.mark.parametrize("name", sorted(POINT_GOLDEN))
    def test_point_by_point(self, name):
        fn = point_functions()[name]
        assert point_pins(fn) == POINT_GOLDEN[name]
        assert point_pins(fn, ()) == ZERO_D_GOLDEN.get(name, POINT_GOLDEN[name])

    def test_every_function_is_pinned(self):
        assert sorted(point_functions()) == sorted(POINT_GOLDEN)
        assert set(ZERO_D_GOLDEN) <= set(POINT_GOLDEN)


def print_pins(name, table):
    """Print ``table`` in the layout of its literal ``name`` in this file."""
    print(f"{name} = {{")
    for key in sorted(table):
        pins = table[key]
        print(f'    "{key}": (')
        for i in range(0, len(pins), 3):
            print("        " + " ".join(f'"{pin}",' for pin in pins[i : i + 3]))
        print("    ),")
    print("}")


if __name__ == "__main__":
    print_pins("POINT_GOLDEN", {k: point_pins(fn) for k, fn in point_functions().items()})
    print_pins("ZERO_D_GOLDEN", zero_d_pins())
