"""Tests for Levy measures, jump densities, and pairwise functionals."""

import dataclasses
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from addgap.bounds import compute_report
from addgap.errors import (
    DivergentIntegral,
    NotAbsolutelyContinuous,
    RatioUndefined,
)
from addgap.measures import (
    AbsContinuityReport,
    CompoundPoissonMeasure,
    ExponentialDensity,
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
    pair_difference_fn,
    pair_jump_law,
    pair_log_ratio,
    pair_sqrt_difference_fn,
    validate_levy,
)
from addgap.config import parse_config
from addgap.processes import ConstantFunction, ProblemSpec, ProcessSpec
from addgap.simulate import RngStream, sample_jump_batch
from addgap.quadrature import integrate_fn

from _oracles import (
    ETA_EX3,
    GAMMA_POS_LAM1,
    GAMMA_POS_LAM2,
    H2_EX3,
    H2_EX3_A15,
    L1_EX3,
    clear_caches,
    report_bits,
)

TOL_EXACT = 1e-12
TOL_QUAD = 1e-7
TOL_CLOSED = 1e-9

EX3_NU1 = TemperedStableMeasure(c_minus=1.0, c_plus=1.0, lam_minus=1.0, lam_plus=2.0, alpha=0.5)
EX3_NU2 = TemperedStableMeasure(c_minus=1.0, c_plus=1.0, lam_minus=1.0, lam_plus=1.0, alpha=0.5)

CP_U01 = lambda lam: CompoundPoissonMeasure(lam, UniformDensity(0.0, 1.0))
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestJumpDensities:
    def test_uniform_pdf_and_support(self):
        d = UniformDensity(-1.0, 3.0)
        y = np.array([-2.0, -1.0, 0.0, 3.0, 3.5])
        np.testing.assert_allclose(d.pdf(y), [0.0, 0.25, 0.25, 0.25, 0.0])
        assert d.support() == (-1.0, 3.0)

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

    def test_opposite_sides_fail(self):
        pos = CompoundPoissonMeasure(1.0, UniformDensity(0.5, 1.0))
        neg = CompoundPoissonMeasure(1.0, UniformDensity(-1.0, -0.5))
        assert not check_abs_continuity(pos, neg).ok


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


class TestValidateLevy:
    def test_zero(self):
        rep = validate_levy(ZeroMeasure())
        assert rep.ok and rep.value == 0.0

    def test_compound_poisson_value(self):
        rep = validate_levy(CP_U01(2.0))
        assert rep.ok
        assert abs(rep.value - 2.0 / 3.0) < TOL_CLOSED

    def test_tempered_stable_value(self):
        rep = validate_levy(TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, 0.5))
        inner = float(mpmath.gammainc(1.5, 0, 1))
        outer = float(mpmath.gammainc(-0.5, 1))
        expect = 2.0 * (inner + outer)
        assert rep.ok
        assert abs(rep.value - expect) < TOL_QUAD * expect

    def test_alpha_close_to_two_still_valid(self):
        rep = validate_levy(TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, 1.9))
        assert rep.ok and math.isfinite(rep.value)

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
        assert rep.ok and math.isfinite(rep.value)


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

    def test_breakpoints_subsampled(self):
        grid = tuple(np.logspace(-3, 1, 500))
        vals = tuple(g**-1.0 for g in grid)
        tab = TabulatedLevyMeasure(grid, vals)
        assert len(tab.breakpoints()) <= 33

    def test_infinite_mass_flag_from_inner_trend(self):
        grid = tuple(np.logspace(-6, 0, 100))
        vals = tuple(g**-1.5 for g in grid)
        tab = TabulatedLevyMeasure(grid, vals)
        assert tab.total_mass() == math.inf


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
    def test_tempered_stable_difference_cancellation(self):
        lam1, lam2 = 1.0, 1.0 + 1e-9
        nu1 = TemperedStableMeasure(1.0, 1.0, lam1, lam1, 0.5)
        nu2 = TemperedStableMeasure(1.0, 1.0, lam2, lam2, 0.5)
        diff = pair_difference_fn(nu1, nu2)
        y = 1e-6
        got = float(diff(np.array([y]))[0])
        with mpmath.workdps(50):
            my = mpmath.mpf(y)
            expect = float(
                mpmath.power(my, -1.5)
                * (mpmath.exp(-mpmath.mpf(lam1) * my) - mpmath.exp(-mpmath.mpf(lam2) * my))
            )
        assert abs(got - expect) < 1e-12 * abs(expect)

    def test_tempered_stable_sqrt_difference_cancellation(self):
        lam1, lam2 = 2.0, 2.0 + 1e-8
        nu1 = TemperedStableMeasure(1.0, 1.0, lam1, lam1, 0.5)
        nu2 = TemperedStableMeasure(1.0, 1.0, lam2, lam2, 0.5)
        sdiff = pair_sqrt_difference_fn(nu1, nu2)
        y = 1e-5
        got = float(sdiff(np.array([y]))[0])
        with mpmath.workdps(50):
            my = mpmath.mpf(y)
            expect = float(
                mpmath.sqrt(mpmath.power(my, -1.5))
                * (
                    mpmath.exp(-mpmath.mpf(lam1) * my / 2)
                    - mpmath.exp(-mpmath.mpf(lam2) * my / 2)
                )
            )
        assert abs(got - expect) < 1e-12 * abs(expect)

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
        ratio, diff = pair_log_ratio(nu1, nu2), pair_difference_fn(nu1, nu2)
        y = np.geomspace(1e-6, 30.0, 50)
        total = 0.0
        for sign, (c, lam1, lam2) in zip((-1.0, 1.0), ig_sides(nu1, nu2)):
            np.testing.assert_allclose(ratio(sign * y), -(lam1 - lam2) * y, rtol=1e-12, atol=1e-13)
            lo, hi = sorted((0.0, sign * math.inf))
            gap = integrate_fn(diff, lo, hi, singular_at_zero=True).value
            want = c * math.gamma(-0.5) * (math.sqrt(lam1) - math.sqrt(lam2))
            assert math.isclose(gap, want, rel_tol=1e-9)
            total += want
        assert math.isclose(pair_jump_law(nu1, nu2).mass_gap, total, rel_tol=1e-12)


class _OtherUniform(UniformDensity):
    """A uniform density by value, but a subclass, free to sample otherwise."""


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
        ],
        ids=["cp_bundled", "jd_bundled", "inner_support", "lambda1_below_lambda2"],
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
            (CompoundPoissonMeasure(2.0, _OtherUniform(0.0, 1.0)), CP_U01(1.0)),
            (CP_U01(2.0), CompoundPoissonMeasure(1.0, _OtherUniform(0.0, 1.0))),
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
        ],
        ids=[
            "exponential", "exponential_same_density", "normal", "wider_reference",
            "subclass_nu1", "subclass_nu2", "uniform_vs_exponential", "tempered_stable",
            "tabulated", "zero_nu1", "zero_nu2", "overflowing_sampler", "vanishing_density",
        ],
    )
    def test_other_pairs_have_no_constant(self, nu1, nu2):
        assert pair_jump_law(nu1, nu2).kind != "constant"
