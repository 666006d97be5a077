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
from scipy.special import gammainc

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
    support_edges,
    support_integral,
    validate_levy,
)
from addgap.config import parse_config
from addgap.processes import ConstantFunction, ProblemSpec, ProcessSpec
from addgap.simulate import RngStream, sample_jump_batch
from addgap.quadrature import integrate_fn, integrate_segments

from _oracles import (
    ETA_EX3,
    GAMMA_POS_LAM1,
    GAMMA_POS_LAM2,
    H2_EX3,
    H2_EX3_A15,
    L1_EX3,
    _side_edges,
    _unit_cut_edges,
    clear_caches,
    pair_support_edges,
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


def closed_form_pair(alpha, c, gap):
    (lam1, lam2), m = LAMBDA_GAPS[gap], mpmath.mpf(alpha)
    nu1, nu2 = (TemperedStableMeasure(c[0], c[1], lam[0], lam[1], alpha) for lam in (lam1, lam2))
    sides = [(mpmath.mpf(k), mpmath.mpf(a), mpmath.mpf(b)) for k, a, b in zip(c, lam1, lam2)]
    return nu1, nu2, m, sides


def assert_within_quadrature_error(integrand, edges, cached, closed):
    """The one quadrature of integrand on edges gives ``cached`` bit for bit
    and lies within its error estimate of the closed form."""
    res = integrate_segments(integrand, edges, singular_at_zero=True)
    assert res.value.hex() == cached.hex()
    assert abs(res.value - float(closed)) <= res.error_estimate


@pytest.mark.parametrize("c", [(1.0, 1.0), (0.5, 2.0)], ids=["equal_c", "unequal_c"])
@pytest.mark.parametrize("gap", sorted(LAMBDA_GAPS))
class TestClosedForms:
    """Per side, int |nu1 - nu2| = C |Gamma(-alpha)(lambda1^alpha -
    lambda2^alpha)| for alpha < 1, H^2 = C Gamma(-alpha)(lambda1^alpha +
    lambda2^alpha - 2((lambda1 + lambda2)/2)^alpha), and int_0^1 y nu(dy) =
    C lambda^(alpha - 1) Gamma(1 - alpha) P(1 - alpha, lambda)."""

    @pytest.mark.parametrize("alpha", CLOSED_ALPHAS)
    def test_l1(self, alpha, c, gap):
        nu1, nu2, m, sides = closed_form_pair(alpha, c, gap)
        closed = sum(k * abs(mpmath.gamma(-m) * (a**m - b**m)) for k, a, b in sides)
        diff = pair_difference_fn(nu1, nu2)
        assert_within_quadrature_error(
            lambda y: np.abs(diff(y)), support_edges((nu1, nu2)), l1_distance(nu1, nu2), closed
        )

    @pytest.mark.parametrize("alpha", CLOSED_ALPHAS + (1.5,))
    def test_hellinger(self, alpha, c, gap):
        nu1, nu2, m, sides = closed_form_pair(alpha, c, gap)
        closed = sum(
            k * mpmath.gamma(-m) * (a**m + b**m - 2 * ((a + b) / 2) ** m) for k, a, b in sides
        )
        sdiff = pair_sqrt_difference_fn(nu1, nu2)
        assert_within_quadrature_error(
            lambda y: sdiff(y) ** 2, support_edges((nu1, nu2)), hellinger_sq(nu1, nu2), closed
        )

    @pytest.mark.parametrize("alpha", CLOSED_ALPHAS)
    def test_gamma(self, alpha, c, gap):
        # Within the quadrature's error estimate, not 1e-8 relative: the
        # sides cancel, and at alpha 0.9, C+- 1, lambda+- (1, 4) each is
        # about 9 in size while gamma is -1.006, 2e-8 relative off.
        nu1, _, _, _ = closed_form_pair(alpha, c, gap)
        closed = math.gamma(1.0 - alpha) * sum(
            sign * k * lam ** (alpha - 1.0) * gammainc(1.0 - alpha, lam)
            for sign, k, lam in zip((-1.0, 1.0), c, LAMBDA_GAPS[gap][0])
        )
        assert_within_quadrature_error(
            lambda y: y * nu1.density(y), support_edges((nu1,), -1.0, 1.0), gamma_nu(nu1), closed
        )


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

    def test_finite_mass_past_the_divergence_cap_is_valid(self):
        # int min(y^2, 1) nu(dy) = 1e9 / 3 reads as divergent to the
        # quadrature; nu(R) = 1e9 bounds it.
        rep = validate_levy(CP_U01(1e9))
        assert rep.ok and rep.value == 1e9

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


def _knots(lo, hi):
    """Sorted, distinct knots in [lo, hi]: 2 to 40 of them, so that a long
    tabulation's breakpoints are subsampled."""
    return st.lists(st.floats(lo, hi), min_size=2, max_size=40, unique=True).map(sorted)


@st.composite
def tabulated_densities(draw):
    grid = draw(_knots(-5.0, 5.0))
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
    pin_measures(), and the three pair hooks per pair of pin_pairs()."""
    functions = {}
    for name, nu in pin_measures().items():
        functions[f"density/{name}"] = nu.density
        functions[f"log_density/{name}"] = nu.log_density
    for name, (nu1, nu2) in pin_pairs().items():
        functions[f"difference/{name}"] = pair_difference_fn(nu1, nu2)
        functions[f"sqrt_difference/{name}"] = pair_sqrt_difference_fn(nu1, nu2)
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
        "0x0.0p+0", "-0x0.0p+0", "0x1.0000000000000p-535",
        "-0x1.0000000000000p-537", "0x1.05df0a267bcc9p-496", "-0x1.a2fe76a3f9475p-499",
        "0x1.d4b18431e8124p-256", "-0x1.76f469c186750p-258", "0x1.3a7ddd869611bp+0",
        "-0x1.3872e5707cc0dp-2", "0x1.a375cbb47347ep-2", "-0x1.45ba01c931922p-3",
        "0x1.f78890d337ed2p-111", "-0x1.07cdb1c290c9ap-76", "0x0.0p+0",
        "-0x0.0p+0",
    ),
    "difference/ts_both_sides_0.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "-0x0.0p+0", "inf",
        "-inf", "inf", "-inf",
        "0x1.b4f59ba60c7a0p+259", "-0x1.5d914951a394dp+257", "0x1.06138df027b97p+2",
        "-0x1.045fbf3312a0bp+0", "0x1.a375cbb47347ep-2", "-0x1.45ba01c931922p-3",
        "0x1.4242ec0c4cc0cp-116", "-0x1.51ab20f90b3f9p-82", "0x0.0p+0",
        "-0x0.0p+0",
    ),
    "difference/ts_both_sides_0.7": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "-0x0.0p+0", "inf",
        "-inf", "inf", "-inf",
        "0x1.aee00fca9cae0p+362", "-0x1.58b33fd54a24dp+360", "0x1.4d6de06db4c8fp+2",
        "-0x1.4b436a91fae63p+0", "0x1.a375cbb47347ep-2", "-0x1.45ba01c931922p-3",
        "0x1.26be590145649p-117", "-0x1.34d5c24e70761p-83", "0x0.0p+0",
        "-0x0.0p+0",
    ),
    "difference/ts_both_sides_1.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "-0x0.0p+0", "inf",
        "-inf", "inf", "-inf",
        "inf", "-inf", "0x1.b4cb41e5978a6p+3",
        "-0x1.b1f4e9551f0bdp+1", "0x1.a375cbb47347ep-2", "-0x1.45ba01c931922p-3",
        "0x1.9c7e9ec81052ep-122", "-0x1.b0373471f9eafp-88", "0x0.0p+0",
        "-0x0.0p+0",
    ),
    "difference/ts_both_sides_swapped_-0.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "-0x0.0p+0", "0x0.0p+0", "-0x1.0000000000000p-535",
        "0x1.0000000000000p-537", "-0x1.05df0a267bcc9p-496", "0x1.a2fe76a3f9475p-499",
        "-0x1.d4b18431e8124p-256", "0x1.76f469c186750p-258", "-0x1.3a7ddd869611cp+0",
        "0x1.3872e5707cc0dp-2", "-0x1.a375cbb47347ep-2", "0x1.45ba01c931922p-3",
        "-0x1.f78890d337ed1p-111", "0x1.07cdb1c290c9bp-76", "-0x0.0p+0",
        "0x0.0p+0",
    ),
    "difference/ts_both_sides_swapped_0.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "-0x0.0p+0", "0x0.0p+0", "-inf",
        "inf", "-inf", "inf",
        "-0x1.b4f59ba60c7a0p+259", "0x1.5d914951a394dp+257", "-0x1.06138df027b98p+2",
        "0x1.045fbf3312a0bp+0", "-0x1.a375cbb47347ep-2", "0x1.45ba01c931922p-3",
        "-0x1.4242ec0c4cc0bp-116", "0x1.51ab20f90b3f9p-82", "-0x0.0p+0",
        "0x0.0p+0",
    ),
    "difference/ts_both_sides_swapped_0.7": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "-0x0.0p+0", "0x0.0p+0", "-inf",
        "inf", "-inf", "inf",
        "-0x1.aee00fca9cae0p+362", "0x1.58b33fd54a24dp+360", "-0x1.4d6de06db4c91p+2",
        "0x1.4b436a91fae63p+0", "-0x1.a375cbb47347ep-2", "0x1.45ba01c931922p-3",
        "-0x1.26be590145649p-117", "0x1.34d5c24e70762p-83", "-0x0.0p+0",
        "0x0.0p+0",
    ),
    "difference/ts_both_sides_swapped_1.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "-0x0.0p+0", "0x0.0p+0", "-inf",
        "inf", "-inf", "inf",
        "-inf", "inf", "-0x1.b4cb41e5978a8p+3",
        "0x1.b1f4e9551f0bdp+1", "-0x1.a375cbb47347ep-2", "0x1.45ba01c931922p-3",
        "-0x1.9c7e9ec81052dp-122", "0x1.b0373471f9eb0p-88", "-0x0.0p+0",
        "0x0.0p+0",
    ),
    "difference/ts_plus_side": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "-0x0.0p+0", "nan", "-inf",
        "nan", "-inf", "nan",
        "-0x1.5d914951a394dp+257", "0x0.0p+0", "-0x1.2b23ca3c9df05p+0",
        "0x0.0p+0", "-0x1.dc401c89a5ca4p-3", "0x0.0p+0",
        "-0x1.51ab20f90b3f9p-81", "0x0.0p+0", "-0x0.0p+0",
        "0x0.0p+0",
    ),
    "difference/ts_plus_side_swapped": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "nan", "inf",
        "nan", "inf", "nan",
        "0x1.5d914951a394dp+257", "0x0.0p+0", "0x1.2b23ca3c9df05p+0",
        "0x0.0p+0", "0x1.dc401c89a5ca5p-3", "0x0.0p+0",
        "0x1.51ab20f90b3f8p-81", "0x0.0p+0", "0x0.0p+0",
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
    "sqrt_difference/cp_intensity": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x1.74021e02acb94p-2",
        "0x1.74021e02acb94p-2", "0x1.74021e02acb94p-2", "0x1.74021e02acb94p-2",
        "0x1.74021e02acb94p-2", "0x1.74021e02acb94p-2", "0x1.74021e02acb94p-2",
        "0x1.74021e02acb94p-2", "0x1.74021e02acb94p-2", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "sqrt_difference/tabulated_cp": (
        "0x0.0p+0", "0x0.0p+0", "nan",
        "0x0.0p+0", "0x0.0p+0", "-0x1.78b4dfd3e9992p-2",
        "-0x1.78b4dfd3e9992p-2", "-0x1.78b4dfd3e9992p-2", "-0x1.78b4dfd3e9992p-2",
        "0x1.869fa1d2c80b1p+16", "-0x1.78b4dfd3e9992p-2", "0x1.0a9e29887107ep+0",
        "0x1.5a94c3fa4707cp-1", "0x1.1d0388d059576p-2", "0x1.87a28ea1f23d1p-2",
        "-0x1.90362ab75aa4bp-223", "0x1.030dc4ea03a73p-5", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "sqrt_difference/ts_alpha": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "nan",
        "nan", "nan", "nan",
        "-0x1.1ed32d24a7d50p+438", "-0x1.1ed32d24a7d50p+437", "-0x1.6cfd5ed61d148p-2",
        "-0x1.2373417895de0p-3", "0x0.0p+0", "0x0.0p+0",
        "0x1.73f735344c948p-60", "0x1.5acce43f3c606p-115", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "sqrt_difference/ts_both_sides_-0.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "-0x0.0p+0", "0x1.0000000000000p-805",
        "-0x1.0000000000000p-806", "0x1.4f05516b6bbc7p-747", "-0x1.0c044122bc96cp-748",
        "0x1.9117631a4fe32p-386", "-0x1.40df827b731c2p-387", "0x1.e89bd0a95d567p-2",
        "-0x1.b482bffb3753ep-3", "0x1.e812cb2ff0802p-2", "-0x1.159c92d378600p-2",
        "0x1.fbbfc3e9e9803p-56", "-0x1.03df5966a4720p-38", "0x0.0p+0",
        "-0x0.0p+0",
    ),
    "sqrt_difference/ts_both_sides_0.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "-0x0.0p+0", "inf",
        "-inf", "inf", "-inf",
        "0x1.11d8419cca61fp-128", "-0x1.b626cf6143cfep-130", "0x1.be0960e56d8c6p-1",
        "-0x1.8e7a5c042401ap-2", "0x1.e812cb2ff0802p-2", "-0x1.159c92d378600p-2",
        "0x1.1f39ebe7a600bp-58", "-0x1.26031a87949a3p-41", "0x0.0p+0",
        "-0x0.0p+0",
    ),
    "sqrt_difference/ts_both_sides_0.7": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "-0x0.0p+0", "inf",
        "-inf", "inf", "-inf",
        "0x1.8091bf6aa8bb2p-77", "-0x1.33a7cc5553c8fp-78", "0x1.f71acfefc1f3bp-1",
        "-0x1.c1760fda1a7cap-2", "0x1.e812cb2ff0802p-2", "-0x1.159c92d378600p-2",
        "0x1.84783d3525b74p-59", "-0x1.8da5c138d22a2p-42", "0x0.0p+0",
        "-0x0.0p+0",
    ),
    "sqrt_difference/ts_both_sides_1.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "-0x0.0p+0", "inf",
        "-inf", "inf", "-inf",
        "inf", "-inf", "0x1.972c8337cdc81p+0",
        "-0x1.6bc24aa6ae1b4p-1", "0x1.e812cb2ff0802p-2", "-0x1.159c92d378600p-2",
        "0x1.44f59c1ad2e16p-61", "-0x1.4ca301cb0fee1p-44", "0x0.0p+0",
        "-0x0.0p+0",
    ),
    "sqrt_difference/ts_both_sides_swapped_-0.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "-0x0.0p+0", "0x0.0p+0", "-0x1.0000000000000p-805",
        "0x1.0000000000000p-806", "-0x1.4f05516b6bbc7p-747", "0x1.0c044122bc96cp-748",
        "-0x1.9117631a4fe32p-386", "0x1.40df827b731c2p-387", "-0x1.e89bd0a95d568p-2",
        "0x1.b482bffb3753ep-3", "-0x1.e812cb2ff0800p-2", "0x1.159c92d378600p-2",
        "-0x1.fbbfc3e9e9803p-56", "0x1.03df5966a4720p-38", "-0x0.0p+0",
        "0x0.0p+0",
    ),
    "sqrt_difference/ts_both_sides_swapped_0.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "-0x0.0p+0", "0x0.0p+0", "-inf",
        "inf", "-inf", "inf",
        "-0x1.11d8419cca61fp-128", "0x1.b626cf6143cfep-130", "-0x1.be0960e56d8c8p-1",
        "0x1.8e7a5c042401bp-2", "-0x1.e812cb2ff0800p-2", "0x1.159c92d378600p-2",
        "-0x1.1f39ebe7a600cp-58", "0x1.26031a87949a3p-41", "-0x0.0p+0",
        "0x0.0p+0",
    ),
    "sqrt_difference/ts_both_sides_swapped_0.7": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "-0x0.0p+0", "0x0.0p+0", "-inf",
        "inf", "-inf", "inf",
        "-0x1.8091bf6aa8bb2p-77", "0x1.33a7cc5553c8fp-78", "-0x1.f71acfefc1f3cp-1",
        "0x1.c1760fda1a7cap-2", "-0x1.e812cb2ff0800p-2", "0x1.159c92d378600p-2",
        "-0x1.84783d3525b75p-59", "0x1.8da5c138d22a1p-42", "-0x0.0p+0",
        "0x0.0p+0",
    ),
    "sqrt_difference/ts_both_sides_swapped_1.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "-0x0.0p+0", "0x0.0p+0", "-inf",
        "inf", "-inf", "inf",
        "-inf", "inf", "-0x1.972c8337cdc82p+0",
        "0x1.6bc24aa6ae1b3p-1", "-0x1.e812cb2ff0800p-2", "0x1.159c92d378600p-2",
        "-0x1.44f59c1ad2e16p-61", "0x1.4ca301cb0fee0p-44", "-0x0.0p+0",
        "0x0.0p+0",
    ),
    "sqrt_difference/ts_plus_side": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "-0x0.0p+0", "nan", "nan",
        "nan", "-inf", "nan",
        "-0x1.35d1e97aceb41p-130", "0x0.0p+0", "-0x1.2edc0329cbb5fp-2",
        "0x0.0p+0", "-0x1.e8c1f856479b8p-3", "0x0.0p+0",
        "-0x1.9fcbc23dbb1c6p-41", "0x0.0p+0", "-0x0.0p+0",
        "0x0.0p+0",
    ),
    "sqrt_difference/ts_plus_side_swapped": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "nan", "nan",
        "nan", "inf", "nan",
        "0x1.35d1e97aceb41p-130", "0x0.0p+0", "0x1.2edc0329cbb60p-2",
        "0x0.0p+0", "0x1.e8c1f856479b9p-3", "0x0.0p+0",
        "0x1.9fcbc23dbb1c6p-41", "0x0.0p+0", "0x0.0p+0",
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
    "difference/ts_both_sides_-0.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "-0x0.0p+0", "0x1.0000000000000p-535",
        "-0x1.0000000000000p-537", "0x1.05df0a267bcc9p-496", "-0x1.a2fe76a3f9475p-499",
        "0x1.d4b18431e8125p-256", "-0x1.76f469c186751p-258", "0x1.3a7ddd869611bp+0",
        "-0x1.3872e5707cc0dp-2", "0x1.a375cbb47347ep-2", "-0x1.45ba01c931922p-3",
        "0x1.f78890d337ed2p-111", "-0x1.07cdb1c290c9ap-76", "0x0.0p+0",
        "-0x0.0p+0",
    ),
    "difference/ts_both_sides_swapped_-0.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "-0x0.0p+0", "0x0.0p+0", "-0x1.0000000000000p-535",
        "0x1.0000000000000p-537", "-0x1.05df0a267bcc9p-496", "0x1.a2fe76a3f9475p-499",
        "-0x1.d4b18431e8125p-256", "0x1.76f469c186751p-258", "-0x1.3a7ddd869611cp+0",
        "0x1.3872e5707cc0dp-2", "-0x1.a375cbb47347ep-2", "0x1.45ba01c931922p-3",
        "-0x1.f78890d337ed1p-111", "0x1.07cdb1c290c9bp-76", "-0x0.0p+0",
        "0x0.0p+0",
    ),
    "sqrt_difference/ts_both_sides_-0.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "-0x0.0p+0", "0x1.0000000000000p-805",
        "-0x1.0000000000000p-806", "0x1.4f05516b6bbc7p-747", "-0x1.0c044122bc96cp-748",
        "0x1.9117631a4fe33p-386", "-0x1.40df827b731c3p-387", "0x1.e89bd0a95d567p-2",
        "-0x1.b482bffb3753ep-3", "0x1.e812cb2ff0802p-2", "-0x1.159c92d378600p-2",
        "0x1.fbbfc3e9e9803p-56", "-0x1.03df5966a4720p-38", "0x0.0p+0",
        "-0x0.0p+0",
    ),
    "sqrt_difference/ts_both_sides_swapped_-0.5": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "-0x0.0p+0", "0x0.0p+0", "-0x1.0000000000000p-805",
        "0x1.0000000000000p-806", "-0x1.4f05516b6bbc7p-747", "0x1.0c044122bc96cp-748",
        "-0x1.9117631a4fe33p-386", "0x1.40df827b731c3p-387", "-0x1.e89bd0a95d568p-2",
        "0x1.b482bffb3753ep-3", "-0x1.e812cb2ff0800p-2", "0x1.159c92d378600p-2",
        "-0x1.fbbfc3e9e9803p-56", "0x1.03df5966a4720p-38", "-0x0.0p+0",
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
