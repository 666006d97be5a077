"""Tests for the closed-form distance bounds and the aggregated report."""

import dataclasses
import math
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from addgap import measures, processes
from addgap.bounds import (
    TRIVIAL_BOUND,
    BoundReport,
    bound_simple_sqrt,
    bound_thm1,
    bound_thm2,
    compute_report,
    gaussian_tv_exact,
)
from addgap._cephes import _erf, _erfc, normal_cdf
from addgap.config import parse_config
from addgap.errors import HypothesisFailed, NotGaussianCase, ZeroVolatility
from addgap.measures import (
    CompoundPoissonMeasure,
    TemperedStableMeasure,
    UniformDensity,
    ZeroMeasure,
)
from addgap.processes import (
    ConstantFunction,
    PiecewiseConstantFunction,
    ProblemSpec,
    ProcessSpec,
)

from _oracles import GAUSS_T4, PHI_M1, THM1_CP12_T1, TWO_SINH_02, clear_caches

TOL_PIN = 1e-12
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

ZERO_FN = ConstantFunction(0.0)
UNIT_FN = ConstantFunction(1.0)


def cp(lam):
    return CompoundPoissonMeasure(lam, UniformDensity(0.0, 1.0))


def gaussian_pair(gap, horizon, vol=UNIT_FN):
    return ProblemSpec(
        ProcessSpec(ConstantFunction(gap), vol, ZeroMeasure()),
        ProcessSpec(ZERO_FN, vol, ZeroMeasure()),
        horizon,
    )


def matched_cp_pair(lam1, lam2, horizon):
    """Zero-volatility compound Poisson pair with the drift gap equal to the
    compensated jump drift (means lam/2 for uniform(0,1) jumps)."""
    return ProblemSpec(
        ProcessSpec(ConstantFunction((lam1 - lam2) / 2.0), ZERO_FN, cp(lam1)),
        ProcessSpec(ZERO_FN, ZERO_FN, cp(lam2)),
        horizon,
    )


def jump_diffusion_pair(lam1, lam2, gap, horizon):
    return ProblemSpec(
        ProcessSpec(ConstantFunction(gap), UNIT_FN, cp(lam1)),
        ProcessSpec(ZERO_FN, UNIT_FN, cp(lam2)),
        horizon,
    )


class TestNormalCdf:
    def test_reference_value(self):
        assert abs(float(normal_cdf(-1.0)) - PHI_M1) < 1e-14

    def test_symmetry(self):
        for x in (0.3, 1.7, 4.2):
            assert abs(float(normal_cdf(x)) + float(normal_cdf(-x)) - 1.0) < 1e-15

    def test_deep_tail(self):
        with mpmath.workdps(40):
            ref = float(mpmath.ncdf(-8.5))
        got = float(normal_cdf(-8.5))
        assert abs(got - ref) < 1e-14
        assert abs(got - ref) < 1e-10 * ref


class TestCephesPort:
    """erf, erfc and ndtr are Cephes ports: every double maps to the bits
    scipy.special returns, which math.erf and math.erfc miss in the last
    bit at a fifth or more of all points."""

    PORTS = ((_erf, special.erf), (_erfc, special.erfc), (normal_cdf, special.ndtr))
    # The T/U, P/Q and R/S rational ranges meet at 1 and 8; erfc underflows
    # past sqrt(MAXLOG) = 26.64; ndtr(x) switches from erf to erfc where
    # |x| / sqrt 2 reaches 1 / sqrt 2, at |x| = 1.
    EDGES = (
        0.0, -0.0, 5e-324, -5e-324, math.sqrt(0.5), -math.sqrt(0.5), 1.0, -1.0, 8.0, -8.0,
        26.6, -26.6, 27.3, -27.3, 38.0, -38.0, math.inf, -math.inf, math.nan,
    )

    def assert_bit_identical(self, x):
        for port, reference in self.PORTS:
            got, want = port(x), float(reference(x))
            assert type(got) is float, port.__name__
            assert got.hex() == want.hex(), (port.__name__, x.hex(), got, want)

    @pytest.mark.parametrize("x", EDGES)
    def test_edge_points(self, x):
        self.assert_bit_identical(x)

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(st.floats())
    def test_every_double(self, x):
        self.assert_bit_identical(x)

    @settings(max_examples=2000, deadline=None, derandomize=True)
    @given(st.floats(-40.0, 40.0))
    def test_both_tails(self, x):
        self.assert_bit_identical(x)


class TestGaussianExact:
    def test_reference_value(self):
        spec = gaussian_pair(1.0, 4.0)
        assert abs(gaussian_tv_exact(spec) - GAUSS_T4) < TOL_PIN

    def test_equal_drifts_zero(self):
        spec = gaussian_pair(0.0, 4.0)
        assert gaussian_tv_exact(spec) == 0.0

    def test_huge_gap_saturates(self):
        spec = gaussian_pair(100.0, 4.0)
        assert abs(gaussian_tv_exact(spec) - 2.0) < TOL_PIN

    def test_monotone_in_gap(self):
        vals = [gaussian_tv_exact(gaussian_pair(g, 1.0)) for g in (0.1, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_jumps(self):
        spec = ProblemSpec(
            ProcessSpec(UNIT_FN, UNIT_FN, cp(1.0)),
            ProcessSpec(ZERO_FN, UNIT_FN, ZeroMeasure()),
            1.0,
        )
        with pytest.raises(NotGaussianCase):
            gaussian_tv_exact(spec)

    def test_rejects_zero_volatility(self):
        spec = gaussian_pair(1.0, 1.0, vol=ZERO_FN)
        with pytest.raises(ZeroVolatility):
            gaussian_tv_exact(spec)


class TestThm1:
    def test_identical_processes(self):
        spec = jump_diffusion_pair(1.2, 1.2, 0.0, 1.0)
        assert bound_thm1(spec) == 0.0

    def test_zero_vol_reference_value(self):
        spec = matched_cp_pair(1.2, 1.0, 1.0)
        assert abs(bound_thm1(spec) - THM1_CP12_T1) < TOL_PIN

    def test_zero_vol_formula_against_mpmath(self):
        lam1, lam2, horizon = 2.4, 0.9, 1.7
        spec = matched_cp_pair(lam1, lam2, horizon)
        with mpmath.workdps(40):
            h2 = (mpmath.sqrt(lam1) - mpmath.sqrt(lam2)) ** 2
            ref = float(mpmath.sqrt(8 * (1 - mpmath.exp(-horizon * h2 / 2))))
        assert abs(bound_thm1(spec) - ref) < 1e-9

    def test_raw_value_capped_at_sqrt8(self):
        spec = jump_diffusion_pair(50.0, 1.0, 30.0, 2.0)
        val = bound_thm1(spec)
        assert val <= math.sqrt(8.0) + TOL_PIN
        assert val > 2.0  # raw value exceeds the trivial bound here

    def test_small_ingredients_full_precision(self):
        # tiny H^2 and xi^2: expm1 path keeps relative accuracy
        spec = jump_diffusion_pair(1.0 + 1e-8, 1.0, 1e-8, 1.0)
        val = bound_thm1(spec)
        with mpmath.workdps(40):
            h2 = (mpmath.sqrt(1.0 + 1e-8) - 1.0) ** 2
            eta = mpmath.mpf(1e-8) / 2  # intensity gap concentrates half below 1
            xi_sq = (mpmath.mpf(1e-8) - eta) ** 2
            ref = float(mpmath.sqrt(8 * (1 - mpmath.exp(-xi_sq / 8 - h2 / 2))))
        assert val > 0.0
        assert abs(val - ref) < 1e-6 * ref

    def test_drift_mismatch_rejected(self):
        spec = ProblemSpec(
            ProcessSpec(ConstantFunction(0.5), ZERO_FN, cp(1.2)),
            ProcessSpec(ZERO_FN, ZERO_FN, cp(1.0)),
            1.0,
        )
        with pytest.raises(HypothesisFailed) as err:
            bound_thm1(spec)
        assert "drift mismatch" in err.value.reason

    def test_infinite_hellinger_rejected(self):
        nu1 = TemperedStableMeasure(2.0, 2.0, 1.0, 1.0, 1.5)
        nu2 = TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, 1.5)
        spec = ProblemSpec(
            ProcessSpec(ZERO_FN, UNIT_FN, nu1),
            ProcessSpec(ZERO_FN, UNIT_FN, nu2),
            1.0,
        )
        with pytest.raises(HypothesisFailed) as err:
            bound_thm1(spec)
        assert err.value.reason == "H^2 infinite"

    def test_not_abs_continuous_rejected(self):
        wide = CompoundPoissonMeasure(1.0, UniformDensity(0.0, 2.0))
        spec = ProblemSpec(
            ProcessSpec(ZERO_FN, UNIT_FN, wide),
            ProcessSpec(ZERO_FN, UNIT_FN, cp(1.0)),
            1.0,
        )
        with pytest.raises(HypothesisFailed) as err:
            bound_thm1(spec)
        assert err.value.reason == "not-abs-continuous"

    def test_sigma_mismatch_rejected(self):
        spec = ProblemSpec(
            ProcessSpec(ZERO_FN, UNIT_FN, cp(1.2)),
            ProcessSpec(ZERO_FN, ConstantFunction(2.0), cp(1.0)),
            1.0,
        )
        with pytest.raises(HypothesisFailed) as err:
            bound_thm1(spec)
        assert err.value.reason == "sigma mismatch"


class TestThm2:
    def test_identical_processes(self):
        spec = jump_diffusion_pair(1.2, 1.2, 0.0, 1.0)
        assert bound_thm2(spec) == 0.0

    def test_zero_vol_reference_value(self):
        spec = matched_cp_pair(1.2, 1.0, 1.0)
        assert abs(bound_thm2(spec) - TWO_SINH_02) < 1e-9

    def test_matches_gaussian_exact_for_equal_measures(self):
        for gap, horizon in ((1.0, 4.0), (0.3, 1.0), (2.0, 0.5)):
            with_jumps = ProblemSpec(
                ProcessSpec(ConstantFunction(gap), UNIT_FN, cp(1.7)),
                ProcessSpec(ZERO_FN, UNIT_FN, cp(1.7)),
                horizon,
            )
            pure = gaussian_pair(gap, horizon)
            assert abs(bound_thm2(with_jumps) - gaussian_tv_exact(pure)) < TOL_PIN

    def test_sinh_overflow_returns_inf(self):
        spec = matched_cp_pair(801.0, 1.0, 1.0)
        assert bound_thm2(spec) == math.inf

    def test_infinite_l1_rejected(self):
        nu1 = TemperedStableMeasure(1.0, 1.0, 1.0, 2.0, 1.5)
        nu2 = TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, 1.5)
        spec = ProblemSpec(
            ProcessSpec(ZERO_FN, UNIT_FN, nu1),
            ProcessSpec(ZERO_FN, UNIT_FN, nu2),
            1.0,
        )
        with pytest.raises(HypothesisFailed) as err:
            bound_thm2(spec)
        assert err.value.reason == "L1 infinite"


class TestSimpleSqrt:
    def test_reference_value(self):
        spec = matched_cp_pair(1.2, 1.0, 1.0)
        assert abs(bound_simple_sqrt(spec) - 2.0 * math.sqrt(0.2)) < 1e-9

    def test_horizon_scaling(self):
        t1 = bound_simple_sqrt(matched_cp_pair(1.2, 1.0, 1.0))
        t4 = bound_simple_sqrt(matched_cp_pair(1.2, 1.0, 4.0))
        assert abs(t4 - 2.0 * t1) < TOL_PIN

    def test_identical_measures(self):
        spec = matched_cp_pair(1.2, 1.2, 1.0)
        assert bound_simple_sqrt(spec) == 0.0

    def test_positive_vol_rejected(self):
        spec = jump_diffusion_pair(1.2, 1.0, 0.0, 1.0)
        with pytest.raises(HypothesisFailed):
            bound_simple_sqrt(spec)


class TestInvariants:
    def test_thm1_below_simple_sqrt_at_zero_vol(self):
        for lam1, lam2, horizon in ((1.2, 1.0, 1.0), (4.0, 1.0, 2.0), (2.5, 2.4, 1.0)):
            spec = matched_cp_pair(lam1, lam2, horizon)
            assert bound_thm1(spec) <= bound_simple_sqrt(spec) + 1e-10

    def test_monotone_in_horizon(self):
        horizons = [0.25 * k for k in range(1, 11)]
        for fn in (bound_thm1, bound_thm2, bound_simple_sqrt):
            vals = [fn(matched_cp_pair(1.2, 1.0, t)) for t in horizons]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        vals = [
            bound_thm1(jump_diffusion_pair(1.2, 1.0, 0.5, t)) for t in horizons
        ]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


class TestComputeReport:
    def test_identical_processes(self):
        rep = compute_report(jump_diffusion_pair(1.2, 1.2, 0.0, 1.0))
        assert rep.best == 0.0
        assert rep.thm1 == 0.0 and rep.thm2 == 0.0
        assert rep.l1_nu == 0.0 and rep.hellinger_sq_nu == 0.0

    def test_sigma_mismatch(self):
        spec = ProblemSpec(
            ProcessSpec(ZERO_FN, UNIT_FN, cp(1.2)),
            ProcessSpec(ZERO_FN, ConstantFunction(2.0), cp(1.0)),
            1.0,
        )
        rep = compute_report(spec)
        assert rep.sigma_mismatch
        assert rep.best == TRIVIAL_BOUND
        assert rep.thm1 is None and rep.thm2 is None
        assert rep.l1_nu is not None  # measure-level quantity still reported

    def test_heavy_tempered_stable_pair(self):
        nu1 = TemperedStableMeasure(1.0, 1.0, 1.0, 2.0, 1.5)
        nu2 = TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, 1.5)
        spec = ProblemSpec(
            ProcessSpec(ZERO_FN, UNIT_FN, nu1),
            ProcessSpec(ZERO_FN, UNIT_FN, nu2),
            1.0,
        )
        rep = compute_report(spec)
        assert rep.l1_nu == math.inf
        assert rep.thm2 is None and rep.reasons["thm2"] == "L1 infinite"
        assert rep.thm1 is not None and math.isfinite(rep.thm1)
        assert rep.gamma1 is None and rep.gamma2 is None
        assert rep.eta is not None and math.isfinite(rep.eta)
        assert rep.xi_sq is not None and math.isfinite(rep.xi_sq)
        assert rep.best == min(rep.thm1, TRIVIAL_BOUND)

    def test_zero_vol_drift_mismatch(self):
        spec = ProblemSpec(
            ProcessSpec(ConstantFunction(0.7), ZERO_FN, cp(1.2)),
            ProcessSpec(ZERO_FN, ZERO_FN, cp(1.0)),
            1.0,
        )
        rep = compute_report(spec)
        assert rep.drift_matched is False
        assert rep.best == TRIVIAL_BOUND
        assert rep.thm1 is None and rep.thm2 is None and rep.simple_sqrt is None

    def test_degenerate_volatility(self):
        vol = PiecewiseConstantFunction((0.5,), (1.0, 0.0))
        spec = ProblemSpec(
            ProcessSpec(ZERO_FN, vol, cp(1.2)),
            ProcessSpec(ZERO_FN, vol, cp(1.0)),
            1.0,
        )
        rep = compute_report(spec)
        assert rep.vol_class == "degenerate"
        assert rep.best == TRIVIAL_BOUND
        assert rep.thm1 is None

    def test_jump_diffusion_report(self):
        rep = compute_report(jump_diffusion_pair(1.2, 1.0, 0.5, 1.0))
        assert rep.thm1 is not None and rep.thm2 is not None
        assert rep.simple_sqrt is None
        assert rep.gaussian_exact is None
        assert 0.0 < rep.best <= TRIVIAL_BOUND
        assert rep.reasons["gaussian_exact"]

    def test_gaussian_report_populates_exact(self):
        rep = compute_report(gaussian_pair(1.0, 4.0))
        assert rep.gaussian_exact is not None
        assert abs(rep.gaussian_exact - GAUSS_T4) < TOL_PIN
        assert abs(rep.thm2 - rep.gaussian_exact) < TOL_PIN
        assert rep.best <= rep.gaussian_exact + TOL_PIN

    def test_best_in_range_everywhere(self):
        specs = [
            jump_diffusion_pair(1.2, 1.0, 0.5, 1.0),
            matched_cp_pair(4.0, 1.0, 2.0),
            gaussian_pair(1.0, 4.0),
            matched_cp_pair(801.0, 1.0, 1.0),
        ]
        for spec in specs:
            rep = compute_report(spec)
            assert 0.0 <= rep.best <= TRIVIAL_BOUND

    def test_report_is_serializable(self):
        rep = compute_report(jump_diffusion_pair(1.2, 1.0, 0.5, 1.0))
        data = dataclasses.asdict(rep)
        assert set(data["reasons"].keys()) >= {"simple_sqrt", "gaussian_exact"}
        assert isinstance(rep, BoundReport)


class TestSinglePass:
    """One compute_report computes each pair ingredient once."""

    @pytest.mark.parametrize(
        "name", ["compound_poisson", "jump_diffusion", "tempered_stable"]
    )
    def test_each_ingredient_computed_once(self, monkeypatch, name):
        # The functionals are caches: a second look-up of an ingredient
        # (each of L1 and H^2 checks absolute continuity) is a hit.
        clear_caches()
        reads = []
        constant_pieces = ConstantFunction.pieces

        def counted_pieces(self, a, b):
            reads.append(self)
            return constant_pieces(self, a, b)

        monkeypatch.setattr(ConstantFunction, "pieces", counted_pieces)
        spec = parse_config(CONFIG_DIR / f"{name}.json").problem
        compute_report(spec)
        vols = [spec.process1.vol_sq, spec.process2.vol_sq]
        misses = {
            key: getattr(measures, attr).cache_info().misses
            for key, attr in (
                ("ac", "check_abs_continuity"), ("l1", "l1_distance"), ("h2", "hellinger_sq")
            )
        }
        assert misses == {"ac": 1, "l1": 1, "h2": 1}
        # The variances' pieces are read once per spec, at construction;
        # the report reuses them.
        assert [sum(p is v for p in reads) for v in vols] == [1, 1]

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.7, 0.99])
    def test_tempered_stable_report_makes_no_quadrature_call(self, monkeypatch, alpha):
        # Every ingredient of a same-shape tempered-stable pair with 0 <
        # alpha < 1 at sigma = 0 is a closed form, from building the spec
        # (the Levy integrability) to the report.
        def no_quadrature(request):
            raise AssertionError("quadrature.integrate called")

        clear_caches()
        monkeypatch.setattr(measures, "integrate", no_quadrature)
        monkeypatch.setattr(processes, "integrate", no_quadrature)
        nu1 = TemperedStableMeasure(0.5, 2.0, 1.5, 3.0, alpha)
        nu2 = TemperedStableMeasure(0.5, 2.0, 1.0, 1.0, alpha)

        def pair(drift1):
            return ProblemSpec(
                ProcessSpec(drift1, ZERO_FN, nu1), ProcessSpec(ZERO_FN, ZERO_FN, nu2), 1.0
            )

        report = compute_report(pair(ConstantFunction(pair(ZERO_FN).eta())))
        assert report.drift_matched and report.best == report.thm1 < TRIVIAL_BOUND

    @pytest.mark.parametrize("name", ["compound_poisson", "jump_diffusion", "tempered_stable"])
    def test_bundled_config_makes_no_quadrature_call(self, monkeypatch, name):
        # Parsing (the Levy integrability) and the report take closed forms
        # for every ingredient of the bundled configs, and xi^2 is exact on
        # constant variances.
        def no_quadrature(request):
            raise AssertionError("quadrature.integrate called")

        clear_caches()
        monkeypatch.setattr(measures, "integrate", no_quadrature)
        monkeypatch.setattr(processes, "integrate", no_quadrature)
        compute_report(parse_config(CONFIG_DIR / f"{name}.json").problem)

    def test_bound_wrappers_raise_the_report_reason(self):
        spec = matched_cp_pair(1.2, 1.0, 0.5)
        spec = dataclasses.replace(
            spec,
            process1=dataclasses.replace(spec.process1, drift=ConstantFunction(5.0)),
        )
        reasons = compute_report(spec).reasons
        for key, fn in (
            ("thm1", bound_thm1), ("thm2", bound_thm2), ("simple_sqrt", bound_simple_sqrt)
        ):
            with pytest.raises(HypothesisFailed) as info:
                fn(spec)
            assert info.value.reason == reasons[key] == "drift mismatch at sigma = 0"
