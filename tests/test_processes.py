"""Tests for time functions, process pairing, and the characteristic function."""

import dataclasses
import math
import random
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from addgap import processes
from addgap.bounds import compute_report, continuous_part
from addgap.errors import DivergentIntegral, ZeroVolatility
from addgap.measures import (
    CompoundPoissonMeasure,
    TabulatedLevyMeasure,
    TemperedStableMeasure,
    UniformDensity,
    ZeroMeasure,
)
from addgap.processes import (
    MAX_COEFFS,
    ConstantFunction,
    PiecewiseConstantFunction,
    PolynomialFunction,
    ProblemSpec,
    ProcessSpec,
    TimeFunction,
    char_function,
)
from addgap.quadrature import integrate

from _oracles import ETA_EX3, piecewise_constant_integral, polynomial_xi_sq

TOL_EXACT = 1e-12
TOL_QUAD = 1e-8

ZERO_FN = ConstantFunction(0.0)
UNIT_FN = ConstantFunction(1.0)

EX3_NU1 = TemperedStableMeasure(1.0, 1.0, 1.0, 2.0, 0.5)
EX3_NU2 = TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, 0.5)


def make_problem(nu1, nu2, vol=UNIT_FN, drift1=ZERO_FN, drift2=ZERO_FN, horizon=1.0):
    return ProblemSpec(
        ProcessSpec(drift1, vol, nu1),
        ProcessSpec(drift2, vol, nu2),
        horizon,
    )


class TestTimeFunctions:
    def test_constant(self):
        f = ConstantFunction(2.5)
        np.testing.assert_allclose(f.value(np.array([0.0, 1.0])), [2.5, 2.5])
        assert f.integral(1.0, 3.0) == 5.0

    def test_polynomial_value_and_integral(self):
        f = PolynomialFunction((1.0, 2.0, 3.0))
        assert abs(float(f.value(2.0)) - (1 + 4 + 12)) < TOL_EXACT
        # antiderivative t + t^2 + t^3 evaluated on [0, 2]
        assert abs(f.integral(0.0, 2.0) - 14.0) < TOL_EXACT

    def test_polynomial_rejects_empty(self):
        with pytest.raises(ValueError):
            PolynomialFunction(())

    def test_piecewise_values_right_continuous(self):
        f = PiecewiseConstantFunction((1.0, 2.0), (10.0, 20.0, 30.0))
        t = np.array([0.0, 0.999, 1.0, 1.5, 2.0, 5.0])
        np.testing.assert_allclose(f.value(t), [10, 10, 20, 20, 30, 30])

    def test_piecewise_integral_exact(self):
        f = PiecewiseConstantFunction((1.0, 2.0), (10.0, 20.0, 30.0))
        assert abs(f.integral(0.5, 2.5) - (0.5 * 10 + 1.0 * 20 + 0.5 * 30)) < TOL_EXACT
        assert abs(f.integral(1.2, 1.8) - 0.6 * 20) < TOL_EXACT

    def test_piecewise_validation(self):
        with pytest.raises(ValueError):
            PiecewiseConstantFunction((2.0, 1.0), (1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            PiecewiseConstantFunction((1.0,), (1.0,))

    def test_pieces_on_any_window(self):
        assert ConstantFunction(1.0).pieces(-2.0, -1.0) == ((-2.0, -1.0, (1.0,)),)
        f = PiecewiseConstantFunction((-1.0, 1.0, 2.0, 4.0), (5.0, 10.0, 20.0, 30.0, 40.0))
        assert f.pieces(-3.0, 0.5) == ((-3.0, -1.0, (5.0,)), (-1.0, 0.5, (10.0,)))
        assert f.pieces(4.0, 6.0) == ((4.0, 6.0, (40.0,)),)
        assert f.pieces(1.5, 1.5) == ((1.5, 1.5, (20.0,)),)

    def test_pieces(self):
        assert ConstantFunction(2.5).pieces(0.0, 3.0) == ((0.0, 3.0, (2.5,)),)
        assert PolynomialFunction((1.0, 2.0)).pieces(0.0, 3.0) == ((0.0, 3.0, (1.0, 2.0)),)
        f = PiecewiseConstantFunction((-1.0, 1.0, 2.0, 4.0), (5.0, 10.0, 20.0, 30.0, 40.0))
        assert f.pieces(0.0, 3.0) == (
            (0.0, 1.0, (10.0,)), (1.0, 2.0, (20.0,)), (2.0, 3.0, (30.0,))
        )
        assert f.pieces(0.0, 1.0) == ((0.0, 1.0, (10.0,)),)

    def test_polynomial_coefficient_cap(self):
        # Its extrema take the eigenvalues of a companion matrix, cubic in
        # the degree.
        assert PolynomialFunction((1.0,) * MAX_COEFFS).pieces(0.0, 1.0)[0][2] == (1.0,) * MAX_COEFFS
        with pytest.raises(ValueError, match="at most 64 coefficients"):
            PolynomialFunction((1.0,) * (MAX_COEFFS + 1))

    def test_piecewise_integral_matches_the_cell_loop(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 10, 200):
            breaks = tuple(np.unique(rng.normal(0.0, 2.0, n)).tolist())
            fn = PiecewiseConstantFunction(breaks, tuple(rng.normal(0.0, 3.0, len(breaks) + 1)))
            ends = [-10.0, breaks[0], breaks[-1], 0.0, *rng.uniform(-5.0, 5.0, 6).tolist()]
            for a in ends:
                for b in ends:
                    if a <= b:
                        got, want = fn.integral(a, b), piecewise_constant_integral(fn, a, b)
                        assert type(got) is float and got.hex() == want.hex()
        # The sum starts from +0.0, so an empty cell of value -2 adds -0.0
        # to it and gives +0.0.
        fn = PiecewiseConstantFunction((1.0,), (-2.0, 3.0))
        assert fn.integral(0.5, 0.5).hex() == piecewise_constant_integral(fn, 0.5, 0.5).hex()
        assert fn.integral(0.5, 0.5).hex() == "0x0.0p+0"
        with pytest.raises(ValueError):
            fn.integral(1.0, 0.0)

    def test_piecewise_integral_is_linear_in_the_breaks(self):
        # A loop that searches the whole break array per cell took 10 s at
        # 16000 breaks.
        n = 100_000
        fn = PiecewiseConstantFunction(tuple(np.arange(1, n + 1) / (n + 1)), (1.0,) * (n + 1))
        start = time.perf_counter()
        assert fn.integral(0.0, 1.0) == pytest.approx(1.0, rel=1e-12)
        assert len(fn.pieces(0.0, 1.0)) == n + 1
        assert time.perf_counter() - start < 2.0


class TestSpecValidation:
    def test_rejects_invalid_levy(self):
        grid = tuple(np.logspace(-6, 1, 100))
        vals = tuple(g**-3.2 for g in grid)
        bad = TabulatedLevyMeasure(grid, vals)
        with pytest.raises(ValueError):
            ProcessSpec(ZERO_FN, UNIT_FN, bad)

    def test_rejects_negative_volatility(self):
        down = PolynomialFunction((0.5, -1.0))
        with pytest.raises(ValueError):
            ProblemSpec(
                ProcessSpec(ZERO_FN, down, ZeroMeasure()),
                ProcessSpec(ZERO_FN, UNIT_FN, ZeroMeasure()),
                1.0,
            )

    def test_rejects_variance_negative_between_grid_points(self):
        # (t - a)^2 - 1e-9 dips below 0 only within 3.2e-5 of a, between two
        # points of a 2049-point grid of [0, 1].
        a = 0.5 + math.pi * 1e-4
        dip = PolynomialFunction((a * a - 1e-9, -2.0 * a, 1.0))
        with pytest.raises(ValueError, match="process 2 volatility is negative"):
            ProblemSpec(
                ProcessSpec(ZERO_FN, UNIT_FN, ZeroMeasure()),
                ProcessSpec(ZERO_FN, dip, ZeroMeasure()),
                1.0,
            )

    def test_rejects_non_finite_variance(self):
        huge = PolynomialFunction((0.0, 0.0, 1e300))
        with pytest.raises(ValueError, match="process 1 volatility is not finite"):
            make_problem(ZeroMeasure(), ZeroMeasure(), vol=huge, horizon=1e10)

    def test_value_and_integral_follow_pieces(self):
        # A subclass that overrides pieces alone is the function its pieces
        # say: its values, its integral and every verdict read them.
        class Shifted(ConstantFunction):
            def pieces(self, a, b):
                return ((a, b, (self.c + 1.0,)),)

        shifted = Shifted(-2.0)
        assert shifted.value(np.array([-1.0, 0.5])).tolist() == [-1.0, -1.0]
        assert shifted.integral(0.0, 3.0) == -3.0
        p = ProcessSpec(ZERO_FN, UNIT_FN, ZeroMeasure())
        with pytest.raises(ValueError, match="process 2 volatility is negative"):
            ProblemSpec(p, dataclasses.replace(p, vol_sq=shifted), 1.0)
        spec = ProblemSpec(p, dataclasses.replace(p, drift=shifted), 1.0)
        assert spec._drift_gap[0] == 1.0 and spec.xi_sq() == pytest.approx(1.0, rel=1e-14)

    def test_rejects_bad_horizon(self):
        p = ProcessSpec(ZERO_FN, UNIT_FN, ZeroMeasure())
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                ProblemSpec(p, p, bad)


class TestVolatilityClasses:
    def test_positive_shared(self):
        spec = make_problem(EX3_NU1, EX3_NU2)
        assert spec.vol_class() == "positive"
        assert not spec.sigma_mismatch()

    def test_zero_shared(self):
        spec = make_problem(EX3_NU1, EX3_NU2, vol=ZERO_FN)
        assert spec.vol_class() == "zero"
        assert not spec.sigma_mismatch()

    def test_mismatch_detected(self):
        spec = ProblemSpec(
            ProcessSpec(ZERO_FN, UNIT_FN, EX3_NU1),
            ProcessSpec(ZERO_FN, ConstantFunction(2.0), EX3_NU2),
            1.0,
        )
        assert spec.sigma_mismatch()

    def test_time_varying_equal_not_mismatch(self):
        vol = PolynomialFunction((0.5, 0.25))
        spec = make_problem(EX3_NU1, EX3_NU2, vol=vol)
        assert not spec.sigma_mismatch()
        assert spec.vol_class() == "positive"

    def test_partially_vanishing_is_degenerate(self):
        vol = PiecewiseConstantFunction((0.5,), (1.0, 0.0))
        spec = make_problem(EX3_NU1, EX3_NU2, vol=vol)
        assert spec.vol_class() == "degenerate"


class TestEta:
    def test_tempered_stable_pair(self):
        spec = make_problem(EX3_NU1, EX3_NU2)
        assert abs(spec.eta() - ETA_EX3) < 1e-9 * abs(ETA_EX3)

    def test_identical_measures_zero(self):
        spec = make_problem(EX3_NU1, EX3_NU1)
        assert spec.eta() == 0.0

    def test_zero_measures(self):
        spec = make_problem(ZeroMeasure(), ZeroMeasure())
        assert spec.eta() == 0.0

    def test_compound_poisson_closed_form(self):
        cp1 = CompoundPoissonMeasure(3.0, UniformDensity(0.0, 1.0))
        cp2 = CompoundPoissonMeasure(1.0, UniformDensity(0.0, 1.0))
        spec = make_problem(cp1, cp2)
        assert abs(spec.eta() - (1.5 - 0.5)) < 1e-9

    def test_converges_jointly_when_sides_diverge(self):
        # alpha = 1.5: each measure's small-jump first moment diverges, but
        # the shared-shape gap is integrable and matches a high-precision
        # reference for int_0^1 y^{-1.5} (e^{-2y} - e^{-y}) dy.
        nu1 = TemperedStableMeasure(1.0, 1.0, 1.0, 2.0, 1.5)
        nu2 = TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, 1.5)
        spec = make_problem(nu1, nu2)
        with mpmath.workdps(40):
            ref = float(
                mpmath.quad(
                    lambda y: mpmath.power(y, -1.5)
                    * (mpmath.exp(-2 * y) - mpmath.exp(-y)),
                    [0, 1],
                )
            )
        assert abs(spec.eta() - ref) < 1e-8 * abs(ref)

    def test_divergent_for_unshared_amplitude(self):
        nu1 = TemperedStableMeasure(1.0, 2.0, 1.0, 1.0, 1.5)
        nu2 = TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, 1.5)
        spec = make_problem(nu1, nu2)
        with pytest.raises(DivergentIntegral):
            spec.eta()


class TestXiSq:
    def test_constant_reduces_to_eta_sq(self):
        spec = make_problem(EX3_NU1, EX3_NU2)
        eta = spec.eta()
        assert abs(spec.xi_sq() - eta * eta) < 1e-10

    def test_piecewise_vol_hand_value(self):
        vol = PiecewiseConstantFunction((0.5,), (1.0, 4.0))
        spec = ProblemSpec(
            ProcessSpec(UNIT_FN, vol, ZeroMeasure()),
            ProcessSpec(ZERO_FN, vol, ZeroMeasure()),
            1.0,
        )
        assert abs(spec.xi_sq() - (0.5 / 1.0 + 0.5 / 4.0)) < 1e-10

    def test_polynomial_drift_gap(self):
        # f1 - f2 = t on [0, 2] with unit variance: integral of t^2 is 8/3
        spec = ProblemSpec(
            ProcessSpec(PolynomialFunction((0.0, 1.0)), UNIT_FN, ZeroMeasure()),
            ProcessSpec(ZERO_FN, UNIT_FN, ZeroMeasure()),
            2.0,
        )
        assert abs(spec.xi_sq() - 8.0 / 3.0) < 1e-10

    def test_zero_volatility_rejected(self):
        spec = make_problem(EX3_NU1, EX3_NU2, vol=ZERO_FN)
        with pytest.raises(ZeroVolatility):
            spec.xi_sq()

    @pytest.mark.parametrize(
        "s, a", [(1.0, 0.5001), (1.0, 0.5 + math.pi * 1e-4), (0.3, 0.1225049), (0.3, 0.1075043)]
    )
    def test_vol_vanishing_between_probes_is_degenerate(self, s, a):
        # sigma^2(t) = s (t - a)^2 is positive on every point of a 2049-point
        # grid of [0, 1], but its minimum is 0: no bound form covers it.  The
        # last two minima compute to -8.7e-19 and 4.3e-19, within rounding
        # of 0, so they are neither refused as negative nor read as positive.
        vol = PolynomialFunction((s * a * a, -2.0 * s * a, s))
        spec = ProblemSpec(
            ProcessSpec(UNIT_FN, vol, ZeroMeasure()),
            ProcessSpec(ZERO_FN, vol, ZeroMeasure()),
            1.0,
        )
        assert spec.vol_class() == "degenerate" and not spec.sigma_mismatch()
        report = compute_report(spec)
        assert report.xi_sq is None
        assert report.reasons["thm1"] == "sigma^2 vanishes on part of [0, T]"


    def test_integrated_once_per_spec(self, monkeypatch):
        # A sweep row reads xi^2 in the report and again in the estimator's
        # continuous_part; the spec integrates it once.  The variance 1 + t
        # is not constant, so the quotient takes the quadrature.
        calls = counted_integrate(monkeypatch)
        spec = make_problem(
            ZeroMeasure(),
            ZeroMeasure(),
            vol=PolynomialFunction((1.0, 1.0)),
            drift1=PolynomialFunction((0.0, 1.0)),
            horizon=2.0,
        )
        values = {spec.xi_sq() for _ in range(3)}
        compute_report(spec)
        continuous_part(spec)
        assert len(calls) == 1 and len(values) == 1
        assert values.pop() == pytest.approx(math.log(3.0), abs=1e-10)


def counted_integrate(monkeypatch) -> list:
    """The requests of every quadrature call of ``processes``."""
    calls = []

    def counted(request):
        calls.append(request)
        return integrate(request)

    monkeypatch.setattr(processes, "integrate", counted)
    return calls


def mp_xi_sq(drift1, drift2, vol, eta, horizon):
    """(f1 - f2 - eta)^2 / sigma^2 over [0, T] in 40-digit mpmath, cut at
    every break of the piecewise-constant variance."""
    with mpmath.workdps(40):
        def f(t):
            gap = sum(mpmath.mpf(c) * t**k for k, c in enumerate(drift1.coeffs))
            gap -= sum(mpmath.mpf(c) * t**k for k, c in enumerate(drift2.coeffs))
            gap -= mpmath.mpf(eta)
            return gap * gap

        edges = [0.0, *(b for b in vol.breaks if 0.0 < b < horizon), horizon]
        total = mpmath.mpf(0)
        for lo, hi in zip(edges, edges[1:]):
            value = vol.values[int(np.searchsorted(vol.breaks, 0.5 * (lo + hi), side="right"))]
            total += mpmath.quad(f, [lo, hi]) / mpmath.mpf(value)
        return float(total)


class TestExactXiSq:
    """On each piece where the variance is constant, xi^2 is the exact
    integral of a polynomial: no quadrature call, and within a few ulps of
    40-digit mpmath."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=5),
        st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4),
        st.lists(st.floats(0.05, 3.0), min_size=1, max_size=4, unique=True),
        st.lists(st.floats(1e-3, 1e3), min_size=5, max_size=5),
        st.floats(0.1, 4.0),
    )
    def test_polynomial_drifts_over_piecewise_constant_variance(
        self, c1, c2, breaks, values, horizon
    ):
        breaks = sorted(breaks)
        vol = PiecewiseConstantFunction(tuple(breaks), tuple(values[: len(breaks) + 1]))
        drift1, drift2 = PolynomialFunction(tuple(c1)), PolynomialFunction(tuple(c2))
        calls = []
        with pytest.MonkeyPatch.context() as m:
            calls = counted_integrate(m)
            spec = make_problem(
                EX3_NU1, EX3_NU2, vol=vol, drift1=drift1, drift2=drift2, horizon=horizon
            )
            got = spec.xi_sq()
        assert calls == []
        want = mp_xi_sq(drift1, drift2, vol, spec.eta(), horizon)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-300)

    def test_mixed_pieces_integrate_only_the_others(self, monkeypatch):
        # sigma^2 is 2 on [0, 1) and 1 + t on [1, 3): one quadrature, over
        # [1, 3] alone.
        class Mixed(processes.TimeFunction):
            def pieces(self, a, b):
                out = []
                if a < 1.0:
                    out.append((a, min(b, 1.0), (2.0,)))
                if b > 1.0:
                    out.append((max(a, 1.0), b, (1.0, 1.0)))
                return tuple(out)

        calls = counted_integrate(monkeypatch)
        spec = make_problem(
            ZeroMeasure(), ZeroMeasure(), vol=Mixed(), drift1=ConstantFunction(1.0), horizon=3.0
        )
        assert spec.xi_sq() == pytest.approx(0.5 + math.log(2.0), rel=1e-14)
        assert [(r.lower, r.upper) for r in calls] == [(1.0, 3.0)]

    GAPS = [0.0, -0.0, 5e-324, 1e-300, 1e-160, 1e-5, 0.3, 1.0, 7.5, 1e150, 1e155, 1e200, 1e308]

    def test_constant_gaps_match_the_polynomial_route(self):
        # Where the variance and the drift gap g are both constants on a
        # cell, xi^2 takes g^2 (hi - lo) / c without polymul, polyint and
        # polyval: the products the polynomial route makes, in its order,
        # so the same bits, also where g^2 underflows or overflows, and no
        # RuntimeWarning (an error in this suite).  A polynomial whose
        # higher coefficients are 0 still takes the polynomial route.
        rng = random.Random(35)
        levy = [(ZeroMeasure(), ZeroMeasure())] + [
            (CompoundPoissonMeasure(lam, UniformDensity(-0.5, 1.0)),
             CompoundPoissonMeasure(1.0, UniformDensity(-0.5, 1.0)))
            for lam in (1.0 + 1e-9, 2.5, 1e6)
        ]

        def gap():
            return rng.choice([1.0, -1.0]) * rng.choice(self.GAPS) * rng.uniform(0.5, 2.0)

        def function(make_value, pieces, forms=(ConstantFunction,)):
            breaks = tuple(sorted(rng.sample([0.1 * k for k in range(1, 40)], pieces - 1)))
            values = tuple(make_value() for _ in range(pieces))
            if pieces > 1:
                return PiecewiseConstantFunction(breaks, values)
            return rng.choice(forms)(values[0])

        def padded(value):
            return PolynomialFunction((value, 0.0))

        for _ in range(400):
            vol = function(lambda: 10.0 ** rng.uniform(-20.0, 20.0), rng.randint(1, 4))
            drift1 = function(gap, rng.randint(1, 5), (ConstantFunction, padded))
            drift2 = function(gap, rng.randint(1, 2), (ConstantFunction, padded))
            nu1, nu2 = rng.choice(levy)
            spec = make_problem(
                nu1, nu2, vol=vol, drift1=drift1, drift2=drift2, horizon=rng.uniform(0.1, 4.0)
            )
            assert spec.xi_sq().hex() == polynomial_xi_sq(spec).hex()

    def test_zero_constant_variance_is_infinite(self):
        # Process 1's variance is 0 on [0, 0.5) where process 2's is 2e-30:
        # the pair is of the positive class and does not mismatch, but the
        # quotient there is infinite.
        specs = [
            ProcessSpec(drift, PiecewiseConstantFunction((0.5,), (v, 1.0)), ZeroMeasure())
            for drift, v in ((UNIT_FN, 0.0), (ZERO_FN, 2e-30))
        ]
        spec = ProblemSpec(*specs, 1.0)
        assert spec.vol_class() == "positive" and not spec.sigma_mismatch()
        assert spec.xi_sq() == math.inf


class TestDriftMatching:
    def test_matched_when_gap_equals_eta(self):
        spec = ProblemSpec(
            ProcessSpec(ConstantFunction(ETA_EX3), ZERO_FN, EX3_NU1),
            ProcessSpec(ZERO_FN, ZERO_FN, EX3_NU2),
            1.0,
        )
        assert spec.drift_matched()
        assert spec._drift_gap[0] < 1e-9

    def test_unmatched_constant_gap(self):
        spec = ProblemSpec(
            ProcessSpec(UNIT_FN, ZERO_FN, EX3_NU1),
            ProcessSpec(ZERO_FN, ZERO_FN, EX3_NU2),
            1.0,
        )
        assert not spec.drift_matched()

    def test_each_function_is_read_once(self):
        class Counted(ConstantFunction):
            def pieces(self, a, b):
                calls.append(self.c)
                return super().pieces(a, b)

        calls = []
        spec = ProblemSpec(
            ProcessSpec(Counted(ETA_EX3), Counted(0.0), EX3_NU1),
            ProcessSpec(Counted(0.5), Counted(0.0), EX3_NU2),
            1.0,
        )
        assert spec.vol_class() == "zero" and not spec.sigma_mismatch()
        for _ in range(2):
            assert not spec.drift_matched()
            assert spec._drift_gap[0] == pytest.approx(0.5)
        # Both variances' pieces, then both drifts', once, at construction.
        assert calls == [0.0, 0.0, ETA_EX3, 0.5]

    def test_gap_between_grid_points_is_unmatched(self):
        # Process 1's drift is 1 higher on [0.50001, 0.50002) only, between
        # two points of a 2049-point grid of [0, 1].
        bump = PiecewiseConstantFunction((0.50001, 0.50002), (0.0, 1.0, 0.0))
        spec = ProblemSpec(
            ProcessSpec(bump, ZERO_FN, ZeroMeasure()),
            ProcessSpec(ZERO_FN, ZERO_FN, ZeroMeasure()),
            1.0,
        )
        assert spec._drift_gap[0] == 1.0
        assert not spec.drift_matched()

    def test_unmatched_time_varying_gap(self):
        # average gap equals eta but pointwise it does not
        spec = ProblemSpec(
            ProcessSpec(PolynomialFunction((ETA_EX3 - 0.5, 1.0)), ZERO_FN, EX3_NU1),
            ProcessSpec(ZERO_FN, ZERO_FN, EX3_NU2),
            1.0,
        )
        assert not spec.drift_matched()


GRID_POINTS = 2049


@dataclasses.dataclass(frozen=True)
class PiecewisePolynomial(TimeFunction):
    """coeffs[i] on [breaks[i-1], breaks[i]), every break inside (0, T)."""

    breaks: tuple[float, ...]
    coeffs: tuple[tuple[float, ...], ...]

    def pieces(self, a, b):
        edges = (a, *(x for x in self.breaks if a < x < b), b)
        idx = np.searchsorted(self.breaks, edges[:-1], side="right")
        return tuple(zip(edges[:-1], edges[1:], (self.coeffs[i] for i in idx)))


@st.composite
def piecewise_polynomials(draw, horizon):
    """A piecewise polynomial with its breaks on the grid and, per piece,
    whether its extremes lie at grid points or left limits at breaks:
    a polynomial of degree <= 1, or a + s (t - g)^2 with g on the grid."""
    grid = np.linspace(0.0, horizon, GRID_POINTS)
    cuts = draw(st.lists(st.integers(1, GRID_POINTS - 2), max_size=4, unique=True).map(sorted))
    edges = [0, *cuts, GRID_POINTS - 1]
    coeffs, on_grid = [], True
    for lo, hi in zip(edges[:-1], edges[1:]):
        form = draw(st.sampled_from(["linear", "vertex", "any"]))
        if form == "linear":
            c = tuple(draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=2)))
        elif form == "vertex":
            g = float(grid[draw(st.integers(lo, hi - 1))])
            a, s = draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))
            c = (a + s * g * g, -2.0 * s * g, s)
        else:
            c = tuple(draw(st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=6)))
            on_grid = False
        coeffs.append(c)
    breaks = tuple(float(grid[k]) for k in cuts)
    return PiecewisePolynomial(breaks, tuple(coeffs)), on_grid


def rounding(fn, horizon):
    """Rounding of order eps sum |c_k| max(1, T)^k of each piece's values."""
    return 8.0 * np.finfo(float).eps * max(
        float(npoly.polyval(max(1.0, horizon), np.abs(c))) for c in fn.coeffs
    )


def grid_extremes(fn, horizon):
    """min and max over the grid of [0, T] and the left limits at the breaks."""
    grid = np.linspace(0.0, horizon, GRID_POINTS)
    limits = [npoly.polyval(b, c) for b, c in zip(fn.breaks, fn.coeffs)]
    values = np.concatenate([fn.value(grid), limits])
    return float(values.min()), float(values.max())


def per_piece(fn, t):
    """fn at each point of t by npoly, on the piece that holds it."""
    idx = np.searchsorted(fn.breaks, t, side="right")
    return [float(npoly.polyval(x, fn.coeffs[i])) for x, i in zip(t, idx)]


def per_piece_integral(fn, a, b):
    """The integral of fn over [a, b], each piece's by npoly, added in order."""
    edges = [a, *(x for x in fn.breaks if a < x < b), b]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        c = fn.coeffs[int(np.searchsorted(fn.breaks, lo, side="right"))]
        if len(c) == 1:
            total += c[0] * (hi - lo)
        else:
            anti = npoly.polyint(c)
            total += float(npoly.polyval(hi, anti) - npoly.polyval(lo, anti))
    return total


class TestOneMethodTimeFunction:
    """A time function that defines only its pieces gets its values and
    its integral from them: each the polynomial of its own piece."""

    FN = PiecewisePolynomial((0.5, 1.0), ((1.0,), (2.0, 1.0), (5.0, 0.0, -1.0)))

    @pytest.mark.parametrize(
        "t", [[-0.5], [-2.0, 0.25], [0.5], [0.2, 0.5], [1.0], [-1.0, 0.7, 1.0], [3.0, 1.0]]
    )
    def test_value_reads_the_piece_of_each_point(self, t):
        # t < 0 reads the first piece; a break that is the largest t reads
        # the piece that starts there (right-continuity).
        assert self.FN.value(np.array(t)).tolist() == per_piece(self.FN, t)

    def test_integral_adds_the_pieces(self):
        # 1.5 on [-1, 0.5], 1 + 0.375 on [0.5, 1], 5 - 7/3 on [1, 2].
        assert self.FN.integral(-1.0, 2.0) == pytest.approx(1.5 + 1.375 + 8.0 / 3.0, rel=1e-15)
        assert self.FN.integral(0.75, 0.75) == 0.0
        with pytest.raises(ValueError):
            self.FN.integral(1.0, 0.0)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        piecewise_polynomials(2.0),
        st.lists(st.floats(-1.0, 3.0), min_size=1, max_size=20),
        st.floats(-1.0, 3.0),
        st.floats(-1.0, 3.0),
    )
    def test_against_npoly_per_piece(self, drawn, ts, a, b):
        fn, _ = drawn
        t = [*ts, *fn.breaks[:1]]
        assert fn.value(np.array(t)).tolist() == per_piece(fn, t)
        a, b = sorted((a, b))
        assert fn.integral(a, b).hex() == per_piece_integral(fn, a, b).hex()


class TestExactExtrema:
    """The exact extrema bound the 2049-point grid's, and equal them where
    the extremes fall on grid points."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from([0.5, 1.0, 3.0]).flatmap(
        lambda horizon: st.tuples(st.just(horizon), piecewise_polynomials(horizon))
    ))
    def test_range_against_the_grid(self, drawn):
        horizon, (fn, on_grid) = drawn
        values, _ = processes._paired_values(fn.pieces(0.0, horizon), ZERO_FN.pieces(0.0, horizon))
        low, high = min(values), max(values)
        grid_low, grid_high = grid_extremes(fn, horizon)
        tol = rounding(fn, horizon)
        assert low <= grid_low + tol and high >= grid_high - tol
        if on_grid:
            assert abs(low - grid_low) <= tol and abs(high - grid_high) <= tol
        if all(len(c) <= 2 for c in fn.coeffs):
            assert (low, high) == (grid_low, grid_high)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(piecewise_polynomials(2.0), piecewise_polynomials(2.0))
    def test_drift_gap_against_the_grid(self, drawn1, drawn2):
        (f1, _), (f2, _) = drawn1, drawn2
        spec = ProblemSpec(
            ProcessSpec(f1, ZERO_FN, ZeroMeasure()), ProcessSpec(f2, ZERO_FN, ZeroMeasure()), 2.0
        )
        grid = np.linspace(0.0, 2.0, GRID_POINTS)
        on_grid = float(np.max(np.abs(f1.value(grid) - f2.value(grid))))
        tol = rounding(f1, 2.0) + rounding(f2, 2.0)
        assert spec._drift_gap[0] >= on_grid - tol


class TestCharFunction:
    def test_compound_poisson_closed_form(self):
        lam, b, horizon = 3.0, 0.7, 1.5
        proc = ProcessSpec(
            ConstantFunction(b),
            PolynomialFunction((0.2, 0.1)),
            CompoundPoissonMeasure(lam, UniformDensity(0.0, 1.0)),
        )
        u = np.array([0.5, 1.0, 2.0, 5.0])
        got = char_function(proc, horizon, u)
        var = 0.2 * horizon + 0.05 * horizon**2
        jump = lam * ((np.exp(1j * u) - 1.0) / (1j * u) - 1.0) - 1j * u * lam * 0.5
        expect = np.exp(1j * u * b * horizon - 0.5 * u * u * var + horizon * jump)
        assert np.max(np.abs(got - expect)) < 1e-12

    def test_pure_gaussian(self):
        proc = ProcessSpec(ConstantFunction(0.5), ConstantFunction(2.0), ZeroMeasure())
        u = np.array([0.0, 1.0, 3.0])
        got = char_function(proc, 2.0, u)
        expect = np.exp(1j * u * 1.0 - 0.5 * u * u * 4.0)
        assert np.max(np.abs(got - expect)) < TOL_EXACT

    def test_symmetric_tempered_stable_closed_form(self):
        # symmetric C = 1, lambda = 1, alpha = 0.5: the exponent at frequency
        # u is -4 sqrt(pi) (Re sqrt(1 - iu) - 1) per unit time
        proc = ProcessSpec(ZERO_FN, ZERO_FN, EX3_NU2)
        u = 1.0
        got = char_function(proc, 1.0, np.array([u]))[0]
        expect = math.exp(
            -4.0 * math.sqrt(math.pi) * (2.0**0.25 * math.cos(math.pi / 8.0) - 1.0)
        )
        assert abs(got.imag) < 1e-12
        assert abs(got.real - expect) < TOL_QUAD

    def test_modulus_bounded_by_one(self):
        proc = ProcessSpec(ConstantFunction(1.0), UNIT_FN, EX3_NU1)
        u = np.linspace(0.1, 10.0, 7)
        assert np.all(np.abs(char_function(proc, 1.0, u)) <= 1.0 + TOL_EXACT)

    def test_zero_frequency_is_one(self):
        proc = ProcessSpec(ConstantFunction(1.0), UNIT_FN, EX3_NU1)
        got = char_function(proc, 1.0, np.array([0.0]))[0]
        assert abs(got - 1.0) < TOL_EXACT
