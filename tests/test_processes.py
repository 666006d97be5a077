"""Tests for time functions, process pairing, and the characteristic function."""

import math

import mpmath
import numpy as np
import pytest

from addgap.errors import DivergentIntegral, ZeroVolatility
from addgap.measures import (
    CompoundPoissonMeasure,
    TabulatedLevyMeasure,
    TemperedStableMeasure,
    UniformDensity,
    ZeroMeasure,
)
from addgap.processes import (
    ConstantFunction,
    PiecewiseConstantFunction,
    PolynomialFunction,
    ProblemSpec,
    ProcessSpec,
    char_function,
)

from _oracles import ETA_EX3

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

    def test_breakpoints(self):
        assert ConstantFunction(1.0).breakpoints() == ()
        assert PiecewiseConstantFunction((1.0,), (0.0, 1.0)).breakpoints() == (1.0,)


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

    def test_vol_vanishing_between_probes_is_infinite(self):
        # sigma^2(t) = (t - 0.5001)^2 is positive on every probe point, so
        # the class is "positive", but the quotient is non-finite at a node.
        vol = PolynomialFunction((0.25010001, -1.0002, 1.0))
        spec = ProblemSpec(
            ProcessSpec(UNIT_FN, vol, ZeroMeasure()),
            ProcessSpec(ZERO_FN, vol, ZeroMeasure()),
            1.0,
        )
        assert spec.vol_class() == "positive"
        assert spec.xi_sq() == math.inf


class TestDriftMatching:
    def test_matched_when_gap_equals_eta(self):
        spec = ProblemSpec(
            ProcessSpec(ConstantFunction(ETA_EX3), ZERO_FN, EX3_NU1),
            ProcessSpec(ZERO_FN, ZERO_FN, EX3_NU2),
            1.0,
        )
        assert spec.drift_matched()
        assert spec.drift_gap_sup() < 1e-9

    def test_unmatched_constant_gap(self):
        spec = ProblemSpec(
            ProcessSpec(UNIT_FN, ZERO_FN, EX3_NU1),
            ProcessSpec(ZERO_FN, ZERO_FN, EX3_NU2),
            1.0,
        )
        assert not spec.drift_matched()

    def test_unmatched_time_varying_gap(self):
        # average gap equals eta but pointwise it does not
        spec = ProblemSpec(
            ProcessSpec(PolynomialFunction((ETA_EX3 - 0.5, 1.0)), ZERO_FN, EX3_NU1),
            ProcessSpec(ZERO_FN, ZERO_FN, EX3_NU2),
            1.0,
        )
        assert not spec.drift_matched()


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
