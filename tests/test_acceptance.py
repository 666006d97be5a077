"""Acceptance gate: ten criteria, one test and one printed verdict line each.

Every Monte Carlo criterion uses a fixed seed and 4x the 95% half-width
(or 4 standard errors) as tolerance; analytic criteria use the pinned
relative tolerances stated inline.  Each test also enforces its runtime
budget.
"""

import json
import math
import time

import numpy as np
import pytest

from addgap import cli
from addgap.bounds import (
    bound_thm1,
    bound_thm2,
    compute_report,
    gaussian_tv_exact,
)
from addgap._cephes import normal_cdf
from addgap.measures import (
    CompoundPoissonMeasure,
    TemperedStableMeasure,
    UniformDensity,
    ZeroMeasure,
    gamma_nu,
    hellinger_sq,
    l1_distance,
)
from addgap.montecarlo import (
    e_abs_one_minus_exp_normal,
    estimate_sinh_oracle,
    estimate_tv,
    martingale_check,
)
from addgap.processes import (
    ConstantFunction,
    ProblemSpec,
    ProcessSpec,
    char_function,
)
from addgap.simulate import RngStream, sample_terminal_values

from _oracles import riemann_log

SEED = 20260815

ZERO = ConstantFunction(0.0)
UNIT = ConstantFunction(1.0)
U01 = UniformDensity(0.0, 1.0)


def cp(intensity):
    return CompoundPoissonMeasure(intensity, U01)


def spec_of(b1, v1, nu1, b2, v2, nu2, horizon):
    return ProblemSpec(
        ProcessSpec(ConstantFunction(b1), ConstantFunction(v1), nu1),
        ProcessSpec(ConstantFunction(b2), ConstantFunction(v2), nu2),
        horizon,
    )


def report_line(n, verdict, detail, elapsed, budget):
    print(
        f"criterion {n}: {verdict} ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)"
    )


class TestAcceptance:
    def test_criterion_01_splitting_inequality(self):
        budget, t0 = 5.0, time.perf_counter()
        rng = np.random.default_rng(SEED)
        n = 1_000_000
        x = rng.uniform(-20.0, 20.0, n)
        y = rng.uniform(-20.0, 20.0, n)
        lhs = np.abs(1.0 - np.exp(x + y))
        rhs = 0.5 * (1.0 + np.exp(x)) * np.abs(1.0 - np.exp(y)) + 0.5 * (
            1.0 + np.exp(y)
        ) * np.abs(1.0 - np.exp(x))
        failures = int(np.sum(lhs > rhs * (1.0 + 1e-12)))
        elapsed = time.perf_counter() - t0
        assert failures == 0
        assert elapsed < budget
        report_line(1, "PASS", f"{n} random (x, y), {failures} violations", elapsed, budget)

    def test_criterion_02_normal_closed_form(self):
        budget, t0 = 30.0, time.perf_counter()
        rng = np.random.default_rng(SEED + 1)
        draws = 1.0 + 2.0 * rng.standard_normal(10_000_000)
        values = np.abs(1.0 - np.exp(draws))
        mc_mean = float(values.mean())
        mc_se = float(values.std(ddof=1) / math.sqrt(values.size))
        closed = e_abs_one_minus_exp_normal(1.0, 2.0)
        assert abs(closed - mc_mean) <= 4.0 * mc_se
        worst = 0.0
        for xi in (0.1, 1.0, 3.0):
            via_general = e_abs_one_minus_exp_normal(-0.5 * xi * xi, xi)
            short_form = 2.0 * (1.0 - 2.0 * normal_cdf(-0.5 * xi))
            worst = max(worst, abs(via_general - short_form) / short_form)
        assert worst <= 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < budget
        report_line(
            2,
            "PASS",
            f"closed {closed:.6f} vs MC {mc_mean:.6f} (se {mc_se:.1e}), "
            f"substitution worst rel {worst:.1e}",
            elapsed,
            budget,
        )

    def test_criterion_03_gaussian_exactness(self):
        budget, t0 = 60.0, time.perf_counter()
        spec = spec_of(1.0, 1.0, ZeroMeasure(), 0.0, 1.0, ZeroMeasure(), 4.0)
        exact = gaussian_tv_exact(spec)
        thm2 = bound_thm2(spec)
        assert math.isclose(thm2, exact, rel_tol=1e-12)
        result = estimate_tv(spec, 1_000_000, 0.0, SEED + 2)
        gap = abs(result.mean - exact)
        assert gap <= 4.0 * result.half_width_95
        elapsed = time.perf_counter() - t0
        assert elapsed < budget
        report_line(
            3,
            "PASS",
            f"thm2 = exact = {exact:.12f}, MC gap {gap:.2e} vs "
            f"4hw {4.0 * result.half_width_95:.2e}",
            elapsed,
            budget,
        )

    def test_criterion_04_sinh_identity(self):
        budget, t0 = 60.0, time.perf_counter()
        details = []
        for horizon in (1.0, 2.0):
            spec = spec_of(0.0, 0.0, cp(1.2), 0.0, 0.0, cp(1.0), horizon)
            result = estimate_sinh_oracle(spec, 1_000_000, SEED + 3)
            target = 2.0 * math.sinh(horizon * 0.2)
            gap = abs(result.mean - target)
            assert gap <= 4.0 * result.half_width_95
            details.append(f"T={horizon:g}: gap {gap:.2e} vs 4hw {4.0 * result.half_width_95:.2e}")
        elapsed = time.perf_counter() - t0
        assert elapsed < budget
        report_line(4, "PASS", "; ".join(details), elapsed, budget)

    def test_criterion_05_martingale(self):
        budget, t0 = 90.0, time.perf_counter()
        cases = {
            "gaussian": spec_of(0.5, 1.0, ZeroMeasure(), 0.0, 1.0, ZeroMeasure(), 1.0),
            "compound-poisson": spec_of(0.6, 0.0, cp(1.2), 0.5, 0.0, cp(1.0), 1.0),
            "jump-diffusion": spec_of(0.3, 1.0, cp(1.2), 0.0, 1.0, cp(1.0), 1.0),
        }
        details = []
        for name, spec in cases.items():
            result = martingale_check(spec, 1_000_000, SEED + 4)
            gap = abs(result.mean - 1.0)
            assert gap <= 4.0 * result.half_width_95
            details.append(f"{name} gap {gap:.2e}")
        elapsed = time.perf_counter() - t0
        assert elapsed < budget
        report_line(5, "PASS", "; ".join(details), elapsed, budget)

    def test_criterion_06_bound_dominance(self):
        budget, t0 = 300.0, time.perf_counter()
        pairs = [
            (1.2, 1.0, 0.0, 0.0),
            (2.0, 1.0, 0.3, 0.0),
            (0.7, 1.4, -0.2, 0.1),
            (1.5, 1.5, 0.5, 0.0),
        ]
        checked = 0
        worst_margin = math.inf
        for lam1, lam2, b1, b2 in pairs:
            for horizon in (0.5, 1.0, 2.0):
                spec = spec_of(b1, 1.0, cp(lam1), b2, 1.0, cp(lam2), horizon)
                limit = min(bound_thm1(spec), bound_thm2(spec))
                result = estimate_tv(spec, 200_000, 0.0, SEED + 5)
                slack = limit + 4.0 * result.half_width_95 - result.mean
                assert slack >= 0.0, (lam1, lam2, b1, b2, horizon)
                worst_margin = min(worst_margin, slack)
                checked += 1
        elapsed = time.perf_counter() - t0
        assert checked == 12
        assert elapsed < budget
        report_line(
            6,
            "PASS",
            f"12 configs, min slack {worst_margin:.3f}",
            elapsed,
            budget,
        )

    def test_criterion_07_measure_functionals_vs_oracle(self):
        budget, t0 = 60.0, time.perf_counter()
        nu1 = TemperedStableMeasure(1.0, 1.0, 1.0, 2.0, 0.5)
        nu2 = TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, 0.5)
        panels = 10_000_000

        l1_oracle = riemann_log(
            lambda y: np.abs(np.exp(-2.0 * y) - np.exp(-y)) * y**-1.5,
            1e-14,
            60.0,
            panels,
        )
        h2_oracle = riemann_log(
            lambda y: (np.exp(-y) - np.exp(-0.5 * y)) ** 2 * y**-1.5,
            1e-14,
            60.0,
            panels,
        )
        gamma1_oracle = riemann_log(
            lambda y: y**-0.5 * np.exp(-2.0 * y), 1e-14, 1.0, panels
        ) - riemann_log(lambda y: y**-0.5 * np.exp(-y), 1e-14, 1.0, panels)
        eta_oracle = gamma1_oracle  # gamma of the symmetric pair member is 0
        xi_sq_oracle = eta_oracle**2  # unit volatility, zero drifts, T = 1

        spec = spec_of(0.0, 1.0, nu1, 0.0, 1.0, nu2, 1.0)
        checks = {
            "L1": (l1_distance(nu1, nu2), l1_oracle),
            "H2": (hellinger_sq(nu1, nu2), h2_oracle),
            "gamma": (gamma_nu(nu1), gamma1_oracle),
            "eta": (spec.eta(), eta_oracle),
            "xi_sq": (spec.xi_sq(), xi_sq_oracle),
        }
        worst = 0.0
        for name, (got, expected) in checks.items():
            rel = abs(got - expected) / abs(expected)
            assert rel <= 1e-6, (name, got, expected)
            worst = max(worst, rel)

        nu1_heavy = TemperedStableMeasure(1.0, 1.0, 1.0, 2.0, 1.5)
        nu2_heavy = TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, 1.5)
        assert math.isinf(l1_distance(nu1_heavy, nu2_heavy))
        assert math.isfinite(hellinger_sq(nu1_heavy, nu2_heavy))
        elapsed = time.perf_counter() - t0
        assert elapsed < budget
        report_line(
            7,
            "PASS",
            f"5 functionals worst rel {worst:.1e}; alpha=1.5 L1 divergent, H2 finite",
            elapsed,
            budget,
        )

    def test_criterion_08_analytic_identities(self):
        budget, t0 = 60.0, time.perf_counter()
        from addgap.measures import ExponentialDensity

        worst = 0.0
        evaluated = []
        for density in (U01, ExponentialDensity(1.0)):
            for lam1, lam2 in ((1.2, 1.0), (2.0, 1.0), (5.0, 2.0), (0.3, 0.9)):
                nu1 = CompoundPoissonMeasure(lam1, density)
                nu2 = CompoundPoissonMeasure(lam2, density)
                l1 = l1_distance(nu1, nu2)
                h2 = hellinger_sq(nu1, nu2)
                worst = max(
                    worst,
                    abs(l1 - abs(lam1 - lam2)) / abs(lam1 - lam2),
                    abs(h2 - (math.sqrt(lam1) - math.sqrt(lam2)) ** 2)
                    / (math.sqrt(lam1) - math.sqrt(lam2)) ** 2,
                )
                evaluated.append((l1, h2))
        assert worst <= 1e-9
        assert all(h2 <= l1 * (1.0 + 1e-12) for l1, h2 in evaluated)
        elapsed = time.perf_counter() - t0
        assert elapsed < budget
        report_line(
            8,
            "PASS",
            f"8 intensity-scaled pairs, worst rel {worst:.1e}, H2 <= L1 throughout",
            elapsed,
            budget,
        )

    def test_criterion_09_cli_determinism(self, tmp_path, capsys, monkeypatch):
        config = {
            "process1": {
                "drift": {"form": "constant", "c": 1.0},
                "vol_sq": {"form": "constant", "c": 0.0},
                "levy": {
                    "type": "compound_poisson",
                    "lambda": 2.0,
                    "jump_density": {"family": "uniform", "a": 0.0, "b": 1.0},
                },
            },
            "process2": {
                "drift": {"form": "constant", "c": 0.5},
                "vol_sq": {"form": "constant", "c": 0.0},
                "levy": {
                    "type": "compound_poisson",
                    "lambda": 1.0,
                    "jump_density": {"family": "uniform", "a": 0.0, "b": 1.0},
                },
            },
            "horizon": 1.0,
        }
        path = tmp_path / "determinism.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = [
            "estimate",
            "--config",
            str(path),
            "--json",
            "--paths",
            "30000",
            "--seed",
            "11",
        ]
        outputs = {}
        for threads in ("1", "8"):
            monkeypatch.setenv("ADDGAP_THREADS", threads)
            assert cli.main(argv) == 0
            outputs[threads] = capsys.readouterr().out
            monkeypatch.setenv("ADDGAP_THREADS", threads)
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == outputs[threads]
        assert outputs["1"] == outputs["8"]
        assert outputs["1"].encode("utf-8") == outputs["8"].encode("utf-8")
        report_line(
            9,
            "PASS",
            "cmd_estimate JSON byte-identical for ADDGAP_THREADS in {1, 8}",
            0.0,
            1.0,
        )

    def test_criterion_10_characteristic_function(self):
        budget, t0 = 60.0, time.perf_counter()
        process = ProcessSpec(ConstantFunction(0.3), ZERO, cp(1.5))
        horizon = 1.0
        n = 1_000_000
        values = sample_terminal_values(
            process, horizon, n, rng_jumps=RngStream(SEED + 6, 0)
        )
        u_grid = np.array([0.5, 1.0, 2.0, 5.0])
        target = char_function(process, horizon, u_grid)
        worst_sigma = 0.0
        for k, u in enumerate(u_grid):
            re = np.cos(u * values)
            im = np.sin(u * values)
            for emp, tgt in (
                (re, target[k].real),
                (im, target[k].imag),
            ):
                se = float(emp.std(ddof=1) / math.sqrt(n))
                gap = abs(float(emp.mean()) - tgt)
                assert gap <= 4.0 * se, (u, gap, se)
                worst_sigma = max(worst_sigma, gap / se)
        elapsed = time.perf_counter() - t0
        assert elapsed < budget
        report_line(
            10,
            "PASS",
            f"4 frequencies, worst component gap {worst_sigma:.2f} se",
            elapsed,
            budget,
        )
