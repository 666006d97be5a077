"""Tests for the likelihood-ratio functionals and Monte Carlo estimators."""

import json
import math
import os
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from addgap.bounds import bound_thm1, bound_thm2, gaussian_tv_exact, normal_cdf
from addgap import montecarlo, simulate
from addgap.config import parse_config, parse_config_dict
from addgap.errors import (
    DivergentMass,
    HypothesisFailed,
    NotAbsolutelyContinuous,
    RatioUndefined,
)
from addgap.measures import (
    CompoundPoissonMeasure,
    JumpLaw,
    TabulatedLevyMeasure,
    TemperedStableMeasure,
    UniformDensity,
    ZeroMeasure,
    pair_jump_law,
    pair_log_ratio,
)
from addgap.montecarlo import (
    CHUNK_PATHS,
    MAX_CHUNK_JUMPS,
    EstimateResult,
    _estimate_ct_dt,
    _jump_sums,
    _reduce_chunks,
    _thread_count,
    default_epsilon,
    e_abs_one_minus_exp_normal,
    estimate_sinh_oracle,
    estimate_tv,
    martingale_check,
)
from addgap.processes import (
    ConstantFunction,
    PiecewiseConstantFunction,
    PolynomialFunction,
    ProblemSpec,
    ProcessSpec,
)
from addgap.simulate import RngStream, sample_jump_batch, sample_terminal_values

from _oracles import (
    EABS_1_2,
    GAUSS_T4,
    TWO_SINH_02,
    TWO_SINH_04,
    estimator_inputs,
    exact_ts_l1,
    path_sums,
)

TOL_EXACT = 1e-12

G01 = UniformDensity(0.0, 1.0)
CP12 = CompoundPoissonMeasure(1.2, G01)
CP10 = CompoundPoissonMeasure(1.0, G01)
ZERO_FN = ConstantFunction(0.0)
UNIT_VOL = ConstantFunction(1.0)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# estimate_tv(unequal_c_ts_spec(), 24676 paths, epsilon, seed 3): (mean,
# 95% half-width) as hex floats.  The pair has no exact law, so these pin
# the table sampler; recorded before the exact inverse-Gaussian draw was
# added.  24676 paths are three full chunks and a partial one.
TS_GOLDEN = {
    1e-2: ("0x1.36748890c2038p+0", "0x1.a2f06811353ecp-5"),
    1e-3: ("0x1.6157c38776faep+0", "0x1.ebda2e782dd9dp-4"),
    1e-4: ("0x1.157a84304b7c5p+0", "0x1.a5aa0a43e6954p-4"),
}

# Exact inverse-Gaussian draws at 24676 paths, seed 3, as hex floats:
# estimate_tv of configs/tempered_stable.json and martingale_check of
# two_sided_ig_spec().
IG_GOLDEN = {
    "tv_bundled": ("0x1.0db3b2613a21fp-1", "0x1.24b574684e3dfp-8"),
    "martingale_two_sided": ("0x1.025c85557c2dap+0", "0x1.fbd9a9d0a40dcp-7"),
}


def matched_cp_spec(horizon=1.0):
    """sigma = 0 compound Poisson pair with the drift gap equal to eta."""
    p1 = ProcessSpec(ConstantFunction(0.1), ZERO_FN, CP12)
    p2 = ProcessSpec(ZERO_FN, ZERO_FN, CP10)
    return ProblemSpec(p1, p2, horizon)


def unequal_c_ts_spec():
    """tempered_stable.json with C+ = 1.5 in process1 and sigma^2 = 1 on
    both sides: a tempered-stable pair without an exact law of D_T."""
    raw = json.loads((CONFIG_DIR / "tempered_stable.json").read_text())
    raw["process1"]["levy"]["c_plus"] = 1.5
    for key in ("process1", "process2"):
        raw[key]["vol_sq"]["c"] = 1.0
    return parse_config_dict(raw).problem


def two_sided_ig_spec():
    """A same-shape alpha = 1/2 pair whose tempering differs on both sides,
    with unit volatility and zero drifts."""
    return ProblemSpec(
        ProcessSpec(ZERO_FN, UNIT_VOL, TemperedStableMeasure(0.7, 1.3, 1.5, 2.0, 0.5)),
        ProcessSpec(ZERO_FN, UNIT_VOL, TemperedStableMeasure(0.7, 1.3, 1.0, 0.8, 0.5)),
        1.0,
    )


def gaussian_spec(gap=1.0, horizon=4.0):
    p1 = ProcessSpec(ConstantFunction(gap), UNIT_VOL, ZeroMeasure())
    p2 = ProcessSpec(ZERO_FN, UNIT_VOL, ZeroMeasure())
    return ProblemSpec(p1, p2, horizon)


def tabulated_pair():
    grid = np.concatenate([-np.geomspace(2.0, 0.1, 8), np.geomspace(0.1, 2.0, 8)])
    base = 0.4 / (1.0 + np.abs(grid))
    tilt = 1.0 + 0.5 * np.sin(3.0 * grid)
    nu2 = TabulatedLevyMeasure(tuple(grid), tuple(base))
    nu1 = TabulatedLevyMeasure(tuple(grid), tuple(base * tilt))
    return nu1, nu2


class TestEAbsOneMinusExpNormal:
    def test_degenerate_s_zero(self):
        assert e_abs_one_minus_exp_normal(0.0, 0.0) == 0.0
        assert abs(e_abs_one_minus_exp_normal(1.0, 0.0) - (math.e - 1.0)) < TOL_EXACT

    def test_frozen_value(self):
        assert math.isclose(
            e_abs_one_minus_exp_normal(1.0, 2.0), EABS_1_2, rel_tol=1e-12
        )

    @pytest.mark.parametrize("xi", [0.1, 1.0, 3.0])
    def test_substitution_gives_gaussian_term(self, xi):
        lhs = e_abs_one_minus_exp_normal(-0.5 * xi * xi, xi)
        rhs = 2.0 * (1.0 - 2.0 * normal_cdf(-0.5 * xi))
        assert abs(lhs - rhs) < TOL_EXACT

    def test_monte_carlo_oracle(self):
        draws = 1.0 + 2.0 * RngStream(19, 0).generator.standard_normal(1_000_000)
        values = np.abs(-np.expm1(draws))
        se = values.std() / math.sqrt(values.size)
        assert abs(values.mean() - e_abs_one_minus_exp_normal(1.0, 2.0)) < 4.0 * se

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            e_abs_one_minus_exp_normal(0.0, -1.0)


def cp_batch(horizon, n_paths, seed, nu=CP10, epsilon=0.0):
    """The jumps that chunk 0 of an estimate with root ``seed`` draws."""
    return sample_jump_batch(nu, horizon, n_paths, RngStream(seed, 0), epsilon)


class _RecordingExp:
    """numpy, except that ``exp`` keeps a copy of every argument."""

    def __init__(self):
        self.args = []

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x):
        self.args.append(np.array(x, copy=True))
        return np.exp(x)


def sinh_split(monkeypatch, spec, n_paths, seed):
    """A+ and A- of each path, as the sinh oracle exponentiates them.

    The oracle's chunks call ``np.exp`` twice each, on A+ then on A-; the
    recorded calls are checked against that layout before they are paired.
    """
    monkeypatch.setenv("ADDGAP_THREADS", "1")
    recorder = _RecordingExp()
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "np", recorder)
        estimate_sinh_oracle(spec, n_paths, seed)
    chunks = [min(CHUNK_PATHS, n_paths - s) for s in range(0, n_paths, CHUNK_PATHS)]
    assert [a.shape for a in recorder.args] == [(m,) for m in chunks for _ in range(2)]
    return np.concatenate(recorder.args[0::2]), np.concatenate(recorder.args[1::2])


def sigma_zero_spec(nu1, nu2, horizon=1.0):
    """sigma = 0 pair of nu1 and nu2 whose drift gap matches eta, so that
    the estimators see C_T = 0 and their value_fn receives D_T itself."""
    p2 = ProcessSpec(ZERO_FN, ZERO_FN, nu2)
    eta = ProblemSpec(ProcessSpec(ZERO_FN, ZERO_FN, nu1), p2, horizon).eta()
    return ProblemSpec(ProcessSpec(ConstantFunction(eta), ZERO_FN, nu1), p2, horizon)


class _StrayingUniform(UniformDensity):
    """Uniform density on [a, b] whose sampler draws on [a, 2b - a]."""

    def sample(self, gen, n):
        return self.a + 2.0 * (self.b - self.a) * gen.random(n)


class TestJumpLoglikD:
    # D_T of each path, as the estimators' value_fn receives it.
    def test_equal_measures_give_zero(self, monkeypatch):
        d = estimator_inputs(monkeypatch, sigma_zero_spec(CP10, CP10), 50, 0.0, 3)
        assert d.shape == (50,) and np.all(d == 0.0)

    def test_empty_record_is_pure_compensator(self, monkeypatch):
        # The first seed whose single path has no jump.
        seed = next(s for s in range(100) if cp_batch(1.0, 1, s).counts[0] == 0)
        d = estimator_inputs(monkeypatch, matched_cp_spec(), 1, 0.0, seed)
        assert abs(d[0] + 0.2) < TOL_EXACT

    def test_constant_ratio_closed_form(self, monkeypatch):
        expected = cp_batch(2.0, 50, 5).counts * math.log(1.2) - 2.0 * 0.2
        d = estimator_inputs(monkeypatch, matched_cp_spec(2.0), 50, 0.0, 5)
        np.testing.assert_allclose(d, expected, rtol=0.0, atol=TOL_EXACT)

    def test_truncated_compensator_uses_clipped_masses(self, monkeypatch):
        nu1 = CompoundPoissonMeasure(2.0, G01)
        eps = 0.3
        batch = cp_batch(1.0, 50, 6, epsilon=eps)
        assert batch.sizes.size > 0 and np.all(batch.sizes > eps)
        # masses above 0.3: 2 * 0.7 and 1 * 0.7; the log-ratio is log 2.
        expected = batch.counts * math.log(2.0) - 1.0 * (2.0 * 0.7 - 1.0 * 0.7)
        d = estimator_inputs(monkeypatch, sigma_zero_spec(nu1, CP10), 50, eps, 6)
        np.testing.assert_allclose(d, expected, rtol=0.0, atol=1e-10)

    def test_jump_off_reference_support(self):
        # Sizes above 1 land where the sampled measure has no density.
        stray = CompoundPoissonMeasure(1.0, _StrayingUniform(0.0, 1.0))
        assert np.any(cp_batch(1.0, 50, 1, nu=stray).sizes > 1.0)
        with pytest.raises(RatioUndefined):
            estimate_tv(sigma_zero_spec(stray, stray), 50, 0.0, 1)

    def test_unit_mean_of_exp_d(self):
        # sigma = 0 pair: M_T = exp(D_T); its empirical mean must cover 1.
        result = martingale_check(matched_cp_spec(), 400_000, 23)
        assert abs(result.mean - 1.0) < 4.0 * result.half_width_95


class TestSplitAPm:
    def test_equal_measures(self, monkeypatch):
        a_plus, a_minus = sinh_split(monkeypatch, sigma_zero_spec(CP10, CP10), 50, 7)
        assert a_plus.shape == (50,)
        assert np.all(a_plus == 0.0) and np.all(a_minus == 0.0)

    def test_constant_ratio_closed_form(self, monkeypatch):
        counts = cp_batch(1.0, 50, 9).counts
        a_plus, a_minus = sinh_split(monkeypatch, matched_cp_spec(), 50, 9)
        np.testing.assert_allclose(
            a_plus, counts * math.log(1.2), rtol=0.0, atol=TOL_EXACT
        )
        np.testing.assert_allclose(a_minus, -0.2, rtol=0.0, atol=TOL_EXACT)

    def test_pathwise_identity_on_tabulated_pairs(self, monkeypatch):
        spec = sigma_zero_spec(*tabulated_pair(), horizon=3.0)
        a_plus, a_minus = sinh_split(monkeypatch, spec, 40, 100)
        d = estimator_inputs(monkeypatch, spec, 40, 0.0, 100)
        assert np.all(a_plus >= 0.0) and np.all(a_minus <= 0.0)
        np.testing.assert_allclose(
            a_plus + a_minus, d, rtol=0.0, atol=1e-10 * max(1.0, np.abs(d).max())
        )

    def test_terms_assembly(self, monkeypatch):
        # Two chunks of a jump-diffusion pair: value_fn receives C_T + D_T,
        # D_T splits into the A+ and A- of the same jumps, and the rest is
        # C_T ~ N(-xi^2/2, xi^2), drawn on the chunks' Gaussian streams.
        spec = ProblemSpec(
            ProcessSpec(ConstantFunction(1.0), UNIT_VOL, CP12),
            ProcessSpec(ConstantFunction(0.5), UNIT_VOL, CP10),
            1.0,
        )
        n = 2 * CHUNK_PATHS
        x = estimator_inputs(monkeypatch, spec, n, 0.0, 11)
        a_plus, a_minus = sinh_split(monkeypatch, spec, n, 11)
        d = estimator_inputs(monkeypatch, sigma_zero_spec(CP12, CP10), n, 0.0, 11)
        assert x.shape == d.shape == a_plus.shape == (n,)
        assert np.all(a_plus >= 0.0) and np.all(a_minus <= 0.0)
        np.testing.assert_allclose(a_plus + a_minus, d, rtol=0.0, atol=1e-12)
        c, xi_sq = x - d, spec.xi_sq()
        assert abs(c.mean() + 0.5 * xi_sq) < 4.0 * math.sqrt(xi_sq / n)
        assert abs(c.var() - xi_sq) < 5.0 * xi_sq * math.sqrt(2.0 / n)


class TestEstimateTv:
    def test_identical_processes_are_exact(self):
        spec = ProblemSpec(
            ProcessSpec(ZERO_FN, ZERO_FN, CP10),
            ProcessSpec(ZERO_FN, ZERO_FN, CP10),
            1.0,
        )
        result = estimate_tv(spec, 20_000, 0.0, 1)
        assert result.mean == 0.0
        assert result.half_width_95 == 0.0

    def test_matches_gaussian_closed_form(self):
        result = estimate_tv(gaussian_spec(), 400_000, 0.0, 77)
        assert abs(result.mean - GAUSS_T4) < 4.0 * result.half_width_95

    def test_respects_both_bounds_on_cp_pair(self):
        spec = matched_cp_spec()
        result = estimate_tv(spec, 400_000, 0.0, 12345)
        slack = 4.0 * result.half_width_95
        assert result.mean <= bound_thm2(spec) + slack
        assert result.mean <= bound_thm1(spec) + slack
        assert 0.0 <= result.mean <= 2.0

    def test_positive_part_consistency(self):
        spec = matched_cp_spec()
        tv = estimate_tv(spec, 300_000, 0.0, 4242)
        # 2 (1 - M_T)^+ has the same mean as |1 - M_T| because E[M_T] = 1.
        pos = _estimate_ct_dt(
            spec, 300_000, 0.0, 4242, lambda x: 2.0 * np.maximum(-np.expm1(x), 0.0)
        )
        combined = 4.0 * (tv.half_width_95 + pos.half_width_95)
        assert abs(tv.mean - pos.mean) < combined

    def test_result_fields(self):
        result = estimate_tv(matched_cp_spec(), 10_000, 0.0, 99)
        assert isinstance(result, EstimateResult)
        assert result.n_paths == 10_000
        assert result.truncation_epsilon == 0.0
        assert result.seed == 99

    def test_epsilon_zero_needs_finite_activity(self):
        with pytest.raises(HypothesisFailed, match="requires finite-activity"):
            estimate_tv(unequal_c_ts_spec(), 100, 0.0, 1)

    def test_sigma_mismatch_rejected(self):
        spec = ProblemSpec(
            ProcessSpec(ZERO_FN, ConstantFunction(1.0), CP10),
            ProcessSpec(ZERO_FN, ConstantFunction(2.0), CP10),
            1.0,
        )
        with pytest.raises(HypothesisFailed, match="sigma mismatch"):
            estimate_tv(spec, 100, 0.0, 1)

    def test_degenerate_volatility_rejected(self):
        vol = PiecewiseConstantFunction((0.5,), (0.0, 1.0))
        spec = ProblemSpec(
            ProcessSpec(ConstantFunction(1.0), vol, CP10),
            ProcessSpec(ZERO_FN, vol, CP10),
            1.0,
        )
        with pytest.raises(HypothesisFailed, match="vanishes"):
            estimate_tv(spec, 100, 0.0, 1)

    def test_drift_mismatch_at_zero_volatility_rejected(self):
        spec = ProblemSpec(
            ProcessSpec(ConstantFunction(1.0), ZERO_FN, CP10),
            ProcessSpec(ZERO_FN, ZERO_FN, CP10),
            1.0,
        )
        with pytest.raises(HypothesisFailed, match="drift mismatch"):
            estimate_tv(spec, 100, 0.0, 1)

    def test_absolute_continuity_violation_rejected(self):
        wide = CompoundPoissonMeasure(1.0, UniformDensity(0.0, 2.0))
        spec = ProblemSpec(
            ProcessSpec(ConstantFunction(0.5), ZERO_FN, wide),
            ProcessSpec(ZERO_FN, ZERO_FN, CP10),
            1.0,
        )
        with pytest.raises(NotAbsolutelyContinuous):
            estimate_tv(spec, 100, 0.0, 1)

    def test_invalid_arguments(self):
        spec = matched_cp_spec()
        with pytest.raises(ValueError):
            estimate_tv(spec, 0, 0.0, 1)
        with pytest.raises(ValueError):
            estimate_tv(spec, 100, -0.5, 1)

    def test_thread_count_does_not_change_bits(self, monkeypatch):
        spec = matched_cp_spec()
        monkeypatch.setenv("ADDGAP_THREADS", "1")
        serial = estimate_tv(spec, 50_000, 0.0, 42)
        monkeypatch.setenv("ADDGAP_THREADS", "8")
        threaded = estimate_tv(spec, 50_000, 0.0, 42)
        assert serial == threaded

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_tempered_stable_golden_bits(self, monkeypatch, threads):
        monkeypatch.setenv("ADDGAP_THREADS", threads)
        spec = unequal_c_ts_spec()
        for epsilon, (mean, half_width) in TS_GOLDEN.items():
            result = estimate_tv(spec, 24676, epsilon, 3)
            assert result.mean.hex() == mean
            assert result.half_width_95.hex() == half_width

    def test_truncated_proxy_for_infinite_activity(self):
        ts1 = TemperedStableMeasure(1.0, 1.5, 1.0, 1.0, 0.5)
        ts2 = TemperedStableMeasure(1.0, 1.0, 2.0, 2.0, 0.5)
        spec = ProblemSpec(
            ProcessSpec(ZERO_FN, UNIT_VOL, ts1),
            ProcessSpec(ZERO_FN, UNIT_VOL, ts2),
            1.0,
        )
        result = estimate_tv(spec, 20_000, 1e-2, 5)
        assert result.truncation_epsilon == 1e-2
        assert 0.0 < result.mean < 2.0


class TestMartingaleCheck:
    def test_identical_processes_give_exact_one(self):
        spec = ProblemSpec(
            ProcessSpec(ZERO_FN, UNIT_VOL, CP10),
            ProcessSpec(ZERO_FN, UNIT_VOL, CP10),
            1.0,
        )
        result = martingale_check(spec, 20_000, 1)
        assert result.mean == 1.0

    def test_gaussian_only(self):
        spec = gaussian_spec(gap=1.0, horizon=1.0)
        result = martingale_check(spec, 400_000, 31)
        assert abs(result.mean - 1.0) < 4.0 * result.half_width_95

    def test_jump_diffusion(self):
        spec = ProblemSpec(
            ProcessSpec(ConstantFunction(1.0), UNIT_VOL, CP12),
            ProcessSpec(ConstantFunction(0.5), UNIT_VOL, CP10),
            1.0,
        )
        result = martingale_check(spec, 400_000, 11)
        assert abs(result.mean - 1.0) < 4.0 * result.half_width_95


class TestSinhOracle:
    def test_identical_measures_give_exact_zero(self):
        spec = ProblemSpec(
            ProcessSpec(ZERO_FN, ZERO_FN, CP10),
            ProcessSpec(ZERO_FN, ZERO_FN, CP10),
            1.0,
        )
        assert estimate_sinh_oracle(spec, 20_000, 1).mean == 0.0

    @pytest.mark.parametrize(
        "horizon,target", [(1.0, TWO_SINH_02), (2.0, TWO_SINH_04)]
    )
    def test_matches_two_sinh(self, horizon, target):
        result = estimate_sinh_oracle(matched_cp_spec(horizon), 400_000, 999)
        assert abs(result.mean - target) < 4.0 * result.half_width_95

    def test_infinite_activity_rejected(self):
        ts = TemperedStableMeasure(1.0, 1.0, 2.0, 2.0, 0.5)
        spec = ProblemSpec(
            ProcessSpec(ZERO_FN, UNIT_VOL, ts),
            ProcessSpec(ZERO_FN, UNIT_VOL, ts),
            1.0,
        )
        with pytest.raises(HypothesisFailed):
            estimate_sinh_oracle(spec, 100, 1)

    def test_positive_path_count_required(self):
        with pytest.raises(ValueError):
            estimate_sinh_oracle(matched_cp_spec(), 0, 1)


class TestPathwiseSplitting:
    def test_inequality_on_simulated_paths(self, monkeypatch):
        # |1 - e^{c+d}| <= (1+e^c)/2 |1-e^d| + (1+e^d)/2 |1-e^c| pathwise,
        # for the C_T of a Gaussian pair and the D_T of a jump pair.
        n = 4096
        c = estimator_inputs(monkeypatch, gaussian_spec(0.4, 1.0), n, 0.0, 17)
        d = estimator_inputs(monkeypatch, matched_cp_spec(), n, 0.0, 17)
        lhs = np.abs(-np.expm1(c + d))
        rhs = 0.5 * (1.0 + np.exp(c)) * np.abs(np.expm1(d)) + 0.5 * (
            1.0 + np.exp(d)
        ) * np.abs(np.expm1(c))
        assert np.all(lhs <= rhs * (1.0 + 1e-12) + 1e-15)


class TestChunkReduction:
    def test_mean_replays_stream_layout(self):
        # Rebuild the estimate by hand from the documented stream layout
        # (jumps on 2j, chunk partials folded in index order) and demand
        # bit equality with the estimator output.
        spec = matched_cp_spec()
        n, seed, horizon = 20_000, 42, 1.0
        mass_gap = CP12.total_mass() - CP10.total_mass()
        partials = []
        for j, start in enumerate(range(0, n, CHUNK_PATHS)):
            m = min(CHUNK_PATHS, n - start)
            batch = sample_jump_batch(CP10, horizon, m, RngStream(seed, 2 * j), 0.0)
            log_ratio = CP12.log_density(batch.sizes) - CP10.log_density(batch.sizes)
            d = path_sums(batch, log_ratio) - horizon * mass_gap
            values = np.abs(np.expm1(d))
            partials.append(float(values.sum()))
        expected = math.fsum(partials) / n
        assert estimate_tv(spec, n, 0.0, seed).mean == expected

    @pytest.mark.parametrize("value", [math.inf, 1e304, math.nan], ids=["inf", "1e304", "nan"])
    def test_refuses_values_that_overflow(self, value):
        # 1e304 keeps each chunk's sum finite, but not its sum of squares,
        # nor the fsum of three chunk sums.
        with pytest.raises(HypothesisFailed, match="^the path values overflow: their sum or"):
            _reduce_chunks(3 * CHUNK_PATHS, 0.0, 1, lambda rj, rg, m: np.full(m, value))

    def test_refuses_a_sum_whose_square_overflows(self):
        # The sum (4.1e154) and the sum of squares (4.1e305) are finite, but
        # the square of the sum is not, and the variance would read 0.
        values = np.tile([1e151, 0.0], CHUNK_PATHS // 2)
        with pytest.raises(HypothesisFailed, match="^the path values overflow: the square of"):
            _reduce_chunks(CHUNK_PATHS, 0.0, 1, lambda rj, rg, m: values[:m])


def live_workers():
    return {t for t in threading.enumerate() if t.name.startswith("addgap-chunks")}


def pool_workers(limit, timeout=10.0):
    """The number of live chunk-pool workers, after waiting up to timeout
    seconds for workers of a pool that was shut down to drop it to limit."""
    deadline = time.monotonic() + timeout
    while len(live_workers()) > limit and time.monotonic() < deadline:
        time.sleep(0.01)
    return len(live_workers())


def fail_on_chunks_2_and_5(rng_jumps, rng_gauss, m):
    j = rng_jumps.stream_index // 2
    if j == 2:
        time.sleep(0.05)  # so chunk 5 fails first in time when both run
        raise ValueError("chunk 2")
    if j == 5:
        raise ValueError("chunk 5")
    return np.ones(m)


class TestWorkerPool:
    """One pool serves every estimate; it never changes a bit."""

    def test_estimates_reuse_the_pool(self, monkeypatch):
        monkeypatch.setenv("ADDGAP_THREADS", "2")
        spec = matched_cp_spec()
        first = estimate_tv(spec, 3 * CHUNK_PATHS, 0.0, 5)
        threads, workers = threading.active_count(), live_workers()
        assert len(workers) == 1
        for _ in range(50):
            assert estimate_tv(spec, 3 * CHUNK_PATHS, 0.0, 5) == first
        assert (threading.active_count(), live_workers()) == (threads, workers)

    def test_thread_count_changes_keep_bits_and_bound_workers(self, monkeypatch):
        spec = two_sided_ig_spec()
        results = []
        for threads in (3, 2, 1, 3):
            monkeypatch.setenv("ADDGAP_THREADS", str(threads))
            results.append(estimate_tv(spec, 5 * CHUNK_PATHS, 0.0, 11))
            assert pool_workers(threads - 1) <= threads - 1
        assert all(result == results[0] for result in results)

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_lowest_failing_chunk_raises(self, monkeypatch, threads):
        monkeypatch.setenv("ADDGAP_THREADS", threads)
        with pytest.raises(ValueError, match="^chunk 2$"):
            _reduce_chunks(7 * CHUNK_PATHS, 0.0, 1, fail_on_chunks_2_and_5)
        result = _reduce_chunks(7 * CHUNK_PATHS, 0.0, 1, lambda rj, rg, m: np.ones(m))
        assert (result.mean, result.half_width_95) == (1.0, 0.0)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_rebuilds_the_pool(self, monkeypatch):
        monkeypatch.setenv("ADDGAP_THREADS", "2")
        spec = two_sided_ig_spec()
        parent = estimate_tv(spec, 3 * CHUNK_PATHS, 0.0, 13)
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: report its estimate and leave at once
            code = 1
            try:
                os.close(read_end)
                child = estimate_tv(spec, 3 * CHUNK_PATHS, 0.0, 13)
                os.write(write_end, f"{child.mean.hex()} {child.half_width_95.hex()}".encode())
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        deadline = time.monotonic() + 60.0
        finished, status = os.waitpid(pid, os.WNOHANG)
        while not finished and time.monotonic() < deadline:
            time.sleep(0.01)
            finished, status = os.waitpid(pid, os.WNOHANG)
        if not finished:  # a child stuck on the parent's dead workers
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        with os.fdopen(read_end, "rb") as pipe:
            reported = pipe.read().decode()
        assert finished == pid and os.waitstatus_to_exitcode(status) == 0
        assert reported == f"{parent.mean.hex()} {parent.half_width_95.hex()}"

    def test_default_thread_count_is_the_affinity(self, monkeypatch):
        monkeypatch.delenv("ADDGAP_THREADS", raising=False)
        if hasattr(os, "sched_getaffinity"):
            assert _thread_count() == len(os.sched_getaffinity(0))
        else:
            assert _thread_count() == (os.cpu_count() or 1)


def ig_specs():
    """Same-shape alpha = 1/2 pairs: the bundled config, the golden battery's
    ts_same_shape_poly_drift and a pair differing on both sides."""
    return {
        "bundled": parse_config(CONFIG_DIR / "tempered_stable.json").problem,
        "poly_drift": ProblemSpec(
            ProcessSpec(
                PolynomialFunction((0.1, 0.5)), UNIT_VOL,
                TemperedStableMeasure(1.0, 1.0, 1.0, 2.0, 0.5),
            ),
            ProcessSpec(ZERO_FN, UNIT_VOL, TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, 0.5)),
            1.0,
        ),
        "two_sided": two_sided_ig_spec(),
    }


class TestExactInverseGaussian:
    """Same-shape alpha = 1/2 tempered-stable pairs draw D_T exactly."""

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_golden_bits(self, monkeypatch, threads):
        monkeypatch.setenv("ADDGAP_THREADS", threads)
        results = {
            "tv_bundled": estimate_tv(ig_specs()["bundled"], 24676, 0.0, 3),
            "martingale_two_sided": martingale_check(two_sided_ig_spec(), 24676, 3),
        }
        for name, result in results.items():
            assert (result.mean.hex(), result.half_width_95.hex()) == IG_GOLDEN[name]
            assert result.truncation_epsilon == 0.0

    def test_epsilon_plays_no_part(self, monkeypatch):
        # No jump is drawn, so neither the chunk-jump limit nor the size
        # table is consulted, and every epsilon gives the same bits.
        monkeypatch.setattr(montecarlo, "stream_jump_sums", never_sample)
        monkeypatch.setattr(montecarlo, "_jump_sums", never_sample)
        spec = ig_specs()["bundled"]
        results = {estimate_tv(spec, 20_000, eps, 8) for eps in (0.0, 1e-12, 1e-4, 0.5)}
        assert len(results) == 1
        assert results.pop().truncation_epsilon == 0.0

    @pytest.mark.parametrize("epsilon", [-1e-3, math.nan, math.inf])
    def test_bad_epsilon_still_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
            estimate_tv(ig_specs()["bundled"], 100, epsilon, 1)

    def test_identical_measures_are_exact(self):
        ts = TemperedStableMeasure(1.0, 1.0, 2.0, 2.0, 0.5)
        spec = sigma_zero_spec(ts, ts)
        assert estimate_tv(spec, 1000, 0.0, 1).mean == 0.0
        assert martingale_check(spec, 1000, 1).mean == 1.0

    def test_replays_stream_layout(self, monkeypatch):
        # Chunk j draws the negative side's inverse Gaussian sums, then the
        # positive side's, on its jump stream 2j; D_T is the shift minus
        # (lambda1 - lambda2) times each sum.
        spec = sigma_zero_spec(
            TemperedStableMeasure(0.7, 1.3, 1.5, 2.0, 0.5),
            TemperedStableMeasure(0.7, 1.3, 1.0, 0.8, 0.5),
        )
        n, seed = 20_000, 42
        shift = -math.gamma(-0.5) * (
            0.7 * (math.sqrt(1.5) - 1.0) + 1.3 * (math.sqrt(2.0) - math.sqrt(0.8))
        )
        expected = []
        for j, start in enumerate(range(0, n, CHUNK_PATHS)):
            m = min(CHUNK_PATHS, n - start)
            gen = RngStream(seed, 2 * j).generator
            s_minus = 0.7 * gen.wald(math.sqrt(math.pi), 2.0 * math.pi * 0.7, m)
            s_plus = 1.3 * gen.wald(math.sqrt(math.pi / 0.8), 2.0 * math.pi * 1.3, m)
            expected.append(shift - 0.5 * s_minus - 1.2 * s_plus)
        d = estimator_inputs(monkeypatch, spec, n, 0.0, seed)
        np.testing.assert_allclose(d, np.concatenate(expected), rtol=0.0, atol=1e-12)

    def test_oracle_value_of_the_bundled_pair(self):
        value, error = exact_ts_l1(ig_specs()["bundled"])
        assert abs(value - 0.5277703) < 5e-8
        assert error < 1e-10

    @pytest.mark.parametrize("name", ["bundled", "poly_drift", "two_sided"])
    def test_estimate_matches_oracle(self, name):
        spec = ig_specs()[name]
        result = estimate_tv(spec, 1 << 20, 0.0, 2024)
        value, _ = exact_ts_l1(spec)
        assert abs(result.mean - value) < 4.0 * result.half_width_95

    @pytest.mark.parametrize("name", ["bundled", "poly_drift", "two_sided"])
    def test_martingale_covers_one(self, name):
        result = martingale_check(ig_specs()[name], 1 << 20, 77)
        assert abs(result.mean - 1.0) < 4.0 * result.half_width_95


def counted_specs():
    """Compound Poisson pairs whose log-ratio is one constant, with the
    epsilon each estimate_tv runs at."""
    inner = CompoundPoissonMeasure(1.0, UniformDensity(0.2, 0.7))
    return {
        "cp_bundled": (parse_config(CONFIG_DIR / "compound_poisson.json").problem, 0.0),
        "jd_bundled": (parse_config(CONFIG_DIR / "jump_diffusion.json").problem, 0.0),
        "cp_epsilon": (parse_config(CONFIG_DIR / "compound_poisson.json").problem, 0.3),
        "lambda1_below": (sigma_zero_spec(CompoundPoissonMeasure(0.8, G01), CP12), 0.0),
        # nu1 carries mass off nu2's support: every estimator refuses it.
        "inner_support": (sigma_zero_spec(CompoundPoissonMeasure(2.0, G01), inner), 0.0),
    }


def estimate_outcomes(spec, epsilon, n_paths, seed):
    """Hex (mean, half-width) or (exception type, message) of each estimator;
    the martingale runs at the estimate's epsilon."""

    def outcome(fn, *args):
        try:
            result = fn(*args)
        except (HypothesisFailed, NotAbsolutelyContinuous) as exc:
            return type(exc).__name__, str(exc)
        return result.mean.hex(), result.half_width_95.hex()

    return {
        "tv": outcome(estimate_tv, spec, n_paths, epsilon, seed),
        "martingale": outcome(_estimate_ct_dt, spec, n_paths, epsilon, seed, np.exp),
        "sinh": outcome(estimate_sinh_oracle, spec, n_paths, seed),
    }


def no_sizes(*args, **kwargs):
    raise AssertionError("a constant log-ratio draws no jump size")


def generic_law(nu1, nu2):
    """``pair_jump_law`` as if no pair had a constant log-ratio."""
    return JumpLaw("generic", pair_log_ratio(nu1, nu2))


class TestCountedJumpParts:
    """Pairs with a constant log-ratio draw their counts and no sizes, with
    every bit of the estimates that weigh each jump."""

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    @pytest.mark.parametrize("name", sorted(counted_specs()))
    def test_same_bits_as_weighing_each_jump(self, monkeypatch, threads, name):
        spec, epsilon = counted_specs()[name]
        nu1, nu2 = spec.process1.levy, spec.process2.levy
        assert pair_jump_law(nu1, nu2).kind == "constant"
        monkeypatch.setenv("ADDGAP_THREADS", threads)
        with monkeypatch.context() as patch:
            patch.setattr(simulate._RejectionSizes, "fill", no_sizes)
            counted = estimate_outcomes(spec, epsilon, 24676, 3)
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "pair_jump_law", generic_law)
            streamed = estimate_outcomes(spec, epsilon, 24676, 3)
        assert counted == streamed
        refused = name == "inner_support"
        assert all((v[0] == "NotAbsolutelyContinuous") == refused for v in counted.values())


def heavy_ts_spec():
    """tempered_stable.json with alpha = 1.5 and sigma^2 = 1 on both sides:
    a valid pair whose default truncation expects ~1.1e10 jumps per chunk."""
    raw = json.loads((CONFIG_DIR / "tempered_stable.json").read_text())
    for key in ("process1", "process2"):
        raw[key]["levy"]["alpha"] = 1.5
        raw[key]["vol_sq"]["c"] = 1.0
    return parse_config_dict(raw).problem


def never_sample(*args, **kwargs):
    raise AssertionError("the guard must refuse before any jump is drawn")


def test_never_sample_patches_the_sampling_entry_point(monkeypatch):
    # The guard tests below patch montecarlo.stream_jump_sums; a chunk
    # worker that drew its jumps any other way would slip past them.
    monkeypatch.setattr(montecarlo, "stream_jump_sums", never_sample)
    with pytest.raises(AssertionError, match="before any jump is drawn"):
        estimate_tv(matched_cp_spec(), 10, 0.0, 1)
    with pytest.raises(AssertionError, match="before any jump is drawn"):
        estimate_sinh_oracle(matched_cp_spec(), 10, 1)


def gate(nu2, horizon, epsilon, n_paths, nu1=CP10):
    """The compensator gap that the estimators' finite-mass gate,
    ``_jump_sums``, returns for (nu1, nu2); raises its refusal."""
    _, gap = _jump_sums(
        nu1, nu2, generic_law(nu1, nu2), horizon, n_paths, epsilon, lambda ratio: (ratio,)
    )
    return gap


class TestChunkJumpGuard:
    def test_expected_jumps_arithmetic(self):
        # A compound Poisson chunk expects exactly lambda * T * paths jumps.
        assert MAX_CHUNK_JUMPS == 2**25
        at_limit = CompoundPoissonMeasure(MAX_CHUNK_JUMPS / CHUNK_PATHS, G01)
        above = CompoundPoissonMeasure(MAX_CHUNK_JUMPS / CHUNK_PATHS + 1.0, G01)
        assert gate(at_limit, 1.0, 0.0, 100_000) == 1.0 - MAX_CHUNK_JUMPS / CHUNK_PATHS
        gate(above, 0.5, 0.0, 100_000)
        with pytest.raises(HypothesisFailed, match="3.36e\\+07 jumps in a chunk of 8192"):
            gate(above, 1.0, 0.0, 100_000)
        # A run shorter than one chunk expects jumps for its own paths.
        gate(above, 1.0, 0.0, 8000)
        with pytest.raises(HypothesisFailed, match="in a chunk of 100 paths"):
            gate(above, 1000.0, 0.0, 100)

    def test_bundled_tempered_stable_fits(self):
        # Its largest chunk at the default epsilon expects about 3.2e6 jumps.
        spec = parse_config(CONFIG_DIR / "tempered_stable.json").problem
        nu1, nu2 = spec.process1.levy, spec.process2.levy
        gap = gate(nu2, 10.0, 1e-4, 100_000, nu1)
        assert gap == nu1.mass_above(1e-4) - nu2.mass_above(1e-4)
        with pytest.raises(HypothesisFailed):
            gate(nu2, 11.0, 1e-4, 100_000, nu1)

    def test_estimators_refuse_before_drawing(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "stream_jump_sums", never_sample)
        spec = heavy_ts_spec()
        message = (
            r"epsilon = 0\.0001 expects 1\.09e\+10 jumps in a chunk of 8192 paths,"
            r" above the limit of 33554432"
        )
        with pytest.raises(HypothesisFailed, match=message):
            estimate_tv(spec, 100_000, 1e-4, 1)
        with pytest.raises(HypothesisFailed, match=message):
            martingale_check(spec, 100_000, 1)

    def test_sinh_oracle_guards_its_chunks(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "stream_jump_sums", never_sample)
        heavy = CompoundPoissonMeasure(1e5, G01)
        spec = ProblemSpec(
            ProcessSpec(ZERO_FN, ZERO_FN, heavy), ProcessSpec(ZERO_FN, ZERO_FN, heavy), 1.0
        )
        with pytest.raises(HypothesisFailed, match="8.19e\\+08 jumps"):
            estimate_sinh_oracle(spec, 100_000, 1)


class _InfiniteMassMeasure(CompoundPoissonMeasure):
    """The density of a compound Poisson measure with an infinite mass
    above every epsilon: the gates must read the mass, not the family."""

    def total_mass(self):
        return math.inf

    def mass_above(self, epsilon):
        return math.inf


class TestFiniteMassGate:
    NU = _InfiniteMassMeasure(1.0, G01)

    @pytest.mark.parametrize("vol", [ZERO_FN, UNIT_VOL])
    @pytest.mark.parametrize(
        "nu1, nu2", [(NU, NU), (NU, CP10), (CP10, NU)], ids=["both", "nu1", "nu2"]
    )
    def test_estimators_refuse_before_drawing(self, monkeypatch, vol, nu1, nu2):
        monkeypatch.setattr(montecarlo, "stream_jump_sums", never_sample)
        spec = ProblemSpec(ProcessSpec(ZERO_FN, vol, nu1), ProcessSpec(ZERO_FN, vol, nu2), 1.0)
        assert default_epsilon(spec) == 1e-4  # martingale_check's epsilon meets the gate too
        message = r"^epsilon = 0 requires finite-activity measures; pass epsilon > 0$"
        with pytest.raises(HypothesisFailed, match=message):
            estimate_tv(spec, 100, 0.0, 1)
        with pytest.raises(HypothesisFailed, match=message):
            martingale_check(spec, 100, 1)
        with pytest.raises(HypothesisFailed, match="^finite-activity pair required$"):
            estimate_sinh_oracle(spec, 100, 1)

    def test_sampler_raises_divergent_mass(self):
        process = ProcessSpec(ZERO_FN, ZERO_FN, self.NU)
        with pytest.raises(DivergentMass, match="epsilon = 0 needs a finite-activity measure"):
            sample_terminal_values(process, 1.0, 10, epsilon=0.0, rng_jumps=RngStream(1, 0))
