"""Tests for the likelihood-ratio functionals and Monte Carlo estimators."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from addgap.bounds import bound_thm1, bound_thm2, gaussian_tv_exact, normal_cdf
from addgap import montecarlo
from addgap.config import parse_config, parse_config_dict
from addgap.errors import (
    HypothesisFailed,
    NotAbsolutelyContinuous,
    RatioUndefined,
)
from addgap.measures import (
    CompoundPoissonMeasure,
    TabulatedLevyMeasure,
    TemperedStableMeasure,
    UniformDensity,
    ZeroMeasure,
)
from addgap.montecarlo import (
    CHUNK_PATHS,
    MAX_CHUNK_JUMPS,
    EstimateResult,
    _check_chunk_jumps,
    _estimate_ct_dt,
    e_abs_one_minus_exp_normal,
    estimate_sinh_oracle,
    estimate_tv,
    martingale_check,
)
from addgap.processes import (
    ConstantFunction,
    PiecewiseConstantFunction,
    ProblemSpec,
    ProcessSpec,
)
from addgap.simulate import RngStream, sample_jump_batch

from _oracles import (
    EABS_1_2,
    GAUSS_T4,
    TWO_SINH_02,
    TWO_SINH_04,
    estimator_inputs,
    path_sums,
)

TOL_EXACT = 1e-12

G01 = UniformDensity(0.0, 1.0)
CP12 = CompoundPoissonMeasure(1.2, G01)
CP10 = CompoundPoissonMeasure(1.0, G01)
ZERO_FN = ConstantFunction(0.0)
UNIT_VOL = ConstantFunction(1.0)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# estimate_tv(configs/tempered_stable.json, 24676 paths, epsilon, seed 3):
# (mean, 95% half-width) as hex floats, recorded with the size table
# searched by plain binary search and the log-ratio taken as two
# log-density passes.  24676 paths are three full chunks and a partial one.
TS_GOLDEN = {
    1e-2: ("0x1.0b8671bdc8fabp-1", "0x1.2503e43fe0a1ap-8"),
    1e-3: ("0x1.0ce904ead6a5fp-1", "0x1.2458dcaab49ebp-8"),
    1e-4: ("0x1.0d6342784d8e9p-1", "0x1.24e49cd93fc60p-8"),
}


def matched_cp_spec(horizon=1.0):
    """sigma = 0 compound Poisson pair with the drift gap equal to eta."""
    p1 = ProcessSpec(ConstantFunction(0.1), ZERO_FN, CP12)
    p2 = ProcessSpec(ZERO_FN, ZERO_FN, CP10)
    return ProblemSpec(p1, p2, horizon)


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
        ts = TemperedStableMeasure(1.0, 1.0, 2.0, 2.0, 0.5)
        spec = ProblemSpec(
            ProcessSpec(ZERO_FN, UNIT_VOL, ts),
            ProcessSpec(ZERO_FN, UNIT_VOL, ts),
            1.0,
        )
        with pytest.raises(HypothesisFailed):
            estimate_tv(spec, 100, 0.0, 1)

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
        spec = parse_config(CONFIG_DIR / "tempered_stable.json").problem
        for epsilon, (mean, half_width) in TS_GOLDEN.items():
            result = estimate_tv(spec, 24676, epsilon, 3)
            assert result.mean.hex() == mean
            assert result.half_width_95.hex() == half_width

    def test_truncated_proxy_for_infinite_activity(self):
        ts1 = TemperedStableMeasure(1.0, 1.0, 1.0, 1.0, 0.5)
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


class TestChunkJumpGuard:
    def test_expected_jumps_arithmetic(self):
        # A compound Poisson chunk expects exactly lambda * T * paths jumps.
        assert MAX_CHUNK_JUMPS == 2**25
        at_limit = CompoundPoissonMeasure(MAX_CHUNK_JUMPS / CHUNK_PATHS, G01)
        above = CompoundPoissonMeasure(MAX_CHUNK_JUMPS / CHUNK_PATHS + 1.0, G01)
        _check_chunk_jumps(at_limit, 1.0, 0.0, 100_000)
        _check_chunk_jumps(above, 0.5, 0.0, 100_000)
        with pytest.raises(HypothesisFailed, match="3.36e\\+07 jumps in a chunk of 8192"):
            _check_chunk_jumps(above, 1.0, 0.0, 100_000)
        # A run shorter than one chunk expects jumps for its own paths.
        _check_chunk_jumps(above, 1.0, 0.0, 8000)
        with pytest.raises(HypothesisFailed, match="in a chunk of 100 paths"):
            _check_chunk_jumps(above, 1000.0, 0.0, 100)

    def test_bundled_tempered_stable_fits(self):
        # Its largest chunk at the default epsilon expects about 3.2e6 jumps.
        spec = parse_config(CONFIG_DIR / "tempered_stable.json").problem
        nu2 = spec.process2.levy
        _check_chunk_jumps(nu2, 10.0, 1e-4, 100_000)
        with pytest.raises(HypothesisFailed):
            _check_chunk_jumps(nu2, 11.0, 1e-4, 100_000)

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
