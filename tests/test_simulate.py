"""Tests for the path samplers: streams, jump batches, C_T, terminals."""

import dataclasses
import hashlib
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import stats

from addgap import simulate
from addgap.config import parse_config
from addgap.errors import DivergentMass, HypothesisFailed
from addgap.measures import (
    CompoundPoissonMeasure,
    ExponentialDensity,
    NormalDensity,
    TabulatedDensity,
    TabulatedLevyMeasure,
    TemperedStableMeasure,
    UniformDensity,
    ZeroMeasure,
    gamma_nu,
    pair_log_ratio,
)
from addgap.montecarlo import estimate_tv
from addgap.processes import (
    ConstantFunction,
    PiecewiseConstantFunction,
    ProblemSpec,
    ProcessSpec,
    char_function,
)
from addgap.quadrature import integrate_fn
from addgap.simulate import (
    DEFAULT_EPSILON,
    RngStream,
    inverse_gaussian_sums,
    sample_jump_batch,
    sample_terminal_values,
    stream_jump_sums,
)
from addgap.simulate import (
    _compensator_shift,
    _mass_above,
    _RejectionSizes,
    _size_table,
    _SizeTable,
    _TableSizes,
)

from _oracles import estimator_inputs, path_sums


def table_draw(table, n, gen, block=None):
    """n draws from a size table, filled ``block`` at a time (default: one
    block)."""
    block = block or max(n, 1)
    out = np.empty(n)
    source = _TableSizes(table, gen, block)
    for start in range(0, n, block):
        source.fill(out[start : start + block])
    return out

TOL_EXACT = 1e-12
TOL_CLOSED = 1e-9
KS_ALPHA = 1e-3

CP_U01 = CompoundPoissonMeasure(3.0, UniformDensity(0.0, 1.0))
TS_SYM = TemperedStableMeasure(1.0, 1.0, 2.0, 2.0, 0.5)
TS_ASYM = TemperedStableMeasure(1.0, 2.0, 3.0, 3.0, 0.5)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


# math.fsum of the 256 terminal values of each bundled process (rng_jumps
# RngStream(7, 2k), rng_gauss RngStream(7, 2k + 1), default epsilon), and
# the first 16 hex digits of the SHA-256 of their bytes.
TERMINAL_GOLDEN = {
    ("compound_poisson", 1): ("0x1.fc756f390e7c8p+7", "6d030e58fa1c5b26"),
    ("compound_poisson", 2): ("0x1.32a1785af92adp+7", "2f878d1ac66a7ea5"),
    ("jump_diffusion", 1): ("0x1.f35a766c3d380p+5", "917fdf1919ebc324"),
    ("jump_diffusion", 2): ("0x1.4ef2c559d1d03p+4", "5d51dc26f4efe013"),
    ("tempered_stable", 1): ("-0x1.2e30a8d00665fp+7", "782fe46ad2e3a72d"),
    ("tempered_stable", 2): ("-0x1.4bd58050bbbf4p+4", "ed4053da6cfe8824"),
}


def ks_critical(n):
    """Kolmogorov-Smirnov critical value at significance KS_ALPHA."""
    return math.sqrt(-math.log(KS_ALPHA / 2.0) / (2.0 * n))


def zero_measure_spec(drift1, drift2, vol_sq, horizon=1.0):
    p1 = ProcessSpec(ConstantFunction(drift1), vol_sq, ZeroMeasure())
    p2 = ProcessSpec(ConstantFunction(drift2), vol_sq, ZeroMeasure())
    return ProblemSpec(p1, p2, horizon)


class TestRngStream:
    def test_replays_from_the_start(self):
        a = RngStream(42, 7).generator.random(16)
        b = RngStream(42, 7).generator.random(16)
        assert np.array_equal(a, b)

    def test_key_packs_index_above_seed(self):
        drawn = RngStream(42, 7).generator.random(8)
        direct = np.random.Generator(np.random.Philox(key=(7 << 64) | 42)).random(8)
        assert np.array_equal(drawn, direct)

    def test_streams_are_disjoint(self):
        a = RngStream(42, 0).generator.random(16)
        b = RngStream(42, 1).generator.random(16)
        assert not np.array_equal(a, b)

    def test_consecutive_draws_advance(self):
        stream = RngStream(3, 0)
        assert stream.generator.random() != stream.generator.random()

    @pytest.mark.parametrize("bad", [-1, 1 << 64, 0.5])
    def test_rejects_non_uint64(self, bad):
        with pytest.raises(ValueError):
            RngStream(bad, 0)
        with pytest.raises(ValueError):
            RngStream(0, bad)


class TestSampleJumpSize:
    def test_matches_density_sampler_on_fresh_stream(self):
        # A batch draws every Poisson count first, then one block of sizes
        # from the jump density on the same stream.
        density = UniformDensity(-2.0, 5.0)
        nu = CompoundPoissonMeasure(3.0, density)
        batch = sample_jump_batch(nu, 1.0, 40, RngStream(8, 3))
        gen = RngStream(8, 3).generator
        counts = gen.poisson(3.0, 40)
        direct = density.sample(gen, int(counts.sum()))
        assert np.array_equal(batch.counts, counts)
        assert np.array_equal(batch.sizes, direct)

    def test_exponential_draws_pass_ks(self):
        nu = CompoundPoissonMeasure(1.0, ExponentialDensity(2.5))
        draws = sample_jump_batch(nu, 1.0, 4000, RngStream(21, 0)).sizes
        result = stats.kstest(draws, stats.expon(scale=1.0 / 2.5).cdf)
        assert result.pvalue > KS_ALPHA


class TestSampleCompoundPoisson:
    def test_exact_record_shape(self):
        batch = sample_jump_batch(CP_U01, 2.0, 500, RngStream(1, 0))
        assert batch.n_paths == 500 and int(batch.counts.sum()) == batch.sizes.size
        assert not batch.counts.flags.writeable and not batch.sizes.flags.writeable
        assert np.all(batch.counts >= 0)
        assert np.all(batch.sizes != 0.0)

    def test_compensator_shift_closed_form(self):
        # uniform(0, 1) sizes: shift = -lambda * E[Y] = -3 * 0.5
        assert abs(_compensator_shift(CP_U01, 0.0) + 1.5) < TOL_CLOSED
        # exponential(1) sizes clipped at 1: -2 * (1 - 2/e)
        nu = CompoundPoissonMeasure(2.0, ExponentialDensity(1.0))
        assert abs(_compensator_shift(nu, 0.0) + 2.0 * (1.0 - 2.0 / math.e)) < 1e-8

    def test_count_mean_and_variance(self):
        horizon = 2.0
        counts = sample_jump_batch(CP_U01, horizon, 20_000, RngStream(100, 0)).counts
        lam_t = CP_U01.total_mass() * horizon
        se_mean = math.sqrt(lam_t / counts.size)
        assert abs(counts.mean() - lam_t) < 4.0 * se_mean
        # Poisson variance equals the mean; allow 5 standard errors.
        se_var = lam_t * math.sqrt(2.0 / counts.size)
        assert abs(counts.var() - lam_t) < 5.0 * se_var

    def test_sizes_follow_jump_density(self):
        pooled = sample_jump_batch(CP_U01, 1.0, 3000, RngStream(13, 0)).sizes
        result = stats.kstest(pooled, stats.uniform().cdf)
        assert result.pvalue > KS_ALPHA

    def test_zero_measure_gives_empty_record(self):
        batch = sample_jump_batch(ZeroMeasure(), 5.0, 10, RngStream(1, 0))
        assert not batch.counts.any() and _compensator_shift(ZeroMeasure(), 0.0) == 0.0

    def test_infinite_activity_rejected(self):
        with pytest.raises(DivergentMass):
            sample_jump_batch(TS_SYM, 1.0, 1, RngStream(1, 0))

    def test_deterministic_replay(self):
        a = sample_jump_batch(CP_U01, 1.0, 50, RngStream(5, 9))
        b = sample_jump_batch(CP_U01, 1.0, 50, RngStream(5, 9))
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.sizes, b.sizes)


class TestSampleTruncatedJumps:
    def test_epsilon_zero_infinite_activity_diverges(self):
        with pytest.raises(DivergentMass):
            sample_jump_batch(TS_SYM, 1.0, 1, RngStream(1, 0), 0.0)

    def test_epsilon_zero_finite_activity_is_exact(self):
        batch = sample_jump_batch(CP_U01, 1.0, 1, RngStream(1, 0), 0.0)
        assert int(batch.counts.sum()) == batch.sizes.size

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            sample_jump_batch(TS_SYM, 1.0, 1, RngStream(1, 0), -0.1)

    def test_sizes_exceed_threshold(self):
        eps = 1e-2
        batch = sample_jump_batch(TS_SYM, 1.0, 20, RngStream(3, 0), eps)
        assert batch.sizes.size > 0
        assert np.all(np.abs(batch.sizes) > eps)
    def test_count_matches_truncated_intensity(self):
        eps, horizon = 0.05, 1.0
        batch = sample_jump_batch(TS_SYM, horizon, 50_000, RngStream(17, 0), eps)
        lam_t = TS_SYM.mass_above(eps) * horizon
        se = math.sqrt(lam_t / batch.n_paths)
        assert abs(batch.counts.mean() - lam_t) < 4.0 * se

    def test_magnitudes_follow_truncated_measure(self):
        eps = 0.05
        batch = sample_jump_batch(TS_ASYM, 1.0, 4000, RngStream(23, 0), eps)
        mags = np.sort(np.abs(batch.sizes))
        lam = TS_ASYM.mass_above(eps)
        grid = np.geomspace(eps, 60.0, 600)
        cdf = 1.0 - np.array([TS_ASYM.mass_above(m) for m in grid]) / lam
        model = np.interp(np.log(mags), np.log(grid), cdf)
        ecdf_hi = np.arange(1, mags.size + 1) / mags.size
        gap = max(np.max(np.abs(model - ecdf_hi)),
                  np.max(np.abs(model - (ecdf_hi - 1.0 / mags.size))))
        assert gap < ks_critical(mags.size)

    def test_sign_split_matches_mass_ratio(self):
        eps = 0.05
        batch = sample_jump_batch(TS_ASYM, 1.0, 20_000, RngStream(29, 0), eps)
        lam = TS_ASYM.mass_above(eps)
        pos_mass = integrate_fn(lambda y: TS_ASYM.density(y), eps, 80.0).value
        p = pos_mass / lam
        frac = np.mean(batch.sizes > 0)
        se = math.sqrt(p * (1.0 - p) / batch.sizes.size)
        assert abs(frac - p) < 4.0 * se

    def test_compensator_shift_oracle(self):
        # -integral of y over {eps < |y| <= 1} for the asymmetric pair of
        # tempered-stable sides, evaluated in extended precision.
        eps = 0.05
        with mpmath.workdps(40):
            density = lambda y: mpmath.mpf(y) ** mpmath.mpf(-1.5) * mpmath.e ** (
                -3 * mpmath.mpf(y)
            )
            pos = mpmath.quad(lambda y: y * 2 * density(y), [eps, 1])
            neg = mpmath.quad(lambda y: y * density(y), [eps, 1])
            expected = -float(pos - neg)
        assert abs(_compensator_shift(TS_ASYM, eps) - expected) < 1e-8

    def test_symmetric_measure_has_zero_shift(self):
        assert abs(_compensator_shift(TS_SYM, 0.01)) < 1e-10

    def test_epsilon_beyond_support_gives_empty_record(self):
        batch = sample_jump_batch(CP_U01, 1.0, 100, RngStream(1, 0), 2.0)
        assert not batch.counts.any() and _compensator_shift(CP_U01, 2.0) == 0.0

    def test_deterministic_replay(self):
        a = sample_jump_batch(TS_SYM, 1.0, 20, RngStream(37, 4), 1e-2)
        b = sample_jump_batch(TS_SYM, 1.0, 20, RngStream(37, 4), 1e-2)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.sizes, b.sizes)


class TestJumpBatch:
    def test_moments_match_quadrature(self):
        eps, horizon = 0.01, 1.0
        batch = sample_jump_batch(TS_SYM, horizon, 100_000, RngStream(9, 0), eps)
        sums = path_sums(batch)
        second = 2.0 * integrate_fn(
            lambda y: y * y * TS_SYM.density(y), eps, 60.0
        ).value
        se_mean = sums.std() / math.sqrt(sums.size)
        assert abs(sums.mean()) < 4.0 * se_mean
        se_var = second * math.sqrt(2.0 / sums.size) * 2.0
        assert abs(sums.var() - horizon * second) < 5.0 * se_var

    def test_requires_positive_path_count(self):
        with pytest.raises(ValueError):
            sample_jump_batch(CP_U01, 1.0, 0, RngStream(1, 0))

    def test_deterministic_replay(self):
        a = sample_jump_batch(TS_SYM, 1.0, 500, RngStream(41, 2), 0.01)
        b = sample_jump_batch(TS_SYM, 1.0, 500, RngStream(41, 2), 0.01)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.sizes, b.sizes)


class TestSampleCT:
    # C_T of each path, as the estimators' value_fn receives it: with no
    # jumps, C_T + D_T is C_T.
    def test_infinite_xi_sq_rejected(self):
        vol = PiecewiseConstantFunction((0.5,), (0.0, 1.0))
        spec = zero_measure_spec(1.0, 0.0, vol)
        with pytest.raises(HypothesisFailed):
            estimate_tv(spec, 1, 0.0, 1)

    def test_moments(self, monkeypatch):
        spec = zero_measure_spec(1.0, 0.0, ConstantFunction(1.0))
        xi_sq = spec.xi_sq()
        draws = estimator_inputs(monkeypatch, spec, 100_000, 0.0, 5)
        se_mean = math.sqrt(xi_sq / draws.size)
        assert abs(draws.mean() + 0.5 * xi_sq) < 4.0 * se_mean
        se_var = xi_sq * math.sqrt(2.0 / draws.size)
        assert abs(draws.var() - xi_sq) < 5.0 * se_var

    def test_likelihood_factor_has_unit_mean(self, monkeypatch):
        spec = zero_measure_spec(2.0, 0.5, ConstantFunction(1.5), horizon=2.0)
        draws = np.exp(estimator_inputs(monkeypatch, spec, 200_000, 0.0, 6))
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) < 4.0 * se


def edge_measures():
    """One measure of each built-in family, each side split at breakpoints."""
    tab_grid = np.array([-1.0, -0.2, 0.5, 2.0])
    tab_values = np.array([0.1, 0.5, 0.6, 0.1])
    tab_values = tab_values / np.trapezoid(tab_values, tab_grid)
    mags = np.geomspace(1e-2, 3.0, 40)
    grid = np.concatenate([-mags[::-1], mags])
    values = np.where(grid < 0, 0.4, 0.3) * np.abs(grid) ** -1.2 * np.exp(-np.abs(grid))
    return {
        "cp_uniform": CompoundPoissonMeasure(2.0, UniformDensity(-0.5, 2.0)),
        "cp_exponential": CompoundPoissonMeasure(1.5, ExponentialDensity(1.5)),
        "cp_normal": CompoundPoissonMeasure(3.0, NormalDensity(0.2, 0.5)),
        "cp_tabulated": CompoundPoissonMeasure(
            1.0, TabulatedDensity(tuple(tab_grid), tuple(tab_values))
        ),
        "tempered_stable": TemperedStableMeasure(1.0, 2.0, 3.0, 1.5, 0.5),
        "tabulated_levy": TabulatedLevyMeasure(tuple(grid), tuple(values)),
        "zero": ZeroMeasure(),
    }


# (mass_above(eps), _compensator_shift(nu, eps), _size_table(nu, eps).cum0[-1])
# at eps = 1e-4, 0.3 and 1.5 as hex floats, recorded when each of them still
# cut the support at its own edges.
EDGE_GOLDEN = {
    "cp_uniform": [
        ("0x1.fff583a53b8e5p+0", "-0x1.3333333333332p-2", "0x1.fff583a53b8fap+0"),
        ("0x1.851eb851eb852p+0", "-0x1.3333333333333p-2", "0x1.851eb851eb859p+0"),
        ("0x1.999999999999ap-2", "0x0.0p+0", "0x1.99999999999abp-2"),
    ],
    "cp_exponential": [
        ("0x1.7ff14168d513cp+0", "-0x1.c4c96a50dbba6p-2", "0x1.7ff0f0fd5f686p+0"),
        ("0x1.e9b2cbaeac5e9p-1", "-0x1.77897d63d075dp-2", "0x1.e9b2b5e51594fp-1"),
        ("0x1.43c952ae341ecp-3", "0x0.0p+0", "0x1.43c948231f9c1p-3"),
    ],
    "cp_normal": [
        ("0x1.7ff557af7bdfap+1", "-0x1.fffc8a9fef51ep-3", "0x1.7ff4d2ffc5864p+1"),
        ("0x1.06789cddaea36p+1", "-0x1.e93a9e343179ap-3", "0x1.067890938c79ap+1"),
        ("0x1.f90bee8c46b7fp-4", "0x0.0p+0", "0x1.f90bcb7a22500p-4"),
    ],
    "cp_tabulated": [
        ("0x1.fff3f37e42d7fp-1", "-0x1.cd0c1eaba67cep-4", "0x1.fff36083c4ad7p-1"),
        ("0x1.7398f6c71365fp-1", "-0x1.c23148ec7cf88p-4", "0x1.7398f20b7d863p-1"),
        ("0x1.467e2519f8944p-4", "0x0.0p+0", "0x1.467e249591569p-4"),
    ],
    "tempered_stable": [
        ("0x1.24a5fe3448d86p+9", "-0x1.9fed6e64cd393p+0", "0x1.24a5fd859d67dp+9"),
        ("0x1.07d831c2e15bfp+1", "-0x1.29ec8ceaaf92cp-1", "0x1.07d82bdffc0dcp+1"),
        ("0x1.a5ba3873993e8p-5", "0x0.0p+0", "0x1.a5ba2bb16291cp-5"),
    ],
    "tabulated_levy": [
        ("0x1.2ebdebf0781e8p+2", "0x1.49a3cf9c2517cp-4", "0x1.2ebdeaa9ddd5cp+2"),
        ("0x1.5dd3d6d3238a0p-1", "0x1.558f74dd72a48p-5", "0x1.5dd3d624b71fep-1"),
        ("0x1.b2c1dc7d37f81p-5", "0x0.0p+0", "0x1.b2c1dc4f8911ep-5"),
    ],
    "zero": [
        ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    ],
}
TABULATED_TOTAL_MASS = "0x1.2ebdebf0781e8p+2"


class TestSupportEdgeGoldens:
    @pytest.mark.parametrize("name", sorted(EDGE_GOLDEN))
    def test_masses_compensators_and_tables(self, name):
        nu = edge_measures()[name]
        got = [
            (
                float(nu.mass_above(eps)).hex(),
                float(_compensator_shift(nu, eps)).hex(),
                float(_size_table(nu, eps).cum0[-1]).hex(),
            )
            for eps in (1e-4, 0.3, 1.5)
        ]
        assert got == EDGE_GOLDEN[name]

    def test_tabulated_total_mass(self):
        nu = edge_measures()["tabulated_levy"]
        assert nu.total_mass().hex() == TABULATED_TOTAL_MASS


@dataclasses.dataclass(frozen=True)
class _OneSide(TemperedStableMeasure):
    """The half line of sign ``side`` of a tempered-stable measure."""

    side: float = 1.0

    def density(self, y):
        y = np.asarray(y, dtype=float)
        return np.where(self.side * y > 0.0, super().density(y), 0.0)

    def support_segments(self):
        return ((0.0, math.inf),) if self.side > 0 else ((-math.inf, 0.0),)


class TestInverseGaussianSums:
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_empirical_cf_matches_char_function(self, side):
        # The jump sum S of one side, as signed jumps, has characteristic
        # function char_function(u) e^{iu T gamma}: char_function
        # compensates the jumps with |y| <= 1 by their mean T gamma.
        nu = _OneSide(0.6, 1.4, 0.5, 2.5, 0.5, side=side)
        c, lam = (nu.c_plus, nu.lam_plus) if side > 0 else (nu.c_minus, nu.lam_minus)
        horizon = 1.5
        sums = inverse_gaussian_sums(c, lam, horizon, 200_000, RngStream(13, 0))
        assert np.all(sums > 0.0)
        x = side * sums
        proc = ProcessSpec(ConstantFunction(0.0), ConstantFunction(0.0), nu)
        for u in (0.3, 1.0, 3.0):
            cf = char_function(proc, horizon, np.array([u]))[0]
            target = cf * np.exp(1j * u * horizon * gamma_nu(nu))
            ecf_re, ecf_im = np.cos(u * x), np.sin(u * x)
            assert abs(ecf_re.mean() - target.real) < 4.0 * ecf_re.std() / math.sqrt(x.size)
            assert abs(ecf_im.mean() - target.imag) < 4.0 * ecf_im.std() / math.sqrt(x.size)

    def test_tiny_scale(self):
        # c * horizon = 1e-170: IG(c T sqrt(pi), 2 pi (c T)^2) would have a
        # shape that underflows to 0, which wald refuses.  Almost all of
        # the law's mass then lies below the smallest double.
        sums = inverse_gaussian_sums(1e-170, 1.0, 1.0, 1000, RngStream(3, 0))
        assert np.all((sums >= 0.0) & (sums < 1e-150))


class TestTerminalValues:
    def test_empirical_cf_matches_transform_compound_poisson(self):
        proc = ProcessSpec(ConstantFunction(0.3), ConstantFunction(0.0), CP_U01)
        x = sample_terminal_values(proc, 1.0, 200_000, rng_jumps=RngStream(11, 0))
        for u in (0.5, 1.0, 2.0):
            ecf_re, ecf_im = np.cos(u * x), np.sin(u * x)
            cf = char_function(proc, 1.0, np.array([u]))[0]
            se_re = ecf_re.std() / math.sqrt(x.size)
            se_im = ecf_im.std() / math.sqrt(x.size)
            assert abs(ecf_re.mean() - cf.real) < 4.0 * se_re
            assert abs(ecf_im.mean() - cf.imag) < 4.0 * se_im

    def test_pure_gaussian_terminal_law(self):
        proc = ProcessSpec(ConstantFunction(1.0), ConstantFunction(2.0), ZeroMeasure())
        x = sample_terminal_values(
            proc, 2.0, 100_000, rng_jumps=RngStream(1, 0), rng_gauss=RngStream(1, 1)
        )
        assert abs(x.mean() - 2.0) < 4.0 * 2.0 / math.sqrt(x.size)
        assert abs(x.var() - 4.0) < 5.0 * 4.0 * math.sqrt(2.0 / x.size)

    def test_gaussian_part_requires_stream(self):
        proc = ProcessSpec(ConstantFunction(0.0), ConstantFunction(1.0), ZeroMeasure())
        with pytest.raises(ValueError):
            sample_terminal_values(proc, 1.0, 10, rng_jumps=RngStream(1, 0))

    def test_default_epsilon_for_infinite_activity(self):
        proc = ProcessSpec(ConstantFunction(0.0), ConstantFunction(0.0), TS_SYM)
        x = sample_terminal_values(proc, 1.0, 100, rng_jumps=RngStream(2, 0))
        assert np.all(np.isfinite(x))

    @pytest.mark.parametrize("name", ["compound_poisson", "jump_diffusion", "tempered_stable"])
    def test_bundled_golden_bits(self, name):
        spec = parse_config(CONFIG_DIR / f"{name}.json").problem
        for k, proc in ((1, spec.process1), (2, spec.process2)):
            x = sample_terminal_values(
                proc, spec.horizon, 256,
                rng_jumps=RngStream(7, 2 * k), rng_gauss=RngStream(7, 2 * k + 1),
            )
            digest = hashlib.sha256(x.tobytes()).hexdigest()[:16]
            assert (math.fsum(x).hex(), digest) == TERMINAL_GOLDEN[name, k]

    def test_tempered_stable_peak_memory(self):
        # 16384 paths of the bundled tempered-stable process2 at the default
        # epsilon 1e-4 hold about 6.4M jumps (~150 MB as one batch); summed
        # block by block they need the blocks and a few per-path arrays.
        spec = parse_config(CONFIG_DIR / "tempered_stable.json").problem
        _size_table(spec.process2.levy, DEFAULT_EPSILON)  # shared, built outside the trace
        tracemalloc.start()
        try:
            x = sample_terminal_values(
                spec.process2, spec.horizon, 16384, rng_jumps=RngStream(1, 0)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.shape == (16384,) and np.all(np.isfinite(x))
        assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# Guide-table inversion of the size table
# ---------------------------------------------------------------------------


def bundled_ts_measures():
    spec = parse_config(CONFIG_DIR / "tempered_stable.json").problem
    return [spec.process1.levy, spec.process2.levy]


# Log-linear knots on both sides; the positive side bends at 0.3 and 2.0,
# which land strictly inside the tabulated range and become cell edges.
TAB_BENT = TabulatedLevyMeasure(
    (-4.0, -1.0, -0.05, 0.01, 0.3, 2.0, 9.0),
    (0.01, 0.5, 40.0, 900.0, 3.0, 0.4, 0.001),
)
# Density exactly 1/|y| between the knots: every cell is straight.
TAB_RECIPROCAL = TabulatedLevyMeasure((0.01, 0.1, 1.0, 10.0), (100.0, 10.0, 1.0, 0.1))


def reference_cells(table, u):
    return np.clip(np.searchsorted(table.cum0, u, side="right") - 1, 0, table.lo.size - 1)


def reference_draw(table, n, gen):
    """Table inversion by plain binary search, with every per-cell value
    recomputed per draw: the fast path must match it bit for bit."""
    u = gen.random(n) * table.total
    idx = reference_cells(table, u)
    target = u - table.cum0[idx]
    lo, va, s1 = table.lo[idx], table.va[idx], table.slope1[idx]
    base = va * lo
    straight = np.abs(s1) < 1e-12
    arg = np.clip(target * np.where(straight, 1.0, s1) / base, -1.0 + 1e-16, None)
    log_x = np.where(
        straight,
        target / base,
        np.log1p(arg) / np.where(straight, 1.0, s1),
    )
    mag = lo * np.exp(np.maximum(log_x, 0.0))
    mag = np.minimum(np.maximum(mag, lo * (1.0 + 4e-16)), table.hi[idx])
    return table.sign[idx] * mag


def probe_points(table, n=50_000, seed=0):
    """Random draws, every cell start and both its neighbours, and the
    largest draws: total itself and (1 - 2**-53) * total."""
    cum0, total = table.cum0, table.total
    u = np.concatenate(
        [
            np.random.default_rng(seed).random(n) * total,
            cum0,
            np.nextafter(cum0, -np.inf),
            np.nextafter(cum0, np.inf),
            [total, np.nextafter(1.0, 0.0) * total],
        ]
    )
    return u[(u >= 0.0) & (u <= total)]


def assert_cells_exact(table):
    u = probe_points(table)
    idx = _TableSizes(table, RngStream(1, 0).generator, u.size).cells(u.copy())
    expected = reference_cells(table, u)
    assert np.array_equal(idx, expected)


def synthetic_table(mass):
    """A table with the given cell masses; only the cumulative matters to
    the cell search."""
    mass = np.asarray(mass, dtype=float)
    lo = np.geomspace(0.1, 1.0, mass.size)
    cum0 = np.concatenate([[0.0], np.cumsum(mass)])
    return _SizeTable(lo, lo * 1.1, np.ones(mass.size), lo, lo, cum0, float(cum0[-1]))


class TestGuideTable:
    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
    def test_bundled_tempered_stable_cells(self, eps):
        for nu in bundled_ts_measures():
            assert_cells_exact(_size_table(nu, eps))

    def test_inserted_breakpoints_cells(self):
        table = _size_table(TAB_BENT, 1e-3)
        assert 0.3 in table.lo and 2.0 in table.lo
        assert_cells_exact(table)

    def test_tied_zero_mass_cells(self):
        mass = np.random.default_rng(3).exponential(size=400)
        mass[[0, 1, 57, 58, 59, 200, 398, 399]] = 0.0
        table = synthetic_table(mass)
        assert np.any(np.diff(table.cum0) == 0.0)
        assert_cells_exact(table)

    def test_uneven_masses_cells(self):
        # Masses spanning 30 decades: most buckets hold one huge cell and a
        # few hold hundreds of tiny ones.
        mass = 10.0 ** np.random.default_rng(4).uniform(-30.0, 0.0, 2000)
        assert_cells_exact(synthetic_table(mass))

    def test_mass_too_small_for_buckets(self):
        table = synthetic_table(np.full(8, 1e-310))
        assert table.scale == 0.0
        assert_cells_exact(table)

    @pytest.mark.parametrize("mass", [[0.0, 0.0], [1.0, math.inf]])
    def test_zero_or_infinite_mass_refused(self, mass):
        with pytest.raises(DivergentMass):
            _TableSizes(synthetic_table(mass), RngStream(1, 0).generator, 10)

    def test_guide_is_read_only(self):
        table = _size_table(TS_SYM, 1e-2)
        assert not table.guide.flags.writeable
        assert not table.cum0.flags.writeable

    @pytest.mark.parametrize(
        "nu, eps",
        [
            (TS_SYM, 1e-3),
            (TS_ASYM, 1e-4),
            (TAB_BENT, 1e-3),
            (TAB_RECIPROCAL, 1e-3),
        ],
    )
    def test_draws_match_reference_bitwise(self, nu, eps):
        table = _size_table(nu, eps)
        slow = reference_draw(table, 200_000, RngStream(11, 0).generator)
        # One block, and blocks that do not divide the draw count: the
        # stream is consumed in order, so the split leaves every bit.
        for block in (None, 8191, 65536):
            fast = table_draw(table, 200_000, RngStream(11, 0).generator, block)
            assert np.array_equal(fast.view(np.uint64), slow.view(np.uint64))

    def test_reciprocal_density_has_straight_cells(self):
        table = _size_table(TAB_RECIPROCAL, 1e-3)
        assert table.straight is not None and table.straight.all()

    def test_mass_above_does_not_grow_with_chunks(self, monkeypatch):
        nu = TemperedStableMeasure(1.0, 1.5, 2.0, 2.5, 0.4375)
        original = TemperedStableMeasure.mass_above
        calls = []

        def counting(self, epsilon):
            calls.append(epsilon)
            return original(self, epsilon)

        monkeypatch.setattr(TemperedStableMeasure, "mass_above", counting)
        first = sample_jump_batch(nu, 1.0, 200, RngStream(5, 0), 0.05)
        after_one = len(calls)
        for k in range(1, 4):
            sample_jump_batch(nu, 1.0, 200, RngStream(5, 2 * k), 0.05)
        assert len(calls) == after_one
        again = sample_jump_batch(nu, 1.0, 200, RngStream(5, 0), 0.05)
        assert np.array_equal(first.counts, again.counts)
        assert np.array_equal(first.sizes, again.sizes)


# ---------------------------------------------------------------------------
# Rejection sampling of compound Poisson sizes
# ---------------------------------------------------------------------------


def reference_rejection_sizes(density, epsilon, n, gen):
    """The rejection sampler as it was before sizes were drawn in blocks:
    first draw sized for an acceptance of 1/2, surplus discarded.  Its
    output is the first n accepted values of the density's stream."""
    out = np.empty(n)
    filled = 0
    acceptance = 0.5
    for _ in range(10_000):
        if filled >= n:
            break
        need = n - filled
        block = min(int(need / max(acceptance, 1e-6)) + 16, 10_000_000)
        draw = density.sample(gen, block)
        keep = draw[np.abs(draw) > epsilon]
        take = min(keep.size, need)
        out[filled : filled + take] = keep[:take]
        filled += take
        acceptance = max(keep.size / block, 1e-6)
    return out


class CountingDensity:
    """A jump density that records the size of every draw it makes."""

    def __init__(self, density):
        self.density = density
        self.draws = []

    def sample(self, gen, n):
        self.draws.append(n)
        return self.density.sample(gen, n)


def rejection_draw(density, epsilon, n, gen, block, sampler=None):
    """n sizes of a unit-intensity compound Poisson measure, drawn by
    ``sampler`` (default: the density) and filled ``block`` at a time."""
    acceptance = _mass_above(CompoundPoissonMeasure(1.0, density), epsilon)
    source = _RejectionSizes(sampler or density, epsilon, acceptance, gen)
    out = np.empty(n)
    for start in range(0, n, block):
        source.fill(out[start : start + block])
    return out


JUMP_DENSITIES = [
    UniformDensity(-2.0, 5.0),
    ExponentialDensity(2.5),
    NormalDensity(0.3, 1.7),
    TabulatedDensity((-1.0, 0.0, 1.0, 2.0), (0.2, 0.6, 0.3, 0.0)),
]


class TestRejectionSizes:
    @pytest.mark.parametrize("density", JUMP_DENSITIES, ids=lambda d: type(d).__name__)
    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 1.0])
    def test_first_accepted_values_for_any_block_split(self, density, epsilon):
        n = 20_000
        expected = reference_rejection_sizes(density, epsilon, n, RngStream(4, 0).generator)
        for block in (1, 7, 8192, n):
            if block == 1 and epsilon > 0.0:
                continue  # one accepted value per call: slow, and covered by 7
            got = rejection_draw(density, epsilon, n, RngStream(4, 0).generator, block)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("density", JUMP_DENSITIES, ids=lambda d: type(d).__name__)
    def test_exact_sizes_draw_what_they_keep(self, density):
        # At epsilon 0 the acceptance is 1: one draw of n + 16 values, not
        # the 2n + 16 of a first draw sized for acceptance 1/2.
        counting = CountingDensity(density)
        rejection_draw(density, 0.0, 10_000, RngStream(5, 0).generator, 10_000, counting)
        assert counting.draws == [10_016]

    def test_known_acceptance_sizes_the_first_draw(self):
        # uniform(-2, 5) above 1 in magnitude keeps 5/7 of its draws.
        density = UniformDensity(-2.0, 5.0)
        counting = CountingDensity(density)
        rejection_draw(density, 1.0, 7_000, RngStream(6, 0).generator, 7_000, counting)
        acceptance = _mass_above(CompoundPoissonMeasure(1.0, density), 1.0)
        assert abs(acceptance - 5.0 / 7.0) < 1e-12
        assert counting.draws[0] == int(7_000 / acceptance) + 16


class TestNoZeroSizes:
    # Rejection keeps |y| > epsilon only and the table clamps every draw
    # to at least lo * (1 + 4e-16) > 0, so no exact batch holds a zero.
    @pytest.mark.parametrize(
        "nu",
        [
            CP_U01,
            CompoundPoissonMeasure(4.0, NormalDensity(0.0, 1e-6)),
            TAB_BENT,
            TemperedStableMeasure(1.0, 2.0, 0.5, 0.7, -0.5),
        ],
        ids=["cp_uniform", "cp_narrow_normal", "tabulated", "ts_negative_alpha"],
    )
    def test_exact_batches_hold_no_zero(self, nu):
        assert math.isfinite(nu.total_mass())
        batch = sample_jump_batch(nu, 2.0, 20_000, RngStream(12, 0), 0.0)
        assert batch.sizes.size > 0
        assert np.all(batch.sizes != 0.0)


# ---------------------------------------------------------------------------
# Streamed per-path sums
# ---------------------------------------------------------------------------


def bench_tabulated_pair():
    """The shape of the benchmark's tabulated pair: a tilted copy of a
    tempered-stable-like tabulation on 32 knots per side."""
    lo, hi, knots = 0.02, 4.0, 32
    mags = [lo * (hi / lo) ** (i / (knots - 1)) for i in range(knots)]
    grid = [-m for m in reversed(mags)] + mags
    base = [abs(y) ** -1.2 * math.exp(-abs(y)) for y in grid]
    tilted = [v * math.exp(0.3 * math.sin(0.2 * i + 1.0)) for i, v in enumerate(base)]
    return TabulatedLevyMeasure(tuple(grid), tuple(tilted)), TabulatedLevyMeasure(
        tuple(grid), tuple(base)
    )


def assert_stream_matches_batch(nu, horizon, n_paths, stream, eps, log_ratio):
    """Streamed sums of the sizes and of their log-ratios equal the batch's
    path sums bit for bit."""

    def weigh(sizes):
        return sizes, log_ratio(sizes)

    batch = sample_jump_batch(nu, horizon, n_paths, RngStream(*stream), eps)
    sums = stream_jump_sums(nu, horizon, n_paths, RngStream(*stream), eps, weigh, rows=2)
    expected = [path_sums(batch), path_sums(batch, log_ratio(batch.sizes))]
    assert sums.shape == (2, n_paths)
    for got, want in zip(sums, expected):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    return batch


BLOCKS = [1, 7, 8192, simulate._BLOCK_JUMPS, 10**9]


class TestStreamJumpSums:
    @pytest.fixture(params=BLOCKS, ids=lambda b: f"block{b}")
    def block(self, request, monkeypatch):
        monkeypatch.setattr(simulate, "_BLOCK_JUMPS", request.param)
        return request.param

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
    def test_bundled_tempered_stable(self, block, eps):
        nu1, nu2 = bundled_ts_measures()
        # Fewer paths for the tiny blocks, which loop once per few jumps.
        n_paths = {1: 6, 7: 40}.get(block, 700)
        batch = assert_stream_matches_batch(
            nu2, 1.0, n_paths, (3, 2), eps, pair_log_ratio(nu1, nu2)
        )
        assert batch.sizes.size > block or block >= simulate._BLOCK_JUMPS

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_tabulated_pair(self, block, eps):
        nu1, nu2 = bench_tabulated_pair()
        n_paths = 60 if block == 1 else 300
        assert_stream_matches_batch(nu2, 1.0, n_paths, (4, 0), eps, pair_log_ratio(nu1, nu2))

    def test_compound_poisson_paths_longer_than_a_block(self, block):
        # About 9000 jumps per path (300 for the one-jump blocks): every
        # path straddles blocks of up to 8192 jumps, and paths start and end
        # inside larger ones.
        lam = 300.0 if block == 1 else 9000.0
        nu1 = CompoundPoissonMeasure(1.05 * lam, ExponentialDensity(1.5))
        nu2 = CompoundPoissonMeasure(lam, ExponentialDensity(2.0))
        batch = assert_stream_matches_batch(
            nu2, 1.0, 6, (7, 0), 0.0, pair_log_ratio(nu1, nu2)
        )
        assert batch.counts.min() > min(block, 8192)

    def test_paths_without_jumps(self, block):
        # lambda * T = 0.7: about half the paths have no jump.
        nu = CompoundPoissonMeasure(0.7, UniformDensity(0.0, 1.0))
        batch = assert_stream_matches_batch(
            nu, 1.0, 3000, (8, 0), 0.0, pair_log_ratio(CP_U01, nu)
        )
        assert np.any(batch.counts == 0) and np.any(batch.counts > 1)

    @pytest.mark.parametrize(
        "nu, eps", [(ZeroMeasure(), 0.0), (CP_U01, 2.0)], ids=["zero", "beyond_support"]
    )
    def test_chunks_without_jumps(self, block, nu, eps):
        def weigh(sizes):
            raise AssertionError("no block to weigh")

        sums = stream_jump_sums(nu, 1.0, 50, RngStream(9, 0), eps, weigh, rows=3)
        assert sums.shape == (3, 50) and not sums.any()

    def test_batch_is_blocks_kept(self, block):
        # sample_jump_batch fills its sizes block by block from the same
        # source; the split never shows in the sizes.
        nu1, nu2 = bundled_ts_measures()
        batch = sample_jump_batch(nu2, 1.0, 30, RngStream(10, 0), 1e-3)
        gen = RngStream(10, 0).generator
        counts = gen.poisson(_mass_above(nu2, 1e-3), 30)
        sizes = table_draw(_size_table(nu2, 1e-3), int(counts.sum()), gen)
        assert np.array_equal(batch.counts, counts)
        assert np.array_equal(batch.sizes.view(np.uint64), sizes.view(np.uint64))


COUNTED_WEIGHTS = (math.log(2.0), -math.log(1.2), 0.0, 0.1)


def no_sizes(*args, **kwargs):
    raise AssertionError("a constant weight draws no jump size")


def assert_counted_matches_streamed(monkeypatch, nu, n_paths, stream, eps):
    """Constant weights give the sums of weighing every jump, bit for bit,
    without drawing a size; returns the counts of the chunk."""
    rows = len(COUNTED_WEIGHTS)

    def weigh(sizes):
        return tuple(np.full(sizes.size, w) for w in COUNTED_WEIGHTS)

    streamed = stream_jump_sums(nu, 1.0, n_paths, RngStream(*stream), eps, weigh, rows=rows)
    with monkeypatch.context() as patch:
        patch.setattr(_RejectionSizes, "fill", no_sizes)
        patch.setattr(UniformDensity, "sample", no_sizes)
        counted = stream_jump_sums(
            nu, 1.0, n_paths, RngStream(*stream), eps, COUNTED_WEIGHTS, rows=rows
        )
    assert counted.shape == streamed.shape == (rows, n_paths)
    assert np.array_equal(counted.view(np.uint64), streamed.view(np.uint64))
    return simulate._draw_counts(nu, 1.0, n_paths, RngStream(*stream), eps)


class TestCountedSums:
    @pytest.fixture(params=BLOCKS[:-1], ids=lambda b: f"block{b}")
    def block(self, request, monkeypatch):
        monkeypatch.setattr(simulate, "_BLOCK_JUMPS", request.param)
        return request.param

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_paths_longer_than_a_block(self, monkeypatch, block, eps):
        # About 9000 jumps per path (300 for the one-jump blocks), so paths
        # straddle blocks of jumps and of counts, and repeated sums of 0.1 round.
        lam = 300.0 if block == 1 else 9000.0
        nu = CompoundPoissonMeasure(lam, UniformDensity(0.0, 1.0))
        counts = assert_counted_matches_streamed(monkeypatch, nu, 6, (7, 1), eps)
        assert counts.sum() > block  # some path straddles a block boundary
        (tenths,) = stream_jump_sums(nu, 1.0, 6, RngStream(7, 1), eps, (0.1,))
        assert np.any(tenths != counts * 0.1)

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_paths_without_jumps(self, monkeypatch, block, eps):
        nu = CompoundPoissonMeasure(0.7, UniformDensity(0.0, 1.0))
        counts = assert_counted_matches_streamed(monkeypatch, nu, 3000, (8, 1), eps)
        assert np.any(counts == 0) and np.any(counts > 1)

    @pytest.mark.parametrize(
        "nu, eps", [(ZeroMeasure(), 0.0), (CP_U01, 2.0)], ids=["zero", "beyond_support"]
    )
    def test_chunks_without_jumps(self, monkeypatch, block, nu, eps):
        counts = assert_counted_matches_streamed(monkeypatch, nu, 50, (9, 1), eps)
        assert not counts.any()

    def test_counts_are_validated_as_before(self):
        with pytest.raises(ValueError, match="n_paths must be positive"):
            stream_jump_sums(CP_U01, 1.0, 0, RngStream(1, 0), 0.0, (1.0,))
        with pytest.raises(ValueError, match="epsilon must be >= 0"):
            stream_jump_sums(CP_U01, 1.0, 5, RngStream(1, 0), -0.1, (1.0,))
        with pytest.raises(DivergentMass):
            stream_jump_sums(TS_SYM, 1.0, 5, RngStream(1, 0), 0.0, (1.0,))


class TestStreamMemory:
    def test_tempered_stable_chunk_peak(self):
        # One 8192-path chunk at epsilon 1e-4 holds about 3.2M jumps; the
        # whole-chunk batch needed ~150 MB of arrays, a streamed one needs
        # its blocks only.
        nu1, nu2 = bundled_ts_measures()
        log_ratio = pair_log_ratio(nu1, nu2)
        _size_table(nu2, 1e-4)  # build the shared table outside the trace
        tracemalloc.start()
        try:
            (d,) = stream_jump_sums(
                nu2, 1.0, 8192, RngStream(1, 0), 1e-4, lambda y: (log_ratio(y),)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d.shape == (8192,) and np.all(np.isfinite(d))
        assert peak < 16 * 2**20
