"""Tests for the path samplers: streams, jump batches, C_T, terminals."""

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
    check_abs_continuity,
    eta_nu,
    gamma_nu,
    hellinger_sq,
    l1_distance,
    pair_jump_law,
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
from addgap.quadrature import IntegrationRequest, integrate
from addgap.simulate import (
    DEFAULT_EPSILON,
    RngStream,
    inverse_gaussian_sums,
    sample_jump_batch,
    sample_terminal_values,
    stream_jump_sums,
)
from addgap.simulate import (
    _WALD_MAX_MEAN_SHAPE,
    _compensator_shift,
    _mass_above,
    _RejectionSizes,
    _size_table,
    _SizeTable,
    _TableSizes,
)

from _oracles import OneSide, estimator_inputs, path_sums


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
    ("compound_poisson", 1): ("0x1.fc756f390e7c6p+7", "d112560746727bbb"),
    ("compound_poisson", 2): ("0x1.32a1785af92acp+7", "bcfe2e60694475e0"),
    ("jump_diffusion", 1): ("0x1.f35a766c3d377p+5", "0c1fe70705a3d8e4"),
    ("jump_diffusion", 2): ("0x1.4ef2c559d1cfcp+4", "983de00861e8e8ff"),
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
        pos_mass = integrate(IntegrationRequest(TS_ASYM.density, eps, 80.0)).value
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
        second = 2.0 * integrate(
            IntegrationRequest(lambda y: y * y * TS_SYM.density(y), eps, 60.0)
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
        ("0x1.2ebdebf3dc2d7p+2", "0x1.49a3cfa1288fep-4", "0x1.2ebdebf3dc2d9p+2"),
        ("0x1.5dd3d6dc57d71p-1", "0x1.558f74ef28040p-5", "0x1.5dd3d6dc57d7fp-1"),
        ("0x1.b2c1dc92967adp-5", "0x0.0p+0", "0x1.b2c1dc92966ffp-5"),
    ],
    # Below eps = 1 the zero measure's shift is the negated empty
    # integral, -0.0 (x + -0.0 is x for every x).
    "zero": [
        ("0x0.0p+0", "-0x0.0p+0", "0x0.0p+0"),
        ("0x0.0p+0", "-0x0.0p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    ],
}
TABULATED_TOTAL_MASS = "0x1.2ebdebf3dc2d7p+2"


def edge_pins(nu):
    """The ``EDGE_GOLDEN`` entry of nu."""
    return [
        (
            float(nu.mass_above(eps)).hex(),
            float(_compensator_shift(nu, eps)).hex(),
            float(_size_table(nu, eps).cum0[-1]).hex(),
        )
        for eps in (1e-4, 0.3, 1.5)
    ]


class TestSupportEdgeGoldens:
    @pytest.mark.parametrize("name", sorted(EDGE_GOLDEN))
    def test_masses_compensators_and_tables(self, name):
        assert edge_pins(edge_measures()[name]) == EDGE_GOLDEN[name]

    def test_tabulated_total_mass(self):
        nu = edge_measures()["tabulated_levy"]
        assert nu.total_mass().hex() == TABULATED_TOTAL_MASS


def support_measures():
    """``edge_measures()`` and two measures with -1 and 1 in a gap of
    their support."""
    measures = edge_measures()
    measures["cp_gap"] = CompoundPoissonMeasure(1.0, UniformDensity(1.5, 3.0))
    measures["tabulated_gap"] = TabulatedLevyMeasure(
        (-3.0, -2.0, 2.0, 3.0), (1.0, 0.5, 0.5, 1.0)
    )
    return measures


def measure_pins(nu):
    """gamma_nu and the real and imaginary parts of char_function at u =
    0.5 and 3.0 (horizon 1, no drift, no variance)."""
    zero = ConstantFunction(0.0)
    phi = char_function(ProcessSpec(zero, zero, nu), 1.0, [0.5, 3.0])
    values = [gamma_nu(nu)]
    values += [part for z in phi for part in (z.real, z.imag)]
    return tuple(float(v).hex() for v in values)


def pair_pins(nu1, nu2):
    """eta_nu(nu1, nu2), and l1_distance and hellinger_sq where nu1 <<
    nu2 (None where not)."""
    pins = [eta_nu(nu1, nu2)]
    ok = check_abs_continuity(nu1, nu2).ok
    pins += [fn(nu1, nu2) if ok else None for fn in (l1_distance, hellinger_sq)]
    return tuple(None if v is None else float(v).hex() for v in pins)


def pair_names():
    names = sorted(support_measures())
    return [f"{a}/{b}" for a in names for b in names]


def _literal(value):
    """value as this file writes it: strings in double quotes."""
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_literal, value)) + ")"
    return repr(value)


def print_golden(name, table):
    """Print ``table`` in the layout of its literal ``name`` in this file."""
    print(f"{name} = {{")
    for key, pins in table.items():
        head = f'    "{key}": '
        if isinstance(pins, list):
            print(head + "[\n" + "".join(f"        {_literal(row)},\n" for row in pins) + "    ],")
        elif len(head + _literal(pins)) < 100:
            print(f"{head}{_literal(pins)},")
        else:
            print(head + "(")
            for i in range(0, len(pins), 2):
                print("        " + " ".join(_literal(v) + "," for v in pins[i : i + 2]))
            print("    ),")
    print("}")


# Integrals over the whole support, as hex floats: per measure of
# support_measures(), measure_pins(nu); per ordered pair "nu1/nu2",
# pair_pins(nu1, nu2).  ``python tests/test_simulate.py`` prints them, and
# EDGE_GOLDEN, for the tree on the import path.  The gamma_nu pin of
# "tempered_stable" is its closed form, re-recorded from the quadrature's
# value, within the quadrature's error estimate.
# "cp_exponential/cp_normal" and "tempered_stable/cp_normal" gained their L1
# and H^2 pins when the verdict began reading the support segments: a probe
# grid refused both pairs where the normal pdf underflows to 0, past y ~ 27.6.
SUPPORT_GOLDEN = {
    "cp_exponential": (
        "0x1.c4c96b121ccd9p-2", "0x1.ad2fcc1b08fc8p-1",
        "0x1.8fff159fb4d0fp-3", "0x1.cd15b7c12f143p-3",
        "-0x1.99c15ecd9ad0dp-3",
    ),
    "cp_gap": (
        "0x0.0p+0", "0x1.6d2843208b8fbp-2",
        "0x1.badc5aabc9265p-2", "0x1.facda8c79bd33p-2",
        "0x1.3e112b8ed06fcp-4",
    ),
    "cp_normal": (
        "0x1.fffc8a9ff322cp-3", "0x1.9fcd6f95b049ep-1",
        "0x1.063229861980bp-3", "0x1.bd5a05e31eefap-5",
        "-0x1.1e5cee590330dp-5",
    ),
    "cp_tabulated": (
        "0x1.cd0c1eaba7f20p-4", "0x1.d29bcccda26cbp-1",
        "0x1.130860ee43921p-3", "0x1.71c0600514b3cp-2",
        "-0x1.0f9a0267c6a96p-3",
    ),
    "cp_uniform": (
        "0x1.3333333333334p-2", "0x1.5434ee01928d1p-1",
        "0x1.93f6989697c2ap-2", "0x1.1a0f3ede622c3p-4",
        "-0x1.309923bff1340p-3",
    ),
    "tabulated_gap": (
        "0x0.0p+0", "0x1.64906950e7e67p-2",
        "0x0.0p+0", "0x1.10be14551bbcep-2",
        "0x1.10be14551bbcep-56",
    ),
    "tabulated_levy": (
        "-0x1.49a3cfa1288ffp-4", "0x1.dfc5ac99d9c2dp-1",
        "-0x1.7baa4125a2ef3p-7", "0x1.a5852a46dcafcp-2",
        "0x1.d523d40e2b96fp-6",
    ),
    "tempered_stable": (
        "0x1.a50c26b655cc5p+0", "0x1.bc0edfd185383p-1",
        "0x1.553484cc3b047p-4", "0x1.051c61b260d38p-5",
        "-0x1.4a702aba65152p-5",
    ),
    "zero": ("0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
}
PAIR_GOLDEN = {
    "cp_exponential/cp_exponential": ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    "cp_exponential/cp_gap": ("0x1.c4c96b121ccdap-2", None, None),
    "cp_exponential/cp_normal": (
        "0x1.89964b844678dp-3", "0x1.be068ec78c512p+0",
        "0x1.4082b7ddee0afp+0",
    ),
    "cp_exponential/cp_tabulated": ("0x1.5186636732d13p-2", None, None),
    "cp_exponential/cp_uniform": ("0x1.232c6fbdd3350p-3", None, None),
    "cp_exponential/tabulated_gap": ("0x1.c4c96b121ccdap-2", None, None),
    "cp_exponential/tabulated_levy": ("0x1.0b992f7d3378dp-1", None, None),
    "cp_exponential/tempered_stable": ("-0x1.33d9cbf176796p+0", "inf", "inf"),
    "cp_exponential/zero": ("0x1.c4c96b121ccdap-2", None, None),
    "cp_gap/cp_exponential": (
        "-0x1.c4c96b121ccdap-2", "0x1.1bcae4b77590cp+1",
        "0x1.c8af1b2bbfb2ap+0",
    ),
    "cp_gap/cp_gap": ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    "cp_gap/cp_normal": ("-0x1.fffc8a9ff322cp-3", "0x1.e6b0175369c6ep+1", "0x1.bfc21c80ddf25p+1"),
    "cp_gap/cp_tabulated": ("-0x1.cd0c1eaba7f1cp-4", None, None),
    "cp_gap/cp_uniform": ("-0x1.3333333333332p-2", None, None),
    "cp_gap/tabulated_gap": ("0x0.0p+0", None, None),
    "cp_gap/tabulated_levy": (
        "0x1.49a3cfa1288f0p-4", "0x1.6bd49f9e4e990p+2",
        "0x1.5c71b619ac17bp+2",
    ),
    "cp_gap/tempered_stable": ("-0x1.a50c26b5fdaccp+0", "inf", "inf"),
    "cp_gap/zero": ("0x0.0p+0", None, None),
    "cp_normal/cp_exponential": ("-0x1.89964b844678dp-3", None, None),
    "cp_normal/cp_gap": ("0x1.fffc8a9ff322cp-3", None, None),
    "cp_normal/cp_normal": ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    "cp_normal/cp_tabulated": ("0x1.19767b4a1f298p-3", None, None),
    "cp_normal/cp_uniform": ("-0x1.99a76f19cd0f0p-5", None, None),
    "cp_normal/tabulated_gap": ("0x1.fffc8a9ff322cp-3", None, None),
    "cp_normal/tabulated_levy": ("0x1.5267393843b55p-2", None, None),
    "cp_normal/tempered_stable": ("-0x1.650c9561ff488p+0", "inf", "inf"),
    "cp_normal/zero": ("0x1.fffc8a9ff322cp-3", None, None),
    "cp_tabulated/cp_exponential": ("-0x1.5186636732d13p-2", None, None),
    "cp_tabulated/cp_gap": ("0x1.cd0c1eaba7f1cp-4", None, None),
    "cp_tabulated/cp_normal": (
        "-0x1.19767b4a1f298p-3", "0x1.0133abc230a04p+1",
        "0x1.54c3f8dab8481p-1",
    ),
    "cp_tabulated/cp_tabulated": ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    "cp_tabulated/cp_uniform": ("-0x1.7fe05710926d5p-3", None, None),
    "cp_tabulated/tabulated_gap": ("0x1.cd0c1eaba7f1cp-4", None, None),
    "cp_tabulated/tabulated_levy": ("0x1.8b57f72668411p-3", None, None),
    "cp_tabulated/tempered_stable": ("-0x1.883b64cb46161p+0", "inf", "inf"),
    "cp_tabulated/zero": ("0x1.cd0c1eaba7f1cp-4", None, None),
    "cp_uniform/cp_exponential": ("-0x1.232c6fbdd3350p-3", None, None),
    "cp_uniform/cp_gap": ("0x1.3333333333332p-2", None, None),
    "cp_uniform/cp_normal": (
        "0x1.99a76f19cd0f0p-5", "0x1.dd757c462a9fdp+0",
        "0x1.93344b46a605dp-1",
    ),
    "cp_uniform/cp_tabulated": (
        "0x1.7fe05710926d5p-3", "0x1.321642c8590b2p+0",
        "0x1.7430a7779fd59p-2",
    ),
    "cp_uniform/cp_uniform": ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    "cp_uniform/tabulated_gap": ("0x1.3333333333332p-2", None, None),
    "cp_uniform/tabulated_levy": ("0x1.859c271b7d572p-2", None, None),
    "cp_uniform/tempered_stable": ("-0x1.583f59e917106p+0", "inf", "inf"),
    "cp_uniform/zero": ("0x1.3333333333332p-2", None, None),
    "tabulated_gap/cp_exponential": ("-0x1.c4c96b121ccdap-2", None, None),
    "tabulated_gap/cp_gap": ("0x0.0p+0", None, None),
    "tabulated_gap/cp_normal": (
        "-0x1.fffc8a9ff322cp-3", "0x1.1c0b95a91f6c5p+2",
        "0x1.0edf76ba6f825p+2",
    ),
    "tabulated_gap/cp_tabulated": ("-0x1.cd0c1eaba7f1cp-4", None, None),
    "tabulated_gap/cp_uniform": ("-0x1.3333333333332p-2", None, None),
    "tabulated_gap/tabulated_gap": ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    "tabulated_gap/tabulated_levy": (
        "0x1.49a3cfa1288ffp-4", "0x1.8a883923cba89p+2",
        "0x1.77cbe9bb9632cp+2",
    ),
    "tabulated_gap/tempered_stable": ("-0x1.a50c26b5fdaccp+0", "inf", "inf"),
    "tabulated_gap/zero": ("0x0.0p+0", None, None),
    "tabulated_levy/cp_exponential": ("-0x1.0b992f7d3378dp-1", None, None),
    "tabulated_levy/cp_gap": ("-0x1.49a3cfa1288f0p-4", None, None),
    "tabulated_levy/cp_normal": (
        "-0x1.5267393843b55p-2", "0x1.28f1e0e36e750p+2",
        "0x1.1fe8c0eb25133p+1",
    ),
    "tabulated_levy/cp_tabulated": ("-0x1.8b57f72668411p-3", None, None),
    "tabulated_levy/cp_uniform": ("-0x1.859c271b7d572p-2", None, None),
    "tabulated_levy/tabulated_gap": ("-0x1.49a3cfa1288ffp-4", None, None),
    "tabulated_levy/tabulated_levy": ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    "tabulated_levy/tempered_stable": ("-0x1.b9a663b0367bbp+0", "inf", "inf"),
    "tabulated_levy/zero": ("-0x1.49a3cfa1288f0p-4", None, None),
    "tempered_stable/cp_exponential": ("0x1.33d9cbf176796p+0", None, None),
    "tempered_stable/cp_gap": ("0x1.a50c26b5fdaccp+0", None, None),
    "tempered_stable/cp_normal": ("0x1.650c9561ff488p+0", "inf", "inf"),
    "tempered_stable/cp_tabulated": ("0x1.883b64cb46161p+0", None, None),
    "tempered_stable/cp_uniform": ("0x1.583f59e917106p+0", None, None),
    "tempered_stable/tabulated_gap": ("0x1.a50c26b5fdaccp+0", None, None),
    "tempered_stable/tabulated_levy": ("0x1.b9a663b0367bbp+0", None, None),
    "tempered_stable/tempered_stable": ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    "tempered_stable/zero": ("0x1.a50c26b5fdaccp+0", None, None),
    "zero/cp_exponential": (
        "-0x1.c4c96b121ccdap-2", "0x1.7fffffffffffcp+0",
        "0x1.7fffffffffffcp+0",
    ),
    "zero/cp_gap": ("0x0.0p+0", "0x1.ffffffffffffep-1", "0x1.ffffffffffffep-1"),
    "zero/cp_normal": ("-0x1.fffc8a9ff322cp-3", "0x1.7fffffffffffep+1", "0x1.7fffffffffffep+1"),
    "zero/cp_tabulated": ("-0x1.cd0c1eaba7f1cp-4", "0x1.ffffffffffffep-1", "0x1.ffffffffffffep-1"),
    "zero/cp_uniform": ("-0x1.3333333333332p-2", "0x1.0000000000000p+1", "0x1.fffffffffffffp+0"),
    "zero/tabulated_gap": ("0x0.0p+0", "0x1.79ed8cf959584p+0", "0x1.79ed8cf959585p+0"),
    "zero/tabulated_levy": ("0x1.49a3cfa1288f0p-4", "0x1.2ebdebf3dc2d5p+2", "0x1.2ebdebf3dc2d5p+2"),
    "zero/tempered_stable": ("-0x1.a50c26b5fdaccp+0", "inf", "inf"),
    "zero/zero": ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
}


class TestSupportIntegralGoldens:
    @pytest.mark.parametrize("name", sorted(SUPPORT_GOLDEN))
    def test_measure(self, name):
        assert measure_pins(support_measures()[name]) == SUPPORT_GOLDEN[name]

    @pytest.mark.parametrize("key", sorted(PAIR_GOLDEN))
    def test_pair(self, key):
        nu1, nu2 = (support_measures()[name] for name in key.split("/"))
        assert pair_pins(nu1, nu2) == PAIR_GOLDEN[key]

    def test_every_pair_is_pinned(self):
        assert sorted(SUPPORT_GOLDEN) == sorted(support_measures())
        assert list(PAIR_GOLDEN) == pair_names()


class TestInverseGaussianSums:
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_empirical_cf_matches_char_function(self, side):
        # The jump sum S of one side, as signed jumps, has characteristic
        # function char_function(u) e^{iu T gamma}: char_function
        # compensates the jumps with |y| <= 1 by their mean T gamma.
        nu = OneSide(0.6, 1.4, 0.5, 2.5, 0.5, side=side)
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

    @pytest.mark.parametrize("lam", [1e-30, 1e-100, 1e-300])
    def test_laplace_transform_at_a_near_zero_lambda(self, lam):
        # The mean sqrt(pi / lam) dwarfs the shape 2 pi c horizon, where
        # Generator.wald's root cancels (at lam = 1e-100 it returned only
        # zeros).  E e^(-s S) = exp(-2 sqrt(pi) c horizon s / (sqrt(lam +
        # s) + sqrt(lam))).
        c, horizon = 1.3, 0.8
        sums = inverse_gaussian_sums(c, lam, horizon, 200_000, RngStream(17, 0))
        assert np.all(sums > 0.0)
        for s in (0.3, 1.0, 3.0):
            v = np.exp(-s * sums)
            target = math.exp(
                -2.0 * math.sqrt(math.pi) * c * horizon * s / (math.sqrt(lam + s) + math.sqrt(lam))
            )
            assert abs(v.mean() - target) < 4.0 * v.std() / math.sqrt(v.size)

    def test_wald_draws_below_the_cancelling_ratio(self):
        # Up to mean / shape = _WALD_MAX_MEAN_SHAPE the sums are
        # Generator.wald's draws, bit for bit.
        c, horizon = 1.0, 1.0
        lam = math.pi / (_WALD_MAX_MEAN_SHAPE * 2.0 * math.pi * c * horizon) ** 2
        mean, shape = math.sqrt(math.pi / lam), 2.0 * math.pi * c * horizon
        assert mean <= _WALD_MAX_MEAN_SHAPE * shape
        sums = inverse_gaussian_sums(c, lam, horizon, 1000, RngStream(5, 0))
        direct = RngStream(5, 0).generator.wald(mean, shape, 1000)
        assert sums.tobytes() == direct.tobytes()

    def test_tiny_scale(self):
        # c * horizon = 1e-170: IG(c T sqrt(pi), 2 pi (c T)^2) would have a
        # shape that underflows to 0, which wald refuses.  Almost all of
        # the law's mass then lies below the smallest double.
        sums = inverse_gaussian_sums(1e-170, 1.0, 1.0, 1000, RngStream(3, 0))
        assert np.all((sums >= 0.0) & (sums < 1e-150))

    def test_subclass_pair_is_not_drawn_exactly(self):
        # Two positive-side OneSide measures that differ only in the
        # lambda- of the side their density leaves out are the same
        # measure.  Drawing the inverse Gaussian sum of that side anyway
        # estimated their distance at 0.851 +- 0.006.
        nu1 = OneSide(1.0, 1.0, 3.0, 1.0, 0.5)
        nu2 = OneSide(1.0, 1.0, 1.0, 1.0, 0.5)
        assert pair_jump_law(nu1, nu2).kind == "generic"
        zero = ConstantFunction(0.0)
        spec = ProblemSpec(ProcessSpec(zero, zero, nu1), ProcessSpec(zero, zero, nu2), 1.0)
        assert l1_distance(nu1, nu2) == 0.0
        result = estimate_tv(spec, 50_000, None, 1)
        assert (result.mean, result.half_width_95) == (0.0, 0.0)


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
        counts = simulate._draw_counts(nu, 1.0, n_paths, RngStream(*stream), eps)
        counted = simulate._counted_sums(counts, COUNTED_WEIGHTS, rows)
    assert counted.shape == streamed.shape == (rows, n_paths)
    assert np.array_equal(counted.view(np.uint64), streamed.view(np.uint64))
    return counts


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
        (tenths,) = simulate._counted_sums(counts, (0.1,), 1)
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
            simulate._draw_counts(CP_U01, 1.0, 0, RngStream(1, 0), 0.0)
        with pytest.raises(ValueError, match="epsilon must be >= 0"):
            simulate._draw_counts(CP_U01, 1.0, 5, RngStream(1, 0), -0.1)
        with pytest.raises(DivergentMass):
            simulate._draw_counts(TS_SYM, 1.0, 5, RngStream(1, 0), 0.0)


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


if __name__ == "__main__":
    print_golden("EDGE_GOLDEN", {k: edge_pins(nu) for k, nu in edge_measures().items()})
    print(f'TABULATED_TOTAL_MASS = "{edge_measures()["tabulated_levy"].total_mass().hex()}"')
    measures = support_measures()
    print_golden("SUPPORT_GOLDEN", {k: measure_pins(measures[k]) for k in sorted(measures)})
    print_golden(
        "PAIR_GOLDEN",
        {k: pair_pins(*(measures[n] for n in k.split("/"))) for k in pair_names()},
    )
