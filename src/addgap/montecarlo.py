"""Monte Carlo estimators built on the likelihood-ratio factorization.

The terminal likelihood ratio of two additive processes with shared
volatility splits into independent factors M_T = exp(C_T + D_T): a
Gaussian part C_T that is exactly N(-xi^2/2, xi^2) and a jump part D_T
driven by the jump sizes alone.  Everything here samples under the law
of the second process, evaluates pathwise functionals of (C_T, D_T),
and reduces them into mean/half-width estimates:

* ``estimate_tv`` targets E|1 - M_T|, the L1 distance itself (exact for
  finite-activity pairs, a truncation proxy otherwise);
* ``martingale_check`` targets E[M_T] = 1, a pure self-test;
* ``estimate_sinh_oracle`` targets E[e^{A+} - e^{A-}] = 2 sinh(T L1),
  the identity behind the jump term of the sinh-shaped bound.

Replications run in fixed chunks of ``CHUNK_PATHS`` paths; chunk j draws
its jumps from stream 2j (reduced block by block as they are drawn, see
``simulate.stream_jump_sums``) and its Gaussian part from stream 2j+1 of
the root seed, and chunk partials are reduced in index order with
compensated summation, so results are bit-identical for any value of
ADDGAP_THREADS.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import continuous_part, normal_cdf
from .errors import HypothesisFailed, NotAbsolutelyContinuous
from .measures import (
    LevyMeasure,
    check_abs_continuity,
    l1_integral,
    pair_log_ratio,
)
from .processes import ProblemSpec
from .simulate import (
    RngStream,
    _default_epsilon,
    _mass_above,
    stream_jump_sums,
)

__all__ = [
    "CHUNK_PATHS",
    "EstimateResult",
    "e_abs_one_minus_exp_normal",
    "default_epsilon",
    "estimate_tv",
    "estimate_sinh_oracle",
    "martingale_check",
]

# Fixed replication granularity: chunk boundaries never move, so the
# stream layout (and hence every digit of the result) is independent of
# the worker count.
CHUNK_PATHS = 8192

# Most jumps one chunk may expect to draw; an estimate that would expect
# more is refused before anything is drawn.  A chunk streams its jumps in
# fixed blocks, so its memory does not grow with them: the limit bounds the
# run time of one chunk.  The bundled tempered-stable pair expects 3.3e7
# jumps at epsilon 1e-6.
MAX_CHUNK_JUMPS = 2**25


@dataclass(frozen=True)
class EstimateResult:
    """A Monte Carlo mean with its 95% half-width and provenance."""

    mean: float
    half_width_95: float
    n_paths: int
    truncation_epsilon: float
    seed: int


def e_abs_one_minus_exp_normal(m: float, s: float) -> float:
    """E|1 - e^X| for X ~ N(m, s^2), in closed form:

        (2 phi(-m/s) - 1) + e^{m + s^2/2} (1 - 2 phi(-m/s - s)).

    When e^X has unit mean (m = -s^2/2) the exponential factor is 1 and
    this collapses to the short form 2 [phi(-m/s) - phi(-m/s - s)]
    = 2 [1 - 2 phi(-s/2)]; the short form is wrong for any other mean
    (it forgets the e^{m + s^2/2} weight of the e^X partial moments), so
    the full expression is used.  Degenerates to |1 - e^m| at s = 0.
    """
    if s < 0.0:
        raise ValueError("s must be >= 0")
    growth = m + 0.5 * s * s
    if growth > 700.0:
        return math.inf
    if s == 0.0:
        return abs(math.expm1(m))
    t = -m / s
    return (2.0 * normal_cdf(t) - 1.0) + math.exp(growth) * (
        1.0 - 2.0 * normal_cdf(t - s)
    )


# ---------------------------------------------------------------------------
# Compensators and hypotheses
# ---------------------------------------------------------------------------


def _compensator_gap(nu1: LevyMeasure, nu2: LevyMeasure, epsilon: float) -> float:
    """integral of (nu1 - nu2) over {|y| > epsilon}, via the exact masses."""
    m1, m2 = _mass_above(nu1, epsilon), _mass_above(nu2, epsilon)
    if math.isinf(m1) or math.isinf(m2):
        raise ValueError(
            "epsilon = 0 compensators need finite-activity measures"
        )
    return m1 - m2


def _signed_difference_rates(
    nu1: LevyMeasure, nu2: LevyMeasure, l1: float
) -> tuple[float, float]:
    """(positive part, negative part) of the integral of n1 - n2, for an
    absolutely continuous finite-activity pair whose L1 distance is l1."""
    gap = _compensator_gap(nu1, nu2, 0.0)
    return max(0.5 * (l1 + gap), 0.0), max(0.5 * (l1 - gap), 0.0)


def _require_ac(nu1: LevyMeasure, nu2: LevyMeasure) -> None:
    if not check_abs_continuity(nu1, nu2).ok:
        raise NotAbsolutelyContinuous("nu1 carries density where nu2 has none")


def _check_chunk_jumps(nu: LevyMeasure, horizon: float, epsilon: float, n_paths: int) -> None:
    """Refuse a run whose largest chunk expects more than MAX_CHUNK_JUMPS
    jumps with |y| > epsilon under nu."""
    chunk = min(n_paths, CHUNK_PATHS)
    expected = _mass_above(nu, epsilon) * horizon * chunk
    if expected > MAX_CHUNK_JUMPS:
        raise HypothesisFailed(
            f"epsilon = {epsilon!r} expects {expected:.3g} jumps in a chunk of"
            f" {chunk} paths, above the limit of {MAX_CHUNK_JUMPS}; raise epsilon"
        )


def _split_a_pm(
    nu2: LevyMeasure,
    log_ratio: Callable[[np.ndarray], np.ndarray],
    horizon: float,
    rates: tuple[float, float],
    rng: RngStream,
    m: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path split D_T = A+ + A- along the sign of the log-ratio, for m
    exact paths of nu2 drawn from ``rng``.

    A+ sums the positive log-ratios and carries the compensator of the
    negative part of nu1 - nu2, A- the negative log-ratios with the
    compensator of the positive part; so A+ >= 0 >= A-.
    """

    def signed_parts(sizes):
        ratio = log_ratio(sizes)
        return np.maximum(ratio, 0.0), np.minimum(ratio, 0.0)

    pos_rate, neg_rate = rates
    a_plus, a_minus = stream_jump_sums(nu2, horizon, m, rng, 0.0, signed_parts, rows=2)
    a_plus += horizon * neg_rate
    a_minus -= horizon * pos_rate
    return a_plus, a_minus


# ---------------------------------------------------------------------------
# Chunked, bit-stable reduction
# ---------------------------------------------------------------------------


def _thread_count() -> int:
    raw = os.environ.get("ADDGAP_THREADS", "")
    if not raw:
        return os.cpu_count() or 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _check_root_seed(rng_root) -> int:
    # Reuse the stream validation so errors read the same everywhere.
    return RngStream(rng_root, 0).root_seed


def _reduce_chunks(n_paths: int, worker) -> tuple[float, float]:
    """Run worker(j, n_chunk_paths) for every fixed-size chunk and fold the
    (sum, sum of squares) partials in index order with compensated sums."""
    spans = [
        (j, min(CHUNK_PATHS, n_paths - start))
        for j, start in enumerate(range(0, n_paths, CHUNK_PATHS))
    ]
    threads = _thread_count()
    if threads == 1:
        partials = [worker(j, m) for j, m in spans]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(lambda jm: worker(*jm), spans))
    s1 = math.fsum(p[0] for p in partials)
    s2 = math.fsum(p[1] for p in partials)
    return s1, s2


def _result(s1: float, s2: float, n: int, epsilon: float, seed: int) -> EstimateResult:
    mean = s1 / n
    variance = max(s2 - s1 * s1 / n, 0.0) / (n - 1) if n > 1 else 0.0
    half_width = 1.96 * math.sqrt(variance / n)
    return EstimateResult(mean, half_width, n, epsilon, seed)


@dataclass(frozen=True)
class _Prepared:
    """Per-estimate constants hoisted out of the chunk loop."""

    nu2: LevyMeasure
    log_ratio: Callable[[np.ndarray], np.ndarray]
    horizon: float
    epsilon: float
    xi_sq: float | None
    comp_d: float

    def jump_part(self, rng: RngStream, m: int) -> np.ndarray:
        """D_T of m paths of nu2 drawn from ``rng``: the summed log-ratios of
        each path's jumps with |y| > epsilon minus the compensator
        horizon * integral of (nu1 - nu2) over {|y| > epsilon}."""
        (d,) = stream_jump_sums(
            self.nu2, self.horizon, m, rng, self.epsilon, lambda y: (self.log_ratio(y),)
        )
        d -= self.comp_d
        return d

    def gaussian_part(self, rng: RngStream, m: int):
        """C_T of m paths, exactly N(-xi^2/2, xi^2); 0 without a Gaussian part."""
        if self.xi_sq is None:
            return 0.0
        z = rng.generator.standard_normal(m)
        return -0.5 * self.xi_sq + math.sqrt(self.xi_sq) * z


def _prepare(spec: ProblemSpec, n_paths: int, epsilon: float) -> _Prepared:
    nu1, nu2 = spec.process1.levy, spec.process2.levy
    _require_ac(nu1, nu2)
    xi_sq = continuous_part(spec)
    if epsilon == 0.0 and not (
        nu1.is_finite_activity() and nu2.is_finite_activity()
    ):
        raise HypothesisFailed(
            "epsilon = 0 requires finite-activity measures; pass epsilon > 0"
        )
    _check_chunk_jumps(nu2, spec.horizon, epsilon, n_paths)
    comp_d = spec.horizon * _compensator_gap(nu1, nu2, epsilon)
    return _Prepared(
        nu2, pair_log_ratio(nu1, nu2), spec.horizon, epsilon, xi_sq, comp_d
    )


def _estimate_ct_dt(spec, n_paths, epsilon, rng_root, value_fn) -> EstimateResult:
    if n_paths <= 0:
        raise ValueError("n_paths must be positive")
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError("epsilon must be finite and >= 0")
    seed = _check_root_seed(rng_root)
    prep = _prepare(spec, n_paths, epsilon)

    def worker(j: int, m: int) -> tuple[float, float]:
        d = prep.jump_part(RngStream(seed, 2 * j), m)
        c = prep.gaussian_part(RngStream(seed, 2 * j + 1), m)
        with np.errstate(over="ignore"):
            values = value_fn(c + d)
        return float(values.sum()), float((values * values).sum())

    s1, s2 = _reduce_chunks(n_paths, worker)
    return _result(s1, s2, n_paths, epsilon, seed)


def default_epsilon(spec: ProblemSpec) -> float:
    """Truncation policy when none is given: exact simulation (epsilon 0)
    for finite-activity pairs, DEFAULT_EPSILON otherwise."""
    return _default_epsilon(spec.process1.levy, spec.process2.levy)


def estimate_tv(
    spec: ProblemSpec, n_paths: int, epsilon: float, rng_root
) -> EstimateResult:
    """Monte Carlo estimate of the L1 distance E|1 - exp(C_T + D_T)|,
    sampling under the second process's law.

    Unbiased for finite-activity pairs at epsilon = 0; with epsilon > 0 it
    targets the truncated proxy instead (no extrapolation is attempted).
    """
    return _estimate_ct_dt(
        spec, n_paths, epsilon, rng_root, lambda x: np.abs(np.expm1(x))
    )


def martingale_check(spec: ProblemSpec, n_paths: int, rng_root) -> EstimateResult:
    """Monte Carlo mean of M_T = exp(C_T + D_T); must cover 1."""
    return _estimate_ct_dt(
        spec, n_paths, default_epsilon(spec), rng_root, np.exp
    )


def estimate_sinh_oracle(
    spec: ProblemSpec, n_paths: int, rng_root
) -> EstimateResult:
    """Monte Carlo mean of e^{A+} - e^{A-} under the pure-jump law of the
    second measure; the target identity is 2 sinh(T L1(nu1, nu2))."""
    return _sinh_oracle(spec, n_paths, rng_root)[0]


def _sinh_oracle(
    spec: ProblemSpec, n_paths: int, rng_root
) -> tuple[EstimateResult, float]:
    """``estimate_sinh_oracle`` and the L1(nu1, nu2) of its target, from one
    absolute-continuity check and one L1 integral."""
    if n_paths <= 0:
        raise ValueError("n_paths must be positive")
    seed = _check_root_seed(rng_root)
    nu1, nu2 = spec.process1.levy, spec.process2.levy
    if not (nu1.is_finite_activity() and nu2.is_finite_activity()):
        raise HypothesisFailed("finite-activity pair required")
    _require_ac(nu1, nu2)
    horizon = spec.horizon
    _check_chunk_jumps(nu2, horizon, 0.0, n_paths)
    l1 = l1_integral(nu1, nu2)
    rates = _signed_difference_rates(nu1, nu2, l1)
    log_ratio = pair_log_ratio(nu1, nu2)

    def worker(j: int, m: int) -> tuple[float, float]:
        a_plus, a_minus = _split_a_pm(
            nu2, log_ratio, horizon, rates, RngStream(seed, 2 * j), m
        )
        with np.errstate(over="ignore"):
            values = np.exp(a_plus) - np.exp(a_minus)
        return float(values.sum()), float((values * values).sum())

    s1, s2 = _reduce_chunks(n_paths, worker)
    return _result(s1, s2, n_paths, 0.0, seed), l1
