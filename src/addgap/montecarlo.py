"""Monte Carlo estimators built on the likelihood-ratio factorization.

The terminal likelihood ratio of two additive processes with shared
volatility splits into independent factors M_T = exp(C_T + D_T): a
Gaussian part C_T that is exactly N(-xi^2/2, xi^2) and a jump part D_T
driven by the jump sizes alone.  Everything here samples under the law
of the second process, evaluates pathwise functionals of (C_T, D_T),
and reduces them into mean/half-width estimates:

* ``estimate_tv`` targets E|1 - M_T|, the L1 distance itself (unbiased
  for finite-activity pairs and for same-shape alpha = 1/2
  tempered-stable pairs, a truncation proxy otherwise);
* ``martingale_check`` targets E[M_T] = 1, a pure self-test;
* ``estimate_sinh_oracle`` targets E[e^{A+} - e^{A-}] = 2 sinh(T L1),
  the identity behind the jump term of the sinh-shaped bound.

The jump part D_T is drawn by the law ``measures.pair_jump_law`` picks
for the pair, in one dispatch (``_jump_part``): exactly from inverse
Gaussian sums, with no epsilon, no jump and no chunk-jump limit; or the
log-ratios of the jumps above epsilon summed by
``simulate.stream_jump_sums``, which draws only the Poisson counts when
the log-ratio is one constant (``_jump_sums``, shared with the sinh
oracle).

Each hypothesis is refused in one place, for all three estimators:
``_run_seed`` checks the paths, epsilon and the seed;
``measures.require_abs_continuity`` refuses a pair that is not nu1 << nu2,
with the message of the bound report; and ``_jump_sums``, the finite-mass
gate, reads nu1(|y| > epsilon) and nu2(|y| > epsilon) once, refuses with
HypothesisFailed when either is infinite or a chunk would expect more than
MAX_CHUNK_JUMPS jumps, and returns the compensator gap with the sums (an
exact law draws no jump and needs no gate).  The sinh oracle alone first
asks for a finite-activity pair: a finite nu(R) for both measures.

Each estimator then hoists its per-estimate constants and hands a
closure that maps one chunk's two streams to the values of its paths to
``_reduce_chunks``, the one place that runs chunks and owns their layout:
replications run in fixed chunks of ``CHUNK_PATHS`` paths; chunk j
draws its jumps from stream 2j (reduced block by block as they are drawn,
see ``simulate.stream_jump_sums``) and its Gaussian part from stream 2j+1
of the root seed, and chunk partials are reduced in index order with
compensated summation, so results are bit-identical for any value of
ADDGAP_THREADS (by default the CPUs the process may run on).  With t
threads, chunk j goes to the strided run j mod t: the calling thread does
run 0 and one pool of t - 1 workers, built on first use and reused by every
later estimate, does the others; the pool is rebuilt after a fork or when
ADDGAP_THREADS changes.  An estimate whose sum, sum of squares or square
of the sum overflows is refused with HypothesisFailed, never reported as
inf or with a zero half-width.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bounds import continuous_part, normal_cdf
from .errors import HypothesisFailed
from .measures import (
    LevyMeasure,
    l1_distance,
    pair_jump_law,
    require_abs_continuity,
)
from .processes import ProblemSpec
from .simulate import (
    RngStream,
    _default_epsilon,
    _mass_above,
    inverse_gaussian_sums,
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
# run time of one chunk.  A pair truncated at epsilon 1e-6 whose second
# measure is the bundled tempered-stable one expects 3.3e7 jumps; the
# bundled pair itself draws no jumps (see ``_jump_part``).
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
# Chunked, bit-stable reduction
# ---------------------------------------------------------------------------


def _thread_count() -> int:
    """ADDGAP_THREADS, or the CPUs this process may run on when it is unset."""
    raw = os.environ.get("ADDGAP_THREADS", "")
    if not raw:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


# The pool that runs chunks beside the calling thread.  Reusing it saves
# spawning and joining threads on every estimate, which costs about as much
# CPU as a chunk of work.  Tasks are submitted under the lock, so a rebuild
# by another thread cannot shut the pool down between lookup and submit.
_pool_lock = threading.Lock()
_pool_key: tuple[int, int] | None = None
_pool: ThreadPoolExecutor | None = None


def _submit_runs(threads: int, run, runs: int) -> list:
    """Futures of ``run(r)`` for r = 1, ..., runs - 1 on the shared pool of
    ``threads - 1`` workers; at one thread the pool is dropped and there
    are none."""
    global _pool, _pool_key
    key = (os.getpid(), threads)
    with _pool_lock:
        if _pool_key != key:
            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool = None
            if threads > 1:
                _pool = ThreadPoolExecutor(threads - 1, "addgap-chunks")
            _pool_key = key
        return [_pool.submit(run, r) for r in range(1, runs)]


def _reduce_chunks(n_paths: int, epsilon: float, seed: int, values) -> EstimateResult:
    """Mean and 95% half-width of the per-path values of n_paths paths.

    The paths run in fixed chunks of CHUNK_PATHS; ``values(rng_jumps,
    rng_gauss, m)`` returns the values of the m paths of chunk j from its
    jump stream 2j and its Gaussian stream 2j+1 of ``seed``.  With t
    threads, chunk j goes to run j mod t: the calling thread does run 0
    and the shared pool the others, each run its chunks in index order.
    The chunks' (sum, sum of squares) partials are folded in index order
    with compensated sums, so the result does not depend on the thread
    count.  When chunks raise, every run is waited for and the exception
    of the lowest-index failing chunk is raised, the one a single thread
    meets first.  An estimate whose sum, sum of squares or square of the
    sum is not finite is refused.
    """
    spans = [
        (j, min(CHUNK_PATHS, n_paths - start))
        for j, start in enumerate(range(0, n_paths, CHUNK_PATHS))
    ]
    threads = _thread_count()
    runs = min(threads, len(spans))
    partials: list = [None] * len(spans)
    failures: list = []  # (chunk index, exception), one per failed run

    def run(r: int) -> None:
        for j, m in spans[r::runs]:
            try:
                v = values(RngStream(seed, 2 * j), RngStream(seed, 2 * j + 1), m)
                with np.errstate(over="ignore"):
                    partials[j] = float(v.sum()), float((v * v).sum())
            except Exception as exc:
                failures.append((j, exc))
                return

    futures = _submit_runs(threads, run, runs) if len(spans) > 1 else []
    run(0)
    for future in futures:
        future.result()
    if failures:  # the chunk indices differ, so min compares them alone
        raise min(failures)[1]
    try:
        s1, s2 = (math.fsum(p[i] for p in partials) for i in (0, 1))
    except OverflowError:  # fsum raises where a finite sum passes the float range
        s1 = s2 = math.inf
    if not (math.isfinite(s1) and math.isfinite(s2)):
        raise HypothesisFailed(
            "the path values overflow: their sum or sum of squares is not finite"
        )
    if not math.isfinite(s1 * s1):  # the variance would read 0
        raise HypothesisFailed("the path values overflow: the square of their sum is not finite")
    n = n_paths
    variance = max(s2 - s1 * s1 / n, 0.0) / (n - 1) if n > 1 else 0.0
    return EstimateResult(s1 / n, 1.96 * math.sqrt(variance / n), n, epsilon, seed)


def _run_seed(n_paths: int, epsilon: float, rng_root) -> int:
    """The root seed of a run of n_paths paths truncated at epsilon, after
    refusing a non-positive n_paths, a negative or non-finite epsilon and
    a seed that is not a 64-bit unsigned integer, in that order."""
    if n_paths <= 0:
        raise ValueError("n_paths must be positive")
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError("epsilon must be finite and >= 0")
    return RngStream(rng_root, 0).root_seed  # validates like every stream


def _jump_sums(nu1, nu2, law, horizon, n_paths, epsilon, parts, rows=1):
    """``(sums, gap)`` for a pair whose ``law`` is not ``"ig_sides"``:
    ``sums(rng_jumps, m)`` gives the ``rows`` per-path sums of ``parts`` of
    the log-ratio of each jump with |y| > epsilon of m paths under nu2, and
    ``gap`` is the compensator gap, the integral of nu1 - nu2 over
    {|y| > epsilon}.

    The finite-mass gate of every estimator that draws jumps: it reads
    nu1(|y| > epsilon) and nu2(|y| > epsilon) once and, before anything is
    drawn, refuses a pair where either is infinite and a run whose chunk
    expects more than MAX_CHUNK_JUMPS jumps.  A ``"constant"`` law hands
    ``stream_jump_sums`` ``parts`` of its constant, so only the counts are
    drawn; ``parts`` runs the same operations on the constant as on each
    block of log-ratios.
    """
    m1, m2 = _mass_above(nu1, epsilon), _mass_above(nu2, epsilon)
    if math.isinf(m1) or math.isinf(m2):
        raise HypothesisFailed(
            "epsilon = 0 requires finite-activity measures; pass epsilon > 0"
        )
    chunk = min(n_paths, CHUNK_PATHS)
    expected = m2 * horizon * chunk
    if expected > MAX_CHUNK_JUMPS:
        raise HypothesisFailed(
            f"epsilon = {epsilon!r} expects {expected:.3g} jumps in a chunk of"
            f" {chunk} paths, above the limit of {MAX_CHUNK_JUMPS}; raise epsilon"
        )
    weigh = (
        tuple(float(w) for w in parts(law.value))
        if law.kind == "constant"
        else lambda sizes: parts(law.value(sizes))
    )

    def sums(rng_jumps: RngStream, m: int) -> np.ndarray:
        return stream_jump_sums(nu2, horizon, m, rng_jumps, epsilon, weigh, rows)

    return sums, m1 - m2


def _jump_part(nu1: LevyMeasure, nu2: LevyMeasure, horizon: float, n_paths: int, epsilon: float):
    """``(jump_part, truncation)``: ``jump_part(rng_jumps, m)`` returns D_T of
    m paths drawn on the jump stream, and ``truncation`` is the epsilon it
    truncates the jumps at (0 when it draws D_T exactly)."""
    law = pair_jump_law(nu1, nu2)
    if law.kind == "ig_sides":
        # D_T = shift - sum over sides of (lambda1 - lambda2) S, with S the
        # side's inverse Gaussian jump sum.
        shift = -horizon * law.mass_gap

        def exact(rng_jumps: RngStream, m: int) -> np.ndarray:
            d = np.full(m, shift)
            for c, lam1, lam2 in law.value:
                s = inverse_gaussian_sums(c, lam2, horizon, m, rng_jumps)
                s *= lam1 - lam2
                d -= s
            return d

        return exact, 0.0

    sums, gap = _jump_sums(nu1, nu2, law, horizon, n_paths, epsilon, lambda ratio: (ratio,))
    comp_d = horizon * gap

    def truncated(rng_jumps: RngStream, m: int) -> np.ndarray:
        # The summed log-ratios of each path's jumps with |y| > epsilon
        # minus horizon * integral of (nu1 - nu2) over {|y| > epsilon}.
        (d,) = sums(rng_jumps, m)
        d -= comp_d
        return d

    return truncated, epsilon


def _estimate_ct_dt(spec, n_paths, epsilon, rng_root, value_fn) -> EstimateResult:
    """Monte Carlo mean of value_fn(C_T + D_T) under the second process."""
    seed = _run_seed(n_paths, epsilon, rng_root)
    nu1, nu2, horizon = spec.process1.levy, spec.process2.levy, spec.horizon
    require_abs_continuity(nu1, nu2)
    xi_sq = continuous_part(spec)
    jump_part, truncation = _jump_part(nu1, nu2, horizon, n_paths, epsilon)

    def values(rng_jumps: RngStream, rng_gauss: RngStream, m: int) -> np.ndarray:
        d = jump_part(rng_jumps, m)
        # C_T, exactly N(-xi^2/2, xi^2); 0 without a Gaussian part.
        c = 0.0
        if xi_sq is not None:
            z = rng_gauss.generator.standard_normal(m)
            c = -0.5 * xi_sq + math.sqrt(xi_sq) * z
        with np.errstate(over="ignore"):
            return value_fn(c + d)

    return _reduce_chunks(n_paths, truncation, seed, values)


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
    Same-shape alpha = 1/2 tempered-stable pairs are drawn exactly and
    unbiased at any valid epsilon, reported as truncation_epsilon 0.
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
    seed = _run_seed(n_paths, 0.0, rng_root)
    nu1, nu2 = spec.process1.levy, spec.process2.levy
    # The identity needs finite compensators at any epsilon, so this comes
    # before absolute continuity and the gate of ``_jump_sums``.
    if math.isinf(_mass_above(nu1, 0.0)) or math.isinf(_mass_above(nu2, 0.0)):
        raise HypothesisFailed("finite-activity pair required")
    require_abs_continuity(nu1, nu2)
    horizon = spec.horizon
    sums, gap = _jump_sums(
        nu1, nu2, pair_jump_law(nu1, nu2), horizon, n_paths, 0.0,
        lambda ratio: (np.maximum(ratio, 0.0), np.minimum(ratio, 0.0)), rows=2,
    )
    l1 = l1_distance(nu1, nu2)
    # The positive and negative parts of the integral of nu1 - nu2.
    pos_rate, neg_rate = max(0.5 * (l1 + gap), 0.0), max(0.5 * (l1 - gap), 0.0)

    def values(rng_jumps: RngStream, rng_gauss: RngStream, m: int) -> np.ndarray:
        # D_T = A+ + A- split along the sign of the log-ratio: A+ sums the
        # positive log-ratios and carries the compensator of the negative
        # part of nu1 - nu2, A- the rest, so A+ >= 0 >= A-.
        a_plus, a_minus = sums(rng_jumps, m)
        a_plus += horizon * neg_rate
        a_minus -= horizon * pos_rate
        with np.errstate(over="ignore"):
            return np.exp(a_plus) - np.exp(a_minus)

    return _reduce_chunks(n_paths, 0.0, seed, values)
