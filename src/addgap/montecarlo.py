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
Gaussian sums, with no epsilon, no jump and no chunk-jump limit; from the
Poisson counts alone when the log-ratio is one constant; or as the
log-ratios of the jumps above epsilon summed by
``simulate.stream_jump_sums`` (``_jump_sums``, shared with the sinh
oracle).  Each jump part is split into a draw and a read of it
(``_Jumps``), so that estimates which make the same draws can share them.

Each hypothesis is refused in one place, for all three estimators:
``_run_seed`` checks the paths (at most MAX_PATHS), epsilon and the seed;
``measures.require_abs_continuity`` refuses a pair that is not nu1 << nu2,
with the message of the bound report; and ``_jump_sums``, the finite-mass
gate, reads nu1(|y| > epsilon) and nu2(|y| > epsilon) once, refuses with
HypothesisFailed when either is infinite or a chunk would expect more than
MAX_CHUNK_JUMPS jumps, and returns the compensator gap with the sums (an
exact law draws no jump and needs no gate).  The sinh oracle alone first
asks for a finite-activity pair: a finite nu(R) for both measures.

Each estimator then hoists its per-estimate constants into a row
(``_Row``): its jump part and a closure that maps one chunk's draws to
the values of its paths.
``_estimate_rows`` runs rows in groups: rows of equal n_paths and seed
whose jump parts make the same draws (the inverse Gaussian sums of the
same sides of nu2, or the Poisson counts of the same nu2, horizon and
epsilon) share them, the common random numbers of Glasserman (2004,
ch. 7); a sweep's rows are estimated this way (``estimate_tv_rows``) and
each of the three estimators is a group of one row.  ``_reduce_chunks``
is the one place that runs chunks and owns their layout: replications run
in fixed chunks of ``CHUNK_PATHS`` paths; chunk j draws its jumps from
stream 2j (reduced block by block as they are drawn, see
``simulate.stream_jump_sums``) and its standard normals from stream 2j+1
of the root seed, once for the whole group (the normals when a row first
asks for them), and each row reads them in turn without changing them.  Every row keeps its own (sum, sum of
squares) partial per chunk, and a row's partials are reduced in index
order with compensated summation, so each row's result is bit-identical
to a run of its own and for any value of ADDGAP_THREADS (by default the
CPUs the process may run on).  With t threads, chunk j goes to the
strided run j mod t: the calling thread does run 0 and one pool of t - 1
workers, built on first use and reused by every later estimate, does the
others; the pool is rebuilt after a fork or when ADDGAP_THREADS changes.
An estimate whose sum, sum of squares or square of the sum overflows is
refused with HypothesisFailed, never reported as inf or with a zero
half-width.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._cephes import normal_cdf
from .bounds import continuous_part
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
    _counted_sums,
    _default_epsilon,
    _draw_counts,
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

# Most paths one estimate may run: 524,288 chunks.  A larger n_paths is
# refused before anything is built.  A reduction holds one 16-byte (sum,
# sum of squares) partial per row and chunk, and ``_estimate_rows`` batches
# rows so that rows times chunks stays at or under 524,288: at most 8 MB of
# partials, however many rows share the draws.  Each worker holds one
# chunk's shared draws at a time.
MAX_PATHS = 2**32


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
    The value is at least |1 - e^{m + s^2/2}|, so it is inf exactly when
    that exponential overflows.
    """
    if not s >= 0.0:
        raise ValueError("s must be >= 0")
    if math.isnan(m) or (m == -math.inf and s == math.inf):
        raise ValueError(f"E|1 - e^X| is undefined at m = {m!r}, s = {s!r}")
    try:
        if s == 0.0:
            return abs(math.expm1(m))
        weight = math.exp(m + 0.5 * s * s)
    except OverflowError:
        return math.inf
    if weight == math.inf:  # an infinite m + s^2/2
        return weight
    t = -m / s
    return (2.0 * normal_cdf(t) - 1.0) + weight * (1.0 - 2.0 * normal_cdf(t - s))


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


def _reduce_chunks(n_paths: int, seed: int, draw, rows) -> list:
    """The mean and 95% half-width of each row's per-path values over the
    same n_paths paths: per row an EstimateResult, or the exception that
    refused it.

    The paths run in fixed chunks of CHUNK_PATHS.  ``draw(rng_jumps,
    rng_gauss, m)`` makes the draws of the m paths of chunk j once, from its
    jump stream 2j and its Gaussian stream 2j+1 of ``seed``; then each row
    ``(values, epsilon)`` in turn maps them to its per-path values,
    ``values(drawn, m)``, and epsilon is the truncation its result reports.
    With t threads, chunk j goes to run j mod t: the calling thread does
    run 0 and the shared pool the others, each run its chunks in index
    order.  Each row's chunk (sum, sum of squares) partials are folded in
    index order with compensated sums, so no result depends on the thread
    count.  A run stops reading a row at the row's first failing chunk, and
    stops at once when the draw fails; every run is waited for, and a
    failed row gets the exception of its lowest-index failing chunk, the
    one a single thread meets first.  A row whose sum, sum of squares or
    square of the sum is not finite is refused.
    """
    chunks = -(-n_paths // CHUNK_PATHS)
    threads = _thread_count()
    runs = min(threads, chunks)
    values = [row_values for row_values, _ in rows]
    partials = np.empty((len(rows), chunks, 2))
    failures: list = [[] for _ in rows]  # (chunk index, exception) per row

    def run(r: int) -> None:
        live = range(len(rows))
        for j in range(r, chunks, runs):
            m = min(CHUNK_PATHS, n_paths - j * CHUNK_PATHS)
            try:
                drawn = draw(RngStream(seed, 2 * j), RngStream(seed, 2 * j + 1), m)
            except Exception as exc:
                for i in live:
                    failures[i].append((j, exc))
                return
            kept = []
            for i in live:
                try:
                    v = values[i](drawn, m)
                    with np.errstate(over="ignore"):
                        partials[i, j] = float(v.sum()), float((v * v).sum())
                except Exception as exc:
                    failures[i].append((j, exc))
                else:
                    kept.append(i)
            drawn = v = None  # so that a worker holds one chunk's draws at a time
            if not kept:
                return
            live = kept

    futures = _submit_runs(threads, run, runs) if chunks > 1 else []
    run(0)
    for future in futures:
        future.result()
    return [
        min(failed, key=lambda f: f[0])[1] if failed else _fold(sums, n_paths, epsilon, seed)
        for (_, epsilon), sums, failed in zip(rows, partials, failures)
    ]


def _fold(partials: np.ndarray, n: int, epsilon: float, seed: int):
    """The EstimateResult of one row's (sum, sum of squares) chunk partials,
    or the HypothesisFailed that refuses a sum, sum of squares or square of
    the sum that is not finite."""
    try:
        s1, s2 = map(math.fsum, partials.T.tolist())
    except OverflowError:  # fsum raises where a finite sum passes the float range
        s1 = s2 = math.inf
    if not (math.isfinite(s1) and math.isfinite(s2)):
        return HypothesisFailed(
            "the path values overflow: their sum or sum of squares is not finite"
        )
    if not math.isfinite(s1 * s1):  # the variance would read 0
        return HypothesisFailed("the path values overflow: the square of their sum is not finite")
    variance = max(s2 - s1 * s1 / n, 0.0) / (n - 1) if n > 1 else 0.0
    return EstimateResult(s1 / n, 1.96 * math.sqrt(variance / n), n, epsilon, seed)


class _Jumps(NamedTuple):
    """A jump part split where estimates can share it: ``draw(rng_jumps, m)``
    makes the draws of m paths on the jump stream, and ``read(drawn, m)``
    maps them to this estimate's per-path values, arrays the caller may
    change.  Jump parts whose ``key`` is equal and not None make the same
    draws, and their reads leave the draws unchanged; with key None the
    draws are the estimate's own, and the read may hand them over."""

    key: object
    draw: Callable
    read: Callable


class _Row(NamedTuple):
    """One estimate as ``_estimate_rows`` runs it: its paths, root seed and
    reported truncation; its jump part; and ``values((jump_draws, normals),
    m)``, the values of a chunk's m paths, where ``normals()`` returns the
    chunk's m standard normals."""

    n_paths: int
    seed: int
    truncation: float
    jumps: _Jumps
    values: Callable


# Most (row, chunk) partials one reduction holds: one per chunk of MAX_PATHS
# paths, as a single estimate at the limit holds.
_MAX_PARTIALS = MAX_PATHS // CHUNK_PATHS


def _estimate_rows(rows: list) -> list:
    """The EstimateResult, or the exception that refused it, of each row.

    Rows of equal n_paths and seed whose jump parts have the same key (not
    None) form a group, which makes its draws once per chunk: the jumps,
    and the standard normals when a row of the group first asks for them
    (none without a Gaussian part).  Each row reads them as it would its
    own draws, so its result has the bits of a run of its own (Glasserman
    2004, ch. 7, common random numbers).  A group runs in batches of at
    most _MAX_PARTIALS // chunks rows, so one reduction holds at most
    _MAX_PARTIALS partials.
    """
    groups: dict = {}
    for i, row in enumerate(rows):
        key = i if row.jumps.key is None else (row.n_paths, row.seed, row.jumps.key)
        groups.setdefault(key, []).append(i)
    results: list = [None] * len(rows)
    for members in groups.values():
        first = rows[members[0]]

        def draw(rng_jumps, rng_gauss, m, jumps=first.jumps.draw):
            # The chunk's m standard normals are drawn when a row first
            # calls for them, after that row's jump part, which measured
            # faster at two threads than drawing them with the jumps.
            normals = functools.cache(lambda: rng_gauss.generator.standard_normal(m))
            return jumps(rng_jumps, m), normals

        size = max(1, _MAX_PARTIALS // -(-first.n_paths // CHUNK_PATHS))
        for start in range(0, len(members), size):
            batch = members[start : start + size]
            reduced = _reduce_chunks(
                first.n_paths, first.seed, draw,
                [(rows[i].values, rows[i].truncation) for i in batch],
            )
            for i, result in zip(batch, reduced):
                results[i] = result
    return results


def _one(row: _Row) -> EstimateResult:
    """The result of one row; raises the exception that refused it."""
    (result,) = _estimate_rows([row])
    if isinstance(result, Exception):
        raise result
    return result


def _run_seed(n_paths: int, epsilon: float, rng_root) -> int:
    """The root seed of a run of n_paths paths truncated at epsilon, after
    refusing a non-positive n_paths, one above MAX_PATHS, a negative or
    non-finite epsilon and a seed that is not a 64-bit unsigned integer, in
    that order."""
    if n_paths <= 0:
        raise ValueError("n_paths must be positive")
    if n_paths > MAX_PATHS:
        raise HypothesisFailed(f"n_paths = {n_paths} is above the limit of {MAX_PATHS}")
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError("epsilon must be finite and >= 0")
    return RngStream(rng_root, 0).root_seed  # validates like every stream


def _jump_sums(nu1, nu2, law, horizon, n_paths, epsilon, parts, rows=1):
    """``(jumps, gap)`` for a pair whose ``law`` is not ``"ig_sides"``:
    ``jumps`` (``_Jumps``) reads the ``rows`` per-path sums of ``parts`` of
    the log-ratio of each jump with |y| > epsilon of m paths under nu2, and
    ``gap`` is the compensator gap, the integral of nu1 - nu2 over
    {|y| > epsilon}.

    The finite-mass gate of every estimator that draws jumps: it reads
    nu1(|y| > epsilon) and nu2(|y| > epsilon) once and, before anything is
    drawn, refuses a pair where either is infinite and a run whose chunk
    expects more than MAX_CHUNK_JUMPS jumps.  A ``"constant"`` law draws
    only nu2's Poisson counts, which every pair with the same nu2, horizon
    and epsilon shares, and reads its sums from them
    (``simulate._counted_sums``, one weight per row: ``parts`` of the
    constant, the operations it runs on each block of log-ratios).  Any
    other law weighs every jump (``simulate.stream_jump_sums``), unshared.
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
    if law.kind == "constant":
        weights = tuple(float(w) for w in parts(law.value))
        jumps = _Jumps(
            ("constant", nu2, horizon, epsilon),
            lambda rng_jumps, m: _draw_counts(nu2, horizon, m, rng_jumps, epsilon),
            lambda counts, m: _counted_sums(counts, weights, rows),
        )
    else:
        def weigh(sizes):
            return parts(law.value(sizes))

        jumps = _Jumps(
            None,
            lambda rng_jumps, m: stream_jump_sums(nu2, horizon, m, rng_jumps, epsilon, weigh, rows),
            lambda sums, m: sums,
        )
    return jumps, m1 - m2


def _jump_part(nu1: LevyMeasure, nu2: LevyMeasure, horizon: float, n_paths: int, epsilon: float):
    """``(jumps, truncation)``: ``jumps`` (``_Jumps``) reads D_T of m paths
    from the draws of the jump stream, and ``truncation`` is the epsilon it
    truncates the jumps at (0 when it draws D_T exactly).  An exact law
    draws the inverse Gaussian sums of each side on which the pair differs,
    which every pair with the same (C, lambda2) on those sides, in order,
    and the same horizon shares."""
    law = pair_jump_law(nu1, nu2)
    if law.kind == "ig_sides":
        shift = -horizon * law.mass_gap
        drawn_sides = tuple((c, lam2) for c, _, lam2 in law.value)
        slopes = [lam2 - lam1 for _, lam1, lam2 in law.value]

        def draw(rng_jumps: RngStream, m: int) -> list:
            return [inverse_gaussian_sums(c, lam2, horizon, m, rng_jumps) for c, lam2 in drawn_sides]

        def exact(sums: list, m: int) -> np.ndarray:
            # D_T = shift - sum over sides of (lambda1 - lambda2) S, with S
            # the side's inverse Gaussian jump sum, added side by side as
            # (lambda2 - lambda1) S, the same bits; the first side's term
            # is the array the others are added to.
            if not sums:
                return np.full(m, shift)
            d = sums[0] * slopes[0]
            d += shift
            for s, slope in zip(sums[1:], slopes[1:]):
                d += s * slope
            return d

        return _Jumps(("ig_sides", drawn_sides, horizon), draw, exact), 0.0

    sums, gap = _jump_sums(nu1, nu2, law, horizon, n_paths, epsilon, lambda ratio: (ratio,))
    comp_d = horizon * gap

    def truncated(drawn, m: int) -> np.ndarray:
        # The summed log-ratios of each path's jumps with |y| > epsilon
        # minus horizon * integral of (nu1 - nu2) over {|y| > epsilon}.
        (d,) = sums.read(drawn, m)
        d -= comp_d
        return d

    return sums._replace(read=truncated), epsilon


def _ct_dt_row(spec, n_paths, epsilon, rng_root, value_fn) -> _Row:
    """The row of the Monte Carlo mean of value_fn(C_T + D_T) under the
    second process, truncated at epsilon, or at default_epsilon(spec) when
    it is None; raises what refuses the estimate before anything is drawn."""
    if epsilon is None:
        epsilon = default_epsilon(spec)
    seed = _run_seed(n_paths, epsilon, rng_root)
    nu1, nu2, horizon = spec.process1.levy, spec.process2.levy, spec.horizon
    require_abs_continuity(nu1, nu2)
    xi_sq = continuous_part(spec)
    jumps, truncation = _jump_part(nu1, nu2, horizon, n_paths, epsilon)

    def values(drawn, m: int) -> np.ndarray:
        d = jumps.read(drawn[0], m)
        # C_T, exactly N(-xi^2/2, xi^2); 0 without a Gaussian part.
        c = 0.0
        if xi_sq is not None:
            c = -0.5 * xi_sq + math.sqrt(xi_sq) * drawn[1]()
        with np.errstate(over="ignore"):
            return value_fn(c + d)

    return _Row(n_paths, seed, truncation, jumps, values)


def _estimate_ct_dt(spec, n_paths, epsilon, rng_root, value_fn) -> EstimateResult:
    """Monte Carlo mean of value_fn(C_T + D_T) under the second process,
    truncated at epsilon, or at default_epsilon(spec) when it is None."""
    return _one(_ct_dt_row(spec, n_paths, epsilon, rng_root, value_fn))


def _abs_expm1(x: np.ndarray) -> np.ndarray:
    return np.abs(np.expm1(x))


def default_epsilon(spec: ProblemSpec) -> float:
    """Truncation policy when none is given: exact simulation (epsilon 0)
    for finite-activity pairs, DEFAULT_EPSILON otherwise."""
    return _default_epsilon(spec.process1.levy, spec.process2.levy)


def estimate_tv(
    spec: ProblemSpec, n_paths: int, epsilon: float | None, rng_root
) -> EstimateResult:
    """Monte Carlo estimate of the L1 distance E|1 - exp(C_T + D_T)|,
    sampling under the second process's law.

    Unbiased for finite-activity pairs at epsilon = 0; with epsilon > 0 it
    targets the truncated proxy instead (no extrapolation is attempted).
    epsilon None means default_epsilon(spec): 0 for a finite-activity pair.
    Same-shape alpha = 1/2 tempered-stable pairs are drawn exactly and
    unbiased at any valid epsilon, reported as truncation_epsilon 0.
    """
    return _estimate_ct_dt(spec, n_paths, epsilon, rng_root, _abs_expm1)


def estimate_tv_rows(jobs) -> list:
    """``estimate_tv(spec, n_paths, epsilon, rng_root)`` of each job, or the
    exception it raises, with the bits of each call: the jobs that can share
    their draws (``_estimate_rows``) make them once per chunk."""
    rows, results = [], []
    for job in jobs:
        try:
            rows.append(_ct_dt_row(*job, _abs_expm1))
        except Exception as exc:
            results.append(exc)
        else:
            results.append(None)
    estimated = iter(_estimate_rows(rows))
    return [next(estimated) if result is None else result for result in results]


def martingale_check(spec: ProblemSpec, n_paths: int, rng_root) -> EstimateResult:
    """Monte Carlo mean of M_T = exp(C_T + D_T); must cover 1."""
    return _estimate_ct_dt(spec, n_paths, None, rng_root, np.exp)


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
    jumps, gap = _jump_sums(
        nu1, nu2, pair_jump_law(nu1, nu2), horizon, n_paths, 0.0,
        lambda ratio: (np.maximum(ratio, 0.0), np.minimum(ratio, 0.0)), rows=2,
    )
    l1 = l1_distance(nu1, nu2)
    # The positive and negative parts of the integral of nu1 - nu2.
    pos_rate, neg_rate = max(0.5 * (l1 + gap), 0.0), max(0.5 * (l1 - gap), 0.0)

    def values(drawn, m: int) -> np.ndarray:
        # D_T = A+ + A- split along the sign of the log-ratio: A+ sums the
        # positive log-ratios and carries the compensator of the negative
        # part of nu1 - nu2, A- the rest, so A+ >= 0 >= A-.
        a_plus, a_minus = jumps.read(drawn[0], m)
        a_plus += horizon * neg_rate
        a_minus -= horizon * pos_rate
        with np.errstate(over="ignore"):
            return np.exp(a_plus) - np.exp(a_minus)

    return _one(_Row(n_paths, seed, 0.0, jumps, values))
