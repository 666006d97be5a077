"""Exact simulation of the stochastic ingredients of the likelihood ratio.

The continuous part is never discretized: its terminal contribution is a
single normal draw with the closed-form mean and variance, so the only
approximation anywhere in the sampling layer is the small-jump truncation
for infinite-activity measures.  One infinite-activity case needs none:
the jumps of one side of an alpha = 1/2 tempered-stable measure sum to an
inverse Gaussian variable, which ``inverse_gaussian_sums`` draws exactly,
one variate per path.  Every functional the estimators need
depends on the jump sizes alone, so a path is a Poisson count of jumps
and i.i.d. sizes, with no arrival times, and many paths are drawn on one
stream at once.  Sizes come from the family's own sampler when one
is exact (compound Poisson densities, with rejection for a truncated
window) and otherwise from inverse-CDF sampling on a log-spaced
tabulation of the restricted measure, with a per-cell power-law closed
form for both the cell masses and their inversion.  The cell of a uniform draw is found by
guide-table inversion (Chen & Asau 1974; Devroye 1986, section III.2.4):
equal-width buckets of the cumulative mass map each draw to a nearby cell
in O(1), and only the few draws that lie past that cell's end fall back
to binary search, so the cells, and every sampled bit, are those a full
binary search would give.  The tabulation, its guide table and the
per-cell constants of the inversion are built once per (measure, epsilon)
and shared by every chunk of paths, as is the truncated intensity
nu(|y| > epsilon).  That intensity, the compensator shift and the window
of each side of the tabulation all cut the support where
``measures._side_edges`` does, one edge list per sign.

A chunk of paths draws all its Poisson counts first and then its sizes
in stream order, in fixed blocks of ``_BLOCK_JUMPS`` jumps.
``stream_jump_sums`` weighs each block and folds it into per-path running
sums, reusing one set of block-sized arrays, so a chunk's memory does not
grow with its jumps; the estimators and ``sample_terminal_values`` draw
through it.  ``sample_jump_batch`` keeps every block of the same draws in
one ``JumpBatch``: it is the reference the tests compare the stream
against, and the name the benchmark tracer times.
The split changes no bit: uniform draws taken in pieces equal one call;
each block is reduced by one ``np.bincount``, which adds left to right,
with the running sum of the path that straddles the block boundary
entered as its first weight; and the rejection sampler of compound
Poisson sizes carries the accepted draws left over from one block into
the next, so the sizes are the first accepted values of the stream.
Given one constant weight per row instead of a function of the sizes,
``stream_jump_sums`` draws the counts alone and forms each path's sum by
the same additions (``_counted_sums``).

Randomness is organized in named streams: ``RngStream(root_seed, k)``
yields the k-th of 2**64 independent Philox substreams of a root seed, so
replications can be fanned out across workers while staying bit-stable.
By convention the jump draws and the Gaussian draws of one replication
live on distinct stream indices, which makes the two terminal factors
independent by construction.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergentIntegral, DivergentMass
from .measures import (
    CompoundPoissonMeasure,
    JumpDensity,
    LevyMeasure,
    ZeroMeasure,
    _side_edges,
    _side_integral,
    gamma_nu,
)
from .processes import ProcessSpec

__all__ = [
    "DEFAULT_EPSILON",
    "RngStream",
    "inverse_gaussian_sums",
    "stream_jump_sums",
    "sample_terminal_values",
]

# Default small-jump truncation threshold for infinite-activity measures.
DEFAULT_EPSILON = 1e-4

# Inner magnitude floor replacing a support edge at 0 when a finite-activity
# density is tabulated down to the origin.  Mass below it is O(floor^p) for
# some p > 0 and statistically invisible.
_EXACT_FLOOR = 1e-12

# Log-spaced knots per side for the inverse-CDF tabulation.
_TABLE_POINTS = 2048

# Guide-table buckets per tabulated cell; more buckets mean fewer draws
# that fall past their bucket's first cell and need a binary search.
_GUIDE_PER_CELL = 8

# Jumps drawn and reduced at a time within a chunk of paths.  The block
# boundaries depend on the chunk alone, never on the worker count, and the
# sums do not depend on them at all; the size is chosen by measurement so
# that a block's arrays stay in cache and no block allocates memory that
# grows with the chunk.
_BLOCK_JUMPS = 2**15

# Tail mass (relative to the truncated intensity) considered negligible when
# hunting for the outer tabulation cutoff on an unbounded support.
_TAIL_FRACTION = 1e-13

_TWO64 = 1 << 64


def _default_epsilon(*measures: LevyMeasure) -> float:
    """Truncation policy when none is given: exact simulation (epsilon 0)
    when every measure has finite activity (a finite total mass),
    DEFAULT_EPSILON otherwise."""
    finite = all(math.isfinite(_mass_above(nu, 0.0)) for nu in measures)
    return 0.0 if finite else DEFAULT_EPSILON


def _check_uint64(value, name: str) -> int:
    v = int(value)
    if v != value or not 0 <= v < _TWO64:
        raise ValueError(f"{name} must be a 64-bit unsigned integer")
    return v


@dataclass(eq=False)
class RngStream:
    """One of 2**64 reproducible substreams attached to a root seed.

    The generated sequence is fully determined by the pair
    ``(root_seed, stream_index)``: the pair is packed into the 128-bit
    Philox key, so distinct indices give statistically independent
    streams and a fresh instance replays its stream from the start.
    """

    root_seed: int
    stream_index: int = 0

    def __post_init__(self):
        self.root_seed = _check_uint64(self.root_seed, "root_seed")
        self.stream_index = _check_uint64(self.stream_index, "stream_index")

    @functools.cached_property
    def generator(self) -> np.random.Generator:
        key = (self.stream_index << 64) | self.root_seed
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class JumpBatch:
    """Read-only jumps of many paths: the per-path ``counts``, and the
    ``sizes`` of every path in turn, ``counts.sum()`` of them."""

    counts: np.ndarray
    sizes: np.ndarray

    @property
    def n_paths(self) -> int:
        return int(self.counts.size)


# ---------------------------------------------------------------------------
# Truncated intensity and compensator
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _mass_above(nu: LevyMeasure, epsilon: float) -> float:
    """nu(|y| > epsilon), computed once per (measure, epsilon) instead of
    once per chunk of paths."""
    return nu.mass_above(epsilon)


@functools.lru_cache(maxsize=256)
def _compensator_shift(nu: LevyMeasure, epsilon: float) -> float:
    """-integral of y over {epsilon < |y| <= 1} against nu."""
    if isinstance(nu, ZeroMeasure):
        return 0.0
    if epsilon == 0.0:
        return -gamma_nu(nu)
    if epsilon >= 1.0:
        return 0.0
    total = _side_integral(nu, lambda y: y * nu.density(y), epsilon, 1.0)
    if total is None:
        raise DivergentIntegral("truncated compensator diverged")
    return -total


# ---------------------------------------------------------------------------
# Inverse-CDF tabulation of a truncated measure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SizeTable:
    """Per-cell power-law tabulation of a truncated measure, both sides merged.

    Within cell ``[lo, hi]`` the density is modeled as the power law fitted
    through its endpoint values, for which the cell mass and the inverse of
    the intra-cell cumulative are closed forms.  The fields after ``total``
    are derived once, so that a draw only gathers per-cell values.
    """

    lo: np.ndarray
    hi: np.ndarray
    sign: np.ndarray
    va: np.ndarray
    slope1: np.ndarray  # fitted exponent + 1
    cum0: np.ndarray  # leading 0 followed by cumulative cell masses
    total: float
    cum1: np.ndarray = dataclasses.field(init=False)  # cum0[1:]
    base: np.ndarray = dataclasses.field(init=False)  # va * lo
    slope: np.ndarray = dataclasses.field(init=False)  # slope1, 1 on straight cells
    # Cells with slope1 ~ 0 (density ~ 1/|y|), inverted linearly; None if none.
    straight: np.ndarray | None = dataclasses.field(init=False)
    floor: np.ndarray = dataclasses.field(init=False)  # lo * (1 + 4e-16)
    scale: float = dataclasses.field(init=False)  # guide buckets per unit mass
    guide: np.ndarray = dataclasses.field(init=False)

    def __post_init__(self):
        straight = np.abs(self.slope1) < 1e-12
        scale, guide = _guide_table(self.cum0)
        derived = {
            "cum1": self.cum0[1:],
            "base": self.va * self.lo,
            "slope": np.where(straight, 1.0, self.slope1),
            "straight": straight if straight.any() else None,
            "floor": self.lo * (1.0 + 4e-16),
            "scale": scale,
            "guide": guide,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


def _cell_arrays(nu, grid: np.ndarray, sgn: float):
    lo, hi = grid[:-1], grid[1:]
    va = np.maximum(nu.density(sgn * lo), 1e-300)
    vb = np.maximum(nu.density(sgn * hi), 1e-300)
    log_width = np.log(hi / lo)
    slope1 = 1.0 + np.log(vb / va) / log_width
    t = slope1 * log_width
    # mass = va*lo*log_width * expm1(t)/t, with the t -> 0 limit handled.
    small = np.abs(t) < 1e-8
    ratio = np.where(small, 1.0 + 0.5 * t, np.expm1(t) / np.where(small, 1.0, t))
    mass = va * lo * log_width * ratio
    return lo, hi, va, slope1, np.maximum(mass, 0.0)


def _outer_cutoff(nu: LevyMeasure, inner: float) -> float:
    reference = _mass_above(nu, inner)
    r = max(1.0, 8.0 * inner)
    for _ in range(80):
        tail = nu.mass_above(r)
        if tail <= _TAIL_FRACTION * reference:
            break
        r *= 2.0
    return r


def _guide_table(cum0: np.ndarray) -> tuple[float, np.ndarray]:
    """Bucket scale and guide table for indexed search over ``cum0``
    (Chen & Asau 1974; Devroye 1986, section III.2.4).

    [0, total] is cut into ``_GUIDE_PER_CELL`` equal buckets per cell, and
    a draw u falls in bucket ``floor(u * scale)``; one extra bucket takes
    draws that round up to total.  Bucket k holds the last cell starting
    at or below its lower edge ``k / scale`` lowered by a relative 1e-12,
    far more than rounding in ``u * scale`` can move a draw, so a draw's
    guide cell never starts above it.  A table without usable buckets (no
    mass, or a mass so small that the scale overflows) gets one bucket
    holding cell 0.
    """
    cells = cum0.size - 1
    buckets = _GUIDE_PER_CELL * cells
    total = float(cum0[-1])
    if not (0.0 < total < math.inf and math.isfinite(buckets / total)):
        return 0.0, np.zeros(1, dtype=np.intp)
    scale = buckets / total
    edges = np.arange(buckets + 1) / scale * (1.0 - 1e-12)
    guide = np.clip(np.searchsorted(cum0, edges, side="right") - 1, 0, cells - 1)
    return scale, guide


@functools.lru_cache(maxsize=64)
def _size_table(nu: LevyMeasure, epsilon: float) -> _SizeTable:
    parts = []
    total = 0.0
    cutoff = None
    for sgn, edges in zip((-1.0, 1.0), _side_edges(nu, epsilon, math.inf)):
        if not edges:
            continue
        mags = sorted(abs(e) for e in edges)
        m_lo, m_hi = mags[0], mags[-1]
        if m_lo <= 0.0:
            m_lo = max(epsilon, _EXACT_FLOOR)
        if not math.isfinite(m_hi):
            if cutoff is None:
                cutoff = _outer_cutoff(nu, max(epsilon, _EXACT_FLOOR))
            m_hi = cutoff
        if not m_lo < m_hi:
            continue
        grid = np.geomspace(m_lo, m_hi, _TABLE_POINTS)
        inner_bps = [b for b in mags[1:-1] if m_lo < b < m_hi]
        if inner_bps:
            grid = np.unique(np.concatenate([grid, np.asarray(inner_bps)]))
        lo, hi, va, slope1, mass = _cell_arrays(nu, grid, sgn)
        parts.append((lo, hi, np.full(lo.shape, sgn), va, slope1, mass))
        total += float(mass.sum())
    if not parts:
        empty = np.empty(0)
        return _SizeTable(empty, empty, empty, empty, empty, np.zeros(1), 0.0)
    lo, hi, sign, va, slope1, mass = (np.concatenate(a) for a in zip(*parts))
    cum0 = np.concatenate([[0.0], np.cumsum(mass)])
    return _SizeTable(lo, hi, sign, va, slope1, cum0, float(cum0[-1]))


class _TableSizes:
    """Sizes of one chunk drawn by inversion of a size table, block by block.

    The scratch arrays are allocated once, for the largest block, and every
    block reuses them; a block allocates only for the few draws that need
    a binary search.
    """

    def __init__(self, table: _SizeTable, gen: np.random.Generator, block: int):
        if not 0.0 < table.total < math.inf:
            raise DivergentMass("truncated measure carries no finite mass to sample")
        self.table = table
        self.gen = gen
        self.bucket = np.empty(block, dtype=np.intp)
        self.cell = np.empty(block, dtype=np.intp)
        self.slope = np.empty(block)
        self.tmp = np.empty(block)
        self.mask = np.empty(block, dtype=bool)

    def _gather(self, values: np.ndarray, idx: np.ndarray) -> np.ndarray:
        # mode="clip" writes straight into the scratch array ("raise" would
        # buffer it); every index is in range, so the values are the same.
        return np.take(values, idx, out=self.tmp[: idx.size], mode="clip")

    def cells(self, u: np.ndarray) -> np.ndarray:
        """``clip(searchsorted(cum0, u, "right") - 1, 0, cells - 1)`` for u
        in [0, total].

        The guide cell of a draw never starts past it, so only the draws
        that lie past the end of their guide cell need a binary search.
        """
        table, n = self.table, u.size
        bucket = self.bucket[:n]
        np.copyto(bucket, np.multiply(u, table.scale, out=self.tmp[:n]), casting="unsafe")
        idx = np.take(table.guide, bucket, out=self.cell[:n], mode="clip")
        past = np.less_equal(self._gather(table.cum1, idx), u, out=self.mask[:n])
        beyond = np.flatnonzero(past)
        if beyond.size:
            found = np.searchsorted(table.cum0, u[beyond], side="right") - 1
            idx[beyond] = np.minimum(found, table.lo.size - 1)
        return idx

    def fill(self, out: np.ndarray) -> None:
        """Overwrite ``out`` with the next ``out.size`` sizes of the stream."""
        table = self.table
        self.gen.random(out=out)
        out *= table.total
        idx = self.cells(out)
        # Same operations, in the same order, as the closed-form inversion
        #   log_x = log1p(max(target * slope / base, -1 + 1e-16)) / slope
        # (target / base on straight cells), mag = lo * exp(max(log_x, 0))
        # clamped to [floor, hi], computed in place in the array of draws.
        out -= self._gather(table.cum0, idx)
        slope = np.take(table.slope, idx, out=self.slope[: out.size], mode="clip")
        out *= slope
        out /= self._gather(table.base, idx)
        if table.straight is not None:
            straight = np.flatnonzero(table.straight[idx])
            linear = out[straight]
        np.maximum(out, -1.0 + 1e-16, out=out)
        np.log1p(out, out=out)
        out /= slope
        if table.straight is not None:
            out[straight] = linear
        np.maximum(out, 0.0, out=out)
        np.exp(out, out=out)
        out *= self._gather(table.lo, idx)
        np.maximum(out, self._gather(table.floor, idx), out=out)
        np.minimum(out, self._gather(table.hi, idx), out=out)
        out *= self._gather(table.sign, idx)


class _RejectionSizes:
    """Sizes of one chunk drawn from a jump density, keeping |y| > epsilon.

    Block after block, ``fill`` hands out the accepted draws in stream
    order; the surplus of a block's last draw is carried to the next block
    instead of being discarded, so the sizes are the first accepted values
    of the stream however the blocks split.  Draws are sized from the
    known acceptance nu(|y| > epsilon) / intensity, which is 1 at epsilon
    0, so an exact chunk draws its sizes plus 16 spare values.
    """

    def __init__(
        self, density: JumpDensity, epsilon: float, acceptance: float, gen: np.random.Generator
    ):
        self.density = density
        self.epsilon = epsilon
        self.acceptance = min(acceptance, 1.0)
        self.gen = gen
        self.spare = np.empty(0)

    def fill(self, out: np.ndarray) -> None:
        """Overwrite ``out`` with the next ``out.size`` accepted sizes."""
        filled = min(self.spare.size, out.size)
        out[:filled] = self.spare[:filled]
        self.spare = self.spare[filled:]
        acceptance = self.acceptance
        for _ in range(10_000):
            if filled >= out.size:
                return
            need = out.size - filled
            block = min(int(need / max(acceptance, 1e-6)) + 16, 10_000_000)
            draw = self.density.sample(self.gen, block)
            keep = draw[np.abs(draw) > self.epsilon]
            take = min(keep.size, need)
            out[filled : filled + take] = keep[:take]
            filled += take
            self.spare = keep[take:]
            acceptance = max(keep.size / block, 1e-6)
        raise DivergentMass(
            f"rejection sampling above epsilon = {self.epsilon!r} makes no progress"
        )


def _block_spans(total: int):
    """(start, stop) of each block of a chunk's ``total`` jumps."""
    return [
        (start, min(start + _BLOCK_JUMPS, total))
        for start in range(0, total, _BLOCK_JUMPS)
    ]


def _draw_counts(
    nu: LevyMeasure, horizon: float, n_paths: int, rng: RngStream, epsilon: float
) -> np.ndarray:
    """Poisson counts of n_paths paths of jumps with |y| > epsilon.

    Counts come first on the stream, then the sizes in stream order
    (``_size_source``), so a chunk is determined by (nu, horizon, n_paths,
    stream, epsilon) however its sizes are split into blocks.
    """
    if n_paths <= 0:
        raise ValueError("n_paths must be positive")
    if epsilon < 0.0:
        raise ValueError("epsilon must be >= 0")
    lam = _mass_above(nu, epsilon)
    if math.isinf(lam):
        raise DivergentMass(
            "epsilon = 0 needs a finite-activity measure; pass epsilon > 0"
        )
    if lam * horizon > 0.0:
        return rng.generator.poisson(lam * horizon, n_paths)
    return np.zeros(n_paths, dtype=np.int64)


def _size_source(nu: LevyMeasure, epsilon: float, rng: RngStream, total: int):
    """The source of the ``total`` > 0 sizes that follow the counts on rng."""
    gen = rng.generator
    if isinstance(nu, CompoundPoissonMeasure):
        acceptance = _mass_above(nu, epsilon) / nu.intensity
        return _RejectionSizes(nu.jump_density, epsilon, acceptance, gen)
    return _TableSizes(_size_table(nu, epsilon), gen, min(total, _BLOCK_JUMPS))


def _counted_sums(counts: np.ndarray, weights: tuple[float, ...], rows: int) -> np.ndarray:
    """Per-path sums of ``counts`` copies of each constant weight, the
    jump sums of a pair whose ``measures.pair_jump_law`` is ``"constant"``.

    Row r at a path with k jumps is k copies of ``weights[r]`` added left
    to right from 0.0, as the block ``bincount``s of ``stream_jump_sums``
    add them, so the bits are those of weighing every jump.  The running
    sums are built ``_BLOCK_JUMPS`` counts at a time, each block starting
    from the last sum of the one before, so memory does not grow with the
    largest count.
    """
    sums = np.zeros((rows, counts.size))
    top = int(counts.max())
    for row, weight in zip(sums, weights, strict=True):
        carry = 0.0
        for start, stop in _block_spans(top):
            # running[i] is the sum of start + i copies of the weight.
            running = np.full(stop - start + 1, weight)
            running[0] = carry
            np.cumsum(running, out=running)
            if stop - start == top:  # one block holds every count
                np.take(running, counts, out=row)
            else:
                held = np.flatnonzero((counts > start) & (counts <= stop))
                row[held] = running[counts[held] - start]
            carry = running[-1]
    return sums


# ---------------------------------------------------------------------------
# Public samplers
# ---------------------------------------------------------------------------


def sample_jump_batch(
    nu: LevyMeasure,
    horizon: float,
    n_paths: int,
    rng: RngStream,
    epsilon: float = 0.0,
) -> JumpBatch:
    """Jump sizes of many paths with |y| > epsilon, drawn on one stream.

    The blocks of ``stream_jump_sums``, every one kept: all Poisson counts
    come first, then the sizes in stream order.  epsilon = 0 samples a
    finite-activity measure exactly.  The whole batch is held at once, so
    its memory grows with its jumps; it is the reference for the stream.
    """
    counts = _draw_counts(nu, horizon, n_paths, rng, epsilon)
    sizes = np.empty(int(counts.sum()))
    if sizes.size:
        source = _size_source(nu, epsilon, rng, sizes.size)
        for start, stop in _block_spans(sizes.size):
            source.fill(sizes[start:stop])
    counts.flags.writeable = False
    sizes.flags.writeable = False
    return JumpBatch(counts, sizes)


def stream_jump_sums(
    nu: LevyMeasure,
    horizon: float,
    n_paths: int,
    rng: RngStream,
    epsilon: float,
    weigh: Callable[[np.ndarray], tuple[np.ndarray, ...]] | tuple[float, ...],
    rows: int = 1,
) -> np.ndarray:
    """Per-path sums of ``rows`` weights of the jumps of ``sample_jump_batch``.

    ``weigh(sizes)`` maps a block of sizes to ``rows`` arrays of weights,
    one per size; the result has shape (rows, n_paths), and each row
    equals one ``np.bincount`` of its weights over the whole batch, keyed
    by the path of each jump, bit for bit.  The sizes are
    drawn and weighed ``_BLOCK_JUMPS`` at a time, so the memory of a chunk
    does not grow with its jumps.  Each block is reduced with one
    ``np.bincount`` per row, which adds left to right like the one over a
    whole batch; the path that straddles a block boundary carries its
    running sum in as the first weight of the next block.  ``weigh`` sees
    a view into a buffer that the next block overwrites.

    ``weigh`` may instead be a tuple of ``rows`` floats, one weight that
    every jump of a row takes (a pair whose ``measures.pair_jump_law`` is
    ``"constant"``).  Then only the counts are drawn, with the same
    validation on the same stream, and no size is drawn: a path with k
    jumps gets k copies of each weight added left to right from 0.0
    (``_counted_sums``), the additions the blocks would make, so the sums
    equal those of ``lambda s: tuple(np.full(s.size, w) for w in weigh)``
    bit for bit.
    """
    counts = _draw_counts(nu, horizon, n_paths, rng, epsilon)
    if not callable(weigh):
        return _counted_sums(counts, weigh, rows)
    sums = np.zeros((rows, n_paths))
    total = int(counts.sum())
    if total == 0:
        return sums
    source = _size_source(nu, epsilon, rng, total)
    size = min(total, _BLOCK_JUMPS)
    sizes = np.empty(size)
    weights = np.empty((rows, size + 1))
    ids = np.empty(size + 1, dtype=np.intp)
    # Paths with jumps, and the index of each one's first jump.
    paths = np.flatnonzero(counts)
    path_counts = counts[paths]
    firsts = np.cumsum(path_counts)
    firsts -= path_counts
    for start, stop in _block_spans(total):
        n = stop - start
        block = sizes[:n]
        source.fill(block)
        # Paths with a jump in this block: the one holding jump `start`,
        # then every path whose first jump falls inside the block.
        lo, hi = np.searchsorted(firsts, (start, stop - 1), side="right")
        lo -= 1
        block_ids = ids[: n + 1]
        block_ids.fill(0)
        block_ids[firsts[lo + 1 : hi] - (start - 1)] = 1
        np.cumsum(block_ids, out=block_ids)
        held = paths[lo:hi]
        for row, values, w in zip(sums, weigh(block), weights, strict=True):
            w = w[: n + 1]
            w[0] = row[held[0]]
            w[1:] = values
            row[held] = np.bincount(block_ids, weights=w, minlength=held.size)
    return sums


def inverse_gaussian_sums(
    c: float, lam: float, horizon: float, n_paths: int, rng: RngStream
) -> np.ndarray:
    """Per-path sums of |y| over the jumps in [0, horizon] of one side of an
    alpha = 1/2 tempered-stable measure, density c |y|^{-3/2} e^{-lam |y|}.

    No jump is drawn and nothing is truncated: the sum has Laplace
    transform exp(-2 sqrt(pi) c horizon (sqrt(lam + s) - sqrt(lam))), the
    inverse Gaussian law IG(c horizon sqrt(pi / lam), 2 pi (c horizon)^2),
    which ``Generator.wald`` draws exactly (Michael, Schucany & Haas 1976),
    n_paths variates from the current position of the stream.  They are
    drawn as c horizon times IG(sqrt(pi / lam), 2 pi c horizon), the same
    law (k IG(m, s) = IG(k m, k s)), so that the shape cannot underflow to
    0 for a tiny c horizon.
    """
    ct = c * horizon
    sums = rng.generator.wald(math.sqrt(math.pi / lam), 2.0 * math.pi * ct, n_paths)
    sums *= ct
    return sums


def sample_terminal_values(
    process: ProcessSpec,
    horizon: float,
    n_paths: int,
    *,
    rng_jumps: RngStream,
    rng_gauss: RngStream | None = None,
    epsilon: float | None = None,
) -> np.ndarray:
    """Terminal values X_T of one process: drift integral + Gaussian part
    + truncated jump sum + horizon * compensator shift.

    epsilon defaults to 0 for finite-activity measures (exact) and to
    DEFAULT_EPSILON otherwise.  The jumps are drawn on ``rng_jumps`` as
    ``stream_jump_sums`` draws them and summed per path block by block, so
    memory grows with ``n_paths`` but not with the number of jumps.
    """
    nu = process.levy
    if epsilon is None:
        epsilon = _default_epsilon(nu)
    (jumps,) = stream_jump_sums(nu, horizon, n_paths, rng_jumps, epsilon, lambda s: (s,))
    out = (
        jumps
        + horizon * _compensator_shift(nu, epsilon)
        + process.drift.integral(0.0, horizon)
    )
    variance = process.vol_sq.integral(0.0, horizon)
    if variance > 0.0:
        if rng_gauss is None:
            raise ValueError("rng_gauss is required when a Gaussian part is present")
        out = out + math.sqrt(variance) * rng_gauss.generator.standard_normal(n_paths)
    return out
