r"""Levy measures, jump-size densities, and the pairwise functionals feeding the bounds.

All measures are absolutely continuous with respect to Lebesgue measure on
R \ {0} and expose a vectorized density. Pairwise quantities (the L1 gap
between measures, the Hellinger-type quantity, the compensated drift gap)
are computed by adaptive quadrature over the union of supports, split at 0
and at every known support edge.

Finiteness is checked, never assumed: a tempered stable pair with alpha >= 1
must come back with an infinite L1 flag, and the same pair keeps a finite
Hellinger value. Cancellation-prone differences of tempered stable densities
with shared C and alpha are routed through expm1 so that near-zero behavior
is resolved to relative precision.
"""

import abc
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    DivergentIntegral,
    NotAbsolutelyContinuous,
    RatioUndefined,
)
from .quadrature import integrate_fn, integrate_segments

# Probe grid for the absolute-continuity check: log-spaced per side.
AC_PROBES_PER_SIDE = 4096
AC_PROBE_MIN = 1e-8
AC_PROBE_MAX_FLOOR = 1e2

# Tabulated measures whose innermost knot lies below this are treated as
# truncated views of a measure reaching 0; finiteness verdicts extrapolate
# the inner-edge log-log slope.
_TAB_EXTRAPOLATION_EDGE = 1e-3

_Interval = tuple[float, float]


# ---------------------------------------------------------------------------
# Jump-size densities (probability densities of compound Poisson jump sizes)
# ---------------------------------------------------------------------------


class JumpDensity(abc.ABC):
    """Probability density of a single jump size."""

    @abc.abstractmethod
    def pdf(self, y: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray: ...

    @abc.abstractmethod
    def support(self) -> _Interval: ...

    def breakpoints(self) -> tuple[float, ...]:
        lo, hi = self.support()
        return tuple(x for x in (lo, hi) if math.isfinite(x))


@dataclass(frozen=True)
class UniformDensity(JumpDensity):
    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"uniform density needs a < b, got [{self.a}, {self.b}]")

    def pdf(self, y):
        y = np.asarray(y, dtype=float)
        return np.where((y >= self.a) & (y <= self.b), 1.0 / (self.b - self.a), 0.0)

    def sample(self, gen, n):
        # inverse CDF of the uniform law
        return self.a + (self.b - self.a) * gen.random(n)

    def support(self):
        return (self.a, self.b)


@dataclass(frozen=True)
class ExponentialDensity(JumpDensity):
    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError("exponential density needs rate > 0")

    def pdf(self, y):
        y = np.asarray(y, dtype=float)
        with np.errstate(over="ignore"):
            return np.where(y > 0, self.rate * np.exp(-self.rate * y), 0.0)

    def sample(self, gen, n):
        # inverse CDF, kept explicit for reproducibility of the draw stream
        return -np.log1p(-gen.random(n)) / self.rate

    def support(self):
        return (0.0, math.inf)


@dataclass(frozen=True)
class NormalDensity(JumpDensity):
    mean: float
    variance: float

    def __post_init__(self):
        if not self.variance > 0:
            raise ValueError("normal density needs variance > 0")

    def pdf(self, y):
        y = np.asarray(y, dtype=float)
        z = (y - self.mean) ** 2 / (2.0 * self.variance)
        return np.exp(-z) / math.sqrt(2.0 * math.pi * self.variance)

    def sample(self, gen, n):
        return self.mean + math.sqrt(self.variance) * gen.standard_normal(n)

    def support(self):
        return (-math.inf, math.inf)


@dataclass(frozen=True)
class TabulatedDensity(JumpDensity):
    """Piecewise-linear density on a knot grid, zero outside.

    Knot values must integrate to 1 within 1e-6 (trapezoid rule is exact for
    the interpolant); the stored density is renormalized to integrate to 1
    exactly so that sampling by per-cell CDF inversion is unbiased.
    """

    grid: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.size < 2 or not np.all(np.diff(g) > 0):
            raise ValueError("tabulated grid must be strictly increasing with >= 2 knots")
        if v.shape != g.shape or not np.all(np.isfinite(v)) or np.any(v < 0):
            raise ValueError("tabulated values must be finite, nonnegative, one per knot")
        raw = float(np.trapezoid(v, g))
        if raw <= 0 or abs(raw - 1.0) > 1e-6:
            raise ValueError(f"tabulated density integrates to {raw!r}, expected 1 within 1e-6")

    @cached_property
    def _arrays(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float) / float(np.trapezoid(self.values, self.grid))
        cell_mass = 0.5 * (v[:-1] + v[1:]) * np.diff(g)
        cum = np.concatenate([[0.0], np.cumsum(cell_mass)])
        cum[-1] = 1.0
        return g, v, cum

    def pdf(self, y):
        g, v, _ = self._arrays
        y = np.asarray(y, dtype=float)
        out = np.interp(y, g, v, left=0.0, right=0.0)
        return np.where((y >= g[0]) & (y <= g[-1]), out, 0.0)

    def sample(self, gen, n):
        g, v, cum = self._arrays
        u = gen.random(n)
        idx = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, len(g) - 2)
        h = g[idx + 1] - g[idx]
        v0 = v[idx]
        slope = (v[idx + 1] - v0) / h
        target = u - cum[idx]
        # Solve v0*x + slope*x^2/2 = target for x in [0, h].
        lin = np.abs(slope) * h < 1e-13 * np.maximum(v0, 1e-300)
        with np.errstate(all="ignore"):
            disc = np.sqrt(np.maximum(v0 * v0 + 2.0 * slope * target, 0.0))
            x_quad = (disc - v0) / slope
            x_lin = target / np.where(v0 > 0, v0, 1.0)
        x = np.clip(np.where(lin, x_lin, x_quad), 0.0, h)
        return g[idx] + x

    def support(self):
        return (self.grid[0], self.grid[-1])

    def breakpoints(self):
        return self.grid


# ---------------------------------------------------------------------------
# Levy measures
# ---------------------------------------------------------------------------


class LevyMeasure(abc.ABC):
    """A Levy measure given by its density on R \\ {0}."""

    @abc.abstractmethod
    def density(self, y: np.ndarray) -> np.ndarray:
        """Vectorized density; 0 off the support (and at y = 0 by convention)."""

    def log_density(self, y: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.density(y))

    @abc.abstractmethod
    def total_mass(self) -> float:
        """nu(R), possibly math.inf."""

    @abc.abstractmethod
    def is_finite_activity(self) -> bool: ...

    @abc.abstractmethod
    def support_segments(self) -> tuple[_Interval, ...]:
        """Disjoint intervals carrying all mass, none with 0 in the interior."""

    def breakpoints(self) -> tuple[float, ...]:
        out = []
        for lo, hi in self.support_segments():
            out.extend(x for x in (lo, hi) if math.isfinite(x))
        return tuple(out)

    def mass_above(self, epsilon: float) -> float:
        """nu(|y| > epsilon); finite for epsilon > 0 on every built-in family."""
        if epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if epsilon == 0.0:
            return self.total_mass()
        segs = _clip_outside(self.support_segments(), epsilon)
        if not segs:
            return 0.0
        total = 0.0
        for lo, hi in segs:
            edges = _edges_for([(lo, hi)], self.breakpoints())
            res = integrate_segments(self.density, edges)
            if res.diverged:
                raise DivergentIntegral(f"mass above {epsilon!r} diverged")
            total += res.value
        return total


@dataclass(frozen=True)
class ZeroMeasure(LevyMeasure):
    def density(self, y):
        return np.zeros_like(np.asarray(y, dtype=float))

    def total_mass(self):
        return 0.0

    def is_finite_activity(self):
        return True

    def support_segments(self):
        return ()


@dataclass(frozen=True)
class CompoundPoissonMeasure(LevyMeasure):
    intensity: float
    jump_density: JumpDensity

    def __post_init__(self):
        if not self.intensity > 0:
            raise ValueError("compound Poisson intensity must be > 0")

    def density(self, y):
        y = np.asarray(y, dtype=float)
        return np.where(y != 0.0, self.intensity * self.jump_density.pdf(y), 0.0)

    def total_mass(self):
        return self.intensity

    def is_finite_activity(self):
        return True

    def support_segments(self):
        lo, hi = self.jump_density.support()
        if lo < 0.0 < hi:
            return ((lo, 0.0), (0.0, hi))
        return ((lo, hi),)

    def breakpoints(self):
        return tuple(set(super().breakpoints()) | set(self.jump_density.breakpoints()))


@dataclass(frozen=True)
class TemperedStableMeasure(LevyMeasure):
    """Density C_sign |y|^{-1-alpha} e^{-lambda_sign |y|} on each half line."""

    c_minus: float
    c_plus: float
    lam_minus: float
    lam_plus: float
    alpha: float

    def __post_init__(self):
        if not (self.c_minus > 0 and self.c_plus > 0):
            raise ValueError("tempered stable C_- and C_+ must be > 0")
        if not (self.lam_minus > 0 and self.lam_plus > 0):
            raise ValueError("tempered stable lambda_- and lambda_+ must be > 0")
        if not self.alpha < 2:
            raise ValueError("tempered stable alpha must be < 2")

    def density(self, y):
        y = np.asarray(y, dtype=float)
        ay = np.abs(y)
        with np.errstate(all="ignore"):
            pos = self.c_plus * ay ** (-1.0 - self.alpha) * np.exp(-self.lam_plus * ay)
            neg = self.c_minus * ay ** (-1.0 - self.alpha) * np.exp(-self.lam_minus * ay)
        return np.where(y > 0, pos, np.where(y < 0, neg, 0.0))

    def log_density(self, y):
        y = np.asarray(y, dtype=float)
        ay = np.abs(y)
        with np.errstate(all="ignore"):
            lay = np.log(ay)
            pos = math.log(self.c_plus) - (1.0 + self.alpha) * lay - self.lam_plus * ay
            neg = math.log(self.c_minus) - (1.0 + self.alpha) * lay - self.lam_minus * ay
        return np.where(y > 0, pos, np.where(y < 0, neg, -math.inf))

    def total_mass(self):
        if self.alpha >= 0:
            return math.inf
        res = integrate_fn(
            self.density, 0.0, math.inf, singular_at_zero=True
        )
        neg = integrate_fn(self.density, -math.inf, 0.0, singular_at_zero=True)
        if res.diverged or neg.diverged:
            return math.inf
        return res.value + neg.value

    def is_finite_activity(self):
        return self.alpha < 0

    def support_segments(self):
        return ((-math.inf, 0.0), (0.0, math.inf))


@dataclass(frozen=True)
class TabulatedLevyMeasure(LevyMeasure):
    """Log-linear interpolation of density samples on knots away from 0.

    Straight lines in (log |y|, log density) reproduce power laws exactly and
    preserve positivity. Knot values must be strictly positive; the density
    is 0 outside the knot range on each side. When the innermost knot of a
    side sits below 1e-3, finiteness verdicts extrapolate the inner-edge
    power-law trend toward 0 (a table of y^{-3} samples represents a measure
    whose y^2-integral diverges, even though the truncated table is finite).
    """

    grid: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.size < 2 or not np.all(np.diff(g) > 0):
            raise ValueError("tabulated grid must be strictly increasing with >= 2 knots")
        if np.any(g == 0.0):
            raise ValueError("tabulated grid must not contain 0")
        if v.shape != g.shape or not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise ValueError("tabulated values must be finite and strictly positive")
        for side in self._sides_of(g, v):
            if side is not None and len(side[0]) == 1:
                raise ValueError("each tabulated side needs >= 2 knots or none")

    @staticmethod
    def _sides_of(g, v):
        neg = g < 0
        pos = g > 0
        neg_side = pos_side = None
        if neg.any():
            # ascending in |y|
            neg_side = (np.log(-g[neg])[::-1], np.log(v[neg])[::-1])
        if pos.any():
            pos_side = (np.log(g[pos]), np.log(v[pos]))
        return neg_side, pos_side

    @cached_property
    def _sides(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        return self._sides_of(g, v)

    def _side_density(self, side, ay):
        logu, logv = side
        with np.errstate(all="ignore"):
            lay = np.log(ay)
            out = np.exp(np.interp(lay, logu, logv))
        inside = (lay >= logu[0]) & (lay <= logu[-1])
        return np.where(inside, out, 0.0)

    def density(self, y):
        y = np.asarray(y, dtype=float)
        ay = np.abs(y)
        neg_side, pos_side = self._sides
        out = np.zeros_like(y, dtype=float)
        if pos_side is not None:
            mask = y > 0
            if mask.any():
                out = np.where(mask, self._side_density(pos_side, ay), out)
        if neg_side is not None:
            mask = y < 0
            if mask.any():
                out = np.where(mask, self._side_density(neg_side, ay), out)
        return out

    def _inner_slope(self) -> float | None:
        """Steepest inner-edge log-log slope among sides reaching below the
        extrapolation edge; None when no side qualifies."""
        slopes = []
        for side in self._sides:
            if side is None:
                continue
            logu, logv = side
            if math.exp(logu[0]) < _TAB_EXTRAPOLATION_EDGE:
                slopes.append((logv[1] - logv[0]) / (logu[1] - logu[0]))
        return min(slopes) if slopes else None

    def diverges_near_zero(self, moment: float) -> bool:
        """Extrapolated divergence of int |y|^moment nu(dy) near 0."""
        p = self._inner_slope()
        return p is not None and p + moment <= -1.0

    def total_mass(self):
        if self.diverges_near_zero(0.0):
            return math.inf
        total = 0.0
        for lo, hi in self.support_segments():
            edges = _edges_for([(lo, hi)], self.breakpoints())
            res = integrate_segments(self.density, edges)
            if res.diverged:
                return math.inf
            total += res.value
        return total

    def is_finite_activity(self):
        return not self.diverges_near_zero(0.0)

    def support_segments(self):
        g = np.asarray(self.grid, dtype=float)
        segs = []
        if (g < 0).any():
            segs.append((float(g[g < 0].min()), float(g[g < 0].max())))
        if (g > 0).any():
            segs.append((float(g[g > 0].min()), float(g[g > 0].max())))
        return tuple(segs)

    def breakpoints(self):
        # Subsample long knot lists; adaptive bisection resolves the
        # remaining interpolation kinks on its own.
        g = self.grid
        if len(g) <= 33:
            return g
        idx = np.unique(np.linspace(0, len(g) - 1, 33).astype(int))
        return tuple(float(g[i]) for i in idx)


# ---------------------------------------------------------------------------
# Support bookkeeping helpers
# ---------------------------------------------------------------------------


def _clip_outside(segments, epsilon):
    """Clip segments to {|y| > epsilon}."""
    out = []
    for lo, hi in segments:
        if hi <= 0:
            lo2, hi2 = lo, min(hi, -epsilon)
        elif lo >= 0:
            lo2, hi2 = max(lo, epsilon), hi
        else:
            # segment spans 0; callers split at 0 first, but stay safe
            out.extend(_clip_outside([(lo, 0.0), (0.0, hi)], epsilon))
            continue
        if lo2 < hi2:
            out.append((lo2, hi2))
    return out


def _edges_for(segments, breakpoints):
    """Sorted edge list covering the segments, split at interior breakpoints and 0."""
    edges = []
    for lo, hi in segments:
        pts = {lo, hi}
        if lo < 0.0 < hi:
            pts.add(0.0)
        pts.update(b for b in breakpoints if lo < b < hi)
        edges.extend(sorted(pts))
    return edges


def pair_support_edges(nu1, nu2, clip: _Interval | None = None):
    segs = list(nu1.support_segments()) + list(nu2.support_segments())
    if not segs:
        return []
    lo = min(s[0] for s in segs)
    hi = max(s[1] for s in segs)
    if clip is not None:
        lo, hi = max(lo, clip[0]), min(hi, clip[1])
        if not lo < hi:
            return []
    pts = {lo, hi}
    if lo < 0.0 < hi:
        pts.add(0.0)
    for p in (p for s in segs for p in s):
        if lo < p < hi:
            pts.add(p)
    for b in tuple(nu1.breakpoints()) + tuple(nu2.breakpoints()):
        if lo < b < hi:
            pts.add(b)
    return sorted(pts)


# ---------------------------------------------------------------------------
# Cancellation-safe pairwise integrand hooks
# ---------------------------------------------------------------------------


def _same_shape_ts(nu1, nu2) -> bool:
    return (
        isinstance(nu1, TemperedStableMeasure)
        and isinstance(nu2, TemperedStableMeasure)
        and nu1.alpha == nu2.alpha
        and nu1.c_plus == nu2.c_plus
        and nu1.c_minus == nu2.c_minus
    )


def pair_difference_fn(nu1: LevyMeasure, nu2: LevyMeasure) -> Callable:
    """y -> density(nu1) - density(nu2), cancellation-safe where it matters."""
    if _same_shape_ts(nu1, nu2):

        def diff(y):
            y = np.asarray(y, dtype=float)
            ay = np.abs(y)
            with np.errstate(all="ignore"):
                base_p = nu1.c_plus * ay ** (-1.0 - nu1.alpha)
                pos = base_p * np.exp(-nu2.lam_plus * ay) * np.expm1(
                    (nu2.lam_plus - nu1.lam_plus) * ay
                )
                base_m = nu1.c_minus * ay ** (-1.0 - nu1.alpha)
                neg = base_m * np.exp(-nu2.lam_minus * ay) * np.expm1(
                    (nu2.lam_minus - nu1.lam_minus) * ay
                )
            return np.where(y > 0, pos, np.where(y < 0, neg, 0.0))

        return diff

    if (
        isinstance(nu1, CompoundPoissonMeasure)
        and isinstance(nu2, CompoundPoissonMeasure)
        and nu1.jump_density == nu2.jump_density
    ):
        gap = nu1.intensity - nu2.intensity
        return lambda y: gap * nu1.jump_density.pdf(y)

    return lambda y: nu1.density(y) - nu2.density(y)


def _undefined_ratio() -> RatioUndefined:
    return RatioUndefined("a jump landed where the reference density vanishes")


def _by_sign(pos: np.ndarray, plus: float, minus: float):
    if plus == minus:
        return plus
    # Indexing by the 0/1 bytes of the mask is about twice as fast as where.
    return np.array((minus, plus))[pos.view(np.uint8)]


def _ts_log_density(nu, pos, ay, lay) -> np.ndarray:
    """``nu.log_density`` at nonzero, non-nan y from pos = y > 0, |y| and
    log|y|: the same operations in the same order, one sign per element."""
    out = (1.0 + nu.alpha) * lay
    np.subtract(_by_sign(pos, math.log(nu.c_plus), math.log(nu.c_minus)), out, out=out)
    out -= _by_sign(pos, nu.lam_plus, nu.lam_minus) * ay
    return out


def pair_log_ratio(nu1: LevyMeasure, nu2: LevyMeasure) -> Callable:
    """y -> log(dnu1/dnu2)(y), raising RatioUndefined when the log-density
    of nu2 is -inf at any y (always so at y = 0 and at nan).

    Equals ``nu1.log_density(y) - nu2.log_density(y)`` bit for bit.  For
    two tempered stable measures |y| and log|y| are computed once instead
    of once per measure.
    """
    if isinstance(nu1, TemperedStableMeasure) and isinstance(nu2, TemperedStableMeasure):

        def ratio(y):
            shape = np.shape(y)
            y = np.asarray(y, dtype=float).reshape(-1)
            pos = y > 0
            if not np.all(pos | (y < 0)):
                raise _undefined_ratio()
            ay = np.abs(y)
            with np.errstate(all="ignore"):
                lay = np.log(ay)
                ld2 = _ts_log_density(nu2, pos, ay, lay)
                if np.any(np.isneginf(ld2)):
                    raise _undefined_ratio()
                out = _ts_log_density(nu1, pos, ay, lay)
                out -= ld2
            return out.reshape(shape)[()]

        return ratio

    def ratio(y):
        ld2 = nu2.log_density(y)
        if np.any(np.isneginf(ld2)):
            raise _undefined_ratio()
        with np.errstate(invalid="ignore"):
            return nu1.log_density(y) - ld2

    return ratio


def pair_sqrt_difference_fn(nu1: LevyMeasure, nu2: LevyMeasure) -> Callable:
    """y -> sqrt(density(nu1)) - sqrt(density(nu2)), cancellation-safe."""
    if _same_shape_ts(nu1, nu2):

        def diff(y):
            y = np.asarray(y, dtype=float)
            ay = np.abs(y)
            with np.errstate(all="ignore"):
                base_p = np.sqrt(nu1.c_plus * ay ** (-1.0 - nu1.alpha))
                pos = base_p * np.exp(-0.5 * nu2.lam_plus * ay) * np.expm1(
                    0.5 * (nu2.lam_plus - nu1.lam_plus) * ay
                )
                base_m = np.sqrt(nu1.c_minus * ay ** (-1.0 - nu1.alpha))
                neg = base_m * np.exp(-0.5 * nu2.lam_minus * ay) * np.expm1(
                    0.5 * (nu2.lam_minus - nu1.lam_minus) * ay
                )
            return np.where(y > 0, pos, np.where(y < 0, neg, 0.0))

        return diff

    def diff(y):
        return np.sqrt(nu1.density(y)) - np.sqrt(nu2.density(y))

    return diff


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------


def gamma_nu(nu: LevyMeasure) -> float:
    """Small-jump compensator drift: integral of y over {|y| <= 1}."""
    if isinstance(nu, ZeroMeasure):
        return 0.0
    if isinstance(nu, TabulatedLevyMeasure) and nu.diverges_near_zero(1.0):
        raise DivergentIntegral("tabulated small-jump first moment diverges near 0")
    edges = pair_support_edges(nu, ZeroMeasure(), clip=(-1.0, 1.0))
    if not edges:
        return 0.0
    res = integrate_segments(
        lambda y: y * nu.density(y), edges, singular_at_zero=True
    )
    if res.diverged:
        raise DivergentIntegral("small-jump first moment diverges")
    return res.value


@dataclass(frozen=True)
class AbsContinuityReport:
    ok: bool
    violations: tuple[float, ...]
    checked: int


def check_abs_continuity(nu1: LevyMeasure, nu2: LevyMeasure) -> AbsContinuityReport:
    """Probe-grid proxy for nu1 << nu2: wherever nu1 has density, nu2 must.

    Probes 4096 log-spaced magnitudes per side from 1e-8 up to the larger of
    100 and the outermost finite support edge, plus all tabulated knots.
    """
    finite_edges = [
        abs(p)
        for nu in (nu1, nu2)
        for seg in nu.support_segments()
        for p in seg
        if math.isfinite(p) and p != 0.0
    ]
    hi = max([AC_PROBE_MAX_FLOOR] + finite_edges)
    mags = np.logspace(math.log10(AC_PROBE_MIN), math.log10(hi), AC_PROBES_PER_SIDE)
    probes = np.concatenate([-mags[::-1], mags])
    knots = [
        float(k)
        for nu in (nu1, nu2)
        if isinstance(nu, TabulatedLevyMeasure)
        for k in nu.grid
    ]
    if knots:
        probes = np.unique(np.concatenate([probes, np.asarray(knots)]))
    d1 = nu1.density(probes)
    d2 = nu2.density(probes)
    bad = (d1 > 0.0) & (d2 == 0.0)
    violations = tuple(float(v) for v in probes[bad][:16])
    return AbsContinuityReport(not bad.any(), violations, probes.size)


def require_abs_continuity(report: AbsContinuityReport) -> None:
    """Raise NotAbsolutelyContinuous when the probe report found violations."""
    if not report.ok:
        raise NotAbsolutelyContinuous(
            f"nu1 has density where nu2 has none, e.g. at y = {report.violations[0]!r}"
        )


def _require_ac(nu1, nu2):
    require_abs_continuity(check_abs_continuity(nu1, nu2))


def _pair_integral(nu1, nu2, integrand) -> float:
    edges = pair_support_edges(nu1, nu2)
    if not edges:
        return 0.0
    res = integrate_segments(integrand, edges, singular_at_zero=True)
    return math.inf if res.diverged else res.value


def l1_integral(nu1: LevyMeasure, nu2: LevyMeasure) -> float:
    """l1_distance without its absolute-continuity check, for callers that
    have already made it."""
    diff = pair_difference_fn(nu1, nu2)
    return _pair_integral(nu1, nu2, lambda y: np.abs(diff(y)))


def hellinger_integral(nu1: LevyMeasure, nu2: LevyMeasure) -> float:
    """hellinger_sq without its absolute-continuity check, for callers that
    have already made it."""
    sdiff = pair_sqrt_difference_fn(nu1, nu2)
    return _pair_integral(nu1, nu2, lambda y: sdiff(y) ** 2)


def l1_distance(nu1: LevyMeasure, nu2: LevyMeasure) -> float:
    """Integral of |density gap| over the union support; math.inf if divergent."""
    _require_ac(nu1, nu2)
    return l1_integral(nu1, nu2)


def hellinger_sq(nu1: LevyMeasure, nu2: LevyMeasure) -> float:
    """Integral of (sqrt(density1) - sqrt(density2))^2; math.inf if divergent."""
    _require_ac(nu1, nu2)
    return hellinger_integral(nu1, nu2)


@dataclass(frozen=True)
class LevyValidation:
    ok: bool
    value: float
    message: str = ""


def validate_levy(nu: LevyMeasure) -> LevyValidation:
    """Check the defining integrability: int (y^2 and 1) nu(dy) < inf."""
    if isinstance(nu, ZeroMeasure):
        return LevyValidation(True, 0.0)
    if isinstance(nu, TabulatedLevyMeasure) and nu.diverges_near_zero(2.0):
        return LevyValidation(
            False,
            math.inf,
            "inner-edge trend steeper than y^-3: y^2-integral diverges toward 0",
        )
    edges = pair_support_edges(nu, ZeroMeasure())
    for cut in (-1.0, 1.0):
        if edges and edges[0] < cut < edges[-1] and cut not in edges:
            edges = sorted(edges + [cut])
    if not edges:
        return LevyValidation(True, 0.0)
    res = integrate_segments(
        lambda y: np.minimum(y * y, 1.0) * nu.density(y),
        edges,
        singular_at_zero=True,
    )
    if res.diverged:
        return LevyValidation(False, math.inf, "y^2-integral diverges near 0")
    return LevyValidation(True, res.value)
