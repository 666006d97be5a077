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
is resolved to relative precision; where that form overflows, far out on a
side where nu1 has the heavier tail, the heavier density is factored out.

A two-sided family writes each formula once: every point takes its own
side's constants (C and lambda by the sign of y) and evaluates the formula
once, never both sides' formulas.

The measures are time-homogeneous, so their functionals do not depend on
the horizon, the drifts or the variances of a problem: `validate_levy`,
`check_abs_continuity`, `l1_distance`, `hellinger_sq` and `gamma_nu`
are pure functions of frozen, value-hashed measures and are cached by
value (`functools.lru_cache`, FUNCTIONAL_CACHE_SIZE entries each).  A
horizon sweep, or any caller that meets an equal measure twice in one
process, computes each of them once; a failure (an exception) is not
cached and is raised again on every call.

The hypothesis nu1 << nu2 has one refusal, `require_abs_continuity`: it
reads the cached probe grid and raises NotAbsolutelyContinuous naming a
probe where nu1 has density and nu2 has none.  `l1_distance`,
`hellinger_sq`, the bound report and every Monte Carlo estimator go
through it.

A measure has finite activity exactly when ``total_mass()`` is finite;
there is no second test.

Every integral over a Levy measure runs on the edges of one function,
``support_edges(measures, lo, hi, cuts)``: it clips each support segment
to the window [lo, hi], and returns the ends of the hull of what is left,
with 0, each cut, each clipped segment end and each breakpoint that lies
strictly inside that hull; a window that meets no support has no edges
and integrates to 0.  ``support_integral`` integrates over these edges in
one quadrature, singular at 0, for the functionals of the whole support
(gamma, L1, H^2, the Levy integrability, eta and the characteristic
exponent).  ``_side_integral`` makes one ``support_integral`` per sign
window, negative side first, for the mass above epsilon and the
truncated compensator.
"""

import abc
import bisect
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import (
    DivergentIntegral,
    NotAbsolutelyContinuous,
    RatioUndefined,
)
from .quadrature import integrate_segments

# Probe grid for the absolute-continuity check: log-spaced per side.
AC_PROBES_PER_SIDE = 4096
AC_PROBE_MIN = 1e-8
AC_PROBE_MAX_FLOOR = 1e2

# Entries kept by each cached functional of the measures.
FUNCTIONAL_CACHE_SIZE = 256

# Tabulated measures whose innermost knot lies below this are treated as
# truncated views of a measure reaching 0; finiteness verdicts extrapolate
# the inner-edge log-log slope.
_TAB_EXTRAPOLATION_EDGE = 1e-3

_Interval = tuple[float, float]


# ---------------------------------------------------------------------------
# Jump-size densities (probability densities of compound Poisson jump sizes)
# ---------------------------------------------------------------------------


def _store_knots(table, grid: np.ndarray, values: np.ndarray) -> None:
    """Keep a table's knots as tuples of float, so that one built from lists
    or arrays hashes and compares like one built from tuples."""
    object.__setattr__(table, "grid", tuple(grid.tolist()))
    object.__setattr__(table, "values", tuple(values.tolist()))


class JumpDensity(abc.ABC):
    """Probability density of a single jump size."""

    @abc.abstractmethod
    def pdf(self, y: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray: ...

    @abc.abstractmethod
    def support(self) -> _Interval: ...

    def breakpoints(self) -> tuple[float, ...]:
        """Kinks inside the support; its ends are edges already."""
        return ()


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
        _store_knots(self, g, v)

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
        """nu(R), possibly math.inf; the measure has finite activity exactly
        when it is finite."""

    @abc.abstractmethod
    def support_segments(self) -> tuple[_Interval, ...]:
        """Disjoint intervals carrying all mass, none with 0 in the interior."""

    def breakpoints(self) -> tuple[float, ...]:
        """Kinks of the density inside its support, where quadrature cuts
        it; the support segment ends are edges already."""
        return ()

    def diverges_near_zero(self, moment: float) -> bool:
        """Whether int |y|^moment nu(dy) diverges near 0 by a verdict the
        quadrature cannot reach (False: the quadrature decides)."""
        return False

    def mass_above(self, epsilon: float) -> float:
        """nu(|y| > epsilon); finite for epsilon > 0 on every built-in family."""
        if epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if epsilon == 0.0:
            return self.total_mass()
        total = _side_integral(self, self.density, epsilon, math.inf)
        if total is None:
            raise DivergentIntegral(f"mass above {epsilon!r} diverged")
        return total


@dataclass(frozen=True)
class ZeroMeasure(LevyMeasure):
    def density(self, y):
        return np.zeros_like(np.asarray(y, dtype=float))

    def total_mass(self):
        return 0.0

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

    def support_segments(self):
        lo, hi = self.jump_density.support()
        if lo < 0.0 < hi:
            return ((lo, 0.0), (0.0, hi))
        return ((lo, hi),)

    def breakpoints(self):
        return self.jump_density.breakpoints()


def _by_sign(pos: np.ndarray, plus: float, minus: float):
    """Each point's side constant: plus where pos, else minus."""
    if plus == minus:
        return plus
    # Indexing by the 0/1 bytes of the mask is about twice as fast as where.
    return np.array((minus, plus))[pos.view(np.uint8)]


def _ts_log_density(nu, pos, ay, lay) -> np.ndarray:
    """The tempered stable log-density log C - (1 + alpha) log|y| -
    lambda |y| at nonzero, non-nan y, from the 1-d arrays pos = y > 0, |y|
    and log|y| (it works in place, which a 0-d array does not allow)."""
    out = (1.0 + nu.alpha) * lay
    np.subtract(_by_sign(pos, math.log(nu.c_plus), math.log(nu.c_minus)), out, out=out)
    out -= _by_sign(pos, nu.lam_plus, nu.lam_minus) * ay
    return out


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
        pos = y > 0
        ay = np.abs(y)
        c = _by_sign(pos, self.c_plus, self.c_minus)
        lam = _by_sign(pos, self.lam_plus, self.lam_minus)
        with np.errstate(all="ignore"):
            out = c * ay ** (-1.0 - self.alpha) * np.exp(-lam * ay)
        return np.where(pos | (y < 0), out, 0.0)

    def log_density(self, y):
        shape = np.shape(y)
        y = np.asarray(y, dtype=float).reshape(-1)
        pos = y > 0
        ay = np.abs(y)
        with np.errstate(all="ignore"):
            out = _ts_log_density(self, pos, ay, np.log(ay))
        return np.where(pos | (y < 0), out, -math.inf).reshape(shape)

    def total_mass(self):
        """Gamma(-alpha) (C+ lambda+^alpha + C- lambda-^alpha) for alpha < 0,
        math.inf where that overflows and for alpha >= 0."""
        if self.alpha >= 0:
            return math.inf
        try:
            return math.gamma(-self.alpha) * (
                self.c_plus * self.lam_plus**self.alpha
                + self.c_minus * self.lam_minus**self.alpha
            )
        except OverflowError:
            return math.inf

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
        _store_knots(self, g, v)
        if any(side is not None and len(side[0]) == 1 for side in self._sides):
            raise ValueError("each tabulated side needs >= 2 knots or none")

    @cached_property
    def _sides(self):
        """(log |y|, log density) at the knots of the negative and of the
        positive side, ascending in |y|; None for a side without knots."""
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        neg, pos = g < 0, g > 0
        return (
            (np.log(-g[neg])[::-1], np.log(v[neg])[::-1]) if neg.any() else None,
            (np.log(g[pos]), np.log(v[pos])) if pos.any() else None,
        )

    def density(self, y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        for side, mask in zip(self._sides, (y < 0, y > 0)):
            if side is not None:
                logu, logv = side
                lay = np.log(np.abs(y[mask]))
                inside = (lay >= logu[0]) & (lay <= logu[-1])
                out[mask] = np.where(inside, np.exp(np.interp(lay, logu, logv)), 0.0)
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
        total = _side_integral(self, self.density, 0.0, math.inf)
        return math.inf if total is None else total

    def support_segments(self):
        g = self.grid
        k = bisect.bisect(g, 0.0)  # the knots below 0
        return tuple((side[0], side[-1]) for side in (g[:k], g[k:]) if side)

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


def support_edges(measures, lo=-math.inf, hi=math.inf, cuts=()) -> list[float]:
    """Sorted, distinct edges of the union support of ``measures`` in [lo,
    hi]: the ends of the hull of the clipped support segments, and each of
    0, ``cuts``, the clipped segment ends and the breakpoints that lies
    strictly inside that hull; [] when no segment meets [lo, hi]."""
    ends = []
    for nu in measures:
        for a, b in nu.support_segments():
            a, b = max(a, lo), min(b, hi)
            if a < b:
                ends.extend((a, b))
    if not ends:
        return []
    first, last = min(ends), max(ends)
    pts = {first, last}
    inner = (0.0, *cuts, *ends, *(b for nu in measures for b in nu.breakpoints()))
    pts.update(p for p in inner if first < p < last)
    return sorted(pts)


def support_integral(measures, integrand, lo=-math.inf, hi=math.inf, cuts=()) -> float | None:
    """Integral of integrand over ``support_edges(measures, lo, hi, cuts)``
    in one quadrature, singular at 0; None when it diverges."""
    edges = support_edges(measures, lo, hi, cuts)
    res = integrate_segments(integrand, edges, singular_at_zero=True)
    return None if res.diverged else res.value


def _side_integral(nu: LevyMeasure, integrand, lo_mag: float, hi_mag: float) -> float | None:
    """Integral of integrand over support ∩ {lo_mag < |y| < hi_mag}, one
    ``support_integral`` per sign, added negative side first; None as soon
    as a side diverges."""
    total = 0.0
    for lo, hi in ((-hi_mag, -lo_mag), (lo_mag, hi_mag)):
        value = support_integral((nu,), integrand, lo, hi)
        if value is None:
            return None
        total += value
    return total


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


def _same_shape_ts_difference(nu1, nu2, root, factor) -> Callable:
    """y -> root(density(nu1)) - root(density(nu2)) of a same-shape
    tempered-stable pair, for root(x) = x**factor (the identity and 1.0, or
    np.sqrt and 0.5).  With y's side constants it is root(C |y|^(-1-alpha))
    e^(-factor lambda2 |y|) expm1(factor (lambda2 - lambda1) |y|), which
    keeps relative precision where the densities nearly cancel.  Where
    that is not finite (lambda1 < lambda2 far out: the exponential
    underflows to 0, the expm1 overflows), the heavier density is factored
    out instead: -root(C |y|^(-1-alpha)) e^(-factor lambda1 |y|)
    expm1(factor (lambda1 - lambda2) |y|)."""

    def diff(y):
        y = np.asarray(y, dtype=float)
        pos = y > 0
        ay = np.abs(y)
        lam1 = _by_sign(pos, nu1.lam_plus, nu1.lam_minus)
        lam2 = _by_sign(pos, nu2.lam_plus, nu2.lam_minus)
        with np.errstate(all="ignore"):
            scale = root(_by_sign(pos, nu1.c_plus, nu1.c_minus) * ay ** (-1.0 - nu1.alpha))
            out = scale * np.exp(-factor * lam2 * ay) * np.expm1(factor * (lam2 - lam1) * ay)
            heavier = -scale * np.exp(-factor * lam1 * ay) * np.expm1(factor * (lam1 - lam2) * ay)
        return np.where(pos | (y < 0), np.where(np.isfinite(out), out, heavier), 0.0)

    return diff


def pair_difference_fn(nu1: LevyMeasure, nu2: LevyMeasure) -> Callable:
    """y -> density(nu1) - density(nu2), cancellation-safe where it matters."""
    if _same_shape_ts(nu1, nu2):
        return _same_shape_ts_difference(nu1, nu2, lambda x: x, 1.0)
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


_TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)  # -Gamma(-1/2)


@dataclass(frozen=True)
class JumpLaw:
    """A pair's jump law (``pair_jump_law``): its ``kind`` and ``value``,
    and ``mass_gap``, the integral of nu1 - nu2 of an ``"ig_sides"`` law."""

    kind: str
    value: object
    mass_gap: float = 0.0


def pair_jump_law(nu1: LevyMeasure, nu2: LevyMeasure) -> JumpLaw:
    """How the summed log-ratio D of a path's jumps under nu2 is drawn: the
    first of three laws that the pair qualifies for.

    ``"ig_sides"``, value the (C, lambda1, lambda2) of each side on which
    an alpha = 1/2 pair of tempered-stable measures with equal C+- differs,
    negative side first.  On such a side log(dnu1/dnu2)(y) = -(lambda1 -
    lambda2)|y| and nu1 - nu2 integrates to C Gamma(-1/2)(sqrt(lambda1) -
    sqrt(lambda2)), Gamma(-1/2) = -2 sqrt(pi), with the root difference
    taken as (lambda1 - lambda2) / (sqrt(lambda1) + sqrt(lambda2)), which
    does not cancel.  So D is affine in the one-sided jump sums, which are
    inverse Gaussian under nu2 (``simulate.inverse_gaussian_sums``): it is
    drawn exactly, with no truncation and no jump.

    ``"constant"``, value the one log-ratio of every jump nu2's sampler can
    draw: both measures compound Poisson and both jump densities uniform
    (exactly those types; a subclass may sample elsewhere), nu2's [a2, b2]
    inside nu1's [a1, b1], and nu2's largest draw a2 + (b2 - a2)(1 -
    2**-53) not past b2.  Every sampled jump is then a nonzero point of
    [a2, b2], where both densities are flat, so its log-ratio is the value
    bit for bit, unless nu2's density underflows to 0, and D depends on the
    jump count alone (the Poisson change of measure).

    ``"generic"``, value ``pair_log_ratio(nu1, nu2)``: every jump is drawn
    and weighed.
    """
    if _same_shape_ts(nu1, nu2) and nu1.alpha == 0.5:
        sides = (
            (nu1.c_minus, nu1.lam_minus, nu2.lam_minus),
            (nu1.c_plus, nu1.lam_plus, nu2.lam_plus),
        )
        sides = tuple(side for side in sides if side[1] != side[2])
        gaps = [
            _TWO_SQRT_PI * c * (l1 - l2) / (math.sqrt(l1) + math.sqrt(l2)) for c, l1, l2 in sides
        ]
        return JumpLaw("ig_sides", sides, -sum(gaps, 0.0))
    log_ratio = pair_log_ratio(nu1, nu2)
    if type(nu1) is type(nu2) is CompoundPoissonMeasure:
        g1, g2 = nu1.jump_density, nu2.jump_density
        if (
            type(g1) is type(g2) is UniformDensity
            and g1.a <= g2.a
            and g2.b <= g1.b
            and g2.a + (g2.b - g2.a) * (1.0 - 2.0**-53) <= g2.b
        ):
            point = g2.b if g2.b != 0.0 else g2.a
            try:
                return JumpLaw("constant", float(log_ratio(np.array([point]))[0]))
            except RatioUndefined:  # nu2's density underflows to 0
                pass
    return JumpLaw("generic", log_ratio)


def pair_sqrt_difference_fn(nu1: LevyMeasure, nu2: LevyMeasure) -> Callable:
    """y -> sqrt(density(nu1)) - sqrt(density(nu2)), cancellation-safe."""
    if _same_shape_ts(nu1, nu2):
        return _same_shape_ts_difference(nu1, nu2, np.sqrt, 0.5)
    return lambda y: np.sqrt(nu1.density(y)) - np.sqrt(nu2.density(y))


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------


@lru_cache(maxsize=FUNCTIONAL_CACHE_SIZE)
def gamma_nu(nu: LevyMeasure) -> float:
    """Small-jump compensator drift: integral of y over {|y| <= 1}."""
    if nu.diverges_near_zero(1.0):
        raise DivergentIntegral("tabulated small-jump first moment diverges near 0")
    value = support_integral((nu,), lambda y: y * nu.density(y), -1.0, 1.0)
    if value is None:
        raise DivergentIntegral("small-jump first moment diverges")
    return value


@dataclass(frozen=True)
class AbsContinuityReport:
    ok: bool
    violations: tuple[float, ...]
    checked: int


@lru_cache(maxsize=FUNCTIONAL_CACHE_SIZE)
def check_abs_continuity(nu1: LevyMeasure, nu2: LevyMeasure) -> AbsContinuityReport:
    """Probe-grid proxy for nu1 << nu2: wherever nu1 has density, nu2 must.

    Probes 4096 log-spaced magnitudes per side from 1e-8 up to the larger of
    100 and the outermost finite support edge, plus all tabulated knots.
    """
    edges = support_edges((nu1, nu2))
    hi = max([AC_PROBE_MAX_FLOOR] + [abs(p) for p in edges if math.isfinite(p)])
    mags = np.logspace(math.log10(AC_PROBE_MIN), math.log10(hi), AC_PROBES_PER_SIDE)
    probes = np.concatenate([-mags[::-1], mags])
    knots = [k for nu in (nu1, nu2) if isinstance(nu, TabulatedLevyMeasure) for k in nu.grid]
    if knots:
        probes = np.unique(np.concatenate([probes, np.asarray(knots)]))
    d1 = nu1.density(probes)
    d2 = nu2.density(probes)
    bad = (d1 > 0.0) & (d2 == 0.0)
    violations = tuple(float(v) for v in probes[bad][:16])
    return AbsContinuityReport(not bad.any(), violations, probes.size)


def require_abs_continuity(nu1: LevyMeasure, nu2: LevyMeasure) -> None:
    """Raise NotAbsolutelyContinuous when ``check_abs_continuity`` finds a
    probe where nu1 has density and nu2 has none: the one refusal of a
    pair that is not nu1 << nu2, for the report and every estimator."""
    report = check_abs_continuity(nu1, nu2)
    if not report.ok:
        raise NotAbsolutelyContinuous(
            f"nu1 has density where nu2 has none, e.g. at y = {report.violations[0]!r}"
        )


def _pair_integral(nu1, nu2, integrand) -> float:
    require_abs_continuity(nu1, nu2)
    value = support_integral((nu1, nu2), integrand)
    return math.inf if value is None else value


@lru_cache(maxsize=FUNCTIONAL_CACHE_SIZE)
def l1_distance(nu1: LevyMeasure, nu2: LevyMeasure) -> float:
    """Integral of |density gap| over the union support; math.inf if divergent."""
    diff = pair_difference_fn(nu1, nu2)
    return _pair_integral(nu1, nu2, lambda y: np.abs(diff(y)))


@lru_cache(maxsize=FUNCTIONAL_CACHE_SIZE)
def hellinger_sq(nu1: LevyMeasure, nu2: LevyMeasure) -> float:
    """Integral of (sqrt(density1) - sqrt(density2))^2; math.inf if divergent."""
    sdiff = pair_sqrt_difference_fn(nu1, nu2)
    return _pair_integral(nu1, nu2, lambda y: sdiff(y) ** 2)


@dataclass(frozen=True)
class LevyValidation:
    """Whether int min(y^2, 1) nu(dy) is finite; ``value`` is the integral,
    or nu(R), which bounds it, when the quadrature reads it as divergent."""

    ok: bool
    value: float
    message: str = ""


@lru_cache(maxsize=FUNCTIONAL_CACHE_SIZE)
def validate_levy(nu: LevyMeasure) -> LevyValidation:
    """Check the defining integrability: int (y^2 and 1) nu(dy) < inf."""
    if nu.diverges_near_zero(2.0):
        return LevyValidation(
            False,
            math.inf,
            "inner-edge trend steeper than y^-3: y^2-integral diverges toward 0",
        )
    value = support_integral(
        (nu,), lambda y: np.minimum(y * y, 1.0) * nu.density(y), cuts=(-1.0, 1.0)
    )
    if value is None:
        # The quadrature reads a large finite integral as divergent, but
        # int min(y^2, 1) nu(dy) <= nu(R), so a finite-activity measure passes.
        mass = nu.total_mass()
        if math.isfinite(mass):
            return LevyValidation(True, mass)
        return LevyValidation(False, math.inf, "y^2-integral diverges near 0")
    return LevyValidation(True, value)
