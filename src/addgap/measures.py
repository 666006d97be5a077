r"""Levy measures, jump-size densities, and the pairwise functionals feeding the bounds.

All measures are absolutely continuous with respect to Lebesgue measure on
R \ {0} and expose a vectorized density. Pairwise quantities (the L1 gap
between measures, the Hellinger-type quantity, the compensated drift gap)
and the functionals of one measure (gamma, the mass) are exact sums where
the measures' family has a closed form, and adaptive quadrature over the
union of supports, split at 0 and at every known support edge, elsewhere.
The Levy check (``validate_levy``) gives a verdict only: a family's form
passes the measures it covers, and the quadrature decides the rest.

Closed forms come first.  ``_FORMS`` files every family's formulas and
``_closed_form`` reads them: it is the one caller of ``_family``, the rule
for which measures get a family's formulas.  Each functional (the total
mass included), the density gap, the log-ratio, the jump law and the
exact sampler take their family's form where it applies (a form returns
None where it does not), and their generic path otherwise: for a
functional, the quadrature of the density.  So a measure outside every
family needs only ``density`` and ``support_segments``.  The forms of the
functionals live in ``_forms``, whose docstring lists them.

A two-sided family writes each formula once: every point takes its own
side's constants (C and lambda by the sign of y) and evaluates the formula
once, never both sides' formulas.

The measures are time-homogeneous, so their functionals do not depend on
the horizon, the drifts or the variances of a problem: `validate_levy`,
`check_abs_continuity`, `l1_distance`, `hellinger_sq`, `gamma_nu` and
`eta_nu` are pure functions of frozen, value-hashed measures and are cached by
value (`functools.lru_cache`, FUNCTIONAL_CACHE_SIZE entries each).  A
horizon sweep, or any caller that meets an equal measure twice in one
process, computes each of them once; a failure (an exception) is not
cached and is raised again on every call.

The hypothesis nu1 << nu2 has one refusal, `require_abs_continuity`: it
reads the cached verdict, which `check_abs_continuity` reaches exactly from
the support segments of the two measures, and raises
NotAbsolutelyContinuous naming a point where nu1 has density and nu2 has
none.  `l1_distance`, `hellinger_sq`, the bound report and every Monte
Carlo estimator go through it.

A measure has finite activity exactly when ``total_mass()`` is finite;
there is no second test.

Every integral over a Levy measure runs on the edges of one function,
``support_edges(measures, lo, hi, cuts)``: it clips each support segment
to the window [lo, hi], and returns the ends of the hull of what is left,
with 0, each cut, each clipped segment end and each breakpoint that lies
strictly inside that hull; a window that meets no support has no edges
and integrates to 0.  ``support_integral`` integrates over these edges in
one quadrature, singular at 0, for the functionals of the whole support
(gamma, L1, H^2, eta, the characteristic exponent and the Levy check).
``_side_integral`` makes one ``support_integral`` per sign window,
negative side first, for the mass above epsilon and the truncated
compensator.
"""

import abc
import bisect
import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import (
    DivergentIntegral,
    NonFiniteIntegrand,
    NotAbsolutelyContinuous,
    RatioUndefined,
)
from . import _forms
from ._forms import _ts_sides
from .quadrature import IntegrationRequest, integrate

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


def _knots(table) -> tuple[np.ndarray, np.ndarray]:
    """grid and values as arrays, after refusing a grid of < 2 increasing knots."""
    g = np.asarray(table.grid, dtype=float)
    v = np.asarray(table.values, dtype=float)
    if g.ndim != 1 or g.size < 2 or not np.all(np.diff(g) > 0):
        raise ValueError("tabulated grid must be strictly increasing with >= 2 knots")
    return g, v


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
    def support(self) -> tuple[_Interval, ...]:
        """Disjoint intervals in increasing order: the pdf is positive inside
        each, but at finitely many points, and 0 off them."""

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
        return ((self.a, self.b),)


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
        return ((0.0, math.inf),)


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
        return ((-math.inf, math.inf),)


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
        g, v = _knots(self)
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
        """The knot cells where a knot value is positive, touching cells
        joined: the interpolant is positive inside each such cell."""
        g = np.asarray(self.grid)
        v = np.asarray(self.values) > 0.0
        kept = np.concatenate(([False], v[:-1] | v[1:], [False]))
        ends = np.flatnonzero(kept[:-1] != kept[1:])
        return tuple(zip(g[ends[::2]].tolist(), g[ends[1::2]].tolist()))

    def breakpoints(self):
        return self.grid


# ---------------------------------------------------------------------------
# Levy measures
# ---------------------------------------------------------------------------


class LevyMeasure(abc.ABC):
    """A Levy measure given by its density on R \\ {0} and its support
    segments, the two methods a measure must define.  Every other method
    has a default that reads them, and the functionals weigh a measure of
    a family (``_family``) by that family's forms (``_closed_form``)."""

    @abc.abstractmethod
    def density(self, y: np.ndarray) -> np.ndarray:
        """Vectorized density; 0 off the support (and at y = 0 by convention)."""

    def log_density(self, y: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.density(y))

    def total_mass(self) -> float:
        """nu(R), possibly math.inf; the measure has finite activity exactly
        when it is finite: the family's form (``_closed_form``), else the
        quadrature of the density, inf where either diverges."""
        if self.diverges_near_zero(0.0):
            return math.inf
        total = _closed_form("total_mass", (self,))
        if total is None:
            total = _side_integral(self, self.density, 0.0, math.inf)
        return math.inf if total is None else total

    @abc.abstractmethod
    def support_segments(self) -> tuple[_Interval, ...]:
        """Disjoint intervals, none with 0 in the interior: the density is
        positive inside each, but at finitely many points, and 0 off them.
        ``check_abs_continuity`` reads its verdict from them alone."""

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
        total = _closed_form("mass_above", (self,), epsilon)
        if total is None:
            total = _side_integral(self, self.density, epsilon, math.inf)
        if total is None:
            raise DivergentIntegral(f"mass above {epsilon!r} diverged")
        return total


@dataclass(frozen=True)
class ZeroMeasure(LevyMeasure):
    def density(self, y):
        return np.zeros_like(np.asarray(y, dtype=float))

    def support_segments(self):
        return ()


@dataclass(frozen=True)
class CompoundPoissonMeasure(LevyMeasure):
    intensity: float
    jump_density: JumpDensity

    def __post_init__(self):
        if not 0 < self.intensity < math.inf:
            raise ValueError("compound Poisson intensity must be finite and > 0")

    def density(self, y):
        y = np.asarray(y, dtype=float)
        return np.where(y != 0.0, self.intensity * self.jump_density.pdf(y), 0.0)

    def support_segments(self):
        """The jump density's segments, each cut at 0."""
        out = []
        for lo, hi in self.jump_density.support():
            out += [(lo, 0.0), (0.0, hi)] if lo < 0.0 < hi else [(lo, hi)]
        return tuple(out)

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
        if not all(0 < v < math.inf for v in (self.c_minus, self.c_plus)):
            raise ValueError("tempered stable C_- and C_+ must be finite and > 0")
        if not all(0 < v < math.inf for v in (self.lam_minus, self.lam_plus)):
            raise ValueError("tempered stable lambda_- and lambda_+ must be finite and > 0")
        if not self.alpha < 2:
            raise ValueError("tempered stable alpha must be < 2")
        if self.alpha == -math.inf:
            raise ValueError("tempered stable alpha must be finite")

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

    Every knot is a breakpoint, so the quadrature cuts at each one and
    integrates a smooth power law on every piece, and the size table of
    the jump sampler (``simulate._size_table``) puts every knot into its
    grid, so each of its cells lies inside one knot cell.
    """

    grid: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        g, v = _knots(self)
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

    def support_segments(self):
        g = self.grid
        k = bisect.bisect(g, 0.0)  # the knots below 0
        return tuple((side[0], side[-1]) for side in (g[:k], g[k:]) if side)

    def breakpoints(self):
        return self.grid


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
    if not edges:
        return 0.0
    res = integrate(
        IntegrationRequest(
            integrand, edges[0], edges[-1], singular_at_zero=True, breakpoints=tuple(edges[1:-1])
        )
    )
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
# Pairwise integrand hooks
# ---------------------------------------------------------------------------


_FAMILIES = (
    TemperedStableMeasure,
    CompoundPoissonMeasure,
    TabulatedLevyMeasure,
    UniformDensity,
    ExponentialDensity,
    NormalDensity,
    TabulatedDensity,
)


@cache
def _family(cls: type) -> type | None:
    """The built-in class whose formulas (closed forms, fused log-ratio,
    samplers; not the verdict on nu1 << nu2, which reads any measure's
    segments) stand in for the methods of cls, or None: a subclass of a Levy
    family that keeps ``density`` and ``log_density``, or of a jump density
    family that keeps ``pdf`` and ``sample``, belongs to it."""
    for base in _FAMILIES:
        kept = ("pdf", "sample") if issubclass(base, JumpDensity) else ("density", "log_density")
        if issubclass(cls, base) and all(getattr(cls, m) is getattr(base, m) for m in kept):
            return base
    return None


def pair_difference_fn(nu1: LevyMeasure, nu2: LevyMeasure) -> Callable:
    """y -> density(nu1) - density(nu2): the family's ``"difference"`` form
    (``_closed_form``), else that difference."""
    diff = _closed_form("difference", (nu1, nu2))
    return (lambda y: nu1.density(y) - nu2.density(y)) if diff is None else diff


def _undefined_ratio() -> RatioUndefined:
    return RatioUndefined("a jump landed where the reference density vanishes")


def pair_log_ratio(nu1: LevyMeasure, nu2: LevyMeasure) -> Callable:
    """y -> log(dnu1/dnu2)(y), raising RatioUndefined when the log-density
    of nu2 is -inf at any y (always so at y = 0 and at nan).

    Equals ``nu1.log_density(y) - nu2.log_density(y)`` bit for bit: the
    family's ``"log_ratio"`` form (``_closed_form``), else that difference.
    """
    fused = _closed_form("log_ratio", (nu1, nu2))
    if fused is not None:
        return fused

    def ratio(y):
        ld2 = nu2.log_density(y)
        if np.any(np.isneginf(ld2)):
            raise _undefined_ratio()
        with np.errstate(invalid="ignore"):
            return nu1.log_density(y) - ld2

    return ratio


@dataclass(frozen=True)
class JumpLaw:
    """A pair's jump law (``pair_jump_law``): its ``kind`` and ``value``,
    and ``mass_gap``, the integral of nu1 - nu2 of an ``"ig_sides"`` law."""

    kind: str
    value: object
    mass_gap: float = 0.0


def pair_jump_law(nu1: LevyMeasure, nu2: LevyMeasure) -> JumpLaw:
    """How the summed log-ratio D of a path's jumps under nu2 is drawn: the
    family's ``"jump_law"`` form (``_closed_form``: ``"ig_sides"`` or
    ``"constant"``), else ``"generic"``, value ``pair_log_ratio(nu1, nu2)``:
    every jump is drawn and weighed."""
    law = _closed_form("jump_law", (nu1, nu2))
    return JumpLaw("generic", pair_log_ratio(nu1, nu2)) if law is None else law


# ---------------------------------------------------------------------------
# One formula table per family
# ---------------------------------------------------------------------------


def _ts_log_ratio(nu1, nu2) -> Callable:
    """The log-ratio of two tempered-stable measures, with |y| and log|y|
    computed once instead of once per measure."""

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


_TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)  # -Gamma(-1/2)


def _ts_jump_law(nu1, nu2) -> JumpLaw | None:
    """``"ig_sides"``, value the (C, lambda1, lambda2) of each side on which
    a same-shape alpha = 1/2 pair differs, negative side first, else None.
    On such a side log(dnu1/dnu2)(y) = -(lambda1 - lambda2)|y| and nu1 -
    nu2 integrates to C Gamma(-1/2)(sqrt(lambda1) - sqrt(lambda2)),
    Gamma(-1/2) = -2 sqrt(pi), with the root difference taken as (lambda1 -
    lambda2) / (sqrt(lambda1) + sqrt(lambda2)), which does not cancel.  So
    D is affine in the one-sided jump sums, which are inverse Gaussian
    under nu2 (``simulate.inverse_gaussian_sums``): it is drawn exactly,
    with no truncation and no jump."""
    if not (_forms._same_shape(nu1, nu2) and nu1.alpha == 0.5):
        return None
    sides = tuple((c, l1, l2) for _, c, l1, l2 in _ts_sides(nu1, nu2) if l1 != l2)
    gaps = [_TWO_SQRT_PI * c * (l1 - l2) / (math.sqrt(l1) + math.sqrt(l2)) for c, l1, l2 in sides]
    return JumpLaw("ig_sides", sides, -sum(gaps, 0.0))


def _uniform_flat_point(g1: UniformDensity, g2: UniformDensity) -> float | None:
    """A nonzero point of [a2, b2] where it lies inside [a1, b1] and g2's
    largest draw a2 + (b2 - a2)(1 - 2**-53) is not past b2, else None."""
    if g1.a <= g2.a and g2.b <= g1.b and g2.a + (g2.b - g2.a) * (1.0 - 2.0**-53) <= g2.b:
        return g2.b if g2.b != 0.0 else g2.a
    return None


def _cp_jump_law(nu1, nu2) -> JumpLaw | None:
    """``"constant"``, value the one log-ratio of every jump nu2's sampler
    can draw, where the jump densities have a ``"flat_point"`` (uniform
    ones, ``_uniform_flat_point``): every sampled jump lands where both
    densities are flat, so D depends on the jump count alone (the Poisson
    change of measure).  None where nu2's density underflows there."""
    point = _closed_form("flat_point", (nu1.jump_density, nu2.jump_density))
    if point is None:
        return None
    try:
        return JumpLaw("constant", float(pair_log_ratio(nu1, nu2)(np.array([point]))[0]))
    except RatioUndefined:
        return None


def _cp_difference(nu1, nu2) -> Callable | None:
    """(lambda1 - lambda2) times the jump density the two share, or None."""
    if nu1.jump_density != nu2.jump_density:
        return None
    gap = nu1.intensity - nu2.intensity
    return lambda y: gap * nu1.jump_density.pdf(y)


@lru_cache(maxsize=FUNCTIONAL_CACHE_SIZE)
def _jump_moments(density: JumpDensity) -> tuple[float, float] | None:
    """(E[min(Y^2, 1)], E[Y; |Y| <= 1]) of a jump density of a family with
    moments (``_forms``), or None."""
    return _closed_form("moments", (density,))


def _cp_gap(nu1: CompoundPoissonMeasure, nu2: CompoundPoissonMeasure) -> float | None:
    """lambda1 - lambda2 of two measures sharing a jump density of a family
    (whose ``"total_mass"`` form is 1), else None."""
    density = nu1.jump_density
    if density == nu2.jump_density and _closed_form("total_mass", (density,)) is not None:
        return nu1.intensity - nu2.intensity
    return None


def _cp_eta(nu1, nu2) -> float | None:
    gap, moments = _cp_gap(nu1, nu2), _jump_moments(nu1.jump_density)
    return None if gap is None or moments is None else gap * moments[1]


def _cp_l1(nu1, nu2) -> float | None:
    gap = _cp_gap(nu1, nu2)
    return None if gap is None else abs(gap)


def _cp_hellinger(nu1, nu2) -> float | None:
    """(sqrt lambda1 - sqrt lambda2)^2, as ((lambda1 - lambda2) / (sqrt
    lambda1 + sqrt lambda2))^2, which does not cancel."""
    gap = _cp_gap(nu1, nu2)
    if gap is None:
        return None
    return (gap / (math.sqrt(nu1.intensity) + math.sqrt(nu2.intensity))) ** 2


def _table_pieces(nu1, nu2=None, cut: float = 1.0) -> _forms.Pieces:
    """The ``_forms.Pieces`` of one tabulated measure or of two, cut at |y|
    = cut and, for two, where their densities cross."""
    tables = [_table(nu) for nu in (nu1, nu2) if nu is not None]
    return _forms.pieces(tables, (cut,))


# The tables and form sums of the last few tabulated measures: the
# functionals ask for one measure's (or pair's) forms one after another,
# and their own caches keep the values, so a long cache would only keep
# old tables alive.
_TABLE_CACHE_SIZE = 8


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _table(nu: TabulatedLevyMeasure) -> _forms.Table:
    return _forms.table(nu.grid, nu.values)


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _tab_single(nu) -> dict:
    return _forms.single_forms(_table_pieces(nu))


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _tab_pair(nu1, nu2) -> dict:
    return _forms.pair_forms(_table_pieces(nu1, nu2))


# Every jump density of a family is a probability density.
_PROBABILITY = {"total_mass": lambda density: 1.0}

_FORMS = {
    TemperedStableMeasure: {
        "levy": lambda nu: True if 0.0 < nu.alpha < 2.0 and nu.alpha != 1.0 else None,
        "gamma": _forms.ts_gamma,
        "eta": _forms.ts_eta,
        "l1": _forms.ts_l1,
        "hellinger": _forms.ts_hellinger,
        "total_mass": _forms.ts_total_mass,
        "log_ratio": _ts_log_ratio,
        "jump_law": _ts_jump_law,
    },
    CompoundPoissonMeasure: {
        "levy": lambda nu: None if _jump_moments(nu.jump_density) is None else True,
        "gamma": lambda nu: (
            None if (m := _jump_moments(nu.jump_density)) is None else nu.intensity * m[1]
        ),
        "eta": _cp_eta,
        "l1": _cp_l1,
        "hellinger": _cp_hellinger,
        "total_mass": lambda nu: nu.intensity,
        "difference": _cp_difference,
        "jump_law": _cp_jump_law,
        "sampler": lambda nu: nu.jump_density,
    },
    TabulatedLevyMeasure: {
        "levy": lambda nu: None if _tab_single(nu)["levy"] is None else True,
        "gamma": lambda nu: _tab_single(nu)["gamma"],
        "total_mass": lambda nu: _tab_single(nu)["total_mass"],
        "mass_above": lambda nu, eps: _forms.mass_above(_table_pieces(nu, None, eps), eps),
        "eta": lambda nu1, nu2: _tab_pair(nu1, nu2)["eta"],
        "l1": lambda nu1, nu2: _tab_pair(nu1, nu2)["l1"],
        "hellinger": lambda nu1, nu2: _tab_pair(nu1, nu2)["hellinger"],
    },
    UniformDensity: {
        "moments": lambda d: _forms.uniform_moments(d.a, d.b),
        "flat_point": _uniform_flat_point,
        **_PROBABILITY,
    },
    ExponentialDensity: {"moments": lambda d: _forms.exponential_moments(d.rate), **_PROBABILITY},
    NormalDensity: {"moments": lambda d: _forms.normal_moments(d.mean, d.variance), **_PROBABILITY},
    TabulatedDensity: {
        "moments": lambda d: _forms.tabulated_density_moments(*d._arrays[:2]),
        **_PROBABILITY,
    },
}


def _closed_form(name: str, measures: tuple, *params) -> object:
    """The form ``name`` at measures (one or two Levy measures or jump
    densities) and params of the family all of them belong to
    (``_family``), or None where they have no common family, it has no such
    form, or the form does not apply: then the caller takes its generic
    path.  A form gives a number, a function of y (``"difference"``,
    ``"log_ratio"``), a ``JumpLaw``, the jump density whose sampler draws
    the sizes (``"sampler"``), a point (``"flat_point"``) or, for
    ``"levy"``, True: the measure passes ``validate_levy``."""
    family = _family(type(measures[0]))
    if any(_family(type(nu)) is not family for nu in measures[1:]):
        return None
    form = _FORMS.get(family, {}).get(name)
    return None if form is None else form(*measures, *params)


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------


@lru_cache(maxsize=FUNCTIONAL_CACHE_SIZE)
def gamma_nu(nu: LevyMeasure) -> float:
    """Small-jump compensator drift: integral of y over {|y| <= 1}: the
    family's closed form (``_closed_form``), else the quadrature."""
    if nu.diverges_near_zero(1.0):
        raise DivergentIntegral("tabulated small-jump first moment diverges near 0")
    value = _closed_form("gamma", (nu,))
    if value is None:
        value = support_integral((nu,), lambda y: y * nu.density(y), -1.0, 1.0)
    if value is None:
        raise DivergentIntegral("small-jump first moment diverges")
    return value


@lru_cache(maxsize=FUNCTIONAL_CACHE_SIZE)
def eta_nu(nu1: LevyMeasure, nu2: LevyMeasure) -> float:
    """Compensated small-jump drift gap: integral of y over {|y| <= 1}
    against nu1 - nu2, integrated jointly, so that a pair whose small-jump
    first moments diverge apart but whose gap is integrable is finite: the
    family's closed form (``_closed_form``), else the quadrature."""
    if nu1.diverges_near_zero(1.0) or nu2.diverges_near_zero(1.0):
        raise DivergentIntegral("tabulated small-jump first moment diverges near 0")
    value = _closed_form("eta", (nu1, nu2))
    if value is None:
        diff = pair_difference_fn(nu1, nu2)
        value = support_integral((nu1, nu2), lambda y: y * diff(y), -1.0, 1.0)
    if value is None:
        raise DivergentIntegral("compensated drift gap diverges near 0")
    return value


@dataclass(frozen=True)
class AbsContinuityReport:
    ok: bool
    violations: tuple[float, ...]
    checked: int


@lru_cache(maxsize=FUNCTIONAL_CACHE_SIZE)
def check_abs_continuity(nu1: LevyMeasure, nu2: LevyMeasure) -> AbsContinuityReport:
    """Exact verdict on nu1 << nu2, from the support segments alone: each
    density is positive inside its segments, but at finitely many points,
    and 0 off them.  So nu1 << nu2 exactly when nu2's segments, touching
    neighbours joined, cover nu1's up to finitely many points.

    ``violations`` holds one point inside each part of nu1's segments that
    nu2's leave out (the first 16), and ``checked`` counts nu1's segments.
    """
    ends = [-math.inf]  # the ends of the open holes between nu2's segments
    for lo, hi in sorted(nu2.support_segments()):
        if lo > ends[-1]:
            ends += [lo, hi]
        else:
            ends[-1] = max(ends[-1], hi)
    ends.append(math.inf)
    holes = list(zip(ends[::2], ends[1::2]))
    segments = nu1.support_segments()
    parts = [(max(a, lo), min(b, hi)) for a, b in segments for lo, hi in holes]
    violations = [_inside(lo, hi) for lo, hi in parts if lo < hi]
    return AbsContinuityReport(not violations, tuple(violations[:16]), len(segments))


def _inside(lo: float, hi: float) -> float:
    """A point of (lo, hi), at most one of whose ends is infinite: the
    midpoint, or a step of max(1, |end|) in from the finite end."""
    if math.isinf(lo) or math.isinf(hi):
        return hi - max(1.0, abs(hi)) if math.isinf(lo) else lo + max(1.0, abs(lo))
    return lo + 0.5 * (hi - lo)


def require_abs_continuity(nu1: LevyMeasure, nu2: LevyMeasure) -> None:
    """Raise NotAbsolutelyContinuous, naming the first point that
    ``check_abs_continuity`` finds where nu1 has density and nu2 has none:
    the one refusal of a pair that is not nu1 << nu2, for the report and
    every estimator."""
    report = check_abs_continuity(nu1, nu2)
    if not report.ok:
        raise NotAbsolutelyContinuous(
            f"nu1 has density where nu2 has none, e.g. at y = {report.violations[0]!r}"
        )


def _pair_integral(nu1, nu2, integrand) -> float:
    value = support_integral((nu1, nu2), integrand)
    return math.inf if value is None else value


@lru_cache(maxsize=FUNCTIONAL_CACHE_SIZE)
def l1_distance(nu1: LevyMeasure, nu2: LevyMeasure) -> float:
    """Integral of |density gap| over the union support; math.inf if
    divergent: the family's closed form (``_closed_form``), else the
    quadrature."""
    require_abs_continuity(nu1, nu2)
    value = _closed_form("l1", (nu1, nu2))
    if value is not None:
        return value
    diff = pair_difference_fn(nu1, nu2)
    return _pair_integral(nu1, nu2, lambda y: np.abs(diff(y)))


@lru_cache(maxsize=FUNCTIONAL_CACHE_SIZE)
def hellinger_sq(nu1: LevyMeasure, nu2: LevyMeasure) -> float:
    """Integral of (sqrt(density1) - sqrt(density2))^2; math.inf if
    divergent: the family's closed form (``_closed_form``), else the
    quadrature."""
    require_abs_continuity(nu1, nu2)
    value = _closed_form("hellinger", (nu1, nu2))
    if value is not None:
        return value
    return _pair_integral(
        nu1, nu2, lambda y: (np.sqrt(nu1.density(y)) - np.sqrt(nu2.density(y))) ** 2
    )


@dataclass(frozen=True)
class LevyValidation:
    """Whether int min(y^2, 1) nu(dy) is finite (``ok``), and ``message``
    where it is not."""

    ok: bool
    message: str = ""


@lru_cache(maxsize=FUNCTIONAL_CACHE_SIZE)
def validate_levy(nu: LevyMeasure) -> LevyValidation:
    """Check the defining integrability: int (y^2 and 1) nu(dy) < inf.

    A measure passes where its family's ``"levy"`` form applies
    (``_closed_form``): a tempered-stable measure with 0 < alpha < 2, alpha
    != 1, a compound Poisson measure whose jump density has moments, and a
    table whose sum is finite.  Any other measure takes the quadrature,
    whose integrand is >= 0 and so is not finite only where the density
    overflows: such a measure fails.
    """
    if nu.diverges_near_zero(2.0):
        return LevyValidation(
            False, "inner-edge trend steeper than y^-3: y^2-integral diverges toward 0"
        )
    if _closed_form("levy", (nu,)) is not None:
        return LevyValidation(True)
    try:
        value = support_integral(
            (nu,), lambda y: np.minimum(y * y, 1.0) * nu.density(y), cuts=(-1.0, 1.0)
        )
    except NonFiniteIntegrand as exc:
        return LevyValidation(False, f"density overflows: {exc}")
    # The quadrature reads a large finite integral as divergent, but
    # int min(y^2, 1) nu(dy) <= nu(R), so a finite-activity measure passes.
    if value is None and not math.isfinite(nu.total_mass()):
        return LevyValidation(False, "int min(y^2, 1) nu(dy) is not finite")
    return LevyValidation(True)
