"""Additive process specifications: time-varying local characteristics.

A process is described by a deterministic drift rate f(t), a deterministic
instantaneous variance sigma^2(t), and a Levy measure for the jumps. A
problem pairs two such processes over a common horizon and exposes the
pairwise ingredients the distance bounds are built from: the compensated
drift gap eta, the normalized drift distance xi^2, volatility-class
detection, and drift matching in the driftless-Gaussian case.

A time function is its pieces (``TimeFunction.pieces``): a piecewise
polynomial on every [a, b], from which its values and exact integrals
(polynomial antiderivatives, piecewise sums) are read.  The volatility and
drift verdicts read exact extrema from the pieces on [0, T]: a piece's
extremes lie at its ends or at real roots of its derivative inside it.
xi^2 is exact, from polynomial antiderivatives, on each piece where the
variance is a constant; only its quotient integral over the other pieces
goes through quadrature, cut at the piece edges.
"""

import abc
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DivergentIntegral, NonFiniteIntegrand, ZeroVolatility
from .measures import (
    LevyMeasure,
    eta_nu,
    support_integral,
    validate_levy,
)
from .quadrature import IntegrationRequest, integrate

# Instantaneous variance at or below this is treated as exactly zero.
MACHINE_ZERO = 1e-30
# Relative tolerance for "equal on [0, T]" verdicts.
MATCH_TOL = 1e-9
# Most coefficients a polynomial time function takes: its extrema come from
# the eigenvalues of a companion matrix, whose cost is cubic in the degree.
MAX_COEFFS = 64

_EPS = float(np.finfo(float).eps)

# (lo, hi, coeffs): a polynomial, coefficients in ascending degree order,
# on [lo, hi).
Piece = tuple[float, float, tuple[float, ...]]


# ---------------------------------------------------------------------------
# Deterministic time functions
# ---------------------------------------------------------------------------


class TimeFunction(abc.ABC):
    """Deterministic function of time, a piecewise polynomial: its pieces
    are all that a subclass defines, and its values and exact integrals are
    read from them."""

    @abc.abstractmethod
    def pieces(self, a: float, b: float) -> tuple[Piece, ...]:
        """The function on [a, b], a <= b, as pieces in order, the first
        from a and the last to b, which it includes; on each piece it is
        that piece's polynomial."""

    def value(self, t: np.ndarray) -> np.ndarray:
        """The function at each point of t, right-continuous at every edge:
        read from the pieces up to one step past the largest t."""
        t = np.asarray(t, dtype=float)
        ts = t[~np.isnan(t)]
        lo, hi = (float(ts.min()), float(ts.max())) if ts.size else (0.0, 0.0)
        return _evaluate(self.pieces(lo, math.nextafter(hi, math.inf)), t)

    def integral(self, a: float, b: float) -> float:
        """Exact integral over [a, b], a <= b: each piece's, added in order;
        c (hi - lo) for a constant piece, else the antiderivative's
        difference."""
        if not a <= b:
            raise ValueError("integral needs a <= b")
        total = 0.0
        for lo, hi, c in self.pieces(a, b):
            if len(c) == 1:
                total += c[0] * (hi - lo)
            else:
                anti = npoly.polyint(c)
                total += float(npoly.polyval(hi, anti) - npoly.polyval(lo, anti))
        return total


def _evaluate(pieces, t) -> np.ndarray:
    """The piecewise polynomial at each point of t, by the piece whose [lo,
    hi) holds it: the first piece below its lo, the last from its hi."""
    t = np.asarray(t, dtype=float)
    if len(pieces) == 1:  # one polynomial on all of t
        c = pieces[0][2]
        return np.full_like(t, c[0]) if len(c) == 1 else npoly.polyval(t, c)
    flat = t.reshape(-1)
    idx = np.searchsorted(np.array([lo for lo, _, _ in pieces[1:]]), flat, side="right")
    out = np.array([c[0] if len(c) == 1 else math.nan for _, _, c in pieces])[idx]
    for i, (_, _, c) in enumerate(pieces):
        if len(c) > 1:
            out[idx == i] = npoly.polyval(flat[idx == i], c)
    return out.reshape(t.shape)


@dataclass(frozen=True)
class ConstantFunction(TimeFunction):
    c: float

    def pieces(self, a, b):
        return ((a, b, (self.c,)),)


@dataclass(frozen=True)
class PolynomialFunction(TimeFunction):
    """Polynomial in t with coefficients in ascending degree order."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("polynomial needs at least one coefficient")
        if len(self.coeffs) > MAX_COEFFS:
            raise ValueError(f"polynomial takes at most {MAX_COEFFS} coefficients")

    def pieces(self, a, b):
        return ((a, b, tuple(self.coeffs)),)


@dataclass(frozen=True)
class PiecewiseConstantFunction(TimeFunction):
    """values[i] on [breaks[i-1], breaks[i]), values[-1] beyond the last break."""

    breaks: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.breaks) + 1:
            raise ValueError("piecewise constant needs len(values) == len(breaks) + 1")
        if len(self.breaks) == 0:
            raise ValueError("piecewise constant needs at least one break")
        if not all(x < y for x, y in zip(self.breaks, self.breaks[1:])):
            raise ValueError("breaks must be strictly increasing")

    def pieces(self, a, b):
        """[a, b] cut at every break inside it, each cell's value read at
        the cell's midpoint."""
        breaks = np.asarray(self.breaks, dtype=float)
        edges = np.concatenate(([a], breaks[(a < breaks) & (breaks < b)], [b]))
        idx = np.searchsorted(breaks, 0.5 * (edges[:-1] + edges[1:]), side="right")
        values = np.asarray(self.values, dtype=float)[idx].tolist()
        edges = edges.tolist()
        return tuple(zip(edges[:-1], edges[1:], ((v,) for v in values)))


# ---------------------------------------------------------------------------
# Exact extrema of piecewise polynomials
# ---------------------------------------------------------------------------


def _derivative(c) -> tuple[float, ...]:
    return tuple(k * c[k] for k in range(1, len(c)))


def _difference(c1, c2) -> tuple[float, ...]:
    return tuple(a - b for a, b in itertools.zip_longest(c1, c2, fillvalue=0.0))


def _roots(c, lo: float, hi: float) -> list[float]:
    """The real part of every root of the polynomial c that lies inside
    (lo, hi), 0 <= lo < hi; a real part is a point of the piece too, so
    taking each one keeps a real root that rounding moved off the real line.
    The roots are taken of c(hi s), without its leading terms below eps of
    its largest on s in [0, 1]: they move no value there beyond rounding,
    and dropping them keeps the companion matrix finite.  A piece whose
    scaled terms overflow gets no roots."""
    if len(c) < 2:
        return []
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.asarray(c, dtype=float) * hi ** np.arange(len(c))
        size = np.abs(scaled)
        if not np.all(np.isfinite(size)):
            return []
        degree = int(np.flatnonzero(size > _EPS * size.max())[-1]) if size.any() else 0
    if degree == 0:
        return []
    roots = npoly.polyroots(scaled[: degree + 1]).real * hi
    return [r for r in roots.tolist() if lo < r < hi]


def _values(c, ts: list[float]) -> list[float]:
    """The polynomial c at each point of ts; inf or nan where it overflows."""
    if len(c) == 1:
        return [float(c[0])] * len(ts)
    with np.errstate(over="ignore", invalid="ignore"):
        return npoly.polyval(np.asarray(ts), c).tolist()


def _variance_values(c, ts: list[float]) -> list[float]:
    """A variance polynomial at each point of ts, each value within its
    finite rounding bound of 0 read as 0.  By Horner's error bound a
    computed value at t is off by at most about len(c) eps sum |c_k| |t|^k,
    counting the rounding of the coefficients themselves; a constant is
    exact."""
    values = _values(c, ts)
    if len(c) == 1:
        return values
    with np.errstate(over="ignore"):
        bounds = (len(c) * _EPS) * npoly.polyval(np.abs(ts), np.abs(c))
    return [0.0 if abs(v) <= b < math.inf else v for v, b in zip(values, bounds.tolist())]


def _largest(values) -> float:
    """The largest of values, nan if one is nan."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def _refinement(pieces1, pieces2):
    """(lo, hi, c1, c2) for each cell of the common refinement of two piece
    lists over the same [0, T], in order."""
    i = j = 0
    lo = 0.0
    while i < len(pieces1) and j < len(pieces2):
        hi = min(pieces1[i][1], pieces2[j][1])
        yield lo, hi, pieces1[i][2], pieces2[j][2]
        i += pieces1[i][1] == hi
        j += pieces2[j][1] == hi
        lo = hi


def _paired_values(pieces1, pieces2, values=_values) -> tuple[list[float], list[float]]:
    """Two piecewise polynomials p1, p2 over the same [0, T], each read by
    values at the same points: on each cell of their common refinement, its
    ends and the real roots inside it of p1', p2', p1 - p2 and (p1 - p2)'.
    The extremes on [0, T] of p1, p2, p1 - p2 and max(p1, p2) are among
    them."""
    found1, found2 = [], []
    for lo, hi, c1, c2 in _refinement(pieces1, pieces2):
        if len(c1) == len(c2) == 1:  # two constants: one point is all
            ts = [lo]
        else:
            d1, d2 = _derivative(c1), _derivative(c2)
            polys = (d1, d2, _difference(c1, c2), _difference(d1, d2))
            ts = [lo, hi, *(t for c in polys for t in _roots(c, lo, hi))]
        found1 += values(c1, ts)
        found2 += values(c2, ts)
    return found1, found2


# ---------------------------------------------------------------------------
# Process and problem specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProcessSpec:
    """One additive process: drift rate, instantaneous variance, jump measure."""

    drift: TimeFunction
    vol_sq: TimeFunction
    levy: LevyMeasure

    def __post_init__(self):
        check = validate_levy(self.levy)
        if not check.ok:
            raise ValueError(f"invalid Levy measure: {check.message}")


class _VarianceRefused(ValueError):
    """ProblemSpec's refusal of the variance of process ``k``."""

    def __init__(self, k: int, verdict: str):
        super().__init__(f"process {k} volatility is {verdict} on [0, T]")
        self.k = k


@dataclass(frozen=True)
class ProblemSpec:
    """A pair of additive processes compared over [0, horizon]."""

    process1: ProcessSpec
    process2: ProcessSpec
    horizon: float

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be finite and > 0")
        # Each function's pieces on [0, T], read once per spec for the
        # verdicts and xi^2: both variances', then both drifts'.
        p1, p2 = self.process1, self.process2
        fns = (p1.vol_sq, p2.vol_sq, p1.drift, p2.drift)
        pieces = tuple(f.pieces(0.0, self.horizon) for f in fns)
        object.__setattr__(self, "_pieces", pieces)
        v1, v2 = _paired_values(*pieces[:2], _variance_values)
        for k, v in enumerate((v1, v2), start=1):
            if not all(map(math.isfinite, v)):
                raise _VarianceRefused(k, "not finite")
            if min(v) < 0.0:
                raise _VarianceRefused(k, "negative")
        # The verdicts every report reads, from the variances read once.
        gap = max(abs(a - b) for a, b in zip(v1, v2))
        larger = [max(a, b) for a, b in zip(v1, v2)]
        high = max(larger)
        mismatch = gap > MATCH_TOL * max(high, MACHINE_ZERO)
        if high <= MACHINE_ZERO:
            vol_class = "zero"
        elif min(larger) <= MACHINE_ZERO:
            vol_class = "degenerate"
        else:
            vol_class = "positive"
        object.__setattr__(self, "_vol_verdicts", (mismatch, vol_class))

    # -- volatility classification ------------------------------------------

    def sigma_mismatch(self) -> bool:
        """True when the two instantaneous variances differ somewhere on [0, T]."""
        return self._vol_verdicts[0]

    def vol_class(self) -> str:
        """'zero' | 'positive' | 'degenerate' for the pointwise larger of the
        two variances.

        'degenerate' marks a variance that vanishes on part of [0, T] while
        being positive elsewhere; no bound form covers that case. Meaningful
        only when sigma_mismatch() is False.
        """
        return self._vol_verdicts[1]

    # -- pairwise drift and jump-compensation quantities ---------------------

    def eta(self) -> float:
        """Compensated small-jump drift gap: integral of y against the signed
        density gap over {|y| <= 1}.

        Computed jointly, so pairs whose individual small-jump first moments
        diverge but whose gap is integrable still get a finite value.
        """
        return eta_nu(self.process1.levy, self.process2.levy)

    def xi_sq(self) -> float:
        """Integral over [0, T] of (f1 - f2 - eta)^2 / sigma^2, computed
        once per spec: exact where sigma^2 is constant (``_xi_sq``).

        Requires the shared positive-volatility class; math.inf when the
        quotient integral diverges or meets a non-finite quotient, as where
        sigma^2 is positive but so small that the quotient overflows.
        """
        if self.vol_class() == "zero":
            raise ZeroVolatility("xi^2 is undefined for zero volatility")
        return self._xi_sq

    @cached_property
    def _xi_sq(self) -> float:
        """On each cell of the pieces where sigma^2 is a constant c > 0, the
        exact integral of the polynomial (f1 - f2 - eta)^2 / c, from its
        antiderivative, or g^2 (hi - lo) / c where the gap is a constant g;
        on each run of other cells, one quadrature cut at every piece edge
        inside it.  math.inf where a cell's variance is 0."""
        eta = self.eta()
        vol, _, f1, f2 = self._pieces
        gaps = [(lo, hi, _difference(c1, c2)) for lo, hi, c1, c2 in _refinement(f1, f2)]
        gaps = [(lo, hi, (g[0] - eta, *g[1:])) for lo, hi, g in gaps]
        total = 0.0
        runs = []  # [lo, hi] of each run of cells whose variance is not constant
        for lo, hi, v, g in _refinement(vol, gaps):
            if len(v) > 1:
                if runs and runs[-1][1] == lo:
                    runs[-1][1] = hi
                else:
                    runs.append([lo, hi])
            elif v[0] <= 0.0:
                return math.inf
            elif len(g) == 1:  # the polynomial route's products, in its order
                g0 = float(g[0])
                total += g0 * g0 * (hi - lo) / v[0]
            else:
                with np.errstate(over="ignore", invalid="ignore"):
                    sq = npoly.polymul(g, g)
                    if len(sq) == 1:
                        part = float(sq[0]) * (hi - lo)
                    else:
                        anti = npoly.polyint(sq)
                        part = float(npoly.polyval(hi, anti) - npoly.polyval(lo, anti))
                total += part / v[0]
        if runs:
            total += self._xi_sq_quadrature(eta, runs)
        return total if math.isfinite(total) else math.inf

    def _xi_sq_quadrature(self, eta: float, runs) -> float:
        """The integral of (f1 - f2 - eta)^2 / sigma^2 over each [lo, hi] of
        runs, one quadrature each, cut at the piece edges inside it."""
        vol, _, f1, f2 = self._pieces

        def integrand(t):
            gap = _evaluate(f1, t) - _evaluate(f2, t) - eta
            return gap * gap / _evaluate(vol, t)

        edges = sorted({lo for pieces in self._pieces for lo, _, _ in pieces[1:]})
        total = 0.0
        for lo, hi in runs:
            cuts = tuple(t for t in edges if lo < t < hi)
            try:
                res = integrate(IntegrationRequest(integrand, lo, hi, breakpoints=cuts))
            except NonFiniteIntegrand:
                return math.inf
            if res.diverged:
                return math.inf
            total += res.value
        return total

    @cached_property
    def _drift_gap(self) -> tuple[float, float]:
        """sup |f1 - f2 - eta| over [0, T], and the drift scale
        max(1, sup |f1|, sup |f2|); the sup reads inf, or nan, where a
        drift overflows on [0, T]."""
        eta = self.eta()
        f1, f2 = _paired_values(*self._pieces[2:])
        gap = _largest([abs(a - b - eta) for a, b in zip(f1, f2)])
        return gap, _largest([1.0, *map(abs, f1 + f2)])

    def drift_matched(self) -> bool:
        """Zero-volatility compatibility: f1 - f2 must equal eta on [0, T];
        a drift that overflows there matches nothing."""
        gap, scale = self._drift_gap
        return math.isfinite(gap) and gap <= MATCH_TOL * scale


# ---------------------------------------------------------------------------
# Characteristic function (ground truth for simulation checks)
# ---------------------------------------------------------------------------


def char_function(process: ProcessSpec, horizon: float, u) -> np.ndarray:
    """Characteristic function of the process value at the horizon.

    Small jumps (|y| <= 1) enter compensated, matching the simulator's
    centering convention. Returns a complex array over the given frequencies.
    """
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    drift_term = process.drift.integral(0.0, horizon)
    var_term = process.vol_sq.integral(0.0, horizon)
    out = np.empty(u_arr.shape, dtype=complex)
    for k, uk in enumerate(u_arr):
        jump_re, jump_im = (0.0, 0.0) if uk == 0.0 else _jump_exponent(process.levy, uk)
        psi = (
            1j * uk * drift_term
            - 0.5 * uk * uk * var_term
            + horizon * (jump_re + 1j * jump_im)
        )
        out[k] = np.exp(psi)
    return out


def _jump_exponent(nu, uk) -> list[float]:
    """Real and imaginary parts of the jump exponent at frequency uk, the
    imaginary part compensated on |y| <= 1."""

    def real(y):
        y = np.asarray(y, dtype=float)
        s = np.sin(0.5 * uk * y)
        return -2.0 * s * s * nu.density(y)

    def imaginary(y):
        y = np.asarray(y, dtype=float)
        s = uk * y
        return np.where(np.abs(y) <= 1.0, _sin_minus_id(s), np.sin(s)) * nu.density(y)

    parts = []
    for name, integrand in (("real", real), ("imaginary", imaginary)):
        value = support_integral((nu,), integrand, cuts=(-1.0, 1.0))
        if value is None:
            raise DivergentIntegral(f"characteristic exponent {name} part diverged")
        parts.append(value)
    return parts


def _sin_minus_id(s):
    """sin(s) - s without cancellation for small s."""
    s = np.asarray(s, dtype=float)
    s2 = s * s
    series = -(s2 * s / 6.0) * (1.0 - s2 / 20.0 * (1.0 - s2 / 42.0 * (1.0 - s2 / 72.0)))
    with np.errstate(invalid="ignore"):
        direct = np.sin(s) - s
    return np.where(np.abs(s) < 0.1, series, direct)
