r"""The closed forms behind the functionals of ``measures``: for each family,
the value of a functional as a finite sum of elementary terms, or None where
the family's form does not apply.  ``measures._FORMS`` files them by
family, and ``measures._closed_form`` reads them before any quadrature.

- Tempered-stable measures: the total mass and gamma (0 < alpha < 1) of
  one, and L1, H^2 and eta of a same-shape pair (equal C+- and alpha) for
  every alpha, from the math module and a math-only incomplete gamma
  function, as sums whose terms cancel by at most a small constant
  factor.
- Compound Poisson measures with a uniform, exponential, normal or
  piecewise-linear tabulated jump density: the moments E[min(Y^2, 1)] and
  E[Y; |Y| <= 1] of the density, gamma = lambda E[Y; |Y| <= 1] of one
  measure, and of two that share the density L1 = |lambda1 - lambda2|,
  H^2 = (sqrt lambda1 - sqrt lambda2)^2 and eta = (lambda1 - lambda2)
  E[Y; |Y| <= 1].  The normal moments use the Cephes ports of
  ``_cephes``; where their terms would cancel by more than a factor
  _NORMAL_CANCEL, the normal has no form.
- Log-linear tables (``TabulatedLevyMeasure``): on each piece between the
  knots of both tables, cut at |y| = 1 (or epsilon) and where the densities
  cross (``pieces``), every density is one power law, so each functional
  is an exactly rounded sum of exact piece integrals; a gap between two
  tables is integrated as nu2 expm1(g), g = log(nu1 / nu2), through
  divided differences of exp (``pair_forms``), so it keeps relative
  precision as the densities meet.
"""

import math
from typing import NamedTuple

import numpy as np

from ._cephes import normal_cdf

# ---------------------------------------------------------------------------
# Tempered-stable measures
# ---------------------------------------------------------------------------

# Relative size of the last term kept by the series below, whose terms are
# all positive.
_SERIES_EPS = 2.0**-54
# Iteration cap of the incomplete gamma function's series and continued
# fraction; both meet _SERIES_EPS within about a hundred steps on finite input.
_MAX_TERMS = 10_000
# The first-moment gap of one side is summed over pieces of the lambda
# interval: each a series in its gap d, with d / hi at most this, or with
# hi <= 1 and _SMALL_LAMBDA_TERMS terms, each at most 1 / k! times the
# first; above _POWER_LAW_LAMBDA max(1, 1 - alpha) the power-law closed
# form, whose correction there, the share of Gamma(2 - alpha) beyond y = 1,
# is below 1e-20.
_ETA_SERIES_GAP = 0.5
_SMALL_LAMBDA_TERMS = 20
_POWER_LAW_LAMBDA = 50.0
_TINY = 2.0**-1022  # the smallest normal double


def _ts_sides(nu1, nu2) -> tuple:
    """(sign, C, lambda of nu1, lambda of nu2) of each side, negative first."""
    return (
        (-1.0, nu1.c_minus, nu1.lam_minus, nu2.lam_minus),
        (1.0, nu1.c_plus, nu1.lam_plus, nu2.lam_plus),
    )


def _lower_gamma(s: float, x: float) -> float:
    """x^-s gamma(s, x) = int_0^1 y^(s - 1) e^(-x y) dy for s > 0 and x > 0,
    the lower incomplete gamma function scaled by x^-s: its series e^-x
    sum_n x^n / (s (s + 1) ... (s + n)), of positive terms, for x < s + 1,
    else Gamma(s) x^-s less the upper function (``_upper_gamma_cf``)."""
    if x >= s + 1.0:
        # Gamma(s) x^-s as Gamma(s - n) x^(n - s) times the factors (s - i) /
        # x, i = 1 .. n, each below 1; n > 0 only where x^s would leave the
        # doubles, so that the product overflows nowhere and underflows only
        # where its value does (up to n = _MAX_TERMS; beyond, math.gamma
        # raises OverflowError).
        n = math.ceil(s - 600.0 / math.log(x))
        n = max(0, min(math.floor(s - 1.0), n, _MAX_TERMS))
        head = math.gamma(s - n) * x ** (n - s)
        for i in range(1, n + 1):
            head *= (s - i) / x
        return head - math.exp(-x) * _upper_gamma_cf(s, x)
    term = total = 1.0 / s
    for n in range(1, _MAX_TERMS):
        term *= x / (s + n)
        total += term
        if term <= _SERIES_EPS * total:
            break
    return total * math.exp(-x)


def _upper_gamma_cf(s: float, x: float) -> float:
    """e^x x^-s Gamma(s, x) for x > 0 and any s, the continued fraction of
    the upper incomplete gamma function (modified Lentz), which converges
    within about a hundred steps for x >= s + 1."""
    tiny = 1e-300
    b = x + 1.0 - s
    c, d = 1.0 / tiny, 1.0 / b
    cf = d
    # |v| > tiny written as two comparisons, each False at nan, so that a
    # nan, like a value within tiny of 0, is replaced by tiny.
    for n in range(1, _MAX_TERMS):
        a = -n * (n - s)
        b += 2.0
        d = a * d + b
        d = 1.0 / (d if d > tiny or d < -tiny else tiny)
        c = b + a / c
        if not (c > tiny or c < -tiny):
            c = tiny
        dc = d * c
        cf *= dc
        if -_SERIES_EPS <= dc - 1.0 <= _SERIES_EPS:
            break
    return cf


def _moment_gap_piece(alpha: float, lo: float, hi: float) -> float:
    """int_0^1 y^(-alpha) (e^(-lo y) - e^(-hi y)) dy for lo < hi, with d =
    hi - lo at most _ETA_SERIES_GAP hi or hi <= 1: sum_k d^k / k! J_k, J_k =
    int_0^1 y^(k - alpha) e^(-hi y) dy, whose terms are all positive.  J_K
    comes from ``_lower_gamma`` and J_(k-1) = (hi J_k + e^(-hi)) / (k -
    alpha), a recurrence of positive terms, gives the rest."""
    d = hi - lo
    if d <= _ETA_SERIES_GAP * hi:
        terms = max(1, math.ceil(math.log(0.5 * _SERIES_EPS) / math.log(d / hi)))
    else:
        terms = _SMALL_LAMBDA_TERMS
    if alpha < 0.0:
        # The count above holds the ratio of term k to term k - 1 to d / hi;
        # below alpha = 0 that ratio is only at most min(d, (d / hi) (k -
        # alpha)) / k (J_k <= J_(k-1) and hi J_k <= (k - alpha) J_(k-1)).
        bound, k = 1.0, 1
        while bound > 0.5 * _SERIES_EPS and k < _MAX_TERMS:
            k += 1
            bound *= min(d, d / hi * (k - alpha)) / k
        terms = max(terms, k)
    j = _lower_gamma(terms + 1.0 - alpha, hi)
    e = math.exp(-hi)
    acc = j
    for k in range(terms, 1, -1):
        j = (hi * j + e) / (k - alpha)
        acc = j + d / k * acc
    return d * acc


def _ts_first_moment_gap(alpha: float, lam1: float, lam2: float) -> float:
    """int_0^1 y^(-alpha) (e^(-lambda1 y) - e^(-lambda2 y)) dy, alpha < 2.

    With lo, hi the smaller and larger lambda it is a sum of positive
    pieces, so it has no cancellation.  The part [a, hi] of [lo, hi] above
    a = max(lo, _POWER_LAW_LAMBDA max(1, 1 - alpha)) is Gamma(1 - alpha)
    (a^(alpha - 1) - hi^(alpha - 1)), written as Gamma(2 - alpha)
    a^(alpha - 1) times -expm1(s log(a / hi)) / s, s = 1 - alpha
    (``_expm1_ratio``), which keeps relative precision for every gap and as
    alpha -> 1.  Below, [lo, hi] is halved from the top down to 1, and each
    piece is ``_moment_gap_piece``: a single piece where d / hi <=
    _ETA_SERIES_GAP."""
    if lam1 == lam2:
        return 0.0
    lo, hi = sorted((lam1, lam2))
    size = 0.0
    power_law = _POWER_LAW_LAMBDA * max(1.0, 1.0 - alpha)
    if hi > power_law:
        a = max(lo, power_law)
        s = 1.0 - alpha
        if s < 170.0:  # beyond, the part is below Gamma(s) (50 s)^-s < (50 e)^-s: 0.0
            size = -math.gamma(1.0 + s) * a**-s * _expm1_ratio(s, _log_ratio(a, hi))
        hi = a
    while lo < hi:
        mid = lo if hi <= 1.0 or lo >= _ETA_SERIES_GAP * hi else _ETA_SERIES_GAP * hi
        size += _moment_gap_piece(alpha, mid, hi)
        hi = mid
    return size if lam1 < lam2 else -size


def _log_ratio(x: float, y: float) -> float:
    """log(x / y) for x, y > 0 to relative precision: log1p of the relative
    gap where x / y is within a factor 2 of 1, and log(x) - log(y) where
    x / y would leave the range of normal doubles."""
    q = x / y
    if 0.5 <= q <= 2.0:
        return math.log1p((x - y) / y)
    if 2.0**-1000 < q < 2.0**1000:
        return math.log(q)
    return math.log(x) - math.log(y)


def _expm1_ratio(a: float, x: float) -> float:
    """expm1(a x) / a, x at a = 0, to relative precision also where a x is
    tiny or subnormal: x times expm1(y) / y, y = a x, there."""
    y = a * x
    if abs(y) < 1e-5:
        return x * (1.0 + 0.5 * y * (1.0 + y / 3.0))
    return math.expm1(y) / a


def _same_shape(nu1, nu2) -> bool:
    return (nu1.alpha, nu1.c_plus, nu1.c_minus) == (nu2.alpha, nu2.c_plus, nu2.c_minus)


def _log_side(c: float, s: float, log_power: float) -> float:
    """c Gamma(s) e^log_power for c, s > 0, summed in logs so that no
    intermediate leaves the doubles, to a relative error of about 2^-53
    times the size of the exponent; math.inf where the value overflows."""
    try:
        return math.exp(math.log(c) + math.lgamma(s) + log_power)
    except OverflowError:
        return math.inf


def _normal(*values: float) -> bool:
    """Whether every value is a finite normal double: the factors and
    partial products of a side before C, which a form may multiply only
    where none left the doubles on the way."""
    return all(_TINY <= v < math.inf for v in values)


def _ts_l1_side(a: float, c: float, lo: float, hi: float) -> float:
    """C |Gamma(-alpha)| (lo^alpha - hi^alpha) of one side for alpha < 1
    (``ts_l1``)."""
    x = _log_ratio(lo, hi)
    try:
        if a >= _TINY:  # |Gamma(-alpha)| = Gamma(1 - alpha) / alpha
            return c * (math.gamma(1.0 - a) / a * -math.expm1(a * x)) * hi**a
        # From the right, so that no overflow meets an underflow.
        power = hi**a
        inner = -_expm1_ratio(a, x) * power
        scaled = math.gamma(1.0 - a) * inner
        if a >= 0.0 or _normal(power, inner, scaled):
            return c * scaled
    except OverflowError:
        if a >= 0.0:
            return math.inf
    # alpha < 0 where a factor leaves the doubles: C Gamma(-alpha) lo^alpha
    # (1 - (hi / lo)^alpha), whose bracket lies in (0, 1).
    return _log_side(c, -a, a * math.log(lo) + math.log(-math.expm1(-a * x)))


def ts_l1(nu1, nu2) -> float | None:
    """int |nu1 - nu2| of a same-shape pair: per side, where nu1 - nu2 keeps
    one sign, C |Gamma(-alpha)| |lambda1^alpha - lambda2^alpha| for alpha <
    1, written C Gamma(1 - alpha) (-expm1(alpha log(lo / hi)) / alpha)
    hi^alpha with lo, hi the smaller and larger lambda (``_log_ratio``), so
    that close lambdas, and far ones at a small alpha, keep relative
    precision; for alpha below the smallest normal double the bracket is a
    ``_expm1_ratio``, which is log(hi / lo) at alpha = 0 and does not
    divide by a subnormal alpha.  For alpha < 0, where a power, Gamma(1 -
    alpha), the bracket or their product leaves the normal doubles, the
    side is C Gamma(-alpha) lo^alpha (1 - (hi / lo)^alpha) taken through
    logs (``_log_side``).  From alpha = 1 on, math.inf where a side
    differs; math.inf also where a side overflows."""
    if not _same_shape(nu1, nu2):
        return None
    a = nu1.alpha
    sides = [(c, min(l1, l2), max(l1, l2)) for _, c, l1, l2 in _ts_sides(nu1, nu2) if l1 != l2]
    if a >= 1.0:
        return math.inf if sides else 0.0
    total = 0.0
    for c, lo, hi in sides:
        total += _ts_l1_side(a, c, lo, hi)
    return total


def _power_gap(a: float, p: float, x: float) -> float:
    """p^alpha - p for p = e^x > 0, without cancellation: p expm1((alpha -
    1) x), or the plain difference where p^(alpha - 1) > e, which cancels
    by at most e / (e - 1) and cannot overflow in the expm1."""
    b = a - 1.0
    if b * x > 1.0:
        return math.exp(a * x) - p
    return p * math.expm1(b * x)


def _hellinger_bracket(a: float, l1: float, l2: float, m: float) -> float:
    """(p^alpha + q^alpha - 2) / (alpha (alpha - 1)), p = 1 + t = l1 / m and
    q = 1 - t = l2 / m, m = (l1 + l2) / 2.

    For |t| < 1/2 it is the series sum_k c_k t^(2k), c_1 = 1, c_(k+1) = c_k
    (alpha - 2k)(alpha - 2k - 1) / ((2k + 1)(2k + 2)), whose terms are all
    positive for alpha < 2.  Beyond, the numerator is a sum of two terms of
    opposite signs, each within a factor of about 5 of the sum, from log p
    and log q (``_log_ratio``, exact also where q underflows): for alpha <
    1/2, (p^alpha - 1) + (q^alpha - 1), divided by alpha
    (``_expm1_ratio``) so that it stays exact as alpha -> 0, where it
    tends to alpha log(p q), and for alpha <= 0; from 1/2 on, (p^alpha -
    p) + (q^alpha - q) (``_power_gap``), which stays exact near alpha = 1,
    where it vanishes, and at alpha = 1 the limit p log p + q log q."""
    t = 0.5 * (l1 - l2) / m
    t2 = t * t
    if t2 < 0.25:
        term = total = t2
        k = 1
        while term > _SERIES_EPS * total:
            term *= t2 * (a - 2 * k) * (a - 2 * k - 1) / ((2 * k + 1) * (2 * k + 2))
            total += term
            k += 1
        return total
    logs = (_log_ratio(l1, m), _log_ratio(l2, m))
    if a < 0.5:
        return (_expm1_ratio(a, logs[0]) + _expm1_ratio(a, logs[1])) / (a - 1.0)
    if a == 1.0:
        return l1 / m * logs[0] + l2 / m * logs[1]
    return (_power_gap(a, l1 / m, logs[0]) + _power_gap(a, l2 / m, logs[1])) / (a * (a - 1.0))


def _ts_hellinger_side(a: float, c: float, l1: float, l2: float) -> float:
    """C Gamma(2 - alpha) m^alpha times ``_hellinger_bracket`` of one side
    (``ts_hellinger``)."""
    m = 0.5 * l1 + 0.5 * l2
    try:
        bracket = _hellinger_bracket(a, l1, l2, m)
    except OverflowError:  # only for alpha < 0
        bracket = math.inf
    try:
        g = math.gamma(2.0 - a)
        if a > 0.0:
            return c * g * bracket * m**a
        # From the right, so that no overflow meets an underflow.
        power = m**a
        inner = bracket * power
        scaled = g * inner
        if a == 0.0 or _normal(power, inner, scaled):
            return c * scaled
    except OverflowError:
        if a >= 0.0:
            return math.inf
    # alpha < 0 where a factor leaves the doubles.  Where the bracket
    # overflows, (lo / m)^alpha > e^709, so lo^alpha outweighs m^alpha and
    # hi^alpha by more than that and the side is C Gamma(-alpha) lo^alpha.
    if bracket < math.inf:
        return _log_side(c, 2.0 - a, a * math.log(m) + math.log(bracket))
    return _log_side(c, -a, a * math.log(min(l1, l2)))


def ts_hellinger(nu1, nu2) -> float | None:
    """int (sqrt(nu1) - sqrt(nu2))^2 of a same-shape pair: per side
    C Gamma(-alpha) m^alpha ((1 + t)^alpha + (1 - t)^alpha - 2), m =
    (lambda1 + lambda2) / 2 and t = (lambda1 - lambda2) / (2 m), written
    as C Gamma(2 - alpha) m^alpha times ``_hellinger_bracket``, since
    Gamma(-alpha) alpha (alpha - 1) = Gamma(2 - alpha), and at alpha = 1 its
    limit.  For alpha < 0, where a factor or their product leaves the
    normal doubles, the side is taken through logs (``_log_side``);
    math.inf where a side overflows."""
    if not _same_shape(nu1, nu2):
        return None
    a = nu1.alpha
    total = 0.0
    for _, c, l1, l2 in _ts_sides(nu1, nu2):
        if l1 != l2:
            total += _ts_hellinger_side(a, c, l1, l2)
    return total


def ts_total_mass(nu) -> float:
    """Gamma(-alpha) (C+ lambda+^alpha + C- lambda-^alpha) for alpha < 0,
    math.inf where that overflows and for alpha >= 0.  Where a power, the
    sum or the product leaves the normal doubles, the sum of the sides C
    Gamma(-alpha) lambda^alpha, a side taken through logs (``_log_side``)
    where its power, C lambda^alpha or its value leaves them, and both
    sides where Gamma(-alpha) or a power overflows."""
    a = nu.alpha
    if a >= 0:
        return math.inf
    sides = ((nu.c_plus, nu.lam_plus), (nu.c_minus, nu.lam_minus))
    try:
        g = math.gamma(-a)
        powers = [lam**a for _, lam in sides]
    except OverflowError:
        return sum(_log_side(c, -a, a * math.log(lam)) for c, lam in sides)
    scaled = [c * p for (c, _), p in zip(sides, powers)]
    total = g * (scaled[0] + scaled[1])
    if _normal(*powers, scaled[0] + scaled[1], total):
        return total
    return sum(
        g * cp if _normal(p, cp, g * cp) else _log_side(c, -a, a * math.log(lam))
        for (c, lam), p, cp in zip(sides, powers, scaled)
    )


def ts_gamma(nu) -> float | None:
    """gamma for 0 < alpha < 1: per side sign C int_0^1 y^(-alpha) e^(-lambda
    y) dy = sign C lambda^(alpha - 1) gamma(1 - alpha, lambda)."""
    a = nu.alpha
    if not 0.0 < a < 1.0:
        return None
    return sum(sign * c * _lower_gamma(1.0 - a, lam) for sign, c, lam, _ in _ts_sides(nu, nu))


def ts_eta(nu1, nu2) -> float | None:
    """eta of a same-shape pair: per side sign C int_0^1 y^(-alpha)
    (e^(-lambda1 y) - e^(-lambda2 y)) dy (``_ts_first_moment_gap``);
    math.inf where a Gamma function overflows."""
    if not _same_shape(nu1, nu2):
        return None
    try:
        return sum(
            sign * c * _ts_first_moment_gap(nu1.alpha, l1, l2)
            for sign, c, l1, l2 in _ts_sides(nu1, nu2)
        )
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Jump densities of compound Poisson measures: (E[min(Y^2, 1)], E[Y; |Y| <= 1])
# ---------------------------------------------------------------------------

# The normal has a form only where the terms of each of its parts cancel by
# at most this factor: then it keeps about the precision of its terms.
_NORMAL_CANCEL = 2.0
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_NORMAL_FAR = 40.0


def _ends_by_sign(lo: float, hi: float) -> list[tuple[float, float]]:
    """[lo, hi] cut at 0: the nonempty parts, each on one side of 0."""
    parts = [(lo, min(hi, 0.0)), (max(lo, 0.0), hi)]
    return [(c, d) for c, d in parts if c < d]


def uniform_moments(a: float, b: float) -> tuple[float, float]:
    """The density 1 / (b - a) on [a, b]: over each part of [a, b] ∩ [-1, 1]
    on one side of 0, int y^2 = (d - c)(c^2 + c d + d^2) / 3 and int y = (d
    - c)(c + d) / 2, whose terms share a sign; beyond, the length."""
    p = 1.0 / (b - a)
    inner = _ends_by_sign(max(a, -1.0), min(b, 1.0))
    outer = max(0.0, b - max(a, 1.0)) + max(0.0, min(b, -1.0) - a)
    square = math.fsum((d - c) * (c * c + c * d + d * d) / 3.0 for c, d in inner)
    first = math.fsum((d - c) * (c + d) / 2.0 for c, d in inner)
    return p * (square + outer), p * first


def exponential_moments(rate: float) -> tuple[float, float]:
    """rate e^(-rate y) on y > 0: int_0^1 y^k rate e^(-rate y) dy = rate
    x^-s gamma(s, x) at s = k + 1, x = rate (``_lower_gamma``), and the
    mass e^-rate above 1."""
    return rate * _lower_gamma(3.0, rate) + math.exp(-rate), rate * _lower_gamma(2.0, rate)


def _upper_tail(j: int, z: float) -> float:
    """int_z^inf t^j phi(t) dt, j = 0, 1, 2: Q, phi, Q + z phi."""
    phi = _INV_SQRT_2PI * math.exp(-0.5 * z * z)
    q = normal_cdf(-z)
    return (q, phi, q + z * phi)[j]


def _lower_part(j: int, z: float) -> float:
    """int_0^z t^j phi(t) dt for z >= 0: z^(j + 1) x^-s gamma(s, x) / (2
    sqrt(2 pi)), s = (j + 1) / 2, x = z^2 / 2 (``_lower_gamma``); beyond
    _NORMAL_FAR, where the upper tail is below 1e-300, its limit."""
    if z == 0.0:
        return 0.0
    if z > _NORMAL_FAR:
        return (0.5, _INV_SQRT_2PI, 0.5)[j]
    return z ** (j + 1) * _lower_gamma(0.5 * (j + 1), 0.5 * z * z) * (0.5 * _INV_SQRT_2PI)


def _cancelled(terms) -> float | None:
    """The sum of terms, or None where it cancels by more than
    _NORMAL_CANCEL; terms below the smallest normal double are summed as
    they are (their error is below it)."""
    total = math.fsum(terms)
    size = math.fsum(map(abs, terms))
    return total if size <= _NORMAL_CANCEL * abs(total) or size < _TINY else None


def _standard_moment(j: int, z0: float, z1: float) -> float | None:
    """int_z0^z1 t^j phi(t) dt for 0 <= z0 < z1: from 0, or as the
    difference of two upper tails (from z0 >= 1) or two lower parts."""
    if z0 == 0.0:
        return _lower_part(j, z1)
    if z0 >= 1.0:
        return _cancelled((_upper_tail(j, z0), -_upper_tail(j, z1)))
    return _cancelled((_lower_part(j, z1), -_lower_part(j, z0)))


def _normal_piece(k: int, m: float, sigma: float, c: float, d: float) -> float | None:
    """int_c^d y^k p(y) dy for p the N(m, sigma^2) density and [c, d] on one
    side of m: y = m + s sigma t with t in [t0, t1], t0 >= 0, expanded in
    the moments of phi (``_standard_moment``)."""
    t0, t1 = (c - m) / sigma, (d - m) / sigma
    s = 1.0
    if t1 <= 0.0:
        s, t0, t1 = -1.0, -t1, -t0
    if not t0 < t1:
        return 0.0
    moments = [_standard_moment(j, t0, t1) for j in range(k + 1)]
    if None in moments:
        return None
    if k == 1:
        return _cancelled((m * moments[0], s * sigma * moments[1]))
    return _cancelled(
        (m * m * moments[0], 2.0 * m * s * sigma * moments[1], sigma * sigma * moments[2])
    )


def normal_moments(mean: float, variance: float) -> tuple[float, float] | None:
    """N(mean, variance): each side of [-1, 1], cut at the mean, by
    ``_normal_piece``, and the tails Phi((-1 - mean) / sigma) + Phi((mean
    - 1) / sigma); None where a part cancels by more than _NORMAL_CANCEL."""
    sigma = math.sqrt(variance)
    square, first = [], []
    for lo, hi in ((-1.0, 0.0), (0.0, 1.0)):
        cuts = [lo, *([mean] if lo < mean < hi else []), hi]
        for c, d in zip(cuts, cuts[1:]):
            parts = (_normal_piece(2, mean, sigma, c, d), _normal_piece(1, mean, sigma, c, d))
            if None in parts:
                return None
            square.append(parts[0])
            first.append(parts[1])
    tails = normal_cdf((-1.0 - mean) / sigma) + normal_cdf((mean - 1.0) / sigma)
    return math.fsum(square) + tails, math.fsum(first)


def tabulated_density_moments(grid: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """A piecewise-linear density (``values`` normalized) on ``grid``: on each
    cell, cut at -1, 0 and 1, with ends c < d and density values pc, pd,
    int y = (d - c)(pc (2c + d) + pd (c + 2d)) / 6 and int y^2 = (d - c)(pc
    (3c^2 + 2cd + d^2) + pd (c^2 + 2cd + 3d^2)) / 12 inside [-1, 1], whose
    terms share a sign, and the trapezoid (d - c)(pc + pd) / 2 beyond."""
    cuts = [t for t in (-1.0, 0.0, 1.0) if grid[0] < t < grid[-1]]
    x = np.union1d(grid, cuts)
    p = np.interp(x, grid, values)
    c, d, pc, pd = x[:-1], x[1:], p[:-1], p[1:]
    w = d - c
    inside = (c >= -1.0) & (d <= 1.0)
    square = w * (pc * (3 * c * c + 2 * c * d + d * d) + pd * (c * c + 2 * c * d + 3 * d * d)) / 12
    first = w * (pc * (2 * c + d) + pd * (c + 2 * d)) / 6
    mass = w * (pc + pd) / 2
    return (
        math.fsum(np.where(inside, square, mass).tolist()),
        math.fsum(first[inside].tolist()),
    )


# ---------------------------------------------------------------------------
# Log-linear tables
# ---------------------------------------------------------------------------

# Spread up to which a divided difference of exp is summed as its Taylor
# series, and the most terms that series takes.  Above, the recursion
# cancels by at most about a factor 2.
_DD_TAYLOR = 2.0
_DD_TERMS = 60


class Table(NamedTuple):
    """A log-linear table: its signed knots, values and per-cell power
    p = log(v_(i+1) / v_i) / log(y_(i+1) / y_i) (nan on the cell across 0),
    and the knot range of each side, (nan, nan) for a side without knots."""

    grid: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    negative: tuple[float, float]
    positive: tuple[float, float]


def table(grid, values) -> Table:
    g, v = np.asarray(grid, dtype=float), np.asarray(values, dtype=float)
    with np.errstate(all="ignore"):
        slopes = _log_ratio_v(v[1:], v[:-1]) / _log_ratio_v(np.abs(g[1:]), np.abs(g[:-1]))
    neg, pos = g[g < 0.0], g[g > 0.0]
    nan = (math.nan, math.nan)
    return Table(
        g, v, slopes,
        (neg[0], neg[-1]) if neg.size else nan,
        (pos[0], pos[-1]) if pos.size else nan,
    )


def _log_ratio_v(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """log(x / y) elementwise for x, y > 0, to relative precision where x /
    y is within a factor 2 of 1 (``_log_ratio``)."""
    q = x / y
    near = (0.5 <= q) & (q <= 2.0)
    return np.where(near, np.log1p((x - y) / y), np.log(x) - np.log(y))


def _phi1(z: np.ndarray) -> np.ndarray:
    """expm1(z) / z elementwise, 1 at z = 0: exp[0, z]."""
    zero = z == 0.0
    return np.where(zero, 1.0, np.expm1(z) / np.where(zero, 1.0, z))


def _dd_taylor(y: np.ndarray) -> np.ndarray:
    """exp[0, y_1, ..., y_n] for 0 <= y_i <= _DD_TAYLOR (rows of y): the
    series sum_k h_k(y) / (k + n)!, h_k the complete homogeneous symmetric
    polynomial of degree k, whose terms are all positive.  It stops where
    the term bound binom(k + n - 1, n - 1) s^k / (k + n)!, s the largest
    spread, falls below _SERIES_EPS / n!."""
    n = len(y)
    spread = float(y[-1].max())
    h = [np.ones_like(y[0]) for _ in range(n)]
    fact = math.factorial(n)
    total = np.full_like(y[0], 1.0 / fact)
    bound = 1.0
    for k in range(1, _DD_TERMS):
        h[0] = h[0] * y[0]
        for j in range(1, n):
            h[j] = h[j - 1] + y[j] * h[j]
        fact *= k + n
        total += h[-1] / fact
        bound *= spread * (k + n - 1) / (k * (k + n))
        if bound <= _SERIES_EPS:
            break
    return total


def exp_dd(*xs: np.ndarray) -> np.ndarray:
    """exp[x_0, ..., x_n] elementwise, the divided difference of exp at n +
    1 points (McCurdy, Ng and Parlett 1984): e^min times that of the points
    less their min, which is the Taylor series where they spread at most
    _DD_TAYLOR (``_dd_taylor``), else (exp[x_1..x_n] - exp[x_0..x_(n-1)]) /
    (x_n - x_0) with the points sorted."""
    x = np.sort(np.array(xs, dtype=float), axis=0)
    lo = x[0]
    y = x - lo
    if len(x) == 2:
        return _phi1(y[1]) * np.exp(lo)
    spread = y[-1]
    near = spread <= _DD_TAYLOR
    if near.all():
        return _dd_taylor(y[1:]) * np.exp(lo)
    out = np.empty_like(lo)
    if near.any():
        out[near] = _dd_taylor(y[1:, near])
    far = ~near
    yf = y[:, far]
    out[far] = (exp_dd(*yf[1:]) - exp_dd(*yf[:-1])) / spread[far]
    return out * np.exp(lo)


def _table_value(t: Table, x: np.ndarray) -> np.ndarray:
    """The table's interpolant at the signed points x inside a cell of its
    side: v_i (x / y_i)^p_i on the cell of x, exactly v_i at every knot."""
    g, v = t.grid, t.values
    if x.size == g.size and np.array_equal(x, g):
        return v
    i = np.clip(np.searchsorted(g, x, side="right") - 1, 0, g.size - 2)
    out = np.where(x == g[i], v[i], v[i] * np.exp(t.slopes[i] * np.log(x / g[i])))
    return np.where(x == g[i + 1], v[i + 1], out)


def _inside(t: Table, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Whether each cell [lo, hi], on one side of 0, lies in the table's
    knot range of that side."""
    (a, b), (c, d) = t.negative, t.positive
    return np.where(hi <= 0.0, (lo >= a) & (hi <= b), (lo >= c) & (hi <= d))


class Pieces(NamedTuple):
    """The pieces of one or two tables, in increasing y: each cell between
    neighbours of their knots, on one side of 0, cut at |y| = each of the
    cuts and, for two tables, where their densities cross.  Per piece: its
    side's sign, the magnitudes m0 and m1 of its start and end, dlog =
    log(m1 / m0) and L = |dlog|; per table (rows), whether it has density
    there, its values v0, v1 at both ends and slope = log(v1 / v0); for two,
    g = log(nu1 / nu2) at both ends, which is linear in log |y| on the
    piece.  ``crossings`` holds the signed crossing points."""

    sign: np.ndarray
    m0: np.ndarray
    m1: np.ndarray
    dlog: np.ndarray
    L: np.ndarray
    present: np.ndarray
    v0: np.ndarray
    v1: np.ndarray
    slope: np.ndarray
    g0: np.ndarray
    g1: np.ndarray
    crossings: np.ndarray


def pieces(tables: list, cuts: tuple = ()) -> Pieces:
    """The ``Pieces`` of one or two tables (``table``)."""
    with np.errstate(all="ignore"):
        x = tables[0].grid
        for t in tables[1:]:
            if not np.array_equal(x, t.grid):
                x = np.union1d(x, t.grid)
        lo, hi = x[:-1], x[1:]
        keep = (hi <= 0.0) | (lo >= 0.0)  # not the cell across 0
        values = np.array([_table_value(t, x) for t in tables])
        inside = np.array([keep if t.grid is x else _inside(t, lo, hi) & keep for t in tables])
        pair = len(tables) == 2
        g = _log_ratio_v(values[0], values[1]) if pair else np.zeros(x.size)
        # Points inside cells: the cell k of each, its fraction theta of the
        # cell's log-length, the point and g there.
        span = np.log(hi / lo)
        ks, thetas, at, gs = [], [], [], []
        if pair:
            k = np.flatnonzero(inside[0] & inside[1] & (g[:-1] * g[1:] < 0.0))
            th = g[k] / (g[k] - g[k + 1])
            ks.append(k), thetas.append(th), gs.append(np.zeros(k.size))
            at.append(lo[k] * np.exp(th * span[k]))
        crossings = at[0] if pair else np.zeros(0)
        for c in cuts:
            for point in (-c, c):
                k = np.flatnonzero(keep & (lo < point) & (point < hi))
                th = np.log(point / lo[k]) / span[k]
                ks.append(k), thetas.append(th), at.append(np.full(k.size, point))
                gs.append(g[k] + th * (g[k + 1] - g[k]))
        cell = np.arange(x.size)
        if ks:
            k, th = np.concatenate(ks), np.concatenate(thetas)
            ratio = np.log(values[:, k + 1] / values[:, k])
            points = np.concatenate([x, *at])
            order = np.argsort(points, kind="stable")
            x = points[order]
            values = np.concatenate([values, values[:, k] * np.exp(th * ratio)], axis=1)[:, order]
            g = np.concatenate([g, *gs])[order]
            cell = np.concatenate([cell, k])[order]
        # Each point but the last starts a piece, of the cell it lies in.
        cell = cell[:-1]
        ok = keep[np.minimum(cell, keep.size - 1)] & (cell < keep.size)
        m = np.abs(x)
        m0, m1 = m[:-1][ok], m[1:][ok]
        small, large = np.minimum(m0, m1), np.maximum(m0, m1)
        span = np.log1p((large - small) / small)
        v0, v1 = values[:, :-1][:, ok], values[:, 1:][:, ok]
        return Pieces(
            np.sign(x[1:][ok]), m0, m1, np.where(m1 >= m0, span, -span), span,
            inside[:, cell[ok]], v0, v1, np.log(v1 / v0), g[:-1][ok], g[1:][ok], crossings,
        )


def _single(pc: Pieces, j: int, k: int) -> np.ndarray:
    """int nu_j t^k dt over each piece, 0 where table j has no density:
    with the weight w = nu_j t^(k + 1) at both ends and its log slope mu =
    slope + (k + 1) dlog, L w phi1(-|mu|) from the end of the larger
    weight."""
    mu = pc.slope[j] + (k + 1) * pc.dlog
    w = np.where(mu > 0.0, pc.v1[j] * pc.m1 ** (k + 1), pc.v0[j] * pc.m0 ** (k + 1))
    return np.where(pc.present[j], pc.L * w * _phi1(-np.abs(mu)), 0.0)


def single_forms(pc: Pieces) -> dict:
    """Of one table with pieces cut at |y| = 1: ``levy`` int min(t^2, 1)
    nu, ``gamma`` the signed int_(|y| <= 1) y nu and ``total_mass``."""
    with np.errstate(all="ignore"):
        inner = np.maximum(pc.m0, pc.m1) <= 1.0
        mass = _single(pc, 0, 0)
        return {
            "levy": total(np.where(inner, _single(pc, 0, 2), mass)),
            "gamma": total(np.where(inner, pc.sign * _single(pc, 0, 1), 0.0)),
            "total_mass": total(mass),
        }


def mass_above(pc: Pieces, epsilon: float) -> float | None:
    """int_(|y| > epsilon) nu of one table with pieces cut at epsilon."""
    with np.errstate(all="ignore"):
        return total(np.where(np.minimum(pc.m0, pc.m1) >= epsilon, _single(pc, 0, 0), 0.0))


def pair_forms(pc: Pieces) -> dict:
    """``l1``, ``hellinger`` and ``eta`` of two tables, pieces cut at |y| =
    1.  Where only one table has density a piece is its integral.  Where
    both have, nu1 - nu2 = nu2 expm1(g) and (sqrt nu1 - sqrt nu2)^2 = nu2
    expm1(g / 2)^2, with g = e + delta u and nu2 t^(k + 1) = w e^(mu u)
    for u in [0, 1] from the end E of the piece with the smaller |g|, e =
    g(E); a piece holds no crossing, so e and delta share a sign and so do
    the terms of

        int (nu1 - nu2) t^k = L w [expm1(e) phi1(mu) + e^e delta
            exp[0, mu, mu + delta]],
        H^2 = L w [expm1(e/2)^2 phi1(mu) + 2 expm1(e/2) e^(e/2) h
            exp[0, mu, mu + h] + e^e 2 h^2 exp[0, mu, mu + h, mu + 2h]],

    h = delta / 2 (``exp_dd``): no cancellation as g -> 0."""
    with np.errstate(all="ignore"):
        inner = np.maximum(pc.m0, pc.m1) <= 1.0
        both = pc.present.all(axis=0)
        gap0, gap1, hell = np.zeros((3, both.size))
        if not both.all():
            mass = [_single(pc, j, 0) for j in (0, 1)]
            first = [_single(pc, j, 1) for j in (0, 1)]
            gap0, gap1, hell = mass[0] - mass[1], first[0] - first[1], mass[0] + mass[1]
        if both.any():
            low = np.abs(pc.g0[both]) <= np.abs(pc.g1[both])
            e = np.where(low, pc.g0[both], pc.g1[both])
            delta = np.where(low, pc.g1[both] - pc.g0[both], pc.g0[both] - pc.g1[both])
            m_e = np.where(low, pc.m0[both], pc.m1[both])
            v_e = np.where(low, pc.v0[1, both], pc.v1[1, both])
            dlog = np.where(low, pc.dlog[both], -pc.dlog[both])
            slope = np.where(low, pc.slope[1, both], -pc.slope[1, both])
            mu0, mu1 = slope + dlog, slope + 2.0 * dlog
            h = 0.5 * delta
            dd = exp_dd(0.0 * np.tile(mu0, 3), np.concatenate([mu0, mu1, mu0]),
                        np.concatenate([mu0 + delta, mu1 + delta, mu0 + h]))
            dd0, dd1, ddh = np.split(dd, 3)
            dd4 = exp_dd(0.0 * mu0, mu0, mu0 + h, mu0 + delta)
            lw = pc.L[both] * v_e * m_e
            grow, root, half = np.expm1(e), np.exp(e), np.expm1(0.5 * e)
            gap0[both] = lw * (grow * _phi1(mu0) + root * delta * dd0)
            gap1[both] = lw * m_e * (grow * _phi1(mu1) + root * delta * dd1)
            hell[both] = lw * (
                half * half * _phi1(mu0)
                + 2.0 * half * np.exp(0.5 * e) * h * ddh
                + root * (2.0 * h * h) * dd4
            )
        return {
            "l1": total(np.abs(gap0)),
            "hellinger": total(hell),
            "eta": total(np.where(inner, pc.sign * gap1, 0.0)),
        }


def total(values: np.ndarray) -> float | None:
    """The exactly rounded sum of the piece values, or None where one is
    not finite (a table whose integrals overflow has no form)."""
    if not np.all(np.isfinite(values)):
        return None
    value = math.fsum(values.tolist())
    return value if math.isfinite(value) else None
