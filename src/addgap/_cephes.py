"""Scalar ports of Cephes ``ndtr.c`` (S. L. Moshier, 1989), the code SciPy's
``special`` runs for erf, erfc and ndtr: every result equals SciPy's bit for
bit, so the library does not need SciPy.  The bounds read the normal CDF and
erf from here, and the measures the normal moments of a compound Poisson
jump density.
"""

import math

# Coefficients highest power first, evaluated in Cephes' Horner order.
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (  # leading 1 implied
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (  # leading 1 implied
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (  # leading 1 implied
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_SQRT1_2 = math.sqrt(0.5)


def _polevl(x, coef, ans=0.0):
    """Horner's rule; `ans` = 1 is Cephes p1evl, whose leading 1 is implied."""
    for c in coef:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    if x < 0.0:
        return -_erf(-x)
    if x > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U, 1.0)


def _erfc(a: float) -> float:
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:  # e^{-a^2} underflows
        return 2.0 if a < 0.0 else 0.0
    if x < 8.0:
        p, q = _polevl(x, _ERFC_P), _polevl(x, _ERFC_Q, 1.0)
    else:
        p, q = _polevl(x, _ERFC_R), _polevl(x, _ERFC_S, 1.0)
    y = math.exp(z) * p / q
    return 2.0 - y if a < 0.0 else y


def normal_cdf(x: float) -> float:
    """Standard normal CDF of a float: Cephes ndtr, accurate in both tails
    (erfc-based), equal to SciPy's `special.ndtr` bit for bit."""
    x = x * _SQRT1_2
    if abs(x) < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(abs(x))
    return 1.0 - y if x > 0.0 else y
