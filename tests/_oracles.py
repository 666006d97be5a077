"""Shared brute-force oracles and frozen expected values for the test suite.

Frozen constants were computed with mpmath at 40 digits and cross-checked
against the Riemann oracle below; the self-check test in test_quadrature
re-derives them at import-accuracy so a corrupted constant cannot go unseen.
"""

import numpy as np

from addgap.montecarlo import _estimate_ct_dt


def path_sums(batch, values=None):
    """Per-path sums of ``values`` (default: the sizes) of a jump batch, by
    one ``np.bincount`` keyed by the path of each jump."""
    ids = np.repeat(np.arange(batch.n_paths), batch.counts)
    weights = batch.sizes if values is None else values
    sums = np.bincount(ids, weights=weights, minlength=batch.n_paths)
    return sums.astype(float, copy=False)  # an empty bincount is integer


def estimator_inputs(monkeypatch, spec, n_paths, epsilon, seed):
    """C_T + D_T of each path, in path order, as the value_fn of the Monte
    Carlo estimators receives it when one worker thread runs the chunks."""
    monkeypatch.setenv("ADDGAP_THREADS", "1")
    seen = []

    def record(x):
        seen.append(np.array(x, copy=True))
        return x

    _estimate_ct_dt(spec, n_paths, epsilon, seed, record)
    return np.concatenate(seen)


def riemann_log(f, lo, hi, n=10_000_000):
    """Composite midpoint rule on a log-spaced grid with n panels.

    The acceptance-grade brute-force oracle: no adaptivity, no reuse of the
    library integrator. Accuracy on y^{-0.5}-type singular integrands is
    limited by the lo cutoff (tail below lo is dropped), about 1.3e-8
    relative for lo = 1e-16.
    """
    edges = np.logspace(np.log10(lo), np.log10(hi), n + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return float(np.sum(f(mids) * np.diff(edges)))


# int_0^inf |e^{-2y} - e^{-y}| y^{-1.5} dy  = 2 sqrt(pi) (sqrt(2) - 1)
L1_EX3 = 1.4683488474509690
# int_0^inf (e^{-y/2} - 1)^2 e^{-y} y^{-1.5} dy = 2 sqrt(pi)(2 sqrt(1.5) - sqrt(2) - 1)
H2_EX3 = 0.12505080362617885
# same with y^{-2.5} (alpha = 1.5): Gamma(-3/2)(2^1.5 - 2*1.5^1.5 + 1)
H2_EX3_A15 = 0.36439881219081080
# int_0^1 y^{-0.5} e^{-y} dy = sqrt(pi) erf(1)
GAMMA_POS_LAM1 = 1.4936482656248541
# int_0^1 y^{-0.5} e^{-2y} dy = sqrt(pi/2) erf(sqrt(2))
GAMMA_POS_LAM2 = 1.1962880133226082
# eta of the heavy-tail example pair: GAMMA_POS_LAM2 - GAMMA_POS_LAM1
ETA_EX3 = -0.29736025230224585
# standard normal cdf at -1
PHI_M1 = 0.15865525393145705
# 2 (1 - 2 phi(-1)): exact Gaussian distance for drift gap 1, sigma^2 = 1, T = 4
GAUSS_T4 = 1.3653789842741718
# (sqrt(1.2) - 1)^2: Hellinger between compound Poisson intensities 1.2 / 1.0
H2_CP12 = 0.009109769979335546
# sqrt(8 (1 - exp(-H2_CP12 / 2))): sigma = 0 Hellinger-rate bound at T = 1
THM1_CP12_T1 = 0.19067306538954182
TWO_SINH_02 = 0.40267200508218798
TWO_SINH_04 = 0.82150465160563102
TWO_SINH_1 = 2.3504023872876029
# E|1 - e^X| for X ~ N(1, 4), by 40-digit quadrature of |1 - e^x| against
# the normal density (mpmath.quad over (-inf, 0, inf)).  The two-phi short
# form 2(phi(-1/2) - phi(-5/2)) is NOT this value: that identity needs the
# unit-mean normalization m = -s^2/2, and at (m, s) = (1, 2) a direct Monte
# Carlo sits at ~19.45, not 0.60.
EABS_1_2 = 19.453163076276613
