"""The few special functions lpconc needs, in numpy and the math module.

``gammaln`` ports cephes ``lgam`` for x > 0 step for step, and ``logsumexp``
follows the reference order of operations, so both give the bits of the
implementations tests/test_special.py compares them with.  ``binom_logpmf``
is Loader's (2000) saddle-point form of the binomial log-pmf, whose error
stays near eps where log-Gamma differences lose about eps * log(n!).
"""

from __future__ import annotations

import math

import numpy as np

# cephes lgam: a rational approximation on [2, 3], then Stirling's series
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))


def _polevl(x: float, coef: tuple) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def gammaln(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if not math.isfinite(x):
        return x
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
    if x > 2.556348e305:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _polevl(p, _LGAM_A) / x


# Bernoulli numbers B_2k, k = 1..7, of the asymptotic series of psi and psi'
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def digamma_trigamma(x: float) -> tuple[float, float]:
    """(psi(x), psi'(x)) for x > 0: the recurrences psi(x) = psi(x+1) - 1/x
    and psi'(x) = psi'(x+1) + 1/x^2 up to x >= 10, then the asymptotic
    series, each summed exactly by fsum."""
    passed = []
    while x < 10.0:
        passed.append(x)
        x += 1.0
    w = 1.0 / (x * x)
    psi = [math.log(x), -0.5 / x] + [-1.0 / v for v in passed]
    psi1 = [1.0 / x, 0.5 * w] + [1.0 / (v * v) for v in passed]
    power = 1.0
    for k, b in enumerate(_BERNOULLI, start=1):
        power *= w
        psi.append(-b / (2 * k) * power)
        psi1.append(b * power / x)
    return math.fsum(psi), math.fsum(psi1)


def ndtr(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def logsumexp(a) -> np.float64:
    """log(sum(exp(a))) over every entry: the maximum's ties count as m, the
    other terms are summed shifted by it, and log1p(s / m) + log(m) + max is
    the result; where that is not finite (all -inf, +inf or nan) the direct
    log(sum(exp(a))) is."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return np.float64(-np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = a.max(keepdims=True)
        tie = a == top
        m = np.sum(tie, dtype=float, keepdims=True)
        s = np.exp(np.where(tie, -np.inf, a) - top).sum(keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = (np.log1p(s) + np.log(m) + top).reshape(())
        if not np.isfinite(out):
            out = np.log(np.exp(a).sum())
    return out[()]


# stirlerr(k) = log k! - log(sqrt(2 pi k) (k/e)^k) for k = 0..15 (0 at k = 0)
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])


def _stirlerr(k: np.ndarray) -> np.ndarray:
    """stirlerr at integer k >= 0: the table to 15, Stirling's series past it."""
    big = np.maximum(k, 16.0)
    w = 1.0 / (big * big)
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - w / 1188) * w) * w) * w) / big
    return np.where(k <= 15, _STIRLERR[np.minimum(k, 15).astype(np.intp)], series)


def _bd0(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The deviance x log(x/m) + m - x for x > 0; where x is within 10% of m,
    by its series in v = (x - m)/(x + m), which cancels nothing."""
    x, m = np.broadcast_arrays(x, m)
    out = x * np.log(x / m) + m - x
    near = np.abs(x - m) < 0.1 * (x + m)
    if near.any():
        xn, mn = x[near], m[near]
        v = (xn - mn) / (xn + mn)
        s, term, v2, j = (xn - mn) * v, 2.0 * xn * v, v * v, 1
        while True:
            term *= v2
            step = s + term / (2 * j + 1)
            if np.array_equal(step, s):
                break
            s, j = step, j + 1
        out[near] = s
    return out


def binom_logpmf(k: np.ndarray, n, q: float) -> np.ndarray:
    """log P(K = k) for K ~ Binomial(n, q), 0 < q < 1, at integers k in [0, n];
    k and n broadcast."""
    k, n = np.asarray(k, dtype=float), np.asarray(n, dtype=float)
    inner = np.clip(k, 1.0, np.maximum(n - 1.0, 1.0))
    rest = n - inner
    with np.errstate(divide="ignore", invalid="ignore"):  # rest = 0 at n = 1
        lc = (_stirlerr(n) - _stirlerr(inner) - _stirlerr(rest)
              - _bd0(inner, n * q) - _bd0(rest, n * (1.0 - q)))
        lf = math.log(2.0 * math.pi) + np.log(inner) + np.log1p(-inner / n)
    out = lc - 0.5 * lf
    return np.where(k == 0, n * math.log1p(-q), np.where(k == n, n * math.log(q), out))
