"""lpconc's own special functions against scipy.special and mpmath.

lpconc imports no scipy; these are the oracles for the numpy and math
stand-ins in lpconc._special.  gammaln and logsumexp must give scipy's
bits (the normal law's moments and the empirical-mu pooling feed pinned
artifacts); digamma, trigamma and ndtr must agree to a stated relative
error; the binomial log-pmf is held to mpmath at 50 digits.
"""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sc

from lpconc import _special


def _gammaln_points():
    rng = np.random.default_rng(20)
    return np.concatenate(
        [
            10.0 ** rng.uniform(-9.0, 9.0, 100_000),
            rng.uniform(0.0, 20.0, 40_000),
            np.arange(1.0, 25_001.0),  # integers
            np.arange(1.0, 25_001.0) + 0.5,  # half-integers
            rng.uniform(12.9, 13.1, 10_000),  # the switch to the Stirling series
            rng.uniform(999.0, 1001.0, 10_000),  # its short form from 1000 on
            rng.uniform(1e8 - 100.0, 1e8 + 100.0, 1_000),
            [2.0, 3.0, 13.0, 1000.0, 1e8, 1e300, 5e-324],
        ]
    )


def test_gammaln_equals_scipy_bit_for_bit():
    x = _gammaln_points()
    assert x.size >= 200_000
    ours = np.array([_special.gammaln(float(v)) for v in x])
    differ = np.flatnonzero(ours != sc.gammaln(x))
    assert differ.size == 0, x[differ[:5]]


def _h_points():
    rng = np.random.default_rng(21)
    return np.concatenate(
        [
            10.0 ** rng.uniform(-6.0, math.log10(200.0), 50_000),
            rng.uniform(1.3, 1.6, 10_000),  # around psi's zero at 1.4616
            [1e-6, 1.0, 1.4616321449683622, 9.999999, 10.0, 200.0],
        ]
    )


def test_digamma_and_trigamma_match_scipy():
    h = _h_points()
    psi, tri = np.array([_special.digamma_trigamma(float(v)) for v in h]).T
    ref = sc.digamma(h)
    big = np.abs(ref) > 1e-3
    assert np.max(np.abs(psi - ref)[big] / np.abs(ref[big])) <= 1e-12
    assert np.max(np.abs(psi - ref)[~big]) <= 1e-12
    assert np.max(np.abs(tri / sc.polygamma(1, h) - 1.0)) <= 1e-14


def test_ndtr_matches_scipy():
    x = np.linspace(-37.0, 8.0, 90_001)
    ours = np.array([_special.ndtr(float(v)) for v in x])
    ref = sc.ndtr(x)
    assert np.max(np.abs(ours - ref) / ref) <= 1e-12


def _logsumexp_cases():
    rng = np.random.default_rng(22)
    cases = [np.array([v]) for v in (0.0, -3.5, 710.0, -np.inf, np.inf)]
    cases += [np.full(7, -np.inf), np.array([np.inf, 1.0, -np.inf]), np.array([2.0, 2.0])]
    for trial in range(2_000):
        size = int(rng.integers(1, 60))
        a = rng.normal(0.0, 10.0 ** rng.uniform(-2, 3), size)
        a[rng.random(size) < 0.3] = a[0]  # ties with a chosen entry, maybe the max
        if trial % 3 == 0:
            a[rng.random(size) < 0.3] = -np.inf
        if trial % 17 == 0:
            a[int(rng.integers(size))] = np.inf
        cases.append(a)
    cases.append(rng.normal(0.0, 30.0, (5_000, 2)))  # contrast pools an (M, 2) array
    return cases


def test_logsumexp_equals_scipy_bit_for_bit():
    for a in _logsumexp_cases():
        ours, ref = _special.logsumexp(a), sc.logsumexp(a)
        assert type(ours) is type(ref)
        assert np.array_equal(ours, ref, equal_nan=True), a


@pytest.mark.parametrize("n", [10, 1_000, 10**6])
@pytest.mark.parametrize("q", [0.5, 0.3, 0.97])
def test_binomial_logpmf_matches_mpmath(n, q):
    mode = math.floor((n + 1) * q)
    ks = {0, 1, 2, 3, mode - 2, mode - 1, mode, mode + 1, mode + 2, n - 3, n - 2, n - 1, n}
    ks = sorted(k for k in ks if 0 <= k <= n)
    ours = _special.binom_logpmf(np.array(ks, dtype=float), n, q)
    with mp.workdps(50):
        mq = mp.mpf(q)
        for k, value in zip(ks, ours):
            ref = mp.log(mp.binomial(n, k)) + k * mp.log(mq) + (n - k) * mp.log1p(-mq)
            assert abs(value - ref) <= 1e-13 * abs(ref), (k, value, ref)
