"""Rate engine against dense-grid maximization and frozen analytic values.

Independent routes anchor everything: (1) dense grids over the tilt
parameter bound the supremum from below without trusting the optimizer;
(2) closed-form family values derived by hand; (3) mpmath roots of the
first-order condition, with 1F1 and the incomplete gamma as the MGF.
Frozen constants come from those routes at high resolution.
"""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpconc import rate_engine
from lpconc.cli import run
from lpconc.closed_forms import diff_uniform_f, phi_closed, uniform_f
from lpconc.distributions import (
    DiffUniform,
    Empirical,
    StandardNormal,
    ThreePointSymmetric,
    TwoPoint,
    UniformSymmetric,
    UniformUnit,
    ZeroInflated,
)
from lpconc.rate_engine import (
    REGIME_DIVERGENT,
    REGIME_INTERIOR,
    REGIME_LARGE_P,
    REGIME_SMALL_P,
    c_star,
    chernoff_bounds,
    contrast_bounds,
    lambda_value,
    large_p_limits,
    phi,
    rate,
    small_p_rate,
    uniform_rate,
)
from lpconc.seeding import generator


def _dense_max(dist, p, delta, sign, t_hi, points=4000):
    grid = np.geomspace(1e-8, t_hi, points)
    best = 0.0
    for t in grid:
        v = lambda_value(dist, float(t), p, delta, sign)
        if v > best:
            best = v
    return best


def test_lambda_single_point_two_point_law():
    # 1 * 1.2 * 0.5 - log(0.5 + 0.5 e), evaluated directly
    expected = 0.6 - math.log(0.5 + 0.5 * math.e)
    got = lambda_value(TwoPoint(a=0.5, r=1.0), 1.0, 1.0, 0.2, +1)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(-0.0201145069582778, abs=1e-13)


def test_lambda_is_zero_at_origin_and_minus_inf_past_divergence():
    assert lambda_value(UniformUnit(), 0.0, 1.0, 0.1, +1) == 0.0
    assert lambda_value(StandardNormal(), 0.6, 2.0, 0.1, +1) == -math.inf


def test_lambda_validation():
    with pytest.raises(ValueError):
        lambda_value(UniformUnit(), -1.0, 1.0, 0.1, +1)
    with pytest.raises(ValueError):
        lambda_value(UniformUnit(), 1.0, 0.0, 0.1, +1)
    with pytest.raises(ValueError):
        lambda_value(UniformUnit(), 1.0, 1.0, 1.5, -1)


@pytest.mark.parametrize("p,delta,sign,t_hi", [
    (0.01, 0.2, +1, 4000.0),
    (0.1, 0.2, +1, 400.0),
    (1.0, 0.1, +1, 40.0),
    (1.0, 0.1, -1, 40.0),
    (2.0, 0.3, -1, 40.0),
])
def test_rate_beats_every_dense_grid_point(p, delta, sign, t_hi):
    dist = UniformUnit()
    result = rate(dist, p, delta, sign)
    dense = _dense_max(dist, p, delta, sign, t_hi)
    assert result.value >= dense - 1e-12
    assert result.value <= dense + 1e-5  # grid is fine enough to certify
    assert result.regime == REGIME_INTERIOR
    assert result.tolerance_met
    assert result.argmax_t is not None and result.argmax_t > 0


def test_two_point_rate_matches_dense_maximization():
    for a, r, p, delta, sign in [
        (0.5, 1.0, 1.0, 0.2, +1),
        (0.5, 1.0, 1.0, 0.2, -1),
        (0.3, 2.0, 0.5, 0.1, +1),
        (0.7, 1.0, 0.2, 0.3, -1),
    ]:
        dist = TwoPoint(a=a, r=r)
        result = rate(dist, p, delta, sign)
        dense = _dense_max(dist, p, delta, sign, t_hi=200.0 / r**p, points=6000)
        # the line search may top the finite grid by the grid's own resolution
        assert result.value >= dense - 1e-12
        assert result.value == pytest.approx(dense, rel=1e-4, abs=1e-7)


def test_two_point_symmetry_at_half():
    # a = 0.5 makes the two tails exactly symmetric at p = 1, r = 1
    plus = rate(TwoPoint(a=0.5, r=1.0), 1.0, 0.2, +1)
    minus = rate(TwoPoint(a=0.5, r=1.0), 1.0, 0.2, -1)
    assert plus.value == pytest.approx(minus.value, rel=1e-10)
    assert plus.value == pytest.approx(0.0201355135507, rel=1e-9)


def test_three_point_law_rates_match_two_point():
    two = rate(TwoPoint(a=0.4, r=1.5), 0.7, 0.2, +1)
    three = rate(ThreePointSymmetric(a=0.4, r=1.5), 0.7, 0.2, +1)
    assert three.value == pytest.approx(two.value, rel=1e-12)


def test_uniform_p1_reflection_symmetry():
    # U[0,1] maps to itself under x -> 1-x, so both tails match at p=1
    plus = rate(UniformUnit(), 1.0, 0.2, +1)
    minus = rate(UniformUnit(), 1.0, 0.2, -1)
    assert plus.value == pytest.approx(minus.value, rel=1e-9)


def test_divergent_regimes():
    # minus side with delta >= 1: the band covers everything below zero
    res = rate(UniformUnit(), 1.0, 1.0, -1)
    assert res.value == math.inf and res.regime == REGIME_DIVERGENT
    # bounded support, band target beyond ess sup
    res = rate(UniformUnit(), 19.0, 0.2, +1)
    assert res.value == math.inf and res.regime == REGIME_DIVERGENT
    res = rate(TwoPoint(a=0.5, r=1.0), 4.0, 0.2, +1)
    assert res.value == math.inf and res.regime == REGIME_DIVERGENT
    # but finite just below the threshold p
    assert rate(UniformUnit(), 15.0, 0.2, +1).value < math.inf
    assert rate(TwoPoint(a=0.5, r=1.0), 3.5, 0.2, +1).value < math.inf
    # band exactly on the ess sup with no atom there: lam grows without bound
    # in t, where the tilted mean rounds to the band long before it diverges
    for dist, p, delta in ((UniformUnit(), 1.0, 1.0), (UniformSymmetric(2.0), 1.0, 1.0),
                           (DiffUniform(), 1.0, 2.0), (ZeroInflated(0.2, UniformUnit()), 1.0, 1.5)):
        res = rate(dist, p, delta, +1)
        assert res.value == math.inf and res.regime == REGIME_DIVERGENT, dist
    # with an atom there the supremum is finite: -log P(x = r)
    assert rate(TwoPoint(a=0.5, r=1.0), 1.0, 1.0, +1).value == pytest.approx(math.log(2.0))


def test_rate_rejects_p_beyond_exponential_order():
    with pytest.raises(ValueError):
        rate(StandardNormal(), 3.0, 0.1, +1)
    # p = p0 itself works, with the tilt capped at the divergence boundary
    res = rate(StandardNormal(), 2.0, 0.1, +1)
    assert 0 < res.value < math.inf
    assert res.argmax_t is not None and res.argmax_t < 0.5


def test_rate_endpoint_p_zero_matches_small_p():
    for dist, delta, sign in [(UniformUnit(), 0.2, +1), (DiffUniform(), 0.1, -1)]:
        res = rate(dist, 0.0, delta, sign)
        assert res.regime == REGIME_SMALL_P
        assert res.value == pytest.approx(small_p_rate(dist, delta, sign), rel=1e-12)


@pytest.mark.parametrize("dist", [UniformUnit(), DiffUniform(), StandardNormal()], ids=repr)
@pytest.mark.parametrize("p", [1e-6, 1e-4])
@pytest.mark.parametrize("sign", [+1, -1])
def test_rate_at_tiny_p_approaches_the_small_p_limit(dist, p, sign):
    # the u = x^p mass sits within about p of the top of the support here,
    # so a quadrature that does not resolve that end collapses the rate
    res = rate(dist, p, 0.1, sign)
    assert res.regime == REGIME_INTERIOR
    assert res.tolerance_met
    assert res.value == pytest.approx(small_p_rate(dist, 0.1, sign), rel=1e-3)


@pytest.mark.parametrize("b", [0.5, 2.0, 10.0])
def test_rate_is_scale_invariant(b):
    # (x/b)^p / mu_p has one law for every b, so the rate cannot depend on b
    for p in (0.01, 1.0, 10.0, 50.0, 100.0, 300.0):
        for delta in (0.01, 0.1, 0.3):
            for sign in (+1, -1):
                wide = rate(UniformSymmetric(b), p, delta, sign)
                unit = rate(UniformUnit(), p, delta, sign)
                label = f"b={b} p={p} delta={delta} sign={sign}"
                assert wide.regime == unit.regime, label
                assert wide.tolerance_met and unit.tolerance_met, label
                if math.isinf(unit.value):
                    assert wide.value == unit.value, label
                else:
                    assert wide.value == pytest.approx(unit.value, rel=1e-9), label


def _powered_integral(k, c, p):
    # int_0^1 y^k exp(c y^p) dy: 1F1 for c >= 0, lower incomplete gamma below
    a = (k + 1) / p
    if c >= 0:
        return mpmath.hyp1f1(a, a + 1, c) / (k + 1)
    return mpmath.gammainc(a, 0, -c) * (-c) ** (-a) / p


def _mgf_pair(dist, c, p):
    """(E exp(c X^p), E X^p exp(c X^p)); diffuniform is 2Y with Y of density 2(1-y)."""
    if isinstance(dist, UniformUnit):
        return _powered_integral(0, c, p), _powered_integral(p, c, p)
    scale = mpmath.mpf(2) ** p
    big = c * scale
    return (
        2 * (_powered_integral(0, big, p) - _powered_integral(1, big, p)),
        2 * scale * (_powered_integral(p, big, p) - _powered_integral(1 + p, big, p)),
    )


def _oracle_rate(dist, p, delta, sign, t_start):
    """sup_t of s t B mu_p - log E exp(s t X^p), at the root of its derivative."""
    with mpmath.workdps(40):
        p = mpmath.mpf(p)
        target = (1 + sign * mpmath.mpf(delta)) ** p * _mgf_pair(dist, 0, p)[1]

        def first_order(log_t):
            mgf, tilted = _mgf_pair(dist, sign * mpmath.exp(log_t), p)
            return mpmath.log(tilted / mgf) - mpmath.log(target)

        t = mpmath.exp(mpmath.findroot(first_order, mpmath.log(t_start)))
        return float(sign * t * target - mpmath.log(_mgf_pair(dist, sign * t, p)[0]))


@pytest.mark.parametrize("dist", [UniformUnit(), DiffUniform()], ids=repr)
def test_rate_matches_mpmath_first_order_root(dist):
    for p in (0.01, 0.5, 2.0, 100.0, 300.0):
        for delta in (0.01, 0.1, 0.3):
            for sign in (+1, -1):
                res = rate(dist, p, delta, sign)
                label = f"p={p} delta={delta} sign={sign}"
                assert res.tolerance_met, label
                if (1 + delta) ** p * dist.mu_p(p) > dist.ess_sup**p and sign > 0:
                    assert res.regime == REGIME_DIVERGENT, label
                    continue
                assert res.regime == REGIME_INTERIOR, label
                ref = _oracle_rate(dist, p, delta, sign, res.argmax_t)
                assert res.value == pytest.approx(ref, rel=1e-9), label


def _zero_inflated_rate_oracle(a, base, p, delta, sign, t_start):
    """sup_t of s t B mu_p - log(a + (1-a) E exp(s t X^p)) for the law with
    mass a at zero and 1-a on base, at the root of its derivative."""
    with mpmath.workdps(40):
        a, p = mpmath.mpf(a), mpmath.mpf(p)

        def base_pair(c):
            # (E exp(c X^p), E X^p exp(c X^p)) under the base law
            if isinstance(base, UniformUnit):
                return _powered_integral(0, c, p), _powered_integral(p, c, p)
            # half-normal in z = log x: pi^{-1/2} sqrt(2) exp(z - e^{2z}/2) dz
            pair = [
                mpmath.quad(
                    lambda z: mpmath.exp(z - mpmath.exp(2 * z) / 2 + k * p * z + c * mpmath.exp(p * z)),
                    [-300, -60, -20, -5, 0, 1, 2, 3, 5],
                )
                / mpmath.sqrt(mpmath.pi / 2)
                for k in (0, 1)
            ]
            return pair[0], pair[1]

        target = (1 + sign * mpmath.mpf(delta)) ** p * (1 - a) * base_pair(0)[1]

        def first_order(log_t):
            mgf, tilted = base_pair(sign * mpmath.exp(log_t))
            return (1 - a) * tilted / (a + (1 - a) * mgf) - target

        t = mpmath.exp(mpmath.findroot(first_order, mpmath.log(t_start)))
        return float(sign * t * target - mpmath.log(a + (1 - a) * base_pair(sign * t)[0]))


@pytest.mark.parametrize("base", [StandardNormal(), UniformUnit()], ids=repr)
def test_tiny_zero_inflated_rates_match_mpmath_relatively(base):
    # at p = 1e-4, delta = 0.01 the rate is about 1.16e-12 while lam = s t B mu_p
    # - K cancels two numbers near 2.3e-6, so K must keep its relative accuracy
    dist = ZeroInflated(0.3, base)
    for sign, expected in ((+1, 1.155e-12), (-1, 1.178e-12)):
        res = rate(dist, 1e-4, 0.01, sign)
        assert res.tolerance_met and res.regime == REGIME_INTERIOR, sign
        ref = _zero_inflated_rate_oracle(0.3, base, 1e-4, 0.01, sign, res.argmax_t)
        assert ref == pytest.approx(expected, rel=1e-3), sign
        assert res.value == pytest.approx(ref, rel=1e-6), sign


def test_normal_rate_at_p2_is_the_chi_square_rate():
    # x^2 is chi-square(1): sup_t of s t c - (-1/2) log(1 - 2 s t) with
    # c = (1 + s delta)^2 is (c - 1 - log c) / 2; on the plus side t* = (1 - 1/c)/2
    # approaches the divergence edge 1/2 as delta grows
    cases = [(d, +1) for d in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0)]
    cases += [(d, -1) for d in (0.01, 0.1, 0.5, 0.9)]
    for delta, sign in cases:
        c = (1.0 + sign * delta) ** 2
        res = rate(StandardNormal(), 2.0, delta, sign)
        assert res.tolerance_met and res.regime == REGIME_INTERIOR
        assert res.value == pytest.approx((c - 1.0 - math.log(c)) / 2.0, rel=1e-9), delta
        assert res.argmax_t == pytest.approx(sign * (1.0 - 1.0 / c) / 2.0, rel=1e-6)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    delta=st.floats(min_value=0.01, max_value=20.0),
    gap=st.floats(min_value=2.220446049250313e-16, max_value=1e-2),
)
def test_normal_plus_rate_is_continuous_into_p2(delta, gap):
    # below p = 2 the MGF is finite for every t, but grows without bound
    # past the p = 2 divergence edge t = 1/2 as p -> 2
    at_two = rate(StandardNormal(), 2.0, delta, +1).value
    below = rate(StandardNormal(), 2.0 - gap, delta, +1)
    assert below.tolerance_met and below.regime == REGIME_INTERIOR
    assert below.value == pytest.approx(at_two, rel=gap + 1e-13)


def test_normal_uniform_rate_reaches_the_p2_edge():
    # the p grid ends at 1.9999999999999998, where the plus side used to overflow
    value = uniform_rate(StandardNormal(), 0.5, +1)
    assert 0.0 < value <= small_p_rate(StandardNormal(), 0.5, +1)


def test_empirical_rate_beats_every_dense_grid_point():
    dist = Empirical(generator(11).standard_normal(300))
    for p, delta, sign in ((0.5, 0.2, +1), (1.0, 0.1, -1), (2.0, 0.3, +1)):
        res = rate(dist, p, delta, sign)
        dense = _dense_max(dist, p, delta, sign, t_hi=40.0)
        assert res.regime == REGIME_INTERIOR and res.tolerance_met
        assert res.value >= dense - 1e-12
        assert res.value <= dense + 1e-5


def test_rate_reports_a_missed_tolerance_at_max_iter(monkeypatch):
    full = rate(UniformUnit(), 1.0, 0.2, +1)
    monkeypatch.setattr(rate_engine, "MAX_ITER", 1)
    res = rate(UniformUnit(), 1.0, 0.2, +1)
    assert res.iterations == 1
    assert not res.tolerance_met
    assert 0.0 < res.value <= full.value


def test_rate_endpoint_p_inf_matches_large_p():
    res = rate(UniformUnit(), math.inf, 0.5, -1)
    assert res.regime == REGIME_LARGE_P
    assert res.value == pytest.approx(-math.log(0.5), rel=1e-12)
    plus = rate(UniformUnit(), math.inf, 0.5, +1)
    assert plus.value == math.inf and plus.regime == REGIME_LARGE_P
    with pytest.raises(ValueError):
        rate(StandardNormal(), math.inf, 0.5, -1)


def test_small_p_rate_equals_closed_forms():
    for delta in (0.1, 0.2, 0.5):
        for sign in (+1, -1):
            assert small_p_rate(UniformUnit(), delta, sign) == pytest.approx(
                uniform_f(delta, sign), rel=1e-12
            )
            assert small_p_rate(DiffUniform(), delta, sign) == pytest.approx(
                diff_uniform_f(delta, sign), rel=1e-12
            )


def test_small_p_rate_generic_route_agrees_with_closed_forms():
    for delta in (0.1, 0.5):
        for sign in (+1, -1):
            generic = small_p_rate(UniformUnit(), delta, sign, use_closed_forms=False)
            assert generic == pytest.approx(uniform_f(delta, sign), rel=2e-9)
            generic = small_p_rate(DiffUniform(), delta, sign, use_closed_forms=False)
            assert generic == pytest.approx(diff_uniform_f(delta, sign), rel=2e-9)


SMALL_P_DELTAS = (0.01, 0.05, 0.1, 0.2, 0.5, 0.9)


@pytest.mark.parametrize("dist, closed", [
    (UniformUnit(), uniform_f),
    (UniformSymmetric(2.0), uniform_f),
    (DiffUniform(), diff_uniform_f),
], ids=["uniform01", "uniform-b2", "diffuniform"])
def test_small_p_generic_route_is_within_5e_11_of_the_closed_forms(dist, closed):
    for delta in SMALL_P_DELTAS:
        for sign in (+1, -1):
            generic = small_p_rate(dist, delta, sign, use_closed_forms=False)
            assert generic == pytest.approx(closed(delta, sign), rel=5e-11), (delta, sign)


@pytest.mark.parametrize("dist", [UniformUnit(), UniformSymmetric(2.0), DiffUniform()],
                         ids=["uniform01", "uniform-b2", "diffuniform"])
def test_small_p_rate_past_delta_1_takes_the_generic_route(dist):
    # the closed forms hold for delta in (0, 1) only; past it the lookup
    # gives way to the generic maximization instead of raising
    for delta in (1.0, 1.5, 3.0):
        generic = small_p_rate(dist, delta, +1, use_closed_forms=False)
        assert small_p_rate(dist, delta, +1) == generic
        assert generic > 0.0
    # uniform |x|: sup_y y*d + log(1+y) with d = log(1+delta) - 1, which is
    # uniform_f's expression while d < 0 and infinite once d > 0
    if dist.closed_family == "uniform-cube":
        for delta in (1.0, 1.5):
            big_l = math.log1p(delta)
            expected = -(big_l + math.log1p(-big_l))
            assert small_p_rate(dist, delta, +1) == pytest.approx(expected, rel=5e-11)
        assert small_p_rate(dist, 3.0, +1) == math.inf


_SMALL_P_SAMPLE = generator(11).standard_normal(300)


def _oracle_small_p(law, delta, sign):
    """sup_q of q*drift - log E|x|^q at the root of its derivative, at 40 digits.

    The half-normal has E|x|^q = 2^{q/2} Gamma((q+1)/2) / sqrt(pi); the
    empirical law takes exact sums over _SMALL_P_SAMPLE.
    """
    with mpmath.workdps(40):
        if law == "normal":
            def log_moment(q):
                return q / 2 * mpmath.log(2) + mpmath.loggamma((q + 1) / 2) - mpmath.loggamma(0.5)

            def log_mean(q):
                return (mpmath.log(2) + mpmath.digamma((q + 1) / 2)) / 2

            bracket = (-1 + mpmath.mpf(10) ** -30, 0) if sign < 0 else (0, 50)
        else:
            logs = [mpmath.log(abs(mpmath.mpf(float(x)))) for x in _SMALL_P_SAMPLE]

            def log_moment(q):
                return mpmath.log(mpmath.fsum(mpmath.exp(q * l) for l in logs) / len(logs))

            def log_mean(q):
                weights = [mpmath.exp(q * l) for l in logs]
                return mpmath.fsum(w * l for w, l in zip(weights, logs)) / mpmath.fsum(weights)

            bracket = (-200, 0) if sign < 0 else (0, 200)
        drift = mpmath.log(1 + sign * mpmath.mpf(delta)) + log_mean(0)
        q = mpmath.findroot(lambda q: log_mean(q) - drift, bracket, solver="anderson")
        return float(q * drift - log_moment(q))


@pytest.mark.parametrize("law", ["normal", "empirical"])
def test_small_p_rate_matches_an_mpmath_root_for_laws_without_closed_forms(law):
    dist = StandardNormal() if law == "normal" else Empirical(_SMALL_P_SAMPLE)
    for delta in SMALL_P_DELTAS:
        for sign in (+1, -1):
            ref = _oracle_small_p(law, delta, sign)
            assert small_p_rate(dist, delta, sign) == pytest.approx(ref, rel=5e-11), (delta, sign)


def test_small_p_rate_quadratic_in_delta_matches_inverse_log_variance():
    # f(delta)/delta^2 -> 1/(2 Var log|x|) as delta -> 0
    for dist, log_var in ((UniformUnit(), 1.0), (DiffUniform(), 1.25),
                          (StandardNormal(), math.pi**2 / 8)):
        ratio = small_p_rate(dist, 1e-2, +1) / 1e-4
        assert ratio == pytest.approx(1.0 / (2.0 * log_var), rel=0.01)


def test_small_p_rate_minus_divergence_and_atom_rejection():
    assert small_p_rate(UniformUnit(), 1.0, -1) == math.inf
    with pytest.raises(ValueError):
        small_p_rate(TwoPoint(a=0.5, r=1.0), 0.1, +1)


def test_large_p_limits_continuous_law():
    limits = large_p_limits(UniformUnit(), 0.5)
    assert limits.plus == math.inf
    assert limits.minus == pytest.approx(-math.log(0.5), rel=1e-12)
    assert limits.minus_bracket is None


def test_large_p_limits_atom_law_is_bracketed():
    limits = large_p_limits(TwoPoint(a=0.3, r=1.0), 0.5)
    assert limits.minus_bracket == (limits.minus, limits.minus)
    assert limits.minus == pytest.approx(-math.log(0.3), rel=1e-12)
    with pytest.raises(ValueError):
        large_p_limits(StandardNormal(), 0.5)


def test_phi_generic_matches_closed_families():
    for dist, family in ((UniformUnit(), "uniform-cube"),
                         (DiffUniform(), "diff-uniform"),
                         (StandardNormal(), "standard-normal")):
        for p in (0.1, 0.5, 1.0, 2.0):
            assert phi(dist, p) == pytest.approx(phi_closed(family, p), rel=1e-9)


def test_phi_two_point_analytic():
    # mu_p = (1-a) r^p gives phi = (p^2/2)(1-a)/a, independent of r
    for a, p in ((0.3, 1.0), (0.5, 0.5), (0.8, 2.0)):
        expected = 0.5 * p * p * (1 - a) / a
        assert phi(TwoPoint(a=a, r=1.0), p) == pytest.approx(expected, rel=1e-11)
        assert phi(TwoPoint(a=a, r=2.0), p) == pytest.approx(expected, rel=1e-11)


def test_c_star_known_values():
    assert c_star(UniformUnit()) == pytest.approx(0.5, rel=1e-6)
    assert c_star(DiffUniform()) == pytest.approx(0.4, rel=1e-6)
    assert c_star(StandardNormal()) == pytest.approx(4.0 / math.pi**2, rel=1e-4)
    # a two-point law concentrates arbitrarily badly as p -> 0
    assert 0.0 <= c_star(TwoPoint(a=0.5, r=1.0)) < 1e-3


def test_uniform_rate_is_the_small_p_value_for_uniform_plus():
    assert uniform_rate(UniformUnit(), 0.2, +1) == pytest.approx(
        uniform_f(0.2, +1), abs=1e-9
    )
    assert uniform_rate(UniformUnit(), 0.1, +1) == pytest.approx(
        uniform_f(0.1, +1), abs=1e-9
    )


def test_uniform_rate_monotone_in_delta_and_rejects_atoms():
    values = [uniform_rate(UniformUnit(), d, +1) for d in (0.1, 0.2, 0.4, 0.8)]
    assert all(b > a for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        uniform_rate(TwoPoint(a=0.5, r=1.0), 0.2, +1)


@pytest.mark.parametrize("dist", [UniformUnit(), UniformSymmetric(b=2.0), DiffUniform()],
                         ids=lambda d: d.spec_string())
@pytest.mark.parametrize("delta", [0.05, 0.2, 0.5])
def test_minus_side_uniform_rate_is_a_lower_bound_at_the_small_p_limit(dist, delta):
    # bounded support brings in the p -> inf limit on the minus side; for
    # these laws the infimum is still the p -> 0 limit
    value = uniform_rate(dist, delta, -1)
    grid = np.geomspace(1e-3, 100.0, 400)
    assert value <= min(rate(dist, p, delta, -1).value for p in grid)
    assert value == small_p_rate(dist, delta, -1)
    assert value < large_p_limits(dist, delta).minus


def test_chernoff_bounds_exponential_identity():
    bounds = chernoff_bounds(uniform_f(0.2, +1), uniform_f(0.2, -1), 200)
    assert bounds.upper_tail_bound == pytest.approx(math.exp(-200 * uniform_f(0.2, +1)), rel=1e-12)
    assert bounds.lower_tail_bound == pytest.approx(math.exp(-200 * uniform_f(0.2, -1)), rel=1e-12)
    assert bounds.two_sided_lower == pytest.approx(
        1.0 - bounds.upper_tail_bound - bounds.lower_tail_bound, rel=1e-12
    )
    infinite = chernoff_bounds(math.inf, 0.01, 50)
    assert infinite.upper_tail_bound == 0.0


def test_contrast_bounds_three_input_forms():
    n, delta = 500, 0.1
    f = lambda d: uniform_f(d, +1)
    from_callable = contrast_bounds(f, n, delta)
    from_tuple = contrast_bounds((f(delta / 2), f(delta / (2 + delta))), n, delta)
    assert from_callable == from_tuple
    expected_half = max(0.0, 1.0 - 4.0 * math.exp(-n * f(delta / 2)))
    assert from_callable[0] == pytest.approx(expected_half, rel=1e-12)
    single = contrast_bounds(0.01, n, delta)
    assert single[0] == single[1]
    assert 0.0 <= single[0] <= 1.0
    # a huge rate clips the bound at 1 from below 1
    assert contrast_bounds(math.inf, 10, 0.5) == (1.0, 1.0)


_rates = st.one_of(st.floats(min_value=0.0, max_value=1e6), st.just(math.inf))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    rates=st.tuples(_rates, _rates),
    n=st.integers(min_value=1, max_value=10**7),
    delta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
def test_contrast_bounds_stay_in_the_unit_interval(rates, n, delta):
    for bound in contrast_bounds(rates, n, delta):
        assert 0.0 <= bound <= 1.0


def test_rate_result_serialization_maps_infinities(capsys):
    assert run(["rates", "--dist", "uniform01", "--p", "19,1", "--delta", "0.2",
                "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)["results"]["rates"]
    record, finite = (item["rate_plus"] for item in records)
    assert record["value"] == "inf"
    assert record["regime"] == REGIME_DIVERGENT
    assert isinstance(finite["value"], float)
    assert set(finite) == {"value", "argmax_t", "regime", "tolerance_met"}
