"""Exact binomial machinery, normal lower bounds, and the p* search.

The implementation under test works in log space through scipy; the oracle
here recomputes band masses with exact Fraction arithmetic over binomial
coefficients, so any disagreement is a real defect, not roundoff debate.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpconc.anti_concentration import (
    BE_C_DEFAULT,
    MAX_EXACT_N,
    berry_esseen_bounds,
    binomial_mode_prob,
    exact_two_point_concentration,
    exact_two_point_tails,
    find_p_star,
    min_dimension,
    p_star_for_epsilon,
)
from lpconc.distributions import Empirical, ThreePointSymmetric, TwoPoint, UniformUnit


def _fraction_band_mass(a: Fraction, p: float, delta: float, n: int) -> float:
    """Band mass via exact rational binomial sums."""
    q = 1 - a
    nq = n * float(q)
    lo = math.ceil(nq * (1.0 - delta) ** p)
    hi = math.floor(nq * (1.0 + delta) ** p)
    total = Fraction(0)
    for k in range(max(lo, 0), min(hi, n) + 1):
        total += math.comb(n, k) * q**k * a ** (n - k)
    return float(total)


@pytest.mark.parametrize("a,p,delta,n", [
    (Fraction(1, 2), 0.7, 0.3, 40),
    (Fraction(1, 2), 0.5, 0.2, 100),
    (Fraction(1, 4), 1.0, 0.25, 17),
    (Fraction(1, 4), 0.001, 0.1, 60),
    (Fraction(3, 4), 2.0, 0.4, 33),
])
def test_exact_concentration_matches_fraction_oracle(a, p, delta, n):
    got = exact_two_point_concentration(float(a), 1.0, p, delta, n)
    assert got == pytest.approx(_fraction_band_mass(a, p, delta, n), rel=1e-11)


def test_exact_concentration_small_p_keeps_only_the_mode():
    # at p = 1e-4 the band collapses onto k = n(1-a)
    got = exact_two_point_concentration(0.5, 1.0, 1e-4, 0.1, 100)
    expected = float(Fraction(math.comb(100, 50), 2**100))
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.07958923738717888, rel=1e-12)
    ten = exact_two_point_concentration(0.5, 1.0, 1e-4, 0.1, 10)
    assert ten == pytest.approx(float(Fraction(252, 1024)), rel=1e-12)


def test_exact_concentration_empty_band_and_r_invariance():
    # odd n with a = 1/2 puts no integer inside a hairline band
    assert exact_two_point_concentration(0.5, 1.0, 1.0, 0.001, 11) == 0.0
    lhs = exact_two_point_concentration(0.3, 1.0, 0.7, 0.2, 37)
    rhs = exact_two_point_concentration(0.3, 7.25, 0.7, 0.2, 37)
    assert lhs == rhs


def test_exact_concentration_validation():
    with pytest.raises(ValueError):
        exact_two_point_concentration(0.0, 1.0, 1.0, 0.1, 10)
    with pytest.raises(ValueError):
        exact_two_point_concentration(0.5, 1.0, 0.0, 0.1, 10)
    with pytest.raises(ValueError):
        exact_two_point_concentration(0.5, 1.0, 1.0, 0.1, MAX_EXACT_N + 1)


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_tails_partition_the_whole_line(n):
    below, inside, above = exact_two_point_tails(0.3, 1.0, 0.5, 0.2, n)
    assert below + inside + above == pytest.approx(1.0, abs=1e-12)
    assert min(below, inside, above) >= 0.0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.floats(0.01, 0.99),
    st.floats(1e-3, 10.0),
    st.floats(0.01, 0.99),
    st.integers(1, MAX_EXACT_N),
)
def test_tails_sum_to_one(a, p, delta, n):
    # Loader's log-pmf keeps each mass's log error near eps at every n, so
    # the bound is test_tails_sum_to_one_at_large_n's
    below, inside, above = exact_two_point_tails(a, 1.0, p, delta, n)
    assert abs(math.fsum((below, inside, above)) - 1.0) <= 1e-13


@pytest.mark.parametrize("a", [0.5, 0.3])
@pytest.mark.parametrize("n", [10**4, 10**5, 10**6])
def test_tails_sum_to_one_at_large_n(a, n):
    # each mass's log carries an error near eps, not eps * log(n!), which
    # is 1.1e-9 at n = 10^6
    below, inside, above = exact_two_point_tails(a, 1.0, 1.0, 0.5, n)
    assert abs(math.fsum((below, inside, above)) - 1.0) <= 1e-13


def test_tails_match_fraction_oracle_on_each_piece():
    a, p, delta, n = Fraction(1, 2), 0.5, 0.2, 100
    below, inside, above = exact_two_point_tails(float(a), 1.0, p, delta, n)
    assert inside == pytest.approx(_fraction_band_mass(a, p, delta, n), rel=1e-11)
    q = 1 - a
    nq = n * float(q)
    lo = math.ceil(nq * (1.0 - delta) ** p)
    frac_below = sum(
        Fraction(math.comb(n, k)) * q**k * a ** (n - k) for k in range(0, lo)
    )
    assert below == pytest.approx(float(frac_below), rel=1e-11)


def test_binomial_mode_prob_exact_and_asymptotic():
    assert binomial_mode_prob(0.5, 10) == pytest.approx(252 / 1024, rel=1e-13)
    assert binomial_mode_prob(0.5, 9) == 0.0  # 4.5 is not a count
    n = 10_000
    assert binomial_mode_prob(0.5, n) == pytest.approx(
        math.sqrt(2.0 / (math.pi * n)), rel=0.01
    )
    with pytest.raises(ValueError):
        binomial_mode_prob(1.0, 10)
    with pytest.raises(ValueError):
        binomial_mode_prob(0.5, 0)


@pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("n", [50, 100, 500])
def test_berry_esseen_never_exceeds_exact_tails(a, n):
    for p in (0.001, 0.01):
        bounds = berry_esseen_bounds(a, p, 0.1, n)
        below, _, above = exact_two_point_tails(a, 1.0, p, 0.1, n)
        assert bounds.upper_tail_lower_bound <= above + 1e-12
        assert bounds.lower_tail_lower_bound <= below + 1e-12


def test_berry_esseen_fields_and_vacuous_flags():
    a, p, delta, n = 0.5, 2.0, 0.4, 5
    bounds = berry_esseen_bounds(a, p, delta, n)
    q = 1 - a
    assert bounds.sigma == pytest.approx(math.sqrt(a * q), rel=1e-14)
    assert bounds.rho == pytest.approx(a * q * (1 - 2 * q + 2 * q * q), rel=1e-14)
    assert bounds.C_const == BE_C_DEFAULT
    # wide band, tiny n: the approximation error swamps both tail terms
    assert bounds.upper_vacuous and bounds.lower_vacuous
    assert bounds.upper_tail_lower_bound <= 0.0
    with pytest.raises(ValueError):
        berry_esseen_bounds(a, p, delta, n, C_const=0.3)


def test_p_star_for_epsilon_inverts_the_binding_constraint():
    a, delta, epsilon, n = 0.5, 0.1, 0.2, 100
    p = p_star_for_epsilon(a, delta, epsilon, n)
    q = 1 - a
    sigma = math.sqrt(a * q)
    scale = math.sqrt(n) * q / sigma
    up_arg = scale * math.expm1(p * math.log1p(delta))
    lo_arg = scale * (-math.expm1(p * math.log1p(-delta)))
    assert max(up_arg, lo_arg) == pytest.approx(epsilon, rel=1e-10)
    assert up_arg <= epsilon + 1e-12 and lo_arg <= epsilon + 1e-12


def test_p_star_for_epsilon_large_epsilon_drops_lower_branch():
    # c >= 1 leaves only the upper-band constraint
    p = p_star_for_epsilon(0.5, 0.1, 3.0, 1)
    c = 3.0 * 0.5 / 0.5
    assert p == pytest.approx(math.log1p(c) / math.log1p(0.1), rel=1e-13)
    with pytest.raises(ValueError):
        p_star_for_epsilon(0.5, 0.1, 0.0, 10)


def test_find_p_star_exact_binomial_reference_point():
    report = find_p_star(TwoPoint(a=0.5), n=100, delta=0.1, Delta=0.2)
    assert report.method == "exact-binomial"
    assert report.p_star == pytest.approx(0.20777032775292786, rel=1e-10)
    assert report.exact_prob_at_p_star == pytest.approx(0.1576179014922551, rel=1e-10)
    assert report.exact_prob_at_p_star <= 0.2
    assert report.binomial_mode_prob == pytest.approx(0.07958923738717888, rel=1e-12)
    assert report.sample_count is None and report.seed is None
    # the band probability is nondecreasing in p, so just past p* it exceeds
    beyond = exact_two_point_concentration(0.5, 1.0, report.p_star + 1e-6, 0.1, 100)
    assert beyond > 0.2


def test_find_p_star_saturates_at_two_when_target_is_loose():
    report = find_p_star(TwoPoint(a=0.9), n=10, delta=0.3, Delta=0.5)
    assert report.p_star == 2.0
    assert report.exact_prob_at_p_star <= 0.5


def test_find_p_star_reports_absence_with_dimension_hint():
    report = find_p_star(TwoPoint(a=0.5), n=4, delta=0.1, Delta=0.05)
    assert report.p_star is None
    assert report.diagnostic is not None and "1019" in report.diagnostic
    assert report.exact_prob_at_p_star > 0.05
    assert report.binomial_mode_prob == pytest.approx(0.375, rel=1e-13)


def test_find_p_star_three_point_abs_reduces_to_two_point():
    three = find_p_star(ThreePointSymmetric(a=0.5, r=1.0), n=100, delta=0.1, Delta=0.2)
    two = find_p_star(TwoPoint(a=0.5), n=100, delta=0.1, Delta=0.2)
    assert three.p_star == two.p_star


def test_find_p_star_monte_carlo_path_is_deterministic():
    emp = Empirical([0.0, 0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        find_p_star(emp, n=50, delta=0.2, Delta=0.3)  # no two-point |x|
    first = find_p_star(emp, n=50, delta=0.2, Delta=0.3,
                        method="monte-carlo", M=2000, iterations=12)
    second = find_p_star(emp, n=50, delta=0.2, Delta=0.3,
                         method="monte-carlo", M=2000, iterations=12)
    assert first.p_star == second.p_star
    assert first.exact_prob_at_p_star == second.exact_prob_at_p_star
    assert first.method == "monte-carlo"
    assert first.sample_count == 2000 and first.seed is not None
    if first.p_star is not None:
        assert first.exact_prob_at_p_star <= 0.3


def test_find_p_star_validation():
    with pytest.raises(ValueError):
        find_p_star(UniformUnit(), n=10, delta=0.1, Delta=0.2)  # no atom at zero
    with pytest.raises(ValueError):
        find_p_star(TwoPoint(a=0.5), n=10, delta=0.1, Delta=0.2, method="bogus")


def test_min_dimension_scan_and_conservative_formula():
    d = min_dimension(0.5, 0.2)
    assert d == 63
    assert binomial_mode_prob(0.5, 62) >= 0.1
    assert binomial_mode_prob(0.5, 64) < 0.1
    expected = math.ceil(16 * 0.56**2 * 0.125**2 / (0.25**3 * 0.2**2))
    assert min_dimension(0.5, 0.2, conservative=True) == expected == 126
    with pytest.raises(ValueError):
        min_dimension(0.5, 1.5)


def test_min_dimension_respects_integer_period():
    # a = 1/3 puts mass on the mode only when n is a multiple of 3
    d = min_dimension(1.0 / 3.0, 0.2)
    assert binomial_mode_prob(1.0 / 3.0, d - 1) >= 0.1 or (d - 1) % 3 != 0
    for n in range(d, d + 12):
        assert binomial_mode_prob(1.0 / 3.0, n) < 0.1


@pytest.mark.parametrize(
    "a,Delta", [(0.3, 0.9), (0.5, 0.9), (0.5, 0.2), (0.3, 0.05), (0.25, 0.05), (0.7, 0.02)]
)
def test_min_dimension_matches_the_one_n_at_a_time_scan(a, Delta):
    # the scan runs in batches of 64, 128, ... candidates; its answer must be
    # the one-at-a-time scan's, wherever the first mass under Delta/2 falls
    period = Fraction(1 - a).limit_denominator(MAX_EXACT_N).denominator
    last_violator, n = 0, period
    while binomial_mode_prob(a, n) >= 0.5 * Delta:
        last_violator, n = n, n + period
    assert min_dimension(a, Delta) == last_violator + 1
