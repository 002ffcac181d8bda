"""Tail exponents for powered coordinate sums via concave maximization.

For a component law and a band [(1-delta), (1+delta)] around the mean of
|x|^p, each tail carries an exponent obtained by maximizing

    lam(t) = s*t*(1 + s*delta)^p * mu_p - log E[exp(s*t*|x|^p)]

over t >= 0, where s is +1 for the upper tail and -1 for the lower.  The
log-MGF is convex in t, so lam is concave.  ``rate`` maximizes it by
safeguarded Newton in the scale-free tilt tau = t*mu_p, taking the first
and second derivatives from the tilted mean and variance of |x|^p / mu_p
that each law's kernel returns with its log-MGF.  The p -> 0 limit
maximizes s*y*drift - log E|x|^{s*y} with the same Newton loop, on the
tilted moments of log|x|.  Large-p limits, the small-delta curvature phi,
and the inf-over-p rates are built on top; laws with a closed form are
looked up by their ``closed_family`` tag in :mod:`lpconc.closed_forms`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from . import closed_forms
from .distributions import Distribution, as_sign

__all__ = [
    "RateResult",
    "BoundResult",
    "LargePLimits",
    "REGIME_INTERIOR",
    "REGIME_SMALL_P",
    "REGIME_LARGE_P",
    "REGIME_DIVERGENT",
    "lambda_value",
    "rate",
    "small_p_rate",
    "large_p_limits",
    "phi",
    "c_star",
    "uniform_rate",
    "chernoff_bounds",
    "contrast_bounds",
]

REGIME_INTERIOR = "interior-optimum"
REGIME_SMALL_P = "limit-p-to-0"
REGIME_LARGE_P = "limit-p-to-infinity"
REGIME_DIVERGENT = "divergent"

# optimizer targets: relative tolerance in the argument and in the value
REL_TOL_ARG = 1e-8
REL_TOL_VALUE = 1e-10
MAX_ITER = 400

# a tilt that keeps climbing past this is reported as a divergent rate
_DIVERGENT_TILT = 1e150


@dataclass(frozen=True)
class RateResult:
    """Outcome of one tail-exponent maximization."""

    value: float
    argmax_t: float | None
    regime: str
    iterations: int
    tolerance_met: bool


@dataclass(frozen=True)
class BoundResult:
    upper_tail_bound: float
    lower_tail_bound: float
    two_sided_lower: float


@dataclass(frozen=True)
class LargePLimits:
    """Both p -> inf limits; minus_bracket is set when |x| has point masses."""

    plus: float
    minus: float
    minus_bracket: tuple[float, float] | None = None


def lambda_value(dist: Distribution, t: float, p: float, delta: float, sign) -> float:
    """The objective at a single t; -inf where the MGF diverges."""
    s = as_sign(sign)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not p > 0:
        raise ValueError("p must be positive")
    if not delta > 0:
        raise ValueError("delta must be positive")
    band = 1.0 + s * delta
    if band < 0.0:
        raise ValueError("the lower band needs delta <= 1")
    if t == 0.0:
        return 0.0
    log_mgf = dist.log_mgf_abs_p(t, p, s)
    if math.isinf(log_mgf):
        return -math.inf
    return s * t * band**p * dist.mu_p(p) - log_mgf


def _two_point_rate(
    dist: Distribution, atom: float, level: float, p: float, delta: float, s: int
) -> RateResult:
    """Analytic maximizer for laws with |x| on {0, level}."""
    q = 1.0 - atom
    band = (1.0 + s * delta) ** p * q
    if band >= 1.0:
        # the band reaches or passes the almost-sure maximum of the powered
        # mean; at equality the supremum -log(q) is approached as t -> inf
        if band == 1.0:
            return RateResult(-math.log(q), None, REGIME_INTERIOR, 0, True)
        return RateResult(math.inf, None, REGIME_DIVERGENT, 0, True)
    tau = s * math.log(atom * (1.0 + s * delta) ** p / (1.0 - band))
    t_star = max(tau, 0.0) / level**p
    value = max(lambda_value(dist, t_star, p, delta, s), 0.0)
    return RateResult(value, t_star, REGIME_INTERIOR, 0, True)


def rate(dist: Distribution, p: float, delta: float, sign) -> RateResult:
    """Tail exponent at one (p, delta, sign).

    p = 0 and p = inf are accepted as the analytic endpoints and reported
    under the matching limit regime.
    """
    s = as_sign(sign)
    if not delta > 0:
        raise ValueError("delta must be positive")
    if p == 0.0:
        return RateResult(small_p_rate(dist, delta, s), None, REGIME_SMALL_P, 0, True)
    if math.isinf(p):
        if s > 0:
            if math.isinf(dist.ess_sup):
                raise ValueError("p = inf limits need bounded support")
            return RateResult(math.inf, None, REGIME_LARGE_P, 0, True)
        return RateResult(large_p_limits(dist, delta).minus, None, REGIME_LARGE_P, 0, True)
    if not p > 0:
        raise ValueError("p must be positive")
    if s < 0 and delta >= 1.0:
        # the lower band is <= 0: an impossible event, infinite by definition
        return RateResult(math.inf, None, REGIME_DIVERGENT, 0, True)
    p0 = dist.exp_moment_order
    if p > p0:
        raise ValueError(f"upper-tail exponents need p <= {p0:g} for this law; got p = {p:g}")

    sup_abs = dist.ess_sup
    if s > 0 and math.isfinite(sup_abs):
        over = (1.0 + delta) ** p * dist.mu_p(p) - sup_abs**p
        # band above the essential sup of the powered mean, or on it with no
        # atom there, so that lam climbs forever as t -> inf
        if over > 0.0 or (over == 0.0 and dist.cdf_abs(sup_abs) == dist.cdf_abs_left(sup_abs)):
            return RateResult(math.inf, None, REGIME_DIVERGENT, 0, True)

    two_point = getattr(dist, "abs_two_point", None)
    if two_point is not None:
        return _two_point_rate(dist, two_point[0], two_point[1], p, delta, s)
    return _newton_rate(dist, p, delta, s)


def _midpoint(lo: float, hi: float) -> float:
    # geometric once the bracket spans more than a factor of 4
    return math.sqrt(lo * hi) if 0.0 < 4.0 * lo < hi else 0.5 * (lo + hi)


def _newton_max(
    kernel: Callable[[float], tuple[float, float, float]],
    target: float,
    s: int,
    start: float,
    hi: float,
) -> tuple[float, float | None, int, bool]:
    """Maximize lam(tau) = s*tau*target - K(tau) over [0, hi) by safeguarded Newton.

    kernel(tau) returns (K, m, v), where m and v are the tilted mean and
    variance that give lam'(tau) = s*(target - m) and lam''(tau) = -v; K is
    +inf past a divergence.  start is the Newton step from tau = 0, or nan.
    [lo, hi] brackets the maximizer by the sign of lam'; a step that leaves
    it bisects, and so does a step below REL_TOL_ARG taken from a value more
    than REL_TOL_VALUE, or K's rounding, below the best seen.  Once hi is
    finite, a Newton step that does not halve the one before it bisects too,
    as in Numerical Recipes' rtsafe: far past a steep K, as just below p = 2,
    Newton's steps are a tiny fraction of the bracket.  Until hi is finite,
    a step that grows tau by half or more is stretched by a factor that
    doubles each time, so a maximizer beyond _DIVERGENT_TILT, reported as
    +inf with no argmax, is found within MAX_ITER.  Returns (value, argmax, iterations,
    tolerance_met), where iterations count kernel evaluations.
    """
    lo, tau = 0.0, start
    if not lo < tau < hi:
        tau = _midpoint(lo, hi) if math.isfinite(hi) else 1.0
    best_value, best_tau = 0.0, 0.0
    stretch, moved = 1.0, math.inf
    for iters in range(1, MAX_ITER + 1):
        k, m, v = kernel(tau)
        if not math.isfinite(k):
            hi = tau
            tau = _midpoint(lo, hi)
            continue
        value = s * tau * target - k
        if value > best_value:
            best_value, best_tau = value, tau
        slope = s * (target - m)
        if slope > 0.0:
            lo = tau
            if lo >= _DIVERGENT_TILT:
                return math.inf, None, iters, True
        else:
            hi = tau
        step = slope / v if v > 0.0 else math.copysign(math.inf, slope)
        if abs(step) <= REL_TOL_ARG * tau:
            # where lam << K (atoms, p -> 0) K's rounding bounds what lam can show
            if value >= best_value - REL_TOL_VALUE * best_value - 1e-14 * abs(k):
                return best_value, best_tau, iters, True
            # a tiny step from below the best value seen: the curvature here
            # is too steep to locate the maximizer, so bisect instead
            tau = _midpoint(lo, hi)
            continue
        if math.isinf(hi) and 2.0 * step >= tau:
            stretch *= 2.0
            step = min(step * stretch, _DIVERGENT_TILT)
        else:
            stretch = 1.0
        if lo < tau + step < hi and (math.isinf(hi) or 2.0 * abs(step) <= moved):
            moved, tau = abs(step), tau + step
        else:
            moved, tau = math.inf, _midpoint(lo, hi)
    return best_value, best_tau, MAX_ITER, False


def _newton_rate(dist: Distribution, p: float, delta: float, s: int) -> RateResult:
    """Maximize lam by _newton_max in tau = t*mu_p.

    With W = |x|^p / mu_p and B = (1 + s*delta)^p, lam(tau) = s*tau*B - K,
    where the law's kernel gives K and the tilted mean and variance of W.
    The start is the Newton step from tau = 0, where m = 1 and v = Var W
    come from the law's own moments.
    """
    mu = dist.mu_p(p)
    hi = dist.mgf_t_bound(p) * mu if s > 0 else math.inf
    try:
        var0 = math.expm1(math.log(dist.abs_moment(2.0 * p)) - 2.0 * math.log(mu))
        start = s * math.expm1(p * math.log1p(s * delta)) / var0
    except (OverflowError, ZeroDivisionError):
        # E|x|^{2p} beyond the float range on a wide support, or Var W = 0
        start = math.nan
    value, tau, iters, met = _newton_max(
        lambda tau: dist._tilted(tau / mu, p, s), (1.0 + s * delta) ** p, s, start, hi
    )
    if tau is None:
        return RateResult(value, None, REGIME_DIVERGENT, iters, met)
    return RateResult(value, tau / mu, REGIME_INTERIOR, iters, met)


def small_p_rate(
    dist: Distribution, delta: float, sign, *, use_closed_forms: bool = True
) -> float:
    """The p -> 0 limit rate f(delta, sign); +inf on the minus side at delta >= 1.

    use_closed_forms=False forces the generic maximization even for families
    with a closed expression; the test suite uses this to cross-check the two.
    """
    s = as_sign(sign)
    if not delta > 0:
        raise ValueError("delta must be positive")
    if dist.atom_at_zero > 0:
        raise ValueError(
            "law has mass at zero, so the small-p limit rate does not exist; "
            "see anti_concentration for this regime"
        )
    if s < 0 and delta >= 1.0:
        return math.inf
    if use_closed_forms:
        closed = closed_forms.small_p_closed(dist.closed_family, delta, s)
        if closed is not None:
            return closed
    # Newton in y on the moments of log|x| under the tilt |x|^{s*y}; the
    # start is the step from y = 0, where they are the law's log moments
    log_mean, log_var = dist.log_moments()
    drift = math.log1p(s * delta) + log_mean
    start = s * math.log1p(s * delta) / log_var if log_var > 0.0 else math.nan
    value, _, _, _ = _newton_max(lambda y: dist._log_tilted(y, s), drift, s, start, math.inf)
    return value


def large_p_limits(dist: Distribution, delta: float) -> LargePLimits:
    """Both p -> inf limits; requires bounded support."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    sup_abs = dist.ess_sup
    if math.isinf(sup_abs):
        raise ValueError("p = inf limits need bounded support")
    edge = (1.0 - delta) * sup_abs
    at_edge = dist.cdf_abs(edge)
    below_edge = dist.cdf_abs_left(edge)
    minus = math.inf if at_edge == 0.0 else -math.log(at_edge)
    bracket = None
    if dist.has_abs_atoms:
        left = math.inf if below_edge == 0.0 else -math.log(below_edge)
        bracket = (left, minus)
    return LargePLimits(plus=math.inf, minus=minus, minus_bracket=bracket)


def phi(dist: Distribution, p: float) -> float:
    """Curvature of the rate in delta at delta -> 0 for this p."""
    if not p > 0:
        raise ValueError("p must be positive")
    if dist.closed_family is not None:
        return closed_forms.phi_closed(dist.closed_family, p)
    mean = dist.abs_moment(p)
    second = dist.abs_moment(2.0 * p)
    variance = second - mean * mean
    if not variance > 0.0:
        raise ValueError("degenerate law: |x|^p has zero variance")
    return 0.5 * p * p * mean * mean / variance


def _log_grid(lo: float, hi: float, count: int) -> list[float]:
    if hi <= lo:
        return [lo]
    ratio = math.log(hi / lo) / (count - 1)
    return [lo * math.exp(i * ratio) for i in range(count)]


def _refine_grid_min(
    fn: Callable[[float], float], grid: Sequence[float], values: Sequence[float], rounds: int
) -> float:
    """Each round halves the grid spacing next to the current argmin."""
    points = sorted(zip(grid, values))
    for _ in range(rounds):
        finite = [i for i, (_, v) in enumerate(points) if math.isfinite(v)]
        if not finite:
            return math.inf
        i = min(finite, key=lambda j: points[j][1])
        fresh = []
        if i > 0:
            mid = math.sqrt(points[i - 1][0] * points[i][0])
            fresh.append((mid, fn(mid)))
        if i < len(points) - 1:
            mid = math.sqrt(points[i][0] * points[i + 1][0])
            fresh.append((mid, fn(mid)))
        points = sorted(points + fresh)
    finite_values = [v for _, v in points if math.isfinite(v)]
    return min(finite_values) if finite_values else math.inf


def c_star(dist: Distribution) -> float:
    """Infimum of phi over p, the dimension-free curvature floor."""
    p_hi = min(dist.exp_moment_order, 100.0)
    grid = _log_grid(1e-3, p_hi, 60)
    values = [phi(dist, p) for p in grid]
    best = _refine_grid_min(lambda p: phi(dist, p), grid, values, rounds=3)
    if dist.atom_at_zero == 0:
        log_var = dist.log_moments()[1]
        best = min(best, 0.5 / log_var)
    return best


def uniform_rate(dist: Distribution, delta: float, sign) -> float:
    """Infimum over p of the tail exponent, with both endpoint limits appended."""
    s = as_sign(sign)
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if dist.atom_at_zero > 0:
        raise ValueError(
            "law has mass at zero, so the inf-over-p rate is zero in the limit; "
            "see anti_concentration for this regime"
        )
    p_hi = min(dist.exp_moment_order, 100.0)
    grid = _log_grid(1e-3, p_hi, 60)
    values = [rate(dist, p, delta, s).value for p in grid]
    best = _refine_grid_min(lambda p: rate(dist, p, delta, s).value, grid, values, rounds=3)
    best = min(best, small_p_rate(dist, delta, s))
    if s < 0 and math.isfinite(dist.ess_sup):
        # conservative end of the limit (the bracket's smaller value when
        # |x| has point masses)
        best = min(best, large_p_limits(dist, delta).minus)
    return best


def chernoff_bounds(rate_plus: float, rate_minus: float, n: int) -> BoundResult:
    """Exponential tail bounds and the implied two-sided floor."""
    if rate_plus < 0 or rate_minus < 0:
        raise ValueError("rates must be nonnegative")
    if n < 1:
        raise ValueError("n must be a positive integer")
    upper = math.exp(-n * rate_plus) if math.isfinite(rate_plus) else 0.0
    lower = math.exp(-n * rate_minus) if math.isfinite(rate_minus) else 0.0
    return BoundResult(
        upper_tail_bound=upper,
        lower_tail_bound=lower,
        two_sided_lower=max(0.0, 1.0 - upper - lower),
    )


def contrast_bounds(f_star, n: int, delta: float) -> tuple[float, float]:
    """Lower bounds for the norm-difference and relative-contrast events.

    f_star may be a callable evaluated at delta/2 and delta/(2+delta), a
    pair of precomputed rates at those arguments, or a single rate used
    for both (the caller then owns the argument convention).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if callable(f_star):
        f_half = f_star(delta / 2.0)
        f_rel = f_star(delta / (2.0 + delta))
    elif isinstance(f_star, (tuple, list)):
        f_half, f_rel = f_star
    else:
        f_half = f_rel = float(f_star)
    if f_half < 0 or f_rel < 0:
        raise ValueError("rates must be nonnegative")

    def bound(f: float) -> float:
        raw = 1.0 - 4.0 * (math.exp(-n * f) if math.isfinite(f) else 0.0)
        return min(1.0, max(0.0, raw))

    return bound(f_half), bound(f_rel)
