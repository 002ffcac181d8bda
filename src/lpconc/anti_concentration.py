"""Anti-concentration for component laws with mass at zero.

When P(x = 0) = a > 0, the powered sum at small p is governed by the count
of nonzero coordinates, k ~ Binomial(n, 1-a).  This module provides the
exact binomial probability of the concentration event, Berry-Esseen lower
bounds on the tail probabilities, the closed-form p threshold that makes
the normal term vanish, and a bisection search for the largest p whose
concentration probability sits under a target.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from ._special import binom_logpmf, ndtr
from .distributions import Distribution
from . import monte_carlo

__all__ = [
    "AntiConcReport",
    "BerryEsseenBounds",
    "BE_C_DEFAULT",
    "BE_C_MIN",
    "BE_C_MAX",
    "exact_two_point_concentration",
    "exact_two_point_tails",
    "binomial_mode_prob",
    "berry_esseen_bounds",
    "p_star_for_epsilon",
    "find_p_star",
    "min_dimension",
]

BE_C_DEFAULT = 0.56
BE_C_MIN = 0.4097
BE_C_MAX = 0.56

MAX_EXACT_N = 10**6
_MODE_INT_TOL = 1e-9


@dataclass(frozen=True)
class BerryEsseenBounds:
    """Normal-approximation lower bounds for the two tail probabilities."""

    sigma: float
    rho: float
    C_const: float
    upper_tail_lower_bound: float
    lower_tail_lower_bound: float
    upper_vacuous: bool
    lower_vacuous: bool


@dataclass(frozen=True)
class AntiConcReport:
    n: int
    delta: float
    target_Delta: float
    p_star: float | None
    exact_prob_at_p_star: float
    binomial_mode_prob: float
    method: str
    sample_count: int | None = None
    seed: int | None = None
    diagnostic: str | None = None


def _validate_two_point(a: float, r: float, p: float, delta: float, n: int) -> None:
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    if not r > 0:
        raise ValueError("r must be positive")
    if not p > 0:
        raise ValueError("p must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 1 <= n <= MAX_EXACT_N:
        raise ValueError(f"n must be an integer in [1, {MAX_EXACT_N}]")


def _interval_k(a: float, p: float, delta: float, n: int) -> tuple[int, int]:
    """Integer k range of the concentration event; the level r cancels."""
    q = 1.0 - a
    lo_x = math.exp(p * math.log1p(-delta)) * n * q
    hi_x = math.exp(p * math.log1p(delta)) * n * q
    return max(math.ceil(lo_x), 0), min(math.floor(hi_x), n)


def _masses(n: int, q: float, k_lo: int, k_hi: int) -> np.ndarray:
    """P(K = k) for k_lo <= k <= k_hi, K ~ Binomial(n, q); empty when k_hi < k_lo."""
    return np.exp(binom_logpmf(np.arange(k_lo, k_hi + 1, dtype=float), n, q))


def _mass(n: int, q: float, k_lo: int, k_hi: int) -> float:
    return math.fsum(_masses(n, q, k_lo, k_hi))


def exact_two_point_concentration(a: float, r: float, p: float, delta: float, n: int) -> float:
    """Exact probability that the powered sum stays inside the band.

    The powered norm equals k * r^p with k the nonzero count, so the event
    is an inclusive integer interval for k and r drops out entirely.
    """
    _validate_two_point(a, r, p, delta, n)
    lo, hi = _interval_k(a, p, delta, n)
    return _mass(n, 1.0 - a, lo, hi)


def exact_two_point_tails(
    a: float, r: float, p: float, delta: float, n: int
) -> tuple[float, float, float]:
    """(below, inside, above) masses; they sum to 1 up to float rounding."""
    _validate_two_point(a, r, p, delta, n)
    lo, hi = _interval_k(a, p, delta, n)
    q = 1.0 - a
    return _mass(n, q, 0, lo - 1), _mass(n, q, lo, hi), _mass(n, q, hi + 1, n)


def binomial_mode_prob(a: float, n: int) -> float:
    """P(k = n(1-a)); zero when n(1-a) is not an integer."""
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be a positive integer")
    return float(_mode_probs(a, np.array([float(n)]))[0])


def _mode_probs(a: float, ns: np.ndarray) -> np.ndarray:
    """binomial_mode_prob(a, n) at each n of ns."""
    c = ns * (1.0 - a)
    k = np.round(c)
    whole = np.abs(c - k) <= _MODE_INT_TOL * np.maximum(1.0, np.abs(c))
    return np.where(whole, np.exp(binom_logpmf(k, ns, 1.0 - a)), 0.0)


def berry_esseen_bounds(
    a: float, p: float, delta: float, n: int, C_const: float = BE_C_DEFAULT
) -> BerryEsseenBounds:
    """Lower bounds on both tail probabilities of the nonzero count.

    Bounds may be negative (vacuous); they are reported unclipped with
    flags so validity tests can still compare them against the exact tails.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    if not BE_C_MIN <= C_const <= BE_C_MAX:
        raise ValueError(f"C_const must lie in [{BE_C_MIN}, {BE_C_MAX}]")
    if not p > 0:
        raise ValueError("p must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be a positive integer")
    q = 1.0 - a
    sigma = math.sqrt(a * q)
    rho = a * q * (1.0 - 2.0 * q + 2.0 * q * q)
    err = C_const * rho / (sigma**3 * math.sqrt(n))
    # (1+delta)^p - 1 and 1 - (1-delta)^p through expm1: at p ~ 1e-3 the
    # direct power loses the digits the normal term depends on
    up_gap = math.expm1(p * math.log1p(delta))
    lo_gap = -math.expm1(p * math.log1p(-delta))
    scale = math.sqrt(n) * q / sigma
    upper = (1.0 - ndtr(scale * up_gap)) - err
    lower = (1.0 - ndtr(scale * lo_gap)) - err
    return BerryEsseenBounds(
        sigma=sigma,
        rho=rho,
        C_const=C_const,
        upper_tail_lower_bound=upper,
        lower_tail_lower_bound=lower,
        upper_vacuous=upper <= 0.0,
        lower_vacuous=lower <= 0.0,
    )


def p_star_for_epsilon(a: float, delta: float, epsilon: float, n: int) -> float:
    """Largest p keeping both normal-term arguments at or below epsilon.

    Closed-form inversion of the two band constraints; the second one is
    vacuous once epsilon*sigma/((1-a)*sqrt(n)) reaches 1.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if n < 1:
        raise ValueError("n must be a positive integer")
    q = 1.0 - a
    c = epsilon * math.sqrt(a * q) / (q * math.sqrt(n))
    upper_sol = math.log1p(c) / math.log1p(delta)
    lower_sol = math.inf if c >= 1.0 else math.log1p(-c) / math.log1p(-delta)
    return min(upper_sol, lower_sol)


def _input_seed(*parts) -> int:
    text = "|".join(repr(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def find_p_star(
    dist: Distribution,
    n: int,
    delta: float,
    Delta: float,
    method: str = "exact-binomial",
    M: int = 100_000,
    iterations: int = 40,
    workers: int | None = None,
) -> AntiConcReport:
    """Largest p in (1e-6, 2] whose concentration probability is <= Delta.

    Exact-binomial evaluation needs |x| supported on {0, r}; anything else
    must use the monte-carlo method (seeded deterministically from the
    inputs), which draws its M vectors once and evaluates every p of the
    bisection on them: it holds log|x| of up to 2^25 entries (256 MiB) and
    draws chunks past that again at each p (monte_carlo.band_frequency_at),
    all on one thread pool that is shut down, its threads joined, before
    this returns.
    When even p = 1e-6 sits above Delta, p_star is reported absent with a
    diagnostic: the dimension is below the threshold where the mode mass
    P(k = n(1-a)) clears the target.
    """
    atom = dist.atom_at_zero
    if not atom > 0:
        raise ValueError("find_p_star needs a law with P(x = 0) > 0")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 0.0 < Delta < 1.0:
        raise ValueError("Delta must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be a positive integer")

    two_point = getattr(dist, "abs_two_point", None)
    if method == "exact-binomial":
        if two_point is None:
            raise ValueError(
                "exact-binomial needs |x| supported on {0, r}; use method='monte-carlo'"
            )

        # the band widens with p, so the masses of the widest one, at p = 2,
        # serve every p of the bisection
        a = two_point[0]
        _validate_two_point(a, two_point[1], 2.0, delta, n)
        k_lo, k_hi = _interval_k(a, 2.0, delta, n)
        masses = _masses(n, 1.0 - a, k_lo, k_hi)

        def prob(p: float) -> float:
            lo, hi = _interval_k(a, p, delta, n)
            return math.fsum(masses[lo - k_lo : hi - k_lo + 1]) if lo <= hi else 0.0

        return _bisect_p_star(prob, atom, n, delta, Delta, method, iterations)
    if method == "monte-carlo":
        seed = _input_seed("p-star", dist.spec_string(), n, delta, Delta, M)
        with ThreadPoolExecutor(max_workers=monte_carlo._threads(workers, M)) as pool:
            prob = monte_carlo.band_frequency_at(dist, n, delta, M, seed, workers, pool=pool)
            return _bisect_p_star(prob, atom, n, delta, Delta, method, iterations, M, seed)
    raise ValueError("method must be 'exact-binomial' or 'monte-carlo'")


def _bisect_p_star(
    prob: Callable[[float], float], atom: float, n: int, delta: float, Delta: float,
    method: str, iterations: int, sample_count: int | None = None, seed: int | None = None,
) -> AntiConcReport:
    """find_p_star's bisection of prob over p in (1e-6, 2]."""
    mode_prob = binomial_mode_prob(atom, n)

    def report(p_star: float | None, prob_at: float, diagnostic: str | None = None):
        return AntiConcReport(
            n=n,
            delta=delta,
            target_Delta=Delta,
            p_star=p_star,
            exact_prob_at_p_star=prob_at,
            binomial_mode_prob=mode_prob,
            method=method,
            sample_count=sample_count,
            seed=seed,
            diagnostic=diagnostic,
        )

    lo, hi = 1e-6, 2.0
    prob_lo = prob(lo)
    if prob_lo > Delta:
        hint = min_dimension(atom, Delta)
        return report(
            None,
            prob_lo,
            f"probability {prob_lo:.6g} at p = {lo:g} already exceeds the target "
            f"{Delta:g}; the mode mass floor is {mode_prob:.6g}. "
            f"Dimensions of at least {hint} keep that floor under Delta/2.",
        )
    prob_hi = prob(hi)
    if prob_hi <= Delta:
        return report(hi, prob_hi)
    best_p, best_prob = lo, prob_lo
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        prob_mid = prob(mid)
        if prob_mid <= Delta:
            lo, best_p, best_prob = mid, mid, prob_mid
        else:
            hi = mid
    return report(best_p, best_prob)


def min_dimension(
    a: float, Delta: float, conservative: bool = False, C_const: float = BE_C_DEFAULT
) -> int:
    """Dimension from which the mode mass P(k = n(1-a)) stays under Delta/2.

    The default scans the integers where n(1-a) is integral (elsewhere the
    mass is zero) for the last violator.  conservative=True instead returns
    the analytic 16 C^2 rho^2 / (sigma^6 Delta^2) threshold, which needs no
    scan but is far larger.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    if not 0.0 < Delta < 1.0:
        raise ValueError("Delta must lie in (0, 1)")
    q = 1.0 - a
    if conservative:
        sigma2 = a * q
        rho = a * q * (1.0 - 2.0 * q + 2.0 * q * q)
        return math.ceil(16.0 * C_const**2 * rho**2 / (sigma2**3 * Delta**2))
    frac = Fraction(q).limit_denominator(MAX_EXACT_N)
    if abs(float(frac) - q) > _MODE_INT_TOL:
        return 1
    # the mode masses of n = period, 2 period, ... in batches that double,
    # up to the first under Delta/2
    ns = np.arange(frac.denominator, MAX_EXACT_N + 1, frac.denominator, dtype=float)
    start, size = 0, 64
    while start < ns.size:
        under = np.flatnonzero(_mode_probs(a, ns[start : start + size]) < 0.5 * Delta)
        if under.size:
            first = start + int(under[0])
            return int(ns[first - 1]) + 1 if first else 1
        start, size = start + size, 2 * size
    return int(ns[-1]) + 1
