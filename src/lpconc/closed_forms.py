"""Closed-form rates and curvature constants for the solvable families.

Every function here has a slower numerical twin in :mod:`lpconc.rate_engine`
built from moments and quadrature.  The pairs are cross-checked in the test
suite, so either path can serve as an oracle for the other.  A law names its
family once, in its ``closed_family`` tag; ``small_p_closed`` and
``phi_closed`` look that tag up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ._special import gammaln
from .distributions import as_sign

__all__ = [
    "uniform_f",
    "uniform_maximizer",
    "diff_uniform_f",
    "diff_uniform_maximizer",
    "small_p_closed",
    "phi_closed",
    "cube_upper_bound",
    "PHI_FAMILIES",
    "CatalogEntry",
    "catalog",
]

PHI_FAMILIES = ("uniform-cube", "diff-uniform", "standard-normal")


def _band_log(delta: float, sign) -> float:
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return math.log1p(as_sign(sign) * delta)


def uniform_f(delta: float, sign) -> float:
    """Small-p rate for coordinates uniform on a symmetric interval.

    The interval half-width drops out, so no scale argument is taken.
    """
    big_l = _band_log(delta, sign)
    return -(big_l + math.log1p(-big_l))


def uniform_maximizer(delta: float, sign) -> float:
    """Optimal y in the small-p variational problem behind uniform_f."""
    s = as_sign(sign)
    big_l = _band_log(delta, sign)
    return s * big_l / (1.0 - big_l)


def diff_uniform_f(delta: float, sign) -> float:
    """Small-p rate for coordinate differences of two independent uniforms."""
    big_l = _band_log(delta, sign)
    root = math.sqrt(25.0 - 12.0 * big_l + 4.0 * big_l * big_l)
    return 1.25 - 1.5 * big_l - 0.25 * root - math.log(root - 4.0)


def diff_uniform_maximizer(delta: float, sign) -> float:
    """Optimal y behind diff_uniform_f; kept separate as a cross-check path."""
    s = as_sign(sign)
    big_l = _band_log(delta, sign)
    root = math.sqrt(25.0 - 12.0 * big_l + 4.0 * big_l * big_l)
    return (-5.0 + 6.0 * big_l + root) / (s * (6.0 - 4.0 * big_l))


def small_p_closed(family: str | None, delta: float, sign) -> float | None:
    """Small-p rate for a family that has a closed one; None otherwise,
    and outside 0 < delta < 1, where the closed forms are not defined.

    The small-p limit is scale-free, so every uniform |x| shares uniform_f.
    """
    if not 0.0 < delta < 1.0:
        return None
    if family == "uniform-cube":
        return uniform_f(delta, sign)
    if family == "diff-uniform":
        return diff_uniform_f(delta, sign)
    return None


def phi_closed(family: str, p: float) -> float:
    """Small-delta curvature coefficient phi(p) for a named family.

    phi is the limit of rate/delta^2 as the band shrinks; see
    rate_engine.phi for the generic moment formula.
    """
    if not p > 0:
        raise ValueError("p must be positive")
    if family == "uniform-cube":
        return 0.5 + p
    if family == "diff-uniform":
        return (2.0 + 4.0 * p) / (5.0 + p)
    if family == "standard-normal":
        # moment ratio E[|x|^{2p}] / E[|x|^p]^2 through log-Gamma; the direct
        # Gamma quotient overflows near p ~ 170
        log_ratio = (
            0.5 * math.log(math.pi)
            + gammaln(p + 0.5)
            - 2.0 * gammaln(0.5 * (p + 1.0))
        )
        return 0.5 * p * p / math.expm1(log_ratio)
    raise ValueError(f"no closed curvature formula for family {family!r}")


def cube_upper_bound(delta: float, n: int) -> float:
    """Upper-tail probability bound for the uniform cube at band delta.

    Returns the n-th power of (1+delta)*(1-log(1+delta)), evaluated in log
    space so large n underflows to 0 instead of raising.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be a positive integer")
    return math.exp(-n * uniform_f(delta, +1))


@dataclass(frozen=True)
class CatalogEntry:
    family: str
    quantity: str
    valid: str
    fn: Callable[..., float]


def catalog() -> tuple[CatalogEntry, ...]:
    """Registry of every closed form with its validity range."""
    return (
        CatalogEntry("uniform-cube", "small-p-rate", "delta in (0,1), sign +/-", uniform_f),
        CatalogEntry("diff-uniform", "small-p-rate", "delta in (0,1), sign +/-", diff_uniform_f),
        CatalogEntry("uniform-cube", "curvature", "p > 0", lambda p: phi_closed("uniform-cube", p)),
        CatalogEntry("diff-uniform", "curvature", "p > 0", lambda p: phi_closed("diff-uniform", p)),
        CatalogEntry("standard-normal", "curvature", "p > 0", lambda p: phi_closed("standard-normal", p)),
        CatalogEntry("uniform-cube", "upper-tail-product", "delta in (0,1), n >= 1", cube_upper_bound),
    )
