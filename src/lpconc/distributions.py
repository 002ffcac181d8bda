"""Component laws and their absolute-moment machinery.

Every distribution here models one coordinate x of a product vector; all
derived quantities (moments, MGFs, CDFs) refer to |x|.  The MGF evaluation
is the numerical backbone of the rate engine, so it is organized to stay
accurate for exponents p anywhere between 1e-6 and a few hundred.

Each law has one private kernel, ``_tilted(t, p, s)``, returning the
log-MGF K = log E[exp(s*t*|x|^p)] together with the mean and variance of
W = |x|^p / mu_p under the law tilted by exp(s*t*|x|^p); the rate engine's
Newton iteration runs on these two moments, and ``log_mgf_abs_p`` returns K.
Each atom-free law also has ``_log_tilted(y, s)``, the same triple for the
p -> 0 limit: K = log E|x|^{s*y} and the moments of log|x| under the tilt
|x|^{s*y}, in closed form or (empirical laws) as exact sums.  A law whose
rates have closed forms names its family in ``closed_family``.

* discrete laws (two-point, empirical) take exact sums over their atoms,
* the normal at p = 2 uses the chi-square closed form,
* zero-inflated laws mix their base law's kernel with the atom at zero,
* continuous laws integrate in the u = x^p coordinate for p < 1, where the
  x-domain integrand degenerates into a boundary spike, and in x otherwise.
  A probe grid, refined geometrically toward both ends of the support,
  finds the peak of the log-integrand and the window within _LOG_TRUNC of
  it; one fixed composite Gauss-Legendre rule over that window, evaluated
  as a single numpy array and shifted by its largest node value, gives the
  log-integral, and the same node weights give the two tilted moments.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._special import digamma_trigamma, gammaln, logsumexp
from .seeding import generator

# switch the MGF integral to the u = x^p coordinate below this p
_POWER_COORD_P = 1.0
# drop integrand contributions this far (in log) below the peak
_LOG_TRUNC = 80.0
# composite Gauss-Legendre rule: points per panel, uniform panels per window
_GL_ORDER = 16
_WINDOW_PANELS = 64
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)
# on unbounded support the MGF window's upper limit doubles at most this often
_MAX_DOUBLINGS = 200
_LOG2 = math.log(2.0)


def as_sign(sign) -> int:
    """Normalize '+'/'-' (or +1/-1) to an integer sign."""
    if sign in ("+", 1):
        return 1
    if sign in ("-", -1):
        return -1
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def _log_integral(
    log_weight, log_w, lo: float, hi: float, probes: np.ndarray, vals: np.ndarray
) -> tuple[float, float, float]:
    """(log integral, tilted mean, tilted variance) of exp(log_weight(u)) over (lo, hi).

    The probes, with vals = log_weight(probes), locate the peak and the
    window of probes whose log-integrand lies within _LOG_TRUNC of it,
    widened by one probe on each side.  A composite _GL_ORDER-point
    Gauss-Legendre rule covers that window, with panel edges at every probe
    inside it (so the probe grid's geometric refinement toward an endpoint
    grades the panels there) plus _WINDOW_PANELS uniform panels.
    log_weight is evaluated once, on all nodes, and the sum is shifted by
    the largest node value, so no node value is clipped however far it
    rises above the probes.  The same node weights, normalized, give the
    mean and (two-pass) variance of W = exp(log_w(u)).
    """
    finite = np.isfinite(vals)
    if not finite.any():
        return -math.inf, math.nan, math.nan
    inside = np.flatnonzero(vals >= vals[finite].max() - _LOG_TRUNC)
    first, last = inside[0], inside[-1]
    a = probes[first - 1] if first > 0 else lo
    b = probes[last + 1] if last + 1 < probes.size else hi
    edges = np.unique(
        np.concatenate([probes[first : last + 1], np.linspace(a, b, _WINDOW_PANELS + 1)])
    )
    half = 0.5 * np.diff(edges)[:, None]
    nodes = ((0.5 * (edges[:-1] + edges[1:]))[:, None] + half * _GL_NODES).ravel()
    weights = (half * _GL_WEIGHTS).ravel()
    lv = np.asarray(log_weight(nodes), dtype=float)
    keep = np.isfinite(lv)
    if not keep.any():
        return -math.inf, math.nan, math.nan
    shift = float(lv[keep].max())
    mass = np.exp(lv[keep] - shift)
    total = float(weights[keep] @ mass)
    mass *= weights[keep] / total
    with np.errstate(divide="ignore"):
        w = np.exp(log_w(nodes[keep]))
    mean = float(mass @ w)
    w -= mean
    return shift + math.log(total), mean, float(mass @ (w * w))


def _spec_float(x: float) -> str:
    """x for a spec string: the short :g form when it reads back as x, else repr."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def _power_log_tilted(q: float, log_b: float, triangular: bool) -> tuple[float, float, float]:
    """_log_tilted at q = s*y for |x| on [0, b] with a flat density, or with
    density proportional to 1 - x/b (triangular).  Under the tilt x^q,
    -log(x/b) is an Exp(1+q) variable, plus an independent Exp(2+q) one
    for the triangular density."""
    if q <= -1.0:
        return math.inf, math.nan, math.nan
    r1 = 1.0 / (1.0 + q)
    k, m, v = q * log_b - math.log1p(q), log_b - r1, r1 * r1
    if triangular:
        r2 = 1.0 / (2.0 + q)
        k, m, v = k - math.log1p(0.5 * q), m - r2, v + r2 * r2
    return k, m, v


def _with_atom_at_zero(
    a: float, k_base: float, m_base: float, v_base: float
) -> tuple[float, float, float]:
    """Kernel of the law with mass a at zero and 1-a on a base law whose kernel
    is (k_base, m_base, v_base).  W = W_base / (1-a) off the atom, which
    carries tilted mass q; the variance adds the spread between the parts."""
    spike = math.log1p(-a) + k_base
    k = float(np.logaddexp(math.log(a), spike))
    q = math.exp(spike - k)
    q_atom = math.exp(math.log(a) - k)
    return k, q * m_base / (1.0 - a), (q * v_base + q * q_atom * m_base**2) / (1.0 - a) ** 2


def _probe_grid(lo: float, hi: float, extra: Sequence[float] = ()) -> np.ndarray:
    """Probe points in (lo, hi]: uniform, plus geometric toward both ends."""
    offsets = (hi - lo) * np.geomspace(1e-12, 1.0, 97)
    pts = np.concatenate(
        [
            np.linspace(lo, hi, 241)[1:],
            lo + offsets,
            hi - offsets[:-1],
            np.asarray([x for x in extra if lo < x < hi], dtype=float),
        ]
    )
    return np.unique(pts)


class Distribution:
    """Base class for component laws (the |x| view)."""

    atom_at_zero: float = 0.0
    has_abs_atoms: bool = False
    # key of this law's family in closed_forms, or None
    closed_family: str | None = None

    # --- family facts -------------------------------------------------
    @property
    def ess_sup(self) -> float:
        raise NotImplementedError

    @property
    def ess_inf_abs(self) -> float:
        return 0.0

    @property
    def exp_moment_order(self) -> float:
        """Largest p0 such that E[exp(t*|x|^p0)] is finite for some t > 0."""
        return math.inf

    def mgf_t_bound(self, p: float) -> float:
        """Supremum of t with E[exp(t*|x|^p)] < inf."""
        return math.inf

    # --- moments --------------------------------------------------------
    def abs_moment(self, q: float) -> float:
        """E[|x|^q] for real q (negative q allowed); +inf on divergence."""
        raise NotImplementedError

    def mu_p(self, p: float) -> float:
        if not (p > 0):
            raise ValueError("mu_p requires p > 0; the p = 0 endpoint is a limit")
        return self.abs_moment(p)

    def neg_moment(self, y: float) -> float:
        if y < 0:
            raise ValueError("neg_moment requires y >= 0")
        if y == 0:
            return 1.0
        if self.atom_at_zero > 0:
            return math.inf
        return self.abs_moment(-y)

    def log_moments(self) -> tuple[float, float]:
        """(E[log|x|], Var[log|x|]), the untilted moments of _log_tilted;
        undefined with an atom at zero."""
        if self.atom_at_zero > 0:
            raise ValueError("log moments undefined for a law with P(x=0) > 0")
        return self._log_tilted(0.0, 1)[1:]

    # --- MGF of |x|^p ----------------------------------------------------
    def log_mgf_abs_p(self, t: float, p: float, sign) -> float:
        """log E[exp(s*t*|x|^p)]; +inf when the integral diverges."""
        s = as_sign(sign)
        if not (p > 0):
            raise ValueError("log_mgf_abs_p requires p > 0")
        if t < 0:
            raise ValueError("log_mgf_abs_p requires t >= 0")
        if t == 0:
            return 0.0
        if s > 0 and t >= self.mgf_t_bound(p):
            return math.inf
        return self._tilted(t, p, s)[0]

    def _tilted(self, t: float, p: float, s: int) -> tuple[float, float, float]:
        """(K, m, v) at t > 0: K = log E[exp(s*t*|x|^p)], and the mean and
        variance of W = |x|^p / mu_p under the law tilted by exp(s*t*|x|^p).
        K is +inf (and m, v nan) where the MGF diverges."""
        raise NotImplementedError

    def _log_tilted(self, y: float, s: int) -> tuple[float, float, float]:
        """(K, m, v) at y >= 0 with q = s*y: K = log E|x|^q, and the mean and
        variance of log|x| under the law tilted by |x|^q.  K is +inf (and
        m, v nan) where the moment diverges.  Atom-free laws only."""
        raise NotImplementedError

    # --- CDF of |x| -------------------------------------------------------
    def cdf_abs(self, x: float) -> float:
        """P(|x| <= x)."""
        raise NotImplementedError

    def cdf_abs_left(self, x: float) -> float:
        """P(|x| < x)."""
        return self.cdf_abs(x)

    # --- sampling ----------------------------------------------------------
    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec_string()!r})"


class _ContinuousLaw(Distribution):
    """Density-specified law of |x| on (0, B); no atoms anywhere."""

    def _abs_logpdf(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _tail_cut(self) -> float:
        """x beyond which the density is numerically zero (inf support only)."""
        return self.ess_sup

    def _tilted(self, t: float, p: float, s: int) -> tuple[float, float, float]:
        # W = exp(p log x - log mu_p): forming x^p and its square directly
        # overflows on wide supports at large p
        log_mu = math.log(self.mu_p(p))
        if p < _POWER_COORD_P:
            return self._tilted_power_coord(t, p, s, log_mu)
        return self._tilted_plain(t, p, s, log_mu)

    def _tilted_plain(self, t: float, p: float, s: int, log_mu: float):
        hi = min(self.ess_sup, self._tail_cut())

        def log_weight(x):
            x = np.asarray(x, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                return s * t * np.power(x, p) + self._abs_logpdf(x)

        def log_w(x):
            return p * np.log(x) - log_mu

        extra = self._stationary_points(t, p, s)
        return _log_integral(log_weight, log_w, 0.0, *self._probes(log_weight, hi, extra))

    def _tilted_power_coord(self, t: float, p: float, s: int, log_mu: float):
        # u = x^p; du = p x^{p-1} dx keeps the small-p integrand a smooth bump
        hi = min(self.ess_sup, self._tail_cut()) ** p

        def log_weight(u):
            u = np.asarray(u, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                x = np.power(u, 1.0 / p)
                return (
                    s * t * u
                    + (1.0 / p - 1.0) * np.log(u)
                    + self._abs_logpdf(x)
                    - math.log(p)
                )

        def log_w(u):
            return np.log(u) - log_mu

        extra = []
        if s < 0 and t > 0:
            extra.append((1.0 / p - 1.0) / t)
        return _log_integral(log_weight, log_w, 0.0, *self._probes(log_weight, hi, extra))

    def _stationary_points(self, t: float, p: float, s: int) -> list[float]:
        return []

    def _probes(self, log_weight, hi: float, extra: Sequence[float]):
        """(hi, probes, vals): probes = _probe_grid(0, hi, extra), vals on them.

        On unbounded support _expand_upper first doubles hi; the grid it
        evaluated at the final hi is kept, and only the extra points are
        evaluated and merged in, so each probe is evaluated once.
        """
        if math.isfinite(self.ess_sup):
            probes = _probe_grid(0.0, hi, extra)
            return hi, probes, np.asarray(log_weight(probes), dtype=float)
        hi, probes, vals = self._expand_upper(log_weight, hi)
        extra = np.asarray([x for x in extra if 0.0 < x < hi], dtype=float)
        if extra.size:
            probes, first = np.unique(np.concatenate([probes, extra]), return_index=True)
            vals = np.concatenate([vals, np.asarray(log_weight(extra), dtype=float)])[first]
        return hi, probes, vals

    @staticmethod
    def _expand_upper(log_weight, hi: float):
        """Double hi until the log-integrand there lies _LOG_TRUNC below the
        probed peak; return hi, its probe grid and the log-integrand on it."""
        for _ in range(_MAX_DOUBLINGS):
            probes = _probe_grid(0.0, hi)
            vals = np.asarray(log_weight(probes), dtype=float)
            peak = np.nanmax(np.where(np.isfinite(vals), vals, -np.inf))
            edge = float(log_weight(np.asarray([hi]))[0])
            if not math.isfinite(edge) or edge < peak - _LOG_TRUNC:
                return hi, probes, vals
            hi *= 2.0
        probes = _probe_grid(0.0, hi)
        return hi, probes, np.asarray(log_weight(probes), dtype=float)


@dataclass(frozen=True, repr=False)
class UniformSymmetric(_ContinuousLaw):
    """Uniform on [-b, b]; |x| is uniform on [0, b]."""

    b: float = 1.0
    closed_family = "uniform-cube"

    def __post_init__(self):
        if not (self.b > 0 and math.isfinite(self.b)):
            raise ValueError("uniform halfwidth b must be positive and finite")

    @property
    def ess_sup(self) -> float:
        return self.b

    def abs_moment(self, q: float) -> float:
        if q <= -1:
            return math.inf
        return self.b**q / (1.0 + q)

    def _log_tilted(self, y: float, s: int) -> tuple[float, float, float]:
        return _power_log_tilted(s * y, math.log(self.b), False)

    def _abs_logpdf(self, x):
        out = np.full_like(x, -np.inf, dtype=float)
        inside = (x > 0) & (x < self.b)
        out[inside] = -math.log(self.b)
        return out

    def cdf_abs(self, x: float) -> float:
        return float(np.clip(x / self.b, 0.0, 1.0))

    def draw(self, rng, size):
        return rng.uniform(-self.b, self.b, size)

    def spec_string(self) -> str:
        return f"uniform:b={_spec_float(self.b)}"


@dataclass(frozen=True, repr=False)
class UniformUnit(_ContinuousLaw):
    """Uniform on [0, 1]."""

    closed_family = "uniform-cube"

    @property
    def ess_sup(self) -> float:
        return 1.0

    def abs_moment(self, q: float) -> float:
        if q <= -1:
            return math.inf
        return 1.0 / (1.0 + q)

    def _log_tilted(self, y: float, s: int) -> tuple[float, float, float]:
        return _power_log_tilted(s * y, 0.0, False)

    def _abs_logpdf(self, x):
        out = np.full_like(x, -np.inf, dtype=float)
        out[(x > 0) & (x < 1)] = 0.0
        return out

    def cdf_abs(self, x: float) -> float:
        return float(np.clip(x, 0.0, 1.0))

    def draw(self, rng, size):
        return rng.random(size)

    def spec_string(self) -> str:
        return "uniform01"


@dataclass(frozen=True, repr=False)
class DiffUniform(_ContinuousLaw):
    """|y - z| for independent y, z uniform on [-1, 1]; density 1 - x/2 on [0, 2]."""

    closed_family = "diff-uniform"

    @property
    def ess_sup(self) -> float:
        return 2.0

    def abs_moment(self, q: float) -> float:
        if q <= -1:
            return math.inf
        return 2.0 ** (1.0 + q) / ((1.0 + q) * (2.0 + q))

    def _log_tilted(self, y: float, s: int) -> tuple[float, float, float]:
        return _power_log_tilted(s * y, _LOG2, True)

    def _abs_logpdf(self, x):
        out = np.full_like(x, -np.inf, dtype=float)
        inside = (x > 0) & (x < 2)
        out[inside] = np.log1p(-x[inside] / 2.0)
        return out

    def cdf_abs(self, x: float) -> float:
        x = float(np.clip(x, 0.0, 2.0))
        return x - x * x / 4.0

    def draw(self, rng, size):
        return rng.uniform(-1.0, 1.0, size) - rng.uniform(-1.0, 1.0, size)

    def spec_string(self) -> str:
        return "diffuniform"


@dataclass(frozen=True, repr=False)
class StandardNormal(_ContinuousLaw):
    """Standard normal; |x| is half-normal."""

    closed_family = "standard-normal"

    @property
    def ess_sup(self) -> float:
        return math.inf

    @property
    def exp_moment_order(self) -> float:
        return 2.0

    def mgf_t_bound(self, p: float) -> float:
        if p < 2.0:
            return math.inf
        if p == 2.0:
            return 0.5
        return 0.0

    def abs_moment(self, q: float) -> float:
        if q <= -1:
            return math.inf
        return math.exp(
            (q / 2.0) * math.log(2.0) + gammaln((q + 1.0) / 2.0) - 0.5 * math.log(math.pi)
        )

    def _log_tilted(self, y: float, s: int) -> tuple[float, float, float]:
        # E|x|^q = 2^{q/2} Gamma(h) / sqrt(pi) with h = (q+1)/2
        q = s * y
        if q <= -1.0:
            return math.inf, math.nan, math.nan
        h = 0.5 * (q + 1.0)
        psi, psi1 = digamma_trigamma(h)
        k = 0.5 * q * _LOG2 + gammaln(h) - 0.5 * math.log(math.pi)
        return k, 0.5 * (_LOG2 + psi), 0.25 * psi1

    def _abs_logpdf(self, x):
        out = np.full_like(x, -np.inf, dtype=float)
        inside = x > 0
        out[inside] = 0.5 * math.log(2.0 / math.pi) - x[inside] ** 2 / 2.0
        return out

    def _tail_cut(self) -> float:
        return 42.0

    def _stationary_points(self, t, p, s):
        # the plus-side peak x* = (t p)^(1/(2-p)); near p = 2 it can pass the
        # float range, but no window reaches past _MAX_DOUBLINGS doublings
        if s > 0 and p < 2.0:
            if math.log(t * p) / (2.0 - p) < math.log(self._tail_cut()) + _MAX_DOUBLINGS * _LOG2:
                return [(t * p) ** (1.0 / (2.0 - p))]
        return []

    def _tilted(self, t: float, p: float, s: int) -> tuple[float, float, float]:
        if p == 2.0:
            # x^2 is chi-square(1): under exp(s t x^2) it is Gamma(1/2, 2/c),
            # c = 1 - 2 s t, and mu_2 = 1
            c = 1.0 - 2.0 * s * t
            if c <= 0.0:
                return math.inf, math.nan, math.nan
            return -0.5 * math.log(c), 1.0 / c, 2.0 / (c * c)
        if p > 2.0 and s > 0:
            return math.inf, math.nan, math.nan
        return super()._tilted(t, p, s)

    def cdf_abs(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return math.erf(x / math.sqrt(2.0))

    def draw(self, rng, size):
        return rng.standard_normal(size)

    def spec_string(self) -> str:
        return "normal"


@dataclass(frozen=True, repr=False)
class TwoPoint(Distribution):
    """P(x=0) = a, P(x=r) = 1-a."""

    a: float
    r: float = 1.0
    has_abs_atoms = True

    def __post_init__(self):
        if not (0.0 < self.a < 1.0):
            raise ValueError("atom probability a must lie strictly in (0, 1)")
        if not (self.r > 0 and math.isfinite(self.r)):
            raise ValueError("spike location r must be positive and finite")

    @property
    def atom_at_zero(self) -> float:  # type: ignore[override]
        return self.a

    @property
    def ess_sup(self) -> float:
        return self.r

    @property
    def abs_two_point(self) -> tuple[float, float]:
        """(atom probability, spike) of the |x| law."""
        return self.a, self.r

    def abs_moment(self, q: float) -> float:
        if q == 0:
            return 1.0
        if q < 0:
            return math.inf
        return self.r**q * (1.0 - self.a)

    def _tilted(self, t: float, p: float, s: int) -> tuple[float, float, float]:
        # the spike is a point mass: W_base = 1 with no variance
        return _with_atom_at_zero(self.a, s * t * self.r**p, 1.0, 0.0)

    def cdf_abs(self, x: float) -> float:
        if x < 0:
            return 0.0
        return self.a if x < self.r else 1.0

    def cdf_abs_left(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return self.a if x <= self.r else 1.0

    def draw(self, rng, size):
        return np.where(rng.random(size) < self.a, 0.0, self.r)

    def spec_string(self) -> str:
        return f"twopoint:a={_spec_float(self.a)},r={_spec_float(self.r)}"


class ThreePointSymmetric(TwoPoint):
    """P(x=0) = a, P(x=r) = P(x=-r) = (1-a)/2; |x| is TwoPoint(a, r)'s law."""

    def draw(self, rng, size):
        u = rng.random(size)
        signs = np.where(rng.random(size) < 0.5, -1.0, 1.0)
        return np.where(u < self.a, 0.0, self.r * signs)

    def spec_string(self) -> str:
        return f"threepoint:a={_spec_float(self.a)},r={_spec_float(self.r)}"


@dataclass(frozen=True, repr=False)
class ZeroInflated(Distribution):
    """x = 0 with probability a, else a draw from an atom-free base law."""

    a: float
    base: Distribution
    has_abs_atoms = True

    def __post_init__(self):
        if not (0.0 < self.a < 1.0):
            raise ValueError("atom probability a must lie strictly in (0, 1)")
        if self.base.atom_at_zero > 0:
            raise ValueError("zero-inflated base law must not carry its own atom at zero")

    @property
    def atom_at_zero(self) -> float:  # type: ignore[override]
        return self.a

    @property
    def ess_sup(self) -> float:
        return self.base.ess_sup

    @property
    def exp_moment_order(self) -> float:
        return self.base.exp_moment_order

    def mgf_t_bound(self, p: float) -> float:
        return self.base.mgf_t_bound(p)

    def abs_moment(self, q: float) -> float:
        if q == 0:
            return 1.0
        if q < 0:
            return math.inf
        return (1.0 - self.a) * self.base.abs_moment(q)

    def _tilted(self, t: float, p: float, s: int) -> tuple[float, float, float]:
        base = self.base._tilted(t, p, s)
        if base[0] == math.inf:
            return base
        return _with_atom_at_zero(self.a, *base)

    def cdf_abs(self, x: float) -> float:
        if x < 0:
            return 0.0
        return self.a + (1.0 - self.a) * self.base.cdf_abs(x)

    def cdf_abs_left(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return self.a + (1.0 - self.a) * self.base.cdf_abs_left(x)

    def draw(self, rng, size):
        keep = rng.random(size) >= self.a
        vals = self.base.draw(rng, size)
        # arithmetic, not a masked copy, which branches on every entry;
        # adding 0.0 turns the -0.0 of a negative draw times 0 into +0.0
        vals *= keep
        vals += 0.0
        return vals

    def spec_string(self) -> str:
        return f"zeroinflated:a={_spec_float(self.a)},base={self.base.spec_string()}"


class Empirical(Distribution):
    """Law of a finite sample; every statistic is the sample statistic."""

    has_abs_atoms = True

    def __init__(self, samples: Sequence[float], label: str | None = None):
        values = np.asarray(samples, dtype=float)
        if values.size == 0:
            raise ValueError("empirical law needs at least one sample")
        if not np.all(np.isfinite(values)):
            raise ValueError("empirical samples must all be finite")
        self.values = values
        self.label = label
        self._abs_sorted = np.sort(np.abs(values))

    @property
    def atom_at_zero(self) -> float:  # type: ignore[override]
        return float(np.mean(self.values == 0.0))

    @property
    def ess_sup(self) -> float:
        return float(self._abs_sorted[-1])

    @property
    def ess_inf_abs(self) -> float:
        return float(self._abs_sorted[0])

    def abs_moment(self, q: float) -> float:
        av = self._abs_sorted
        if q < 0 and av[0] == 0.0:
            return math.inf
        with np.errstate(divide="ignore"):
            powered = np.power(av, q)
        if not np.all(np.isfinite(powered)):
            return math.inf
        return float(np.mean(powered))

    def _log_tilted(self, y: float, s: int) -> tuple[float, float, float]:
        logs = np.log(self._abs_sorted)
        exponents = s * y * logs
        k = float(logsumexp(exponents))
        mass = np.exp(exponents - k)
        mean = float(mass @ logs)
        logs -= mean
        return k - math.log(logs.size), mean, float(mass @ (logs * logs))

    def _tilted(self, t: float, p: float, s: int) -> tuple[float, float, float]:
        powered = np.power(self._abs_sorted, p)
        exponents = s * t * powered
        k = float(logsumexp(exponents))
        mass = np.exp(exponents - k)
        w = powered / powered.mean()
        mean = float(mass @ w)
        w -= mean
        return k - math.log(exponents.size), mean, float(mass @ (w * w))

    def cdf_abs(self, x: float) -> float:
        return float(np.searchsorted(self._abs_sorted, x, side="right")) / self._abs_sorted.size

    def cdf_abs_left(self, x: float) -> float:
        return float(np.searchsorted(self._abs_sorted, x, side="left")) / self._abs_sorted.size

    def draw(self, rng, size):
        idx = rng.integers(0, self.values.size, size)
        return self.values[idx]

    def spec_string(self) -> str:
        return self.label or f"empirical:n={self.values.size}"

    def __repr__(self) -> str:
        return f"Empirical(n={self.values.size})"


# ---------------------------------------------------------------------------
# reports and module-level operation surface
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentReport:
    p: float
    mu_p: float
    log_mean: float | None
    log_var: float | None
    ess_sup: float
    atom_at_zero: float


@dataclass(frozen=True)
class AssumptionReport:
    a1_holds: bool
    a2_holds: bool
    p0: float | None
    t0: float | None
    a3_holds: bool
    y0: float | None
    a4_holds: bool
    p1: float | None
    atom_at_zero: float


def moment_report(dist: Distribution, p: float) -> MomentReport:
    if dist.atom_at_zero > 0:
        log_mean = log_var = None
    else:
        log_mean, log_var = dist.log_moments()
    return MomentReport(
        p=p,
        mu_p=dist.mu_p(p),
        log_mean=log_mean,
        log_var=log_var,
        ess_sup=dist.ess_sup,
        atom_at_zero=dist.atom_at_zero,
    )


def validate_assumptions(dist: Distribution) -> AssumptionReport:
    """Check the working hypotheses: i.i.d. non-degeneracy, an exponential
    moment for |x|^p0, a finite inverse moment, and an exact atom at zero."""
    atom = dist.atom_at_zero

    if isinstance(dist, Empirical):
        a1 = np.unique(dist._abs_sorted).size > 1
    else:
        a1 = True

    bounded = math.isfinite(dist.ess_sup)
    if bounded:
        a2, p0, t0 = True, math.inf, 1.0
    elif dist.exp_moment_order > 0:
        p0 = dist.exp_moment_order
        cap = dist.mgf_t_bound(p0)
        t0 = 1.0 if cap == math.inf else cap / 2.0
        a2 = True
    else:
        a2, p0, t0 = False, None, None

    if atom > 0:
        a3, y0 = False, None
    elif isinstance(dist, Empirical):
        a3, y0 = True, 1.0
    else:
        y0 = 0.5
        a3 = dist.neg_moment(y0) < math.inf

    if atom > 0:
        a4, p1 = True, 1.0
    else:
        a4, p1 = False, None

    return AssumptionReport(
        a1_holds=a1,
        a2_holds=a2,
        p0=p0,
        t0=t0,
        a3_holds=a3,
        y0=y0 if a3 else None,
        a4_holds=a4,
        p1=p1,
        atom_at_zero=atom,
    )


def sample(dist: Distribution, count: int, seed: int) -> np.ndarray:
    """Deterministic draw of `count` values for a given seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return dist.draw(generator(seed), count)


# ---------------------------------------------------------------------------
# canonical textual form
# ---------------------------------------------------------------------------


def _parse_kv(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, eq, val = part.partition("=")
        if not eq:
            raise ValueError(f"malformed distribution parameter {part!r}")
        out[key.strip()] = val.strip()
    return out


def _kv_float(kv: dict[str, str], key: str, default: float | None = None) -> float:
    if key not in kv:
        if default is None:
            raise ValueError(f"missing distribution parameter {key!r}")
        return default
    try:
        return float(kv[key])
    except ValueError as exc:
        raise ValueError(f"parameter {key!r} is not a number: {kv[key]!r}") from exc


def load_empirical_column(path: str, col: int) -> Empirical:
    """Read one numeric column from a CSV file (header row tolerated)."""
    values: list[float] = []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if not row:
                continue
            if col >= len(row):
                raise ValueError(f"{path}: row {i + 1} has no column {col}")
            cell = row[col].strip()
            try:
                values.append(float(cell))
            except ValueError:
                if i == 0:
                    continue  # header
                raise ValueError(f"{path}: row {i + 1}, column {col}: {cell!r} is not numeric")
    if not values:
        raise ValueError(f"{path}: column {col} contains no numeric data")
    return Empirical(values, label=f"empirical:path={path},col={col}")


def parse_spec(text: str) -> Distribution:
    """Parse the CLI textual form, e.g. 'uniform:b=1' or 'twopoint:a=0.5,r=1'."""
    head, _, rest = text.strip().partition(":")
    name = head.strip().lower()

    if name in ("uniform", "uniformsymmetric"):
        kv = _parse_kv(rest)
        return UniformSymmetric(b=_kv_float(kv, "b", 1.0))
    if name in ("uniform01", "uniformunit"):
        return UniformUnit()
    if name == "diffuniform":
        return DiffUniform()
    if name in ("normal", "standardnormal"):
        return StandardNormal()
    if name == "twopoint":
        kv = _parse_kv(rest)
        return TwoPoint(a=_kv_float(kv, "a"), r=_kv_float(kv, "r", 1.0))
    if name in ("threepoint", "threepointsymmetric"):
        kv = _parse_kv(rest)
        return ThreePointSymmetric(a=_kv_float(kv, "a"), r=_kv_float(kv, "r", 1.0))
    if name == "zeroinflated":
        marker = "base="
        idx = rest.find(marker)
        if idx < 0:
            raise ValueError("zeroinflated needs a base=... parameter")
        base = parse_spec(rest[idx + len(marker):])
        kv = _parse_kv(rest[:idx].rstrip(","))
        return ZeroInflated(a=_kv_float(kv, "a"), base=base)
    if name == "empirical":
        kv = _parse_kv(rest)
        if "path" not in kv:
            raise ValueError("empirical needs a path=FILE.csv parameter")
        col = int(_kv_float(kv, "col", 0.0))
        return load_empirical_column(kv["path"], col)
    raise ValueError(f"unknown distribution {name!r}")
