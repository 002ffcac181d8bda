"""Component laws and their absolute-moment machinery.

Every distribution here models one coordinate x of a product vector; all
derived quantities (moments, MGFs, CDFs) refer to |x|.  The MGF is the
numerical backbone of the rate engine, so it stays accurate for exponents p
anywhere between 1e-6 and a few hundred.

Each law has one private kernel, ``_tilted(t, p, s)``, returning the
log-MGF K = log E[exp(s*t*|x|^p)] with the mean and variance of W =
|x|^p / mu_p under the law tilted by exp(s*t*|x|^p); the rate engine's
Newton iteration runs on these two moments, and ``log_mgf_abs_p`` returns K.
Each atom-free law also has ``_log_tilted(y, s)``, the same triple for the
p -> 0 limit in closed form or as exact sums.  A law whose rates have closed
forms names its family in ``closed_family``.  No kernel probes its integrand:

* discrete laws (two-point, empirical) take exact sums over their atoms,
* uniform laws and diffuniform use 1F1(a; a+1; c), a = 1/p, in closed form:
  series, Watson's lemma and complete gamma functions (``_power_tilted``),
* the normal uses the chi-square closed form at p = 2 and otherwise one
  composite Gauss-Legendre rule in z = log x, laid out from the peak of the
  log-integrand (``_half_normal_tilted``),
* zero-inflated laws mix their base law's kernel with the atom at zero.

Each law samples through one block filler, ``_filler(rng, total)``, whose
blocks hold the bits of one whole draw; ``draw`` is a single fill.
"""
from __future__ import annotations

import copy
import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._special import digamma_trigamma, gammaln, logsumexp
from .seeding import generator

# drop integrand contributions this far (in log) below the peak
_LOG_TRUNC = 80.0
# the 16-point Gauss-Legendre rule on [-1, 1]: its positive nodes and their weights
_GL_HALF = (
    (0.09501250983763744, 0.18945061045506864), (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265), (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407), (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456), (0.9894009349916499, 0.027152459411754176),
)
_GL_NODES = np.array([-x for x, _ in reversed(_GL_HALF)] + [x for x, _ in _GL_HALF])
_GL_WEIGHTS = np.array([w for _, w in reversed(_GL_HALF)] + [w for _, w in _GL_HALF])
_LOG2 = math.log(2.0)


def as_sign(sign) -> int:
    """Normalize '+'/'-' (or +1/-1) to an integer sign."""
    if sign in ("+", 1):
        return 1
    if sign in ("-", -1):
        return -1
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def _power_series(c: float, a: float, triangular: bool) -> tuple[float, float, float]:
    """(K, E Y, E Y^2) by E[Y^j e^{cV}] = sum_n c^n/n! E[Y^j V^n], Beta
    integrals; past c = 1 only n within 12 sqrt(c) of c count.  Summed from
    n = 0, K is log1p of the n >= 1 terms, so a small K stays exact."""
    n0, n1 = 0, 26
    if c > 1.0:
        width = 12.0 * math.sqrt(c)
        n0, n1 = max(0, int(c - width)), int(c + width) + 26
    n = np.arange(n0, n1, dtype=float)
    if n0 == 0:
        pois = np.cumprod(np.concatenate(([1.0], c / n[1:])))  # c^n / n!
    else:
        log_pois = np.cumsum(np.log(c / n))  # log(c^n / n!) less its value at n0 - 1
        shift = float(log_pois.max())
        pois = np.exp(log_pois - shift)
    # E[Y^j V^n] = a j! / (x (x+1) ... (x+j)), x = a + n; the triangular law
    # subtracts the same at 2a + n, which is a factor 2 (1 - e^{-r_j}) here
    x = a + n
    e0 = a / x
    e1 = e0 / (x + 1.0)
    e2 = 2.0 * e1 / (x + 2.0)
    if triangular:
        r0 = np.log1p(a / x)
        r1 = r0 + np.log1p(a / (x + 1.0))
        e0 *= -2.0 * np.expm1(-r0)
        e1 *= -2.0 * np.expm1(-r1)
        e2 *= -2.0 * np.expm1(-r1 - np.log1p(a / (x + 2.0)))
    m0 = float(pois @ e0)
    if n0 == 0:
        k = math.log1p(float(e0[0] - 1.0) + float(pois[1:] @ e0[1:]))
    else:
        k = (n0 - 1) * math.log(c) - math.lgamma(n0) + shift + math.log(m0)
    return k, float(pois @ e1) / m0, float(pois @ e2) / m0


def _watson_series(c: float, a: float, triangular: bool) -> tuple[float, float, float]:
    """(K, E Y, E Y^2) for large c by Watson's lemma on Y's density near 0:
    e^{-c} E[Y^j e^{cV}] = a j!/c^{j+1} sum_k (1-a)_k (j+1)_k / (k! c^k); the
    triangular law carries (1-a)_k - (1-2a)_k, which cancels at k = 0, itself."""
    s0 = s1 = s2 = 0.0
    flat, other, diff = 1.0, 1.0, 0.0  # (1-a)_k, (1-2a)_k and their difference, over c^k
    r1 = r2 = 1.0  # (2)_k / k! and (3)_k / k!
    for k in range(1, 200):
        x = diff if triangular else flat
        s0, s1, s2 = s0 + x, s1 + x * r1, s2 + x * r2
        if k > 1 and abs(x * r2) <= 1e-17 * abs(s0):
            break
        diff = (diff * (k - a) + a * other) / c
        other *= (k - 2.0 * a) / c
        flat *= (k - a) / c
        r1, r2 = r1 * (k + 1.0) / k, r2 * (k + 2.0) / k
    y1 = s1 / (c * s0)
    return c + math.log((2.0 if triangular else 1.0) * a * s0 / c), y1, 2.0 * y1 * s2 / (c * s1)


def _kummer_series(c: float, a: float, triangular: bool) -> tuple[float, float, float]:
    """(K, E Y, E Y^2) under e^{-tV}, t = -c, by E[Y^j e^{-tV}] = e^{-t} sum_n
    t^n/n! E[Y^{n+j}], all terms positive: E Y^m = m!/(a+1)_m, or m! (2/(a+1)_m
    - 1/(2a+1)_m) for the triangular law."""
    t = -c
    count = int(max(0.0, t - a - 1.0) + 12.0 * math.sqrt(t) + 40.0)
    i = np.arange(1.0, count + 3.0)
    log_ey = np.concatenate(([0.0], np.cumsum(np.log(i / (a + i)))))
    if triangular:
        log_ey[1:] += np.log(2.0 - np.exp(-np.cumsum(np.log1p(a / (a + i)))))
    log_pois = np.concatenate(([0.0], np.cumsum(np.log(t / i[:count]))))
    shift = float((log_pois + log_ey[: count + 1]).max())
    m0, m1, m2 = (float(np.exp(log_pois + log_ey[j : j + count + 1] - shift).sum()) for j in range(3))
    return -t + shift + math.log(m0), m1 / m0, m2 / m0


def _gamma_limit(t: float, a: float, triangular: bool) -> tuple[float, float, float]:
    """(K, E V, Var V) under e^{-tV} once P(a+j, t), the regularized lower
    incomplete gamma, is 1 to rounding: E[V^j e^{-tV}] = a Gamma(a+j) /
    t^{a+j}; the triangular law multiplies that by 2 (1 - R_j), where
    R_j = Gamma(2a+j) / (Gamma(a+j) t^a) < 1."""
    log_t = math.log(t)
    k = math.lgamma(a + 1.0) - a * log_t
    ratio = [1.0, 1.0, 1.0]
    if triangular:
        keep = [-math.expm1(math.lgamma(2.0 * a + j) - math.lgamma(a + j) - a * log_t) for j in range(3)]
        k += math.log(2.0 * keep[0])
        ratio = [g / keep[0] for g in keep]
    mean = a / t * ratio[1]
    return k, mean, a * (a + 1.0) / (t * t) * ratio[2] - mean * mean


def _power_tilted(c: float, p: float, triangular: bool) -> tuple[float, float, float]:
    """_tilted for |x| = b y, y on (0, 1) with a flat density or density
    2(1 - y), at c = s t b^p.  V = y^p has density a v^{a-1}, or 2a (v^{a-1}
    - v^{2a-1}), a = 1/p, so E e^{cV} is 1F1(a; a+1; c), or 2 1F1(a; a+1; c)
    - 1F1(2a; 2a+1; c).  For c >= -1 the power series, then Watson's lemma
    past max(150, 2 top), top the largest exponent used; for t = -c > 1 the
    Kummer-transformed series, then the complete gamma functions once the
    Poisson(t) mass below top is under 1e-17.  The series take moments of
    Y = 1 - V, so no variance cancels where V crowds toward 1."""
    a = 1.0 / p
    top = (2.0 * a if triangular else a) + 2.0
    scale = (1.0 + p) * (1.0 + 0.5 * p) if triangular else 1.0 + p  # W = scale V
    if -c >= top + 10.0 * math.sqrt(top) + 50.0:
        k, mean, var = _gamma_limit(-c, a, triangular)
        return k, scale * mean, scale * scale * var
    series = _power_series if c <= max(150.0, 2.0 * top) else _watson_series
    k, y1, y2 = (_kummer_series if c < -1.0 else series)(c, a, triangular)
    return k, scale * (1.0 - y1), scale * scale * (y2 - y1 * y1)


def _half_normal_peak(log_tp: float, p: float, s: int) -> float:
    """The z maximizing z - e^{2z}/2 + s t e^{pz}: Newton from z = 0 on
    2z = log1p(t p e^{pz}) (s = +1, concave, approached from below) or on
    log(e^{2z} + t p e^{pz}) = 0 (s = -1, convex, approached from above)."""
    z = 0.0
    for _ in range(200):
        w = log_tp + p * z
        if s > 0:
            soft = max(w, 0.0) + math.log1p(math.exp(-abs(w)))
            step = (2.0 * z - soft) / (2.0 - p * math.exp(w - soft))
        else:
            top = max(2.0 * z, w)
            h = top + math.log(math.exp(2.0 * z - top) + math.exp(w - top))
            step = h / (2.0 * math.exp(2.0 * z - h) + p * math.exp(w - h))
        z -= step
        if abs(step) <= 1e-15 * max(1.0, abs(z)):
            return z
    return z


def _half_normal_tilted(t: float, p: float, s: int, log_mu: float) -> tuple[float, float, float]:
    """_tilted for the half-normal at p != 2 by one composite 16-point
    Gauss-Legendre rule in z = log x, where the log-integrand z - e^{2z}/2
    + s t e^{pz} is unimodal.  Nodes are offsets d from the peak z*; with
    A = e^{2z*}/2 and B = s t e^{pz*} the integrand falls by -d + A expm1(2d)
    - B expm1(pd).  Panels grow outward from 2 sigma, sigma = |phi''(z*)|^-1/2,
    each at most doubling, 4 local curvature lengths, 12 slope lengths and a
    fall of 16 wide, until the fall passes _LOG_TRUNC.  When |s t x^p| <= 1
    on the rule, K is log1p of E[expm1(s t x^p)] over the rule's own
    untilted mass, so a small K keeps its relative accuracy."""
    z = _half_normal_peak(math.log(t) + math.log(p), p, s)
    log_a = 2.0 * z - _LOG2
    if log_a > 700.0:  # K itself is past the float range
        return math.inf, math.nan, math.nan
    big_a, big_b = math.exp(log_a), s * math.exp(math.log(t) + p * z)
    peak = z - big_a + big_b
    scale = math.exp(p * z - log_mu)  # W at the peak
    # -phi''(z*), by 2A = 1 + pB on the side where that cancels nothing
    sigma = 1.0 / math.sqrt(4.0 * big_a - p * p * big_b if s < 0 else 2.0 + (2.0 - p) * p * big_b)
    if 1e-16 * (2.0 * big_a + p * abs(big_b)) * sigma > 1e-6:
        # a peak narrower than the rounding of z* itself (s = +1, p just below
        # 2): Laplace's approximation, far inside K's rounding, with the peak
        # value z - A + B as z - 1/p + A (2/p - 1) by pB = 2A - 1, uncancelled
        peak = z - 1.0 / p + big_a * (2.0 / p - 1.0)
        return peak + math.log(2.0 * sigma), scale, (scale * p * sigma) ** 2
    edges = [0.0]
    for side in (1.0, -1.0):
        d, fallen, width = 0.0, 0.0, 2.0 * sigma
        while fallen < _LOG_TRUNC:
            while True:
                step = d + side * width
                gauss = math.exp(min(log_a + 2.0 * step, 709.0))  # A e^{2d}
                below = gauss - big_a - step - big_b * math.expm1(p * step)
                if below <= fallen + 16.0 or fallen > 40.0:
                    break
                width *= 0.5
            d, fallen, tilt = step, below, big_b * math.exp(p * step)
            edges.append(d)
            width *= 2.0
            if fallen <= 40.0:
                bend, slope = abs(4.0 * gauss - p * p * tilt), abs(1.0 - 2.0 * gauss + p * tilt)
                width = min(width, 4.0 / math.sqrt(bend) if bend else width, 12.0 / slope if slope else width)
    edges.sort()
    bounds = np.array(edges)
    half = 0.5 * (bounds[1:] - bounds[:-1])[:, None]
    nodes = (bounds[:-1, None] + half * (1.0 + _GL_NODES)).ravel()
    if edges[-1] < 350.0:
        gauss_nodes = big_a * np.expm1(2.0 * nodes)
    else:  # only a tiny A reaches this far
        gauss_nodes = np.exp(np.minimum(log_a + 2.0 * nodes, 709.0)) - big_a
    y = np.expm1(p * nodes)  # W / scale - 1, and s t x^p = B (1 + y)
    mass = (half * _GL_WEIGHTS).ravel() * np.exp(nodes - gauss_nodes + big_b * y)
    total = float(mass.sum())
    if abs(big_b) * math.exp(min(p * edges[-1], 709.0)) <= 1.0:
        tilt = big_b * (1.0 + y)
        k = math.log1p(-float(mass @ np.expm1(-tilt)) / float(mass @ np.exp(-tilt)))
    else:
        k = peak + math.log(total / math.sqrt(0.5 * math.pi))  # over the untilted mass
    mean = float(mass @ y) / total
    y -= mean
    return k, scale * (1.0 + mean), (scale * math.sqrt(float(mass @ (y * y)) / total)) ** 2


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
    carries tilted mass q; the variance adds the spread between the parts.
    K = log1p((1-a) expm1(K_base)) keeps its relative accuracy when small."""
    spike = math.log1p(-a) + k_base
    big = k_base >= 700.0
    k = spike + math.log1p(a * math.exp(-spike)) if big else math.log1p((1.0 - a) * math.expm1(k_base))
    q = math.exp(spike - k)
    q_atom = math.exp(math.log(a) - k)
    return k, q * m_base / (1.0 - a), (q * v_base + q * q_atom * m_base**2) / (1.0 - a) ** 2


def _split(rng: np.random.Generator, total: int) -> np.random.Generator:
    """A copy of rng for a first pass that reads one 64-bit word for each of
    total entries; rng itself skips those words, so a second pass reads from
    it what it would read after the first, and rng ends where the two passes
    in turn would leave it.  rng is a Philox stream (seeding.generator)."""
    first = copy.deepcopy(rng)
    bits = rng.bit_generator
    before = bits.state
    left = min(total, 4 - before["buffer_pos"])  # words left in Philox's 4-word buffer
    bits.random_raw(left)
    if total > left:
        # advance() empties that buffer and drops a buffered 32-bit
        # half-word, which reading 64-bit words keeps
        bits.advance((total - left) // 4)
        bits.random_raw((total - left) % 4)
        after = bits.state
        after["has_uint32"], after["uinteger"] = before["has_uint32"], before["uinteger"]
        bits.state = after
    return first


def _fill_uniform(rng: np.random.Generator, out: np.ndarray, b: float) -> np.ndarray:
    """rng.uniform(-b, b, out.shape) written into out, bit for bit: numpy
    forms -b + 2b * u."""
    rng.random(out=out)
    out *= 2.0 * b
    out -= b
    return out


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
    def _filler(self, rng: np.random.Generator, total: int) -> Callable[[np.ndarray], None]:
        """fill(out), which writes the next out.size entries of draw(rng,
        total) into out, a C-contiguous float array: blocks filled in turn
        hold that draw's bits, and no array of total entries is made.  A law
        that reads rng in two passes takes the first from a copy (_split)."""
        raise NotImplementedError

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        """An array of that size drawn from rng, one fill of _filler."""
        out = np.empty(size)
        self._filler(rng, out.size)(out)
        return out

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec_string()!r})"


@dataclass(frozen=True, repr=False)
class UniformSymmetric(Distribution):
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

    def _tilted(self, t: float, p: float, s: int) -> tuple[float, float, float]:
        return _power_tilted(s * t * self.b**p, p, False)

    def cdf_abs(self, x: float) -> float:
        return float(np.clip(x / self.b, 0.0, 1.0))

    def _filler(self, rng, total):
        return lambda out: _fill_uniform(rng, out, self.b)

    def spec_string(self) -> str:
        return f"uniform:b={_spec_float(self.b)}"


@dataclass(frozen=True, repr=False)
class UniformUnit(UniformSymmetric):
    """Uniform on [0, 1]; |x| has the law of uniform:b=1's |x|."""

    b: float = field(default=1.0, init=False)

    def _filler(self, rng, total):
        return lambda out: rng.random(out=out)

    def spec_string(self) -> str:
        return "uniform01"


@dataclass(frozen=True, repr=False)
class DiffUniform(Distribution):
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

    def _tilted(self, t: float, p: float, s: int) -> tuple[float, float, float]:
        return _power_tilted(s * t * 2.0**p, p, True)

    def cdf_abs(self, x: float) -> float:
        x = float(np.clip(x, 0.0, 2.0))
        return x - x * x / 4.0

    def _filler(self, rng, total):
        first = _split(rng, total)

        def fill(out):
            _fill_uniform(first, out, 1.0)
            out -= _fill_uniform(rng, np.empty(out.shape), 1.0)

        return fill

    def spec_string(self) -> str:
        return "diffuniform"


@dataclass(frozen=True, repr=False)
class StandardNormal(Distribution):
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
        return _half_normal_tilted(t, p, s, math.log(self.abs_moment(p)))

    def cdf_abs(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return math.erf(x / math.sqrt(2.0))

    def _filler(self, rng, total):
        return lambda out: rng.standard_normal(out=out)

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

    def _filler(self, rng, total):
        def fill(out):
            rng.random(out=out)
            out[...] = np.where(out < self.a, 0.0, self.r)

        return fill

    def spec_string(self) -> str:
        return f"twopoint:a={_spec_float(self.a)},r={_spec_float(self.r)}"


class ThreePointSymmetric(TwoPoint):
    """P(x=0) = a, P(x=r) = P(x=-r) = (1-a)/2; |x| is TwoPoint(a, r)'s law."""

    def _filler(self, rng, total):
        values = _split(rng, total)

        def fill(out):
            values.random(out=out)
            signed = np.where(rng.random(out.shape) < 0.5, -self.r, self.r)
            out[...] = np.where(out < self.a, 0.0, signed)

        return fill

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

    def _filler(self, rng, total):
        mask = _split(rng, total)
        base = self.base._filler(rng, total)

        def fill(out):
            keep = mask.random(out.shape) >= self.a
            base(out)
            # arithmetic, not a masked copy, which branches on every entry;
            # adding 0.0 turns the -0.0 of a negative draw times 0 into +0.0
            out *= keep
            out += 0.0

        return fill

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

    def _filler(self, rng, total):
        def fill(out):
            np.take(self.values, rng.integers(0, self.values.size, out.shape), out=out)

        return fill

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


def _cell_float(text: str) -> float:
    """A stripped CSV cell's number, by the rule of every CSV reader here and
    of numpy's C reader: float() without its digit separators (1_0) and
    non-ASCII digits, else a ValueError."""
    if "_" in text or not text.isascii():
        raise ValueError(f"{text!r} is not a number")
    return float(text)


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
                values.append(_cell_float(cell))
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
