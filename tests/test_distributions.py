"""Coordinate-law machinery against closed-form moment oracles.

Every analytic value here is derived independently of the implementation:
plain formulas for moments of the four families, direct numpy integration
for cross-checks, exact atom bookkeeping for the discrete laws, and
mpmath at 30+ digits for log_mgf_abs_p across p from 1e-6 to 300.
"""

import math
import os
import tempfile

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln

from lpconc.distributions import (
    DiffUniform,
    Empirical,
    StandardNormal,
    ThreePointSymmetric,
    TwoPoint,
    UniformSymmetric,
    UniformUnit,
    ZeroInflated,
    load_empirical_column,
    moment_report,
    parse_spec,
    sample,
    validate_assumptions,
)
from lpconc.seeding import generator

EULER_GAMMA = 0.5772156649015329


def test_uniform_unit_moments_closed_form():
    u = UniformUnit()
    for q in (0.001, 0.1, 0.5, 1.0, 2.0, 7.0):
        assert u.abs_moment(q) == pytest.approx(1.0 / (1.0 + q), rel=1e-13)
    log_mean, log_var = u.log_moments()
    assert log_mean == pytest.approx(-1.0, rel=1e-10)
    assert log_var == pytest.approx(1.0, rel=1e-9)


def test_uniform_symmetric_scales_like_its_bound():
    for b in (0.5, 1.0, 3.0):
        d = UniformSymmetric(b)
        for q in (0.2, 1.0, 2.0):
            assert d.abs_moment(q) == pytest.approx(b**q / (1.0 + q), rel=1e-12)
        log_mean, log_var = d.log_moments()
        assert log_mean == pytest.approx(math.log(b) - 1.0, rel=1e-9, abs=1e-9)
        assert log_var == pytest.approx(1.0, rel=1e-9)
        assert d.ess_sup == b


def test_diff_uniform_moments_closed_form():
    d = DiffUniform()
    for q in (0.1, 1.0, 2.0, 3.5):
        expected = 2.0 ** (q + 1) / ((q + 1) * (q + 2))
        assert d.abs_moment(q) == pytest.approx(expected, rel=1e-11)
    assert d.abs_moment(1.0) == pytest.approx(2.0 / 3.0, rel=1e-12)
    log_mean, log_var = d.log_moments()
    assert log_mean == pytest.approx(math.log(2.0) - 1.5, rel=1e-9)
    assert log_var == pytest.approx(1.25, rel=1e-9)


def test_standard_normal_moments_closed_form():
    d = StandardNormal()
    for q in (0.3, 1.0, 2.0, 4.0):
        expected = math.exp(0.5 * q * math.log(2.0) + gammaln(0.5 * (q + 1)) - 0.5 * math.log(math.pi))
        assert d.abs_moment(q) == pytest.approx(expected, rel=1e-11)
    assert d.abs_moment(2.0) == pytest.approx(1.0, rel=1e-12)
    log_mean, log_var = d.log_moments()
    assert log_mean == pytest.approx(-0.5 * (EULER_GAMMA + math.log(2.0)), rel=1e-9)
    assert log_var == pytest.approx(math.pi**2 / 8.0, rel=1e-9)


def test_two_point_moment_and_atom_bookkeeping():
    d = TwoPoint(a=0.3, r=2.0)
    assert d.atom_at_zero == 0.3
    assert d.has_abs_atoms
    assert d.abs_two_point == (0.3, 2.0)
    for q in (0.01, 1.0, 3.0):
        assert d.mu_p(q) == pytest.approx(0.7 * 2.0**q, rel=1e-14)
    # an atom at zero makes every negative moment infinite
    assert d.neg_moment(0.5) == math.inf


def test_three_point_abs_law_matches_two_point():
    three = ThreePointSymmetric(a=0.4, r=1.5)
    two = TwoPoint(a=0.4, r=1.5)
    assert three.abs_two_point == two.abs_two_point
    for q in (0.5, 2.0):
        assert three.mu_p(q) == pytest.approx(two.mu_p(q), rel=1e-14)
    draws = three.draw(generator(3), 4000)
    assert set(np.round(np.unique(draws), 9)) <= {-1.5, 0.0, 1.5}
    assert np.mean(draws == 0.0) == pytest.approx(0.4, abs=0.03)


def test_zero_inflated_mixes_the_base_law():
    base = UniformUnit()
    d = ZeroInflated(a=0.2, base=base)
    assert d.atom_at_zero == pytest.approx(0.2)
    for q in (0.5, 1.0, 2.0):
        assert d.mu_p(q) == pytest.approx(0.8 / (1.0 + q), rel=1e-12)
    draws = d.draw(generator(11), 20000)
    assert np.mean(draws == 0.0) == pytest.approx(0.2, abs=0.01)


def test_mgf_uniform_p1_matches_analytic_form():
    u = UniformUnit()
    for t in (0.1, 1.0, 3.0):
        plus = u.log_mgf_abs_p(t, 1.0, +1)
        assert plus == pytest.approx(math.log((math.exp(t) - 1.0) / t), rel=1e-10)
        minus = u.log_mgf_abs_p(t, 1.0, -1)
        assert minus == pytest.approx(math.log((1.0 - math.exp(-t)) / t), rel=1e-10)
    assert u.log_mgf_abs_p(0.0, 1.0, +1) == 0.0


def test_mgf_normal_p2_closed_form_and_divergence():
    d = StandardNormal()
    assert d.exp_moment_order == 2.0
    assert d.mgf_t_bound(2.0) == pytest.approx(0.5)
    for t in (0.1, 0.3, 0.49):
        assert d.log_mgf_abs_p(t, 2.0, +1) == pytest.approx(-0.5 * math.log1p(-2.0 * t), rel=1e-10)
    assert d.log_mgf_abs_p(0.5, 2.0, +1) == math.inf
    assert d.log_mgf_abs_p(0.7, 2.0, +1) == math.inf


def test_mgf_two_point_exact():
    d = TwoPoint(a=0.5, r=1.0)
    for t, p, s in ((1.0, 1.0, +1), (0.3, 0.5, -1), (2.0, 2.0, +1)):
        expected = math.log(0.5 + 0.5 * math.exp(s * t * 1.0**p))
        assert d.log_mgf_abs_p(t, p, s) == pytest.approx(expected, rel=1e-14)


def test_mgf_quadrature_agrees_with_direct_integration():
    # engine route (transformed, log-space) vs plain quad on the raw integrand
    cases = [
        (UniformUnit(), 0.7, 0.5, +1),
        (UniformSymmetric(2.0), 0.4, 1.5, -1),
        (DiffUniform(), 0.9, 0.25, +1),
    ]
    for dist, t, p, s in cases:
        if isinstance(dist, UniformUnit):
            direct = quad(lambda x: math.exp(s * t * x**p), 0, 1)[0]
        elif isinstance(dist, UniformSymmetric):
            direct = quad(lambda x: math.exp(s * t * x**p) / dist.b, 0, dist.b)[0]
        else:
            direct = quad(lambda x: math.exp(s * t * x**p) * (1 - x / 2), 0, 2)[0]
        assert dist.log_mgf_abs_p(t, p, s) == pytest.approx(math.log(direct), rel=1e-8)


def _uniform_log_mgf_oracle(dist, t, p, s):
    # E exp(c V^p) = 1F1(a; a+1; c) for V uniform on (0, 1), a = 1/p;
    # the density 1 - x/2 on (0, 2) gives 2 1F1(a; a+1; c) - 1F1(2a; 2a+1; c)
    a = mpmath.mpf(1) / p
    scale = 1 if isinstance(dist, UniformUnit) else mpmath.mpf(dist.ess_sup) ** p
    c = s * t * scale
    # the DiffUniform combination loses about log10|c| digits to cancellation
    with mpmath.workdps(40 + int(mpmath.log10(1 + abs(c)))):
        if isinstance(dist, DiffUniform):
            value = 2 * mpmath.hyp1f1(a, a + 1, c) - mpmath.hyp1f1(2 * a, 2 * a + 1, c)
        else:
            value = mpmath.hyp1f1(a, a + 1, c)
        return float(mpmath.log(value))


def _half_normal_log_mgf_oracle(t, p, s):
    # z = log(x^2 / 2) turns E exp(s t |x|^p) into
    # pi^{-1/2} * integral of exp(z/2 - e^z + s t 2^{p/2} e^{zp/2}) dz;
    # outside (-250, 12) the integrand is below e^-119 for every case here
    with mpmath.workdps(30):
        k = s * mpmath.mpf(t) * mpmath.mpf(2) ** (mpmath.mpf(p) / 2)
        value = mpmath.quad(
            lambda z: mpmath.exp(z / 2 - mpmath.exp(z) + k * mpmath.exp(z * p / 2)),
            [-250, -50, -10, -3, 0, 2, 4, 6, 8, 10, 12],
        ) / mpmath.sqrt(mpmath.pi)
        return float(mpmath.log(value))


def _assert_matches_oracle(got, ref, label):
    assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref)), f"{label}: {got!r} vs {ref!r}"


def test_mgf_matches_mpmath_oracle_across_p_and_t():
    for dist in (UniformUnit(), UniformSymmetric(2.0), DiffUniform()):
        for p in (1e-6, 1e-3, 0.1, 1.0, 2.0, 10.0, 300.0):
            for t in (1e-3, 0.5, 5.0, 50.0):
                for s in (+1, -1):
                    _assert_matches_oracle(
                        dist.log_mgf_abs_p(t, p, s),
                        _uniform_log_mgf_oracle(dist, t, p, s),
                        f"{dist!r} p={p} t={t} s={s}",
                    )
    normal = StandardNormal()
    zero_inflated = ZeroInflated(0.3, normal)
    for p in (1e-6, 1e-3, 0.01, 0.5, 1.0, 1.5):
        for t in (1e-3, 0.5, 5.0):
            for s in (+1, -1):
                ref = _half_normal_log_mgf_oracle(t, p, s)
                _assert_matches_oracle(
                    normal.log_mgf_abs_p(t, p, s), ref, f"normal p={p} t={t} s={s}"
                )
                if p in (1e-6, 0.5) or t == 5.0:
                    mixed = float(mpmath.log(0.3 + 0.7 * mpmath.exp(ref)))
                    _assert_matches_oracle(
                        zero_inflated.log_mgf_abs_p(t, p, s),
                        mixed,
                        f"zeroinflated p={p} t={t} s={s}",
                    )


def test_normal_log_mgf_just_below_p2_matches_mpmath():
    # at p = 1.999, t = 0.6 the log-integrand z - e^{2z}/2 + t e^{pz} peaks at
    # z* = log(1 + t p e^{pz*}) / 2, near log(t p)/(2 - p) = 182, with a width
    # near 1e-77; the oracle integrates around z* at 180 digits, enough to
    # resolve that width, and K, about 2e154, is checked relatively
    t, p = 0.6, 1.999
    with mpmath.workdps(180):
        tm, pm = mpmath.mpf(t), mpmath.mpf(p)

        def phi(z):
            return z - mpmath.exp(2 * z) / 2 + tm * mpmath.exp(pm * z)

        z_star = mpmath.findroot(
            lambda z: 2 * z - mpmath.log(1 + tm * pm * mpmath.exp(pm * z)),
            mpmath.log(tm * pm) / (2 - pm),
        )
        sigma = 1 / mpmath.sqrt(2 + (2 - pm) * pm * tm * mpmath.exp(pm * z_star))
        peak = phi(z_star)
        mass = sigma * mpmath.quad(lambda u: mpmath.exp(phi(z_star + u * sigma) - peak), [-12, 0, 12])
        ref = float(peak + mpmath.log(mass) - mpmath.log(mpmath.sqrt(mpmath.pi / 2)))
    assert StandardNormal().log_mgf_abs_p(t, p, "+") == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("spec", [
    "uniform01",
    "uniform:b=2",
    "diffuniform",
    "normal",
    "zeroinflated:a=0.3,base=normal",
    "zeroinflated:a=0.3,base=uniform01",
    "twopoint:a=0.3,r=2",
    "threepoint:a=0.2,r=2",
    "empirical",
])
def test_tilted_moments_match_differences_of_the_log_mgf(spec):
    # K(t) = log E exp(s t |x|^p) has K' = s mu_p m and K'' = mu_p^2 v, where
    # m and v are the tilted mean and variance of W = |x|^p / mu_p
    if spec == "empirical":
        dist = Empirical(generator(5).standard_normal(200))
    else:
        dist = parse_spec(spec)
    for p in (0.3, 1.5, 2.0):
        mu = dist.mu_p(p)
        for s in (+1, -1):
            for tau in (0.2, 4.0):
                t = tau / mu
                h = 5e-4 * t
                if s > 0 and t + h >= dist.mgf_t_bound(p):
                    continue  # normal at p = 2: the MGF diverges from t = 1/2
                k, m, v = dist._tilted(t, p, s)
                below, mid, above = (dist.log_mgf_abs_p(t + d, p, s) for d in (-h, 0.0, h))
                label = f"p={p} s={s} tau={tau}"
                assert k == mid, label
                assert s * mu * m == pytest.approx((above - below) / (2 * h), rel=5e-6), label
                assert mu * mu * v == pytest.approx(
                    (above - 2 * mid + below) / h**2, rel=2e-5
                ), label


@pytest.mark.parametrize("spec", ["uniform01", "uniform:b=2", "diffuniform", "normal", "empirical"])
def test_log_tilted_moments_match_the_log_moment_and_its_differences(spec):
    # K(q) = log E|x|^q has K' = m and K'' = v, the mean and variance of
    # log|x| under the tilt |x|^q
    if spec == "empirical":
        dist = Empirical(generator(5).standard_normal(200))
    else:
        dist = parse_spec(spec)
    h = 1e-4
    for s in (+1, -1):
        for y in (0.05, 0.5, 0.9, 3.0):
            q = s * y
            if spec != "empirical" and q - h <= -1.0:
                continue
            k, m, v = dist._log_tilted(y, s)
            below, above = (math.log(dist.abs_moment(q + d)) for d in (-h, h))
            label = f"s={s} y={y}"
            assert k == pytest.approx(math.log(dist.abs_moment(q)), rel=1e-12, abs=1e-14), label
            assert m == pytest.approx((above - below) / (2 * h), rel=1e-6, abs=1e-9), label
            m_below, m_above = (dist._log_tilted(y + d, s)[1] for d in (-h, h))
            assert v == pytest.approx(s * (m_above - m_below) / (2 * h), rel=1e-6), label
    if spec != "empirical":
        assert dist._log_tilted(1.0, -1)[0] == math.inf


def test_neg_moment_closed_forms():
    u = UniformUnit()
    assert u.neg_moment(0.5) == pytest.approx(2.0, rel=1e-10)
    assert u.neg_moment(0.99) == pytest.approx(100.0, rel=1e-7)
    d = StandardNormal()
    for y in (0.2, 0.8):
        expected = math.exp(-0.5 * y * math.log(2.0) + gammaln(0.5 * (1 - y)) - 0.5 * math.log(math.pi))
        assert d.neg_moment(y) == pytest.approx(expected, rel=1e-9)


def test_cdf_abs_families():
    u = UniformSymmetric(2.0)
    assert u.cdf_abs(1.0) == pytest.approx(0.5)
    assert u.cdf_abs(2.0) == pytest.approx(1.0)
    t = TwoPoint(a=0.3, r=1.0)
    assert t.cdf_abs(0.0) == pytest.approx(0.3)
    assert t.cdf_abs(0.999) == pytest.approx(0.3)
    assert t.cdf_abs(1.0) == pytest.approx(1.0)
    assert t.cdf_abs_left(1.0) == pytest.approx(0.3)
    n = StandardNormal()
    assert n.cdf_abs(1.0) == pytest.approx(0.6826894921370859, rel=1e-12)


def test_draws_are_deterministic_and_distributed():
    for dist in (UniformUnit(), DiffUniform(), StandardNormal(), TwoPoint(a=0.25, r=1.0)):
        a = dist.draw(generator(5), 50_000)
        b = dist.draw(generator(5), 50_000)
        assert np.array_equal(a, b)
        mean = float(np.mean(np.abs(a)))
        mu1 = dist.mu_p(1.0)
        sd = math.sqrt(max(dist.mu_p(2.0) - mu1**2, 1e-12) / a.size)
        assert abs(mean - mu1) < 5 * sd


def test_zero_inflated_draw_zeroes_the_base_draw_in_place():
    filled = []

    class RecordingNormal(StandardNormal):
        def _filler(self, rng, total):
            fill = super()._filler(rng, total)

            def recording(out):
                filled.append(out)
                fill(out)

            return recording

    law = ZeroInflated(0.3, RecordingNormal())
    got = law.draw(generator(5), (40, 25))
    # the mask's uniforms come first, then the base draw, from one stream
    rng = generator(5)
    zero = rng.random((40, 25)) < 0.3
    expected = rng.standard_normal((40, 25))
    expected[zero] = 0.0
    assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()
    assert zero.any() and not np.signbit(got[zero]).any()  # +0.0, never -0.0
    assert len(filled) == 1 and filled[0] is got


def _zero_inflated_reference(a, base):
    def draw(rng, total):
        keep = rng.random(total) >= a
        return base(rng, total) * keep + 0.0

    return draw


_EMPIRICAL_VALUES = np.array([-2.5, 0.0, 1.0, 3.25, -0.5, 7.0, 0.0])
_NONZERO_VALUES = _EMPIRICAL_VALUES[_EMPIRICAL_VALUES != 0.0]
_diff_reference = lambda rng, t: rng.uniform(-1.0, 1.0, t) - rng.uniform(-1.0, 1.0, t)
_empirical_reference = lambda rng, t: _EMPIRICAL_VALUES[rng.integers(0, 7, t)]
_nonzero_reference = lambda rng, t: _NONZERO_VALUES[rng.integers(0, 5, t)]


def _three_point_reference(rng, t):
    u = rng.random(t)
    signs = np.where(rng.random(t) < 0.5, -1.0, 1.0)
    return np.where(u < 0.2, 0.0, 1.5 * signs)


# each law with its draw as whole-array numpy calls, one pass after another
# on one stream
_LAWS = {
    "uniform01": (UniformUnit(), lambda rng, t: rng.random(t)),
    "uniform:b=2": (UniformSymmetric(b=2.0), lambda rng, t: rng.uniform(-2.0, 2.0, t)),
    "diffuniform": (DiffUniform(), _diff_reference),
    "normal": (StandardNormal(), lambda rng, t: rng.standard_normal(t)),
    "twopoint": (TwoPoint(a=0.3, r=2.0), lambda rng, t: np.where(rng.random(t) < 0.3, 0.0, 2.0)),
    "threepoint": (ThreePointSymmetric(a=0.2, r=1.5), _three_point_reference),
    "empirical": (Empirical(_EMPIRICAL_VALUES), _empirical_reference),
    "zeroinflated-normal": (
        ZeroInflated(0.3, StandardNormal()),
        _zero_inflated_reference(0.3, lambda rng, t: rng.standard_normal(t)),
    ),
    "zeroinflated-diffuniform": (
        ZeroInflated(0.4, DiffUniform()), _zero_inflated_reference(0.4, _diff_reference)
    ),
    "zeroinflated-empirical": (
        ZeroInflated(0.25, Empirical(_NONZERO_VALUES)),
        _zero_inflated_reference(0.25, _nonzero_reference),
    ),
}


def _stream(used: int) -> np.random.Generator:
    """A stream part read: a buffered 32-bit half-word and used 64-bit words
    of the 4-word Philox buffer already taken."""
    rng = generator(17)
    rng.integers(0, 10, 3)
    rng.random(used)
    return rng


def _tail(rng: np.random.Generator) -> list[int]:
    """What rng yields next, 32-bit reads around 64-bit ones."""
    ints = rng.integers(0, 1 << 20, 3).tolist()
    return ints + rng.random(5).view(np.int64).tolist() + rng.integers(0, 1 << 20, 3).tolist()


@pytest.mark.parametrize("name", sorted(_LAWS))
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    quads=st.integers(0, 600),
    rest=st.integers(0, 3),
    used=st.integers(0, 5),
    blocks=st.lists(st.integers(1, 500).filter(lambda b: b % 4), min_size=1, max_size=5),
)
def test_block_fills_give_the_bits_of_one_draw(name, quads, rest, used, blocks):
    # every law fills blocks that are no multiple of 4 entries, of totals at
    # every remainder mod 4, with the bits of its draw and of numpy's
    # whole-array calls, and leaves its stream where those calls leave it
    law, reference = _LAWS[name]
    total = 4 * quads + rest
    rng = _stream(used)
    expected = reference(rng, total)
    expected_tail = _tail(rng)
    rng = _stream(used)
    drawn = law.draw(rng, total)
    assert drawn.view(np.int64).tolist() == expected.view(np.int64).tolist()
    assert _tail(rng) == expected_tail
    rng = _stream(used)
    fill = law._filler(rng, total)
    out = np.full(total, np.nan)
    start, k = 0, 0
    while start < total:
        stop = min(total, start + blocks[k % len(blocks)])
        fill(out[start:stop])
        start, k = stop, k + 1
    assert out.view(np.int64).tolist() == expected.view(np.int64).tolist()
    assert _tail(rng) == expected_tail


def test_sample_helper_and_empirical_round_trip():
    values = sample(UniformUnit(), 500, seed=9)
    emp = Empirical(values, label="unit-draws")
    assert emp.mu_p(1.0) == pytest.approx(float(np.mean(values)), rel=1e-12)
    assert emp.mu_p(2.0) == pytest.approx(float(np.mean(values**2)), rel=1e-12)
    with pytest.raises(ValueError):
        sample(UniformUnit(), 0, seed=1)


def test_parse_spec_round_trips_every_family():
    specs = [
        UniformSymmetric(1.0),
        UniformSymmetric(2.5),
        UniformUnit(),
        DiffUniform(),
        StandardNormal(),
        TwoPoint(a=0.5, r=1.0),
        ThreePointSymmetric(a=0.2, r=3.0),
        ZeroInflated(a=0.1, base=UniformUnit()),
    ]
    for dist in specs:
        again = parse_spec(dist.spec_string())
        assert again.spec_string() == dist.spec_string()
    with pytest.raises(ValueError):
        parse_spec("mystery:a=1")
    with pytest.raises(ValueError):
        parse_spec("twopoint:r=1")  # missing required a


_positive = st.floats(min_value=1e-300, max_value=1e300)
_probability = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
_atom_free = st.one_of(
    st.builds(UniformSymmetric, _positive),
    st.just(UniformUnit()),
    st.just(DiffUniform()),
    st.just(StandardNormal()),
)
_laws = st.one_of(
    _atom_free,
    st.builds(TwoPoint, _probability, _positive),
    st.builds(ThreePointSymmetric, _probability, _positive),
    st.builds(ZeroInflated, _probability, _atom_free),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_laws)
def test_parse_spec_inverts_spec_string(dist):
    assert parse_spec(dist.spec_string()) == dist


@pytest.mark.parametrize("spec", [
    "uniform:b=2",
    "uniform:b=1.2345678",
    "twopoint:a=0.5,r=1",
    "threepoint:a=0.2,r=2",
    "zeroinflated:a=0.3,base=normal",
    "zeroinflated:a=0.3,base=uniform01",
    "zeroinflated:a=0.123456789,base=uniform:b=0.1",
])
def test_spec_string_keeps_the_text_it_was_parsed_from(spec):
    # short parameters keep their short form; long ones are not rounded
    assert parse_spec(spec).spec_string() == spec


def test_load_empirical_column_reads_csv():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "vals.csv")
        with open(path, "w") as f:
            f.write("v,w\n1.0,5\n0.0,6\n2.0,7\n1.0,8\n")
        emp = load_empirical_column(path, 0)
        assert emp.mu_p(1.0) == pytest.approx(1.0)
        assert emp.atom_at_zero == pytest.approx(0.25)


@pytest.mark.parametrize("cell", ["1_0", "\u0663"], ids=["digit-separator", "arabic-indic-3"])
def test_empirical_spec_reads_cells_as_the_csv_loader_does(tmp_path, cell):
    # float() reads 1_0 as 10.0 and an Arabic-Indic 3 as 3.0; the C reader
    # and load_csv reject both, and a non-numeric first row is a header
    path = tmp_path / "vals.csv"
    path.write_text(f"v\n2\n{cell}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"row 3, column 0: '{cell}' is not numeric"):
        parse_spec(f"empirical:path={path},col=0")
    path.write_text(f"{cell}\n2\n3\n", encoding="utf-8")
    emp = parse_spec(f"empirical:path={path},col=0")
    assert emp.mu_p(1.0) == pytest.approx(2.5)  # the first row read as a header


def test_validate_assumptions_flags():
    bounded = validate_assumptions(UniformUnit())
    assert bounded.a1_holds and bounded.a2_holds and bounded.a3_holds
    assert not bounded.a4_holds and bounded.atom_at_zero == 0.0

    normal = validate_assumptions(StandardNormal())
    assert normal.a2_holds and normal.p0 == 2.0

    atom = validate_assumptions(TwoPoint(a=0.3, r=1.0))
    assert atom.a4_holds and atom.atom_at_zero == pytest.approx(0.3)
    assert not atom.a3_holds  # atom at zero kills negative moments


def test_moment_report_fields():
    report = moment_report(StandardNormal(), 1.0)
    assert report.mu_p == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)
    assert report.log_var == pytest.approx(math.pi**2 / 8.0, rel=1e-9)
    atom_report = moment_report(TwoPoint(a=0.5, r=1.0), 1.0)
    assert atom_report.log_mean is None and atom_report.log_var is None
