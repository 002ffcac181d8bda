"""Monte Carlo engine: norm kernels, seeded reproducibility, exact oracles.

The two-point law is the workhorse oracle: its norm ratio is a function of
a Binomial count, so in-band probabilities are exact binomial sums and the
sampler can be tested against them to statistical tolerance.
"""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import binom, norm

from lpconc import monte_carlo
from lpconc.anti_concentration import find_p_star
from lpconc.cli import _record
from lpconc.distributions import (
    StandardNormal,
    TwoPoint,
    UniformSymmetric,
    UniformUnit,
    ZeroInflated,
)
from lpconc.monte_carlo import (
    band_frequency_at,
    concentration_frequency,
    contrast_sweep,
    curve_sweep,
    log_lp_norms,
    lp_norms,
    pair_contrast,
    relative_contrast,
    wilson_halfwidth,
)
from lpconc.seeding import derive_seed


# --- norm kernels -----------------------------------------------------------

def test_log_lp_norms_exact_integer_oracle_at_p_100():
    # 1^100 + 2^100 + 3^100 summed in exact integer arithmetic
    expected = math.log(1 + 2**100 + 3**100) / 100.0
    got = float(log_lp_norms(np.array([1.0, 2.0, 3.0]), 100.0))
    assert got == pytest.approx(expected, rel=1e-14)


def test_log_lp_norms_tiny_entries_at_p_100():
    # 2^-100 and 2^-200 are exact binary floats
    expected = (math.log(2**100 + 1) - 200.0 * math.log(2.0)) / 100.0
    got = float(log_lp_norms(np.array([0.5, 0.25]), 100.0))
    assert got == pytest.approx(expected, rel=1e-13)


def test_log_lp_norms_survives_huge_dynamic_range():
    x = np.array([math.exp(200.0), math.exp(-200.0)])
    got = float(log_lp_norms(x, 50.0))
    assert got == pytest.approx(200.0, rel=1e-13)


def test_log_lp_norms_row_shapes_and_zero_rows():
    x = np.array([[3.0, 4.0], [0.0, 0.0]])
    out = log_lp_norms(x, 2.0)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(math.log(5.0), rel=1e-14)
    assert out[1] == -math.inf
    assert lp_norms(x, 2.0)[0] == pytest.approx(5.0, rel=1e-13)
    assert lp_norms(x, 2.0)[1] == 0.0
    with pytest.raises(ValueError):
        log_lp_norms(x, 0.0)


KERNEL_P = (1e-6, 0.01, 0.5, 1.0, 2.0, 10.0, 300.0)


def _wide_range_sample(rng, shape):
    """Signed entries with magnitudes 1e-300..1e300, about 10% zeros, and
    every fifth slice along the first axis all zero."""
    x = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-300, 300, size=shape)
    x[rng.random(shape) < 0.1] = 0.0
    x[::5] = 0.0
    return x


@pytest.mark.parametrize("p", KERNEL_P)
@pytest.mark.parametrize("shape", [(40, 300), (20, 2, 150)])
def test_log_lp_norms_matches_scipy_logsumexp(p, shape):
    x = _wide_range_sample(np.random.default_rng(12345), shape)
    with np.errstate(divide="ignore"):
        expected = logsumexp(p * np.log(np.abs(x)), axis=-1) / p
    got = log_lp_norms(x, p)
    assert got.shape == shape[:-1]
    zero_rows = ~np.any(x, axis=-1)
    assert zero_rows.any() and np.all(got[zero_rows] == -np.inf)
    np.testing.assert_allclose(got[~zero_rows], expected[~zero_rows], rtol=1e-13, atol=0)


def _one_block_log_norms(x, p):
    """The single-p kernel on the whole array as one block: abs, log, scale
    in place, max-shift log-sum-exp, then divide by p."""
    with np.errstate(divide="ignore"):
        a = np.log(np.abs(x))
    a *= p
    return monte_carlo._row_logsumexp(a) / p


@pytest.mark.parametrize("shape", [(40, 300), (20, 2, 150)])
def test_log_norms_at_matches_log_lp_norms_bit_for_bit(monkeypatch, shape):
    # abs and log are shared by every p of a block; the result at each p
    # must still be the single-p kernel's, bit for bit
    x = _wide_range_sample(np.random.default_rng(12345), shape)
    monkeypatch.setattr(monte_carlo, "_BLOCK_ENTRIES", 1000)
    stacked = monte_carlo._log_norms_at(x, KERNEL_P)
    assert stacked.shape == (len(KERNEL_P), *shape[:-1])
    zero_rows = ~np.any(x, axis=-1)
    for k, p in enumerate(KERNEL_P):
        np.testing.assert_array_equal(stacked[k], log_lp_norms(x, p))
        np.testing.assert_array_equal(stacked[k], _one_block_log_norms(x, p))
        assert np.all(stacked[k][zero_rows] == -np.inf)
    # taken logs reduced whole, with the float and the boolean mask
    logs = np.abs(x).reshape(-1, shape[-1])
    keep = monte_carlo._log_abs_finite(logs)
    for mask in (keep, keep.astype(float)):
        held = logs.copy()
        reduced = monte_carlo._reduce_logs(logs, mask, KERNEL_P, own=False)
        np.testing.assert_array_equal(
            reduced / np.array(KERNEL_P)[:, None], stacked.reshape(len(KERNEL_P), -1)
        )
        np.testing.assert_array_equal(logs, held)  # without own, logs are only read


@pytest.mark.parametrize("block_entries", [1, 700, 1000, 1 << 30])
@pytest.mark.parametrize("shape", [(23, 300), (11, 2, 150)])
def test_log_lp_norms_bits_do_not_depend_on_the_row_block(monkeypatch, block_entries, shape):
    # rows are reduced a block at a time; blocks of one row, of uneven
    # length and of the whole array must all give the same bits, at every p
    x = _wide_range_sample(np.random.default_rng(99), shape)
    whole = [log_lp_norms(x, p) for p in KERNEL_P]
    whole_at = monte_carlo._log_norms_at(x, KERNEL_P)
    monkeypatch.setattr(monte_carlo, "_BLOCK_ENTRIES", block_entries)
    for k, p in enumerate(KERNEL_P):
        np.testing.assert_array_equal(log_lp_norms(x, p), whole[k])
    np.testing.assert_array_equal(monte_carlo._log_norms_at(x, KERNEL_P), whole_at)


_entries = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(1e-100, 1e100),
        st.floats(-1e100, -1e-100),
    ),
    min_size=1,
    max_size=40,
)
_property_settings = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@_property_settings
@given(_entries, st.sampled_from(KERNEL_P), st.floats(1e-50, 1e50))
def test_log_lp_norms_scale_with_the_vector(values, p, c):
    x = np.array(values)
    base = float(log_lp_norms(x, p))
    scaled = float(log_lp_norms(c * x, p))
    if base == -math.inf:
        assert scaled == -math.inf
    else:
        assert scaled == pytest.approx(math.log(c) + base, rel=1e-12, abs=1e-12)


@_property_settings
@given(_entries, st.sampled_from(KERNEL_P), st.sampled_from(KERNEL_P))
def test_log_lp_norms_never_increase_in_p(values, p, q):
    x = np.array(values)
    lower, upper = sorted((p, q))
    small_p, large_p = float(log_lp_norms(x, lower)), float(log_lp_norms(x, upper))
    if not x.any():
        assert small_p == large_p == -math.inf
    else:
        assert large_p <= small_p + 1e-12 * max(1.0, abs(small_p))


def test_pair_contrast_hand_values():
    assert pair_contrast([3.0, 4.0], [6.0, 8.0], 2.0) == pytest.approx(1.0, rel=1e-12)
    assert pair_contrast([3.0, 4.0], [3.0, 4.0], 2.0) == pytest.approx(0.0, abs=1e-15)
    assert pair_contrast([1.0, 1.0], [0.0, 0.0], 1.0) == 1.0
    assert math.isnan(pair_contrast([0.0, 0.0], [1.0, 1.0], 1.0))


def test_wilson_halfwidth_matches_normal_quantile():
    z = norm.ppf(0.975)
    count, total = 9800, 10000
    phat = count / total
    denom = 1.0 + z * z / total
    expected = (z / denom) * math.sqrt(
        phat * (1 - phat) / total + z * z / (4 * total * total)
    )
    assert wilson_halfwidth(count, total) == pytest.approx(expected, rel=1e-12)
    assert wilson_halfwidth(0, 100) > 0.0  # never degenerates at the edge
    with pytest.raises(ValueError):
        wilson_halfwidth(1, 0)


# --- concentration sampler --------------------------------------------------

def _two_point_band_probability(n: int, a: float, p: float, delta: float) -> float:
    # nonzero count K ~ Binomial(n, 1-a); ratio^p = K / (n (1-a))
    q = 1.0 - a
    lo = n * q * (1.0 - delta) ** p
    hi = n * q * (1.0 + delta) ** p
    return float(binom.cdf(math.floor(hi), n, q) - binom.cdf(math.ceil(lo) - 1, n, q))


def _plain_log_norms(logs, p):
    """The kernel's arithmetic with nothing kept off numpy's slow path:
    scale log|x| (-inf for zeros), shift by the row max (0 where it is not
    finite), exp, sum, log, add the shift back, divide by p."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = logs * p
        shift = a.max(axis=-1, keepdims=True)
        shift[~np.isfinite(shift)] = 0.0
        return (np.log(np.exp(a - shift).sum(axis=-1)) + shift[..., 0]) / p


def _awkward_sample():
    """Rows with 30% zeros, all-zero rows, NaN and inf entries, a row of
    smallest subnormals and one mixing them with zeros."""
    x = _wide_range_sample(np.random.default_rng(7), (37, 300))
    x[np.random.default_rng(8).random(x.shape) < 0.3] = 0.0
    x[1, 3] = np.nan
    x[2, 4] = np.inf
    x[3, 5], x[3, 6] = -np.inf, np.nan
    x[4] = 5e-324
    x[6, 1::2] = 5e-324
    x[7] = 1.0
    return x


@pytest.mark.parametrize("block_entries", [1000, 1 << 17])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("p", [1e-6, 0.01, 1.0, 300.0, 1e9, 1e306])
def test_log_norms_pinned_to_plain_numpy_with_zeros_nan_and_inf(monkeypatch, block_entries, order, p):
    # zeros skip numpy's slow log/exp path inside the kernel; the bits must
    # still be those of log, exp and sum on -inf, at every p, with the last
    # p scaling the kernel's own block in place
    monkeypatch.setattr(monte_carlo, "_BLOCK_ENTRIES", block_entries)
    x = np.asarray(_awkward_sample(), order=order)
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(x))
    expected = _plain_log_norms(logs, p)
    assert np.all(expected[::5] == -np.inf) and np.isnan(expected[1]) and expected[2] == np.inf
    with np.errstate(over="ignore"):
        np.testing.assert_array_equal(log_lp_norms(x, p), expected)
        np.testing.assert_array_equal(monte_carlo._log_norms_at(x, (2.0, p))[1], expected)
        taken = np.abs(x)
        keep = monte_carlo._log_abs_finite(taken)
        held = taken.copy()
        for mask in (keep, keep.astype(float)):
            np.testing.assert_array_equal(
                monte_carlo._reduce_logs(taken, mask, (p, 2.0), own=False)[0] / p, expected
            )
        np.testing.assert_array_equal(taken, held)
        # -inf for zeros and no mask, as the per-column row pass reduces them
        np.testing.assert_array_equal(
            monte_carlo._reduce_logs(logs.copy(order="K"), None, (2.0, p), own=True)[1] / p, expected
        )


@pytest.mark.parametrize(
    "layout",
    [lambda x: x, np.asfortranarray, lambda x: np.asfortranarray(x.reshape(37, 3, 100)).transpose(1, 0, 2),
     lambda x: x[::-2, ::3]],
)
def test_log_abs_matches_plain_log_in_every_memory_order(monkeypatch, layout):
    # abs and log run on row blocks of values in whatever order they are
    # laid out in, as diagnostics' per-column pass hands over values.T
    monkeypatch.setattr(monte_carlo, "_BLOCK_ENTRIES", 1000)
    x = layout(_awkward_sample())
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(x))
    ps = (1e-6, 1.0, 300.0)
    with np.errstate(over="ignore"):
        got = monte_carlo._log_norms_at(x, ps)
        by_column = monte_carlo._log_norms_at(x.T, ps)
    for k, p in enumerate(ps):
        np.testing.assert_array_equal(got[k], _plain_log_norms(logs, p))
        np.testing.assert_array_equal(by_column[k], _plain_log_norms(logs.T, p))


_awkward_entry = st.one_of(
    st.just(0.0),
    st.just(math.inf),
    st.just(-math.inf),
    st.just(math.nan),
    st.just(5e-324),
    st.floats(1e-300, 1e300),
    st.floats(-1e300, -1e-300),
)
_blocks = st.integers(1, 12).flatmap(
    lambda n: st.lists(st.lists(_awkward_entry, min_size=n, max_size=n), min_size=1, max_size=8)
)


@_property_settings
@given(_blocks, st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=4))
def test_hoisted_row_maximum_matches_the_per_p_maximum(rows, ps):
    # rounding is monotone for p > 0, so p times a row's maximum log is the
    # maximum of the row's scaled logs: shifting every p by it must give
    # the per-p maximum's bits, on zeros, +-inf, NaN and all-zero rows
    x = np.array(rows + [[0.0] * len(rows[0])])
    taken = np.abs(x)
    keep = monte_carlo._log_abs_finite(taken)
    mask = None if keep is None else keep.astype(float)
    top = taken.max(axis=-1, keepdims=True)
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(x))  # -inf for zeros, no mask
    per_p = []
    with np.errstate(over="ignore", invalid="ignore"):
        for p in ps:
            expected = monte_carlo._row_logsumexp(taken * p, mask)
            np.testing.assert_array_equal(
                monte_carlo._row_logsumexp(taken * p, mask, top * p), expected
            )
            np.testing.assert_array_equal(monte_carlo._row_logsumexp(logs * p), expected)
            per_p.append(expected)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(monte_carlo, "_SPARSE_SHARE", 0.0)  # dense at any share of zeros
            np.testing.assert_array_equal(
                monte_carlo._reduce_logs(taken, keep, ps, own=False), per_p
            )
            np.testing.assert_array_equal(
                monte_carlo._reduce_logs(taken, keep, ps, own=False, top=top), per_p
            )
        np.testing.assert_array_equal(monte_carlo._reduce_logs(logs, None, ps, own=True), per_p)


def _sparse_sample(rng, rows, n, nonzeros, magnitudes):
    """rows x n zeros with nonzeros(r) entries of row r drawn by magnitudes."""
    x = np.zeros((rows, n))
    for r in range(rows):
        cols = rng.choice(n, size=nonzeros(r), replace=False)
        x[r, cols] = rng.choice([-1.0, 1.0], size=cols.size) * magnitudes(cols.size)
    return x


@pytest.mark.parametrize("p", KERNEL_P + (1e306,))
def test_sparse_blocks_pinned_to_plain_numpy(monkeypatch, p):
    # a block of few nonzeros is reduced over them alone, in another order;
    # a row of at most two terms, or of equal terms, sums them exactly as
    # plain numpy does, so its bits must be plain numpy's
    monkeypatch.setattr(monte_carlo, "_BLOCK_ENTRIES", 3000)
    rng = np.random.default_rng(21)
    wide = _sparse_sample(rng, 40, 300, lambda r: r % 3, lambda k: 10.0 ** rng.uniform(-300, 300, k))
    wide[1, 7], wide[2, 9], wide[3, 4], wide[3, 5] = np.nan, np.inf, -np.inf, np.nan
    wide[5, 0] = 5e-324
    equal = _sparse_sample(rng, 40, 300, lambda r: 1 + r, lambda k: np.full(k, 2.5))
    calls = []
    reduce_nonzeros = monte_carlo._reduce_nonzeros
    monkeypatch.setattr(
        monte_carlo, "_reduce_nonzeros", lambda *a: calls.append(1) or reduce_nonzeros(*a)
    )
    for x in (wide, equal):
        assert np.count_nonzero(x) < monte_carlo._SPARSE_SHARE * x.size
        with np.errstate(divide="ignore"):
            logs = np.log(np.abs(x))
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(log_lp_norms(x, p), _plain_log_norms(logs, p))
    assert len(calls) == 2 * 4  # four blocks of ten rows each


@pytest.mark.parametrize("p", KERNEL_P)
def test_sparse_blocks_move_only_at_rounding(p):
    # rows of many unequal terms sum them in another order than the dense
    # path: the results agree to rounding, with the dense path's zeros
    rng = np.random.default_rng(22)
    x = _sparse_sample(rng, 60, 2000, lambda r: r % 40, lambda k: rng.exponential(1.0, k))
    with np.errstate(divide="ignore"):
        expected = _plain_log_norms(np.log(np.abs(x)), p)
    got = log_lp_norms(x, p)
    assert np.array_equal(np.isinf(got), np.isinf(expected))
    finite = np.isfinite(expected)
    np.testing.assert_allclose(got[finite], expected[finite], rtol=1e-14, atol=1e-300)


def test_concentration_frequency_matches_exact_binomial():
    n, a, p, delta, M = 100, 0.5, 0.5, 0.2, 20_000
    exact = _two_point_band_probability(n, a, p, delta)
    freq, ci = concentration_frequency(TwoPoint(a=a), n, p, delta, M, seed=11)
    se = math.sqrt(exact * (1.0 - exact) / M)
    assert abs(freq - exact) <= 3.0 * se
    assert ci == pytest.approx(1.96 * math.sqrt(freq * (1 - freq) / M), rel=0.05)


def test_concentration_frequency_validation():
    with pytest.raises(ValueError):
        concentration_frequency(UniformUnit(), 10, 1.0, 0.1, M=50, seed=0)
    with pytest.raises(ValueError):
        concentration_frequency(UniformUnit(), 0, 1.0, 0.1, M=200, seed=0)
    with pytest.raises(ValueError):
        concentration_frequency(UniformUnit(), 10, 1.0, 0.0, M=200, seed=0)
    with pytest.raises(ValueError):
        concentration_frequency(UniformUnit(), 10, 1.0, 0.1, M=200, seed=0,
                                normalization="bogus")


def test_concentration_frequency_wide_band_keeps_only_upper_constraint():
    # sum of n uniforms never tops 2 * (n * mean), so delta = 2 catches all
    freq, _ = concentration_frequency(UniformUnit(), 50, 1.0, 2.0, M=200, seed=5)
    assert freq == 1.0


def test_concentration_frequency_worker_count_is_invisible():
    # n chosen so the plan spans several chunks
    for normalization in ("analytic-mu", "empirical-mu"):
        kwargs = dict(n=2048, p=1.0, delta=0.1, M=5000, seed=42, normalization=normalization)
        f1, c1 = concentration_frequency(UniformUnit(), workers=1, **kwargs)
        f4, c4 = concentration_frequency(UniformUnit(), workers=4, **kwargs)
        fd, cd = concentration_frequency(UniformUnit(), workers=None, **kwargs)
        assert f1 == f4 == fd
        assert c1 == c4 == cd


def _counting(law=UniformUnit, **params):
    """A law of that class that records the size of every array it draws."""
    drawn = []

    class Counting(law):
        def draw(self, rng, size):
            x = super().draw(rng, size)
            drawn.append(x.size)
            return x

    return Counting(**params), drawn


def test_empirical_mu_draws_each_entry_once():
    # n chosen so the plan spans several chunks
    n, M = 2048, 5000
    dist, drawn = _counting()
    concentration_frequency(dist, n, 1.0, 0.1, M, seed=4, normalization="empirical-mu")
    assert sum(drawn) == M * n
    dist, drawn = _counting()
    relative_contrast(dist, n, 1.0, M, seed=4, delta=0.1, normalization="empirical-mu")
    assert sum(drawn) == 2 * M * n


def test_concentration_frequency_empirical_normalizer_tracks_analytic():
    kwargs = dict(n=1000, p=1.0, delta=0.1, M=2000, seed=9)
    ana, _ = concentration_frequency(UniformUnit(), normalization="analytic-mu", **kwargs)
    emp, _ = concentration_frequency(UniformUnit(), normalization="empirical-mu", **kwargs)
    assert abs(ana - emp) <= 0.02


def test_curve_sweep_shape_failed_cells_and_determinism():
    # 2^5000 overflows the mean of |x|^p, so that cell must fail cleanly
    grid = curve_sweep(
        UniformSymmetric(b=2.0),
        p_grid=[1.0, 5000.0],
        n_grid=[16, 64],
        delta=0.1,
        M=200,
        seed=3,
    )
    assert grid.p_grid == (1.0, 5000.0)
    assert grid.n_grid == (16, 64)
    assert len(grid.freq) == 2 and len(grid.freq[0]) == 2
    assert math.isnan(grid.freq[1][0]) and math.isnan(grid.freq[1][1])
    assert {(i, j) for i, j, _ in grid.failed} == {(1, 0), (1, 1)}
    assert all(math.isfinite(v) for v in grid.freq[0])

    again = curve_sweep(
        UniformSymmetric(b=2.0),
        p_grid=[1.0, 5000.0],
        n_grid=[16, 64],
        delta=0.1,
        M=200,
        seed=3,
    )
    assert again.freq == grid.freq and again.ci_halfwidth == grid.ci_halfwidth


@pytest.mark.parametrize("normalization", monte_carlo.NORMALIZATIONS)
def test_curve_sweep_marks_a_nonpositive_p_failed_under_either_normalization(normalization):
    # empirical-mu has no law mean to reject p <= 0, so the p check alone
    # must keep the cell out of the sample
    grid = curve_sweep(UniformUnit(), p_grid=[-1.0, 1.0], n_grid=[10], M=200,
                       normalization=normalization)
    assert [(i, j) for i, j, _ in grid.failed] == [(0, 0)]
    assert math.isnan(grid.freq[0][0]) and math.isfinite(grid.freq[1][0])


@pytest.mark.parametrize("normalization", monte_carlo.NORMALIZATIONS)
def test_curve_sweep_cells_equal_concentration_frequency_bit_for_bit(monkeypatch, normalization):
    # one pool runs every cell's chunks, largest first; each cell must still
    # be concentration_frequency on its own stream, and failed cells (the
    # n = 0 column, and under analytic-mu the overflowing p = 5000 row) keep
    # their grid order and messages
    monkeypatch.setattr(monte_carlo, "CHUNK_TARGET_ENTRIES", 2000)  # 2 and 5 unequal chunks
    dist = UniformSymmetric(b=2.0)
    ps, ns, M, delta = (1.0, 5000.0, 0.5), (16, 0, 64), 150, 0.1
    grid = curve_sweep(dist, ps, ns, delta, M, seed=4, normalization=normalization, workers=2)
    expected_failed = []
    for i, p in enumerate(ps):
        for j, n in enumerate(ns):
            try:
                f, c = concentration_frequency(
                    dist, n, p, delta, M, derive_seed(4, i, j), normalization
                )
            except (ValueError, OverflowError) as exc:
                expected_failed.append((i, j, str(exc)))
                assert math.isnan(grid.freq[i][j]) and math.isnan(grid.ci_halfwidth[i][j])
            else:
                assert (grid.freq[i][j], grid.ci_halfwidth[i][j]) == (f, c)
    assert grid.failed == tuple(expected_failed)
    failed_cells = [(0, 1), (1, 1), (2, 1)]
    if normalization == "analytic-mu":
        failed_cells = [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)]
    assert [(i, j) for i, j, _ in grid.failed] == failed_cells


def test_curve_sweep_cell_streams_do_not_shift_with_grid_growth():
    small = curve_sweep(UniformUnit(), p_grid=[0.5], n_grid=[64], M=200, seed=7)
    large = curve_sweep(UniformUnit(), p_grid=[0.5, 1.0], n_grid=[64], M=200, seed=7)
    assert small.freq[0][0] == large.freq[0][0]


def test_curve_sweep_serialization_round_trip():
    grid = curve_sweep(UniformUnit(), p_grid=[1.0], n_grid=[8, 16], M=150, seed=1)
    record = _record(grid, sample_count="M")
    assert set(record) == {"p_grid", "n_grid", "freq", "ci", "M", "seed",
                          "normalization", "failed"}
    assert record["M"] == 150
    rows = list(grid.rows())
    assert len(rows) == 2
    assert rows[0][:2] == (1.0, 8)
    assert rows[0][2] == grid.freq[0][0]


# --- pairwise contrast ------------------------------------------------------

def test_relative_contrast_counts_skipped_first_vectors():
    # first vector of a pair is all-zero with probability 0.9^3 = 0.729
    summary = relative_contrast(TwoPoint(a=0.9), n=3, p=1.0, M=2000, seed=13, delta=0.5)
    expected = 0.729 * 2000
    sd = math.sqrt(2000 * 0.729 * 0.271)
    assert abs(summary.skipped - expected) <= 5 * sd
    assert summary.skipped_fraction == summary.skipped / 2000
    assert summary.pairs == 2000
    assert 0.0 <= summary.freq_below_delta <= 1.0


def test_relative_contrast_joint_band_is_a_lower_bound():
    for dist, n in ((UniformUnit(), 200), (TwoPoint(a=0.9), 50)):
        summary = relative_contrast(dist, n=n, p=1.0, M=2000, seed=21, delta=0.1)
        valid = summary.pairs - summary.skipped
        assert summary.joint_half_band_freq <= summary.freq_below_delta * valid / summary.pairs + 1e-12


def test_relative_contrast_median_shrinks_with_dimension():
    wide = relative_contrast(UniformUnit(), n=4000, p=2.0, M=500, seed=2, delta=0.1)
    narrow = relative_contrast(UniformUnit(), n=40, p=2.0, M=500, seed=2, delta=0.1)
    assert wide.median_rc < narrow.median_rc
    assert wide.median_rc < 0.02


def test_relative_contrast_worker_count_is_invisible():
    for normalization in ("analytic-mu", "empirical-mu"):
        kwargs = dict(n=1024, p=0.5, M=4000, seed=17, delta=0.2, normalization=normalization)
        a = relative_contrast(UniformUnit(), workers=1, **kwargs)
        b = relative_contrast(UniformUnit(), workers=3, **kwargs)
        assert a.freq_below_delta == b.freq_below_delta
        assert a.joint_half_band_freq == b.joint_half_band_freq
        assert a.median_rc == b.median_rc
        assert a.skipped == b.skipped


def test_relative_contrast_validation_and_serialization():
    with pytest.raises(ValueError):
        relative_contrast(UniformUnit(), n=10, p=1.0, M=50, seed=0, delta=0.1)
    with pytest.raises(ValueError):
        relative_contrast(UniformUnit(), n=10, p=1.0, M=200, seed=0, delta=1.0)
    summary = relative_contrast(UniformUnit(), n=16, p=1.0, M=200, seed=0, delta=0.1)
    record = _record(summary)
    assert record["pairs"] == 200
    assert record["p"] == 1.0 and record["n"] == 16
    assert {"median_rc", "freq_below_delta", "joint_half_band_freq", "ci",
            "skipped", "skipped_fraction", "delta", "seed"} <= set(record)


# --- one sample at many p ---------------------------------------------------

PSTAR_ARGS = dict(n=50, delta=0.1, Delta=0.2, method="monte-carlo", M=200, iterations=12)


def _zero_inflated_uniform():
    return _counting(ZeroInflated, a=0.3, base=UniformUnit())


def test_contrast_sweep_matches_one_relative_contrast_per_p(monkeypatch):
    monkeypatch.setattr(monte_carlo, "CHUNK_TARGET_ENTRIES", 1 << 14)  # 4 chunks
    n, M, ps = 300, 100, (0.01, 0.5)
    for normalization in ("analytic-mu", "empirical-mu"):
        kwargs = dict(M=M, seed=8, delta=0.1, normalization=normalization, workers=2)
        dist, drawn = _counting()
        swept = contrast_sweep(dist, n, ps, **kwargs)
        assert sum(drawn) == 2 * M * n and len(drawn) == 4
        assert list(swept) == [relative_contrast(UniformUnit(), n, p, **kwargs) for p in ps]


def test_contrast_sweep_checks_every_p_before_drawing():
    for p_grid, law, params in (
        ((0.5, -1.0), UniformUnit, {}),
        ((0.5, math.nan), UniformUnit, {}),
        ((), UniformUnit, {}),
        ((1.0, 5000.0), UniformSymmetric, {"b": 2.0}),  # 2^5000 overflows mu_p
    ):
        dist, drawn = _counting(law, **params)
        with pytest.raises((ValueError, OverflowError)):
            contrast_sweep(dist, 16, p_grid, M=200, seed=0, delta=0.1)
        assert drawn == []
    dist, drawn = _counting()
    with pytest.raises(ValueError):
        contrast_sweep(dist, 0, (1.0,), M=200, seed=0, delta=0.1)
    assert drawn == []


def test_contrast_sweep_reports_an_overflowing_mean_as_value_error():
    dist, drawn = _counting(UniformSymmetric, b=2.0)  # 2^5000 overflows mu_p
    with pytest.raises(ValueError, match="non-finite"):
        contrast_sweep(dist, 16, (5000.0,), M=200, seed=0, delta=0.1)
    assert drawn == []


def test_find_p_star_monte_carlo_draws_its_sample_once(monkeypatch):
    monkeypatch.setattr(monte_carlo, "CHUNK_TARGET_ENTRIES", 2000)  # 40 rows, 5 chunks
    dist, drawn = _zero_inflated_uniform()
    report = find_p_star(dist, workers=2, **PSTAR_ARGS)
    assert sum(drawn) == 200 * 50 and len(drawn) == 5
    assert report.p_star is not None and report.exact_prob_at_p_star <= 0.2
    freq, _ = concentration_frequency(
        ZeroInflated(a=0.3, base=UniformUnit()), 50, report.p_star, 0.1, 200, report.seed
    )
    assert report.exact_prob_at_p_star == freq

    # a budget of one chunk holds the first and draws the other four again
    # at each of the 14 evaluations; the report must not change
    monkeypatch.setattr(monte_carlo, "_HELD_ENTRIES", 2000)
    dist, drawn = _zero_inflated_uniform()
    assert find_p_star(dist, workers=2, **PSTAR_ARGS) == report
    assert sum(drawn) == 2000 + 14 * 4 * 2000


def test_median_equals_numpy_bit_for_bit():
    rng = np.random.default_rng(8)
    for size in range(1, 60):
        a = rng.normal(size=size) * 10.0 ** rng.uniform(-3, 3, size)
        a[rng.random(size) < 0.3] = a[0]  # ties
        assert monte_carlo._median(a.copy()) == float(np.median(a))
        a[int(rng.integers(size))] = np.nan
        assert math.isnan(monte_carlo._median(a.copy()))


def test_find_p_star_leaves_no_thread_it_started(monkeypatch):
    # find_p_star owns the pool its bisection runs on and joins its threads
    # before it returns; the test compares thread objects, not counts, so
    # threads another test left behind are neither counted nor waited for
    monkeypatch.setattr(monte_carlo, "_BLOCK_ENTRIES", 1000)  # 10 row-block tasks
    before = set(threading.enumerate())
    seen = set()
    make = monte_carlo.band_frequency_at

    def watched(*args, **kwargs):
        frequency = make(*args, **kwargs)

        def call(p):
            result = frequency(p)
            seen.update(threading.enumerate())
            return result

        return call

    monkeypatch.setattr(monte_carlo, "band_frequency_at", watched)
    find_p_star(ZeroInflated(a=0.3, base=UniformUnit()), workers=2, **PSTAR_ARGS)
    started = seen - before
    assert started, "the bisection ran on pool threads"
    assert [t.name for t in started if t.is_alive()] == []


def test_find_p_star_monte_carlo_validation():
    dist, drawn = _zero_inflated_uniform()
    with pytest.raises(ValueError):
        find_p_star(dist, **{**PSTAR_ARGS, "M": 50})
    assert drawn == []
    with pytest.raises(ValueError):
        band_frequency_at(dist, 0, 0.1, M=200, seed=0)
    frequency = band_frequency_at(UniformSymmetric(b=2.0), 16, 0.1, M=200, seed=0)
    with pytest.raises((ValueError, OverflowError)):
        frequency(5000.0)  # 2^5000 overflows mu_p


_sizes = st.tuples(
    st.integers(100, 240),  # M
    st.integers(1, 40),  # n
    st.integers(3, 6),  # chunks the plan is forced into, about
    st.integers(0, 3),  # chunks band_frequency_at holds
    st.integers(1, 60),  # rows per held row-block task (and kernel block)
)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(_sizes)
def test_outputs_do_not_depend_on_workers_or_chunking(sizes):
    M, n, chunks, held, block_rows = sizes
    rows = -(-M // chunks)
    dist = ZeroInflated(a=0.3, base=UniformUnit())
    results = []
    for workers in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(monte_carlo, "CHUNK_TARGET_ENTRIES", rows * n)
            mp.setattr(monte_carlo, "_HELD_ENTRIES", held * rows * n if workers > 1 else 1 << 25)
            mp.setattr(monte_carlo, "_BLOCK_ENTRIES", block_rows * n if workers > 1 else 1 << 17)
            frequency = band_frequency_at(dist, n, 0.1, M, 5, workers)
            results.append((
                curve_sweep(dist, (0.1, 1.0), (n, 2 * n), M=M, seed=5, workers=workers),
                contrast_sweep(UniformUnit(), n, (0.1, 1.0), M, 5, 0.2, "empirical-mu", workers),
                find_p_star(dist, n, 0.1, 0.2, method="monte-carlo", M=M, iterations=6,
                            workers=workers),
                tuple(frequency(p) for p in (0.05, 1.0, 4.0)),
            ))
    assert results[0] == results[1] == results[2]
