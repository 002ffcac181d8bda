"""Real-data diagnostics: CSV intake, transforms, drift tests, curves.

The KS statistic is checked against a brute-force double loop and scipy's
implementation; the Wasserstein distance against sorted-pairing and a hand
CDF-area computation.
"""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import kolmogorov
from scipy.stats import ks_2samp, wasserstein_distance

from lpconc import diagnostics, monte_carlo
from lpconc.cli import _record, run
from lpconc.diagnostics import (
    Dataset,
    concentration_curve,
    drop_constant,
    ks_two_sample,
    load_csv,
    mode_shift,
    perturb_report,
    standardize,
    wasserstein_1d,
    zero_impute,
)
from lpconc.seeding import generator


# --- CSV intake -------------------------------------------------------------

def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_csv_happy_path(tmp_path):
    path = _write(tmp_path, "a,b,c\n1,2,3\n4,5,6\n")
    data = load_csv(path)
    assert data.column_names == ("a", "b", "c")
    assert data.values.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    assert data.meta["path"] == path
    assert data.meta["missing_cells"] == 0
    assert (data.M, data.n) == (2, 3)


def test_load_csv_reports_bad_cell_coordinates(tmp_path):
    path = _write(tmp_path, "x,y\n1,2\n3,oops\n")
    with pytest.raises(ValueError, match=r"row 3.*'y'.*'oops'"):
        load_csv(path)


def test_load_csv_rejects_ragged_rows(tmp_path):
    path = _write(tmp_path, "x,y\n1,2\n3\n")
    with pytest.raises(ValueError, match="row 3 has 1 cells, expected 2"):
        load_csv(path)


def test_load_csv_missing_policies(tmp_path):
    path = _write(tmp_path, "x,y\n1,2\n3,NA\n5,6\n")
    with pytest.raises(ValueError, match="1 missing cells"):
        load_csv(path)
    dropped = load_csv(path, missing_policy="drop-rows")
    assert dropped.values.tolist() == [[1.0, 2.0], [5.0, 6.0]]
    with pytest.warns(UserWarning, match="atom"):
        imputed = load_csv(path, missing_policy="mean-impute")
    assert imputed.values[1, 1] == pytest.approx(4.0)  # mean of 2 and 6
    assert imputed.meta["missing_cells"] == 1
    with pytest.raises(ValueError):
        load_csv(path, missing_policy="bogus")


def test_load_csv_treats_inf_as_missing(tmp_path):
    path = _write(tmp_path, "x\n1\ninf\n3\n")
    data = load_csv(path, missing_policy="drop-rows")
    assert data.values.tolist() == [[1.0], [3.0]]


def test_load_csv_empty_and_headerless(tmp_path):
    with pytest.raises(ValueError, match="empty file"):
        load_csv(_write(tmp_path, ""))
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(_write(tmp_path, "a,b\n"))
    with pytest.raises(ValueError, match="every row"):
        load_csv(_write(tmp_path, "a\nNA\n"), missing_policy="drop-rows")


def test_load_csv_custom_delimiter(tmp_path):
    path = _write(tmp_path, "a;b\n1;2\n")
    data = load_csv(path, delimiter=";")
    assert data.values.tolist() == [[1.0, 2.0]]


def test_load_csv_reports_a_digit_separator_as_unparseable(tmp_path):
    # float() reads 1_0 as 10.0; numpy's reader rejects it, and so must the
    # per-cell loop the file then falls to
    path = _write(tmp_path, "x,y\n1,2\n3,1_0\n4,5\n")
    with pytest.raises(ValueError, match=r"unparseable cell at row 3, column 'y': '1_0'"):
        load_csv(path)


@pytest.mark.parametrize("digit", ["\uff11", "\u0663"], ids=["full-width-1", "arabic-indic-3"])
def test_load_csv_reports_a_non_ascii_digit_as_unparseable(tmp_path, digit):
    # float() reads a full-width 1 as 1.0 and an Arabic-Indic 3 as 3.0;
    # numpy's reader rejects both, and so must the per-cell loop
    path = _write(tmp_path, f"x,y\n1,2\n{digit},3\n")
    with pytest.raises(ValueError, match=f"unparseable cell at row 3, column 'x': '{digit}'"):
        load_csv(path)


# --- C reader against the per-cell oracle -----------------------------------

def _write_bytes(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode())  # keeps \r and \r\n line ends as written
    return str(path)


def _routes(monkeypatch):
    """Record, per load, whether numpy's C reader returned the matrix."""
    taken = []
    real = diagnostics._clean_body

    def spy(*args):
        matrix = real(*args)
        taken.append(matrix is not None)
        return matrix

    monkeypatch.setattr(diagnostics, "_clean_body", spy)
    return taken


def _assert_same_bits(path, delimiter=","):
    """load_csv against csv.reader plus float() on every stripped cell."""
    with open(path, newline="") as handle:
        records = list(csv.reader(handle, delimiter=delimiter))
    want = np.array([[float(cell.strip()) for cell in r] for r in records[1:] if r], dtype=float)
    data = load_csv(path, delimiter=delimiter)
    assert data.values.shape == want.shape
    assert np.array_equal(data.values.view(np.int64), want.view(np.int64))
    assert data.column_names == tuple(name.strip() for name in records[0])
    return data


@pytest.mark.parametrize("fmt", [repr, "%.12g".__mod__], ids=["repr", "%.12g"])
def test_c_reader_matches_float_on_random_doubles(tmp_path, monkeypatch, fmt):
    rng = generator(23)
    values = rng.normal(size=(200, 6)) * 10.0 ** rng.integers(-300, 300, size=(200, 6))
    values[:8, 0] = [-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308 / 3,
                     1e308, -1e308, 1.7976931348623157e308]
    text = "a,b,c,d,e,f\n" + "".join(",".join(map(fmt, row)) + "\n" for row in values.tolist())
    taken = _routes(monkeypatch)
    data = _assert_same_bits(_write_bytes(tmp_path, text))
    assert taken == [True] and data.meta["missing_cells"] == 0
    assert math.copysign(1.0, data.values[0, 0]) == -1.0


@pytest.mark.parametrize(
    "text, delimiter",
    [
        ("a,b\n 1.5 , -2 \n3,\t4e-3\n", ","),  # spaces around cells
        ('a,b\n"1.5","-2"\n3,"4"\n', ","),  # quoted numeric cells
        ("a,b\r\n1,2\r\n3,4\r\n", ","),
        ("a,b\r1,2\r3,4\r", ","),
        ("a,b\n\n1,2\n\n\n3,4\n\n", ","),  # blank lines
        ("a,b,c\n1,2,3\n", ","),
        ("a\n1\n2\n3\n", ","),
        ("a\n7\n", ","),
        ("a;b\n1.25;2\n3;-4\n", ";"),
        ("a\tb\n1.25\t2\n3\t-4\n", "\t"),
        ('"first\nname",b\n1,2\n3,4\n', ","),  # a quoted name spans two lines
    ],
    ids=["spaces", "quoted", "crlf", "cr", "blank-lines", "one-row", "one-column",
         "one-cell", "semicolon", "tab", "two-line-name"],
)
def test_c_reader_matches_float_on_layouts(tmp_path, monkeypatch, text, delimiter):
    taken = _routes(monkeypatch)
    _assert_same_bits(_write_bytes(tmp_path, text), delimiter)
    assert taken == [True]


def test_loader_rejects_digit_separators_and_keeps_nonfinite_as_missing(tmp_path, monkeypatch):
    taken = _routes(monkeypatch)
    # float() alone would read 1_000 as 1000.0, which numpy's reader rejects
    with pytest.raises(ValueError, match="unparseable cell at row 2, column 'a': '1_000'"):
        load_csv(_write(tmp_path, "a,b\n1_000,2\n"))
    path = _write(tmp_path, "a,b\n1,nan\ninf,2\n1e400,3\n4,-inf\n5,6\n")
    data = load_csv(path, missing_policy="drop-rows")
    assert data.meta["missing_cells"] == 4 and data.values.tolist() == [[5.0, 6.0]]
    assert taken == [False, False]


def test_per_cell_loader_skips_blank_lines(tmp_path, monkeypatch):
    taken = _routes(monkeypatch)
    path = _write(tmp_path, "a,b\n1,2\n\n3,NA\n\n4,5\n")
    data = load_csv(path, missing_policy="drop-rows")
    assert data.values.tolist() == [[1.0, 2.0], [4.0, 5.0]]
    assert data.meta["missing_cells"] == 1 and taken == [False]


def test_loader_honours_a_marker_that_reads_as_a_number(tmp_path):
    path = _write(tmp_path, "a,b\n1,-999\n2,3\n")
    data = load_csv(path, missing_markers=("-999",), missing_policy="drop-rows")
    assert data.meta["missing_cells"] == 1 and data.values.tolist() == [[2.0, 3.0]]


def test_header_only_file_raises_without_a_warning(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(_write(tmp_path, "a,b\n"))


def test_mean_impute_names_a_column_with_no_values(tmp_path):
    path = _write(tmp_path, "a,b\n1,NA\n2,NA\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="column 'b' has no value"):
            load_csv(path, missing_policy="mean-impute")


# --- Dataset and transforms -------------------------------------------------

def test_dataset_unique_counts_and_constant_columns():
    data = Dataset(
        np.array([[1.0, 5.0, 0.1], [2.0, 5.0, 0.2], [1.0, 5.0, 0.3]]),
        ("u", "c", "v"),
    )
    assert data.unique_counts == (2, 1, 3)
    assert data.constant_mask == (False, True, False)
    assert data.constant_columns == ("c",)
    assert data.column("v").tolist() == [0.1, 0.2, 0.3]


def test_constant_mask_matches_unique_counts():
    # compared with the first row, without a sort; 0.0 and -0.0 are one
    # value to both, and a one-row matrix is constant in every column
    rng = np.random.default_rng(4)
    values = np.column_stack([
        rng.normal(size=30),
        np.full(30, 2.5),
        np.where(rng.random(30) < 0.5, 0.0, -0.0),
        rng.integers(0, 2, 30).astype(float),
        np.r_[np.full(29, 1.0), 1.0 + 2**-52],
    ])
    for matrix in (values, values[:1], values[3:5]):
        data = Dataset(matrix, tuple("abcde"))
        assert data.constant_mask == tuple(c == 1 for c in data.unique_counts)
    assert Dataset(values, tuple("abcde")).constant_mask == (False, True, True, False, False)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.array([1.0, 2.0]), ("a",))
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0, math.nan]]), ("a", "b"))
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0, 2.0]]), ("a",))


def test_drop_constant():
    data = Dataset(np.array([[1.0, 5.0], [2.0, 5.0]]), ("u", "c"))
    slim = drop_constant(data)
    assert slim.column_names == ("u",)
    assert slim.meta["dropped_constant"] == 1
    # nothing to drop returns the same object untouched
    assert drop_constant(slim) is slim
    # nothing left to keep is an error that says why
    for values in ([[1.0, 5.0]], [[1.0, 5.0], [1.0, 5.0]]):
        rows = len(values)
        with pytest.raises(ValueError, match=f"every column is constant over the {rows} row"):
            drop_constant(Dataset(np.array(values), ("u", "c")))


def test_standardize_moments_and_errors():
    rng = generator(3)
    data = Dataset(rng.normal(5.0, 3.0, (40, 4)), ("a", "b", "c", "d"))
    std = standardize(data)
    assert np.abs(std.values.mean(axis=0)).max() < 1e-12
    assert np.abs(std.values.std(axis=0, ddof=1) - 1.0).max() < 1e-12
    again = standardize(std)
    assert np.abs(again.values - std.values).max() < 1e-12
    with pytest.raises(ValueError):
        standardize(Dataset(np.array([[1.0]]), ("a",)))
    with pytest.raises(ValueError):
        standardize(Dataset(np.array([[1.0, 5.0], [2.0, 5.0]]), ("a", "c")))


def test_zero_impute_edges_and_statistics():
    rng = generator(4)
    data = Dataset(rng.normal(1.0, 1.0, (200, 50)), tuple(f"c{i}" for i in range(50)))
    same = zero_impute(data, 0.0, seed=1)
    assert np.array_equal(same.values, data.values)
    assert same.meta["realized_fraction"] == 0.0
    allzero = zero_impute(data, 1.0, seed=1)
    assert np.all(allzero.values == 0.0)
    mid = zero_impute(data, 0.05, seed=9)
    se = math.sqrt(0.05 * 0.95 / data.values.size)
    assert abs(mid.meta["realized_fraction"] - 0.05) < 5 * se
    assert mid.meta["gap_prob"] == 0.05 and mid.meta["impute_seed"] == 9
    assert np.array_equal(mid.values, zero_impute(data, 0.05, seed=9).values)
    with pytest.raises(ValueError):
        zero_impute(data, 1.5, seed=0)


def test_mode_shift_tie_break_and_zero_mode():
    data = Dataset(
        np.array([
            [1.0, 0.0, 10.0],
            [1.0, 0.0, 20.0],
            [2.0, 0.0, 30.0],
            [2.0, 3.0, 40.0],
            [3.0, 3.0, 50.0],
        ]),
        ("tied", "zero_mode", "wide"),
    )
    # ties resolve toward the smallest level, so column one subtracts 1
    shifted = mode_shift(data, max_unique=4)
    assert shifted.column("tied").tolist() == [0.0, 0.0, 1.0, 1.0, 2.0]
    # the mode of column two is already 0: untouched
    assert shifted.column("zero_mode").tolist() == [0.0, 0.0, 0.0, 3.0, 3.0]
    # five unique values is not below max_unique=4
    assert shifted.column("wide").tolist() == [10.0, 20.0, 30.0, 40.0, 50.0]
    assert shifted.meta["mode_shift_affected"] == 1
    assert shifted.meta["mode_shift_zeros"] == 2
    with pytest.raises(ValueError):
        mode_shift(data, max_unique=1)


def test_mode_shift_majority_mode():
    data = Dataset(np.array([[1.0], [1.0], [1.0], [2.0]]), ("x",))
    shifted = mode_shift(data, max_unique=20)
    assert shifted.column("x").tolist() == [0.0, 0.0, 0.0, 1.0]


# --- distribution drift tests -----------------------------------------------

def _brute_ks(x, y):
    points = np.concatenate([x, y])
    best = 0.0
    for t in points:
        fx = np.mean(x <= t)
        fy = np.mean(y <= t)
        best = max(best, abs(fx - fy))
    return best


def test_ks_statistic_matches_brute_force_and_scipy():
    rng = generator(5)
    x = rng.normal(0.0, 1.0, 40)
    y = rng.normal(0.3, 1.2, 55)
    stat, pval = ks_two_sample(x, y)
    assert stat == pytest.approx(_brute_ks(x, y), abs=1e-15)
    assert stat == pytest.approx(ks_2samp(x, y).statistic, abs=1e-15)
    lam = math.sqrt(40 * 55 / 95) * stat
    assert pval == pytest.approx(float(kolmogorov(lam)), rel=1e-10)


def test_ks_edge_cases():
    x = np.arange(10.0)
    stat, pval = ks_two_sample(x, x)
    assert stat == 0.0 and pval == 1.0
    stat, pval = ks_two_sample(x, x + 100.0)
    assert stat == 1.0
    assert pval < 1e-4
    with pytest.raises(ValueError):
        ks_two_sample(x[:5], x)


def test_ks_zero_inflation_signature():
    # zero-imputing a positive sample puts the whole gap mass at the jump
    rng = generator(60)
    x = rng.random(500)
    mask = generator(61).random(500) < 0.1
    y = np.where(mask, 0.0, rng.random(500))
    stat, _ = ks_two_sample(x, y)
    assert 0.05 <= stat <= 0.17


def test_wasserstein_sorted_pairing_oracle():
    rng = generator(6)
    x = rng.normal(0.0, 1.0, 64)
    y = rng.normal(0.5, 2.0, 64)
    expected = float(np.mean(np.abs(np.sort(x) - np.sort(y))))
    assert wasserstein_1d(x, y) == pytest.approx(expected, rel=1e-12)


def _zero_imputed_pair(size_x, size_y, seed):
    # y is a shorter, zero-imputed draw of x's law: a third of its points
    # tie at exactly 0, and x carries ties at 0 of its own
    rng = generator(seed)
    x = np.where(rng.random(size_x) < 0.05, 0.0, rng.normal(0.2, 1.0, size_x))
    y = np.where(rng.random(size_y) < 0.35, 0.0, rng.normal(0.2, 1.0, size_y))
    return x, y


@pytest.mark.parametrize("size_x,size_y,seed", [(301, 97, 12), (40, 1000, 13), (1, 25, 14)])
def test_wasserstein_matches_scipy_with_ties_at_zero(size_x, size_y, seed):
    x, y = _zero_imputed_pair(size_x, size_y, seed)
    expected = float(wasserstein_distance(x, y))
    assert wasserstein_1d(x, y) == pytest.approx(expected, rel=1e-12)
    assert wasserstein_1d(y, x) == pytest.approx(expected, rel=1e-12)
    if min(size_x, size_y) >= 10:
        assert ks_two_sample(x, y)[0] == _brute_ks(x, y)


def _drift_by_searchsorted(x, y):
    """KS and W1 with each ECDF read on the merged grid by searchsorted."""
    xs, ys = np.sort(x), np.sort(y)
    grid = np.sort(np.concatenate([xs, ys]), kind="stable")
    gap = np.abs(
        np.searchsorted(xs, grid, side="right") / xs.size
        - np.searchsorted(ys, grid, side="right") / ys.size
    )
    return float(np.max(gap)), float(np.sum(gap[:-1] * np.diff(grid)))


@pytest.mark.parametrize("size_x,size_y,seed", [(1, 25, 14), (40, 1000, 13), (301, 97, 12)])
def test_drift_merge_matches_searchsorted_bit_for_bit(size_x, size_y, seed):
    # the counts come from one stable merge instead of two searchsorted
    # calls; they are integers, so KS and W1 keep their bits, with ties,
    # zeros of both signs and a point shared by both samples
    x, y = _zero_imputed_pair(size_x, size_y, seed)
    rng = np.random.default_rng(seed)
    y[rng.random(size_y) < 0.5] = -0.0
    tied = np.round(x * 2.0) / 2.0
    tied[::3] = -0.0
    for a, b in ((x, y), (y, x), (tied, y), (y, tied), (tied, np.round(y))):
        assert diagnostics._drift(a, b) == _drift_by_searchsorted(a, b)


def test_wasserstein_hand_case_shift_and_errors():
    # CDF area between {0,1} and {0,1,2}: steps of 1/6 height over [0,1]
    # and [1,2] plus 1/3 over none -> total 1/2
    assert wasserstein_1d([0.0, 1.0], [0.0, 1.0, 2.0]) == pytest.approx(0.5, rel=1e-12)
    x = np.linspace(0.0, 1.0, 17)
    assert wasserstein_1d(x, x + 0.3) == pytest.approx(0.3, rel=1e-12)
    assert wasserstein_1d(x, x) == 0.0
    with pytest.raises(ValueError):
        wasserstein_1d([], [1.0])


# --- concentration curves ----------------------------------------------------

def test_curve_identical_rows_concentrate_everywhere():
    data = Dataset(np.ones((5, 4)), ("a", "b", "c", "d"))
    curve = concentration_curve(data, p_grid=[0.01, 1.0, 10.0], delta=0.1)
    assert curve.fraction == (1.0, 1.0, 1.0)
    assert curve.flagged == (False, False, False)


def test_curve_single_binary_column_hand_computed():
    # rows alternate 0 and 1; a one-row ratio is 2^(1/p), inside the band
    # only once p exceeds log2/log1.1
    values = np.array([[0.0], [1.0]] * 5)
    data = Dataset(values, ("x",))
    curve = concentration_curve(data, p_grid=[1.0, 10.0], delta=0.1)
    assert curve.fraction[0] == 0.0
    assert curve.fraction[1] == 0.5


def test_curve_flags_unrepresentable_points(tmp_path, capsys):
    data = Dataset(np.zeros((4, 3)), ("a", "b", "c"))
    curve = concentration_curve(data, p_grid=[0.5, 1.0])
    assert curve.flagged == (True, True)
    assert all(math.isnan(f) for f in curve.fraction)
    path = tmp_path / "zeros.csv"
    path.write_text("a,b,c\n" + "0,0,0\n" * 4)
    assert run(["diagnose", "--input", str(path), "--p", "0.5,1", "--keep-constant"]) == 0
    record = json.loads(capsys.readouterr().out)["results"]["curve"]
    assert record["points"][0]["flagged"] is True


def test_curve_per_column_normalization():
    rng = generator(8)
    sample = rng.random(60) + 0.5
    # every column a permutation of one sample: identical column moments
    # make the two conventions coincide
    data = Dataset(
        np.column_stack([rng.permutation(sample) for _ in range(4)]),
        tuple("abcd"),
    )
    pooled = concentration_curve(data, p_grid=[0.5, 2.0], normalization="pooled")
    percol = concentration_curve(data, p_grid=[0.5, 2.0], normalization="per-column")
    assert pooled.fraction == pytest.approx(percol.fraction, abs=1e-12)
    # one column blown up by 100x: per-column rescues it, pooled cannot
    base = rng.random((60, 3)) + 0.5
    skewed = Dataset(np.hstack([base, 100.0 * base[:, :1]]), tuple("abcd"))
    pooled_s = concentration_curve(skewed, p_grid=[2.0], normalization="pooled")
    percol_s = concentration_curve(skewed, p_grid=[2.0], normalization="per-column")
    assert percol_s.fraction[0] > pooled_s.fraction[0]
    with pytest.raises(ValueError):
        concentration_curve(data, normalization="bogus")
    with pytest.raises(ValueError):
        concentration_curve(data, p_grid=[0.0, 1.0])


def test_curve_fractions_match_a_direct_power_sum_reference():
    # both normalizations against |x|^p summed in plain floating point; the
    # data keeps every row's ratio at least 1e-9 from a band edge, so the
    # log-space counter and the direct sums must agree exactly
    rng = generator(21)
    values = rng.standard_normal((400, 7)) * np.arange(1.0, 8.0)
    values[rng.random(values.shape) < 0.1] = 0.0
    data = Dataset(values, tuple("abcdefg"))
    delta = 0.2
    for p in (0.3, 1.0, 2.5):
        powers = np.abs(values) ** p
        pooled = (powers.sum(axis=1) / (values.shape[1] * powers.mean())) ** (1 / p)
        per_column = ((powers / powers.mean(axis=0)).mean(axis=1)) ** (1 / p)
        for normalization, ratio in (("pooled", pooled), ("per-column", per_column)):
            edges = np.abs(ratio[:, None] - np.array([1 - delta, 1 + delta]))
            assert edges.min() > 1e-9
            expected = np.count_nonzero(np.abs(ratio - 1) <= delta) / len(ratio)
            curve = concentration_curve(data, (p,), delta, normalization)
            assert curve.fraction == (expected,), (p, normalization)


def test_curve_per_column_flags_dead_columns():
    data = Dataset(np.array([[1.0, 0.0], [2.0, 0.0]]), ("live", "dead"))
    curve = concentration_curve(data, p_grid=[1.0], normalization="per-column")
    assert curve.flagged == (True,)


# --- perturbation reports -----------------------------------------------------

def test_perturb_report_null_perturbation():
    rng = generator(10)
    data = Dataset(rng.random((80, 5)) + 0.2, tuple("abcde"))
    report = perturb_report(data, gap_prob=0.0, seed=3, p_grid=[0.5, 1.0])
    assert report.wasserstein_total == 0.0
    assert report.ks_min_pvalue == 1.0
    assert report.ks_statistic_max == 0.0
    assert report.realized_fraction == 0.0
    for row in report.curves:
        assert row.frac_original == row.frac_perturbed


def test_perturb_report_detects_gaps():
    rng = generator(11)
    data = Dataset(rng.random((300, 6)) + 0.2, tuple("abcdef"))
    report = perturb_report(data, gap_prob=0.2, seed=5, p_grid=[0.05, 0.5])
    assert report.gap_prob == 0.2
    assert report.wasserstein_total > 0.0
    assert report.ks_min_pvalue < 0.01
    assert report.ks_statistic_max >= 0.1
    se = math.sqrt(0.2 * 0.8 / data.values.size)
    assert abs(report.realized_fraction - 0.2) < 5 * se
    # zeros destroy small-p concentration
    small_p = report.curves[0]
    assert small_p.frac_perturbed < small_p.frac_original
    record = _record(report)
    assert record["gap_prob"] == 0.2
    assert len(record["curves"]) == 2
    assert {"p", "frac_original", "frac_perturbed"} == set(record["curves"][0])


def test_perturb_report_is_deterministic():
    rng = generator(12)
    data = Dataset(rng.random((50, 4)) + 0.1, tuple("abcd"))
    one = perturb_report(data, gap_prob=0.1, seed=7, p_grid=[1.0])
    two = perturb_report(data, gap_prob=0.1, seed=7, p_grid=[1.0])
    assert one == two


@pytest.mark.parametrize("gap", [0.0, 0.05, 0.3, 1.0])
def test_perturb_curves_equal_two_separate_curves(monkeypatch, gap):
    # pooled, both copies are reduced from one set of exponentials; each
    # must still be the separate reduction's bits, rows whose maximum the
    # imputation zeroed and blocks it left without a zero included
    monkeypatch.setattr(monte_carlo, "_BLOCK_ENTRIES", 600)
    rng = np.random.default_rng(31)
    values = rng.normal(size=(400, 12))
    values[rng.random(values.shape) < 0.02] = 0.0
    values[7] = 0.0
    values[rng.random(400) < 0.5, 0] = 50.0  # the row maximum, zeroed at rate gap
    data = Dataset(values, tuple("abcdefghijkl"))
    ps = (1e-3, 0.3, 1.0, 2.0, 9.0)
    perturbed = zero_impute(data, gap, seed=2)
    zeroed = generator(2).random(values.shape) < gap
    assert np.array_equal(perturbed.values, np.where(zeroed, 0.0, values))
    kept = perturbed.values != 0.0
    if 0.0 < gap < 1.0:
        assert (kept[:, 0] != (values[:, 0] != 0.0)).any()  # some maxima were zeroed
    both = monte_carlo._log_norms_imputed(data.values, zeroed, ps)
    np.testing.assert_array_equal(both[0], monte_carlo._log_norms_at(data.values, ps))
    np.testing.assert_array_equal(both[1], monte_carlo._log_norms_at(perturbed.values, ps))
    report = perturb_report(data, gap, seed=2, p_grid=ps)
    original = concentration_curve(data, ps)
    imputed = concentration_curve(perturbed, ps)
    assert [row.frac_original for row in report.curves] == list(original.fraction)
    assert [row.frac_perturbed for row in report.curves] == list(imputed.fraction)


@pytest.mark.parametrize("share", [0.04, 0.5])
def test_imputed_norms_where_a_copy_is_sparse_or_p_is_huge(share):
    # blocks that either copy reduces over its nonzeros, and p past the
    # stand-in's safe range, take the two separate reductions
    rng = np.random.default_rng(32)
    values = np.where(rng.random((200, 40)) < share, rng.normal(size=(200, 40)), 0.0)
    zeroed = rng.random(values.shape) < 0.3
    imputed = np.where(zeroed, 0.0, values)
    for ps in ((0.5, 2.0), (1.0, 1e306)):
        with np.errstate(over="ignore"):
            both = monte_carlo._log_norms_imputed(values, zeroed, ps)
            np.testing.assert_array_equal(both[0], monte_carlo._log_norms_at(values, ps))
            np.testing.assert_array_equal(both[1], monte_carlo._log_norms_at(imputed, ps))


def test_imputed_norms_where_only_the_zeroed_maxima_rows_are_sparse():
    # rows whose maximum was zeroed are reduced again; when they are few in
    # nonzeros but their block is not, they must still take the block's
    # dense path, whose sums run in another order than the nonzero path's
    rng = np.random.default_rng(33)
    values = rng.exponential(size=(300, 40))
    values[150:, 5:] = 0.0
    values[150:, 0] = 50.0
    zeroed = np.zeros(values.shape, dtype=bool)
    zeroed[150:, 0] = True
    imputed = np.where(zeroed, 0.0, values)
    assert np.count_nonzero(imputed[150:]) < monte_carlo._SPARSE_SHARE * imputed[150:].size
    ps = tuple(np.geomspace(0.01, 10.0, 9))
    both = monte_carlo._log_norms_imputed(values, zeroed, ps)
    np.testing.assert_array_equal(both[0], monte_carlo._log_norms_at(values, ps))
    np.testing.assert_array_equal(both[1], monte_carlo._log_norms_at(imputed, ps))


def _whole_matrix_report(data, gap, seed, ps, normalization):
    """perturb_report by the whole-matrix route: one uniform draw of the
    matrix's shape, the imputed copy made whole, each copy reduced alone."""
    zeroed = generator(seed).random(size=data.values.shape) < gap
    imputed = Dataset(np.where(zeroed, 0.0, data.values), data.column_names)
    drift = [diagnostics._drift(data.values[:, j], imputed.values[:, j]) for j in range(data.n)]
    curves = [
        concentration_curve(copy, ps, normalization=normalization).fraction
        for copy in (data, imputed)
    ]
    return imputed, float(np.mean(zeroed)), drift, curves


@pytest.mark.parametrize("gap", [0.0, 0.05, 1.0])
def test_blocked_gap_mask_gives_the_whole_matrix_bits(gap):
    # 3000 x 97 = 291,000 uniforms: two whole blocks of 131,072 and a part
    # block, none of them ending at a row's end
    rng = np.random.default_rng(34)
    values = rng.normal(size=(3000, 97))
    values[:, ::5] = rng.integers(0, 3, size=(3000, 20))
    data = Dataset(values, tuple(f"c{j}" for j in range(97)))
    assert data.values.size % monte_carlo._BLOCK_ENTRIES % 97
    ps = (0.05, 1.0, 4.0)
    for normalization in ("pooled", "per-column"):
        imputed, fraction, drift, curves = _whole_matrix_report(data, gap, 8, ps, normalization)
        ours = zero_impute(data, gap, seed=8)
        assert np.array_equal(ours.values.view(np.int64), imputed.values.view(np.int64))
        assert ours.meta["realized_fraction"] == fraction
        report = perturb_report(data, gap, 8, p_grid=ps, normalization=normalization)
        assert report.realized_fraction == fraction
        assert report.ks_statistic_max == max(stat for stat, _ in drift)
        assert report.wasserstein_total == sum(w1 for _, w1 in drift)
        for k, row in enumerate(report.curves):
            for got, want in ((row.frac_original, curves[0][k]), (row.frac_perturbed, curves[1][k])):
                assert got == want or (math.isnan(got) and math.isnan(want))


def test_perturb_report_holds_its_log_norm_stack_and_a_few_blocks():
    # pooled, the report holds its two copies' log-norms at every p,
    # 2 * 25 * 20000 * 8 bytes = 7.6 MiB, the 780,000-byte zero mask, and a
    # block's temporaries: |values| and its imputed copy, their 0/1 float
    # masks and one scaled copy, five 1 MiB blocks.  8 MiB covers the mask,
    # the blocks and 2 MiB of slack; a perturbed copy of the input (6.2 MB)
    # and a whole-matrix uniform draw (6.2 MB) would not fit in it
    rng = np.random.default_rng(35)
    values = rng.normal(size=(20000, 39))
    values[:, ::4] = rng.integers(0, 3, size=(20000, 10))
    data = Dataset(values, tuple(f"c{j}" for j in range(39)))
    ps = diagnostics.DEFAULT_CURVE_P
    stack = 2 * len(ps) * data.M * 8
    tracemalloc.start()
    try:
        perturb_report(data, 0.05, 1, p_grid=ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack + 8 * 2**20, peak


def test_wasserstein_total_does_not_depend_on_blas_threads():
    # W1 was a BLAS dot product, which OpenBLAS splits across threads past
    # 10,000 entries and so sums in another order; numpy's sum does not
    src = os.path.dirname(os.path.dirname(os.path.abspath(diagnostics.__file__)))
    code = (
        "import numpy as np\n"
        "from lpconc.diagnostics import Dataset, perturb_report\n"
        "for seed in range(4):\n"
        "    data = Dataset(np.random.default_rng(seed).normal(size=(12000, 3)), tuple('abc'))\n"
        "    print(repr(perturb_report(data, 0.1, 3, p_grid=(1.0,)).wasserstein_total))\n"
    )
    totals = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        totals.add(done.stdout.strip())
    assert len(totals) == 1, totals

