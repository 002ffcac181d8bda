"""Tabular-data pipeline: ingestion, standardization, perturbation, drift tests.

Workflow: load a numeric CSV, drop constant columns, standardize, then study
how zero imputation (or mode shifting) changes the marginals and the norm
concentration profile.  Marginal drift is measured per column with a
two-sample KS test and the 1-D Wasserstein distance; concentration is the
fraction of rows whose p-norm stays inside a band around the estimated
typical value.  Zero imputation draws its uniforms a block at a time into a
boolean mask, and a pooled perturbation report holds that mask, never a
perturbed copy of the matrix.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from ._special import logsumexp  # noqa: F401  (perfbench/tracer.py wraps this name)
from .distributions import _cell_float
from .monte_carlo import (
    _BLOCK_ENTRIES,
    _band_count,
    _log_norms_at,
    _log_norms_imputed,
    _pooled_log_mu,
    _reduce_logs,
)
from .seeding import generator

__all__ = [
    "Dataset",
    "load_csv",
    "drop_constant",
    "standardize",
    "zero_impute",
    "mode_shift",
    "ks_two_sample",
    "wasserstein_1d",
    "ConcentrationCurve",
    "concentration_curve",
    "CurveRow",
    "PerturbReport",
    "perturb_report",
    "DEFAULT_MISSING_MARKERS",
    "DEFAULT_CURVE_P",
    "NORMALIZATIONS",
]

DEFAULT_MISSING_MARKERS = ("", "NA", "N/A", "NaN", "nan", "null", "NULL", "?")
DEFAULT_CURVE_P = tuple(float(p) for p in np.geomspace(0.01, 10.0, 25))
NORMALIZATIONS = ("pooled", "per-column")
_MIN_KS_SIZE = 10


@dataclass(frozen=True, eq=False)
class Dataset:
    """Numeric matrix with column metadata; rows are observations."""

    values: np.ndarray
    column_names: tuple[str, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        array = np.asarray(self.values, dtype=float)
        if array.ndim != 2 or array.size == 0:
            raise ValueError("values must be a nonempty 2-D matrix")
        if not np.isfinite(array).all():
            raise ValueError("values must be finite; impute or drop missing cells first")
        if len(self.column_names) != array.shape[1]:
            raise ValueError("column_names length must match the column count")
        object.__setattr__(self, "values", array)
        object.__setattr__(self, "column_names", tuple(self.column_names))

    @property
    def M(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @cached_property
    def unique_counts(self) -> tuple[int, ...]:
        ordered = np.sort(self.values, axis=0)
        changes = np.sum(ordered[1:] != ordered[:-1], axis=0) if self.M > 1 else 0
        return tuple(int(c) + 1 for c in np.broadcast_to(changes, (self.n,)))

    @cached_property
    def constant_mask(self) -> tuple[bool, ...]:
        # a column is constant when it equals its first row (0.0 == -0.0,
        # as unique_counts counts them), without unique_counts's sort
        return tuple(bool(c) for c in (self.values == self.values[0]).all(axis=0))

    @property
    def constant_columns(self) -> tuple[str, ...]:
        return tuple(
            name for name, flag in zip(self.column_names, self.constant_mask) if flag
        )

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.column_names.index(name)]


def load_csv(
    path: str,
    missing_markers: Sequence[str] = DEFAULT_MISSING_MARKERS,
    missing_policy: str = "error",
    delimiter: str = ",",
) -> Dataset:
    """Read a numeric CSV with a header row.

    Cells matching a missing marker are handled per missing_policy: "error"
    rejects the file, "drop-rows" removes the affected rows, "mean-impute"
    fills with the column mean.  Mean imputation plants an atom at the mean,
    which is exactly the effect the perturbation studies quantify, hence the
    warning.  Unparseable cells raise with their row and column.  A clean
    file, every cell a finite number, is parsed by numpy's C reader; any
    other by a per-cell loop, which would build the same matrix.
    """
    if missing_policy not in ("error", "drop-rows", "mean-impute"):
        raise ValueError("missing_policy must be error | drop-rows | mean-impute")
    markers = frozenset(m.strip() for m in missing_markers)
    with open(path, newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        names = tuple(cell.strip() for cell in header)
        # a marker that reads as a number would be a value to the C reader
        if not any(map(_finite_number, markers)):
            matrix = _clean_body(handle, delimiter, len(names))
            if matrix is not None:
                return Dataset(matrix, names, meta={"path": path, "missing_cells": 0})
        handle.seek(0)
        reader = csv.reader(handle, delimiter=delimiter)
        next(reader)
        rows: list[list[float]] = []
        missing_at: list[tuple[int, int]] = []
        for line_no, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != len(names):
                raise ValueError(
                    f"{path}: row {line_no} has {len(record)} cells, expected {len(names)}"
                )
            parsed = []
            for col, cell in enumerate(record):
                text = cell.strip()
                if text in markers:
                    missing_at.append((len(rows), col))
                    parsed.append(math.nan)
                    continue
                try:
                    value = _cell_float(text)
                except ValueError:
                    raise ValueError(
                        f"{path}: unparseable cell at row {line_no}, column {names[col]!r}: {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    missing_at.append((len(rows), col))
                    value = math.nan
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    matrix = np.asarray(rows, dtype=float)
    if missing_at:
        if missing_policy == "error":
            r, c = missing_at[0]
            raise ValueError(
                f"{path}: {len(missing_at)} missing cells (first at data row {r + 1}, "
                f"column {names[c]!r}); pass missing_policy to handle them"
            )
        if missing_policy == "drop-rows":
            keep = ~np.isnan(matrix).any(axis=1)
            matrix = matrix[keep]
            if matrix.shape[0] == 0:
                raise ValueError(f"{path}: every row has missing cells")
        else:
            empty = np.isnan(matrix).all(axis=0)
            if empty.any():
                raise ValueError(f"{path}: column {names[empty.argmax()]!r} has no value to average")
            warnings.warn(
                "mean imputation places an atom at each column mean; downstream "
                "concentration results will reflect that atom",
                stacklevel=2,
            )
            means = np.nanmean(matrix, axis=0)
            holes = np.isnan(matrix)
            matrix[holes] = np.take(means, np.nonzero(holes)[1])
    data = Dataset(matrix, names, meta={"path": path, "missing_cells": len(missing_at)})
    return data


def _finite_number(text: str) -> bool:
    try:
        return math.isfinite(_cell_float(text))
    except ValueError:
        return False


def _clean_body(handle, delimiter: str, columns: int) -> np.ndarray | None:
    """The rest of the file by numpy's C reader if it is at least one row of
    `columns` finite numbers, else None.  Its fields split as csv.reader
    splits them, and its cells parse as distributions._cell_float parses the
    stripped text, so the per-cell loop would build the same matrix: numpy
    rejects the digit separators and non-ASCII digits float() accepts (1_0
    for 10), and so does that rule."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # "input contained no data"
        try:
            matrix = np.loadtxt(handle, delimiter=delimiter, comments=None, quotechar='"', ndmin=2)
        except (ValueError, TypeError):  # TypeError: a delimiter numpy rejects
            return None
    if matrix.shape[0] == 0 or matrix.shape[1] != columns or not np.isfinite(matrix).all():
        return None
    return matrix


def drop_constant(data: Dataset) -> Dataset:
    """Remove columns with a single unique value; a ValueError when every
    column has one, as every column of a one-row matrix has."""
    keep = [i for i, flag in enumerate(data.constant_mask) if not flag]
    if len(keep) == data.n:
        return data
    if not keep:
        rows = f"{data.M} row" + ("s" if data.M > 1 else "")
        raise ValueError(
            f"every column is constant over the {rows}, so none is left once constant "
            "columns are dropped; pass --keep-constant to keep them"
        )
    return Dataset(
        data.values[:, keep],
        tuple(data.column_names[i] for i in keep),
        meta={**data.meta, "dropped_constant": data.n - len(keep)},
    )


def standardize(data: Dataset) -> Dataset:
    """Affinely map each column to sample mean 0, sample variance 1 (M-1)."""
    if data.M < 2:
        raise ValueError("standardize needs at least 2 rows")
    if any(data.constant_mask):
        raise ValueError(
            "constant columns cannot be standardized; apply drop_constant first"
        )
    # the deviation's temporaries go before the centred copy is made
    scale = np.std(data.values, axis=0, ddof=1)
    centered = data.values - np.mean(data.values, axis=0)
    centered /= scale
    return Dataset(centered, data.column_names, meta=dict(data.meta))


def zero_impute(data: Dataset, gap_prob: float, seed: int) -> Dataset:
    """Replace each entry independently by exact 0 with probability gap_prob.

    The realized replacement fraction is reported in meta["realized_fraction"].
    """
    mask = _gap_mask(data.values.shape, gap_prob, seed)
    meta = {
        **data.meta,
        "gap_prob": float(gap_prob),
        "realized_fraction": float(np.mean(mask)),
        "impute_seed": int(seed),
    }
    return Dataset(np.where(mask, 0.0, data.values), data.column_names, meta=meta)


def _gap_mask(shape: tuple[int, int], gap_prob: float, seed: int) -> np.ndarray:
    """generator(seed).random(size=shape) < gap_prob, bit for bit, as a
    boolean mask; the uniforms are drawn _BLOCK_ENTRIES at a time into one
    buffer, so no float array of the shape is made."""
    if not 0.0 <= gap_prob <= 1.0:
        raise ValueError("gap_prob must lie in [0, 1]")
    rng = generator(seed)
    mask = np.empty(math.prod(shape), dtype=bool)
    buffer = np.empty(min(_BLOCK_ENTRIES, mask.size))
    for start in range(0, mask.size, _BLOCK_ENTRIES):
        block = rng.random(out=buffer[: mask.size - start])
        np.less(block, gap_prob, out=mask[start : start + block.size])
    return mask.reshape(shape)


def mode_shift(data: Dataset, max_unique: int) -> Dataset:
    """Subtract the modal value from every column with few unique values.

    Columns with unique-value count below max_unique and a nonzero mode get
    the mode subtracted, making it exactly 0 (ties resolved toward the
    smallest value).  meta reports the affected column count and how many
    entries were turned into zeros.
    """
    if max_unique < 2:
        raise ValueError("max_unique must be at least 2")
    values = data.values.copy()
    affected = 0
    introduced = 0
    for j, count in enumerate(data.unique_counts):
        if count >= max_unique:
            continue
        levels, multiplicity = np.unique(values[:, j], return_counts=True)
        mode = float(levels[int(np.argmax(multiplicity))])
        if mode == 0.0:
            continue
        values[:, j] = values[:, j] - mode
        affected += 1
        introduced += int(np.count_nonzero(values[:, j] == 0.0))
    meta = {**data.meta, "mode_shift_affected": affected, "mode_shift_zeros": introduced}
    return Dataset(values, data.column_names, meta=meta)


def _drift(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """KS statistic and exact W1 of two samples from one merged ECDF.

    Both samples are sorted once and merged by one stable sort into the
    grid.  The count of x's points at or below a grid point, as
    searchsorted(side="right") would give it, is the running count of x's
    points at the end of that point's run of ties; y's is the rest.  KS is
    max |F - G|; W1 is the area between the CDFs, sum |F - G| * diff(grid),
    since both are constant between grid points, summed by numpy so that
    its bits do not depend on BLAS threads.
    """
    m = x.size
    merged = np.concatenate([x, y])
    merged[:m].sort()
    merged[m:].sort()
    order = np.argsort(merged, kind="stable")
    grid = merged[order]
    run_end = np.flatnonzero(np.append(grid[1:] != grid[:-1], True))
    below_x = np.cumsum(order < m)[run_end]
    gap_at_end = np.abs(below_x / m - (run_end + 1 - below_x) / y.size)
    gap = np.repeat(gap_at_end, np.diff(run_end, prepend=-1))
    return float(gap_at_end.max()), float(np.sum(gap[:-1] * np.diff(grid)))


def _ks_pvalue(statistic: float, m: int, n: int) -> float:
    """Limiting Kolmogorov survival series (100 terms) at sqrt(m*n/(m+n))."""
    if statistic == 0.0:
        return 1.0
    lam = math.sqrt(m * n / (m + n)) * statistic
    tail = 2.0 * math.fsum(
        (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam) for j in range(1, 101)
    )
    return min(max(tail, 0.0), 1.0)


def _check_ks_sizes(m: int, n: int) -> None:
    if m < _MIN_KS_SIZE or n < _MIN_KS_SIZE:
        raise ValueError(f"both samples need at least {_MIN_KS_SIZE} points")


def ks_two_sample(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Two-sample KS statistic and asymptotic p-value.

    The statistic is the sup distance between the two empirical CDFs; the
    p-value applies the limiting Kolmogorov survival series (100 terms) at
    the effective size sqrt(m*n/(m+n)).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_ks_sizes(x.size, y.size)
    statistic, _ = _drift(x, y)
    return statistic, _ks_pvalue(statistic, x.size, y.size)


def wasserstein_1d(x: np.ndarray, y: np.ndarray) -> float:
    """Exact 1-D W1 between the empirical distributions of two samples."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValueError("samples must be nonempty")
    return _drift(x, y)[1]


@dataclass(frozen=True)
class ConcentrationCurve:
    """Fraction of rows whose p-norm ratio stays inside the band, per p."""

    p_grid: tuple[float, ...]
    fraction: tuple[float, ...]
    flagged: tuple[bool, ...]
    delta: float
    normalization: str


def concentration_curve(
    data: Dataset,
    p_grid: Sequence[float] = DEFAULT_CURVE_P,
    delta: float = 0.1,
    normalization: str = "pooled",
) -> ConcentrationCurve:
    """Empirical concentration profile of the dataset's rows over p.

    The typical p-th moment is estimated from the data itself: pooled over
    the whole matrix by default, or per-column, where each column is scaled
    by its own moment before the row sum (for columns on unequal scales).
    Rows count as concentrated when their p-norm is within a (1 ± delta)
    factor of the estimated typical norm.  Grid points where a moment
    estimate is not representable are flagged and carry a NaN fraction.
    """
    return _curve(data, p_grid, delta, normalization)


def _curve(
    data: Dataset,
    p_grid: Sequence[float],
    delta: float,
    normalization: str,
    by_p: np.ndarray | None = None,
) -> ConcentrationCurve:
    """concentration_curve; under pooled, from by_p, the rows' log-norms at
    each p, when given."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"normalization must be one of {NORMALIZATIONS}")
    per_column = normalization == "per-column"
    fractions: list[float] = []
    flagged: list[bool] = []
    # per-column reduces the columns first, then divides each entry by its
    # column's mu_j^(1/p) so that the typical row value is 1
    if by_p is None:
        by_p = _log_norms_at(data.values.T if per_column else data.values, p_grid)
    if per_column:
        # -inf for zeros: a finite stand-in shifted by its column's scale
        # could rise above a real log of its row
        with np.errstate(divide="ignore"):
            logs = np.log(np.abs(data.values))
    for p, log_norms in zip(p_grid, by_p):
        if per_column:
            log_scale = log_norms - math.log(data.M) / p
            log_mu = 0.0 if np.isfinite(log_scale).all() else math.nan
            if log_mu == 0.0:
                log_norms = _reduce_logs(logs - log_scale, None, (p,), own=True)[0] / p
        else:
            log_mu = _pooled_log_mu(log_norms, p, data.values.size)
        if math.isfinite(log_mu):
            fractions.append(_band_count(log_norms, data.n, p, log_mu, delta) / data.M)
            flagged.append(False)
        else:
            fractions.append(math.nan)
            flagged.append(True)
    return ConcentrationCurve(
        tuple(float(p) for p in p_grid),
        tuple(fractions),
        tuple(flagged),
        float(delta),
        normalization,
    )


@dataclass(frozen=True)
class CurveRow:
    p: float
    frac_original: float
    frac_perturbed: float


@dataclass(frozen=True)
class PerturbReport:
    """Marginal-drift and concentration summary of a zero-imputation run."""

    gap_prob: float
    wasserstein_total: float
    ks_min_pvalue: float
    ks_statistic_max: float
    seed: int
    realized_fraction: float
    curves: tuple[CurveRow, ...]
    delta: float
    normalization: str


def perturb_report(
    data: Dataset,
    gap_prob: float,
    seed: int,
    p_grid: Sequence[float] = DEFAULT_CURVE_P,
    delta: float = 0.1,
    normalization: str = "pooled",
) -> PerturbReport:
    """Zero-impute the dataset and quantify the damage.

    Per column, the original and imputed marginals are compared with the KS
    test (minimum p-value and maximum statistic reported) and the 1-D
    Wasserstein distance (summed over columns).  Concentration curves for
    both datasets are returned side by side.  The caller decides whether
    data arrives standardized; the report only perturbs what it is given.
    """
    _check_ks_sizes(data.M, data.M)
    mask = _gap_mask(data.values.shape, gap_prob, seed)
    statistics = []
    pvalues = []
    total = 0.0
    for j in range(data.n):
        x = data.values[:, j]
        stat, w1 = _drift(x, np.where(mask[:, j], 0.0, x))
        statistics.append(stat)
        pvalues.append(_ks_pvalue(stat, data.M, data.M))
        total += w1
    # pooled, both copies are reduced from one set of exponentials, and the
    # perturbed one is never made whole: its curve reads only their shape
    both, perturbed = (None, None), data
    if normalization == "pooled":
        both = _log_norms_imputed(data.values, mask, p_grid)
    else:
        perturbed = Dataset(np.where(mask, 0.0, data.values), data.column_names)
    original_curve = _curve(data, p_grid, delta, normalization, both[0])
    perturbed_curve = _curve(perturbed, p_grid, delta, normalization, both[1])
    curves = tuple(
        CurveRow(p, fo, fp)
        for p, fo, fp in zip(original_curve.p_grid, original_curve.fraction, perturbed_curve.fraction)
    )
    return PerturbReport(
        gap_prob=float(gap_prob),
        wasserstein_total=float(total),
        ks_min_pvalue=float(min(pvalues)),
        ks_statistic_max=float(max(statistics)),
        seed=int(seed),
        realized_fraction=float(np.mean(mask)),
        curves=curves,
        delta=float(delta),
        normalization=normalization,
    )
