"""Synthetic embedding experiments.

Four vector populations mirror common retrieval setups: dense normalized
encoders, high-dimensional sparse term weights, ReLU feature maps, and
binary indicator profiles.  On top of them sit concentration and contrast
tables over p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._special import logsumexp  # noqa: F401  (perfbench/tracer.py wraps this name)
from .monte_carlo import (
    _band_count,
    _chunk_plan,
    _log_norms_at,
    _median,
    _pooled_log_mu,
    wilson_halfwidth,
)
from .seeding import derive_seed, generator

__all__ = [
    "EmbeddingKind",
    "DENSE",
    "SPARSE",
    "RELU",
    "BINARY",
    "ALL_KINDS",
    "kind_by_name",
    "generate",
    "concentration_table",
    "contrast_table",
    "EmbeddingTable",
    "TableCell",
    "DEFAULT_CONCENTRATION_P",
    "DEFAULT_CONTRAST_P",
]


@dataclass(frozen=True)
class EmbeddingKind:
    """One synthetic population; draw parameters are fixed per kind."""

    name: str
    dim: int


DENSE = EmbeddingKind("dense", 384)
SPARSE = EmbeddingKind("sparse", 5000)
RELU = EmbeddingKind("relu", 384)
BINARY = EmbeddingKind("binary", 500)
ALL_KINDS = (DENSE, SPARSE, RELU, BINARY)

_KIND_INDEX = {kind.name: i for i, kind in enumerate(ALL_KINDS)}

DEFAULT_CONCENTRATION_P = (0.01, 0.1, 0.5, 1.0, 2.0, 10.0)
DEFAULT_CONTRAST_P = (0.01, 0.1, 0.5, 1.0, 2.0)


def kind_by_name(name: str) -> EmbeddingKind:
    for kind in ALL_KINDS:
        if kind.name == name:
            return kind
    raise ValueError(f"unknown embedding kind {name!r}; have " + ", ".join(_KIND_INDEX))


def _draw_rows(kind: EmbeddingKind, rng: np.random.Generator, rows: int) -> np.ndarray:
    if kind.name == "dense":
        g = rng.normal(0.0, 0.15, size=(rows, kind.dim))
        norms = np.sqrt(np.sum(g * g, axis=1, keepdims=True))
        return g / norms
    if kind.name == "sparse":
        # both arrays are always drawn so stream consumption is fixed
        mask = rng.random(size=(rows, kind.dim)) < 0.002
        values = rng.exponential(1.0 / 1.5, size=(rows, kind.dim))
        return np.where(mask, values, 0.0)
    if kind.name == "relu":
        return np.maximum(rng.normal(0.0, 0.3, size=(rows, kind.dim)), 0.0)
    if kind.name == "binary":
        return (rng.random(size=(rows, kind.dim)) < 0.1).astype(float)
    raise ValueError(f"unknown embedding kind {kind.name!r}")


def generate(kind: EmbeddingKind, M: int, seed: int) -> np.ndarray:
    """M rows of the population; chunk i draws from stream (seed, i)."""
    if M < 1:
        raise ValueError("M must be a positive integer")
    parts = [
        _draw_rows(kind, generator(seed, index), rows)
        for index, _, rows in _chunk_plan(M, kind.dim)
    ]
    return np.vstack(parts)


@dataclass(frozen=True)
class TableCell:
    kind: str
    p: float
    value: float
    ci_halfwidth: float | None = None
    skipped: int = 0


@dataclass(frozen=True)
class EmbeddingTable:
    label: str
    delta: float | None
    sample_count: int
    seed: int
    cells: tuple[TableCell, ...]

    def cell(self, kind: str, p: float) -> TableCell:
        for item in self.cells:
            if item.kind == kind and math.isclose(item.p, p, rel_tol=1e-12):
                return item
        raise KeyError(f"no cell ({kind}, {p})")

    def rows(self):
        for c in self.cells:
            yield c.kind, c.p, c.value, c.ci_halfwidth, c.skipped


def concentration_table(
    kinds: Sequence[EmbeddingKind] = ALL_KINDS,
    p_grid: Sequence[float] = DEFAULT_CONCENTRATION_P,
    delta: float = 0.1,
    M: int = 5000,
    seed: int = 0,
) -> EmbeddingTable:
    """Per (kind, p): frequency of the norm ratio inside [1-delta, 1+delta].

    The normalizing mean of |entry|^p is estimated from the same batch,
    pooled over every entry of the kind (three of the four populations have
    atoms at zero, so no analytic mean exists).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    cells: list[TableCell] = []
    for kind in kinds:
        values = generate(kind, M, derive_seed(seed, _KIND_INDEX[kind.name], 0))
        for p, log_norms in zip(p_grid, _log_norms_at(values, p_grid)):
            log_mu = _pooled_log_mu(log_norms, p, values.size)
            inside = _band_count(log_norms, kind.dim, p, log_mu, delta)
            cells.append(
                TableCell(kind.name, float(p), inside / M, wilson_halfwidth(inside, M))
            )
    return EmbeddingTable("concentration", delta, M, seed, tuple(cells))


def contrast_table(
    kinds: Sequence[EmbeddingKind] = ALL_KINDS,
    p_grid: Sequence[float] = DEFAULT_CONTRAST_P,
    pairs: int = 3000,
    seed: int = 0,
) -> EmbeddingTable:
    """Median of |norm(x1) - norm(x2)| / norm(x1) per (kind, p).

    Pairs with a zero first norm are skipped and counted in the cell.
    """
    if pairs < 1:
        raise ValueError("pairs must be a positive integer")
    cells: list[TableCell] = []
    for kind in kinds:
        first = generate(kind, pairs, derive_seed(seed, _KIND_INDEX[kind.name], 1))
        second = generate(kind, pairs, derive_seed(seed, _KIND_INDEX[kind.name], 2))
        for p, l1, l2 in zip(p_grid, _log_norms_at(first, p_grid), _log_norms_at(second, p_grid)):
            valid = l1 > -math.inf
            with np.errstate(over="ignore", invalid="ignore"):
                rc = np.abs(np.expm1(l2[valid] - l1[valid]))
            skipped = int(pairs - valid.sum())
            value = _median(rc) if rc.size else math.nan
            cells.append(TableCell(kind.name, float(p), value, None, skipped))
    return EmbeddingTable("median-contrast", None, pairs, seed, tuple(cells))
