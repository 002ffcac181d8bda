"""Synthetic embedding experiments.

Four vector populations mirror common retrieval setups: dense normalized
encoders, high-dimensional sparse term weights, ReLU feature maps, and
binary indicator profiles.  On top of them sit concentration and contrast
tables over p.  A table holds one block of a batch at a time: each kind has
one block filler (_filler), and monte_carlo._drawn_blocks draws a batch a
row block of about _BLOCK_ENTRIES entries (1 MiB) at a time into one buffer,
over the chunk streams that generate draws, for _reduce_blocks to reduce at
every p before the next is drawn, with the bits of the whole batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._special import logsumexp  # noqa: F401  (perfbench/tracer.py wraps this name)
from .distributions import _split
from .monte_carlo import (
    _band_count,
    _chunk_plan,
    _drawn_blocks,
    _median,
    _pooled_log_mu,
    _reduce_blocks,
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


def _filler(kind: EmbeddingKind, rng: np.random.Generator, rows: int) -> Callable:
    """fill(out), which writes the next len(out) rows of the kind's batch of
    rows rows from rng into out, a C-contiguous (r, dim) block: blocks
    filled in turn hold the bits of one fill of every row, and no array of
    all the rows is made."""
    if kind.name == "sparse":
        # every uniform comes before every exponential, so stream consumption
        # is fixed: the uniforms come from a copy of the stream (_split), and
        # the exponentials, scale times standard ones as rng.exponential
        # draws them, reuse their memory and are masked to +0.0 in place
        uniforms = _split(rng, rows * kind.dim)

        def fill(out):
            mask = uniforms.random(out=out) < 0.002
            rng.standard_exponential(out=out)
            out *= 1.0 / 1.5
            out *= mask

        return fill
    if kind.name == "binary":
        return lambda out: np.less(rng.random(out=out), 0.1, out=out)
    if kind.name not in ("dense", "relu"):
        raise ValueError(f"unknown embedding kind {kind.name!r}")
    scale = 0.15 if kind.name == "dense" else 0.3

    def fill(out):
        rng.standard_normal(out=out)
        out *= scale
        out += 0.0  # rng.normal(0, scale) forms 0 + scale * z
        if kind.name == "dense":
            out /= np.sqrt(np.sum(out * out, axis=1, keepdims=True))
        else:
            np.maximum(out, 0.0, out=out)

    return fill


def _chunk_fills(kind: EmbeddingKind, M: int, seed: int) -> list[tuple[Callable, int]]:
    """(fill, rows) of each chunk of M rows; chunk i draws from stream (seed, i)."""
    if M < 1:
        raise ValueError("M must be a positive integer")
    plan = _chunk_plan(M, kind.dim)
    return [(_filler(kind, generator(seed, index), rows), rows) for index, _, rows in plan]


def generate(kind: EmbeddingKind, M: int, seed: int) -> np.ndarray:
    """M rows of the population; chunk i draws from stream (seed, i)."""
    pieces = _chunk_fills(kind, M, seed)
    batch = np.empty((M, kind.dim))
    start = 0
    for fill, rows in pieces:
        fill(batch[start : start + rows])
        start += rows
    return batch


def _batch_log_norms(kind: EmbeddingKind, M: int, seed: int, ps: Sequence[float]) -> np.ndarray:
    """_log_norms_at(generate(kind, M, seed), ps), bit for bit, from one
    block of the batch at a time."""
    return _reduce_blocks(_drawn_blocks(_chunk_fills(kind, M, seed), M, kind.dim), M, ps)


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
        by_p = _batch_log_norms(kind, M, derive_seed(seed, _KIND_INDEX[kind.name], 0), p_grid)
        for p, log_norms in zip(p_grid, by_p):
            log_mu = _pooled_log_mu(log_norms, p, M * kind.dim)
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
        first, second = (
            _batch_log_norms(kind, pairs, derive_seed(seed, _KIND_INDEX[kind.name], batch), p_grid)
            for batch in (1, 2)
        )
        for p, l1, l2 in zip(p_grid, first, second):
            valid = l1 > -math.inf
            with np.errstate(over="ignore", invalid="ignore"):
                rc = np.abs(np.expm1(l2[valid] - l1[valid]))
            skipped = int(pairs - valid.sum())
            value = _median(rc) if rc.size else math.nan
            cells.append(TableCell(kind.name, float(p), value, None, skipped))
    return EmbeddingTable("median-contrast", None, pairs, seed, tuple(cells))
