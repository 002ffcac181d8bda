"""Synthetic embedding experiments.

Four vector populations mirror common retrieval setups: dense normalized
encoders, high-dimensional sparse term weights, ReLU feature maps, and
binary indicator profiles.  On top of them sit concentration and contrast
tables over p.  Each kind has Distribution's block filler (_filler), so a
table samples its batches through monte_carlo._sample_log_norms, the chunk
sampler of the Monte Carlo curves: chunk i of a batch draws from stream
(seed, i), as in generate, a row block of about _BLOCK_ENTRIES entries
(1 MiB) at a time, each reduced at every p before the next is drawn.  A
table never holds a batch, and runs on one thread (a thread pool raised its
peak memory and time at the sizes tables run).
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
    _median,
    _pooled_log_mu,
    _sample_log_norms,
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

    def _filler(self, rng: np.random.Generator, total: int) -> Callable:
        """Distribution._filler's fill(out) for a batch of total // dim rows
        of the kind from rng: out is a C-contiguous (r, dim) block."""
        if self.name == "sparse":
            # every uniform comes before every exponential: the uniforms come
            # from a copy of the stream (_split), and the exponentials, scale
            # times standard ones as rng.exponential draws them, reuse their
            # memory and are masked to +0.0 in place
            uniforms = _split(rng, total)

            def fill(out):
                mask = uniforms.random(out=out) < 0.002
                rng.standard_exponential(out=out)
                out *= 1.0 / 1.5
                out *= mask

            return fill
        if self.name == "binary":
            return lambda out: np.less(rng.random(out=out), 0.1, out=out)
        if self.name not in ("dense", "relu"):
            raise ValueError(f"unknown embedding kind {self.name!r}")
        scale = 0.15 if self.name == "dense" else 0.3

        def fill(out):
            rng.standard_normal(out=out)
            out *= scale
            out += 0.0  # rng.normal(0, scale) forms 0 + scale * z
            if self.name == "dense":
                out /= np.sqrt(np.sum(out * out, axis=1, keepdims=True))
            else:
                np.maximum(out, 0.0, out=out)

        return fill


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


def generate(kind: EmbeddingKind, M: int, seed: int) -> np.ndarray:
    """M rows of the population; chunk i draws from stream (seed, i)."""
    if M < 1:
        raise ValueError("M must be a positive integer")
    batch = np.empty((M, kind.dim))
    for index, start, rows in _chunk_plan(M, kind.dim):
        kind._filler(generator(seed, index), rows * kind.dim)(batch[start : start + rows])
    return batch


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
    if M < 1:
        raise ValueError("M must be a positive integer")
    cells: list[TableCell] = []
    for kind in kinds:
        sample = (derive_seed(seed, _KIND_INDEX[kind.name], 0), (kind.dim,), p_grid)
        (by_p,) = _sample_log_norms(kind, [sample], M, 1)
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
        key = _KIND_INDEX[kind.name]
        samples = [(derive_seed(seed, key, batch), (kind.dim,), p_grid) for batch in (1, 2)]
        first, second = _sample_log_norms(kind, samples, pairs, 1)
        for p, l1, l2 in zip(p_grid, first, second):
            valid = l1 > -math.inf
            with np.errstate(over="ignore", invalid="ignore"):
                rc = np.abs(np.expm1(l2[valid] - l1[valid]))
            skipped = int(pairs - valid.sum())
            value = _median(rc) if rc.size else math.nan
            cells.append(TableCell(kind.name, float(p), value, None, skipped))
    return EmbeddingTable("median-contrast", None, pairs, seed, tuple(cells))
