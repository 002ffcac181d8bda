"""Synthetic embedding populations and their tables."""

import math
import os
import tracemalloc

import numpy as np
import pytest

from lpconc import monte_carlo
from lpconc.cli import _record, run
from lpconc.embedding_lab import (
    ALL_KINDS,
    BINARY,
    DENSE,
    RELU,
    SPARSE,
    concentration_table,
    contrast_table,
    generate,
    kind_by_name,
)
from lpconc.seeding import derive_seed, generator


def test_kind_registry():
    assert [k.name for k in ALL_KINDS] == ["dense", "sparse", "relu", "binary"]
    assert (DENSE.dim, SPARSE.dim, RELU.dim, BINARY.dim) == (384, 5000, 384, 500)
    assert kind_by_name("sparse") is SPARSE
    with pytest.raises(ValueError):
        kind_by_name("dense384")


def test_generate_shapes_and_determinism():
    for kind in ALL_KINDS:
        batch = generate(kind, 40, seed=5)
        assert batch.shape == (40, kind.dim)
        assert np.array_equal(batch, generate(kind, 40, seed=5))
        assert not np.array_equal(batch, generate(kind, 40, seed=6))
    with pytest.raises(ValueError):
        generate(DENSE, 0, seed=1)


def test_dense_rows_sit_on_the_unit_sphere():
    batch = generate(DENSE, 100, seed=2)
    norms = np.linalg.norm(batch, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_relu_population_is_half_clipped():
    batch = generate(RELU, 200, seed=3)
    assert np.all(batch >= 0.0)
    zero_fraction = np.mean(batch == 0.0)
    # each coordinate clips with probability 1/2
    se = math.sqrt(0.25 / batch.size)
    assert abs(zero_fraction - 0.5) < 5 * se
    positive = batch[batch > 0]
    assert abs(positive.std() - 0.3 * 0.603) < 0.05  # half-normal spread


def test_binary_population_density():
    batch = generate(BINARY, 200, seed=4)
    assert set(np.unique(batch)) <= {0.0, 1.0}
    se = math.sqrt(0.1 * 0.9 / batch.size)
    assert abs(batch.mean() - 0.1) < 5 * se


def test_sparse_population_density_and_sign():
    batch = generate(SPARSE, 200, seed=7)
    nz = batch != 0.0
    se = math.sqrt(0.002 * 0.998 / batch.size)
    assert abs(nz.mean() - 0.002) < 5 * se
    assert np.all(batch[nz] > 0.0)
    # exponential with rate 1.5 on the nonzero entries
    assert batch[nz].mean() == pytest.approx(1.0 / 1.5, rel=0.1)


def test_sparse_population_keeps_its_stream(monkeypatch):
    # the exponentials reuse the uniforms' memory; every chunk must still
    # be the masked rng.exponential draw, bit for bit, at +0.0 off the mask
    monkeypatch.setattr(monte_carlo, "CHUNK_TARGET_ENTRIES", 7 * SPARSE.dim)
    batch = generate(SPARSE, 17, seed=3)
    parts = []
    for index, _, rows in monte_carlo._chunk_plan(17, SPARSE.dim):
        rng = generator(3, index)
        mask = rng.random(size=(rows, SPARSE.dim)) < 0.002
        parts.append(np.where(mask, rng.exponential(1.0 / 1.5, size=(rows, SPARSE.dim)), 0.0))
    expected = np.vstack(parts)
    assert len(parts) == 3
    assert np.array_equal(batch.view(np.int64), expected.view(np.int64))


def _whole_batch_rows(kind, rng, rows):
    """A chunk of rows of the kind drawn as one array per numpy call."""
    size = (rows, kind.dim)
    if kind is DENSE:
        g = rng.normal(0.0, 0.15, size=size)
        return g / np.sqrt(np.sum(g * g, axis=1, keepdims=True))
    if kind is SPARSE:
        mask = rng.random(size=size) < 0.002
        return np.where(mask, rng.exponential(1.0 / 1.5, size=size), 0.0)
    if kind is RELU:
        return np.maximum(rng.normal(0.0, 0.3, size=size), 0.0)
    return (rng.random(size=size) < 0.1).astype(float)


def _whole_batch(kind, M, seed):
    parts = [
        _whole_batch_rows(kind, generator(seed, index), rows)
        for index, _, rows in monte_carlo._chunk_plan(M, kind.dim)
    ]
    return np.vstack(parts), len(parts)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
@pytest.mark.parametrize("block_rows", [5, None])
def test_tables_keep_their_bits_across_chunk_and_block_boundaries(monkeypatch, kind, block_rows):
    # chunks of 7 rows, drawn in blocks of 5 rows (5 and 2 per chunk) or in
    # one block per chunk.  Each cell must be the whole-batch route's: the
    # chunks drawn whole, stacked, then reduced by _log_norms_at, whose
    # blocks of 5 rows cross chunk boundaries and whose default block holds
    # the whole batch
    monkeypatch.setattr(monte_carlo, "CHUNK_TARGET_ENTRIES", 7 * kind.dim)
    if block_rows:
        monkeypatch.setattr(monte_carlo, "_BLOCK_ENTRIES", block_rows * kind.dim)
    ps, M, pairs, seed = (0.01, 0.5, 2.0, 10.0), 40, 23, 6
    index = ALL_KINDS.index(kind)  # the tables' stream key
    values, chunks = _whole_batch(kind, M, derive_seed(seed, index, 0))
    assert chunks >= 3
    assert _same_bits(generate(kind, M, derive_seed(seed, index, 0)), values)
    want = []
    for p, log_norms in zip(ps, monte_carlo._log_norms_at(values, ps)):
        log_mu = monte_carlo._pooled_log_mu(log_norms, p, values.size)
        inside = monte_carlo._band_count(log_norms, kind.dim, p, log_mu, 0.1)
        want.append((kind.name, p, inside / M, monte_carlo.wilson_halfwidth(inside, M), 0))
    assert list(concentration_table([kind], ps, M=M, seed=seed).rows()) == want
    (first, chunks), (second, _) = (
        _whole_batch(kind, pairs, derive_seed(seed, index, batch)) for batch in (1, 2)
    )
    assert chunks >= 3
    got = list(contrast_table([kind], ps, pairs=pairs, seed=seed).rows())
    by_p = zip(ps, monte_carlo._log_norms_at(first, ps), monte_carlo._log_norms_at(second, ps))
    for row, (p, l1, l2) in zip(got, by_p):
        valid = l1 > -math.inf
        with np.errstate(over="ignore", invalid="ignore"):
            rc = np.abs(np.expm1(l2[valid] - l1[valid]))
        value = float(np.median(rc)) if rc.size else math.nan
        assert row[:2] == (kind.name, p) and row[3:] == (None, int(pairs - valid.sum()))
        assert row[2] == value or (math.isnan(row[2]) and math.isnan(value))


def test_tables_run_on_one_thread(monkeypatch):
    # a pool of chunks or row blocks raised the tables' peak RSS and per-op
    # time at the sizes they run, so they sample on the calling thread, even
    # where a batch spans several chunks and the machine has cores to spare
    monkeypatch.setattr(monte_carlo, "CHUNK_TARGET_ENTRIES", 7 * SPARSE.dim)
    monkeypatch.setattr(monte_carlo.os, "cpu_count", lambda: 4)
    assert len(monte_carlo._chunk_plan(20, SPARSE.dim)) >= 3

    def no_pool(*args, **kwargs):
        raise AssertionError("a table opened a thread pool")

    monkeypatch.setattr(monte_carlo, "ThreadPoolExecutor", no_pool)
    argv = ["embedsim", "--kinds", "sparse,binary", "--M", "30", "--pairs", "20"]
    assert run(argv + ["--out", os.devnull]) == 0


def test_sparse_tables_hold_a_few_blocks_not_a_batch():
    # at the CLI defaults a sparse batch is 5000 x 5000 floats (200 MB), and
    # contrast's two are 3000 x 5000 each (240 MB); a table draws and
    # reduces one block of _BLOCK_ENTRIES floats (1 MiB) at a time, so its
    # traced peak stays under 8 blocks, a 25th of the smaller batch
    bound = 8 * monte_carlo._BLOCK_ENTRIES * 8
    for table in (lambda: concentration_table([SPARSE], M=5000),
                  lambda: contrast_table([SPARSE], pairs=3000)):
        tracemalloc.start()
        try:
            table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, peak


def test_sparse_pair_overlap_is_rare():
    # two independent draws share support at a given slot w.p. 0.002^2
    a = generate(SPARSE, 400, seed=8)
    b = generate(SPARSE, 400, seed=9)
    both = np.logical_and(a != 0.0, b != 0.0)
    assert both.mean() < 3e-5


def test_concentration_table_wiring():
    table = concentration_table(kinds=[DENSE], p_grid=[0.5, 2.0], M=300, seed=1)
    assert table.label == "concentration"
    assert len(table.cells) == 2
    cell = table.cell("dense", 2.0)
    # every dense row has unit 2-norm, so the ratio is exactly 1
    assert cell.value == 1.0
    assert 0.0 <= table.cell("dense", 0.5).value <= 1.0
    with pytest.raises(KeyError):
        table.cell("dense", 7.0)
    record = _record(table, sample_count="M")
    assert record["label"] == "concentration" and record["M"] == 300
    assert len(record["cells"]) == 2
    assert {"kind", "p", "value", "ci", "skipped"} == set(record["cells"][0])


def test_contrast_table_wiring():
    table = contrast_table(kinds=[BINARY], p_grid=[1.0], pairs=300, seed=2)
    cell = table.cell("binary", 1.0)
    assert table.label == "median-contrast"
    assert table.delta is None
    assert 0.0 <= cell.value < 1.0
    assert cell.ci_halfwidth is None
    assert cell.skipped == 0  # a 500-slot 10% binary row is never all zero
    rows = list(table.rows())
    assert rows[0][0] == "binary" and rows[0][1] == 1.0


def test_table_determinism():
    one = concentration_table(kinds=[BINARY], p_grid=[1.0], M=200, seed=3)
    two = concentration_table(kinds=[BINARY], p_grid=[1.0], M=200, seed=3)
    assert one.cells == two.cells
