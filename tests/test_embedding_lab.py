"""Synthetic embedding populations and their tables."""

import math

import numpy as np
import pytest

from lpconc import monte_carlo
from lpconc.cli import _record
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
from lpconc.seeding import generator


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
