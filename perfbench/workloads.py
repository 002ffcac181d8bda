"""The three benchmark workloads: their CLI ops, generated inputs and work counts.

Each workload is chosen so that a different set of lpconc modules does most
of the work:

* ``analytic``   - quadrature in ``distributions.log_mgf_abs_p`` driven by the
  ``rate_engine`` optimizer; no RNG, so the seed does not change it.
* ``montecarlo`` - seeded chunked sampling in ``monte_carlo``: RNG set-up,
  ``Distribution.draw``, the ``log|x|`` transform, the row reduction and the
  chunk thread pool.
* ``tables``     - whole batches held in memory (``embedding_lab``) and the CSV
  pipeline with per-column drift tests (``diagnostics``).

Work is counted from the op inputs only, never from counters in the program.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("analytic", "montecarlo", "tables")

P_LIST = "0.01,0.1,0.5,1,2"

ANALYTIC_LAWS = (
    "uniform01",
    "uniform:b=2",
    "diffuniform",
    "normal",
    "zeroinflated:a=0.3,base=normal",
    "twopoint:a=0.5,r=1",
    "threepoint:a=0.2,r=2",
)
ANALYTIC_DELTAS = ("0.1", "0.3")
PSTAR_EXACT_N = (100, 1000, 10000)

EMBED_KINDS = ("dense", "sparse", "relu", "binary")
EMBED_DIMS = {"dense": 384, "sparse": 5000, "relu": 384, "binary": 500}
# scaled down 10x from the CLI defaults (5000 vectors, 3000 pairs) so that
# three fresh-process repetitions fit one run; every kind stays in, but the
# sparse batch (500 x 5000 floats, 20 MB) now fits in a 105 MB L3
EMBED_M = 500
EMBED_PAIRS = 300
# the CLI's default grids, passed explicitly so work is counted from the argv
EMBED_CONCENTRATION_P = "0.01,0.1,0.5,1,2,10"
EMBED_CONTRAST_P = "0.01,0.1,0.5,1,2"

GEN_ROWS = 20_000
GEN_COLS = 40
DIAGNOSE_P = ",".join(repr(float(p)) for p in np.geomspace(0.01, 10.0, 25))

# sample sizes small enough that three fresh-process repetitions fit one
# run; at n = 1000 the first curve op still runs three 4M-entry chunks on
# the thread pool
MC_M = 10_000
MC_EMPIRICAL_M = 5_000
PSTAR_MC_M = 5_000
PSTAR_MC_EVALS = 42  # two end points plus 40 bisection steps


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``argv`` already carries ``--out``."""

    name: str
    argv: tuple[str, ...]
    out: str
    work: int = 0
    meta: dict = field(default_factory=dict)


def work_dir(workload: str) -> str:
    """Scratch directory, relative to the checkout root, for one workload."""
    return os.path.join(".perfbench_work", workload)


def _op(name: str, words: str, out_dir: str, work: int = 0, **meta) -> Op:
    out = os.path.join(out_dir, name + ".json")
    return Op(name, tuple(words.split()) + ("--out", out), out, work, meta)


def analytic_ops(out_dir: str) -> list[Op]:
    ops = []
    points = 2 * len(P_LIST.split(","))
    for law in ANALYTIC_LAWS:
        for delta in ANALYTIC_DELTAS:
            ops.append(
                _op(
                    f"rates-{law.split(':')[0]}{_law_tag(law)}-d{delta}",
                    f"rates --dist {law} --p {P_LIST} --delta {delta} --format json",
                    out_dir,
                    work=points,
                    law=law,
                    delta=float(delta),
                )
            )
    for n in PSTAR_EXACT_N:
        ops.append(
            _op(
                f"pstar-exact-n{n}",
                f"pstar --dist twopoint:a=0.5 --n {n} --delta 0.1 --Delta 0.2",
                out_dir,
                n=n,
            )
        )
    return ops


def _law_tag(law: str) -> str:
    # keep op names unique and file-name safe
    _, _, params = law.partition(":")
    return "" if not params else "-" + params.replace("=", "").replace(",", "-").replace(":", "")


def montecarlo_ops(out_dir: str, seed: int) -> list[Op]:
    return [
        _op(
            "curve-uniform01",
            f"curve --dist uniform01 --p 0.01,0.1,1 --n 100,1000 --M {MC_M} --seed {seed}",
            out_dir,
            work=3 * (100 + 1000) * MC_M,
        ),
        _op(
            "curve-zeroinflated-empirical",
            "curve --dist zeroinflated:a=0.3,base=normal --p 0.01,0.1,1 --n 100,1000 "
            f"--M {MC_EMPIRICAL_M} --normalization empirical-mu --seed {seed}",
            out_dir,
            work=3 * (100 + 1000) * MC_EMPIRICAL_M,
        ),
        _op(
            "contrast-uniform01",
            f"contrast --dist uniform01 --n 1000 --p 0.01,0.5 --M {MC_M} --seed {seed}",
            out_dir,
            work=2 * 1000 * MC_M * 2,
        ),
        # pstar has no --seed: its Monte Carlo stream is derived from its inputs
        _op(
            "pstar-mc-zeroinflated",
            "pstar --dist zeroinflated:a=0.3,base=uniform01 --n 100 --delta 0.1 "
            f"--Delta 0.2 --method monte-carlo --M {PSTAR_MC_M}",
            out_dir,
            work=PSTAR_MC_EVALS * 100 * PSTAR_MC_M,
        ),
    ]


def workers1_op(out_dir: str, seed: int) -> Op:
    """The first montecarlo op again, single-threaded (traced runs only)."""
    base = montecarlo_ops(out_dir, seed)[0]
    return _op(
        base.name + "-workers1",
        " ".join(base.argv[: base.argv.index("--out")]) + " --workers 1",
        out_dir,
        work=base.work,
    )


def tables_ops(out_dir: str, seed: int, csv_path: str) -> list[Op]:
    ops = []
    for kind in EMBED_KINDS:
        dim = EMBED_DIMS[kind]
        ops.append(
            _op(
                f"embedsim-concentration-{kind}",
                f"embedsim --table concentration --kinds {kind} --M {EMBED_M} "
                f"--p {EMBED_CONCENTRATION_P} --seed {seed}",
                out_dir,
                work=EMBED_M * dim * _count(EMBED_CONCENTRATION_P),
                kind=kind,
            )
        )
        ops.append(
            _op(
                f"embedsim-contrast-{kind}",
                f"embedsim --table contrast --kinds {kind} --pairs {EMBED_PAIRS} "
                f"--p {EMBED_CONTRAST_P} --seed {seed}",
                out_dir,
                work=2 * EMBED_PAIRS * dim * _count(EMBED_CONTRAST_P),
                kind=kind,
            )
        )
    # GEN.csv has exactly one constant column, which diagnose drops
    reduced = GEN_ROWS * (GEN_COLS - 1) * _count(DIAGNOSE_P)
    ops.append(
        _op("diagnose", f"diagnose --input {csv_path} --standardize --p {DIAGNOSE_P}", out_dir,
            work=reduced)
    )
    ops.append(
        _op(
            "perturb",
            f"perturb --input {csv_path} --standardize --gap 0.05 --p {DIAGNOSE_P} --seed {seed}",
            out_dir,
            work=2 * reduced,
        )
    )
    return ops


def _count(p_list: str) -> int:
    return len(p_list.split(","))


def write_gen_csv(path: str, seed: int) -> None:
    """GEN.csv: normal columns, few-level columns and one constant column."""
    rng = np.random.default_rng([seed, 0x6C70])
    columns = []
    for j in range(GEN_COLS - 1):
        if j % 4 == 3:
            levels = 2 + j % 5
            columns.append(rng.integers(0, levels, GEN_ROWS).astype(float))
        else:
            columns.append(rng.normal(0.1 * j, 1.0 + 0.05 * j, GEN_ROWS))
    columns.append(np.full(GEN_ROWS, 3.0))
    matrix = np.column_stack(columns)
    header = ",".join(f"c{j:02d}" for j in range(GEN_COLS))
    np.savetxt(path, matrix, fmt="%.12g", delimiter=",", header=header, comments="")


def ops_for(workload: str, seed: int) -> list[Op]:
    out_dir = work_dir(workload)
    if workload == "analytic":
        return analytic_ops(out_dir)
    if workload == "montecarlo":
        return montecarlo_ops(out_dir, seed)
    if workload == "tables":
        return tables_ops(out_dir, seed, os.path.join(out_dir, "GEN.csv"))
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, seed: int) -> list[Op]:
    """Create the workload's inputs under its work directory; return its ops."""
    os.makedirs(work_dir(workload), exist_ok=True)
    if workload == "tables":
        write_gen_csv(os.path.join(work_dir(workload), "GEN.csv"), seed)
    return ops_for(workload, seed)


def work_unit(workload: str) -> str:
    return {"analytic": "rate_points", "montecarlo": "entries", "tables": "entries"}[workload]


def working_set_bytes(workload: str) -> dict:
    """Largest arrays each workload holds at once, computed from their shapes
    and the library's chunk size (``lpconc`` must be importable)."""
    f8 = 8
    if workload == "analytic":
        # quadrature holds no array that grows with the inputs
        return {}
    if workload == "montecarlo":
        from lpconc.monte_carlo import CHUNK_TARGET_ENTRIES

        # the first curve op at n = 1000: whole rows per chunk, and the pool
        # runs min(chunks, cpu_count) of them at once
        n, M = 1000, MC_M
        rows = max(1, CHUNK_TARGET_ENTRIES // n)
        chunk = rows * n * f8
        in_flight = min(-(-M // rows), os.cpu_count() or 1)
        return {"chunk_array": chunk, "chunks_in_flight": in_flight * chunk}
    return {
        "sparse_batch": EMBED_M * EMBED_DIMS["sparse"] * f8,
        "gen_matrix": GEN_ROWS * GEN_COLS * f8,
    }
