"""Seeded, parallel Monte Carlo for concentration and contrast frequencies.

Work is split into fixed-size chunks of rows; chunk i draws from an
independent counter-based stream keyed by (seed, i).  A chunk is drawn a
row block of about _BLOCK_ENTRIES entries (1 MiB) at a time, into one
buffer its task owns, and each block is logged and reduced while it is
still in L2, so a thread holds one block, never a whole chunk (32 MiB);
the fills give the bits of one draw of the chunk (see
Distribution._filler).  Each chunk returns the log l_p norms of its rows,
and the chunks are concatenated in chunk-index order before anything is
counted or pooled, so results do not depend on worker count or
scheduling: identical inputs and seed give bit-identical output.  One
chunk sampler, _sample_log_norms, serves curve cells, contrast pairs and
the embedding tables.  One
thread pool serves a whole sweep: curve_sweep hands it every
chunk of every (p, n) cell at once, largest first, and band_frequency_at
runs a p bisection on the pool its caller owns, reducing its held sample
in row-block tasks, so one held chunk still fills every thread.  Every
entry is drawn once and its log|entry| taken once, however many p it is
reduced at: contrast_sweep reduces each chunk at every p of its list, and
band_frequency_at holds log|entry| of up to _HELD_ENTRIES entries (256 MiB)
for a p bisection, drawing chunks past that again at each p.  Taken logs
have one form: zeros are log of the smallest subnormal, kept off numpy's
slow log and exp path, with a mask of the nonzero entries that gives the
bits of log 0 = -inf; the mask is boolean where a bisection holds it (an
eighth of the memory) and 0/1 float while a block is reduced (it
multiplies faster).  Each block's row maxima are taken once for all its p,
and a block of few nonzeros (sparse or binary rows) is reduced over those
alone.  The empirical mean of |entry|^p is pooled from the row norms.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ._special import logsumexp
from .distributions import Distribution
from .seeding import derive_seed, generator

__all__ = [
    "ConcentrationGrid",
    "ContrastSummary",
    "DEFAULT_P_GRID",
    "DEFAULT_N_GRID",
    "log_lp_norms",
    "lp_norms",
    "pair_contrast",
    "wilson_halfwidth",
    "concentration_frequency",
    "curve_sweep",
    "relative_contrast",
    "contrast_sweep",
    "band_frequency_at",
]

# rows per chunk are sized so a chunk holds about this many entries
CHUNK_TARGET_ENTRIES = 1 << 22
# log_lp_norms reduces a block of rows at a time, about this many entries
# (1 MiB): after the one read of the input every pass stays in a core's L2
# instead of streaming a chunk-sized temporary through memory, and each numpy
# call is still long enough that chunk threads seldom wait on the GIL
_BLOCK_ENTRIES = 1 << 17
# band_frequency_at holds log|entry| of at most this many entries (256 MiB)
_HELD_ENTRIES = 1 << 25
# a zero entry's taken log is log(_TINY), the log of the smallest subnormal,
# no larger than the log of any positive float
_TINY = 5e-324
# a block of rows whose share of nonzero entries is below this is reduced
# over its nonzeros only (see _reduce_nonzeros)
_SPARSE_SHARE = 1 / 8

_WILSON_Z = 1.959963984540054

DEFAULT_P_GRID = tuple(float(p) for p in np.geomspace(1e-3, 10.0, 30))
DEFAULT_N_GRID = (10, 30, 100, 300, 1000, 3000)

NORMALIZATIONS = ("analytic-mu", "empirical-mu")


def _row_logsumexp(
    a: np.ndarray, keep: np.ndarray | None = None, shift: np.ndarray | None = None
) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, overwriting a and shift.

    Each row is shifted by shift, its maximum of a with keepdims (taken here
    when not given), with 0 for a row whose maximum is not finite, so exp
    never overflows and the largest term is exactly 1.  Where keep, a 0/1
    float or boolean mask, is 0, a holds a zero entry's finite stand-in for
    -inf: it is set to 0 before exp and its 1 multiplied away after, so it
    adds exactly +0.0, as exp(-inf) would, without numpy's slow path.
    Callers pass temporaries they own.
    """
    if shift is None:
        shift = a.max(axis=-1, keepdims=True)
    return _log_sum(_shifted_exp(a, shift, keep), shift)


def _shifted_exp(a: np.ndarray, shift: np.ndarray, keep: np.ndarray | None) -> np.ndarray:
    """The terms of _row_logsumexp, exp(a - shift) masked by keep, in a."""
    shift[~np.isfinite(shift)] = 0.0
    a -= shift
    if keep is not None:
        a *= keep
    np.exp(a, out=a)
    if keep is not None:
        a *= keep
    return a


def _log_sum(terms: np.ndarray, shift: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(terms.sum(axis=-1)) + shift[..., 0]


def _log_abs_finite(a: np.ndarray) -> np.ndarray | None:
    """Overwrite a, which holds |entries|, with log|entries|, zeros with
    log(_TINY); return the boolean mask of nonzero entries, or None when no
    entry is zero.

    numpy's log and exp leave their vector loop for 0 and -inf (about 5x
    slower with 30% zeros), but not for the smallest subnormal.
    """
    zero = a == 0.0
    if not zero.any():
        np.log(a, out=a)
        return None
    np.maximum(a, _TINY, out=a)
    np.log(a, out=a)
    return np.logical_not(zero, out=zero)


def _stand_in_safe(p: float) -> bool:
    """Whether a zero's stand-in, scaled by p, stays a finite distance from
    any row maximum, so that keep can mask it (see _reduce_logs)."""
    return math.isfinite(2.0 * math.log(_TINY) * p)


def _reduce_logs(
    logs: np.ndarray,
    keep: np.ndarray | None,
    ps: Sequence[float],
    own: bool,
    top: np.ndarray | None = None,
) -> np.ndarray:
    """p * log_lp_norms of a block of rows at each p of ps, from its taken
    logs (see _log_abs_finite) and keep, their boolean mask of nonzero
    entries, or from logs with -inf for zeros and keep None.  With own, logs
    are scaled in place at the last p.  top, each row's maximum of logs with
    keepdims, is taken here when not given; row r is shifted by p * top[r]
    at every p, the bits of its maximum at p, since rounding is monotone for
    p > 0.  Zeros stay off numpy's slow log/exp path (see _row_logsumexp)
    unless p is so large that their stand-in's distance to a row maximum
    could overflow; a block of few nonzeros is reduced over those alone."""
    if keep is not None:
        if np.count_nonzero(keep) < _SPARSE_SHARE * keep.size:
            return _reduce_nonzeros(logs, keep, ps)
        keep = keep.astype(float)  # multiplies faster than a boolean
    if top is None:
        top = logs.max(axis=-1, keepdims=True)
    out = np.empty((len(ps), logs.shape[0]))
    for k, p in enumerate(ps):
        if keep is None or _stand_in_safe(p):
            scaled = np.multiply(logs, p, out=logs if own and k == len(ps) - 1 else None)
            out[k] = _row_logsumexp(scaled, keep, np.multiply(top, p))
        else:
            # past p of about 1e305 the stand-in's scaled gap to a row
            # maximum can overflow, and -inf * 0 is NaN: take -inf back
            with np.errstate(divide="ignore"):
                scaled = logs / keep  # stand-in / 0 = -inf
            scaled *= p
            out[k] = _row_logsumexp(scaled, None, np.multiply(top, p))
    return out


def _reduce_nonzeros(logs: np.ndarray, keep: np.ndarray, ps: Sequence[float]) -> np.ndarray:
    """_reduce_logs over the nonzero entries alone, gathered row by row into
    one array: the same terms, summed in another order, so a row moves at
    most at rounding, and not at all when its terms are equal (binary or
    two-point rows) or at most two.  A row without one is -inf."""
    counts = np.count_nonzero(keep, axis=-1)
    filled = counts > 0
    counts = counts[filled]
    starts = np.cumsum(counts) - counts
    logs = logs[keep]
    top = np.maximum.reduceat(logs, starts)
    out = np.full((len(ps), keep.shape[0]), -math.inf)
    for k, p in enumerate(ps):
        shift = np.multiply(top, p)
        shift[~np.isfinite(shift)] = 0.0
        terms = np.exp(np.multiply(logs, p) - np.repeat(shift, counts))
        with np.errstate(divide="ignore"):
            out[k, filled] = np.log(np.add.reduceat(terms, starts)) + shift
    return out


def _reduce_blocks(blocks: Iterable[np.ndarray], rows: int, ps: Sequence[float]) -> np.ndarray:
    """Row log-norms at each p of ps, shape (len(ps), rows), of the row
    blocks that blocks yields in order: each holds |entries|, and their
    logs, then the last p's scaling of them, overwrite it in place."""
    out = np.empty((len(ps), rows))
    start = 0
    for logs in blocks:
        keep = _log_abs_finite(logs)
        out[:, start : start + len(logs)] = _reduce_logs(logs, keep, ps, own=True)
        start += len(logs)
    out /= np.array(ps, dtype=float)[:, None]
    return out


def _log_norms_at(values: np.ndarray, ps: Sequence[float]) -> np.ndarray:
    """log_lp_norms(values, p) for each p of ps, stacked on a new first axis.

    Rows are taken a block of about _BLOCK_ENTRIES at a time; abs and log
    run once per block for every p.
    """
    if not all(p > 0 for p in ps):
        raise ValueError("p must be positive")
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    rows = values.reshape(-1, n)
    step = max(1, _BLOCK_ENTRIES // n)
    blocks = (np.abs(rows[start : start + step]) for start in range(0, len(rows), step))
    return _reduce_blocks(blocks, len(rows), ps).reshape(len(ps), *values.shape[:-1])


def _law_blocks(dist: Distribution, rng: np.random.Generator, rows: int, n: int) -> Iterator:
    """|entries| of dist.draw(rng, (rows, n)), bit for bit, in the row blocks
    of _log_norms_at, each filled into one buffer once the last is reduced:
    no array of all the rows is made."""
    fill = dist._filler(rng, rows * n)
    step = max(1, _BLOCK_ENTRIES // n)
    buffer = np.empty(min(step, rows) * n)
    for start in range(0, rows, step):
        block = buffer[: min(step, rows - start) * n].reshape(-1, n)
        fill(block)
        yield np.abs(block, out=block)


def _log_norms_imputed(
    values: np.ndarray, zeroed: np.ndarray, ps: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """(_log_norms_at(values, ps), _log_norms_at(imputed, ps)) bit for bit,
    where imputed, np.where(zeroed, 0.0, values), is the finite rows values
    with the entries of the boolean mask zeroed set to 0; it is never made
    whole, only a block of it at a time.

    Where a row's maximum is left in place, both copies share the shift and
    imputed's terms are values' times imputed's 0/1 mask (e * 1 == e,
    e * 0 == +0.0), so one exp pass serves both; rows whose maximum was
    zeroed are reduced again with their own, as the block's other rows are.
    Blocks either copy reduces over its nonzeros, or with a p past
    _stand_in_safe, are reduced twice.
    """
    if not all(p > 0 for p in ps):
        raise ValueError("p must be positive")
    out = np.empty((2, len(ps), values.shape[0]))
    step = max(1, _BLOCK_ENTRIES // values.shape[1])
    for start in range(0, values.shape[0], step):
        rows = slice(start, start + step)
        logs = np.abs(values[rows])
        again = np.where(zeroed[rows], 0.0, logs)
        keep = _log_abs_finite(logs)
        kept = _log_abs_finite(again)
        if kept is None:  # nothing zeroed, nothing zero
            out[:, :, rows] = _reduce_logs(logs, keep, ps, own=True)
            continue
        if np.count_nonzero(kept) < _SPARSE_SHARE * kept.size or not all(map(_stand_in_safe, ps)):
            out[0, :, rows] = _reduce_logs(logs, keep, ps, own=True)
            out[1, :, rows] = _reduce_logs(again, kept, ps, own=True)
            continue
        top = logs.max(axis=-1, keepdims=True)
        top_again = again.max(axis=-1, keepdims=True)
        moved = np.flatnonzero(top_again != top)
        keep = None if keep is None else keep.astype(float)
        kept = kept.astype(float)
        # the zeroed maxima's rows take the dense path, as in their block
        again, kept_moved, top_again = again[moved], kept[moved], top_again[moved]
        for k, p in enumerate(ps):
            shift = np.multiply(top, p)
            scaled = np.multiply(logs, p, out=logs if k == len(ps) - 1 else None)
            terms = _shifted_exp(scaled, shift, keep)
            out[0, k, rows] = _log_sum(terms, shift)
            terms *= kept
            out[1, k, rows] = _log_sum(terms, shift)
            out[1, k, start + moved] = _row_logsumexp(again * p, kept_moved, top_again * p)
    out /= np.array(ps, dtype=float)[:, None]
    return out[0], out[1]


def log_lp_norms(values: np.ndarray, p: float) -> np.ndarray:
    """log of the p-th power sum over the last axis, then divided by p.

    Everything runs in log space with the max factored out, so entries
    spanning hundreds of orders of magnitude and p up to the hundreds are
    safe.  Rows of zeros give -inf.
    """
    return _log_norms_at(values, (p,))[0]


def lp_norms(values: np.ndarray, p: float) -> np.ndarray:
    """Row norms (sum of |entry|^p) ** (1/p); inf where the result overflows."""
    with np.errstate(over="ignore"):
        return np.exp(log_lp_norms(values, p))


def pair_contrast(x1: np.ndarray, x2: np.ndarray, p: float) -> float:
    """|norm(x1) - norm(x2)| / norm(x1), computed from log norms; nan if
    norm(x1) is zero."""
    l1 = float(log_lp_norms(np.asarray(x1, dtype=float), p))
    l2 = float(log_lp_norms(np.asarray(x2, dtype=float), p))
    if l1 == -math.inf:
        return math.nan
    if l2 == -math.inf:
        return 1.0
    return abs(math.expm1(l2 - l1))


def _median(a: np.ndarray) -> float:
    """np.median of a nonempty 1-D array, bit for bit, without its NaN check,
    which imports numpy.ma (about 15 ms) on a process's first call."""
    h = a.size // 2
    part = np.partition(a, (h, -1) if a.size % 2 else (h - 1, h, -1))
    if np.isnan(part[-1]):
        return math.nan
    return float(part[h]) if a.size % 2 else float((part[h - 1] + part[h]) / 2.0)


def wilson_halfwidth(count: int, total: int, z: float = _WILSON_Z) -> float:
    """Halfwidth of the Wilson score interval for count/total."""
    if total <= 0:
        raise ValueError("total must be positive")
    phat = count / total
    denom = 1.0 + z * z / total
    return (z / denom) * math.sqrt(phat * (1.0 - phat) / total + z * z / (4.0 * total * total))


def _chunk_plan(rows_total: int, row_entries: int) -> list[tuple[int, int, int]]:
    """(chunk_index, start_row, rows) triples covering rows_total rows."""
    rows_per_chunk = max(1, CHUNK_TARGET_ENTRIES // max(row_entries, 1))
    plan = []
    start = 0
    index = 0
    while start < rows_total:
        rows = min(rows_per_chunk, rows_total - start)
        plan.append((index, start, rows))
        start += rows
        index += 1
    return plan


def _threads(workers: int | None, tasks: int) -> int:
    """Pool size for a map of that many tasks: workers (a ValueError below
    1), by default one per CPU, never more than the tasks and never less
    than 1."""
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, not {workers}")
    if workers is None:
        workers = min(tasks, os.cpu_count() or 1)
    return max(1, min(workers, tasks))


def _map_tasks(
    fn: Callable,
    tasks: Sequence,
    workers: int | None,
    size: Callable | None = None,
    pool: ThreadPoolExecutor | None = None,
) -> list:
    """Run fn over tasks on a thread pool, returning results in task order.

    The pool is the one given, kept by a caller that maps many times (a
    thread start costs about as much as a short map), else one opened for
    this call with _threads(workers, len(tasks)) threads, or none for one
    thread.  With size, the largest tasks start first, so that a run ends
    on a short task rather than leaving one thread a long one.
    """
    if pool is None:
        threads = _threads(workers, len(tasks))
        if threads == 1:
            return [fn(t) for t in tasks]
        with ThreadPoolExecutor(max_workers=threads) as own:
            return _map_tasks(fn, tasks, workers, size, own)
    order = range(len(tasks))
    if size is not None:
        order = sorted(order, key=lambda k: -size(tasks[k]))
    done = dict(zip(order, pool.map(fn, [tasks[k] for k in order])))
    return [done[k] for k in range(len(tasks))]


def _sample_log_norms(
    dist: Distribution, samples: Sequence[tuple[int, tuple, tuple]], M: int, workers: int | None
) -> list[np.ndarray]:
    """Row log-norms of M draws for each (seed, row shape, ps) sample, at
    each p of its ps and in chunk order: shape (len(ps), M, *shape[:-1]).
    One pool runs every chunk of every sample, largest first.  dist is a law
    or an embedding kind: anything with Distribution's _filler."""
    tasks = [(s, c) for s, x in enumerate(samples) for c in _chunk_plan(M, math.prod(x[1]))]

    def one(task: tuple[int, tuple[int, int, int]]) -> np.ndarray:
        s, (index, _, rows) = task
        seed, shape, ps = samples[s]
        count = rows * math.prod(shape[:-1])
        blocks = _law_blocks(dist, generator(seed, index), count, shape[-1])
        return _reduce_blocks(blocks, count, ps).reshape(len(ps), rows, *shape[:-1])

    parts: list[list[np.ndarray]] = [[] for _ in samples]
    done = _map_tasks(one, tasks, workers, size=lambda t: t[1][2] * math.prod(samples[t[0]][1]))
    for (s, _), part in zip(tasks, done):
        parts[s].append(part)
    return [np.concatenate(part, axis=1) for part in parts]


def _checked_log_mu(log_mu: float) -> float:
    if not math.isfinite(log_mu):
        raise ValueError("normalization mean is zero or non-finite for this p")
    return log_mu


def _law_log_mu(dist: Distribution, p: float, normalization: str) -> float | None:
    """log of the law's mean of |entry|^p under analytic-mu, checked before
    anything is drawn; None under empirical-mu, which pools it from the
    sample (see _pooled_log_mu)."""
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"normalization must be one of {NORMALIZATIONS}")
    if normalization == "empirical-mu":
        return None
    try:
        log_mu = math.log(dist.mu_p(p))
    except OverflowError:
        log_mu = math.inf
    return _checked_log_mu(log_mu)


def _pooled_log_mu(log_norms: np.ndarray, p: float, entries: int) -> float:
    """log of the mean of |entry|^p over a sample of that many entries,
    pooled from its row log-norms; not finite when that mean is 0 or inf."""
    return float(logsumexp(p * log_norms)) - math.log(entries)


def _check_band(n: int, delta: float, M: int) -> None:
    if M < 100:
        raise ValueError("M must be at least 100")
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not delta > 0:
        raise ValueError("delta must be positive")


def _band_count(log_norms: np.ndarray, n: int, p: float, log_mu: float, delta: float) -> int:
    """Rows whose norm over (n * mu)^(1/p) lies in [1-delta, 1+delta];
    delta >= 1 leaves only the upper constraint."""
    lo = math.log1p(-delta) if delta < 1.0 else -math.inf
    hi = math.log1p(delta)
    # log of (n * mu)^(1/p); log_norms already carry the 1/p
    log_ratio = log_norms - (math.log(n) + log_mu) / p
    return int(np.count_nonzero((log_ratio >= lo) & (log_ratio <= hi)))


def _band_frequencies(
    dist: Distribution,
    cells: Sequence[tuple[int, float, int]],
    delta: float,
    M: int,
    normalization: str,
    workers: int | None,
) -> list:
    """concentration_frequency at each (n, p, seed) cell, or the ValueError
    or OverflowError the cell raised.

    Every cell is checked before anything is drawn; then the cells that
    passed are sampled on one pool (see _sample_log_norms).
    """
    results: list = [None] * len(cells)
    checked: list[tuple[int, float | None]] = []
    samples = []
    for c, (n, p, seed) in enumerate(cells):
        try:
            _check_band(n, delta, M)
            log_mu = _law_log_mu(dist, p, normalization)
            if not p > 0:
                raise ValueError("p must be positive")
        except (ValueError, OverflowError) as exc:
            results[c] = exc
        else:
            checked.append((c, log_mu))
            samples.append((seed, (n,), (p,)))
    for (c, log_mu), (log_norms,) in zip(checked, _sample_log_norms(dist, samples, M, workers)):
        n, p, _ = cells[c]
        if log_mu is None:
            try:
                log_mu = _checked_log_mu(_pooled_log_mu(log_norms, p, M * n))
            except ValueError as exc:
                results[c] = exc
                continue
        inside = _band_count(log_norms, n, p, log_mu, delta)
        results[c] = (inside / M, wilson_halfwidth(inside, M))
    return results


def concentration_frequency(
    dist: Distribution,
    n: int,
    p: float,
    delta: float,
    M: int,
    seed: int,
    normalization: str = "analytic-mu",
    workers: int | None = None,
) -> tuple[float, float]:
    """Frequency of the normalized norm landing inside [1-delta, 1+delta].

    Returns (frequency, Wilson 95% halfwidth).  The norm ratio is evaluated
    fully in log space (max factored out), so any p and entry scale that fit
    in floats are handled.  delta >= 1 leaves only the upper constraint.
    """
    (result,) = _band_frequencies(dist, [(n, p, seed)], delta, M, normalization, workers)
    if isinstance(result, Exception):
        raise result
    return result


def band_frequency_at(
    dist: Distribution, n: int, delta: float, M: int, seed: int, workers: int | None = None,
    pool: ThreadPoolExecutor | None = None,
) -> Callable[[float], float]:
    """p -> concentration_frequency(dist, n, p, delta, M, seed, workers=workers)[0],
    bit for bit, from one sample drawn here.

    The chunks that fit in _HELD_ENTRIES are held in row blocks of about
    _BLOCK_ENTRIES entries, each as its taken logs with their boolean mask
    of nonzero entries (see _log_abs_finite) and its rows' maxima, taken
    once; each call only scales and reduces the blocks at its p, one task per
    block so that a single held chunk still fills the pool, and draws the
    later chunks again.  Every map runs on pool when one is given (its
    owner shuts it down), else on a pool opened for that map.
    """
    _check_band(n, delta, M)
    plan = _chunk_plan(M, n)

    def hold(chunk: tuple[int, int, int]) -> list[tuple]:
        index, _, rows = chunk
        held = []
        for block in _law_blocks(dist, generator(seed, index), rows, n):
            logs = block.copy()  # the next block is drawn into block
            keep = _log_abs_finite(logs)
            held.append((logs, keep, logs.max(axis=-1, keepdims=True)))
        return held

    held = [c for c in plan if (c[1] + c[2]) * n <= _HELD_ENTRIES]
    blocks = [block for part in _map_tasks(hold, held, workers, pool=pool) for block in part]
    redrawn = plan[len(held) :]

    def frequency(p: float) -> float:
        log_mu = _law_log_mu(dist, p, "analytic-mu")

        def one(k: int) -> np.ndarray:
            if k < len(blocks):
                logs, keep, top = blocks[k]
                return _reduce_logs(logs, keep, (p,), own=False, top=top)[0] / p
            index, _, rows = redrawn[k - len(blocks)]
            drawn = _law_blocks(dist, generator(seed, index), rows, n)
            return _reduce_blocks(drawn, rows, (p,))[0]

        tasks = range(len(blocks) + len(redrawn))
        log_norms = np.concatenate(_map_tasks(one, tasks, workers, pool=pool))
        return _band_count(log_norms, n, p, log_mu, delta) / M

    return frequency


@dataclass(frozen=True)
class ConcentrationGrid:
    """Concentration frequencies over a (p, n) grid."""

    p_grid: tuple[float, ...]
    n_grid: tuple[int, ...]
    freq: tuple[tuple[float, ...], ...]
    ci_halfwidth: tuple[tuple[float, ...], ...]
    sample_count: int
    seed: int
    normalization: str
    failed: tuple[tuple[int, int, str], ...] = ()

    def rows(self):
        """Long-format (p, n, freq, ci) rows for CSV emission."""
        for i, p in enumerate(self.p_grid):
            for j, n in enumerate(self.n_grid):
                yield p, n, self.freq[i][j], self.ci_halfwidth[i][j]


def curve_sweep(
    dist: Distribution,
    p_grid: Sequence[float] | None = None,
    n_grid: Sequence[int] | None = None,
    delta: float = 0.1,
    M: int = 10_000,
    seed: int = 0,
    normalization: str = "analytic-mu",
    workers: int | None = None,
) -> ConcentrationGrid:
    """concentration_frequency over the full grid; cell (i, j) uses its own
    stream derived from (seed, i, j), so the grid shape never shifts draws.
    One pool runs the chunks of every cell."""
    ps = tuple(float(p) for p in (DEFAULT_P_GRID if p_grid is None else p_grid))
    ns = tuple(int(n) for n in (DEFAULT_N_GRID if n_grid is None else n_grid))
    if not ps or not ns:
        raise ValueError("grids must be nonempty")
    cells = [(n, p, derive_seed(seed, i, j)) for i, p in enumerate(ps) for j, n in enumerate(ns)]
    results = iter(_band_frequencies(dist, cells, delta, M, normalization, workers))
    freq: list[tuple[float, ...]] = []
    ci: list[tuple[float, ...]] = []
    failed: list[tuple[int, int, str]] = []
    for i in range(len(ps)):
        row: list[tuple[float, float]] = []
        for j in range(len(ns)):
            result = next(results)
            if isinstance(result, Exception):
                failed.append((i, j, str(result)))
                result = (math.nan, math.nan)
            row.append(result)
        freq.append(tuple(f for f, _ in row))
        ci.append(tuple(c for _, c in row))
    return ConcentrationGrid(
        p_grid=ps,
        n_grid=ns,
        freq=tuple(freq),
        ci_halfwidth=tuple(ci),
        sample_count=M,
        seed=seed,
        normalization=normalization,
        failed=tuple(failed),
    )


@dataclass(frozen=True)
class ContrastSummary:
    """Pairwise norm-difference statistics at one (p, n)."""

    p: float
    n: int
    median_rc: float
    freq_below_delta: float
    delta: float
    pairs: int
    skipped: int
    skipped_fraction: float
    joint_half_band_freq: float
    ci_halfwidth: float
    seed: int


def contrast_sweep(
    dist: Distribution,
    n: int,
    p_grid: Sequence[float],
    M: int,
    seed: int,
    delta: float,
    normalization: str = "analytic-mu",
    workers: int | None = None,
) -> tuple[ContrastSummary, ...]:
    """Samples M independent vector pairs (2M fresh draws) once, for every p
    of p_grid; summary k does not depend on the other p.

    freq_below_delta is the share of valid pairs whose norm difference,
    normalized by (n*mu_p)^(1/p), stays below delta.  median_rc is the
    median of |norm1 - norm2| / norm1.  Pairs whose first vector has zero
    norm are skipped and counted.  joint_half_band_freq is the share of
    pairs with both ratios inside the half-delta band, measured on the same
    draws; it is a sample-exact lower bound for freq_below_delta.  Every p,
    and under analytic-mu its law mean, is checked before anything is drawn.
    """
    _check_band(n, delta, M)
    if not delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    ps = tuple(p_grid)
    if not ps or not all(p > 0 for p in ps):
        raise ValueError("p_grid must be nonempty and every p positive")
    log_mus = [_law_log_mu(dist, p, normalization) for p in ps]
    (log_norms,) = _sample_log_norms(dist, [(seed, (2, n), ps)], M, workers)
    half_lo, half_hi = math.log1p(-delta / 2.0), math.log1p(delta / 2.0)
    summaries = []
    for p, log_mu, log_norm in zip(ps, log_mus, log_norms):
        if log_mu is None:
            log_mu = _checked_log_mu(_pooled_log_mu(log_norm, p, 2 * M * n))
        log_r = log_norm - (math.log(n) + log_mu) / p
        r1, r2 = log_r[:, 0], log_r[:, 1]
        valid = r1 > -math.inf
        with np.errstate(over="ignore", invalid="ignore"):
            diff = np.abs(np.exp(r1) - np.exp(r2))
            rc = np.abs(np.expm1(log_norm[valid, 1] - log_norm[valid, 0]))
        below = int(np.count_nonzero(valid & (diff < delta)))
        in_half_band = (log_r >= half_lo) & (log_r <= half_hi)
        joint = int(np.count_nonzero(in_half_band.all(axis=1)))
        skipped = int(M - valid.sum())
        valid_pairs = M - skipped
        if valid_pairs <= 0:
            raise ValueError("every pair had a zero first norm")
        summaries.append(
            ContrastSummary(
                p=p,
                n=n,
                median_rc=_median(rc),
                freq_below_delta=below / valid_pairs,
                delta=delta,
                pairs=M,
                skipped=skipped,
                skipped_fraction=skipped / M,
                joint_half_band_freq=joint / M,
                ci_halfwidth=wilson_halfwidth(below, valid_pairs),
                seed=seed,
            )
        )
    return tuple(summaries)


def relative_contrast(
    dist: Distribution,
    n: int,
    p: float,
    M: int,
    seed: int,
    delta: float,
    normalization: str = "analytic-mu",
    workers: int | None = None,
) -> ContrastSummary:
    """contrast_sweep at the one p."""
    return contrast_sweep(dist, n, (p,), M, seed, delta, normalization, workers)[0]
