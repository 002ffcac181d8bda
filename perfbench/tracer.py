"""In-memory span tracer that wraps lpconc's public functions from outside.

Nothing under ``src/`` is edited: ``install`` replaces module attributes and
class methods with timing wrappers, so calls made through those names are
recorded.  Each span keeps its name, start, end, parent, thread and op id.
Chunks of ``monte_carlo`` run on pool threads, so every thread keeps its own
span stack; a span opened on a pool thread with an empty stack takes the
main thread's innermost open span as its parent.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    op: int | None
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "thread": self.thread,
            "op": self.op,
            "start": self.start,
            "end": self.end,
            **({"info": self.info} if self.info else {}),
        }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            main = self._main_stack
            parent = main[-1].id if main else None
        with self._lock:
            span = Span(len(self.spans), name, parent, threading.get_ident(), self.op, 0.0)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` by a traced version.

        ``describe(args, kwargs, result)`` returns extra span fields; it runs
        after the span closes, so its cost lands in the parent's self time.
        """
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if describe is not None:
                span.info.update(describe(args, kwargs, result))
            return result

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()


def _size(value) -> int:
    return int(getattr(value, "size", 1))


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each lpconc layer."""
    from lpconc import anti_concentration, diagnostics, distributions, embedding_lab
    from lpconc import monte_carlo, rate_engine

    tracer.wrap(distributions.Distribution, "log_mgf_abs_p", "distributions.log_mgf")
    for cls in vars(distributions).values():
        if (
            isinstance(cls, type)
            and issubclass(cls, distributions.Distribution)
            and cls is not distributions.Distribution
            and "draw" in cls.__dict__
        ):
            tracer.wrap(
                cls,
                "draw",
                "distributions.draw",
                lambda a, k, r: {"entries": _size(r), "law": type(a[0]).__name__},
            )

    tracer.wrap(
        rate_engine,
        "rate",
        "rate_engine.rate",
        lambda a, k, r: {"iterations": r.iterations, "tolerance_met": r.tolerance_met,
                         "regime": r.regime, "law": a[0].spec_string(), "p": a[1]},
    )
    tracer.wrap(rate_engine, "lambda_value", "rate_engine.lambda_value")

    tracer.wrap(
        anti_concentration,
        "find_p_star",
        "anti_concentration.find_p_star",
        lambda a, k, r: {"method": k.get("method", "exact-binomial")},
    )
    tracer.wrap(
        anti_concentration, "exact_two_point_concentration", "anti_concentration.exact_prob"
    )

    tracer.wrap(
        monte_carlo,
        "log_lp_norms",
        "monte_carlo.log_lp_norms",
        lambda a, k, r: {"entries": _size(a[0])},
    )
    tracer.wrap(monte_carlo, "concentration_frequency", "monte_carlo.concentration_frequency")
    tracer.wrap(
        monte_carlo,
        "relative_contrast",
        "monte_carlo.relative_contrast",
        lambda a, k, r: {"p": r.p},
    )
    tracer.wrap(
        monte_carlo,
        "curve_sweep",
        "monte_carlo.curve_sweep",
        lambda a, k, r: {"failed_cells": len(r.failed)},
    )

    tracer.wrap(
        embedding_lab,
        "generate",
        "embedding_lab.generate",
        lambda a, k, r: {"kind": a[0].name, "entries": _size(r),
                         "nonzero": int((r != 0).sum())},
    )
    for table in ("concentration_table", "contrast_table"):
        tracer.wrap(
            embedding_lab,
            table,
            f"embedding_lab.{table}",
            lambda a, k, r: {"kind": a[0][0].name if len(a[0]) == 1 else "mixed"},
        )

    tracer.wrap(
        diagnostics,
        "load_csv",
        "diagnostics.load_csv",
        lambda a, k, r: {"cells": r.M * r.n},
    )
    tracer.wrap(
        diagnostics,
        "concentration_curve",
        "diagnostics.concentration_curve",
        lambda a, k, r: {"flagged": int(sum(r.flagged))},
    )
    for name in ("ks_two_sample", "wasserstein_1d", "drop_constant", "standardize",
                 "perturb_report"):
        tracer.wrap(diagnostics, name, f"diagnostics.{name}")

    for module in (monte_carlo, embedding_lab, diagnostics):
        short = module.__name__.rsplit(".", 1)[1]
        tracer.wrap(module, "generator", f"{short}.generator")
        tracer.wrap(
            module,
            "logsumexp",
            f"{short}.logsumexp",
            lambda a, k, r: {"entries": _size(a[0])},
        )
