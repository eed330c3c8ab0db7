"""Timing, tracing and reporting shared by the workloads.

Standard library only: the set-up probe imports this module before it
starts its clock, so nothing here may pull in numpy or ecgseg.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

# Percentiles tried for the tail report, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def highest_supported_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n * (1000 - round(10 * p)) >= 1000 * MIN_BEYOND:  # exact: p has one decimal
            return p
    return None


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_facts(blas_threads: int) -> dict:
    """Versions, core count and thread settings a timing depends on."""
    facts = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
    try:
        import numpy as np
    except ImportError:
        return facts
    facts["numpy"] = np.__version__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        facts["blas"] = None
    return facts


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    item: int | None


@dataclass
class Tracer:
    """In-memory spans: name, start, end, parent span and owning item.

    An item is a top-level span (one train step, one record, one sweep
    repetition); every span opened inside it carries the item's id.
    Counts attach to the current item the same way.
    """

    spans: list[Span] = field(default_factory=list)
    counts: list[tuple[int | None, str, float]] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _item: int | None = None

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._item = sid
        span = Span(sid, name, time.perf_counter(), math.nan, parent, self._item)
        self.spans.append(span)
        self._stack.append(sid)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if not self._stack:
                self._item = None

    def count(self, name: str, value: float) -> None:
        self.counts.append((self._item, name, value))

    def dump(self, path) -> None:
        doc = {
            "spans": [vars(s) for s in self.spans],
            "counts": [{"item": i, "name": n, "value": v} for i, n, v in self.counts],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)

    def layer_stats(self, item_name: str) -> dict[str, dict]:
        """Per-item busy and self time of each span name under ``item_name`` items.

        Busy time sums a name's outermost spans in the item; self time
        subtracts the part covered by their direct children. Medians are
        over the items that opened the span at least once.
        """
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        per_item: dict[int, dict[str, list[float]]] = {}
        items = [s for s in self.spans if s.parent is None and s.name == item_name]
        for item in items:
            acc: dict[str, list[float]] = {}
            stack = list(children.get(item.id, []))
            while stack:
                s = stack.pop()
                kids = children.get(s.id, [])
                busy = s.end - s.start
                own = busy - sum(k.end - k.start for k in kids)
                entry = acc.setdefault(s.name, [0.0, 0.0, 0])
                entry[0] += busy
                entry[1] += own
                entry[2] += 1
                stack.extend(kids)
            per_item[item.id] = acc
        out: dict[str, dict] = {}
        names = sorted({n for acc in per_item.values() for n in acc})
        for name in names:
            rows = [(item, per_item[item.id][name]) for item in items if name in per_item[item.id]]
            out[name] = {
                "busy_ms": statistics.median(1e3 * r[0] for _, r in rows),
                "self_ms": statistics.median(1e3 * r[1] for _, r in rows),
                "share": statistics.median(r[0] / (it.end - it.start) for it, r in rows),
                "calls": statistics.median(r[2] for _, r in rows),
                "items": len(rows),
                "of_items": len(items),
            }
        return out

    def count_values(self, name: str, item_name: str, per_item: bool) -> list[float]:
        """Values of a count recorded in ``item_name`` items, summed per item when ``per_item``."""
        rows = [(item, v) for item, n, v in self.counts
                if n == name and item is not None and self.spans[item].name == item_name]
        if not per_item:
            return [v for _, v in rows]
        sums: dict[int, float] = {}
        for item, v in rows:
            sums[item] = sums.get(item, 0.0) + v
        return list(sums.values())


class NullTracer:
    """Tracing switched off: spans cost one call and record nothing."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, value: float) -> None:
        pass


@dataclass
class Outcome:
    """Checked results of a phase: item times and failures."""

    times: list[float] = field(default_factory=list)
    items: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    wall: float = 0.0


def run_items(items, run, check, outcome: Outcome, tracer=None, item_name: str = "item",
              digest=None) -> None:
    """Run and time each item, then check its output outside the timed region.

    A failed check or an exception from the program counts the item as
    failed; its time is still recorded so that a failure is never hidden
    by being left out. ``digest`` reduces an output to what is kept for
    comparing runs.
    """
    tracer = tracer or NullTracer()
    for item in items:
        outcome.attempted += 1
        t0 = time.perf_counter()
        try:
            with tracer.span(item_name):
                output = run(item, tracer)
        except (ArithmeticError, ValueError, RuntimeError, OSError) as exc:
            outcome.times.append(time.perf_counter() - t0)
            outcome.items.append(item)
            outcome.outputs.append(None)
            outcome.failed += 1
            outcome.failures.append(f"{item!r}: {type(exc).__name__}: {exc}")
            continue
        outcome.times.append(time.perf_counter() - t0)
        outcome.items.append(item)
        outcome.outputs.append(output if digest is None else digest(output))
        problems = check(item, output)
        if problems:
            outcome.failed += 1
            outcome.failures.extend(f"{item!r}: {problem}" for problem in problems)


def run_for(seconds: float, next_block, run, check, tracer=None, item_name: str = "item",
            digest=None) -> Outcome:
    """Run whole passes, each from ``next_block()``, until ``seconds`` have elapsed.

    Whole passes keep the mix of item kinds, and so the percentiles,
    the same whatever the machine's speed.
    """
    outcome = Outcome()
    start = time.perf_counter()
    while True:
        run_items(next_block(), run, check, outcome, tracer, item_name, digest)
        outcome.wall = time.perf_counter() - start
        if outcome.wall >= seconds:
            return outcome


def timing_report(label: str, unit: str, values_ms: list[float]) -> tuple[dict, list[str]]:
    """Median, p90 and the highest percentile the sample supports."""
    n = len(values_ms)
    stats = {"n": n, "p50": statistics.median(values_ms), "p90": percentile(values_ms, 90.0)}
    tail = highest_supported_percentile(n)
    lines = [f"{label}.p50 = {stats['p50']:.3f} {unit} (n={n})",
             f"{label}.p90 = {stats['p90']:.3f} {unit} (n={n})"]
    if tail is None:
        lines.append(f"{label}: no percentile has {MIN_BEYOND} samples beyond it at n={n}")
    else:
        stats[f"p{tail:g}"] = percentile(values_ms, tail)
        lines.append(
            f"{label}.p{tail:g} = {stats[f'p{tail:g}']:.3f} {unit} "
            f"(highest supported, n={n})"
        )
    return stats, lines


def looped_phase(workload, seconds: float) -> tuple[Outcome, Outcome]:
    """Untimed warm-up items, then whole passes until ``seconds`` have elapsed."""
    warm = Outcome()
    start = time.perf_counter()
    run_items(workload.warmup_items(), workload.run, workload.check, warm,
              item_name=f"{workload.item_name}.warmup", digest=workload.digest)
    warm.wall = time.perf_counter() - start
    timed = run_for(seconds, workload.next_block, workload.run, workload.check,
                    item_name=workload.item_name, digest=workload.digest)
    return warm, timed
