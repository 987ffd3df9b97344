"""Shared pieces of the repository benchmark: statistics, spans, results.

Everything here is benchmark-side.  Nothing inside ``src/`` is
instrumented: spans are recorded around the calls the benchmark itself
makes into each layer's public functions.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

#: Percentiles the tail rule picks from, highest last.
TAIL_LADDER: tuple[float, ...] = (50.0, 90.0, 99.0, 99.9, 99.99)
#: Samples a reported percentile must have beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(ordered[lo])
    weight = rank - lo
    return float(ordered[lo] * (1.0 - weight) + ordered[hi] * weight)


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with >= 10 samples beyond it.

    ``None`` when even the median has fewer than ten samples beyond it.
    """
    best = None
    for pct in TAIL_LADDER:
        # The epsilon absorbs 100 - 99.9 != 0.1 in binary floating point.
        if count * (100.0 - pct) / 100.0 + 1e-9 >= TAIL_MIN_BEYOND:
            best = pct
    return best


def summarize(values: Sequence[float]) -> dict:
    """Median, the tail percentile the sample supports, and the count."""
    n = len(values)
    out: dict = {"n": n}
    if n == 0:
        return out
    out["p50"] = percentile(values, 50.0)
    pct = tail_percentile(n)
    if pct is not None:
        out["tail_pct"] = pct
        out["tail"] = percentile(values, pct)
    return out


def median_setup(setup: Callable[[], object], repeats: int) -> tuple[float, list[float], object]:
    """Run ``setup`` ``repeats`` times; return (median s, all s, last result)."""
    times = []
    result = None
    for _ in range(repeats):
        # Drop the previous set-up first, so peak RSS holds one copy.
        result = None
        gc.collect()
        start = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - start)
    return statistics.median(times), times, result


def peak_rss_mb() -> float:
    """Peak resident set size in MiB of this process plus its largest
    joined child (Linux reports KiB).

    serve-mixed computes every miss in the gateway's worker processes,
    so memory the miss path adds shows only in the child term; the other
    workloads start no children, and the term is zero there.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


#: What the reference work takes on a quiet 2-vCPU host; host-normalised
#: timings read as if it had taken this long.
REFERENCE_NOMINAL_S = 0.015


def reference_work() -> float:
    """Seconds one fixed piece of single-threaded numpy work takes here.

    Shaped like a fleet step: per-level masks and gathers over 10,000
    devices, then an 8-substep exponential update.  Benchmark-own code,
    so no change to ``src/`` can make it faster or slower; on a shared
    host it slows down with the workloads when neighbours contend for
    the cores and caches.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(20250102)
    n = 10_000
    levels = rng.integers(0, 8, size=n)
    table = rng.random((8, n))
    state = rng.random(n)
    for _ in range(12):
        out = np.empty(n)
        for level in np.unique(levels):
            mask = levels == level
            out[mask] = table[level][mask]
        decay = np.exp(-out / 7.0)
        for _ in range(8):
            target = 0.5 + 0.1 * state
            state = target + (state - target) * decay
        levels = np.roll(levels, 1)
    return time.perf_counter() - start


class HostGauge:
    """Host speed, sampled by running ``reference_work`` between units of
    measured work (never during them).

    ``scale`` turns a host time measured here into a host-normalised
    one: the time it would have taken had the reference work run in
    ``REFERENCE_NOMINAL_S``.  Rates divide by it.
    """

    def __init__(self) -> None:
        # The first run pays numpy's first-use costs; it is not a sample.
        reference_work()
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(reference_work())

    def scale(self) -> float:
        """The run's scale, from the mean sample.

        The host flips between a fast and a slow state (about 1.4x apart)
        while a run goes on; the mean follows the share of time spent in
        each, where the median jumps to whichever state held the
        majority.
        """
        return REFERENCE_NOMINAL_S / statistics.mean(self.samples)


def meta() -> dict:
    """Host facts every result records (core count decides scaling claims)."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


@dataclass
class Span:
    """One timed call: ``parent`` is a span id, ``rid`` a request id."""

    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    rid: str | None


class Tracer:
    """In-memory span recorder around the benchmark's calls into layers.

    Spans are appended from any thread (``list.append`` is atomic), kept
    in memory and written out as JSON lines when the run ends.  A
    disabled tracer records nothing, so the untraced run pays only the
    ``enabled`` test.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._next = 0

    def new_id(self) -> int:
        self._next += 1
        return self._next

    @contextmanager
    def span(
        self, name: str, parent: int | None = None, rid: str | None = None
    ) -> Iterator[int | None]:
        """Time the enclosed block as one span; yields its id."""
        if not self.enabled:
            yield None
            return
        sid = self.new_id()
        start = time.perf_counter()
        try:
            yield sid
        finally:
            self.spans.append(
                Span(sid, name, start, time.perf_counter(), parent, rid)
            )

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        rid: str | None = None,
    ) -> int | None:
        """Add a span measured elsewhere (e.g. a queue wait)."""
        if not self.enabled:
            return None
        sid = self.new_id()
        self.spans.append(Span(sid, name, start, end, parent, rid))
        return sid

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for s in sorted(self.spans, key=lambda s: (s.start, s.sid)):
                handle.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "rid": s.rid,
                        }
                    )
                    + "\n"
                )


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Per-name self time: duration minus what child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    totals: dict[str, float] = {}
    for s in spans:
        own = (s.end - s.start) - _covered(
            children.get(s.sid, []), s.start, s.end
        )
        totals[s.name] = totals.get(s.name, 0.0) + own
    return totals


def durations(spans: Sequence[Span], name: str) -> list[float]:
    """Wall durations (s) of every span called ``name``."""
    return [s.end - s.start for s in spans if s.name == name]


@dataclass
class WorkloadResult:
    """What one workload process hands back to the runner."""

    attempted: int = 0
    failed: int = 0
    #: Failed output checks, one line each (empty when all passed).
    check_failures: list[str] = field(default_factory=list)
    #: The BENCHMARK.json end-to-end metrics (untraced run).
    end_to_end: dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics (traced run).
    per_layer: dict[str, float] = field(default_factory=dict)
    #: Workload-specific named figures for the printed report.
    detail: dict[str, float | int | str] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.check_failures.append(message)
        return ok

    def to_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "check_failures": list(self.check_failures),
            "end_to_end": dict(self.end_to_end),
            "per_layer": dict(self.per_layer),
            "detail": dict(self.detail),
            "meta": meta(),
        }


def log(message: str) -> None:
    """Progress line on stderr (stdout's last line is the result)."""
    print(message, file=sys.stderr, flush=True)
