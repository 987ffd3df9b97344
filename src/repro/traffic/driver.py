"""The open-loop traffic driver: schedule in, ``BENCH_serve.json`` out.

Replays a :class:`~repro.traffic.patterns.TrafficSchedule` against an
:class:`~repro.serve.gateway.AsyncGateway` in bounded concurrency
windows.  Admission uses the schedule's *virtual* arrival clock (so
token-bucket shed decisions replay deterministically for a seed), while
per-request latency is measured on the real wall clock — the quantity a
deployment would page on.

The driver's hot path leans on ``submit_nowait``: a store hit resolves
synchronously as a plain function call, so a million mostly-warm
requests never allocate a million asyncio tasks; only misses and
coalesced waiters become awaitables, gathered at each window boundary.

After the drive, :func:`verify_byte_identity` replays a sample of the
workload population through a *fresh, serial* ``StrategyService`` and
compares strategy JSON byte-for-byte with what the gateway's store
holds — the PR-level determinism bar.
"""

from __future__ import annotations

import asyncio
import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.config import OptimizerConfig
from repro.errors import Overloaded, WorkloadError
from repro.serve.gateway import AsyncGateway, GatewayConfig
from repro.serve.service import ServeResult, StrategyService
from repro.serve.shards import ShardedStrategyStore
from repro.serve.store import StrategyStore
from repro.traffic.patterns import TrafficSchedule, build_schedule
from repro.workloads import oplib
from repro.workloads.trace import Trace, TraceBuilder


@dataclass(frozen=True)
class TrafficConfig:
    """One synthetic traffic drive, end to end.

    All rates and times are in virtual seconds (see
    :mod:`repro.traffic.patterns`); ``window`` bounds the driver's
    in-flight concurrency per gather.
    """

    requests: int = 1_000_000
    workloads: int = 64
    zipf_s: float = 1.1
    sources: int = 8
    base_rate: float = 50_000.0
    #: ``None`` means horizon-scaled (see ``build_schedule``).
    diurnal_period_s: float | None = None
    diurnal_amplitude: float = 0.6
    burst_count: int = 12
    burst_magnitude: float = 4.0
    #: ``None`` means horizon-scaled (see ``build_schedule``).
    burst_duration_s: float | None = None
    seed: int = 0
    window: int = 4096
    #: Distinct workloads replayed serially for the byte-identity check.
    verify: int = 8
    #: Compute every workload's strategy once (as one batch on the
    #: service's optimizer pool, committed to the store) before the
    #: timed drive — measures steady-state serving with the cold-start
    #: transient excluded, the way the other perf harnesses treat warmup
    #: rounds.
    prewarm: bool = False
    #: Optimizer-pool worker processes behind the strategy service, which
    #: compute the prewarm batch (0/1 = in-process serial, the historical
    #: behavior).  Timed-drive misses run on the gateway's executor.
    workers: int = 0

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise WorkloadError(f"requests must be >= 1: {self.requests}")
        if self.workloads < 1:
            raise WorkloadError(f"workloads must be >= 1: {self.workloads}")
        if self.window < 1:
            raise WorkloadError(f"window must be >= 1: {self.window}")
        if self.verify < 0:
            raise WorkloadError(f"verify must be >= 0: {self.verify}")
        if self.workers < 0:
            raise WorkloadError(f"workers must be >= 0: {self.workers}")


def build_workload_population(
    count: int, seed: int = 0, scale: float = 1.0
) -> list[Trace]:
    """``count`` distinct, small, deterministic workload traces.

    Each trace is a short transformer-ish block (matmul + elementwise +
    softmax) whose shapes are drawn from a seeded generator, so the
    population is cheap to optimize cold yet yields ``count`` distinct
    fingerprints; the same ``(count, seed)`` always reproduces the same
    traces — and therefore the same fingerprints and strategies.
    """
    if count < 1:
        raise WorkloadError(f"population must have >= 1 workloads: {count}")
    rng = np.random.default_rng(seed)
    traces: list[Trace] = []
    for index in range(count):
        m = int(rng.integers(8, 48)) * 32
        k = int(rng.integers(8, 48)) * 32
        n = int(rng.integers(8, 48)) * 32
        elements = int(rng.integers(64, 512)) * 4096
        repeats = int(rng.integers(1, 4))
        builder = TraceBuilder(
            f"traffic_w{index:04d}",
            f"synthetic serving workload {index} (seed {seed})",
        )
        block = [
            oplib.matmul(f"w{index}_matmul", m, k, n),
            oplib.elementwise(
                f"w{index}_gelu", "Gelu", elements, inputs=1,
                flops_per_element=4.0,
            ),
            oplib.softmax(f"w{index}_softmax", max(elements // 4, 4096)),
        ]
        for _ in range(repeats):
            for spec in block:
                builder.add(spec, gap_before_us=float(rng.integers(0, 20)))
        traces.append(builder.build())
    del scale  # reserved: population shapes are already tiny
    return traces


@dataclass
class TrafficReport:
    """Everything ``BENCH_serve.json`` records about one drive."""

    offered: int
    admitted: int
    shed: int
    shed_by_reason: dict[str, int]
    failed: int
    source_counts: dict[str, int]
    hit_rate: float
    shed_rate: float
    latency_us: dict[str, float]
    hit_latency_us: dict[str, float]
    queue_depth_max: int
    queue_depth_mean: float
    ga_runs: int
    wall_seconds: float
    throughput_rps: float
    #: Latency distribution of requests that ran their own GA
    #: (``source == "computed"``) — the cold-miss cost the pipeline
    #: optimisations target, separated from the cache-hit distribution
    #: so one doesn't mask the other.
    miss_latency_us: dict[str, float] = field(default_factory=dict)
    store_counters: dict[str, int | str] = field(default_factory=dict)
    byte_identical: bool | None = None
    verified_workloads: int = 0

    def rows(self) -> list[dict[str, float | int | str]]:
        """Headline rows for :func:`repro.core.report.format_table`."""
        return [
            {"metric": "offered", "value": self.offered},
            {"metric": "admitted", "value": self.admitted},
            {"metric": "shed", "value": self.shed},
            {"metric": "failed", "value": self.failed},
            {"metric": "hit_rate", "value": f"{self.hit_rate:.4%}"},
            {"metric": "shed_rate", "value": f"{self.shed_rate:.4%}"},
            {"metric": "p50_us", "value": f"{self.latency_us['p50']:.1f}"},
            {"metric": "p99_us", "value": f"{self.latency_us['p99']:.1f}"},
            {"metric": "max_us", "value": f"{self.latency_us['max']:.1f}"},
            {
                "metric": "hit_p50_us",
                "value": f"{self.hit_latency_us['p50']:.1f}",
            },
            {
                "metric": "hit_p99_us",
                "value": f"{self.hit_latency_us['p99']:.1f}",
            },
            {
                "metric": "miss_p50_us",
                "value": f"{self.miss_latency_us.get('p50', 0.0):.1f}",
            },
            {
                "metric": "miss_p99_us",
                "value": f"{self.miss_latency_us.get('p99', 0.0):.1f}",
            },
            {"metric": "queue_depth_max", "value": self.queue_depth_max},
            {"metric": "ga_runs", "value": self.ga_runs},
            {"metric": "wall_seconds", "value": f"{self.wall_seconds:.2f}"},
            {
                "metric": "throughput_rps",
                "value": f"{self.throughput_rps:,.0f}",
            },
            {
                "metric": "byte_identical",
                "value": (
                    "unverified" if self.byte_identical is None
                    else str(self.byte_identical)
                ),
            },
        ]

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "shed": self.shed,
            "shed_by_reason": dict(self.shed_by_reason),
            "failed": self.failed,
            "source_counts": dict(self.source_counts),
            "hit_rate": self.hit_rate,
            "shed_rate": self.shed_rate,
            "latency_us": dict(self.latency_us),
            "hit_latency_us": dict(self.hit_latency_us),
            "miss_latency_us": dict(self.miss_latency_us),
            "queue_depth_max": self.queue_depth_max,
            "queue_depth_mean": self.queue_depth_mean,
            "ga_runs": self.ga_runs,
            "wall_seconds": self.wall_seconds,
            "throughput_rps": self.throughput_rps,
            "store_counters": dict(self.store_counters),
            "byte_identical": self.byte_identical,
            "verified_workloads": self.verified_workloads,
        }


def _percentiles(latencies_us: np.ndarray) -> dict[str, float]:
    """p50/p90/p99/p99.9/max in microseconds; all zeros when empty."""
    if latencies_us.size == 0:
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "p999": 0.0, "max": 0.0}
    p50, p90, p99, p999 = np.percentile(latencies_us, [50, 90, 99, 99.9])
    return {
        "p50": float(p50),
        "p90": float(p90),
        "p99": float(p99),
        "p999": float(p999),
        "max": float(latencies_us.max()),
    }


async def _drive(
    gateway: AsyncGateway,
    traces: Sequence[Trace],
    schedule: TrafficSchedule,
    window: int,
) -> dict:
    """Replay the schedule; returns raw per-request measurements."""
    total = len(schedule)
    latencies = np.zeros(total, dtype=np.float64)
    hit_mask = np.zeros(total, dtype=bool)
    computed_mask = np.zeros(total, dtype=bool)
    admitted_mask = np.zeros(total, dtype=bool)
    shed_by_reason: dict[str, int] = {}
    failed = 0
    depth_samples: list[int] = []
    # Plain-python views: indexing numpy scalars and formatting a source
    # label per request would dominate the hot loop at 1M requests.
    arrival = schedule.arrival_s.tolist()
    workload_idx = schedule.workload_idx.tolist()
    source_labels = [f"src-{s}" for s in range(int(schedule.source_idx.max()) + 1)]
    source_of = [source_labels[s] for s in schedule.source_idx.tolist()]
    submit = gateway.submit_nowait
    hit_tiers = ("memory", "hot", "disk")

    for window_start in range(0, total, window):
        window_stop = min(window_start + window, total)
        pending: list[tuple[int, object]] = []
        for i in range(window_start, window_stop):
            try:
                outcome = submit(
                    traces[workload_idx[i]],
                    source=source_of[i],
                    now=arrival[i],
                )
            except Overloaded as exc:
                shed_by_reason[exc.reason] = (
                    shed_by_reason.get(exc.reason, 0) + 1
                )
                continue
            if type(outcome) is ServeResult:
                latencies[i] = outcome.latency_seconds
                admitted_mask[i] = True
                hit_mask[i] = outcome.source in hit_tiers
                computed_mask[i] = outcome.source == "computed"
            else:
                pending.append((i, outcome))
        depth_samples.append(gateway.queue_depth)
        if pending:
            results = await asyncio.gather(
                *(awaitable for _, awaitable in pending),
                return_exceptions=True,
            )
            for (i, _), outcome in zip(pending, results):
                if isinstance(outcome, BaseException):
                    failed += 1
                    continue
                latencies[i] = outcome.latency_seconds
                admitted_mask[i] = True
                hit_mask[i] = outcome.source in hit_tiers
                computed_mask[i] = outcome.source == "computed"
    return {
        "latencies": latencies,
        "admitted_mask": admitted_mask,
        "hit_mask": hit_mask,
        "computed_mask": computed_mask,
        "shed_by_reason": shed_by_reason,
        "failed": failed,
        "depth_samples": depth_samples,
    }


def drive_traffic(
    config: TrafficConfig,
    optimizer_config: OptimizerConfig,
    gateway_config: GatewayConfig | None = None,
    store: ShardedStrategyStore | StrategyStore | None = None,
) -> TrafficReport:
    """Run one full synthetic drive and aggregate the report.

    ``store`` defaults to a fresh in-tree sharded store under
    ``.repro-traffic-store``; pass your own to reuse a warm store or to
    choose shard/hot-tier geometry.
    """
    if store is None:
        store = ShardedStrategyStore(Path(".repro-traffic-store"))
    gateway_config = gateway_config or GatewayConfig()
    traces = build_workload_population(config.workloads, seed=config.seed)
    rng = np.random.default_rng(config.seed)
    schedule = build_schedule(
        requests=config.requests,
        workloads=config.workloads,
        rng=rng,
        zipf_s=config.zipf_s,
        sources=config.sources,
        base_rate=config.base_rate,
        diurnal_period_s=config.diurnal_period_s,
        diurnal_amplitude=config.diurnal_amplitude,
        burst_count=config.burst_count,
        burst_magnitude=config.burst_magnitude,
        burst_duration_s=config.burst_duration_s,
    )

    async def _run() -> tuple[dict, AsyncGateway]:
        async with AsyncGateway(service, gateway_config) as gateway:
            raw = await _drive(gateway, traces, schedule, config.window)
            return raw, gateway

    with StrategyService(
        config=optimizer_config, store=store, workers=config.workers
    ) as service:
        # Pre-warm fingerprints so the first window is not a
        # canonicalization stampede (memoized on the trace objects).
        for trace in traces:
            service.fingerprint(trace)
        if config.prewarm:
            service.serve_batch(traces)
        wall_start = time.perf_counter()
        raw, gateway = asyncio.run(_run())
        wall_seconds = time.perf_counter() - wall_start

    admitted_mask = raw["admitted_mask"]
    latencies_us = raw["latencies"][admitted_mask] * 1e6
    hit_latencies_us = (
        raw["latencies"][admitted_mask & raw["hit_mask"]] * 1e6
    )
    miss_latencies_us = (
        raw["latencies"][admitted_mask & raw["computed_mask"]] * 1e6
    )
    admitted = int(admitted_mask.sum())
    shed = int(sum(raw["shed_by_reason"].values()))
    depth_samples = raw["depth_samples"]
    stats = gateway.stats
    counters = (
        {row["counter"]: row["count"] for row in store.counter_rows()}
        if isinstance(store, ShardedStrategyStore)
        else {row["counter"]: row["count"] for row in store.counters.rows()}
    )
    return TrafficReport(
        offered=config.requests,
        admitted=admitted,
        shed=shed,
        shed_by_reason=raw["shed_by_reason"],
        failed=int(raw["failed"]),
        source_counts=stats.source_counts(),
        hit_rate=stats.hit_rate,
        shed_rate=stats.shed_rate,
        latency_us=_percentiles(latencies_us),
        hit_latency_us=_percentiles(hit_latencies_us),
        miss_latency_us=_percentiles(miss_latencies_us),
        queue_depth_max=gateway.max_queue_depth_seen,
        queue_depth_mean=(
            float(np.mean(depth_samples)) if depth_samples else 0.0
        ),
        ga_runs=stats.ga_runs,
        wall_seconds=wall_seconds,
        throughput_rps=admitted / wall_seconds if wall_seconds > 0 else 0.0,
        store_counters=counters,
    )


def verify_byte_identity(
    config: TrafficConfig,
    optimizer_config: OptimizerConfig,
    store: ShardedStrategyStore | StrategyStore,
    tmp_root: Path,
) -> tuple[bool, int]:
    """Serially recompute a sample of the population and compare bytes.

    For each sampled workload, a fresh serial :class:`StrategyService`
    (its own store, no pool, no gateway) recomputes the strategy; the
    result must match the gateway-committed record byte for byte.
    """
    count = min(config.verify, config.workloads)
    if count == 0:
        return True, 0
    traces = build_workload_population(config.workloads, seed=config.seed)
    with StrategyService(
        config=optimizer_config,
        store=StrategyStore(Path(tmp_root) / "serial-reference"),
    ) as serial:
        for trace in traces[:count]:
            reference = serial.request(trace)
            fingerprint = serial.fingerprint(trace)
            served = store.get(
                fingerprint, serial.config_hash, serial.spec_hash
            )
            if served is None:
                return False, count
            if served.to_json() != reference.strategy.to_json():
                return False, count
    return True, count


def run_bench(
    config: TrafficConfig,
    optimizer_config: OptimizerConfig,
    gateway_config: GatewayConfig | None = None,
    store_root: Path | None = None,
    shards: int = 8,
    hot_slots: int = 512,
    output: Path | None = None,
) -> TrafficReport:
    """Drive, verify, and (optionally) write ``BENCH_serve.json``."""
    import tempfile

    own_root = store_root is None
    root = Path(tempfile.mkdtemp(prefix="repro-traffic-")) if own_root else (
        Path(store_root)
    )
    store = ShardedStrategyStore(
        root / "store", shards=shards, hot_slots=hot_slots
    )
    try:
        report = drive_traffic(
            config, optimizer_config, gateway_config, store=store
        )
        identical, verified = verify_byte_identity(
            config, optimizer_config, store, root
        )
        report.byte_identical = identical
        report.verified_workloads = verified
        if output is not None:
            document = {
                "meta": {
                    "requests": config.requests,
                    "workloads": config.workloads,
                    "zipf_s": config.zipf_s,
                    "sources": config.sources,
                    "base_rate": config.base_rate,
                    "diurnal_period_s": config.diurnal_period_s,
                    "diurnal_amplitude": config.diurnal_amplitude,
                    "burst_count": config.burst_count,
                    "burst_magnitude": config.burst_magnitude,
                    "seed": config.seed,
                    "window": config.window,
                    "prewarm": config.prewarm,
                    "shards": shards,
                    "hot_slots": hot_slots,
                    "gateway": {
                        "max_queue_depth": (
                            gateway_config or GatewayConfig()
                        ).max_queue_depth,
                        "dispatchers": (
                            gateway_config or GatewayConfig()
                        ).dispatchers,
                        "rate_per_source": (
                            gateway_config or GatewayConfig()
                        ).rate_per_source,
                    },
                    "ga_population": optimizer_config.ga.population_size,
                    "ga_iterations": optimizer_config.ga.iterations,
                    "python": platform.python_version(),
                    "machine": platform.machine(),
                },
                "traffic": report.to_dict(),
            }
            Path(output).write_text(
                json.dumps(document, indent=1) + "\n", encoding="utf-8"
            )
        return report
    finally:
        store.close()
        if own_root:
            import shutil

            shutil.rmtree(root, ignore_errors=True)
