"""The strategy service: cache, coalesce, or compute.

:class:`StrategyService` is the front door a fleet talks to.  Each
request carries a workload trace; the service fingerprints it together
with the optimizer configuration and then takes the cheapest path that
yields the exact strategy a dedicated GA run would produce:

1. **memory** — the store's LRU layer (microseconds);
2. **disk** — a persisted record from an earlier process (sub-ms);
3. **coalesced** — another request for the same fingerprint is already
   optimizing; wait for its result instead of duplicating the GA run;
4. **computed** — run the pipeline (through the optimizer pool for
   batches), then persist the result for every future requester.

Every path is deterministic: strategies are produced under
fingerprint-derived seeds (:mod:`repro.serve.pool`), so cache hits,
coalesced waits, pooled and serial computations all return byte-identical
strategy JSON for a given request.

Counters are exposed as rows for :func:`repro.core.report.format_table`
via :meth:`StrategyService.stats_rows` /
:func:`repro.core.report.render_service_stats`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.config import OptimizerConfig
from repro.dvfs.strategy import DvfsStrategy
from repro.serve.fingerprint import (
    combine_fingerprints,
    config_fingerprint,
    spec_fingerprint,
    trace_fingerprint,
)
from repro.serve.pool import OptimizerPool, PoolResult, optimize_job
from repro.serve.store import StrategyStore
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class ServeResult:
    """One served request."""

    fingerprint: str
    strategy: DvfsStrategy
    #: ``"memory"`` / ``"hot"`` / ``"disk"`` / ``"coalesced"`` /
    #: ``"computed"``.
    source: str
    latency_seconds: float


@dataclass
class ServiceStats:
    """Request counters for one service or gateway instance.

    Every aggregate (``hit_rate``, ``mean_latency_seconds``, ``rows``,
    ``shed_rate``) is defined at zero requests — a traffic report over
    an idle or fully-shed service renders without dividing by zero.
    """

    requests: int = 0
    memory_hits: int = 0
    #: Shared-memory hot-tier hits (sharded stores only).
    hot_hits: int = 0
    disk_hits: int = 0
    coalesced: int = 0
    #: Requests that ran their own GA (source ``"computed"``).
    computed: int = 0
    #: Requests refused by admission control (typed ``Overloaded``).
    shed: int = 0
    ga_runs: int = 0
    total_latency_seconds: float = 0.0
    max_latency_seconds: float = 0.0
    ga_seconds: float = 0.0
    #: Generations actually run across all GA misses.
    ga_generations: int = 0
    #: Generations saved by ``GaConfig.patience`` early stopping (the
    #: configured iteration budget minus the generations actually run).
    ga_generations_trimmed: int = 0

    @property
    def hits(self) -> int:
        """Requests served without any work (memory + hot + disk)."""
        return self.memory_hits + self.hot_hits + self.disk_hits

    @property
    def admitted(self) -> int:
        """Requests that were actually served (everything but shed)."""
        return self.requests

    @property
    def offered(self) -> int:
        """Requests presented to the front door (served + shed)."""
        return self.requests + self.shed

    @property
    def hit_rate(self) -> float:
        """Fraction of served requests answered from the store (0.0 idle)."""
        if self.requests == 0:
            return 0.0
        return self.hits / self.requests

    @property
    def shed_rate(self) -> float:
        """Fraction of offered requests refused by admission (0.0 idle)."""
        offered = self.offered
        if offered == 0:
            return 0.0
        return self.shed / offered

    @property
    def mean_latency_seconds(self) -> float:
        """Mean served-request latency (0.0 at zero requests)."""
        if self.requests == 0:
            return 0.0
        return self.total_latency_seconds / self.requests

    @property
    def deduplicated(self) -> int:
        """Requests that did not trigger their own GA run."""
        return self.hits + self.coalesced

    def source_counts(self) -> dict[str, int]:
        """Per-source breakdown, shed included — always every key."""
        return {
            "memory": self.memory_hits,
            "hot": self.hot_hits,
            "disk": self.disk_hits,
            "coalesced": self.coalesced,
            "computed": self.computed,
            "shed": self.shed,
        }

    def record(self, result: ServeResult) -> None:
        """Fold one served request into the counters."""
        self.requests += 1
        self.total_latency_seconds += result.latency_seconds
        if result.latency_seconds > self.max_latency_seconds:
            self.max_latency_seconds = result.latency_seconds
        if result.source == "memory":
            self.memory_hits += 1
        elif result.source == "hot":
            self.hot_hits += 1
        elif result.source == "disk":
            self.disk_hits += 1
        elif result.source == "coalesced":
            self.coalesced += 1
        elif result.source == "computed":
            self.computed += 1

    def record_shed(self) -> None:
        """Count one request refused by admission control."""
        self.shed += 1

    def rows(self) -> list[dict[str, float | int | str]]:
        """Counter rows for :func:`repro.core.report.format_table`."""
        return [
            {"counter": "requests", "value": self.requests},
            {"counter": "memory_hits", "value": self.memory_hits},
            {"counter": "hot_hits", "value": self.hot_hits},
            {"counter": "disk_hits", "value": self.disk_hits},
            {"counter": "coalesced", "value": self.coalesced},
            {"counter": "computed", "value": self.computed},
            {"counter": "shed", "value": self.shed},
            {"counter": "ga_runs", "value": self.ga_runs},
            {"counter": "ga_generations", "value": self.ga_generations},
            {
                "counter": "ga_generations_trimmed",
                "value": self.ga_generations_trimmed,
            },
            {"counter": "hit_rate", "value": f"{self.hit_rate:.2%}"},
            {"counter": "shed_rate", "value": f"{self.shed_rate:.2%}"},
            {
                "counter": "mean_latency_s",
                "value": f"{self.mean_latency_seconds:.6f}",
            },
            {
                "counter": "max_latency_s",
                "value": f"{self.max_latency_seconds:.6f}",
            },
            {"counter": "ga_seconds", "value": f"{self.ga_seconds:.3f}"},
        ]


@dataclass
class StrategyService:
    """Deduplicating, store-backed, pool-accelerated strategy serving.

    Attributes:
        config: the optimizer configuration every request is served
            under (part of the fingerprint).
        store: the persistent strategy store; defaults to
            ``.repro-strategy-store`` under the working directory.
        workers: optimizer-pool processes for batch requests (0/1 =
            serial inline execution, the reference behaviour).
    """

    config: OptimizerConfig = field(default_factory=OptimizerConfig)
    store: StrategyStore | None = None
    workers: int = 0

    def __post_init__(self) -> None:
        if self.store is None:
            self.store = StrategyStore(Path(".repro-strategy-store"))
        self.stats = ServiceStats()
        self._pool = OptimizerPool(self.workers)
        self._config_hash = config_fingerprint(self.config)
        self._spec_hash = spec_fingerprint(self.config.npu)
        self._lock = threading.Lock()
        self._inflight: dict[str, Future[PoolResult]] = {}

    @property
    def config_hash(self) -> str:
        """Hash of the strategy-relevant configuration (store metadata)."""
        return self._config_hash

    @property
    def spec_hash(self) -> str:
        """Hash of the hardware description (store metadata)."""
        return self._spec_hash

    def fingerprint(self, trace: Trace) -> str:
        """The cache key this service uses for ``trace``.

        Equal to :func:`repro.serve.fingerprint.request_fingerprint` of
        ``(trace, self.config)``, with the config/spec components
        precomputed at service construction.
        """
        return combine_fingerprints(
            trace_fingerprint(trace), self._config_hash, self._spec_hash
        )

    def lookup(self, fingerprint: str):
        """Store lookup under this service's config/spec hashes.

        The hook the async gateway builds on: one place owns the hash
        pair, so every front end validates records identically.
        """
        return self.store.lookup(
            fingerprint, self._config_hash, self._spec_hash
        )

    def commit(self, result: PoolResult) -> DvfsStrategy:
        """Persist one computed result and fold it into the GA counters.

        Shared by the synchronous paths and the async gateway so a
        strategy committed through either front end produces the exact
        same store record and statistics.
        """
        strategy = DvfsStrategy.from_json(result.strategy_json)
        self._commit(result, strategy)
        return strategy

    def request(self, trace: Trace) -> ServeResult:
        """Serve one request; thread-safe, with in-flight coalescing.

        Concurrent callers requesting the same fingerprint share a
        single GA run: the first becomes the owner and computes, the
        rest block on its future and report ``source="coalesced"``.
        """
        start = time.perf_counter()
        fingerprint = self.fingerprint(trace)
        hit = self.store.lookup(
            fingerprint, self._config_hash, self._spec_hash
        )
        if hit is not None:
            return self._finish(fingerprint, hit.strategy, hit.tier, start)
        with self._lock:
            future = self._inflight.get(fingerprint)
            owner = future is None
            if owner:
                future = Future()
                self._inflight[fingerprint] = future
        if not owner:
            result = future.result()
            return self._finish(
                fingerprint,
                DvfsStrategy.from_json(result.strategy_json),
                "coalesced",
                start,
            )
        try:
            result = optimize_job(fingerprint, trace, self.config)
            future.set_result(result)
        except BaseException as exc:
            future.set_exception(exc)
            raise
        finally:
            with self._lock:
                self._inflight.pop(fingerprint, None)
        strategy = DvfsStrategy.from_json(result.strategy_json)
        self._commit(result, strategy)
        return self._finish(fingerprint, strategy, "computed", start)

    def serve_batch(self, traces: list[Trace]) -> list[ServeResult]:
        """Serve many requests at once, pooling the distinct misses.

        Duplicate fingerprints within the batch coalesce onto one GA
        job; distinct misses run concurrently on the optimizer pool.
        Results come back in request order.
        """
        start = time.perf_counter()
        fingerprints = [self.fingerprint(trace) for trace in traces]
        hits: dict[str, tuple[DvfsStrategy, str]] = {}
        jobs: list[tuple[str, Trace]] = []
        queued: set[str] = set()
        for fingerprint, trace in zip(fingerprints, traces):
            if fingerprint in hits or fingerprint in queued:
                continue
            hit = self.store.lookup(
                fingerprint, self._config_hash, self._spec_hash
            )
            if hit is not None:
                hits[fingerprint] = (hit.strategy, hit.tier)
            else:
                jobs.append((fingerprint, trace))
                queued.add(fingerprint)
        computed = (
            self._pool.optimize_batch(jobs, self.config) if jobs else {}
        )
        for result in computed.values():
            self._commit(result, DvfsStrategy.from_json(result.strategy_json))
        batch_latency = time.perf_counter() - start

        results: list[ServeResult] = []
        first_serve: set[str] = set()
        for fingerprint in fingerprints:
            if fingerprint in hits:
                strategy, tier = hits[fingerprint]
                source = tier if fingerprint not in first_serve else "memory"
            else:
                strategy = DvfsStrategy.from_json(
                    computed[fingerprint].strategy_json
                )
                source = (
                    "computed" if fingerprint not in first_serve
                    else "coalesced"
                )
            first_serve.add(fingerprint)
            result = ServeResult(
                fingerprint=fingerprint,
                strategy=strategy,
                source=source,
                latency_seconds=batch_latency / len(traces),
            )
            self.stats.record(result)
            results.append(result)
        return results

    def _commit(self, result: PoolResult, strategy: DvfsStrategy) -> None:
        self.store.put(
            result.fingerprint, strategy, self._config_hash, self._spec_hash
        )
        self.stats.ga_runs += 1
        self.stats.ga_seconds += result.wall_seconds
        self.stats.ga_generations += result.ga_generations
        self.stats.ga_generations_trimmed += max(
            0, self.config.ga.iterations - result.ga_generations
        )

    def _finish(
        self,
        fingerprint: str,
        strategy: DvfsStrategy,
        source: str,
        start: float,
    ) -> ServeResult:
        result = ServeResult(
            fingerprint=fingerprint,
            strategy=strategy,
            source=source,
            latency_seconds=time.perf_counter() - start,
        )
        self.stats.record(result)
        return result

    def stats_rows(self) -> list[dict[str, float | int | str]]:
        """Service counters as table rows (see :mod:`repro.core.report`)."""
        return self.stats.rows()

    def close(self) -> None:
        """Release the optimizer pool (idempotent)."""
        self._pool.close()

    def __enter__(self) -> "StrategyService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
