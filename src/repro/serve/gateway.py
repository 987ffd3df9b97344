"""Async serving gateway: admission control, coalescing, backpressure.

:class:`~repro.serve.service.StrategyService` is a synchronous front
door: a cold miss blocks the caller for a full GA run, and nothing stops
a fleet from piling up unbounded concurrent work.  The gateway is the
asyncio layer that makes the service survivable under fleet traffic:

* **Admission control.**  Every submission passes a per-source token
  bucket (sustained rate + burst) and, on a miss, a *bounded* dispatch
  queue.  A request the gateway cannot afford is refused *immediately*
  with a typed :class:`~repro.errors.Overloaded` (reason
  ``"rate_limited"`` / ``"queue_full"`` / ``"draining"``) — clients see
  backpressure, never an unbounded queue.
* **Coalescing across awaiters.**  Concurrent submissions of one
  fingerprint share a single GA run: the first becomes the owner and
  enqueues one job; the rest await the same future and report
  ``source="coalesced"`` — exactly the synchronous service's semantics,
  lifted to the event loop.
* **Non-blocking dispatch.**  Misses run on an executor (threads by
  default, the optimizer process pool optionally) via
  ``loop.run_in_executor``; the event loop keeps admitting and serving
  store hits while GA runs are in flight.
* **Graceful drain.**  :meth:`AsyncGateway.drain` stops admitting
  (``Overloaded("draining")``), lets every queued and in-flight job
  finish, resolves all waiters, then stops the dispatchers — no request
  that was admitted is ever dropped.

Determinism bar (asserted in ``tests/test_gateway.py``): for any
*admitted* request the returned strategy JSON is byte-identical to a
serial ``StrategyService`` run, because the gateway routes misses
through the same fingerprint-derived-seed ``optimize_job`` and commits
through ``StrategyService.commit``.

The admission decision itself is synchronous (no ``await`` before the
verdict) and takes an optional explicit ``now``, so a seeded traffic
driver replaying a virtual-time schedule sheds deterministically.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Awaitable, Callable, Union

from repro.errors import Overloaded, ServeError
from repro.serve.pool import optimize_job
from repro.serve.service import ServeResult, ServiceStats, StrategyService
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class GatewayConfig:
    """Admission and dispatch knobs for one :class:`AsyncGateway`.

    Attributes:
        max_queue_depth: bound on queued (not yet dispatched) GA jobs;
            an owner submission arriving at a full queue is shed.
        dispatchers: concurrent dispatcher tasks (and thread-executor
            workers) pulling jobs off the queue.
        rate_per_source: sustained admitted requests/second per source;
            0 disables rate limiting.
        burst_per_source: token-bucket capacity per source; defaults to
            one second's worth of tokens (``rate_per_source``) when 0.
        use_processes: run GA misses on a process pool instead of
            threads (worth it when misses dominate; threads suffice when
            the store absorbs the fleet).
    """

    max_queue_depth: int = 256
    dispatchers: int = 4
    rate_per_source: float = 0.0
    burst_per_source: float = 0.0
    use_processes: bool = False

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ServeError(
                f"max_queue_depth must be >= 1: {self.max_queue_depth}"
            )
        if self.dispatchers < 1:
            raise ServeError(f"dispatchers must be >= 1: {self.dispatchers}")
        if self.rate_per_source < 0 or self.burst_per_source < 0:
            raise ServeError("rate/burst must be >= 0")

    @property
    def effective_burst(self) -> float:
        """The bucket capacity actually applied per source."""
        if self.burst_per_source > 0:
            return self.burst_per_source
        return max(self.rate_per_source, 1.0)


class TokenBucket:
    """Classic token bucket, driven by an explicit clock value.

    Deterministic given a deterministic sequence of ``now`` values —
    the property the seeded traffic driver relies on to make its shed
    decisions replayable.
    """

    __slots__ = ("rate", "burst", "tokens", "updated_at")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.updated_at: float | None = None

    def try_take(self, now: float) -> bool:
        """Refill to ``now`` and consume one token if available."""
        if self.updated_at is not None and now > self.updated_at:
            self.tokens = min(
                self.burst, self.tokens + (now - self.updated_at) * self.rate
            )
        self.updated_at = now if self.updated_at is None else max(
            self.updated_at, now
        )
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


#: What :meth:`AsyncGateway.submit_nowait` hands back: a finished result
#: for store hits, an awaitable for misses and coalesced waiters.
SubmitOutcome = Union[ServeResult, Awaitable[ServeResult]]


class AsyncGateway:
    """The asyncio front door over a :class:`StrategyService`.

    Use as an async context manager::

        async with AsyncGateway(service) as gateway:
            result = await gateway.submit(trace, source="rack-03")

    ``submit_nowait`` is the hot-path variant: store hits return a
    finished :class:`ServeResult` synchronously (no task, no event-loop
    round trip), misses return an awaitable — the shape that lets a
    traffic driver push a million requests without creating a million
    tasks.
    """

    def __init__(
        self,
        service: StrategyService,
        config: GatewayConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.service = service
        self.config = config or GatewayConfig()
        self.stats = ServiceStats()
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}
        self._inflight: dict[str, asyncio.Future] = {}
        self._queue: asyncio.Queue | None = None
        self._dispatchers: list[asyncio.Task] = []
        self._executor: Executor | None = None
        self._draining = False
        self._started = False
        #: High-water mark of the dispatch queue (for the bench report).
        self.max_queue_depth_seen = 0

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> "AsyncGateway":
        """Create the queue, executor and dispatcher tasks (idempotent)."""
        if self._started:
            return self
        self._queue = asyncio.Queue(maxsize=self.config.max_queue_depth)
        if self.config.use_processes:
            self._executor = ProcessPoolExecutor(
                max_workers=self.config.dispatchers
            )
        else:
            self._executor = ThreadPoolExecutor(
                max_workers=self.config.dispatchers,
                thread_name_prefix="gateway-dispatch",
            )
        self._dispatchers = [
            asyncio.create_task(self._dispatch_loop(), name=f"dispatch-{i}")
            for i in range(self.config.dispatchers)
        ]
        self._draining = False
        self._started = True
        return self

    async def drain(self) -> None:
        """Stop admitting, finish all in-flight work, stop dispatchers."""
        if not self._started:
            return
        self._draining = True
        await self._queue.join()
        for task in self._dispatchers:
            task.cancel()
        await asyncio.gather(*self._dispatchers, return_exceptions=True)
        self._dispatchers = []
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._started = False

    async def __aenter__(self) -> "AsyncGateway":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.drain()

    @property
    def draining(self) -> bool:
        """Whether the gateway is refusing new submissions."""
        return self._draining

    @property
    def queue_depth(self) -> int:
        """Jobs currently queued for dispatch."""
        return self._queue.qsize() if self._queue is not None else 0

    @property
    def inflight(self) -> int:
        """Distinct fingerprints with an unresolved GA run."""
        return len(self._inflight)

    # -- admission + serving ------------------------------------------------

    def submit_nowait(
        self,
        trace: Trace,
        source: str = "default",
        now: float | None = None,
    ) -> SubmitOutcome:
        """Admit one request; hits resolve synchronously.

        The entire admission verdict — drain check, token bucket, store
        lookup, coalesce-or-enqueue — happens before returning, with no
        suspension point, so submission order fully determines shed
        decisions under a virtual clock.

        Raises:
            Overloaded: the request was refused (``.reason`` says why);
                counted in ``stats.shed``, never queued.
        """
        if not self._started:
            raise ServeError("gateway is not started (use 'async with')")
        if self._draining:
            self.stats.record_shed()
            raise Overloaded("draining", "gateway is shutting down")
        if self.config.rate_per_source > 0:
            bucket = self._buckets.get(source)
            if bucket is None:
                bucket = self._buckets[source] = TokenBucket(
                    self.config.rate_per_source, self.config.effective_burst
                )
            if not bucket.try_take(self._clock() if now is None else now):
                self.stats.record_shed()
                raise Overloaded("rate_limited", f"source {source!r}")
        start = time.perf_counter()
        fingerprint = self.service.fingerprint(trace)
        hit = self.service.lookup(fingerprint)
        if hit is not None:
            result = ServeResult(
                fingerprint=fingerprint,
                strategy=hit.strategy,
                source=hit.tier,
                latency_seconds=time.perf_counter() - start,
            )
            self.stats.record(result)
            return result
        future = self._inflight.get(fingerprint)
        if future is not None:
            return self._await_result(future, fingerprint, "coalesced", start)
        try:
            future = asyncio.get_running_loop().create_future()
            self._queue.put_nowait((fingerprint, trace, future))
        except asyncio.QueueFull:
            self.stats.record_shed()
            raise Overloaded(
                "queue_full",
                f"admission queue at depth {self.config.max_queue_depth}",
            ) from None
        self._inflight[fingerprint] = future
        depth = self._queue.qsize()
        if depth > self.max_queue_depth_seen:
            self.max_queue_depth_seen = depth
        return self._await_result(future, fingerprint, "computed", start)

    async def submit(
        self,
        trace: Trace,
        source: str = "default",
        now: float | None = None,
    ) -> ServeResult:
        """Admit one request and await its strategy (canonical form)."""
        outcome = self.submit_nowait(trace, source, now)
        if isinstance(outcome, ServeResult):
            return outcome
        return await outcome

    async def _await_result(
        self,
        future: asyncio.Future,
        fingerprint: str,
        label: str,
        start: float,
    ) -> ServeResult:
        strategy = await future
        result = ServeResult(
            fingerprint=fingerprint,
            strategy=strategy,
            source=label,
            latency_seconds=time.perf_counter() - start,
        )
        self.stats.record(result)
        return result

    # -- dispatch -----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            fingerprint, trace, future = await self._queue.get()
            try:
                pool_result = await loop.run_in_executor(
                    self._executor,
                    optimize_job,
                    fingerprint,
                    trace,
                    self.service.config,
                )
                strategy = self.service.commit(pool_result)
                self.stats.ga_runs += 1
                self.stats.ga_seconds += pool_result.wall_seconds
                self.stats.ga_generations += pool_result.ga_generations
                if not future.done():
                    future.set_result(strategy)
            except asyncio.CancelledError:
                if not future.done():
                    future.set_exception(
                        ServeError("gateway dispatcher cancelled")
                    )
                raise
            except BaseException as exc:
                if not future.done():
                    future.set_exception(exc)
            finally:
                self._inflight.pop(fingerprint, None)
                self._queue.task_done()
