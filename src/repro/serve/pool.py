"""A parallel optimizer pool with order-independent determinism.

Each job runs the full Fig. 1 pipeline (profile → model → GA search) in
a *fresh* :class:`~repro.core.optimizer.EnergyOptimizer`, seeded by a
value derived purely from ``(config.seed, request fingerprint)``.  The
derived seed makes the result a function of the request alone: which
worker picks the job up, how many workers exist, and where the job sits
in the batch cannot change a single byte of the strategy — a batch
optimized on 4 workers is byte-identical to the same batch run serially
(asserted in ``tests/test_serve.py``).

Jobs return the strategy as its serialized JSON so byte-identity is the
natural comparison and nothing model-sized crosses the process boundary.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

from repro.core.config import OptimizerConfig
from repro.core.optimizer import EnergyOptimizer
from repro.errors import ServeError
from repro.workloads.trace import Trace


def derive_job_seed(root_seed: int, fingerprint: str) -> int:
    """A 63-bit seed that is a pure function of ``(root_seed, fingerprint)``.

    Distinct workloads in a batch draw statistically independent
    measurement-noise and GA streams, while repeated requests for the
    same fingerprint replay identically — on any worker, in any order.
    """
    digest = hashlib.sha256(
        f"{root_seed}:{fingerprint}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def job_config(config: OptimizerConfig, fingerprint: str) -> OptimizerConfig:
    """The per-job configuration: the fingerprint-derived seed applied."""
    seed = derive_job_seed(config.seed, fingerprint)
    return replace(config, seed=seed, ga=replace(config.ga, seed=seed))


@dataclass(frozen=True)
class PoolResult:
    """Outcome of one optimizer job (crosses the process boundary)."""

    fingerprint: str
    #: The strategy, serialized with :meth:`DvfsStrategy.to_json` —
    #: byte-identical for identical requests.
    strategy_json: str
    aicore_power_reduction: float
    performance_loss: float
    ga_generations: int
    wall_seconds: float


def optimize_job(
    fingerprint: str, trace: Trace, config: OptimizerConfig
) -> PoolResult:
    """Run one full pipeline under the fingerprint-derived seed.

    Module-level (picklable) so :class:`ProcessPoolExecutor` workers can
    execute it; also the serial path, so both modes share one code path.
    """
    start = time.perf_counter()
    optimizer = EnergyOptimizer(job_config(config, fingerprint))
    report = optimizer.optimize(trace)
    return PoolResult(
        fingerprint=fingerprint,
        strategy_json=report.strategy.to_json(),
        aicore_power_reduction=report.aicore_power_reduction,
        performance_loss=report.performance_loss,
        ga_generations=report.search.generations,
        wall_seconds=time.perf_counter() - start,
    )


def _run_job(job: tuple[str, Trace, OptimizerConfig]) -> PoolResult:
    return optimize_job(*job)


class OptimizerPool:
    """Optimizes batches of distinct workloads, serially or in parallel.

    ``workers <= 1`` runs jobs inline (no subprocesses) — the reference
    behaviour every parallel configuration must reproduce byte-for-byte.
    The executor is created lazily and reused across batches; use the
    pool as a context manager (or call :meth:`close`) to release it.
    """

    def __init__(self, workers: int = 0) -> None:
        if workers < 0:
            raise ServeError(f"workers must be >= 0: {workers}")
        self._workers = workers
        self._executor: ProcessPoolExecutor | None = None

    @property
    def workers(self) -> int:
        """Configured worker processes (0/1 = inline serial execution)."""
        return self._workers

    def optimize_batch(
        self, jobs: Sequence[tuple[str, Trace]], config: OptimizerConfig
    ) -> dict[str, PoolResult]:
        """Optimize ``(fingerprint, trace)`` jobs; results keyed by fingerprint.

        Fingerprints must be distinct — the service deduplicates before
        submitting, and a duplicate here would waste a GA run.

        Raises:
            ServeError: on duplicate fingerprints in one batch.
        """
        fingerprints = [fingerprint for fingerprint, _ in jobs]
        if len(set(fingerprints)) != len(fingerprints):
            raise ServeError("batch contains duplicate fingerprints")
        payloads = [
            (fingerprint, trace, config) for fingerprint, trace in jobs
        ]
        if self._workers <= 1 or len(payloads) <= 1:
            results = [_run_job(payload) for payload in payloads]
        else:
            results = list(self._ensure_executor().map(_run_job, payloads))
        return {result.fingerprint: result for result in results}

    def map_jobs(self, fn, payloads: Sequence) -> list:
        """Run a pure, picklable job over payloads, preserving order.

        The generic sibling of :meth:`optimize_batch` for callers (the
        cluster DVFS table builder, for one) whose jobs are not full
        optimizer runs.  ``fn`` must be module-level (picklable) and a
        pure function of its payload; under that contract the serial and
        parallel paths return byte-identical results at any worker
        count.
        """
        payloads = list(payloads)
        if self._workers <= 1 or len(payloads) <= 1:
            return [fn(payload) for payload in payloads]
        return list(self._ensure_executor().map(fn, payloads))

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self._workers)
        return self._executor

    def close(self) -> None:
        """Shut the worker processes down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "OptimizerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
