"""Model-free strategy evaluation (the alternative of paper Sect. 8.1).

Instead of scoring GA individuals with fitted performance/power models, a
model-free search executes every candidate strategy on the real system and
scores the measured outcome.  The paper rejects this because each
evaluation costs a full training iteration (~11 s for GPT-3), so only ~30
strategies fit in the time the model-based scorer needs for 20,000.

This module implements that alternative faithfully so the trade-off can be
measured (see the ``sec81`` experiment): the same Eq. (17) score, computed
from device executions rather than model predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.dvfs.preprocessing import Stage
from repro.dvfs.strategy import strategy_from_genes
from repro.errors import StrategyError
from repro.npu.device import NpuDevice
from repro.npu.setfreq import FrequencyTimeline
from repro.workloads.trace import Trace


@dataclass
class ModelFreeScorer:
    """Eq. (17) scoring by actually executing each candidate strategy.

    Scores a population like :meth:`StrategyScorer.score` (with the same
    ``stage_count`` and ``frequency_count``), but every individual costs
    one device execution.  ``evaluations`` and ``simulated_seconds``
    track the price paid.

    Args:
        device: the system strategies are evaluated on.
        trace: the workload iteration.
        stages: preprocessing output (candidate points).
        freqs_mhz: the hardware frequency grid.
        performance_loss_target: Eq. (17)'s feasibility bound.
        objective: power rail the score minimises.
    """

    device: NpuDevice
    trace: Trace
    stages: Sequence[Stage]
    freqs_mhz: Sequence[float]
    performance_loss_target: float = 0.02
    objective: str = "aicore"
    evaluations: int = field(default=0, init=False)
    #: Accumulated simulated wall time spent executing candidates, seconds.
    simulated_seconds: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.objective not in ("aicore", "soc"):
            raise StrategyError(f"unknown objective {self.objective!r}")
        baseline = self.device.run_stable(
            self.trace,
            FrequencyTimeline.constant(self.device.npu.max_frequency_mhz),
        )
        self._baseline_time = baseline.duration_us
        self._baseline_power = (
            baseline.aicore_avg_watts
            if self.objective == "aicore"
            else baseline.soc_avg_watts
        )
        self._equilibrium_celsius = baseline.start_celsius
        self._cache: dict[tuple[int, ...], float] = {}

    @property
    def stage_count(self) -> int:
        """Number of genes per individual."""
        return len(self.stages)

    @property
    def frequency_count(self) -> int:
        """Number of grid frequencies a gene can take."""
        return len(self.freqs_mhz)

    @property
    def baseline_time_us(self) -> float:
        """Measured baseline iteration time."""
        return self._baseline_time

    def score(self, population: np.ndarray) -> np.ndarray:
        """Execute every individual and score the measured outcome."""
        genes = np.asarray(population)
        if genes.ndim != 2 or genes.shape[1] != self.stage_count:
            raise StrategyError(
                f"population must be (n, {self.stage_count}), got {genes.shape}"
            )
        return np.array([self._score_one(tuple(row)) for row in genes])

    def _score_one(self, genes: tuple[int, ...]) -> float:
        cached = self._cache.get(genes)
        if cached is not None:
            return cached
        from repro.dvfs.executor import DvfsExecutor

        strategy = strategy_from_genes(
            self.trace.name, self.stages, list(genes), self.freqs_mhz,
            self.performance_loss_target,
        )
        executor = DvfsExecutor(self.device)
        result = self.device.run(
            self.trace,
            executor.compile(strategy),
            initial_celsius=self._equilibrium_celsius,
        )
        self.evaluations += 1
        self.simulated_seconds += result.duration_us / 1e6
        power = (
            result.aicore_avg_watts
            if self.objective == "aicore"
            else result.soc_avg_watts
        )
        per_norm = self._baseline_time / result.duration_us
        power_norm = power / self._baseline_power
        base = per_norm * per_norm / power_norm
        meets = result.duration_us <= self._baseline_time * (
            1.0 + self.performance_loss_target
        )
        score = 2.0 * base if meets else base
        self._cache[genes] = score
        return score
