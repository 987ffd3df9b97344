"""Ground-truth evaluation of operators on the simulated NPU.

The :class:`GroundTruthEvaluator` computes, for an operator spec at a core
frequency, the exact duration, cycle count, pipe utilisation, and bandwidth
utilisation implied by the timeline model of Sect. 4.2 — the quantities a
real chip would physically exhibit.  Everything downstream (profiler,
telemetry, device energy integration) observes these values, possibly with
measurement noise.

Evaluations are memoised per ``(operator spec, frequency)`` because traces
dispatch the same spec many times.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from repro.errors import ConfigurationError
from repro.npu.pipelines import Pipe
from repro.npu.power import PowerSpec
from repro.npu.spec import NpuSpec
from repro.npu.timeline import (
    BlockCosts,
    Timeline,
    analytical_busy_stall,
    build_timeline,
    closed_form_cycles,
)
from repro.npu.operators import OperatorKind, OperatorSpec
from repro.npu.vectoreval import UniqueSpecGrid, evaluate_unique_grid

#: Uncore bandwidth utilisation attributed to non-compute operators:
#: communication moves tensors through HBM/links, AICPU barely touches it.
_NONCOMPUTE_BANDWIDTH_UTILISATION: dict[OperatorKind, float] = {
    OperatorKind.AICPU: 0.05,
    OperatorKind.COMMUNICATION: 0.25,
    OperatorKind.IDLE: 0.0,
}


@dataclass(frozen=True)
class OperatorEvaluation:
    """Exact execution characteristics of one operator at one frequency.

    Attributes:
        spec: the evaluated operator.
        freq_mhz: the core frequency of the evaluation.
        duration_us: total wall time including fixed overhead.
        pipeline_cycles: cycles spent in the Sect. 4.2 timeline.
        overhead_cycles: fixed pre/post-processing expressed in cycles.
        stall_cycles: cycles with no core pipe computing.
        utilisation: per-pipe busy fraction of the full duration.
        bandwidth_utilisation: achieved fraction of peak uncore bandwidth.
        alpha_effective: the operator's ground-truth load-power coefficient
            (utilisation-weighted pipe activity) at this frequency.
    """

    spec: OperatorSpec
    freq_mhz: float
    duration_us: float
    pipeline_cycles: float
    overhead_cycles: float
    stall_cycles: float
    utilisation: Mapping[Pipe, float]
    bandwidth_utilisation: float
    alpha_effective: float

    @property
    def total_cycles(self) -> float:
        """All core-domain cycles elapsed during the operator."""
        return self.pipeline_cycles + self.overhead_cycles

    def max_utilisation(self) -> tuple[Pipe | None, float]:
        """The busiest pipe and its ratio (``(None, 0.0)`` if none busy)."""
        if not self.utilisation:
            return None, 0.0
        pipe = max(self.utilisation, key=lambda p: self.utilisation[p])
        return pipe, self.utilisation[pipe]

    def utilisation_sum(self) -> float:
        """Sum of all pipe ratios (Sect. 6.1's no-pipeline-bound signal)."""
        return float(sum(self.utilisation.values()))


class IdlePoint(NamedTuple):
    """The temperature-independent idle-power terms at one frequency.

    :meth:`powers` is the one form of the idle-power formulas, so a caller
    that idles at a fixed frequency (``NpuDevice.run_idle``) can hoist
    these terms out of its step loop and stay bit-identical to
    :meth:`GroundTruthEvaluator.idle_aicore_power`/``idle_soc_power``.
    """

    power: PowerSpec
    volts: float
    #: Load-independent AICore power ``beta*f*V^2 + theta*V``.
    aicore_watts: float
    #: Core-domain-but-not-AICore power at this operating point.
    coupled_watts: float

    def powers(self, delta_celsius: float) -> tuple[float, float]:
        """``(aicore, soc)`` idle power at a temperature rise.

        The SoC figure reuses the AICore term (with its leakage) and adds
        the coupled core logic and the uncore floor.
        """
        aicore = self.aicore_watts + self.power.aicore_thermal_power(
            delta_celsius, self.volts
        )
        return aicore, (
            aicore
            + self.coupled_watts
            + self.power.uncore_power(0.0, delta_celsius)
        )


#: Default bound on the evaluator memo.  A full profiler sweep over the
#: stock grid touches a few thousand distinct (character, frequency) pairs,
#: so this keeps every realistic workload fully resident while capping
#: memory for long-lived fleet services evaluating many unrelated traces.
DEFAULT_EVALUATOR_CACHE_SIZE = 65536


class GroundTruthEvaluator:
    """Memoised exact operator evaluation against one NPU spec.

    The memo is a size-capped LRU: when full, the least recently used
    ``(character, frequency)`` entry is evicted.  Hit/miss counters are
    exposed via :meth:`cache_info`.
    """

    def __init__(
        self,
        npu: NpuSpec,
        cache_size: int = DEFAULT_EVALUATOR_CACHE_SIZE,
    ) -> None:
        if cache_size <= 0:
            raise ConfigurationError(
                f"evaluator cache size must be positive: {cache_size}"
            )
        self._npu = npu
        # Keyed by the operator's ComputeCharacter (not its spec): traces
        # contain thousands of uniquely named operators that share identical
        # characters across layers, and everything here depends only on the
        # character.
        self._cache: OrderedDict[tuple[object, float], OperatorEvaluation] = (
            OrderedDict()
        )
        self._cache_size = cache_size
        self._hits = 0
        self._misses = 0

    @property
    def npu(self) -> NpuSpec:
        """The hardware description evaluations are computed against."""
        return self._npu

    @property
    def cache_hits(self) -> int:
        """Number of :meth:`evaluate` calls served from the memo."""
        return self._hits

    @property
    def cache_misses(self) -> int:
        """Number of :meth:`evaluate` calls that computed fresh."""
        return self._misses

    def cache_info(self) -> dict[str, int]:
        """Hit/miss/size/capacity counters of the evaluation memo."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "size": len(self._cache),
            "capacity": self._cache_size,
        }

    def clear_cache(self) -> None:
        """Drop all memoised evaluations and reset the counters."""
        self._cache.clear()
        self._hits = 0
        self._misses = 0

    def evaluate(self, spec: OperatorSpec, freq_mhz: float) -> OperatorEvaluation:
        """Exact characteristics of ``spec`` at a validated grid frequency."""
        freq_mhz = self._npu.frequencies.validate(freq_mhz)
        if spec.is_compute:
            key = (spec.compute, freq_mhz)
        else:
            key = ((spec.kind, spec.fixed_duration_us), freq_mhz)
        cached = self._cache.get(key)
        if cached is None:
            self._misses += 1
            cached = self._evaluate_uncached(spec, freq_mhz)
            self._cache[key] = cached
            if len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
            return cached
        self._hits += 1
        self._cache.move_to_end(key)
        if cached.spec is spec or cached.spec == spec:
            return cached
        # Same character under a different name: reuse the numbers.
        return OperatorEvaluation(
            spec=spec,
            freq_mhz=cached.freq_mhz,
            duration_us=cached.duration_us,
            pipeline_cycles=cached.pipeline_cycles,
            overhead_cycles=cached.overhead_cycles,
            stall_cycles=cached.stall_cycles,
            utilisation=cached.utilisation,
            bandwidth_utilisation=cached.bandwidth_utilisation,
            alpha_effective=cached.alpha_effective,
        )

    def unique_grid(
        self, specs: Sequence[OperatorSpec], freqs_mhz: Sequence[float]
    ) -> UniqueSpecGrid:
        """Every spec at every grid frequency, in one vectorised pass.

        :func:`~repro.npu.vectoreval.evaluate_unique_grid` against this
        evaluator's NPU; it bypasses the memo.
        """
        return evaluate_unique_grid(self, specs, freqs_mhz)

    def duration_us(self, spec: OperatorSpec, freq_mhz: float) -> float:
        """Wall time of ``spec`` at ``freq_mhz``."""
        return self.evaluate(spec, freq_mhz).duration_us

    def timeline(self, spec: OperatorSpec, freq_mhz: float) -> Timeline:
        """The explicit Sect. 4.2 schedule (compute operators only)."""
        if not spec.is_compute or spec.compute is None:
            raise ConfigurationError(
                f"operator {spec.name!r} is not a compute operator"
            )
        freq_mhz = self._npu.frequencies.validate(freq_mhz)
        costs = self._block_costs(spec, freq_mhz)
        return build_timeline(
            spec.compute.scenario, spec.compute.n_blocks, costs,
            spec.compute.core_mix_dict,
        )

    def aicore_power(
        self, evaluation: OperatorEvaluation, delta_celsius: float
    ) -> float:
        """AICore power while this operator runs, at a temperature rise."""
        volts = self._npu.volts_at(evaluation.freq_mhz)
        power = self._npu.power
        return (
            power.aicore_active_power(
                evaluation.alpha_effective, evaluation.freq_mhz, volts
            )
            + power.aicore_idle_power(evaluation.freq_mhz, volts)
            + power.aicore_thermal_power(delta_celsius, volts)
        )

    def soc_power(
        self, evaluation: OperatorEvaluation, delta_celsius: float
    ) -> float:
        """SoC power while this operator runs, at a temperature rise."""
        volts = self._npu.volts_at(evaluation.freq_mhz)
        power = self._npu.power
        return (
            self.aicore_power(evaluation, delta_celsius)
            + power.coupled_power(evaluation.freq_mhz, volts)
            + power.uncore_power(evaluation.bandwidth_utilisation, delta_celsius)
        )

    def idle_point(self, freq_mhz: float) -> IdlePoint:
        """The idle-power terms at a validated grid frequency."""
        volts = self._npu.volts_at(freq_mhz)
        power = self._npu.power
        return IdlePoint(
            power=power,
            volts=volts,
            aicore_watts=power.aicore_idle_power(freq_mhz, volts),
            coupled_watts=power.coupled_power(freq_mhz, volts),
        )

    def idle_aicore_power(self, freq_mhz: float, delta_celsius: float) -> float:
        """AICore power with no operator running."""
        return self.idle_point(freq_mhz).powers(delta_celsius)[0]

    def idle_soc_power(self, freq_mhz: float, delta_celsius: float) -> float:
        """SoC power with no operator running."""
        return self.idle_point(freq_mhz).powers(delta_celsius)[1]

    def _block_costs(self, spec: OperatorSpec, freq_mhz: float) -> BlockCosts:
        compute = spec.compute
        assert compute is not None
        memory = self._npu.memory
        return BlockCosts(
            ld_cycles=memory.transfer_cycles(
                compute.ld_bytes_per_block, freq_mhz, compute.bandwidth_derate
            ),
            st_cycles=memory.transfer_cycles(
                compute.st_bytes_per_block, freq_mhz, compute.bandwidth_derate
            ),
            core_cycles=compute.core_cycles_per_block,
        )

    def _evaluate_uncached(
        self, spec: OperatorSpec, freq_mhz: float
    ) -> OperatorEvaluation:
        if not spec.is_compute or spec.compute is None:
            return self._evaluate_noncompute(spec, freq_mhz)
        compute = spec.compute
        costs = self._block_costs(spec, freq_mhz)
        # The closed forms (totals per Eqs. (5)-(8); per-pipe busy/stall
        # per the disjointness argument of analytical_busy_stall) match
        # the explicit build_timeline schedule; the hot path skips the
        # per-block segment construction.
        pipeline_cycles = closed_form_cycles(
            compute.scenario, compute.n_blocks, costs
        )
        busy, stall_cycles = analytical_busy_stall(
            compute.scenario, compute.n_blocks, costs, compute.core_mix_dict
        )
        overhead_cycles = compute.fixed_overhead_us * freq_mhz
        total_cycles = pipeline_cycles + overhead_cycles
        duration_us = total_cycles / freq_mhz
        utilisation = {
            pipe: cycles / total_cycles for pipe, cycles in busy.items()
        }
        moved_bytes = spec.total_ld_bytes() + spec.total_st_bytes()
        peak_bw = self._npu.memory.uncore_bandwidth(derate=1.0)
        bandwidth_utilisation = min(
            1.0, (moved_bytes / duration_us) / peak_bw
        )
        alpha = self._npu.power.effective_alpha(utilisation)
        return OperatorEvaluation(
            spec=spec,
            freq_mhz=freq_mhz,
            duration_us=duration_us,
            pipeline_cycles=pipeline_cycles,
            overhead_cycles=overhead_cycles,
            stall_cycles=stall_cycles,
            utilisation=utilisation,
            bandwidth_utilisation=bandwidth_utilisation,
            alpha_effective=alpha,
        )

    def _evaluate_noncompute(
        self, spec: OperatorSpec, freq_mhz: float
    ) -> OperatorEvaluation:
        duration_us = spec.fixed_duration_us
        bandwidth = _NONCOMPUTE_BANDWIDTH_UTILISATION[spec.kind]
        return OperatorEvaluation(
            spec=spec,
            freq_mhz=freq_mhz,
            duration_us=duration_us,
            pipeline_cycles=0.0,
            overhead_cycles=duration_us * freq_mhz,
            stall_cycles=duration_us * freq_mhz,
            utilisation={},
            bandwidth_utilisation=bandwidth,
            alpha_effective=0.0,
        )
