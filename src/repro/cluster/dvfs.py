"""The fleet GA: per-device frequencies under a fleet ``energy x step-time``
objective.

Slack reclamation (:func:`repro.fleet.dvfs.reclaim_fleet_slack`) is the
deterministic, search-free policy: the straggler sets the barrier and
every other device drops to the lowest frequency that still meets it.
:func:`search_cluster_frequencies` is its search-based cross-check: the
existing genetic algorithm of :mod:`repro.dvfs.ga`, re-targeted with one
gene per *device* instead of per stage and scored by fleet
``energy x step-time`` (the cluster analogue of the paper's Eq. 17
objective, with the same 2x feasibility bonus for plans within the
step-time budget).

The scorer reads its inputs from a
:class:`~repro.fleet.simulator.FleetSimulator`: arrivals from the
simulator's ``(capacity, F)`` duration table, compute-phase SoC energy
from each grid point's affine solution at ``delta0 = 0`` (a run that
starts at the board's ambient) and the idle power that prices the
barrier wait from the same solution.  The result is a
:class:`~repro.fleet.simulator.FleetPlan` the simulator steps directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.dvfs.ga import GaConfig, GaResult, run_search
from repro.dvfs.preprocessing import Stage, StageKind
from repro.errors import ConfigurationError
from repro.units import US_PER_S

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.simulator import FleetPlan, FleetSimulator


@dataclass(frozen=True)
class ClusterScoreBreakdown:
    """Predicted fleet metrics of one gene assignment."""

    step_us: float
    fleet_soc_energy_j: float
    feasible: bool
    frequencies_mhz: tuple[float, ...]


class ClusterScorer:
    """Fleet ``energy x step-time`` objective over per-device genes.

    Satisfies the scorer protocol of :func:`repro.dvfs.ga.run_search`
    (``score`` / ``stage_count`` / ``frequency_count``): an individual
    assigns one grid frequency per active device (in id order), and its
    score is the baseline's energy-time product over the individual's,
    doubled when the step time stays within the loss target — the direct
    fleet analogue of the paper's Eq. 17.
    """

    def __init__(
        self, sim: "FleetSimulator", step_loss_target: float = 0.005
    ) -> None:
        if not 0 <= step_loss_target < 1:
            raise ConfigurationError(
                f"step_loss_target must be in [0, 1): {step_loss_target}"
            )
        act = sim.active_ids
        if act.size == 0:
            raise ConfigurationError("ClusterScorer needs an active device")
        self._device_ids = act
        self._freqs = tuple(float(f) for f in sim.spec.npu.frequencies.points)
        self._allreduce_us = sim.collective_cost().chosen_us
        self._loss_target = float(step_loss_target)
        solutions = [sim.solution(f) for f in self._freqs]
        self._durations = sim.duration_table()[act]  # (devices, freqs)
        self._soc_energy = np.stack(
            [solution.e0_soc_j[act] for solution in solutions], axis=1
        )
        self._idle_soc_w = np.array(
            [solution.idle_soc_w0 for solution in solutions]
        )  # (freqs,)
        baseline = np.full(act.size, len(self._freqs) - 1, dtype=int)
        self._baseline_step_us, self._baseline_energy_j = self._evaluate(
            baseline[None, :]
        )
        self._step_limit_us = float(self._baseline_step_us[0]) * (
            1.0 + self._loss_target
        )

    @property
    def stage_count(self) -> int:
        """One gene per active device."""
        return self._durations.shape[0]

    @property
    def frequency_count(self) -> int:
        """Size of the shared frequency grid."""
        return len(self._freqs)

    @property
    def freqs_mhz(self) -> tuple[float, ...]:
        """The shared grid, ascending."""
        return self._freqs

    @property
    def device_ids(self) -> np.ndarray:
        """The active device each gene belongs to."""
        return self._device_ids

    @property
    def baseline_step_us(self) -> float:
        """Step time with every device at maximum frequency."""
        return float(self._baseline_step_us[0])

    @property
    def baseline_energy_j(self) -> float:
        """Fleet SoC energy with every device at maximum frequency."""
        return float(self._baseline_energy_j[0])

    def _evaluate(
        self, population: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Step time and fleet SoC energy for each individual."""
        devices = np.arange(self._durations.shape[0])
        arrivals = self._durations[devices[None, :], population]  # (P, D)
        compute = arrivals.max(axis=1)  # (P,)
        step = compute + self._allreduce_us
        active = self._soc_energy[devices[None, :], population]
        idle_w = self._idle_soc_w[population]
        idle_us = compute[:, None] - arrivals + self._allreduce_us
        energy = (active + idle_w * idle_us / US_PER_S).sum(axis=1)
        return step, energy

    def score(self, population: np.ndarray) -> np.ndarray:
        """Eq. 17-style score: normalised E*t product, 2x when feasible."""
        population = np.asarray(population, dtype=int)
        step, energy = self._evaluate(population)
        baseline_product = self.baseline_energy_j * self.baseline_step_us
        norm = baseline_product / (energy * step)
        feasible = step <= self._step_limit_us * (1.0 + 1e-12)
        return norm * np.where(feasible, 2.0, 1.0)

    def breakdown(self, genes: np.ndarray) -> ClusterScoreBreakdown:
        """Predicted fleet metrics of one individual."""
        genes = np.asarray(genes, dtype=int)
        step, energy = self._evaluate(genes[None, :])
        return ClusterScoreBreakdown(
            step_us=float(step[0]),
            fleet_soc_energy_j=float(energy[0]),
            feasible=bool(step[0] <= self._step_limit_us * (1.0 + 1e-12)),
            frequencies_mhz=tuple(self._freqs[g] for g in genes),
        )

    def synthetic_stages(self) -> tuple[Stage, ...]:
        """One pseudo-stage per device, for the GA's prior seeding.

        Devices are HFC-like (the barrier makes every device latency-
        relevant until reclamation proves otherwise), so the GA's prior
        individuals start the fleet near the maximum frequency.
        """
        stages: list[Stage] = []
        clock = 0.0
        for index in range(self.stage_count):
            duration = float(self._durations[index, -1])
            stages.append(
                Stage(
                    index=index,
                    kind=StageKind.HFC,
                    start_us=clock,
                    duration_us=duration,
                    op_indices=(index,),
                    sensitive_time_us=duration,
                )
            )
            clock += duration
        return tuple(stages)


def search_cluster_frequencies(
    sim: "FleetSimulator",
    step_loss_target: float = 0.005,
    config: GaConfig | None = None,
) -> tuple["FleetPlan", GaResult, ClusterScoreBreakdown]:
    """GA search over per-device frequencies with the fleet objective.

    Reuses :func:`repro.dvfs.ga.run_search` unchanged — the scorer swaps
    stages for devices.  The all-max individual is always seeded (it is
    the GA's baseline individual) and always feasible, so the result is
    never worse than uniform maximum frequency.  The plan covers the
    active devices; its barrier target is the slowest predicted arrival.
    """
    # Imported here: the fleet layer sits above the cluster package in
    # the import order (its spec is built from the cluster's device model).
    from repro.fleet.simulator import FleetPlan

    scorer = ClusterScorer(sim, step_loss_target)
    result = run_search(
        scorer, scorer.synthetic_stages(), scorer.freqs_mhz, config
    )
    act = scorer.device_ids
    capacity = sim.spec.capacity
    freq_index = np.full(capacity, len(scorer.freqs_mhz) - 1, dtype=np.intp)
    freq_index[act] = result.best_genes
    predicted = sim.duration_table()[np.arange(capacity), freq_index]
    covered = np.zeros(capacity, dtype=bool)
    covered[act] = True
    arrivals = predicted[act]
    plan = FleetPlan(
        workload=sim.trace.name,
        target_compute_us=float(arrivals.max()),
        straggler_id=int(act[int(np.argmax(arrivals))]),
        freqs_mhz=scorer.freqs_mhz,
        freq_index=freq_index,
        freq_mhz=np.asarray(scorer.freqs_mhz)[freq_index],
        predicted_us=predicted,
        covered=covered,
    )
    return plan, result, scorer.breakdown(result.best_genes)
