"""Vectorized barrier-step execution over an elastic device fleet.

The cluster layer simulates a step by looping Python
:class:`~repro.cluster.device.ClusterDevice` objects around the engine —
exact, but O(N) Python work per step.  The paper's constant-frequency
solution is an affine scalar pair per device (``E = E0 + E1 * delta0``),
so a fleet of N devices collapses to ``(N,)``-shaped NumPy arrays:
:func:`repro.npu.engine.batched_const_solutions` stacks every device's
compiled affine solution once per frequency, and then a whole
synchronous training step — per-device arrivals, the barrier max, the
hierarchical collective, idle-priced waits, the RC thermal update and
the overrun watchdog — is a handful of vectorized passes.

Most of that work depends only on the step's *epoch* — the active
membership, the plan and the barrier target — not on the evolving
thermal state: arrivals, the gathered energy coefficients, the barrier
wait, the collective and the overruns.  Even the 8-substep barrier-wait
idle integration is affine in the step's initial temperature rise
``delta0``, so it collapses to per-device ``(p, q)`` pairs.  The engine
builds all of this once per epoch; a warm step is five affine passes in
``delta0``.  10k devices step in well under a millisecond and 100k in a
few (see ``BENCH_fleet.json``).

Semantics are the cluster simulator's, element for element: durations
are bitwise identical to the looped reference (same scale multiply,
same ``cumsum`` geometry) and energies/temperatures agree to rounding
(~1e-15; ``tests/test_fleet_equivalence.py`` pins <= 1e-9 at
N in {1, 2, 8, 16}).  The differences are scale-bearing: results carry
arrays instead of per-device objects, reports summarize stragglers
(top-k) instead of emitting 10k rows, and membership is elastic — the
seeded churn of :mod:`repro.fleet.churn` joins, drains and fails
devices between steps with deterministic re-sharding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.cluster.simulator import BARRIER_OVERRUN_TOLERANCE
from repro.core.report import ClusterResult
from repro.errors import ConfigurationError
from repro.fleet.churn import ChurnDraw, FleetEvent, draw_churn
from repro.fleet.spec import FleetSpec
from repro.fleet.topology import CollectiveCost
from repro.npu.engine import (
    CompiledTrace,
    ConstAffineBatch,
    batched_const_durations,
    batched_const_solutions,
)
from repro.npu.execution import GroundTruthEvaluator
from repro.units import US_PER_S
from repro.workloads.trace import Trace

#: Sub-intervals the barrier-wait idle integration is split into — the
#: same discretisation :meth:`repro.cluster.device.ClusterDevice.idle`
#: uses, so the two simulators price waits identically.
IDLE_INTEGRATION_STEPS = 8

#: Straggler rows a fleet report carries before summarizing the rest.
DEFAULT_TOP_K = 8

#: Churn event kinds that change the active membership.
MEMBERSHIP_KINDS = ("join", "leave", "fail")


def descending_top_k(values: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` largest values, sorted descending.

    Exactly the first ``k`` entries of
    ``np.argsort(-values, kind="stable")`` — ties broken by position,
    ascending — but O(N) instead of O(N log N): ``np.partition`` finds
    the k-th largest value, boundary ties are resolved by taking the
    earliest positions (which is what the stable argsort does), and
    only the k survivors are sorted.
    """
    n = values.size
    if k >= n:
        return np.argsort(-values, kind="stable")
    if k <= 0:
        return np.zeros(0, dtype=np.intp)
    # The k-th largest value; at most k-1 entries are strictly larger.
    cut = np.partition(values, n - k)[n - k]
    top = np.flatnonzero(values > cut)
    need = k - top.size
    if need:
        # flatnonzero is ascending, so boundary ties keep the earliest
        # positions — the stable-argsort tie rule.
        top = np.concatenate([top, np.flatnonzero(values == cut)[:need]])
    return top[np.argsort(-values[top], kind="stable")]


@dataclass(frozen=True)
class FleetStepResult:
    """Outcome of one synchronous step, in ``(active devices,)`` arrays.

    Array fields line up with :attr:`device_ids` (active devices in id
    order).  The scalar aggregates mirror
    :class:`~repro.cluster.simulator.ClusterStepResult`.
    """

    fleet_name: str
    workload: str
    compute_us: float
    collective: CollectiveCost
    straggler_id: int
    device_ids: np.ndarray
    arrival_us: np.ndarray
    wait_us: np.ndarray
    freq_mhz: np.ndarray
    aicore_energy_j: np.ndarray
    soc_energy_j: np.ndarray
    idle_aicore_energy_j: np.ndarray
    idle_soc_energy_j: np.ndarray
    end_celsius: np.ndarray
    #: Devices that arrived measurably past the planned barrier (count,
    #: and the worst offenders by lateness).
    overrun_count: int = 0
    overrun_device_ids: tuple[int, ...] = ()
    #: Churn events applied immediately before this step.
    events: tuple[FleetEvent, ...] = ()

    @property
    def n_devices(self) -> int:
        """Active devices that ran this step."""
        return self.device_ids.size

    @property
    def collective_us(self) -> float:
        """Selected all-reduce cost of the gradient exchange."""
        return self.collective.chosen_us

    @property
    def step_us(self) -> float:
        """Wall time of the step: slowest arrival plus the collective."""
        return self.compute_us + self.collective_us

    @property
    def total_soc_energy_j(self) -> np.ndarray:
        """Per-device compute plus barrier-idle SoC energy."""
        return self.soc_energy_j + self.idle_soc_energy_j

    @property
    def total_aicore_energy_j(self) -> np.ndarray:
        """Per-device compute plus barrier-idle AICore energy."""
        return self.aicore_energy_j + self.idle_aicore_energy_j

    @property
    def fleet_soc_energy_j(self) -> float:
        """Total SoC energy across the fleet, barrier idling included."""
        return float(np.sum(self.total_soc_energy_j))

    @property
    def fleet_aicore_energy_j(self) -> float:
        """Total AICore energy across the fleet."""
        return float(np.sum(self.total_aicore_energy_j))

    @property
    def fleet_soc_avg_watts(self) -> float:
        """Fleet-wide (summed) average SoC power over the step."""
        return self.fleet_soc_energy_j / (self.step_us / US_PER_S)

    def device_rows(self, top_k: int = DEFAULT_TOP_K) -> list[dict]:
        """Straggler top-k table rows plus one fleet-remainder summary.

        Same shape as the cluster report's rows: the ``top_k`` slowest
        arrivals (straggler first), then a single aggregate row for the
        other ``N - top_k`` devices — O(top_k) rows at any fleet size,
        selected in O(N) (:func:`descending_top_k`, not a full sort).
        """
        order = descending_top_k(self.arrival_us, top_k)
        rows = []
        for pos in order:
            device = int(self.device_ids[pos])
            rows.append(
                {
                    "device": device,
                    "compute_ms": round(
                        float(self.arrival_us[pos]) / 1000.0, 3
                    ),
                    "wait_ms": round(float(self.wait_us[pos]) / 1000.0, 3),
                    "idle_mhz": round(float(self.freq_mhz[pos])),
                    "soc_j": round(float(self.total_soc_energy_j[pos]), 3),
                    "aicore_j": round(
                        float(self.total_aicore_energy_j[pos]), 3
                    ),
                    "straggler": "*" if device == self.straggler_id else "",
                }
            )
        in_top = np.zeros(self.arrival_us.size, dtype=bool)
        in_top[order] = True
        rest = np.flatnonzero(~in_top)
        if rest.size:
            rows.append(
                {
                    "device": f"(+{rest.size} faster)",
                    "compute_ms": round(
                        float(np.mean(self.arrival_us[rest])) / 1000.0, 3
                    ),
                    "wait_ms": round(
                        float(np.mean(self.wait_us[rest])) / 1000.0, 3
                    ),
                    "idle_mhz": "",
                    "soc_j": round(
                        float(np.sum(self.total_soc_energy_j[rest])), 3
                    ),
                    "aicore_j": round(
                        float(np.sum(self.total_aicore_energy_j[rest])), 3
                    ),
                    "straggler": "",
                }
            )
        return rows

    def report(self, baseline: "FleetStepResult") -> ClusterResult:
        """Compare this step against a baseline step of the same fleet."""
        return ClusterResult(
            cluster_name=self.fleet_name,
            workload=self.workload,
            n_devices=self.n_devices,
            baseline_step_us=baseline.step_us,
            step_us=self.step_us,
            allreduce_us=self.collective_us,
            baseline_soc_energy_j=baseline.fleet_soc_energy_j,
            soc_energy_j=self.fleet_soc_energy_j,
            baseline_aicore_energy_j=baseline.fleet_aicore_energy_j,
            aicore_energy_j=self.fleet_aicore_energy_j,
            straggler_id=self.straggler_id,
            device_rows=tuple(self.device_rows()),
        )


@dataclass(frozen=True)
class FleetPlan:
    """Per-device constant-frequency assignment over the provisioned fleet.

    Arrays span the full capacity; :attr:`covered` marks the devices the
    plan was computed for — boards that join later run the maximum-
    frequency baseline until the plan is re-targeted.
    """

    workload: str
    target_compute_us: float
    straggler_id: int
    freqs_mhz: tuple[float, ...]
    freq_index: np.ndarray
    freq_mhz: np.ndarray
    predicted_us: np.ndarray
    covered: np.ndarray

    @property
    def n_devices(self) -> int:
        """Devices the plan covers."""
        return int(np.count_nonzero(self.covered))


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def _affine(p: np.ndarray, q: np.ndarray, delta0: np.ndarray) -> np.ndarray:
    """``p + q * delta0`` with one allocation."""
    out = q * delta0
    out += p
    return out


@dataclass(frozen=True)
class _Epoch:
    """Everything a step needs that the thermal state does not change.

    Per-device outputs are affine in the step's initial temperature
    rise ``delta0``: ``x = x_p + x_q * delta0``.  The shared arrays
    (ids, arrivals, waits, frequencies) are read-only because every
    result of the epoch carries them.
    """

    device_ids: np.ndarray
    ambient: np.ndarray
    arrival_us: np.ndarray
    wait_us: np.ndarray
    freq_mhz: np.ndarray
    compute_us: float
    straggler_id: int
    collective: CollectiveCost
    aicore_p: np.ndarray
    aicore_q: np.ndarray
    soc_p: np.ndarray
    soc_q: np.ndarray
    idle_aicore_p: np.ndarray
    idle_aicore_q: np.ndarray
    idle_soc_p: np.ndarray
    idle_soc_q: np.ndarray
    celsius_p: np.ndarray
    celsius_q: np.ndarray
    overrun_count: int
    overrun_device_ids: tuple[int, ...]


class FleetSimulator:
    """N-device synchronous training as ``(devices,)`` array passes.

    Construction compiles the trace once against the shared evaluator
    and draws the provisioned boards' profiles; per-frequency
    :class:`~repro.npu.engine.ConstAffineBatch` stacks are built lazily
    on first use and reused across every subsequent step (spares
    included, so churn never recompiles anything).

    Steps are cached by epoch: the key is the membership epoch (bumped
    by any join, leave or fail, and by :meth:`reset`), the plan object
    (compared with ``is``) and the barrier target.  Pass the same plan
    object to keep the cache warm; an equal but distinct plan rebuilds
    it.  Plans are treated as immutable.
    """

    def __init__(self, spec: FleetSpec, trace: Trace) -> None:
        self._spec = spec
        self._trace = trace
        self._evaluator = GroundTruthEvaluator(spec.npu)
        self._compiled = CompiledTrace(trace, self._evaluator)
        profiles = spec.device_profiles()
        self._profiles = profiles
        base_ambient = spec.npu.thermal.ambient_celsius
        self._scales = np.array(
            [p.total_duration_scale for p in profiles]
        )
        self._ambient = np.array(
            [base_ambient + p.ambient_offset_celsius for p in profiles]
        )
        self._active = np.zeros(spec.capacity, dtype=bool)
        self._active[: spec.n_devices] = True
        self._next_spare = spec.n_devices
        self._celsius = self._ambient.copy()
        self._solutions: dict[float, ConstAffineBatch] = {}
        self._events: list[FleetEvent] = []
        self._overrun_total = 0
        self._membership_epoch = 0
        self._epoch_key: tuple | None = None
        self._epoch: _Epoch | None = None

    @property
    def spec(self) -> FleetSpec:
        """The fleet description."""
        return self._spec

    @property
    def trace(self) -> Trace:
        """The operator sequence every device replays."""
        return self._trace

    @property
    def compiled(self) -> CompiledTrace:
        """The shared trace lowering (nominal durations)."""
        return self._compiled

    @property
    def duration_scales(self) -> np.ndarray:
        """Per-board operator-duration scales over the capacity."""
        return self._scales

    @property
    def active_ids(self) -> np.ndarray:
        """Active device ids, ascending (the current membership)."""
        return np.flatnonzero(self._active)

    @property
    def n_active(self) -> int:
        """Current active fleet size."""
        return int(np.count_nonzero(self._active))

    @property
    def celsius(self) -> np.ndarray:
        """Current board temperatures over the capacity (a copy)."""
        return self._celsius.copy()

    @property
    def events(self) -> tuple[FleetEvent, ...]:
        """Every churn event applied (or skipped) so far."""
        return tuple(self._events)

    @property
    def overrun_total(self) -> int:
        """Barrier overruns recorded across all steps."""
        return self._overrun_total

    def rack_sizes(self) -> tuple[int, ...]:
        """Current rack occupancy (survivors re-sharded in id order)."""
        return self._spec.topology.rack_sizes(self.n_active)

    def collective_cost(self) -> CollectiveCost:
        """Priced gradient exchange on the current membership."""
        return self._spec.topology.breakdown(
            self._spec.gradient_bytes, self.rack_sizes()
        )

    def solution(self, freq_mhz: float) -> ConstAffineBatch:
        """The cached capacity-wide affine batch at one frequency."""
        sol = self._solutions.get(freq_mhz)
        if sol is None:
            thermal = self._spec.npu.thermal
            sol = batched_const_solutions(
                self._compiled,
                freq_mhz,
                self._scales,
                thermal.celsius_per_watt,
                thermal.time_constant_us,
            )
            self._solutions[freq_mhz] = sol
        return sol

    def duration_table(self) -> np.ndarray:
        """Per-board durations over the full grid, ``(capacity, F)``.

        Bitwise identical to probing every device at every grid point
        through the engine (the reclaim pass depends on this: plans
        computed from the table match the looped reference byte for
        byte).
        """
        freqs = self._spec.npu.frequencies.points
        table = np.empty((self._spec.capacity, len(freqs)))
        for j, freq in enumerate(freqs):
            cached = self._solutions.get(float(freq))
            if cached is not None:
                table[:, j] = cached.duration_us
            else:
                table[:, j] = batched_const_durations(
                    self._compiled, float(freq), self._scales
                )
        return table

    def reset(self) -> None:
        """Back to the initial membership and thermal state."""
        self._active[:] = False
        self._active[: self._spec.n_devices] = True
        self._next_spare = self._spec.n_devices
        self._celsius[:] = self._ambient
        self._events.clear()
        self._overrun_total = 0
        self._membership_epoch += 1

    # ------------------------------------------------------------------
    # Elastic membership
    # ------------------------------------------------------------------

    def advance_churn(self, step: int) -> tuple[FleetEvent, ...]:
        """Apply the seeded churn draw for ``step``; returns its events.

        Joins activate pre-provisioned spares in id order (fresh boards
        start at their own ambient); leaves and fails deactivate seeded
        victims, never dropping below ``min_active``.  Rack assignment
        is implicit — active ids in order, chunked by rack size — so
        re-sharding after any event is deterministic.
        """
        config = self._spec.churn
        draw = draw_churn(config, self._spec.seed, step)
        events = tuple(self._apply_draw(step, draw))
        self._events.extend(events)
        if any(e.kind in MEMBERSHIP_KINDS for e in events):
            self._membership_epoch += 1
        return events

    def _apply_draw(self, step: int, draw: ChurnDraw):
        config = self._spec.churn
        for _ in range(draw.joins):
            if self._next_spare < self._spec.capacity:
                device = self._next_spare
                self._next_spare += 1
                self._active[device] = True
                self._celsius[device] = self._ambient[device]
                yield FleetEvent(
                    step, "join", device, "spare board activated"
                )
            else:
                yield FleetEvent(
                    step,
                    "join_exhausted",
                    -1,
                    f"all {config.max_joins} spares already active",
                )
        kinds = ("leave",) * draw.leaves + ("fail",) * draw.fails
        for kind, raw in zip(kinds, draw.victim_raws):
            ids = np.flatnonzero(self._active)
            if ids.size <= config.min_active:
                yield FleetEvent(
                    step,
                    "churn_skipped",
                    -1,
                    f"{kind} blocked by min_active={config.min_active}",
                )
                continue
            victim = int(ids[raw % ids.size])
            self._active[victim] = False
            detail = (
                "drained for maintenance"
                if kind == "leave"
                else "hard failure"
            )
            yield FleetEvent(step, kind, victim, detail)

    # ------------------------------------------------------------------
    # The vectorized barrier step
    # ------------------------------------------------------------------

    def step(
        self,
        plan: FleetPlan | None = None,
        target_compute_us: float | None = None,
        events: tuple[FleetEvent, ...] = (),
    ) -> FleetStepResult:
        """Execute one synchronous training step over the active fleet.

        Args:
            plan: per-device constant-frequency assignment (``None``
                runs the uniform maximum-frequency baseline; devices
                the plan does not cover also run the baseline).
            target_compute_us: the arrival target the plan was built
                for; arrivals later than the tolerance are counted as
                barrier overruns.
            events: churn events to attach to the result (bookkeeping
                only; :meth:`run_steps` passes the step's own events).
        """
        ep = self._epoch_for(plan, target_compute_us)
        delta0 = self._celsius[ep.device_ids] - ep.ambient
        celsius = _affine(ep.celsius_p, ep.celsius_q, delta0)
        self._celsius[ep.device_ids] = celsius
        self._overrun_total += ep.overrun_count
        return FleetStepResult(
            fleet_name=self._spec.name,
            workload=self._trace.name,
            compute_us=ep.compute_us,
            collective=ep.collective,
            straggler_id=ep.straggler_id,
            device_ids=ep.device_ids,
            arrival_us=ep.arrival_us,
            wait_us=ep.wait_us,
            freq_mhz=ep.freq_mhz,
            aicore_energy_j=_affine(ep.aicore_p, ep.aicore_q, delta0),
            soc_energy_j=_affine(ep.soc_p, ep.soc_q, delta0),
            idle_aicore_energy_j=_affine(
                ep.idle_aicore_p, ep.idle_aicore_q, delta0
            ),
            idle_soc_energy_j=_affine(ep.idle_soc_p, ep.idle_soc_q, delta0),
            end_celsius=celsius,
            overrun_count=ep.overrun_count,
            overrun_device_ids=ep.overrun_device_ids,
            events=events,
        )

    def _epoch_for(
        self, plan: FleetPlan | None, target_compute_us: float | None
    ) -> _Epoch:
        """The cached epoch for (membership, plan, target), built on a miss."""
        key = self._epoch_key
        if (
            key is not None
            and key[0] == self._membership_epoch
            and key[1] is plan
            and key[2] == target_compute_us
        ):
            return self._epoch
        self._epoch = self._build_epoch(plan, target_compute_us)
        self._epoch_key = (self._membership_epoch, plan, target_compute_us)
        return self._epoch

    def _build_epoch(
        self, plan: FleetPlan | None, target_compute_us: float | None
    ) -> _Epoch:
        act = self.active_ids
        n = act.size
        max_freq = float(self._spec.npu.max_frequency_mhz)
        if plan is None:
            freqs = np.full(n, max_freq)
        else:
            freqs = np.where(
                plan.covered[act], plan.freq_mhz[act], max_freq
            )

        arrival = np.empty(n)
        e0a = np.empty(n)
        e1a = np.empty(n)
        e0s = np.empty(n)
        e1s = np.empty(n)
        p = np.empty(n)
        q = np.empty(n)
        idle_a0 = np.empty(n)
        idle_ga = np.empty(n)
        idle_s0 = np.empty(n)
        idle_gs = np.empty(n)
        for freq in np.unique(freqs):
            mask = freqs == freq
            rows = act[mask]
            sol = self.solution(float(freq))
            arrival[mask] = sol.duration_us[rows]
            e0a[mask] = sol.e0_aicore_j[rows]
            e1a[mask] = sol.e1_aicore_j[rows]
            e0s[mask] = sol.e0_soc_j[rows]
            e1s[mask] = sol.e1_soc_j[rows]
            p[mask] = sol.end_a[rows]
            q[mask] = sol.end_b[rows]
            idle_a0[mask] = sol.idle_aicore_w0
            idle_ga[mask] = sol.idle_aicore_gain
            idle_s0[mask] = sol.idle_soc_w0
            idle_gs[mask] = sol.idle_soc_gain

        compute_us = float(arrival.max())
        straggler_id = int(act[int(np.argmax(arrival))])
        collective = self.collective_cost()
        wait = compute_us - arrival

        # Barrier-wait idle integration: the cluster device's 8-substep
        # constant-power discretisation.  The temperature rise after the
        # compute phase is p + q * delta0 and every update in the loop
        # is affine in it, so iterate on the (p, q) pairs once per
        # epoch instead of on the thermal state every step.
        sub = (wait + collective.chosen_us) / IDLE_INTEGRATION_STEPS
        k = self._spec.npu.thermal.celsius_per_watt
        tau = self._spec.npu.thermal.time_constant_us
        decay = np.exp(-sub / tau)
        scale = sub / US_PER_S
        ia_p = np.zeros(n)
        ia_q = np.zeros(n)
        is_p = np.zeros(n)
        is_q = np.zeros(n)
        for _ in range(IDLE_INTEGRATION_STEPS):
            ia_p += (idle_a0 + idle_ga * p) * scale
            ia_q += idle_ga * q * scale
            sw_p = idle_s0 + idle_gs * p
            sw_q = idle_gs * q
            is_p += sw_p * scale
            is_q += sw_q * scale
            t_p = k * sw_p
            t_q = k * sw_q
            p = t_p + (p - t_p) * decay
            q = t_q + (q - t_q) * decay

        overrun_count = 0
        offenders: tuple[int, ...] = ()
        if target_compute_us is not None:
            lateness = (arrival - target_compute_us) / target_compute_us
            late = lateness > BARRIER_OVERRUN_TOLERANCE
            overrun_count = int(np.count_nonzero(late))
            if overrun_count:
                late_ids = act[late]
                order = descending_top_k(lateness[late], DEFAULT_TOP_K)
                offenders = tuple(int(late_ids[pos]) for pos in order)

        ambient = self._ambient[act]
        return _Epoch(
            device_ids=_read_only(act),
            ambient=ambient,
            arrival_us=_read_only(arrival),
            wait_us=_read_only(wait),
            freq_mhz=_read_only(freqs),
            compute_us=compute_us,
            straggler_id=straggler_id,
            collective=collective,
            aicore_p=e0a,
            aicore_q=e1a,
            soc_p=e0s,
            soc_q=e1s,
            idle_aicore_p=ia_p,
            idle_aicore_q=ia_q,
            idle_soc_p=is_p,
            idle_soc_q=is_q,
            celsius_p=ambient + p,
            celsius_q=q,
            overrun_count=overrun_count,
            overrun_device_ids=offenders,
        )

    def run_steps(
        self,
        plan: FleetPlan | None = None,
        steps: int = 3,
        target_compute_us: float | None = None,
        replan: Callable[["FleetSimulator"], FleetPlan] | None = None,
    ) -> list[FleetStepResult]:
        """Run consecutive steps, thermal state carried, churn applied.

        Churn events fire *between* steps (step 0 always runs the
        initial membership).  When ``replan`` is provided, any step
        whose churn changed the membership re-targets: the callback
        builds a fresh plan on the current fleet (see
        :func:`repro.fleet.dvfs.reclaim_fleet_slack`) and the barrier
        target follows it.
        """
        if steps < 1:
            raise ConfigurationError(f"steps must be >= 1: {steps}")
        results: list[FleetStepResult] = []
        for index in range(steps):
            events: tuple[FleetEvent, ...] = ()
            if index > 0:
                events = self.advance_churn(index)
                changed = any(e.kind in MEMBERSHIP_KINDS for e in events)
                if changed and replan is not None:
                    plan = replan(self)
                    target_compute_us = plan.target_compute_us
            results.append(
                self.step(plan, target_compute_us, events=events)
            )
        return results


def make_fleet_simulator(spec: FleetSpec, trace: Trace) -> FleetSimulator:
    """``FleetSimulator(spec, trace)``, kept only as a compatibility alias.

    The repo benchmark (``perfbench/``) imports this name and may not
    change with the engine.  New code constructs :class:`FleetSimulator`
    directly; delete this alias once ``perfbench/`` can be updated.
    """
    return FleetSimulator(spec, trace)


def straggler_summary(
    results: Sequence[FleetStepResult],
) -> dict[str, float | int]:
    """Aggregate step/energy/overrun metrics over a run of steps."""
    if not results:
        raise ConfigurationError("straggler_summary needs at least one step")
    return {
        "steps": len(results),
        "devices_last": results[-1].n_devices,
        "step_ms_mean": float(
            np.mean([r.step_us for r in results]) / 1000.0
        ),
        "fleet_soc_j_total": float(
            np.sum([r.fleet_soc_energy_j for r in results])
        ),
        "fleet_aicore_j_total": float(
            np.sum([r.fleet_aicore_energy_j for r in results])
        ),
        "overruns": int(sum(r.overrun_count for r in results)),
        "churn_events": int(sum(len(r.events) for r in results)),
    }
