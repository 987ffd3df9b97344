"""Vectorized barrier-step execution over an elastic device fleet.

This is the one production barrier-step engine: the fleet CLI and the
experiments all step through it.  Its reference, the looped
``SimulatedCluster`` kept under ``tests/reference``, steps Python device
objects through the engine one by one — exact, but O(N) Python work per
step.  The paper's constant-frequency
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
builds all of this once per epoch, together with a dense copy of the
active boards' temperatures that stays resident for the epoch; a warm
step is then two contiguous passes over that copy — ``delta0``, and the
affine update to the end temperatures written back in place — with no
gather or scatter into the capacity-wide thermal state.  Its result
keeps only ``delta0`` and a reference to the epoch; the energies and
end temperatures are affine passes taken when they are read, so a run
of steps retains one ``(devices,)`` array per step.  10k devices step
in well under a millisecond and 100k in a few (see
``BENCH_fleet.json``).  Neither a new epoch nor a replan
recomputes anything priced per frequency: the duration table and the
per-frequency coefficients are built at most once per simulator, and
both are index gathers from there.  They are built per *speed class*,
not per board: boards are grouped by their duration scale, which the
spec quantises to a few dozen speed bins (a degraded board is a class of
its own), so the compile is O(classes x ops x F) whatever the fleet
size — one whole grid point at a time, for every class, when a step
first places a board there.

Semantics are the looped reference's, element for element: durations
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

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

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

#: Relative lateness at the barrier that counts as an overrun.
BARRIER_OVERRUN_TOLERANCE = 0.005

#: Sub-intervals the barrier-wait idle integration is split into — the
#: same discretisation the looped reference's ``ClusterDevice.idle``
#: uses, so the two simulators price waits identically.
IDLE_INTEGRATION_STEPS = 8

#: Straggler rows a fleet report carries before summarizing the rest.
DEFAULT_TOP_K = 8

#: Churn event kinds that change the active membership.
MEMBERSHIP_KINDS = ("join", "leave", "fail")

#: The per-device :class:`~repro.npu.engine.ConstAffineBatch` arrays, in
#: the order of the simulator's coefficient stack.
_DEVICE_COEFFICIENTS = (
    "duration_us",
    "e0_aicore_j",
    "e1_aicore_j",
    "e0_soc_j",
    "e1_soc_j",
    "end_a",
    "end_b",
)

#: The frequency-only idle-power scalars of a batch, in stack order.
_IDLE_COEFFICIENTS = (
    "idle_aicore_w0",
    "idle_aicore_gain",
    "idle_soc_w0",
    "idle_soc_gain",
)


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
    order).  The scalar aggregates mirror the looped reference's
    ``ClusterStepResult``.

    A result stores one array of its own, the step's initial temperature
    rise :attr:`delta0` (read-only); everything else is shared,
    read-only, with every step of its epoch.  The energies and
    :attr:`end_celsius` are affine in ``delta0`` and are computed from
    the epoch's ``(p, q)`` pairs on *each* access, with no caching:
    a caller that reads one of them repeatedly should keep a reference
    to the array it got.
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
    #: Initial temperature rise over ambient of each active device.
    delta0: np.ndarray
    #: The cached epoch the step ran in: its ``(p, q)`` pairs.
    epoch: _Epoch = field(repr=False)
    #: Devices that arrived measurably past the planned barrier (count,
    #: and the worst offenders by lateness).
    overrun_count: int = 0
    overrun_device_ids: tuple[int, ...] = ()
    #: Churn events applied immediately before this step.
    events: tuple[FleetEvent, ...] = ()

    @property
    def aicore_energy_j(self) -> np.ndarray:
        """Per-device compute AICore energy (J)."""
        ep = self.epoch
        return _affine(ep.aicore_p, ep.aicore_q, self.delta0)

    @property
    def soc_energy_j(self) -> np.ndarray:
        """Per-device compute SoC energy (J)."""
        ep = self.epoch
        return _affine(ep.soc_p, ep.soc_q, self.delta0)

    @property
    def idle_aicore_energy_j(self) -> np.ndarray:
        """Per-device barrier-idle AICore energy (J)."""
        ep = self.epoch
        return _affine(ep.idle_aicore_p, ep.idle_aicore_q, self.delta0)

    @property
    def idle_soc_energy_j(self) -> np.ndarray:
        """Per-device barrier-idle SoC energy (J)."""
        ep = self.epoch
        return _affine(ep.idle_soc_p, ep.idle_soc_q, self.delta0)

    @property
    def end_celsius(self) -> np.ndarray:
        """Per-device board temperature at the end of the step."""
        ep = self.epoch
        return _affine(ep.celsius_p, ep.celsius_q, self.delta0)

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
        soc = self.total_soc_energy_j
        aicore = self.total_aicore_energy_j
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
                    "soc_j": round(float(soc[pos]), 3),
                    "aicore_j": round(float(aicore[pos]), 3),
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
                    "soc_j": round(float(np.sum(soc[rest])), 3),
                    "aicore_j": round(float(np.sum(aicore[rest])), 3),
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
    frequency baseline until the plan is re-targeted.  The arrays are
    made read-only on construction: the simulator's epoch cache keys on
    the plan object, so an in-place edit would silently reuse a stale
    epoch.
    """

    workload: str
    target_compute_us: float
    straggler_id: int
    freqs_mhz: tuple[float, ...]
    freq_index: np.ndarray
    freq_mhz: np.ndarray
    predicted_us: np.ndarray
    covered: np.ndarray

    def __post_init__(self) -> None:
        for values in (
            self.freq_index,
            self.freq_mhz,
            self.predicted_us,
            self.covered,
        ):
            _read_only(values)

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
    rise ``delta0``: ``x = x_p + x_q * delta0``.  Every array is
    read-only because every result of the epoch carries them.
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
    and groups the provisioned boards into speed classes, one per
    distinct duration scale (:attr:`class_scales`, :attr:`board_class`).
    Everything priced per grid frequency is solved once per class and
    reused across every subsequent step, reclaim, churn event and
    :meth:`reset` (spares included, so churn never recompiles
    anything): the duration table on the first :meth:`duration_table`
    call, gathered to ``(capacity, F)``, and the
    :class:`~repro.npu.engine.ConstAffineBatch` coefficients into an
    ``(F, 7, classes)`` table, one grid point at a time — for every
    class — when an epoch or :meth:`solution` first uses it.  An epoch
    rebuild then gathers every active device's coefficients by grid
    index and class.  Rows of the batched kernels are independent, so a
    class's row is bitwise the row of each of its boards.

    Steps are cached by epoch: the key is the membership epoch (bumped
    by any join, leave or fail, and by :meth:`reset`), the plan object
    (compared with ``is``) and the barrier target.  Pass the same plan
    object to keep the cache warm; an equal but distinct plan rebuilds
    it.  Plans are treated as immutable.

    The active boards' temperatures live in a dense per-epoch array
    while the epoch is warm; the capacity-wide thermal state is brought
    up to date from it on the next epoch miss and on every
    :attr:`celsius` read, and :meth:`reset` discards it.
    """

    def __init__(self, spec: FleetSpec, trace: Trace) -> None:
        self._spec = spec
        self._trace = trace
        self._evaluator = GroundTruthEvaluator(spec.npu)
        self._compiled = CompiledTrace(trace, self._evaluator)
        self._scales = spec.duration_scales
        # Boards that share a scale share every per-frequency solution:
        # each distinct scale is solved once and gathered per board.
        self._class_scales, self._board_class = np.unique(
            self._scales, return_inverse=True
        )
        self._ambient = (
            spec.npu.thermal.ambient_celsius + spec.ambient_offsets_celsius
        )
        self._active = np.zeros(spec.capacity, dtype=bool)
        self._active[: spec.n_devices] = True
        self._next_spare = spec.n_devices
        self._celsius = self._ambient.copy()
        grid = spec.npu.frequencies.points
        self._grid = np.array(grid, dtype=float)
        # One coefficient table per (grid point, speed class), grid
        # point first; a point is solved for every class at once.
        self._coef = np.empty(
            (len(grid), len(_DEVICE_COEFFICIENTS), self._class_scales.size)
        )
        self._idle = np.empty((len(_IDLE_COEFFICIENTS), len(grid)))
        self._solved = np.zeros(len(grid), dtype=bool)
        self._table: np.ndarray | None = None
        self._events: list[FleetEvent] = []
        self._overrun_total = 0
        self._membership_epoch = 0
        self._epoch_key: tuple | None = None
        self._epoch: _Epoch | None = None
        # The epoch's active temperatures, in device_ids order; the
        # truth for those boards while it is not None.
        self._live: np.ndarray | None = None

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
    def class_scales(self) -> np.ndarray:
        """The distinct duration scales (speed classes), ascending."""
        return self._class_scales

    @property
    def board_class(self) -> np.ndarray:
        """Each board's position in :attr:`class_scales`."""
        return self._board_class

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
        self._write_back()
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
        """Priced gradient exchange on the current membership.

        Priced from the active count alone (no per-rack tuple), bitwise
        ``topology.breakdown(gradient_bytes, rack_sizes())``.
        """
        return self._spec.topology.breakdown_for(
            self._spec.gradient_bytes, self.n_active
        )

    def solution(self, freq_mhz: float) -> ConstAffineBatch:
        """The capacity-wide affine batch at one grid frequency.

        Its arrays are read-only, gathered per board from the speed
        classes' coefficients, which the first request for ``freq_mhz``
        (or the first step placing a board there) solves.

        Raises:
            ConfigurationError: when ``freq_mhz`` is not a grid point.
        """
        grid = self._spec.npu.frequencies
        if not grid.contains(freq_mhz):
            raise ConfigurationError(
                f"{freq_mhz} MHz is not on the {grid.min_mhz:g}-"
                f"{grid.max_mhz:g} MHz grid"
            )
        j = int(round((freq_mhz - grid.min_mhz) / grid.step_mhz))
        self._solve(j)
        coef = np.take(self._coef[j], self._board_class, axis=1)
        return ConstAffineBatch(
            freq_mhz=float(self._grid[j]),
            **{
                name: _read_only(coef[row])
                for row, name in enumerate(_DEVICE_COEFFICIENTS)
            },
            **{
                name: float(self._idle[row, j])
                for row, name in enumerate(_IDLE_COEFFICIENTS)
            },
        )

    def _solve(self, j: int) -> None:
        """Fill grid point ``j``'s coefficients for every speed class.

        Rows of the batched solve are independent, so a class's row is
        bitwise the row of any board of that class in a per-board solve.
        """
        if self._solved[j]:
            return
        thermal = self._spec.npu.thermal
        batch = batched_const_solutions(
            self._compiled,
            float(self._grid[j]),
            self._class_scales,
            thermal.celsius_per_watt,
            thermal.time_constant_us,
        )
        for row, name in enumerate(_DEVICE_COEFFICIENTS):
            self._coef[j, row] = getattr(batch, name)
        for row, name in enumerate(_IDLE_COEFFICIENTS):
            self._idle[row, j] = getattr(batch, name)
        self._solved[j] = True

    def duration_table(self) -> np.ndarray:
        """Per-board durations over the full grid, ``(capacity, F)``.

        Built on the first call and returned (read-only, the same
        object) from then on: it depends only on the compiled trace, the
        board scales and the grid, none of which churn or :meth:`reset`
        change.  The storage is frequency-major — an ``(F, capacity)``
        C-contiguous array, one row per grid point — and this is its
        transposed view, so ``duration_table().T`` is the contiguous
        layout the reclaim makes its row passes over.  Bitwise
        identical to probing every device at every grid point through
        the engine (the reclaim pass depends on this: plans computed
        from the table match the looped reference byte for byte).
        """
        if self._table is None:
            by_class = np.empty((self._grid.size, self._class_scales.size))
            for j, freq in enumerate(self._grid):
                by_class[j] = batched_const_durations(
                    self._compiled, float(freq), self._class_scales
                )
            by_freq = np.take(by_class, self._board_class, axis=1)
            self._table = _read_only(by_freq).T
        return self._table

    def reset(self) -> None:
        """Back to the initial membership and thermal state."""
        self._active[:] = False
        self._active[: self._spec.n_devices] = True
        self._next_spare = self._spec.n_devices
        self._celsius[:] = self._ambient
        self._live = None
        self._events.clear()
        self._overrun_total = 0
        self._membership_epoch += 1

    # ------------------------------------------------------------------
    # Elastic membership
    # ------------------------------------------------------------------

    def advance_churn(self, step: int) -> tuple[FleetEvent, ...]:
        """Apply the seeded churn draw for ``step``; returns its events.

        Joins activate pre-provisioned spares in id order (fresh boards
        start at their own ambient; a spare is never in the live epoch
        array, so it is written directly); leaves and fails deactivate
        seeded victims, never dropping below ``min_active``.  Rack
        assignment is implicit — active ids in order, chunked by rack
        size — so re-sharding after any event is deterministic.
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
        live = self._live
        delta0 = _read_only(live - ep.ambient)
        # _affine's operation order, written into the live array.
        np.multiply(ep.celsius_q, delta0, out=live)
        live += ep.celsius_p
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
            delta0=delta0,
            epoch=ep,
            overrun_count=ep.overrun_count,
            overrun_device_ids=ep.overrun_device_ids,
            events=events,
        )

    def _epoch_for(
        self, plan: FleetPlan | None, target_compute_us: float | None
    ) -> _Epoch:
        """The cached epoch for (membership, plan, target), built on a miss.

        A miss writes the old epoch's live temperatures back, then
        gathers the new membership's once.
        """
        key = self._epoch_key
        if (
            key is not None
            and key[0] == self._membership_epoch
            and key[1] is plan
            and key[2] == target_compute_us
        ):
            return self._epoch
        self._write_back()
        self._epoch = self._build_epoch(plan, target_compute_us)
        self._epoch_key = (self._membership_epoch, plan, target_compute_us)
        self._live = self._celsius[self._epoch.device_ids]
        return self._epoch

    def _write_back(self) -> None:
        """Bring the capacity-wide thermal state up to date.

        Idempotent: the live array stays the epoch's truth afterwards.
        """
        if self._live is not None:
            self._celsius[self._epoch.device_ids] = self._live

    def _build_epoch(
        self, plan: FleetPlan | None, target_compute_us: float | None
    ) -> _Epoch:
        act = self.active_ids
        n = act.size
        # Each active device's grid index; the maximum-frequency
        # baseline for plan=None and for devices the plan does not cover.
        top = self._grid.size - 1
        if plan is None:
            index = np.full(n, top)
        else:
            index = np.where(plan.covered[act], plan.freq_index[act], top)
        # Solve the grid points this epoch is the first to use.
        if not self._solved[index].all():
            for j in np.unique(index[~self._solved[index]]):
                self._solve(int(j))
        freqs = self._grid[index]
        # One flat gather into C-ordered (7, n) rows: coefficient r of
        # device i sits at (index[i] * 7 + r) * classes + class of i.
        # Fancy-indexing the 3-D stack would return strided rows, and
        # every warm step reads four of these rows.
        width = len(_DEVICE_COEFFICIENTS)
        classes = self._class_scales.size
        flat = (
            np.arange(width)[:, None] * classes
            + (index * (width * classes) + self._board_class[act])
        )
        coef = _read_only(np.take(self._coef, flat))
        arrival, e0a, e1a, e0s, e1s, p, q = coef
        idle_a0, idle_ga, idle_s0, idle_gs = np.take(self._idle, index, axis=1)

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

        ambient = _read_only(self._ambient[act])
        return _Epoch(
            device_ids=_read_only(act),
            ambient=ambient,
            arrival_us=arrival,
            wait_us=_read_only(wait),
            freq_mhz=_read_only(freqs),
            compute_us=compute_us,
            straggler_id=straggler_id,
            collective=collective,
            aicore_p=e0a,
            aicore_q=e1a,
            soc_p=e0s,
            soc_q=e1s,
            idle_aicore_p=_read_only(ia_p),
            idle_aicore_q=_read_only(ia_q),
            idle_soc_p=_read_only(is_p),
            idle_soc_q=_read_only(is_q),
            celsius_p=_read_only(ambient + p),
            celsius_q=_read_only(q),
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
