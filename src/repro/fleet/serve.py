"""Fingerprinting and store-backed caching of per-device fleet plans.

A reclaimed fleet plan is just one constant single-device strategy per
active device, so the existing :class:`repro.serve.store.StrategyStore`
persists it unchanged — one record per ``(trace, fleet config, device
profile)`` fingerprint.  A fleet that re-submits the same training job
(the normal case, per the paper's Sect. 8.1 amortization argument) then
runs no reclamation: every device's plan is a store hit, and a new
process reuses plans another one computed.

Fingerprints follow the serve package's discipline: the trace hash
excludes the name, the config hash covers every knob the plan depends
on (membership, topology, variation, gradient payload, reclamation
margin, root seed), and the per-device spec hash covers the nominal
hardware *plus* the device's realised profile — a degraded or re-binned
device changes its own fingerprint and nobody else's.  The config hash
also covers the speed-bin width, so plans stored under other bins (or
from unbinned draws) miss cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fleet.dvfs import (
    barrier_target,
    plan_strategies,
    reclaim_fleet_slack,
)
from repro.fleet.simulator import FleetPlan, FleetSimulator
from repro.fleet.spec import SPEED_BIN_WIDTH, DeviceProfile, FleetSpec
from repro.serve.fingerprint import (
    combine_fingerprints,
    payload_fingerprint,
    spec_fingerprint,
    trace_fingerprint,
)
from repro.serve.store import StrategyStore
from repro.workloads.trace import Trace


def device_spec_hash(spec: FleetSpec, profile: DeviceProfile) -> str:
    """Hash of one device's hardware: nominal spec + realised profile.

    Only the spec's nominal ``npu`` enters the hash.  The payload kinds
    here and in :func:`fleet_config_hash` are part of every stored key,
    so they keep their names.
    """
    return _device_hash(spec_fingerprint(spec.npu), profile)


def _device_hash(npu_hash: str, profile: DeviceProfile) -> str:
    """:func:`device_spec_hash` given the nominal spec's own hash."""
    return payload_fingerprint(
        "cluster_device", {"npu": npu_hash, "profile": profile}
    )


def fleet_config_hash(
    spec: FleetSpec,
    active_ids: tuple[int, ...],
    slack_margin: float = 0.0,
) -> str:
    """Hash of every fleet-level knob a reclaimed fleet plan depends on.

    The *membership* is part of the key: the barrier target is the
    straggler's arrival over the devices that are active right now, so
    a plan cached for one membership must not be served to another
    (e.g. after the straggler left).  So is the speed-bin width: a
    board whose draw sits on a bin edge (a clamped die) keeps its
    profile across a change of bins, but its fleet's barrier does not.
    """
    return payload_fingerprint(
        "fleet_config",
        {
            "n_devices": spec.n_devices,
            "capacity": spec.capacity,
            "variation": spec.variation,
            "speed_bin_width": SPEED_BIN_WIDTH,
            "topology": spec.topology,
            "gradient_bytes": spec.gradient_bytes,
            "seed": spec.seed,
            "slack_margin": slack_margin,
            "active": tuple(int(i) for i in active_ids),
        },
    )


@dataclass(frozen=True)
class FleetKeys:
    """Store keys of one fleet membership, per active device in id order."""

    config_hash: str
    spec_hashes: tuple[str, ...]
    fingerprints: tuple[str, ...]


def fleet_device_fingerprints(
    trace: Trace,
    spec: FleetSpec,
    active_ids: tuple[int, ...],
    slack_margin: float = 0.0,
) -> FleetKeys:
    """The store keys for every active device's share of a reclaimed plan.

    The trace, the fleet config and the nominal ``NpuSpec`` are hashed
    once for the whole membership, so keying N devices costs one profile
    hash each (O(N), not O(N^2)).
    """
    trace_hash = trace_fingerprint(trace)
    config_hash = fleet_config_hash(spec, active_ids, slack_margin)
    npu_hash = spec_fingerprint(spec.npu)
    profiles = spec.device_profiles()
    spec_hashes = tuple(
        _device_hash(npu_hash, profiles[int(i)]) for i in active_ids
    )
    return FleetKeys(
        config_hash=config_hash,
        spec_hashes=spec_hashes,
        fingerprints=tuple(
            combine_fingerprints(trace_hash, config_hash, spec_hash)
            for spec_hash in spec_hashes
        ),
    )


@dataclass(frozen=True)
class FleetCachedReclaimResult:
    """A fleet plan plus where its device strategies came from."""

    plan: FleetPlan
    #: Store hits, per active device in id order.
    hits: tuple[bool, ...]
    #: Whether reclamation ran this call (False: every device was a hit).
    computed: bool

    @property
    def hit_count(self) -> int:
        """How many device strategies the store served."""
        return sum(self.hits)


def fleet_cached_reclaim(
    sim: FleetSimulator,
    store: StrategyStore,
    slack_margin: float = 0.0,
) -> FleetCachedReclaimResult:
    """Fleet slack reclamation through the persistent strategy store.

    On a full hit the :class:`~repro.fleet.simulator.FleetPlan` is
    reassembled from the stored per-device strategies without running
    reclamation; on any miss the vectorized reclamation runs and every
    active device's strategy is persisted.  The barrier target and the
    straggler come from the simulator's maximum-frequency arrivals on
    both paths (:func:`repro.fleet.dvfs.barrier_target`), so a warm plan
    equals the cold one field for field at any ``slack_margin``.
    """
    spec = sim.spec
    trace = sim.trace
    active = tuple(int(i) for i in sim.active_ids)
    keys = fleet_device_fingerprints(trace, spec, active, slack_margin)
    lookups = [
        store.lookup(fingerprint, keys.config_hash, spec_hash)
        for fingerprint, spec_hash in zip(keys.fingerprints, keys.spec_hashes)
    ]
    hits = tuple(hit is not None for hit in lookups)
    if all(hits):
        grid = tuple(float(f) for f in spec.npu.frequencies.points)
        capacity = spec.capacity
        freq_index = np.full(capacity, len(grid) - 1, dtype=np.intp)
        freq_mhz = np.full(capacity, grid[-1], dtype=float)
        # Devices the plan does not cover keep their maximum-frequency
        # arrival, as in reclaim_fleet_slack.
        predicted = sim.duration_table()[:, -1].copy()
        covered = np.zeros(capacity, dtype=bool)
        for device_id, hit in zip(active, lookups):
            plan = hit.strategy.plans[-1]
            freq_index[device_id] = grid.index(plan.freq_mhz)
            freq_mhz[device_id] = plan.freq_mhz
            predicted[device_id] = plan.start_us + plan.duration_us
            covered[device_id] = True
        target, straggler_id = barrier_target(sim, slack_margin)
        return FleetCachedReclaimResult(
            plan=FleetPlan(
                workload=trace.name,
                target_compute_us=target,
                straggler_id=straggler_id,
                freqs_mhz=grid,
                freq_index=freq_index,
                freq_mhz=freq_mhz,
                predicted_us=predicted,
                covered=covered,
            ),
            hits=hits,
            computed=False,
        )
    plan = reclaim_fleet_slack(sim, slack_margin=slack_margin)
    for fingerprint, spec_hash, device_strategy in zip(
        keys.fingerprints, keys.spec_hashes, plan_strategies(plan)
    ):
        store.put(fingerprint, device_strategy, keys.config_hash, spec_hash)
    return FleetCachedReclaimResult(plan=plan, hits=hits, computed=True)
