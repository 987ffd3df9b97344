"""Fingerprinting and store-backed caching of per-device strategies.

A reclaimed cluster plan is just one single-device strategy per device,
so the existing :class:`repro.serve.store.StrategyStore` persists it
unchanged — one record per ``(trace, cluster config, device profile)``
fingerprint.  A cluster that re-submits the same training job (the
normal case, per the paper's Sect. 8.1 amortization argument) then pays
zero frequency-table builds: every device's plan is a store hit.  A
fleet simulator builds its duration table once and keeps it, so there
the store saves the reclamation pass itself and lets a new process
reuse plans another one computed.

Fingerprints follow the serve package's discipline: the trace hash
excludes the name, the config hash covers every knob the plan depends
on (cluster topology, interconnect, variation, gradient payload,
reclamation margin, root seed), and the per-device spec hash covers the
nominal hardware *plus* the device's realised profile — a degraded or
re-binned device changes its own fingerprint and nobody else's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.dvfs import (
    ClusterStrategy,
    build_frequency_tables,
    reclaim_slack,
)
from repro.cluster.simulator import SimulatedCluster
from repro.cluster.spec import ClusterSpec, DeviceProfile
from repro.serve.fingerprint import (
    combine_fingerprints,
    payload_fingerprint,
    spec_fingerprint,
    trace_fingerprint,
)
from repro.serve.store import StrategyStore
from repro.workloads.trace import Trace


def cluster_config_hash(spec: ClusterSpec, slack_margin: float = 0.0) -> str:
    """Hash of every cluster-level knob a reclaimed plan depends on."""
    return payload_fingerprint(
        "cluster_config",
        {
            "n_devices": spec.n_devices,
            "variation": spec.variation,
            "interconnect": spec.interconnect,
            "gradient_bytes": spec.gradient_bytes,
            "seed": spec.seed,
            "slack_margin": slack_margin,
        },
    )


def device_spec_hash(spec: ClusterSpec, profile: DeviceProfile) -> str:
    """Hash of one device's hardware: nominal spec + realised profile."""
    return payload_fingerprint(
        "cluster_device",
        {
            "npu": spec_fingerprint(spec.npu),
            "profile": profile,
        },
    )


def device_request_fingerprint(
    trace: Trace,
    spec: ClusterSpec,
    profile: DeviceProfile,
    slack_margin: float = 0.0,
) -> str:
    """The store key for one device's share of a cluster plan."""
    return combine_fingerprints(
        trace_fingerprint(trace),
        cluster_config_hash(spec, slack_margin),
        device_spec_hash(spec, profile),
    )


@dataclass(frozen=True)
class CachedReclaimResult:
    """A cluster plan plus where its device strategies came from."""

    strategy: ClusterStrategy
    #: Store hits, per device order (True = served from the store).
    hits: tuple[bool, ...]
    #: Whether the frequency tables had to be built this call.
    computed: bool

    @property
    def hit_count(self) -> int:
        """How many device strategies the store served."""
        return sum(self.hits)


def cached_reclaim(
    cluster: SimulatedCluster,
    trace: Trace,
    store: StrategyStore,
    workers: int = 0,
    slack_margin: float = 0.0,
) -> CachedReclaimResult:
    """Slack reclamation through the persistent strategy store.

    On a full hit the plan is reassembled from the stored per-device
    strategies without touching the devices; on any miss the frequency
    tables are built (fanned out over ``workers`` processes), the plan
    is recomputed, and every device's strategy is persisted.  Both paths
    produce byte-identical strategies — the stored record *is* the
    reclamation output.
    """
    spec = cluster.spec
    config_hash = cluster_config_hash(spec, slack_margin)
    fingerprints: list[str] = []
    spec_hashes: list[str] = []
    for profile in cluster.profiles:
        spec_hashes.append(device_spec_hash(spec, profile))
        fingerprints.append(
            device_request_fingerprint(trace, spec, profile, slack_margin)
        )
    lookups = [
        store.lookup(fingerprint, config_hash, spec_hash)
        for fingerprint, spec_hash in zip(fingerprints, spec_hashes)
    ]
    hits = tuple(hit is not None for hit in lookups)
    if all(hits):
        strategies = tuple(hit.strategy for hit in lookups)
        predicted = tuple(
            strategy.plans[-1].start_us + strategy.plans[-1].duration_us
            for strategy in strategies
        )
        target = max(predicted)
        return CachedReclaimResult(
            strategy=ClusterStrategy(
                workload=trace.name,
                # The tightest barrier the stored plans were built for:
                # the straggler's predicted arrival.
                target_compute_us=target,
                allreduce_us=spec.allreduce_us,
                straggler_id=predicted.index(target),
                frequencies_mhz=tuple(
                    strategy.plans[-1].freq_mhz for strategy in strategies
                ),
                predicted_compute_us=predicted,
                strategies=strategies,
            ),
            hits=hits,
            computed=False,
        )
    tables = build_frequency_tables(cluster, trace, workers=workers)
    strategy = reclaim_slack(
        tables,
        trace.name,
        allreduce_us=spec.allreduce_us,
        slack_margin=slack_margin,
    )
    for fingerprint, spec_hash, device_strategy in zip(
        fingerprints, spec_hashes, strategy.strategies
    ):
        store.put(fingerprint, device_strategy, config_hash, spec_hash)
    return CachedReclaimResult(strategy=strategy, hits=hits, computed=True)


# -- Fleet-scale reclamation through the store ---------------------------
#
# The fleet layer (:mod:`repro.fleet`) sits above the cluster package in
# the import order (its spec embeds a ClusterSpec), so everything below
# imports fleet types lazily inside the function bodies.


def fleet_config_hash(
    spec,
    active_ids: tuple[int, ...],
    slack_margin: float = 0.0,
) -> str:
    """Hash of every fleet-level knob a reclaimed fleet plan depends on.

    Unlike :func:`cluster_config_hash`, the *membership* is part of the
    key: the barrier target is the straggler's arrival over the devices
    that are active right now, so a plan cached for one membership must
    not be served to another (e.g. after the straggler left).
    """
    return payload_fingerprint(
        "fleet_config",
        {
            "n_devices": spec.n_devices,
            "capacity": spec.capacity,
            "variation": spec.variation,
            "topology": spec.topology,
            "gradient_bytes": spec.gradient_bytes,
            "seed": spec.seed,
            "slack_margin": slack_margin,
            "active": tuple(int(i) for i in active_ids),
        },
    )


def fleet_device_fingerprint(
    trace: Trace,
    spec,
    active_ids: tuple[int, ...],
    device_id: int,
    slack_margin: float = 0.0,
) -> str:
    """The store key for one fleet device's share of a reclaimed plan."""
    profile = spec.device_profiles()[device_id]
    return combine_fingerprints(
        trace_fingerprint(trace),
        fleet_config_hash(spec, active_ids, slack_margin),
        device_spec_hash(spec.cluster_spec(), profile),
    )


@dataclass(frozen=True)
class FleetCachedReclaimResult:
    """A fleet plan plus where its device strategies came from."""

    #: A :class:`repro.fleet.simulator.FleetPlan`.
    plan: object
    #: Store hits, per active device in id order.
    hits: tuple[bool, ...]
    #: Whether reclamation ran this call (False: every device was a hit).
    computed: bool

    @property
    def hit_count(self) -> int:
        """How many device strategies the store served."""
        return sum(self.hits)


def fleet_cached_reclaim(
    sim,
    store: StrategyStore,
    slack_margin: float = 0.0,
) -> FleetCachedReclaimResult:
    """Fleet slack reclamation through the persistent strategy store.

    The fleet analogue of :func:`cached_reclaim`: on a full hit the
    :class:`~repro.fleet.simulator.FleetPlan` is reassembled from the
    stored per-device strategies without running reclamation (and
    without touching the simulator's duration table); on any miss the
    vectorized reclamation runs and every active device's strategy is
    persisted.  Both paths produce byte-identical per-device strategies
    and read-only plans, so a fleet resubmitting the same job (same
    trace, same membership) runs no reclamation at all.
    """
    import numpy as np

    from repro.fleet.dvfs import plan_strategies, reclaim_fleet_slack
    from repro.fleet.simulator import FleetPlan

    spec = sim.spec
    trace = sim.trace
    active = tuple(int(i) for i in sim.active_ids)
    config_hash = fleet_config_hash(spec, active, slack_margin)
    trace_hash = trace_fingerprint(trace)
    profiles = spec.device_profiles()
    spec_hashes = [
        device_spec_hash(spec.cluster_spec(), profiles[i]) for i in active
    ]
    fingerprints = [
        combine_fingerprints(trace_hash, config_hash, spec_hash)
        for spec_hash in spec_hashes
    ]
    lookups = [
        store.lookup(fingerprint, config_hash, spec_hash)
        for fingerprint, spec_hash in zip(fingerprints, spec_hashes)
    ]
    hits = tuple(hit is not None for hit in lookups)
    if all(hits):
        grid = tuple(float(f) for f in spec.npu.frequencies.points)
        capacity = spec.capacity
        freq_index = np.full(capacity, len(grid) - 1, dtype=np.intp)
        freq_mhz = np.full(capacity, grid[-1], dtype=float)
        predicted = np.zeros(capacity, dtype=float)
        covered = np.zeros(capacity, dtype=bool)
        for device_id, hit in zip(active, lookups):
            plan = hit.strategy.plans[-1]
            freq_index[device_id] = grid.index(plan.freq_mhz)
            freq_mhz[device_id] = plan.freq_mhz
            predicted[device_id] = plan.start_us + plan.duration_us
            covered[device_id] = True
        arrivals = predicted[list(active)]
        # The tightest barrier the stored plans were built for: the
        # straggler's predicted arrival (mirrors cached_reclaim).
        target = float(arrivals.max())
        straggler_id = int(active[int(np.argmax(arrivals))])
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
        fingerprints, spec_hashes, plan_strategies(plan)
    ):
        store.put(fingerprint, device_strategy, config_hash, spec_hash)
    return FleetCachedReclaimResult(plan=plan, hits=hits, computed=True)
