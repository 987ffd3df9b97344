"""Multi-device data-parallel training with cluster-aware DVFS.

The paper optimises one NPU at a time; its deployment story (Sect. 8.1)
is synchronous data-parallel fleets, where per-device DVFS interacts
with the all-reduce barrier: slowing the critical device stalls every
peer, while slowing a non-critical device is free.  This package holds
the per-device model and the policies; the barrier step itself runs on
:class:`repro.fleet.simulator.FleetSimulator`, with a cluster described
as a one-rack :class:`repro.fleet.spec.FleetSpec`:

* :mod:`repro.cluster.spec` — seeded per-device variation (silicon speed
  bins, rack thermal gradients) plus explicit degradation overrides;
* :mod:`repro.cluster.collective` — the ring all-reduce cost law;
* :mod:`repro.cluster.dvfs` — the fleet ``energy x step-time`` GA over
  the existing :mod:`repro.dvfs.ga`, fed by the fleet simulator's arrays;
* :mod:`repro.cluster.serve` — per-device strategy fingerprints and
  store-backed slack reclamation through :mod:`repro.serve`.

Run ``python -m repro.cluster`` for a quick fleet demo.
"""

from repro.cluster.collective import InterconnectSpec
from repro.cluster.dvfs import (
    ClusterScoreBreakdown,
    ClusterScorer,
    search_cluster_frequencies,
)
from repro.cluster.serve import fleet_cached_reclaim, fleet_device_fingerprint
from repro.cluster.spec import (
    DeviceOverride,
    DeviceProfile,
    DeviceVariation,
)

__all__ = [
    "ClusterScoreBreakdown",
    "ClusterScorer",
    "DeviceOverride",
    "DeviceProfile",
    "DeviceVariation",
    "InterconnectSpec",
    "fleet_cached_reclaim",
    "fleet_device_fingerprint",
    "search_cluster_frequencies",
]
