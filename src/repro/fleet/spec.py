"""Fleet description: a rack-structured population of varied devices.

:class:`FleetSpec` composes the cluster layer's device model — the same
:class:`~repro.cluster.spec.DeviceVariation` draws, the same explicit
:class:`~repro.cluster.spec.DeviceOverride` degradations, the same
two-draws-per-device seeding discipline — with a rack-structured
:class:`~repro.fleet.topology.FleetTopology` and elastic
:class:`~repro.fleet.churn.ChurnConfig` dynamics.

The spec deliberately *is* a :class:`~repro.cluster.spec.ClusterSpec`
plus fleet structure: :meth:`FleetSpec.cluster_spec` projects it back
onto the single-ring cluster (same seed, same variation, the intra-rack
interconnect), which is what makes the looped ``SimulatedCluster`` an
exact small-N reference for the vectorized fleet — profiles come from
the identical draw stream, so device ``i`` is the same silicon in both
simulators.

Capacity is provisioned up front: profiles are drawn for
``n_devices + churn.max_joins`` boards so later joins activate
pre-drawn spares without re-rolling anyone (profile ``i`` depends only
on ``(seed, i)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cluster.spec import (
    ClusterSpec,
    DeviceOverride,
    DeviceProfile,
    DeviceVariation,
)
from repro.errors import ConfigurationError
from repro.fleet.churn import ChurnConfig
from repro.fleet.topology import FleetTopology
from repro.npu.spec import NpuSpec, default_npu_spec


@dataclass(frozen=True)
class FleetSpec:
    """Immutable description of one elastic training fleet.

    Attributes:
        name: label used in reports.
        n_devices: initially-active fleet size.
        npu: the nominal accelerator every board is built from.
        variation: statistical spread of the per-device draws.
        topology: rack structure and interconnect grades.
        gradient_bytes: all-reduce payload per training step.
        seed: root seed of variation and churn draws.
        overrides: explicit per-device conditions (degradation).
        churn: elastic join/leave/fail dynamics.
    """

    name: str = "fleet"
    n_devices: int = 64
    npu: NpuSpec = field(default_factory=default_npu_spec)
    variation: DeviceVariation = field(default_factory=DeviceVariation)
    topology: FleetTopology = field(default_factory=FleetTopology)
    gradient_bytes: float = 64 * 2**20
    seed: int = 0
    overrides: tuple[DeviceOverride, ...] = ()
    churn: ChurnConfig = field(default_factory=ChurnConfig.none)

    def __post_init__(self) -> None:
        if self.n_devices < 1:
            raise ConfigurationError(
                f"n_devices must be >= 1: {self.n_devices}"
            )
        if self.churn.min_active > self.n_devices:
            raise ConfigurationError(
                f"min_active ({self.churn.min_active}) exceeds the initial "
                f"fleet size ({self.n_devices})"
            )
        # Delegate the remaining validation (payload, override ids and
        # duplicates) to the cluster spec over the full capacity.
        self.cluster_spec(self.capacity)

    @property
    def capacity(self) -> int:
        """Provisioned boards: the initial fleet plus join spares."""
        return self.n_devices + self.churn.max_joins

    def cluster_spec(self, n_devices: int | None = None) -> ClusterSpec:
        """The single-ring cluster view of this fleet's first devices.

        With the default ``n_devices`` this is the N<=16 reference the
        fleet is equivalence-tested against: identical seed and
        variation (so identical profiles), the intra-rack interconnect,
        and the same gradient payload.
        """
        return ClusterSpec(
            name=self.name,
            n_devices=self.n_devices if n_devices is None else n_devices,
            npu=self.npu,
            variation=self.variation,
            interconnect=self.topology.intra,
            gradient_bytes=self.gradient_bytes,
            seed=self.seed,
            overrides=self.overrides,
        )

    def device_profiles(self) -> tuple[DeviceProfile, ...]:
        """Seeded draws for every provisioned board (spares included)."""
        return self.cluster_spec(self.capacity).device_profiles()

    def with_degraded_device(
        self, device_id: int, slowdown: float, reason: str = "degraded"
    ) -> "FleetSpec":
        """A copy with one board explicitly slowed by ``slowdown``x."""
        override = DeviceOverride(
            device_id=device_id,
            extra_duration_scale=slowdown,
            reason=reason,
        )
        kept = tuple(
            o for o in self.overrides if o.device_id != device_id
        )
        return replace(self, overrides=kept + (override,))

    @classmethod
    def from_cluster(
        cls,
        spec: ClusterSpec,
        topology: FleetTopology | None = None,
        churn: ChurnConfig | None = None,
    ) -> "FleetSpec":
        """Lift a cluster spec into a fleet (intra links preserved).

        A cluster is one ring, so the default topology is a single rack
        of ``spec.n_devices``: its collective is the cluster's ring
        all-reduce at any size.
        """
        return cls(
            name=spec.name,
            n_devices=spec.n_devices,
            npu=spec.npu,
            variation=spec.variation,
            topology=topology
            or FleetTopology(
                devices_per_rack=spec.n_devices, intra=spec.interconnect
            ),
            gradient_bytes=spec.gradient_bytes,
            seed=spec.seed,
            overrides=spec.overrides,
            churn=churn or ChurnConfig.none(),
        )
