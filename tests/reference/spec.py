"""The looped reference's cluster description, and its fleet projections.

:class:`ClusterSpec` is the single-ring description the looped
:class:`~tests.reference.simulator.SimulatedCluster` is built from.  Its
:meth:`~ClusterSpec.device_profiles` is kept as the draw oracle for
:meth:`repro.fleet.spec.FleetSpec.device_profiles`: two standard-normal
draws per device from :data:`~repro.fleet.spec.VARIATION_STREAM`, in
device order, so profile ``i`` depends only on ``(seed, i)``, with the
clamped speed draw rounded to the nearest
:data:`~repro.fleet.spec.SPEED_BIN_WIDTH` bin.  It draws one scalar at a
time, the fleet one array for the whole capacity.

:func:`cluster_spec_of` and :func:`fleet_spec_of` map between the two
descriptions: a churn-free one-rack fleet and the cluster over its
first devices are the same silicon behind the same ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analysis.rng import RngFactory
from repro.errors import ConfigurationError
from repro.fleet.spec import (
    SPEED_BIN_WIDTH,
    VARIATION_STREAM,
    DeviceOverride,
    DeviceProfile,
    DeviceVariation,
    FleetSpec,
)
from repro.fleet.topology import FleetTopology, InterconnectSpec
from repro.npu.spec import NpuSpec, default_npu_spec


@dataclass(frozen=True)
class ClusterSpec:
    """Immutable description of one data-parallel cluster.

    Attributes:
        name: label used in reports.
        n_devices: ring size.
        npu: the nominal accelerator every device is built from.
        variation: statistical spread of the per-device draws.
        interconnect: ring-link characteristics.
        gradient_bytes: all-reduce payload per training step (the
            gradient size of the replicated model).
        seed: root seed of the per-device variation draws.
        overrides: explicit per-device conditions (degradation).
    """

    name: str = "ring-cluster"
    n_devices: int = 8
    npu: NpuSpec = field(default_factory=default_npu_spec)
    variation: DeviceVariation = field(default_factory=DeviceVariation)
    interconnect: InterconnectSpec = field(default_factory=InterconnectSpec)
    gradient_bytes: float = 64 * 2**20
    seed: int = 0
    overrides: tuple[DeviceOverride, ...] = ()

    def __post_init__(self) -> None:
        if self.n_devices < 1:
            raise ConfigurationError(
                f"n_devices must be >= 1: {self.n_devices}"
            )
        if self.gradient_bytes < 0:
            raise ConfigurationError(
                f"gradient_bytes must be non-negative: {self.gradient_bytes}"
            )
        seen: set[int] = set()
        for override in self.overrides:
            if override.device_id >= self.n_devices:
                raise ConfigurationError(
                    f"override targets device {override.device_id}, but the "
                    f"cluster has {self.n_devices} devices"
                )
            if override.device_id in seen:
                raise ConfigurationError(
                    f"duplicate override for device {override.device_id}"
                )
            seen.add(override.device_id)

    @property
    def allreduce_us(self) -> float:
        """Per-step gradient-exchange time on this cluster."""
        return self.interconnect.allreduce_us(
            self.gradient_bytes, self.n_devices
        )

    def device_profiles(self) -> tuple[DeviceProfile, ...]:
        """The seeded per-device draws, overrides applied.

        Each device consumes exactly two draws (speed, ambient) from the
        :data:`VARIATION_STREAM` generator, in device order, so profile
        ``i`` depends only on ``(seed, i)`` — growing the cluster appends
        devices without re-rolling the existing ones.  The clamped speed
        draw is rounded to its speed bin.
        """
        rng = RngFactory(self.seed).generator(VARIATION_STREAM)
        by_id = {override.device_id: override for override in self.overrides}
        profiles: list[DeviceProfile] = []
        for device_id in range(self.n_devices):
            speed_draw = float(rng.standard_normal())
            ambient_draw = float(rng.standard_normal())
            spread = self.variation.max_speed_spread
            scale = 1.0 + self.variation.speed_sigma * speed_draw
            scale = min(1.0 + spread, max(1.0 - spread, scale))
            speed_bin = round((scale - 1.0) / SPEED_BIN_WIDTH)
            scale = 1.0 + speed_bin * SPEED_BIN_WIDTH
            ambient = self.variation.ambient_sigma_celsius * ambient_draw
            cap = self.variation.max_ambient_spread_celsius
            ambient = min(cap, max(-cap, ambient))
            override = by_id.get(device_id)
            profiles.append(
                DeviceProfile(
                    device_id=device_id,
                    duration_scale=scale,
                    ambient_offset_celsius=ambient,
                    extra_duration_scale=(
                        override.extra_duration_scale if override else 1.0
                    ),
                    override_reason=override.reason if override else "",
                )
            )
        return tuple(profiles)

    def with_degraded_device(
        self, device_id: int, slowdown: float, reason: str = "degraded"
    ) -> "ClusterSpec":
        """A copy with one device explicitly slowed by ``slowdown``x."""
        override = DeviceOverride(
            device_id=device_id,
            extra_duration_scale=slowdown,
            reason=reason,
        )
        kept = tuple(
            o for o in self.overrides if o.device_id != device_id
        )
        return replace(self, overrides=kept + (override,))


def cluster_spec_of(
    spec: FleetSpec, n_devices: int | None = None
) -> ClusterSpec:
    """The single-ring cluster view of a fleet's first devices.

    With the default ``n_devices`` this is the N<=16 reference the
    fleet is equivalence-tested against: identical seed and variation
    (so identical profiles), the intra-rack interconnect, and the same
    gradient payload.
    """
    return ClusterSpec(
        name=spec.name,
        n_devices=spec.n_devices if n_devices is None else n_devices,
        npu=spec.npu,
        variation=spec.variation,
        interconnect=spec.topology.intra,
        gradient_bytes=spec.gradient_bytes,
        seed=spec.seed,
        overrides=spec.overrides,
    )


def fleet_spec_of(spec: ClusterSpec) -> FleetSpec:
    """A cluster as a one-rack fleet (intra links preserved).

    A cluster is one ring, so the fleet is a single rack of
    ``spec.n_devices``: its collective is the cluster's ring all-reduce
    at any size.
    """
    return FleetSpec(
        name=spec.name,
        n_devices=spec.n_devices,
        npu=spec.npu,
        variation=spec.variation,
        topology=FleetTopology(
            devices_per_rack=spec.n_devices, intra=spec.interconnect
        ),
        gradient_bytes=spec.gradient_bytes,
        seed=spec.seed,
        overrides=spec.overrides,
    )
