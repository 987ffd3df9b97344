"""Fleet description: a rack-structured population of varied devices.

:class:`FleetSpec` combines the cluster layer's device model — the
:class:`~repro.cluster.spec.DeviceVariation` spread and the explicit
:class:`~repro.cluster.spec.DeviceOverride` degradations — with a
rack-structured :class:`~repro.fleet.topology.FleetTopology` and elastic
:class:`~repro.fleet.churn.ChurnConfig` dynamics.  A single ring (the
``python -m repro.cluster`` fleet) is a spec whose one rack holds every
device.

Capacity is provisioned up front: profiles are drawn for
``n_devices + churn.max_joins`` boards so later joins activate
pre-drawn spares without re-rolling anyone.  Each board consumes
exactly two draws (speed, ambient) from the
:data:`~repro.cluster.spec.VARIATION_STREAM` generator, in device
order, so profile ``i`` depends only on ``(seed, i)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.analysis.rng import RngFactory
from repro.cluster.spec import (
    VARIATION_STREAM,
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
        if self.gradient_bytes < 0:
            raise ConfigurationError(
                f"gradient_bytes must be non-negative: {self.gradient_bytes}"
            )
        seen: set[int] = set()
        for override in self.overrides:
            if override.device_id >= self.capacity:
                raise ConfigurationError(
                    f"override targets device {override.device_id}, but the "
                    f"fleet has {self.capacity} devices"
                )
            if override.device_id in seen:
                raise ConfigurationError(
                    f"duplicate override for device {override.device_id}"
                )
            seen.add(override.device_id)

    @property
    def capacity(self) -> int:
        """Provisioned boards: the initial fleet plus join spares."""
        return self.n_devices + self.churn.max_joins

    def device_profiles(self) -> tuple[DeviceProfile, ...]:
        """Seeded draws for every provisioned board (spares included).

        Drawn on the first call and returned from then on: the spec is
        immutable, so the simulator, the store keys and the fleet
        fingerprints all share one draw.
        """
        return self._profiles

    @cached_property
    def _profiles(self) -> tuple[DeviceProfile, ...]:
        rng = RngFactory(self.seed).generator(VARIATION_STREAM)
        by_id = {override.device_id: override for override in self.overrides}
        variation = self.variation
        spread = variation.max_speed_spread
        cap = variation.max_ambient_spread_celsius
        profiles: list[DeviceProfile] = []
        for device_id in range(self.capacity):
            speed_draw = float(rng.standard_normal())
            ambient_draw = float(rng.standard_normal())
            scale = 1.0 + variation.speed_sigma * speed_draw
            scale = min(1.0 + spread, max(1.0 - spread, scale))
            ambient = variation.ambient_sigma_celsius * ambient_draw
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
