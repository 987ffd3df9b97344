"""Per-device variation: the silicon and thermal spread of a fleet.

Real fleets are not N copies of the datasheet chip.  Silicon speed
binning spreads operator latency a few percent between dies, and rack
thermal gradients put some boards in warmer air than others.  Both
matter for synchronous data-parallel training: the *slowest* device sets
the step time, so per-device variation is precisely what creates the
reclaimable slack on every other device.

:class:`DeviceVariation` is the statistical spread, :class:`DeviceOverride`
an explicit degradation, and :class:`DeviceProfile` one board's realised
draw.  :meth:`repro.fleet.spec.FleetSpec.device_profiles` draws the
profiles from the repo's standard seeded-stream plumbing
(:class:`repro.analysis.rng.RngFactory`, stream :data:`VARIATION_STREAM`),
with a *fixed number of draws per device* so profiles are stable under
any later extension of the drawing code — the same discipline
:mod:`repro.npu.faults` uses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.npu.spec import NpuSpec

#: Stream name the per-device variation draws come from.
VARIATION_STREAM = "cluster-variation"


@dataclass(frozen=True)
class DeviceVariation:
    """Statistical spread of the per-device silicon/thermal draws.

    Attributes:
        speed_sigma: relative sigma of the operator-duration scale
            (speed binning); 0.03 spreads dies a few percent.
        max_speed_spread: clamp on the duration scale, as a fraction
            around 1.0 (0.10 keeps every die within +-10%).
        ambient_sigma_celsius: sigma of the per-board ambient offset
            (rack thermal gradient).
        max_ambient_spread_celsius: clamp on the ambient offset.
    """

    speed_sigma: float = 0.03
    max_speed_spread: float = 0.10
    ambient_sigma_celsius: float = 2.0
    max_ambient_spread_celsius: float = 8.0

    def __post_init__(self) -> None:
        for name in (
            "speed_sigma",
            "max_speed_spread",
            "ambient_sigma_celsius",
            "max_ambient_spread_celsius",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.max_speed_spread >= 1.0:
            raise ConfigurationError(
                f"max_speed_spread must be < 1: {self.max_speed_spread}"
            )

    @classmethod
    def none(cls) -> "DeviceVariation":
        """Identical devices (useful as an experimental control)."""
        return cls(
            speed_sigma=0.0,
            max_speed_spread=0.0,
            ambient_sigma_celsius=0.0,
            max_ambient_spread_celsius=0.0,
        )


@dataclass(frozen=True)
class DeviceOverride:
    """An explicit per-device condition layered over the seeded draws.

    Attributes:
        device_id: which device the override applies to.
        extra_duration_scale: additional operator-duration multiplier
            (> 1 models in-field degradation: aging, derating, a stuck
            fan forcing a thermal offset into timing margins).
        reason: free-form tag describing the condition.
    """

    device_id: int
    extra_duration_scale: float = 1.0
    reason: str = ""

    def __post_init__(self) -> None:
        if self.device_id < 0:
            raise ConfigurationError(
                f"device_id must be >= 0: {self.device_id}"
            )
        if self.extra_duration_scale <= 0:
            raise ConfigurationError(
                f"extra_duration_scale must be positive: "
                f"{self.extra_duration_scale}"
            )


@dataclass(frozen=True)
class DeviceProfile:
    """One device's realised variation (the output of the seeded draws).

    Attributes:
        device_id: position in the cluster (also the ring order).
        duration_scale: operator-duration multiplier from speed binning
            (1.0 nominal, > 1 slower).
        ambient_offset_celsius: board ambient relative to the cluster's
            nominal ambient.
        extra_duration_scale: explicit degradation multiplier from a
            :class:`DeviceOverride` (1.0 when healthy).
        override_reason: the override's tag (empty when healthy).
    """

    device_id: int
    duration_scale: float
    ambient_offset_celsius: float
    extra_duration_scale: float = 1.0
    override_reason: str = ""

    @property
    def total_duration_scale(self) -> float:
        """Combined operator-duration multiplier (binning x degradation)."""
        return self.duration_scale * self.extra_duration_scale

    @property
    def degraded(self) -> bool:
        """Whether an explicit degradation override applies."""
        return self.extra_duration_scale != 1.0

    def npu_for(self, base: NpuSpec) -> NpuSpec:
        """The per-device hardware spec: base with this board's ambient."""
        if self.ambient_offset_celsius == 0.0:
            return base
        return replace(
            base,
            thermal=replace(
                base.thermal,
                ambient_celsius=base.thermal.ambient_celsius
                + self.ambient_offset_celsius,
            ),
        )
