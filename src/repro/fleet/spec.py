"""Fleet description: a rack-structured population of varied devices.

Real fleets are not N copies of the datasheet chip.  Silicon speed
binning spreads operator latency a few percent between dies, and rack
thermal gradients put some boards in warmer air than others.  Both
matter for synchronous data-parallel training: the *slowest* device sets
the step time, so per-device variation is precisely what creates the
reclaimable slack on every other device.

:class:`DeviceVariation` is the statistical spread, :class:`DeviceOverride`
an explicit degradation, and :class:`DeviceProfile` one board's realised
draw.  :class:`FleetSpec` combines them with a rack-structured
:class:`~repro.fleet.topology.FleetTopology` and elastic
:class:`~repro.fleet.churn.ChurnConfig` dynamics.  A single ring is a
spec whose one rack holds every device.

Speed binning is literal: a die's clamped speed draw is rounded to the
nearest of a fixed set of bins, ``scale = 1 + k * SPEED_BIN_WIDTH``, the
way dies leave wafer sort in a few discrete speed grades.  Boards of one
bin share every per-frequency solution, so the fleet compiles once per
speed class (:mod:`repro.fleet.simulator`), and a degraded board is a
class of its own through its combined duration scale.  The board
ambient stays a continuous draw.

Capacity is provisioned up front: profiles are drawn for
``n_devices + churn.max_joins`` boards so later joins activate
pre-drawn spares without re-rolling anyone.  Profiles come from the
repo's standard seeded-stream plumbing
(:class:`repro.analysis.rng.RngFactory`, stream :data:`VARIATION_STREAM`)
with a *fixed number of draws per board* — two (speed, ambient), in
device order — so profile ``i`` depends only on ``(seed, i)`` and stays
stable under any later extension of the drawing code, the same
discipline :mod:`repro.npu.faults` uses.  All draws are one
``standard_normal(2 * capacity)`` call, which a NumPy generator
fills with the same stream as ``2 * capacity`` scalar draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from repro.analysis.rng import RngFactory
from repro.errors import ConfigurationError
from repro.fleet.churn import ChurnConfig
from repro.fleet.topology import FleetTopology
from repro.npu.spec import NpuSpec, default_npu_spec


#: Stream name the per-device variation draws come from.  The name seeds
#: every draw, so renaming it would re-roll every board's profile.
VARIATION_STREAM = "cluster-variation"

#: Width of one speed bin, as a fraction of the nominal duration scale.
#: Rounding to the nearest bin moves a die by at most half a bin, 0.25%,
#: which is half the fleet's barrier-overrun tolerance
#: (:data:`repro.fleet.simulator.BARRIER_OVERRUN_TOLERANCE`, 0.5%) and a
#: quarter of the profiler's 1% per-operator duration jitter
#: (:attr:`repro.npu.spec.NoiseSpec.duration_sigma`): a plan made for a
#: die's bin never reads as late against its unrounded speed, and no
#: profiled operator could tell the two apart.  The default +-10% clamp
#: holds 41 bins.
SPEED_BIN_WIDTH = 0.005


@dataclass(frozen=True)
class DeviceVariation:
    """Statistical spread of the per-device silicon/thermal draws.

    Attributes:
        speed_sigma: relative sigma of the operator-duration scale
            before binning; 0.03 spreads dies a few percent.
        max_speed_spread: clamp on the duration scale, as a fraction
            around 1.0 (0.10 keeps every die within +-10%); the clamped
            draw is then rounded to a :data:`SPEED_BIN_WIDTH` bin, which
            may sit up to half a bin past a clamp that is not a bin edge.
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
        device_id: position in the fleet (also the ring order).
        duration_scale: operator-duration multiplier of the die's speed
            bin, ``1 + k * SPEED_BIN_WIDTH`` (1.0 nominal, > 1 slower).
        ambient_offset_celsius: board ambient relative to the fleet's
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

        Built from :attr:`duration_scales`' draw on the first call and
        returned from then on: the spec is immutable, so its object
        readers (the looped reference under ``tests/reference`` and
        ``examples/cluster_training.py``) share one draw.  Array readers
        (the simulator) read :attr:`duration_scales` and
        :attr:`ambient_offsets_celsius` and never build the profiles.
        """
        return self._profiles

    @property
    def duration_scales(self) -> np.ndarray:
        """Every board's combined operator-duration multiplier.

        Read-only, in device order: the binned speed draw times any
        override's ``extra_duration_scale``, the float each profile's
        :attr:`DeviceProfile.total_duration_scale` returns.
        """
        return self._board_arrays[1]

    @property
    def ambient_offsets_celsius(self) -> np.ndarray:
        """Every board's ambient offset from the nominal, read-only."""
        return self._board_arrays[2]

    @cached_property
    def _board_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Binned speed scale, combined scale and ambient offset per board."""
        rng = RngFactory(self.seed).generator(VARIATION_STREAM)
        variation = self.variation
        # Row i holds board i's (speed, ambient) draws.
        draws = rng.standard_normal(2 * self.capacity).reshape(-1, 2)
        spread = variation.max_speed_spread
        scale = 1.0 + variation.speed_sigma * draws[:, 0]
        np.clip(scale, 1.0 - spread, 1.0 + spread, out=scale)
        bins = np.rint((scale - 1.0) / SPEED_BIN_WIDTH)
        scale = 1.0 + bins * SPEED_BIN_WIDTH
        cap = variation.max_ambient_spread_celsius
        ambient = variation.ambient_sigma_celsius * draws[:, 1]
        np.clip(ambient, -cap, cap, out=ambient)
        total = scale.copy()
        for override in self.overrides:
            total[override.device_id] *= override.extra_duration_scale
        for array in (scale, total, ambient):
            array.setflags(write=False)
        return scale, total, ambient

    @cached_property
    def _profiles(self) -> tuple[DeviceProfile, ...]:
        scale, _, ambient = self._board_arrays
        profiles = [
            DeviceProfile(
                device_id=device_id,
                duration_scale=speed,
                ambient_offset_celsius=offset,
            )
            for device_id, (speed, offset) in enumerate(
                zip(scale.tolist(), ambient.tolist())
            )
        ]
        for override in self.overrides:
            profiles[override.device_id] = replace(
                profiles[override.device_id],
                extra_duration_scale=override.extra_duration_scale,
                override_reason=override.reason,
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
