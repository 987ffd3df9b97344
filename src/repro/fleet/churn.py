"""Seeded elastic fleet dynamics: device join / leave / fail.

Real fleets are elastic: preemptible capacity joins mid-run, nodes are
drained for maintenance, and boards fail outright.  The fleet simulator
models all three as seeded events between steps, with the same
determinism discipline as :mod:`repro.npu.faults` and the per-device
variation draws of :mod:`repro.fleet.spec`:

* every step draws from its **own** named stream
  (``fleet-churn-<step>``), so the events of step ``s`` depend only on
  ``(seed, s)`` and the configured rates — running more steps, or
  re-running after a crash, replays the identical history;
* event counts are Poisson draws; victims are picked by one vectorised
  integer draw mapped onto the *current* active membership, so the
  same seed on the same config always removes the same devices.

Capacity for joins is pre-provisioned: a :class:`FleetSpec` draws
variation profiles for ``n_devices + max_joins`` boards up front (the
profile of board ``i`` depends only on ``(seed, i)``, so the spare
boards never perturb the initial fleet), and joins activate them in id
order.  The simulator applies the events, enforces the ``min_active``
floor, and re-shards the survivors into racks deterministically (active
ids in order, chunked by rack size).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.rng import RngFactory
from repro.errors import ConfigurationError

#: Stream-name prefix of the per-step churn draws.
CHURN_STREAM = "fleet-churn"


@dataclass(frozen=True)
class ChurnConfig:
    """Rates of the per-step churn events.

    Attributes:
        join_rate: expected joins per step (Poisson), activating
            pre-provisioned spare boards in id order.
        leave_rate: expected graceful leaves per step (drains).
        fail_rate: expected hard failures per step.
        max_joins: how many spare boards the fleet provisions; joins
            beyond this are logged and dropped.
        min_active: floor on the active fleet size; leaves/fails that
            would cross it are logged as skipped.
    """

    join_rate: float = 0.0
    leave_rate: float = 0.0
    fail_rate: float = 0.0
    max_joins: int = 0
    min_active: int = 1

    def __post_init__(self) -> None:
        for name in ("join_rate", "leave_rate", "fail_rate"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.max_joins < 0:
            raise ConfigurationError(
                f"max_joins must be non-negative: {self.max_joins}"
            )
        if self.min_active < 1:
            raise ConfigurationError(
                f"min_active must be >= 1: {self.min_active}"
            )

    @classmethod
    def none(cls) -> "ChurnConfig":
        """A static fleet (no churn, no spare capacity)."""
        return cls()

    @property
    def any_active(self) -> bool:
        """Whether any event rate is non-zero."""
        return (
            self.join_rate > 0 or self.leave_rate > 0 or self.fail_rate > 0
        )


@dataclass(frozen=True)
class FleetEvent:
    """One churn event, as applied (or skipped) by the simulator."""

    step: int
    #: ``join`` / ``leave`` / ``fail`` — or ``join_exhausted`` /
    #: ``churn_skipped`` when capacity or the ``min_active`` floor
    #: blocked the drawn event.
    kind: str
    device_id: int
    detail: str = ""

    def to_row(self) -> dict:
        """Table row (for :func:`repro.core.report.format_table`)."""
        return {
            "step": self.step,
            "event": self.kind,
            "device": self.device_id,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ChurnDraw:
    """The raw seeded draws for one step, before capacity/floor caps."""

    joins: int
    leaves: int
    fails: int
    #: One raw 63-bit integer per leave/fail, mapped onto the active
    #: membership (modulo its size) at application time.
    victim_raws: tuple[int, ...]


def draw_churn(config: ChurnConfig, seed: int, step: int) -> ChurnDraw:
    """The seeded churn draws for ``step``.

    Each step consumes a fixed draw sequence (three Poisson counts plus
    one vectorised victim draw) from its own ``fleet-churn-<step>``
    stream, so the draw depends only on ``(seed, step, config rates)``
    and is prefix-stable under longer runs.
    """
    if not config.any_active:
        return ChurnDraw(joins=0, leaves=0, fails=0, victim_raws=())
    rng = RngFactory(seed).generator(f"{CHURN_STREAM}-{step}")
    joins = int(rng.poisson(config.join_rate))
    leaves = int(rng.poisson(config.leave_rate))
    fails = int(rng.poisson(config.fail_rate))
    n_victims = leaves + fails
    raws = (
        tuple(int(v) for v in rng.integers(0, 2**63, size=n_victims))
        if n_victims
        else ()
    )
    return ChurnDraw(
        joins=joins, leaves=leaves, fails=fails, victim_raws=raws
    )
