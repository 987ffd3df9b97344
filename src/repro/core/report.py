"""Result containers and formatting for end-to-end optimization runs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dvfs.ga import GaResult
from repro.dvfs.guard import Incident
from repro.dvfs.scoring import ScoreBreakdown
from repro.dvfs.strategy import DvfsStrategy
from repro.units import US_PER_S


@dataclass(frozen=True)
class MeasuredMetrics:
    """Measured outcome of one execution (a Table 3 cell group)."""

    iteration_seconds: float
    aicore_watts: float
    soc_watts: float

    @classmethod
    def from_result(cls, result) -> "MeasuredMetrics":
        """Build from an :class:`ExecutionResult`."""
        return cls(
            iteration_seconds=result.duration_us / US_PER_S,
            aicore_watts=result.aicore_avg_watts,
            soc_watts=result.soc_avg_watts,
        )


@dataclass(frozen=True)
class OptimizationReport:
    """Complete outcome of one Fig. 1 pipeline run."""

    workload: str
    performance_loss_target: float
    baseline: MeasuredMetrics
    under_dvfs: MeasuredMetrics
    predicted: ScoreBreakdown
    strategy: DvfsStrategy
    search: GaResult
    stage_count: int
    operator_count: int
    #: Guard interventions recorded during the measured execution
    #: (empty on a healthy control plane).
    incidents: tuple[Incident, ...] = field(default=())
    #: Whether the guarded runtime reverted the workload to baseline.
    fell_back: bool = False

    @property
    def performance_loss(self) -> float:
        """Measured fractional slowdown under the strategy."""
        return (
            self.under_dvfs.iteration_seconds - self.baseline.iteration_seconds
        ) / self.baseline.iteration_seconds

    @property
    def aicore_power_reduction(self) -> float:
        """Measured fractional AICore power reduction."""
        return 1.0 - self.under_dvfs.aicore_watts / self.baseline.aicore_watts

    @property
    def soc_power_reduction(self) -> float:
        """Measured fractional SoC power reduction."""
        return 1.0 - self.under_dvfs.soc_watts / self.baseline.soc_watts

    @property
    def setfreq_count(self) -> int:
        """SetFreq operations the strategy issues per iteration."""
        return self.strategy.setfreq_count

    def table3_row(self) -> dict[str, float | str]:
        """The paper's Table 3 row for this run."""
        return {
            "model": self.workload,
            "loss_target": f"{self.performance_loss_target:.0%}",
            "orig_iter_s": round(self.baseline.iteration_seconds, 4),
            "dvfs_iter_s": round(self.under_dvfs.iteration_seconds, 4),
            "perf_loss": f"{self.performance_loss:.2%}",
            "orig_soc_w": round(self.baseline.soc_watts, 2),
            "dvfs_soc_w": round(self.under_dvfs.soc_watts, 2),
            "soc_reduction": f"{self.soc_power_reduction:.2%}",
            "orig_aicore_w": round(self.baseline.aicore_watts, 2),
            "dvfs_aicore_w": round(self.under_dvfs.aicore_watts, 2),
            "aicore_reduction": f"{self.aicore_power_reduction:.2%}",
        }

    def incident_rows(self) -> list[dict]:
        """Guard-incident table rows (for :func:`format_table`)."""
        return [incident.to_row() for incident in self.incidents]

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        text = (
            f"{self.workload}: loss target "
            f"{self.performance_loss_target:.0%} -> measured perf loss "
            f"{self.performance_loss:.2%}, AICore power "
            f"{self.baseline.aicore_watts:.1f} W -> "
            f"{self.under_dvfs.aicore_watts:.1f} W "
            f"(-{self.aicore_power_reduction:.2%}), SoC power "
            f"{self.baseline.soc_watts:.1f} W -> "
            f"{self.under_dvfs.soc_watts:.1f} W "
            f"(-{self.soc_power_reduction:.2%}); "
            f"{self.setfreq_count} SetFreq over {self.stage_count} stages, "
            f"GA search {self.search.wall_seconds:.2f}s."
        )
        if self.incidents:
            text += (
                f" Guard recorded {len(self.incidents)} incident(s)"
                + (", reverted to baseline." if self.fell_back else ".")
            )
        return text


@dataclass(frozen=True)
class ClusterResult:
    """Fleet-level outcome of a cluster DVFS policy versus its baseline.

    Produced by :meth:`repro.fleet.simulator.FleetStepResult.report`;
    kept here (plain data, no fleet imports) so every layer that
    renders reports can do so without pulling the fleet package in.
    """

    cluster_name: str
    workload: str
    n_devices: int
    baseline_step_us: float
    step_us: float
    allreduce_us: float
    baseline_soc_energy_j: float
    soc_energy_j: float
    baseline_aicore_energy_j: float
    aicore_energy_j: float
    straggler_id: int
    device_rows: tuple[dict, ...] = ()

    @property
    def step_time_regression(self) -> float:
        """Fractional step-time increase versus the baseline step."""
        return (self.step_us - self.baseline_step_us) / self.baseline_step_us

    @property
    def soc_energy_savings(self) -> float:
        """Fractional fleet SoC-energy reduction versus the baseline."""
        return 1.0 - self.soc_energy_j / self.baseline_soc_energy_j

    @property
    def aicore_energy_savings(self) -> float:
        """Fractional fleet AICore-energy reduction versus the baseline."""
        return 1.0 - self.aicore_energy_j / self.baseline_aicore_energy_j

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        return (
            f"{self.cluster_name} x{self.n_devices} on {self.workload}: "
            f"step {self.baseline_step_us / 1000.0:.2f} ms -> "
            f"{self.step_us / 1000.0:.2f} ms "
            f"({self.step_time_regression:+.2%}), fleet SoC energy "
            f"{self.baseline_soc_energy_j:.1f} J -> "
            f"{self.soc_energy_j:.1f} J "
            f"(-{self.soc_energy_savings:.2%}); straggler is device "
            f"{self.straggler_id}, all-reduce "
            f"{self.allreduce_us / 1000.0:.2f} ms."
        )

    def render(self) -> str:
        """Summary plus the per-device table."""
        body = self.summary()
        if self.device_rows:
            body += "\n" + format_table(list(self.device_rows))
        return body


def render_strategy_timeline(strategy, width: int = 72) -> str:
    """ASCII rendering of a DVFS strategy's frequency over the iteration.

    Each column is a slice of the iteration; its glyph encodes the planned
    frequency (``#`` for the top of the grid down to ``.`` for the
    bottom), giving a quick visual of where the LFC valleys sit::

        1800 |######..####...#####     |
    """
    plans = strategy.plans
    total = sum(plan.duration_us for plan in plans)
    if total <= 0 or width < 8:
        return "(empty strategy)"
    freqs = sorted({plan.freq_mhz for plan in plans})
    lo, hi = freqs[0], freqs[-1]
    glyphs = ".:-=+*%#"

    def glyph(freq: float) -> str:
        if hi == lo:
            return "#"
        level = (freq - lo) / (hi - lo)
        return glyphs[min(len(glyphs) - 1, int(level * (len(glyphs) - 1)))]

    columns = []
    for i in range(width):
        t = (i + 0.5) / width * total
        elapsed = 0.0
        current = plans[-1]
        for plan in plans:
            if t < elapsed + plan.duration_us:
                current = plan
                break
            elapsed += plan.duration_us
        columns.append(glyph(current.freq_mhz))
    header = (
        f"{hi:.0f} MHz = '#', {lo:.0f} MHz = '.' | "
        f"{strategy.setfreq_count} SetFreq over "
        f"{total / 1000.0:.1f} ms"
    )
    return header + "\n|" + "".join(columns) + "|"


def render_service_stats(stats, title: str = "strategy service") -> str:
    """Render a :class:`repro.serve.service.ServiceStats` counter block.

    Accepts anything exposing ``rows()`` (``ServiceStats``,
    ``StoreCounters``), so store- and service-level counters share one
    presentation path.
    """
    return f"[{title}]\n{format_table(stats.rows())}"


def format_table(rows: list[dict[str, float | str]]) -> str:
    """Render dict rows as an aligned text table (for CLI output)."""
    if not rows:
        return "(no rows)"
    headers = list(rows[0])
    widths = {
        h: max(len(h), *(len(str(row.get(h, ""))) for row in rows))
        for h in headers
    }
    lines = [
        "  ".join(h.ljust(widths[h]) for h in headers),
        "  ".join("-" * widths[h] for h in headers),
    ]
    for row in rows:
        lines.append(
            "  ".join(str(row.get(h, "")).ljust(widths[h]) for h in headers)
        )
    return "\n".join(lines)
