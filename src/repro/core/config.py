"""Configuration of the end-to-end energy optimizer."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.dvfs.ga import GaConfig
from repro.dvfs.guard import GuardConfig
from repro.dvfs.preprocessing import DEFAULT_ADJUSTMENT_INTERVAL_US
from repro.errors import ConfigurationError
from repro.npu.faults import FaultConfig
from repro.npu.spec import NpuSpec, default_npu_spec
from repro.perf.fitting import FitFunction


@dataclass(frozen=True)
class OptimizerConfig:
    """Everything the Fig. 1 pipeline needs.

    Attributes:
        npu: the target accelerator description.
        performance_loss_target: allowed fractional slowdown (the paper's
            Table 3 sweeps 2%..10%; 2% is the production choice).
        adjustment_interval_us: minimum spacing between SetFreq operations
            (the paper uses 5 ms; Fig. 18 sweeps 100 ms and 1 s).
        profile_freqs_mhz: frequencies profiled for model fitting.  The
            paper collects "two to three" points (Sect. 4.3); three points
            let the Func. 2 least-squares fit split its approximation bias
            across the range instead of concentrating it mid-band, which
            keeps measured loss within the target.
        fit_function: the Sect. 4.3 surrogate for performance fitting.
        objective: power rail the search minimises (``"aicore"``/``"soc"``).
        ga: genetic-algorithm hyper-parameters.
        fault: injected fault rates for the substrate (all-zero by
            default — a healthy control plane; see
            :class:`repro.npu.faults.FaultConfig`).
        guard: the guarded runtime's retry/readback/fallback knobs (see
            :class:`repro.dvfs.guard.GuardConfig`).
        seed: root seed for every stochastic component (fault injection
            included, on its own named stream).
    """

    npu: NpuSpec = field(default_factory=default_npu_spec)
    performance_loss_target: float = 0.02
    adjustment_interval_us: float = DEFAULT_ADJUSTMENT_INTERVAL_US
    profile_freqs_mhz: tuple[float, ...] = (1000.0, 1400.0, 1800.0)
    fit_function: FitFunction = FitFunction.QUADRATIC_NO_LINEAR
    objective: str = "aicore"
    ga: GaConfig = field(default_factory=GaConfig)
    fault: FaultConfig = field(default_factory=FaultConfig)
    guard: GuardConfig = field(default_factory=GuardConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.performance_loss_target < 1:
            raise ConfigurationError(
                f"performance_loss_target must be in (0, 1): "
                f"{self.performance_loss_target}"
            )
        if len(self.profile_freqs_mhz) < self.fit_function.required_points:
            raise ConfigurationError(
                f"{self.fit_function.value} needs "
                f"{self.fit_function.required_points} profile frequencies, "
                f"got {self.profile_freqs_mhz}"
            )
        for freq in self.profile_freqs_mhz:
            self.npu.frequencies.validate(freq)
        if self.objective not in ("aicore", "soc"):
            raise ConfigurationError(f"unknown objective {self.objective!r}")
        if self.adjustment_interval_us <= 0:
            raise ConfigurationError(
                f"adjustment_interval_us must be positive: "
                f"{self.adjustment_interval_us}"
            )

    def with_loss_target(self, target: float) -> "OptimizerConfig":
        """A copy with a different performance-loss target."""
        return replace(self, performance_loss_target=target)

    def with_interval(self, interval_us: float) -> "OptimizerConfig":
        """A copy with a different frequency adjustment interval."""
        return replace(self, adjustment_interval_us=interval_us)

    def with_fault(self, fault: FaultConfig) -> "OptimizerConfig":
        """A copy with different injected-fault rates."""
        return replace(self, fault=fault)

    def with_guard(self, guard: GuardConfig) -> "OptimizerConfig":
        """A copy with different guarded-runtime knobs."""
        return replace(self, guard=guard)

    def with_patience(self, patience: int) -> "OptimizerConfig":
        """A copy whose GA stops after ``patience`` stale generations.

        ``0`` (the default) disables early stopping and always runs the
        full iteration budget.
        """
        return replace(self, ga=replace(self.ga, patience=patience))
