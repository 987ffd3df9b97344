"""Fig. 18 — why millisecond-latency, fine-grained DVFS matters.

Two comparative experiments on GPT-3 training at the 2% loss target:

* **V100-like delay** — the SetFreq deployment is delayed by 14 ms
  (simulating NVIDIA V100's ~15 ms frequency-control latency): power
  savings shrink substantially (paper: AICore 15.27% -> 7.07%, SoC
  5.56% -> 3.41%) with a similar performance drop.  The paper's delayed
  system has no runtime guard, so the strategy runs on the plain SetFreq
  executor; a second row runs it through the runtime guard
  (:mod:`repro.dvfs.guard`), which sees the broken loss contract and
  reverts to the baseline.
* **Coarse adjustment intervals** — regenerating the policy with a 100 ms
  or 1 s frequency adjustment interval merges most candidates away (821 ->
  38 -> 4 SetFreq), losing savings and slightly worsening performance.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core import EnergyOptimizer, OptimizerConfig
from repro.core.report import MeasuredMetrics
from repro.dvfs import GaConfig
from repro.experiments.base import ExperimentResult, percent
from repro.npu import SetFreqSpec, default_npu_spec
from repro.units import ms_to_us
from repro.workloads import generate

PAPER = {
    "fast_dvfs": {"loss": 0.0159, "soc": 0.0556, "aicore": 0.1527},
    "v100_delay": {"loss": 0.0169, "soc": 0.0341, "aicore": 0.0707},
    "fai_100ms": {"loss": 0.0174, "soc": 0.0360, "aicore": 0.0930},
    "fai_1s": {"loss": 0.0197, "soc": 0.0348, "aicore": 0.1009},
    "setfreq_counts": {"fai_5ms": 821, "fai_100ms": 38, "fai_1s": 4},
}


def run(
    scale: float = 0.1,
    seed: int = 0,
    iterations: int = 600,
    population: int = 200,
) -> ExperimentResult:
    """Regenerate the Fig. 18 comparative experiments."""
    ga = GaConfig(population_size=population, iterations=iterations, seed=seed)
    trace = generate("gpt3", scale=scale, seed=seed)

    def optimize(config: OptimizerConfig, shared_calibration=None):
        optimizer = EnergyOptimizer(config)
        if shared_calibration is not None:
            optimizer.use_calibration(shared_calibration)
        return optimizer, optimizer.optimize(trace)

    base_config = OptimizerConfig(
        performance_loss_target=0.02, ga=ga, seed=seed
    )
    base_optimizer, fast = optimize(base_config)
    calibration = base_optimizer.calibrate()

    # V100-like delay: the same strategy executed on hardware whose
    # frequency control lands 14 ms late.  The guarded run reverts once
    # the loss contract breaks; the paper's system has no guard, so its
    # row re-executes the strategy on the plain SetFreq executor.
    delayed_spec = default_npu_spec().with_setfreq(
        SetFreqSpec(extra_delay_us=ms_to_us(14.0))
    )
    delayed_config = OptimizerConfig(
        npu=delayed_spec, performance_loss_target=0.02, ga=ga, seed=seed
    )
    delayed_optimizer, delayed_guarded = optimize(delayed_config, calibration)
    unguarded = delayed_optimizer.executor.execute_with_baseline(
        trace, delayed_guarded.strategy
    )
    delayed = replace(
        delayed_guarded,
        baseline=MeasuredMetrics.from_result(unguarded.baseline),
        under_dvfs=MeasuredMetrics.from_result(unguarded.result),
        incidents=(),
        fell_back=False,
    )

    # Coarse frequency adjustment intervals.  The interval scales with the
    # workload so the granularity *relative to the iteration* matches the
    # paper (at scale=1.0 these are the true 100 ms and 1 s intervals).
    _, fai_100ms = optimize(
        base_config.with_interval(ms_to_us(100.0) * scale), calibration
    )
    _, fai_1s = optimize(
        base_config.with_interval(ms_to_us(1000.0) * scale), calibration
    )

    variants = {
        "fast_dvfs (FAI 5 ms)": fast,
        "v100_delay (14 ms late)": delayed,
        "v100_delay (guarded)": delayed_guarded,
        "fai_100ms": fai_100ms,
        "fai_1s": fai_1s,
    }
    rows = []
    for label, report in variants.items():
        rows.append(
            {
                "variant": label,
                "perf_loss": percent(report.performance_loss),
                "soc_reduction": percent(report.soc_power_reduction),
                "aicore_reduction": percent(report.aicore_power_reduction),
                "setfreq_count": report.setfreq_count,
            }
        )

    def efficiency_score(report):
        """Eq. 17's energy-efficiency metric, Per^2 / Power, normalised to
        the baseline (higher is better; the baseline scores 1.0)."""
        per_norm = 1.0 / (1.0 + report.performance_loss)
        power_norm = 1.0 - report.aicore_power_reduction
        return per_norm * per_norm / power_norm

    return ExperimentResult(
        experiment_id="fig18",
        title="Millisecond DVFS vs delayed / coarse control (Fig. 18)",
        paper_reference=PAPER,
        measured={
            "delay_degrades_efficiency": (
                efficiency_score(delayed) < efficiency_score(fast)
            ),
            "delay_breaks_loss_target": delayed.performance_loss > 0.02,
            "delay_worsens_perf": (
                delayed.performance_loss > fast.performance_loss
            ),
            "fast_efficiency_score": efficiency_score(fast),
            "delayed_efficiency_score": efficiency_score(delayed),
            "guard_reverts_delayed": delayed_guarded.fell_back,
            "coarse_fai_fewer_setfreq": (
                fai_1s.setfreq_count
                < fai_100ms.setfreq_count
                < fast.setfreq_count
            ),
            "coarse_fai_less_savings": (
                fai_100ms.aicore_power_reduction
                < fast.aicore_power_reduction
            ),
        },
        rows=rows,
        notes=(
            "The delayed variant re-runs the same pipeline on a device "
            "whose SetFreq lands 14 ms after the planned point (a busy "
            "controller holds the latest superseding request); the FAI "
            "variants regenerate the policy with merged candidates. "
            "Divergence note: our 2% policy drives LFC stages deeper "
            "(1000-1300 MHz) than the paper's near-optimal prior "
            "(1600 MHz), so the 14 ms-late up-switches cost more "
            "performance here and, by keeping the chip at low frequency "
            "longer, can show a larger *average power* drop.  The claim "
            "that matters is preserved: on the paper's own Per^2/Power "
            "efficiency metric the delayed system is strictly worse, and "
            "it blows through the 2% performance contract.  Run through "
            "the runtime guard, the delayed strategy is reverted to the "
            "baseline once that contract breaks (the guarded row)."
        ),
    )
