"""Registry of experiments, keyed by the paper artifact they regenerate."""

from __future__ import annotations

import difflib
from typing import Callable

from repro.errors import ExperimentError
from repro.experiments import (
    ext_cluster,
    ext_fault_tolerance,
    ext_fleet,
    ext_fleet_scale,
    ext_granularity,
    ext_robustness,
    ext_uncore_dvfs,
    ext_whole_program,
    fig09_voltage_frequency,
    fig14_anchoring_ablation,
    fig10_temperature_power,
    fig15_perf_error_cdf,
    fig16_operator_predictions,
    fig17_ga_convergence,
    fig18_comparative,
    sec43_fitting_cost,
    sec6_sensitivity,
    sec81_model_free,
    sec84_inference,
    table2_power_model_error,
    table3_end_to_end,
)
from repro.experiments.base import ExperimentResult

_REGISTRY: dict[str, Callable[..., ExperimentResult]] = {
    "ext_cluster": ext_cluster.run,
    "ext_fault_tolerance": ext_fault_tolerance.run,
    "ext_fleet": ext_fleet.run,
    "ext_fleet_scale": ext_fleet_scale.run,
    "ext_granularity": ext_granularity.run,
    "ext_robustness": ext_robustness.run,
    "ext_uncore": ext_uncore_dvfs.run,
    "ext_whole_program": ext_whole_program.run,
    "fig09": fig09_voltage_frequency.run,
    "fig10": fig10_temperature_power.run,
    "fig14": fig14_anchoring_ablation.run,
    "fig15": fig15_perf_error_cdf.run,
    "fig16": fig16_operator_predictions.run,
    "fig17": fig17_ga_convergence.run,
    "fig18": fig18_comparative.run,
    "table2": table2_power_model_error.run,
    "table3": table3_end_to_end.run,
    "sec43": sec43_fitting_cost.run,
    "sec6": sec6_sensitivity.run,
    "sec81": sec81_model_free.run,
    "sec84": sec84_inference.run,
}


def experiment_ids() -> list[str]:
    """All registered experiment ids."""
    return sorted(_REGISTRY)


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run one experiment by id.

    Raises:
        ExperimentError: for an unknown id.
    """
    try:
        runner = _REGISTRY[experiment_id]
    except KeyError:
        close = difflib.get_close_matches(
            experiment_id, experiment_ids(), n=3
        )
        hint = f" (did you mean {', '.join(map(repr, close))}?)" if close else ""
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}{hint}; "
            f"known: {', '.join(experiment_ids())}"
        ) from None
    return runner(**kwargs)
