"""Power modelling: offline calibration, online alpha fitting, validation.

Implements Sect. 5 of the paper: load-independent power split (beta,
theta), the leakage-temperature coefficient gamma from post-load cooldown,
the temperature-power slope k, per-load and per-operator alpha fitting, and
the iterative temperature-rise solver used at prediction time.
"""

from repro.power.calibration import (
    CalibrationConstants,
    CalibrationRuns,
    CooldownObservation,
    IdlePowerFit,
    calibrate_idle_power,
    collect_calibration_runs,
    extract_gamma,
    extract_temperature_slope,
    fit_calibration,
    run_offline_calibration,
)
from repro.power.evaluation import (
    PowerPredictionRecord,
    PowerValidation,
    TABLE2_BUCKET_EDGES,
    measure_load_at_frequencies,
    validate_power_model,
)
from repro.power.model import (
    LoadPowerModel,
    PowerObservation,
    PowerPrediction,
    fit_load_power_model,
    solve_alpha,
)
from repro.power.optable import (
    OperatorPowerEntry,
    OperatorPowerTable,
    build_operator_power_table,
)

__all__ = [
    "CalibrationConstants",
    "CalibrationRuns",
    "CooldownObservation",
    "IdlePowerFit",
    "LoadPowerModel",
    "OperatorPowerEntry",
    "OperatorPowerTable",
    "PowerObservation",
    "PowerPrediction",
    "PowerPredictionRecord",
    "PowerValidation",
    "TABLE2_BUCKET_EDGES",
    "build_operator_power_table",
    "calibrate_idle_power",
    "collect_calibration_runs",
    "extract_gamma",
    "extract_temperature_slope",
    "fit_calibration",
    "fit_load_power_model",
    "measure_load_at_frequencies",
    "run_offline_calibration",
    "solve_alpha",
    "validate_power_model",
]
