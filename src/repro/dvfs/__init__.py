"""DVFS strategy generation and execution (paper Sect. 6 and 7.1).

Classification routes operators into bottleneck classes; preprocessing
builds the LFC/HFC frequency-candidate stages; the genetic algorithm
searches stage frequencies against the fitted performance/power models;
the executor compiles the winning strategy into SetFreq dispatches and
plays it on the device.
"""

from repro.dvfs.classification import (
    Bottleneck,
    ClassifiedOperator,
    FREQUENCY_SENSITIVE_BOTTLENECKS,
    LATENCY_BOUND_THRESHOLD,
    bottleneck_histogram,
    classify_operator,
    classify_operators,
)
from repro.dvfs.executor import DvfsExecutor, ExecutionOutcome
from repro.dvfs.ga import GaConfig, GaResult, initial_population, run_search
from repro.dvfs.guard import (
    GuardConfig,
    GuardedDvfsExecutor,
    GuardedFrequencyPlan,
    GuardedOutcome,
    Incident,
    IncidentLog,
)
from repro.dvfs.model_free import ModelFreeScorer
from repro.dvfs.sensitivity import (
    OperatorTradeCurve,
    TradePoint,
    operator_trade_curve,
    rank_by_exchange_rate,
)
from repro.dvfs.preprocessing import (
    DEFAULT_ADJUSTMENT_INTERVAL_US,
    PreprocessResult,
    SIGNIFICANT_GAP_US,
    Stage,
    StageKind,
    preprocess,
)
from repro.dvfs.scoring import (
    PopulationEvaluation,
    ScoreBreakdown,
    StrategyScorer,
)
from repro.dvfs.strategy import (
    DvfsStrategy,
    StagePlan,
    constant_strategy,
    strategy_from_genes,
)

__all__ = [
    "Bottleneck",
    "ClassifiedOperator",
    "DEFAULT_ADJUSTMENT_INTERVAL_US",
    "DvfsExecutor",
    "DvfsStrategy",
    "ExecutionOutcome",
    "FREQUENCY_SENSITIVE_BOTTLENECKS",
    "GaConfig",
    "GaResult",
    "GuardConfig",
    "GuardedDvfsExecutor",
    "GuardedFrequencyPlan",
    "GuardedOutcome",
    "Incident",
    "IncidentLog",
    "LATENCY_BOUND_THRESHOLD",
    "ModelFreeScorer",
    "OperatorTradeCurve",
    "TradePoint",
    "PopulationEvaluation",
    "PreprocessResult",
    "SIGNIFICANT_GAP_US",
    "ScoreBreakdown",
    "Stage",
    "StageKind",
    "StagePlan",
    "StrategyScorer",
    "bottleneck_histogram",
    "classify_operator",
    "classify_operators",
    "constant_strategy",
    "initial_population",
    "operator_trade_curve",
    "preprocess",
    "rank_by_exchange_rate",
    "run_search",
    "strategy_from_genes",
]
