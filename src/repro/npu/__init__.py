"""The simulated Ascend-like NPU substrate.

This package implements the hardware abstractions the paper's models rely
on: the DVFS frequency grid and voltage curve, the core/uncore memory
hierarchy with its Ld/St bandwidth law, the four operator timeline
scenarios, ground-truth CMOS power with RC thermal dynamics, the fast
SetFreq mechanism, and software substitutes for the CANN profiler and
``lpmi_tool`` telemetry.
"""

from repro.npu.device import (
    ExecutionResult,
    IDLE_INDEX,
    NpuDevice,
    OperatorRecord,
    PowerChunk,
)
from repro.npu.engine import (
    CompiledTrace,
    EngineStats,
    TraceEngine,
    fast_path_enabled,
    reference_only,
)
from repro.npu.execution import GroundTruthEvaluator, OperatorEvaluation
from repro.npu.faults import (
    FaultConfig,
    FaultInjector,
    FaultyCannStyleProfiler,
    FaultyFrequencyPlan,
    FaultyPowerTelemetry,
    InjectedFault,
    SetFreqFault,
)
from repro.npu.frequency import FrequencyGrid
from repro.npu.memory import MemoryHierarchy
from repro.npu.pipelines import ALL_PIPES, CORE_PIPES, UNCORE_PIPES, Pipe
from repro.npu.power import PowerSpec, solve_equilibrium_power
from repro.npu.profiles import (
    PROFILES,
    edge_npu_spec,
    get_profile,
    gpu_v100_like_spec,
)
from repro.npu.profiler import (
    CannStyleProfiler,
    ProfiledOperator,
    ProfileReport,
    SHORT_OPERATOR_CUTOFF_US,
    merge_reports,
)
from repro.npu.setfreq import (
    FrequencySwitch,
    FrequencyTimeline,
    SetFreqCommand,
)
from repro.npu.spec import (
    NoiseSpec,
    NpuSpec,
    SetFreqSpec,
    default_npu_spec,
    noise_free_spec,
)
from repro.npu.telemetry import (
    PowerMeasurement,
    PowerSample,
    PowerTelemetry,
)
from repro.npu.thermal import ThermalSpec, ThermalState
from repro.npu.validation import (
    Finding,
    Severity,
    ValidationReport,
    validate_spec,
)
from repro.npu.tracing import (
    frequency_reverts_after,
    frequency_rises_before,
    save_chrome_trace,
    to_chrome_trace,
)
from repro.npu.timeline import (
    BlockCosts,
    Scenario,
    Segment,
    Timeline,
    analytical_busy_stall,
    build_timeline,
    closed_form_cycles,
)
from repro.npu.voltage import VoltageCurve

__all__ = [
    "ALL_PIPES",
    "BlockCosts",
    "CORE_PIPES",
    "CannStyleProfiler",
    "CompiledTrace",
    "EngineStats",
    "ExecutionResult",
    "FaultConfig",
    "FaultInjector",
    "FaultyCannStyleProfiler",
    "FaultyFrequencyPlan",
    "FaultyPowerTelemetry",
    "Finding",
    "FrequencyGrid",
    "FrequencySwitch",
    "FrequencyTimeline",
    "GroundTruthEvaluator",
    "IDLE_INDEX",
    "InjectedFault",
    "MemoryHierarchy",
    "NoiseSpec",
    "NpuDevice",
    "NpuSpec",
    "PROFILES",
    "OperatorEvaluation",
    "OperatorRecord",
    "Pipe",
    "PowerChunk",
    "PowerMeasurement",
    "PowerSample",
    "PowerSpec",
    "PowerTelemetry",
    "ProfileReport",
    "ProfiledOperator",
    "SHORT_OPERATOR_CUTOFF_US",
    "Scenario",
    "Segment",
    "SetFreqCommand",
    "SetFreqFault",
    "Severity",
    "SetFreqSpec",
    "ThermalSpec",
    "ThermalState",
    "Timeline",
    "TraceEngine",
    "UNCORE_PIPES",
    "ValidationReport",
    "VoltageCurve",
    "analytical_busy_stall",
    "build_timeline",
    "closed_form_cycles",
    "default_npu_spec",
    "edge_npu_spec",
    "fast_path_enabled",
    "frequency_reverts_after",
    "frequency_rises_before",
    "get_profile",
    "gpu_v100_like_spec",
    "merge_reports",
    "noise_free_spec",
    "reference_only",
    "save_chrome_trace",
    "solve_equilibrium_power",
    "to_chrome_trace",
    "validate_spec",
]
