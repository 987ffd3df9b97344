"""Equivalence and behaviour tests for the compiled-trace fast path.

The engine (:mod:`repro.npu.engine`) must be *numerically equivalent* to
the reference per-chunk loop of :class:`NpuDevice` — same durations, same
energies, same thermal trajectory, same per-operator records and power
chunks — for every eligible plan: constant timelines, switching wall-clock
timelines (including switches landing mid-operator), and zero-delay
anchored plans.  Ineligible plans (fault-injecting, guarded, anchored with
extra controller delay) must transparently keep the reference loop.

Aggregates are compared at 1e-9 relative tolerance (the documented
budget); per-record/per-chunk fields at 1e-7 relative with a small
absolute floor, since ``dt = chunk_end - clock`` arithmetic differs by an
ulp of the absolute clock between the two implementations.
"""

from __future__ import annotations

import math
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import FrequencyError
from repro.npu import (
    FrequencySwitch,
    FrequencyTimeline,
    GroundTruthEvaluator,
    NpuDevice,
    default_npu_spec,
)
from repro.npu.engine import (
    _COMPILED_CACHE_LIMIT,
    CompiledTrace,
    TraceEngine,
    _LazySeq,
    fast_path_enabled,
    reference_only,
)
from repro.npu.faults import FaultConfig, FaultInjector, FaultyFrequencyPlan
from repro.npu.operators import OperatorKind, make_fixed_operator
from repro.npu.pipelines import Pipe
from repro.npu.setfreq import AnchoredFrequencyPlan, AnchoredSwitch
from repro.npu.timeline import (
    BlockCosts,
    Scenario,
    analytical_busy_stall,
    build_timeline,
)
from repro.workloads import generate
from repro.workloads.trace import Trace, TraceEntry

from tests.conftest import make_compute_op
from tests.oracles import scalar_column
from tests.reference.device import VariedEvaluator

GRID = tuple(1000.0 + 100.0 * i for i in range(9))

# Aggregate budget from the issue; per-item floors absorb clock-ulp noise.
AGG_REL = 1e-9
ITEM_REL = 1e-7
ITEM_ABS = 1e-9
# Longest chunk one path may hold without a partner on the other.
DEGENERATE_US = 1e-9


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def assert_results_equivalent(fast, ref) -> None:
    """Field-by-field equivalence of a fast-path and a reference result."""
    assert fast.trace_name == ref.trace_name
    assert _close(fast.duration_us, ref.duration_us, AGG_REL)
    assert _close(fast.aicore_energy_j, ref.aicore_energy_j, AGG_REL)
    assert _close(fast.soc_energy_j, ref.soc_energy_j, AGG_REL)
    assert _close(fast.start_celsius, ref.start_celsius, AGG_REL)
    assert _close(fast.end_celsius, ref.end_celsius, AGG_REL, 1e-9)

    assert len(fast.records) == len(ref.records)
    for fr, rr in zip(fast.records, ref.records):
        assert fr.index == rr.index
        assert fr.start_freq_mhz == rr.start_freq_mhz
        assert fr.end_freq_mhz == rr.end_freq_mhz
        assert _close(fr.start_us, rr.start_us, ITEM_REL, ITEM_ABS)
        assert _close(fr.end_us, rr.end_us, ITEM_REL, ITEM_ABS)
        assert _close(fr.aicore_energy_j, rr.aicore_energy_j, ITEM_REL, ITEM_ABS)
        assert _close(fr.soc_energy_j, rr.soc_energy_j, ITEM_REL, ITEM_ABS)
        assert fr.evaluation.duration_us == rr.evaluation.duration_us

    for fc, rc in _paired_chunks(list(fast.chunks), list(ref.chunks)):
        assert fc.op_index == rc.op_index
        assert fc.freq_mhz == rc.freq_mhz
        assert _close(fc.start_us, rc.start_us, ITEM_REL, ITEM_ABS)
        assert _close(fc.end_us, rc.end_us, ITEM_REL, ITEM_ABS)
        assert _close(fc.aicore_watts, rc.aicore_watts, ITEM_REL, ITEM_ABS)
        assert _close(fc.soc_watts, rc.soc_watts, ITEM_REL, ITEM_ABS)
        assert _close(fc.celsius, rc.celsius, ITEM_REL, ITEM_ABS)


def _degenerate(chunk) -> bool:
    return chunk.end_us - chunk.start_us <= DEGENERATE_US


def _same_span(fc, rc) -> bool:
    return (
        fc.op_index == rc.op_index
        and _close(fc.start_us, rc.start_us, ITEM_REL, ITEM_ABS)
        and _close(fc.end_us, rc.end_us, ITEM_REL, ITEM_ABS)
    )


def _paired_chunks(fast_chunks: list, ref_chunks: list) -> list:
    """Pair the two paths' chunks in time order.

    Two chunks pair when they cover the same operator (or idle span) over
    the same interval at the item tolerance, whatever their length.  Only
    a chunk with no partner may be dropped, and only if it is degenerate:
    a gap below one float ulp of the running clock can round into a
    sub-femtosecond chunk in one accumulation order and not the other.
    Deciding degeneracy on unpaired chunks alone means a ~1e-9 µs chunk
    present on both sides is compared, never dropped on one side only.
    """
    pairs = []
    i = j = 0
    while i < len(fast_chunks) or j < len(ref_chunks):
        fc = fast_chunks[i] if i < len(fast_chunks) else None
        rc = ref_chunks[j] if j < len(ref_chunks) else None
        if fc is not None and rc is not None and _same_span(fc, rc):
            pairs.append((fc, rc))
            i += 1
            j += 1
        elif fc is not None and _degenerate(fc):
            i += 1
        elif rc is not None and _degenerate(rc):
            j += 1
        else:
            raise AssertionError(
                f"unpaired chunk: fast {fc!r}, reference {rc!r}"
            )
    return pairs


# ---------------------------------------------------------------------------
# Random-trace strategies
# ---------------------------------------------------------------------------

_MIXES = (
    {Pipe.CUBE: 1.0},
    {Pipe.VECTOR: 1.0},
    {Pipe.CUBE: 0.7, Pipe.VECTOR: 0.3},
    {Pipe.CUBE: 0.5, Pipe.VECTOR: 0.3, Pipe.SCALAR: 0.2},
)


@st.composite
def entries(draw):
    """One trace entry: a compute or fixed-time operator with gaps."""
    gap = draw(st.floats(0.0, 400.0))
    host = draw(st.sampled_from((0.0, 0.0, 500.0, 2000.0)))
    if draw(st.booleans()):
        spec = make_compute_op(
            name=f"op{draw(st.integers(0, 7))}",
            scenario=draw(st.sampled_from(list(Scenario))),
            n_blocks=draw(st.integers(1, 12)),
            core_cycles=draw(st.floats(1_000.0, 200_000.0)),
            ld_bytes=draw(st.floats(0.0, 4e6)),
            st_bytes=draw(st.floats(0.0, 2e6)),
            overhead_us=draw(st.floats(0.0, 10.0)),
            mix=draw(st.sampled_from(_MIXES)),
        )
    else:
        kind = draw(
            st.sampled_from((OperatorKind.AICPU, OperatorKind.COMMUNICATION))
        )
        spec = make_fixed_operator(
            f"fixed{draw(st.integers(0, 3))}",
            kind,
            draw(st.floats(5.0, 2_000.0)),
        )
    return TraceEntry(spec=spec, gap_before_us=gap, host_interval_us=host)


@st.composite
def traces(draw, min_ops: int = 1, max_ops: int = 12):
    items = draw(st.lists(entries(), min_size=min_ops, max_size=max_ops))
    return Trace(name="hypo", entries=tuple(items))


@st.composite
def switching_timelines(draw):
    """A wall-clock timeline with 0-5 switches inside a typical run."""
    initial = draw(st.sampled_from(GRID))
    n = draw(st.integers(0, 5))
    switches = tuple(
        FrequencySwitch(
            time_us=draw(st.floats(0.0, 30_000.0)),
            freq_mhz=draw(st.sampled_from(GRID)),
        )
        for _ in range(n)
    )
    return FrequencyTimeline(initial, switches)


@st.composite
def anchored_plans(draw, max_ops: int = 12):
    initial = draw(st.sampled_from(GRID))
    n = draw(st.integers(0, 4))
    anchors = [
        AnchoredSwitch(
            op_index=draw(st.integers(0, max_ops - 1)),
            freq_mhz=draw(st.sampled_from(GRID)),
        )
        for _ in range(n)
    ]
    return AnchoredFrequencyPlan(initial, anchors)


def _fresh_pair():
    """Two devices over one spec: the second runs under reference_only()."""
    spec = default_npu_spec()
    evaluator = GroundTruthEvaluator(spec)
    fast = NpuDevice(spec, evaluator=evaluator)
    ref = NpuDevice(spec, evaluator=evaluator)
    return fast, ref


# ---------------------------------------------------------------------------
# Hypothesis equivalence properties
# ---------------------------------------------------------------------------


def _degenerate_gap_trace() -> Trace:
    """A 1e-9 µs gap before the last operator, at constant 1000 MHz.

    The fast path's idle chunk comes out 1.0000036e-9 µs long and the
    reference loop's 0.9999965e-9 µs: a length filter applied to each
    side on its own keeps the chunk on one side only.
    """
    fixed = make_fixed_operator("fixed0", OperatorKind.AICPU, 5.0)
    op = make_compute_op(
        name="op0",
        scenario=Scenario.PINGPONG_FREE_INDEPENDENT,
        n_blocks=1,
        core_cycles=24_458.0,
        ld_bytes=0.0,
        st_bytes=0.0,
        overhead_us=0.0,
        mix={Pipe.CUBE: 1.0},
    )
    return Trace(
        name="hypo",
        entries=(
            TraceEntry(spec=fixed),
            TraceEntry(spec=fixed),
            TraceEntry(spec=op),
            TraceEntry(spec=fixed, gap_before_us=1e-9),
        ),
    )


@given(
    trace=traces(),
    timeline=switching_timelines(),
    celsius0=st.floats(25.0, 95.0),
)
@example(
    trace=_degenerate_gap_trace(),
    timeline=FrequencyTimeline.constant(1000.0),
    celsius0=25.0,
)
@settings(max_examples=60, deadline=None)
def test_fast_path_matches_reference_on_timelines(trace, timeline, celsius0):
    fast_dev, ref_dev = _fresh_pair()
    fast = fast_dev.run(trace, timeline, initial_celsius=celsius0)
    with reference_only():
        ref = ref_dev.run(trace, timeline, initial_celsius=celsius0)
    assert fast_dev.fast_path_runs == 1
    assert ref_dev.reference_runs == 1
    assert_results_equivalent(fast, ref)


@given(
    trace=traces(),
    plan=anchored_plans(),
    celsius0=st.floats(25.0, 95.0),
)
@settings(max_examples=60, deadline=None)
def test_fast_path_matches_reference_on_anchored_plans(trace, plan, celsius0):
    fast_dev, ref_dev = _fresh_pair()
    fast = fast_dev.run(trace, plan, initial_celsius=celsius0)
    applied_fast = plan.applied_switch_count
    with reference_only():
        ref = ref_dev.run(trace, plan, initial_celsius=celsius0)
    assert plan.applied_switch_count == applied_fast
    assert fast_dev.fast_path_runs == 1
    assert_results_equivalent(fast, ref)


@given(
    trace=traces(),
    timeline=st.one_of(
        st.sampled_from(GRID).map(FrequencyTimeline.constant),
        switching_timelines(),
        anchored_plans(),
    ),
    celsius0=st.floats(25.0, 95.0),
)
@settings(max_examples=60, deadline=None)
def test_peak_and_start_column_equal_the_objects(trace, timeline, celsius0):
    """Each producer's peak and start column, bitwise its own objects."""
    fast_dev, ref_dev = _fresh_pair()
    fast = fast_dev.run(trace, timeline, initial_celsius=celsius0)
    with reference_only():
        ref = ref_dev.run(trace, timeline, initial_celsius=celsius0)
    assert fast_dev.fast_path_runs == 1
    for result in (fast, ref):
        peak = max(chunk.celsius for chunk in result.chunks)
        assert result.peak_celsius == peak
        assert result.op_start_freq_mhz.tolist() == [
            record.start_freq_mhz for record in result.records
        ]


@given(trace=traces(), freq=st.sampled_from(GRID))
@settings(max_examples=40, deadline=None)
def test_run_stable_and_iterations_match_reference(trace, freq):
    timeline = FrequencyTimeline.constant(freq)
    fast_dev, ref_dev = _fresh_pair()
    with reference_only():
        ref_stable = ref_dev.run_stable(trace, timeline)
        ref_iterations = ref_dev.run_iterations(trace, timeline, iterations=3)
    assert_results_equivalent(fast_dev.run_stable(trace, timeline), ref_stable)
    for fast, ref in zip(
        fast_dev.run_iterations(trace, timeline, iterations=3),
        ref_iterations,
    ):
        assert_results_equivalent(fast, ref)
    assert ref_dev.fast_path_runs == 0


def test_switch_mid_operator_splits_identically(small_bert_trace):
    """A switch landing strictly inside an operator splits the chunk."""
    fast_dev, ref_dev = _fresh_pair()
    # Find an operator interior on the reference path, then re-run both.
    with reference_only():
        probe = ref_dev.run(
            small_bert_trace, FrequencyTimeline.constant(1800.0)
        )
    record = next(r for r in probe.records if r.duration_us > 2.0)
    mid = (record.start_us + record.end_us) / 2.0
    timeline = FrequencyTimeline(
        1800.0, (FrequencySwitch(time_us=mid, freq_mhz=1000.0),)
    )
    fast = fast_dev.run(small_bert_trace, timeline)
    with reference_only():
        ref = ref_dev.run(small_bert_trace, timeline)
    assert_results_equivalent(fast, ref)
    assert any(r.straddled_switch for r in fast.records)


# ---------------------------------------------------------------------------
# Grid-built columns against the scalar oracle
# ---------------------------------------------------------------------------


def _assert_column_matches_oracle(col, oracle) -> None:
    for name in ("dur", "a0", "ga", "s0", "gs"):
        got = getattr(col, name)
        want = getattr(oracle, name)
        assert got.tobytes() == want.tobytes(), name
    for name in ("idle_a0", "idle_ga", "idle_s0", "idle_gs"):
        assert getattr(col, name) == getattr(oracle, name), name


class TestGridColumns:
    """``CompiledTrace.column`` builds every column through the grid."""

    @pytest.mark.parametrize(
        ("model", "scale"),
        [
            ("gpt3", 0.2),
            ("bert", 1.0),
            ("resnet50", 1.0),
            ("llama2_inference", 1.0),
            ("vgg19", 1.0),
        ],
    )
    def test_columns_bitwise_vs_scalar_oracle(self, model, scale):
        spec = default_npu_spec()
        evaluator = GroundTruthEvaluator(spec)
        compiled = CompiledTrace(generate(model, scale=scale), evaluator)
        for freq in GRID:
            _assert_column_matches_oracle(
                compiled.column(freq),
                scalar_column(compiled, evaluator, freq),
            )
        assert compiled.column_count == len(GRID)

    @given(trace=traces())
    @settings(max_examples=60, deadline=None)
    def test_random_traces_bitwise_vs_scalar_oracle(self, trace):
        spec = default_npu_spec()
        evaluator = GroundTruthEvaluator(spec)
        compiled = CompiledTrace(trace, evaluator)
        compiled.prime_columns(GRID)
        for freq in GRID:
            _assert_column_matches_oracle(
                compiled.column(freq),
                scalar_column(compiled, evaluator, freq),
            )

    def test_duration_scaled_evaluator_bitwise_vs_scalar_oracle(self):
        spec = default_npu_spec()
        varied = VariedEvaluator(GroundTruthEvaluator(spec), 1.07)
        compiled = CompiledTrace(generate("bert", scale=0.2), varied)
        compiled.prime_columns(GRID)
        for freq in GRID:
            _assert_column_matches_oracle(
                compiled.column(freq), scalar_column(compiled, varied, freq)
            )

    def test_underflowing_store_volume_stays_finite(self):
        """Both transfer terms of a 5e-324-byte store underflow to 0.0.

        ``smooth_max`` returns ``max(0, 0)`` there; the grid must not
        compute ``0 / 0``.
        """
        spec = default_npu_spec()
        evaluator = GroundTruthEvaluator(spec)
        op = make_compute_op(
            name="op0",
            scenario=Scenario.PINGPONG_FREE_INDEPENDENT,
            n_blocks=1,
            core_cycles=1_000.0,
            ld_bytes=0.0,
            st_bytes=5e-324,
            overhead_us=0.0,
            mix={Pipe.CUBE: 1.0},
        )
        trace = Trace(name="tiny-store", entries=(TraceEntry(spec=op),))
        compiled = CompiledTrace(trace, evaluator)
        compiled.prime_columns(GRID)
        for freq in GRID:
            _assert_column_matches_oracle(
                compiled.column(freq),
                scalar_column(compiled, evaluator, freq),
            )
        assert compiled.column(1000.0).dur[0] == 1.05

    def test_off_grid_frequency_raises(self, small_bert_trace):
        spec = default_npu_spec()
        compiled = CompiledTrace(small_bert_trace, GroundTruthEvaluator(spec))
        with pytest.raises(FrequencyError):
            compiled.column(1050.0)


# ---------------------------------------------------------------------------
# Eligibility and routing
# ---------------------------------------------------------------------------


def test_fault_and_delayed_plans_keep_reference_loop(small_bert_trace):
    spec = default_npu_spec()
    device = NpuDevice(spec)
    injector = FaultInjector.from_seed(FaultConfig(setfreq_drop_rate=1.0), 3)
    faulty = FaultyFrequencyPlan(
        1800.0, [AnchoredSwitch(op_index=1, freq_mhz=1200.0)], injector
    )
    device.run(small_bert_trace, faulty)
    assert device.reference_runs == 1
    assert device.fast_path_runs == 0

    delayed = AnchoredFrequencyPlan(
        1800.0,
        [AnchoredSwitch(op_index=1, freq_mhz=1200.0)],
        extra_delay_us=250.0,
    )
    device.run(small_bert_trace, delayed)
    assert device.reference_runs == 2

    device.run(small_bert_trace, FrequencyTimeline.constant(1500.0))
    assert device.fast_path_runs == 1


def test_timeline_subclass_is_not_eligible():
    class Subclassed(FrequencyTimeline):
        pass

    spec = default_npu_spec()
    engine = TraceEngine(spec, GroundTruthEvaluator(spec))
    assert engine.supports(FrequencyTimeline.constant(1500.0))
    assert not engine.supports(Subclassed(1500.0))


def test_reference_only_context_restores_flag(small_bert_trace):
    device = NpuDevice(default_npu_spec())
    assert fast_path_enabled()
    with reference_only():
        assert not fast_path_enabled()
        device.run(small_bert_trace, FrequencyTimeline.constant(1800.0))
    assert fast_path_enabled()
    assert device.reference_runs == 1


# ---------------------------------------------------------------------------
# Compiled-trace cache and lazy sequences
# ---------------------------------------------------------------------------


def test_compiled_trace_is_cached_per_trace(small_bert_trace):
    device = NpuDevice(default_npu_spec())
    timeline = FrequencyTimeline.constant(1800.0)
    device.run(small_bert_trace, timeline)
    device.run(small_bert_trace, timeline)
    engine = device.engine
    assert engine.stats.compiled_traces == 1
    assert engine.stats.fast_path_runs == 2
    compiled = engine.compiled(small_bert_trace)
    assert isinstance(compiled, CompiledTrace)
    assert compiled.unique_operator_count <= compiled.n_ops


def test_shared_compiled_cache_survives_concurrent_misses():
    """Engines on several threads miss into the process-wide cache at once.

    Each thread compiles far more distinct traces than the cache holds,
    so evictions on one thread interleave with inserts on the others; a
    tiny switch interval makes the interleaving dense.
    """
    spec = default_npu_spec()
    threads = 8
    traces = [
        [
            Trace(
                name=f"t{t}-{i}",
                entries=(TraceEntry(spec=make_compute_op(f"op{t}-{i}")),),
            )
            for i in range(32 * _COMPILED_CACHE_LIMIT)
        ]
        for t in range(threads)
    ]
    errors = []
    start = threading.Barrier(threads, timeout=60.0)

    def compile_all(batch):
        engine = TraceEngine(spec, GroundTruthEvaluator(spec))
        start.wait()
        try:
            for trace in batch:
                engine.compiled(trace)
        except Exception as error:
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=compile_all, args=(batch,))
            for batch in traces
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []


def test_lazy_sequence_semantics(small_bert_trace):
    device = NpuDevice(default_npu_spec())
    result = device.run(small_bert_trace, FrequencyTimeline.constant(1800.0))
    records = result.records
    assert isinstance(records, _LazySeq)
    n = len(records)
    assert n == len(small_bert_trace.entries)
    # Single-item access (including negative) without materialising.
    assert records[0].index == 0
    assert records[-1].index == n - 1
    with pytest.raises(IndexError):
        records[n]
    # Slices and iteration materialise consistently.
    assert list(records[:3]) == [records[0], records[1], records[2]]
    assert tuple(records) == records  # __eq__ against a tuple
    assert records == list(records)
    assert len(result.chunks[:2]) == 2


# ---------------------------------------------------------------------------
# Analytical busy/stall closed form
# ---------------------------------------------------------------------------

_BLOCK_COSTS = st.builds(
    BlockCosts,
    ld_cycles=st.floats(0.0, 1e6),
    st_cycles=st.floats(0.0, 1e6),
    core_cycles=st.floats(0.0, 1e6),
)
_MIX = {Pipe.CUBE: 0.6, Pipe.VECTOR: 0.3, Pipe.SCALAR: 0.1}


@given(
    scenario=st.sampled_from(list(Scenario)),
    n=st.integers(1, 40),
    costs=_BLOCK_COSTS,
)
@settings(max_examples=200, deadline=None)
def test_analytical_busy_stall_matches_timeline(scenario, n, costs):
    timeline = build_timeline(scenario, n, costs, _MIX)
    busy, stall = analytical_busy_stall(scenario, n, costs, _MIX)
    ref_busy = timeline.busy_cycles()
    for pipe in set(busy) | set(ref_busy):
        assert math.isclose(
            busy.get(pipe, 0.0),
            ref_busy.get(pipe, 0.0),
            rel_tol=1e-9,
            abs_tol=1e-6,
        ), (scenario, n, pipe)
    assert math.isclose(
        stall, timeline.stall_cycles(), rel_tol=1e-9, abs_tol=1e-6
    )


# ---------------------------------------------------------------------------
# Satellite behaviours: evaluator LRU, duration_matrix vectorisation
# ---------------------------------------------------------------------------


def test_evaluator_cache_counters_and_eviction():
    spec = default_npu_spec()
    evaluator = GroundTruthEvaluator(spec, cache_size=2)
    ops = [make_compute_op(name=f"op{i}", n_blocks=i + 1) for i in range(3)]
    evaluator.evaluate(ops[0], 1800.0)
    evaluator.evaluate(ops[0], 1800.0)
    info = evaluator.cache_info()
    assert info["hits"] == 1 and info["misses"] == 1
    assert evaluator.cache_hits == 1 and evaluator.cache_misses == 1

    evaluator.evaluate(ops[1], 1800.0)
    evaluator.evaluate(ops[2], 1800.0)  # evicts ops[0] (least recent)
    assert evaluator.cache_info()["size"] == 2
    evaluator.evaluate(ops[0], 1800.0)  # must recompute
    assert evaluator.cache_misses == 4

    evaluator.clear_cache()
    assert evaluator.cache_info() == {
        "hits": 0, "misses": 0, "size": 0, "capacity": 2,
    }


def test_evaluator_cache_size_must_be_positive():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        GroundTruthEvaluator(default_npu_spec(), cache_size=0)


def test_duration_matrix_matches_scalar_predictions(bert_profile_reports):
    from repro.perf.model import build_performance_model

    model = build_performance_model(bert_profile_reports)
    names = list(model.operators)[:8]
    freqs = list(GRID)
    matrix = model.duration_matrix(names, freqs)
    assert matrix.shape == (len(names), len(freqs))
    for i, name in enumerate(names):
        for j, freq in enumerate(freqs):
            assert math.isclose(
                matrix[i, j],
                model.predict_time_us(name, freq),
                rel_tol=1e-12,
            )


def test_duration_matrix_unknown_name_raises(bert_profile_reports):
    from repro.errors import FittingError
    from repro.perf.model import build_performance_model

    model = build_performance_model(bert_profile_reports)
    with pytest.raises(FittingError):
        model.duration_matrix(["no-such-operator"], [1800.0])
