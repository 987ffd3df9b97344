"""Tests for Chrome-trace export and the Sect. 7.4 trace spot checks."""

import json

import numpy as np
import pytest

from repro.errors import ProfilingError
from repro.npu import NpuDevice, noise_free_spec
from repro.npu.setfreq import AnchoredFrequencyPlan, AnchoredSwitch
from repro.npu.tracing import (
    frequency_reverts_after,
    frequency_rises_before,
    save_chrome_trace,
    to_chrome_trace,
)
from repro.workloads import build_trace
from repro.workloads.oplib import elementwise, matmul


@pytest.fixture(scope="module")
def dvfs_execution():
    """A gelu / MatMul / gelu sequence with an LFC valley around the MatMul."""
    device = NpuDevice(noise_free_spec())
    ops = [
        elementwise("t.gelu1", "Gelu", 30_000_000, inputs=1),
        matmul("t.mm", 2048, 2048, 2048),
        elementwise("t.gelu2", "Gelu", 30_000_000, inputs=1),
        matmul("t.mm2", 2048, 2048, 2048),
    ]
    trace = build_trace("trace_check", ops)
    plan = AnchoredFrequencyPlan(
        1100.0,
        [
            AnchoredSwitch(1, 1800.0),  # rise before the MatMul
            AnchoredSwitch(2, 1100.0),  # revert after it
            AnchoredSwitch(3, 1800.0),
        ],
    )
    return device.run(trace, plan)


class TestChromeTrace:
    def test_document_is_valid_json(self, dvfs_execution):
        payload = json.loads(to_chrome_trace(dvfs_execution))
        assert "traceEvents" in payload

    def test_contains_operator_spans(self, dvfs_execution):
        payload = json.loads(to_chrome_trace(dvfs_execution))
        spans = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
        assert len(spans) == len(dvfs_execution.records)
        names = {span["name"] for span in spans}
        assert {"Gelu", "MatMul"} <= names

    def test_contains_frequency_counter(self, dvfs_execution):
        payload = json.loads(to_chrome_trace(dvfs_execution))
        counters = [
            e
            for e in payload["traceEvents"]
            if e.get("ph") == "C" and "frequency" in e["name"]
        ]
        values = {c["args"]["MHz"] for c in counters}
        assert {1100.0, 1800.0} <= values

    def test_span_frequency_annotation(self, dvfs_execution):
        payload = json.loads(to_chrome_trace(dvfs_execution))
        matmul_spans = [
            e
            for e in payload["traceEvents"]
            if e.get("ph") == "X" and e["name"] == "MatMul"
        ]
        assert matmul_spans[0]["args"]["freq_mhz"] == 1800.0

    def test_save(self, dvfs_execution, tmp_path):
        path = tmp_path / "trace.json"
        save_chrome_trace(dvfs_execution, path)
        assert json.loads(path.read_text())["traceEvents"]

    def test_empty_execution_rejected(self):
        from repro.npu.device import ExecutionResult

        empty = ExecutionResult(
            trace_name="x",
            duration_us=1.0,
            aicore_energy_j=0.0,
            soc_energy_j=0.0,
            records=(),
            chunks=(),
            start_celsius=25.0,
            end_celsius=25.0,
            peak_celsius=25.0,
            op_start_freq_mhz=np.zeros(0),
        )
        with pytest.raises(ProfilingError):
            to_chrome_trace(empty)


class TestSpotChecks:
    def test_rise_before_matmul_detected(self, dvfs_execution):
        """The paper's Sect. 7.4 observation, as a predicate: frequency
        rises right before the compute-bound MatMuls."""
        indices = frequency_rises_before(dvfs_execution, "MatMul")
        assert indices == [1, 3]

    def test_revert_after_matmul_detected(self, dvfs_execution):
        assert frequency_reverts_after(dvfs_execution, 1)

    def test_no_rise_for_gelu(self, dvfs_execution):
        assert frequency_rises_before(dvfs_execution, "Gelu") == []

    def test_revert_bounds(self, dvfs_execution):
        assert not frequency_reverts_after(dvfs_execution, 99)
        # The final operator has no successor to revert into.
        last = len(dvfs_execution.records) - 1
        assert not frequency_reverts_after(dvfs_execution, last)

    def test_end_to_end_policy_contains_rises(self):
        """On a real optimized GPT-3 policy, the trace inspection finds
        frequency rises ahead of compute-bound MatMuls (Sect. 7.4)."""
        from repro import EnergyOptimizer, OptimizerConfig
        from repro.dvfs import GaConfig
        from repro.workloads import generate

        config = OptimizerConfig(
            performance_loss_target=0.10,
            ga=GaConfig(population_size=80, iterations=150, seed=0),
        )
        optimizer = EnergyOptimizer(config)
        trace = generate("gpt3", scale=0.05)
        report = optimizer.optimize(trace)
        plan = optimizer.executor.compile(report.strategy)
        result = optimizer.device.run(trace, plan)
        rises = frequency_rises_before(result, "MatMul")
        assert rises, "expected at least one frequency rise before a MatMul"
