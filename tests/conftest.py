"""Shared fixtures for the test suite.

Expensive artifacts (profiled reports, calibration constants) are session
scoped: they are deterministic for a fixed seed, and many tests only read
them.
"""

from __future__ import annotations

import pytest

from repro.analysis.rng import RngFactory
from repro.npu import (
    CannStyleProfiler,
    FrequencyTimeline,
    GroundTruthEvaluator,
    NpuDevice,
    PowerTelemetry,
    default_npu_spec,
    noise_free_spec,
)
from repro.npu.pipelines import Pipe
from repro.npu.timeline import Scenario
from repro.workloads import generate
from repro.workloads.operator import ComputeCharacter, OperatorSpec


@pytest.fixture(scope="session")
def npu_spec():
    """The default calibrated NPU description."""
    return default_npu_spec()


@pytest.fixture(scope="session")
def ideal_spec():
    """An NPU with noise-free instruments."""
    return noise_free_spec()


@pytest.fixture(scope="session")
def device(npu_spec):
    """A device over the default spec (shared evaluator cache)."""
    return NpuDevice(npu_spec)


@pytest.fixture(scope="session")
def ideal_device(ideal_spec):
    """A device whose instruments report exact values."""
    return NpuDevice(ideal_spec)


@pytest.fixture(scope="session")
def evaluator(npu_spec):
    """A memoised ground-truth evaluator."""
    return GroundTruthEvaluator(npu_spec)


@pytest.fixture()
def rng_factory():
    """A fresh deterministic RNG factory per test."""
    return RngFactory(1234)


@pytest.fixture(scope="session")
def small_bert_trace():
    """A small but structurally complete transformer iteration."""
    return generate("bert", scale=0.1)


@pytest.fixture(scope="session")
def small_gpt3_trace():
    """A small GPT-3 iteration (two layers)."""
    return generate("gpt3", scale=0.02)


@pytest.fixture(scope="session")
def bert_profile_reports(npu_spec, device, small_bert_trace):
    """Profiler reports for the small BERT trace at four frequencies."""
    profiler = CannStyleProfiler(npu_spec, RngFactory(7).generator("prof"))
    reports = []
    for freq in (1000.0, 1300.0, 1500.0, 1800.0):
        result = device.run(
            small_bert_trace,
            FrequencyTimeline.constant(freq),
            initial_celsius=60.0,
        )
        reports.append(profiler.profile(result))
    return reports


@pytest.fixture(scope="session")
def calibration(device, npu_spec):
    """Offline calibration constants for the default device."""
    from repro.power import run_offline_calibration
    from repro.workloads.generators import micro

    telemetry = PowerTelemetry(npu_spec, RngFactory(9).generator("telem"))
    return run_offline_calibration(
        device,
        telemetry,
        micro.mixed_calibration_load(repeats=10),
        k_loads=[micro.matmul_loop(repeats=20), micro.gelu_loop(repeats=20)],
    )


def make_compute_op(
    name: str = "op",
    scenario: Scenario = Scenario.PINGPONG_INDEPENDENT,
    n_blocks: int = 6,
    core_cycles: float = 30_000.0,
    ld_bytes: float = 1_500_000.0,
    st_bytes: float = 600_000.0,
    derate: float = 1.0,
    overhead_us: float = 1.0,
    mix: dict | None = None,
) -> OperatorSpec:
    """Handy compute-operator factory for unit tests."""
    mix = mix or {Pipe.CUBE: 0.8, Pipe.SCALAR: 0.2}
    character = ComputeCharacter(
        scenario=scenario,
        n_blocks=n_blocks,
        core_cycles_per_block=core_cycles,
        core_mix=ComputeCharacter.make_mix(mix),
        ld_bytes_per_block=ld_bytes,
        st_bytes_per_block=st_bytes,
        bandwidth_derate=derate,
        fixed_overhead_us=overhead_us,
    )
    return OperatorSpec(name=name, op_type="Test", compute=character)


class RowCountingScorer:
    """A strategy scorer that counts the rows it is asked to score.

    Delegates every attribute to the wrapped scorer, so ``run_search``
    sees the same grid, tables and scores; ``rows`` is the number of
    individuals that reached ``score`` or ``score_sums``.
    """

    def __init__(self, scorer) -> None:
        self._scorer = scorer
        self.rows = 0

    def __getattr__(self, name):
        return getattr(self._scorer, name)

    def score(self, population):
        self.rows += len(population)
        return self._scorer.score(population)

    def score_sums(self, sums):
        self.rows += len(sums)
        return self._scorer.score_sums(sums)


def evaluation_ceiling(config, generations: int) -> int:
    """Rows a GA search scores if every child of every generation changed."""
    return config.population_size + generations * (
        config.population_size - config.elite_count
    )
