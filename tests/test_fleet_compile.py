"""The fleet's cold compile: in-place batched kernels, one row per class.

``npu.engine.batched_const_solutions`` and ``batched_const_durations``
write their block-sized temporaries into reused buffers; the allocating
forms they replaced live in :mod:`tests.oracles` and every case here is
compared with them byte for byte.  ``FleetSimulator`` solves one row per
speed class (distinct duration scale), a grid point at a time on first
use, and gathers per board; the rows reaching the kernels are counted,
and the gathered coefficients must be the same bits as a per-board
solve.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.fleet import (
    ChurnConfig,
    FleetSimulator,
    FleetSpec,
    auto_retarget,
    optimal_fleet_plan,
    reclaim_fleet_slack,
)
from repro.fleet.simulator import _DEVICE_COEFFICIENTS
from repro.fleet.spec import SPEED_BIN_WIDTH, DeviceVariation
from repro.npu import engine
from repro.npu.engine import (
    CompiledTrace,
    batched_const_durations,
    batched_const_solutions,
)
from repro.npu.execution import GroundTruthEvaluator
from repro.npu.spec import default_npu_spec
from repro.workloads import generate
from repro.workloads.trace import TraceEntry, build_trace
from tests.oracles import allocating_const_durations, allocating_const_solutions
from tests.test_fleet import STEP_ARRAYS

NPU = default_npu_spec()
K = NPU.thermal.celsius_per_watt
TAU = NPU.thermal.time_constant_us
GRID = tuple(float(f) for f in NPU.frequencies.points)


def compile_trace(trace) -> CompiledTrace:
    return CompiledTrace(trace, GroundTruthEvaluator(NPU))


@pytest.fixture(scope="module")
def gpt3():
    return compile_trace(generate("gpt3", scale=0.02))


@pytest.fixture(scope="module")
def paced():
    """gpt3 0.01 with seeded host gaps and host-paced dispatches."""
    base = generate("gpt3", scale=0.01)
    rng = np.random.default_rng(11)
    entries = []
    for i, entry in enumerate(base.entries):
        gap = float(rng.uniform(0.0, 50.0)) if i % 3 == 0 else 0.0
        host = float(rng.uniform(10.0, 400.0)) if i % 5 == 0 else 0.0
        entries.append(
            TraceEntry(entry.spec, gap_before_us=gap, host_interval_us=host)
        )
    return compile_trace(build_trace("gpt3-paced", entries))


def edge_scales(count: int, seed: int = 0) -> np.ndarray:
    """Seeded board scales with both clamp values and a degraded board."""
    spread = DeviceVariation().max_speed_spread
    rng = np.random.default_rng(seed)
    scales = 1.0 + 0.03 * rng.standard_normal(count)
    scales = np.clip(scales, 1.0 - spread, 1.0 + spread)
    scales[:4] = (1.0 - spread, 1.0 + spread, 1.0, (1.0 + spread) * 1.3)
    return scales


def assert_kernels_match_oracles(compiled, freq, scales, k=K, tau=TAU):
    batch = batched_const_solutions(compiled, freq, scales, k, tau)
    oracle = allocating_const_solutions(compiled, freq, scales, k, tau)
    for name, expected in zip(_DEVICE_COEFFICIENTS, oracle):
        assert getattr(batch, name).tobytes() == expected.tobytes(), name
    durations = batched_const_durations(compiled, freq, scales)
    expected = allocating_const_durations(compiled, freq, scales)
    assert durations.tobytes() == expected.tobytes()
    assert durations.tobytes() == batch.duration_us.tobytes()


class TestInPlaceKernels:
    @pytest.mark.parametrize("freq", GRID)
    def test_every_grid_point_of_gpt3(self, gpt3, freq):
        assert_kernels_match_oracles(gpt3, freq, edge_scales(64))

    @pytest.mark.parametrize("freq", (GRID[0], GRID[len(GRID) // 2], GRID[-1]))
    def test_host_pacing_and_gaps(self, paced, freq):
        assert (paced.gap > 0).any() and (paced.host > 0).any()
        scales = edge_scales(4)
        durations = batched_const_durations(paced, freq, scales)
        busy = (paced.column(freq).dur * scales[:, None]).sum(axis=1)
        assert (durations > busy).all()  # the trace really idles
        assert_kernels_match_oracles(paced, freq, edge_scales(48, seed=1))

    def test_one_row(self, gpt3):
        for scale in edge_scales(4):
            assert_kernels_match_oracles(gpt3, GRID[-1], np.array([scale]))

    def test_multi_block_capacity(self, paced):
        block = engine._BATCH_CELL_BUDGET // (2 * paced.n_ops)
        scales = edge_scales(2 * block + 7, seed=2)
        assert_kernels_match_oracles(paced, GRID[1], scales)

    def test_short_blocks_match_one_block(self, gpt3, monkeypatch):
        """Rows are independent of the block they are solved in."""
        scales = edge_scales(23, seed=3)
        monkeypatch.setattr(engine, "_BATCH_CELL_BUDGET", 5 * 2 * gpt3.n_ops)
        assert_kernels_match_oracles(gpt3, GRID[2], scales)

    def test_pathological_rows_take_the_sequential_fallback(
        self, gpt3, monkeypatch
    ):
        calls = []
        fallback = engine._affine_parts

        def counting(*args):
            calls.append(args)
            return fallback(*args)

        monkeypatch.setattr(engine, "_affine_parts", counting)
        scales = edge_scales(6, seed=4)
        batch = batched_const_solutions(gpt3, GRID[-1], scales, K, 1e-3)
        assert len(calls) == scales.size
        with np.errstate(invalid="ignore"):  # the oracle's bad rows
            oracle = allocating_const_solutions(
                gpt3, GRID[-1], scales, K, 1e-3
            )
        for name, expected in zip(_DEVICE_COEFFICIENTS, oracle):
            assert getattr(batch, name).tobytes() == expected.tobytes(), name

    @pytest.mark.parametrize("freq", (GRID[0], GRID[-1]))
    def test_row_subsets_equal_the_full_solve(self, gpt3, freq):
        scales = edge_scales(200, seed=5)
        full = batched_const_solutions(gpt3, freq, scales, K, TAU)
        for rows in (np.array([7]), np.array([0, 1, 2, 3]),
                     np.arange(3, 200, 17), np.arange(199, -1, -9)):
            part = batched_const_solutions(gpt3, freq, scales[rows], K, TAU)
            for name in _DEVICE_COEFFICIENTS:
                got = getattr(part, name).tobytes()
                assert got == getattr(full, name)[rows].tobytes(), name


def churned(n_devices: int, seed: int) -> FleetSpec:
    return FleetSpec(
        n_devices=n_devices,
        seed=seed,
        churn=ChurnConfig(
            join_rate=0.3, leave_rate=0.2, fail_rate=0.1, max_joins=4
        ),
    )


@pytest.fixture(scope="module")
def tiny_trace():
    return generate("gpt3", scale=0.01)


def stepped_fleet(trace, spec):
    """A simulator with an untouched (NaN) stack, a baseline and a planned step."""
    sim = FleetSimulator(spec, trace)
    sim._coef.fill(np.nan)
    sim.step()
    plan = reclaim_fleet_slack(sim)
    sim.reset()
    sim.step(plan, plan.target_compute_us)
    return sim, plan


def assert_solved_means_written(sim):
    written = ~np.isnan(sim._coef).any(axis=(1, 2))
    untouched = np.isnan(sim._coef).all(axis=(1, 2))
    assert np.array_equal(written, sim._solved)
    assert np.array_equal(untouched, ~sim._solved)


class TestLazyRows:
    """Each grid point is solved once, for every speed class, on first use."""

    def test_steps_solve_only_the_points_they_gather(self, tiny_trace):
        spec = churned(64, 3)
        sim, plan = stepped_fleet(tiny_trace, spec)
        act = sim.active_ids
        used = set(plan.freq_index[act].tolist()) | {len(GRID) - 1}
        assert len(used) < len(GRID)
        assert np.flatnonzero(sim._solved).tolist() == sorted(used)
        assert_solved_means_written(sim)

    def test_later_solution_equals_a_fresh_one(self, tiny_trace):
        spec = churned(64, 3)
        sim, _ = stepped_fleet(tiny_trace, spec)
        fresh = FleetSimulator(spec, tiny_trace)
        for freq in GRID:
            got, expected = sim.solution(freq), fresh.solution(freq)
            for name in _DEVICE_COEFFICIENTS:
                assert (
                    getattr(got, name).tobytes()
                    == getattr(expected, name).tobytes()
                ), (freq, name)
        assert sim._solved.all()
        assert_solved_means_written(sim)

    def test_churn_join_reuses_its_class_row(self, tiny_trace, monkeypatch):
        """A spare joins on the baseline point its class already has."""
        spec = churned(64, 3)
        sim, plan = stepped_fleet(tiny_trace, spec)
        spare = spec.n_devices
        for step in range(1, 40):
            events = sim.advance_churn(step)
            if any(e.kind == "join" and e.device_id == spare for e in events):
                break
        else:
            pytest.fail("no join within 40 steps")
        calls = []
        monkeypatch.setattr(
            sim, "_solve", lambda *args: calls.append(args)
        )
        # The plan does not cover the spare: it runs the baseline point.
        result = sim.step(plan, plan.target_compute_us)
        assert calls == []
        assert spare in result.device_ids
        assert_solved_means_written(sim)

    def test_warm_epoch_solves_nothing(self, tiny_trace, monkeypatch):
        sim, plan = stepped_fleet(tiny_trace, churned(64, 3))
        calls = []
        monkeypatch.setattr(
            sim, "_solve", lambda *args: calls.append(args)
        )
        # An equal but distinct plan misses the epoch cache.
        sim.step(dataclasses.replace(plan), plan.target_compute_us)
        assert calls == []


class CountingKernels:
    """Counts the board rows the fleet hands to the batched kernels."""

    def __init__(self, monkeypatch) -> None:
        self.rows = {"solutions": 0, "durations": 0}
        module = "repro.fleet.simulator"
        monkeypatch.setattr(
            f"{module}.batched_const_solutions", self._solutions
        )
        monkeypatch.setattr(
            f"{module}.batched_const_durations", self._durations
        )

    def _solutions(self, compiled, freq, scales, k, tau):
        self.rows["solutions"] += np.size(scales)
        return batched_const_solutions(compiled, freq, scales, k, tau)

    def _durations(self, compiled, freq, scales):
        self.rows["durations"] += np.size(scales)
        return batched_const_durations(compiled, freq, scales)


def degraded_churned(n_devices: int, seed: int) -> FleetSpec:
    return churned(n_devices, seed).with_degraded_device(5, 1.3)


class TestCompileWork:
    """Compile work grows with the speed classes, not with the boards."""

    @pytest.mark.parametrize("n_devices", (1000, 10_000))
    def test_rows_at_most_classes_times_grid(
        self, tiny_trace, monkeypatch, n_devices
    ):
        kernels = CountingKernels(monkeypatch)
        spec = degraded_churned(n_devices, 4)
        sim = FleetSimulator(spec, tiny_trace)
        classes = sim.class_scales.size
        spread = spec.variation.max_speed_spread
        # Every bin of the clamp, plus the degraded board.
        assert classes <= round(2 * spread / SPEED_BIN_WIDTH) + 2
        sim.step()
        plan = reclaim_fleet_slack(sim)
        sim.run_steps(plan, 20, plan.target_compute_us, replan=auto_retarget())
        optimal_fleet_plan(sim)
        bound = classes * len(GRID)
        assert 0 < kernels.rows["solutions"] <= bound
        assert kernels.rows["durations"] == bound

    def test_a_degraded_board_is_its_own_class(self, tiny_trace):
        spec = degraded_churned(64, 4)
        sim = FleetSimulator(spec, tiny_trace)
        own = sim.board_class[5]
        assert np.flatnonzero(sim.board_class == own).tolist() == [5]
        degraded = spec.device_profiles()[5]
        assert sim.class_scales[own] == degraded.total_duration_scale
        healthy = np.delete(sim.duration_scales, 5)
        speed_bins = np.rint((healthy - 1.0) / SPEED_BIN_WIDTH)
        assert np.array_equal(healthy, 1.0 + speed_bins * SPEED_BIN_WIDTH)

    def test_classes_equal_a_per_board_solve(self, tiny_trace):
        sim = FleetSimulator(degraded_churned(1000, 4), tiny_trace)
        scales = sim.duration_scales
        assert sim.class_scales.size < scales.size
        by_freq = np.ascontiguousarray(sim.duration_table().T)
        for j, freq in enumerate(GRID):
            batch = batched_const_solutions(sim.compiled, freq, scales, K, TAU)
            got = sim.solution(freq)
            for name in _DEVICE_COEFFICIENTS:
                assert (
                    getattr(got, name).tobytes()
                    == getattr(batch, name).tobytes()
                ), (freq, name)
            durations = batched_const_durations(sim.compiled, freq, scales)
            assert by_freq[j].tobytes() == durations.tobytes()


def churn_run_digest(trace, n_devices: int, seed: int) -> str:
    """Plans and step arrays of three back-to-back churn segments.

    Each segment reclaims on the fleet the previous one left (no
    ``reset``), then runs 12 steps with ``auto_retarget``, so joins use
    up the spares and later segments solve rows the first never did.
    """
    sim = FleetSimulator(churned(n_devices, seed), trace)
    digest = hashlib.sha256()
    for _ in range(3):
        plan = reclaim_fleet_slack(sim)
        digest.update(plan.freq_index.tobytes())
        digest.update(plan.predicted_us.tobytes())
        digest.update(np.float64(plan.target_compute_us).tobytes())
        results = sim.run_steps(
            plan, 12, plan.target_compute_us, replan=auto_retarget()
        )
        for result in results:
            for name in STEP_ARRAYS:
                array = np.ascontiguousarray(getattr(result, name))
                digest.update(array.tobytes())
    return digest.hexdigest()


class TestPinnedChurnRun:
    """Digests recorded with per-board solves over the binned profiles.

    A change to how the fleet compiles must leave every plan and every
    step array of these runs bit for bit as they were.
    """

    PINNED = {
        (64, 3): (
            "52824ac404bea30e22207ae0861f9015e3810fff24d5d0aade39612f6cc61e37"
        ),
        (1000, 7): (
            "c4f5e118285ea28224b6d78a4107fb517ff5e1a30a152e916f9afba942ba5fe9"
        ),
    }

    @pytest.mark.parametrize("n_devices, seed", sorted(PINNED))
    def test_churn_run_pinned(self, tiny_trace, n_devices, seed):
        digest = churn_run_digest(tiny_trace, n_devices, seed)
        assert digest == self.PINNED[(n_devices, seed)]
