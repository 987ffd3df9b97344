"""Tests for the vectorized fleet layer (repro.fleet).

The numerical ground truth (fleet vs looped cluster at N <= 16) lives
in ``tests/test_fleet_equivalence.py``; this module covers the fleet's
own machinery: the hierarchical collective properties, seeded churn
determinism, the vectorized reclamation pass, the per-epoch step cache,
the store round-trip, the straggler top-k reporting and the CLI.
"""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.rng import RngFactory
from repro.errors import ConfigurationError
from repro.fleet import (
    ChurnConfig,
    DeviceOverride,
    DeviceVariation,
    FleetSimulator,
    FleetSpec,
    FleetTopology,
    InterconnectSpec,
    auto_retarget,
    descending_top_k,
    draw_churn,
    plan_strategy_json,
    reclaim_fleet_slack,
    straggler_summary,
)
from repro.fleet.cli import main as fleet_main
from repro.fleet.simulator import MEMBERSHIP_KINDS
from repro.fleet.spec import VARIATION_STREAM, DeviceProfile
from repro.npu.engine import batched_const_durations
from repro.workloads import generate
from tests.oracles import EAGER_STEP_PAIRS, eager_step_arrays
from tests.reference.compare import compare_with_cluster
from tests.reference.simulator import (
    SimulatedCluster,
    build_frequency_tables,
    reclaim_slack,
)
from tests.reference.spec import ClusterSpec, cluster_spec_of, fleet_spec_of


@pytest.fixture(scope="module")
def tiny_trace():
    """A small GPT-3 iteration; fleet steps replay it N times."""
    return generate("gpt3", scale=0.01)


@pytest.fixture(scope="module")
def small_fleet(tiny_trace):
    return FleetSimulator(FleetSpec(n_devices=8, seed=0), tiny_trace)


def assert_plan_frozen(plan):
    """Writing into any of a plan's arrays raises."""
    for name in ("freq_index", "freq_mhz", "predicted_us", "covered"):
        with pytest.raises(ValueError):
            getattr(plan, name)[0] = 0


class TestTopology:
    def test_rack_sizes_chunk_in_id_order(self):
        topology = FleetTopology(devices_per_rack=4)
        assert topology.rack_sizes(10) == (4, 4, 2)
        assert topology.rack_sizes(4) == (4,)
        assert topology.rack_sizes(0) == ()

    def test_rejects_empty_racks(self):
        with pytest.raises(ConfigurationError):
            FleetTopology(devices_per_rack=0)

    def test_single_rack_degenerates_to_ring_law(self):
        topology = FleetTopology(devices_per_rack=16)
        payload = 64 * 2**20
        cost = topology.breakdown(payload, topology.rack_sizes(16))
        ring = topology.intra.allreduce_us(payload, 16)
        assert cost.hierarchical_us == ring
        assert cost.chosen_us == ring

    def test_one_device_is_free(self):
        topology = FleetTopology()
        assert topology.allreduce_us(64 * 2**20, (1,)) == 0.0

    @settings(max_examples=80, deadline=None)
    @given(
        devices=st.integers(min_value=2, max_value=4096),
        per_rack=st.integers(min_value=1, max_value=64),
        payload_mb=st.floats(min_value=0.1, max_value=1024.0),
        intra_gbps=st.floats(min_value=1.0, max_value=400.0),
        inter_gbps=st.floats(min_value=0.5, max_value=400.0),
        intra_lat=st.floats(min_value=0.0, max_value=100.0),
        inter_lat=st.floats(min_value=0.0, max_value=500.0),
    )
    def test_never_slower_than_flat_ring(
        self,
        devices,
        per_rack,
        payload_mb,
        intra_gbps,
        inter_gbps,
        intra_lat,
        inter_lat,
    ):
        """Algorithm selection: the chosen schedule never loses to the
        flat ring over inter-rack-grade links, at any topology shape."""
        topology = FleetTopology(
            devices_per_rack=per_rack,
            intra=InterconnectSpec(
                link_bandwidth_gbps=intra_gbps, link_latency_us=intra_lat
            ),
            inter=InterconnectSpec(
                link_bandwidth_gbps=inter_gbps, link_latency_us=inter_lat
            ),
        )
        cost = topology.breakdown(
            payload_mb * 2**20, topology.rack_sizes(devices)
        )
        assert cost.chosen_us <= cost.flat_ring_us

    def test_hierarchical_wins_at_default_grades(self):
        """With fast intra links and a slow inter fabric, the tree beats
        the flat ring once the fleet spans multiple racks."""
        topology = FleetTopology()
        payload = 64 * 2**20
        cost = topology.breakdown(payload, topology.rack_sizes(512))
        assert cost.algorithm == "hierarchical"
        assert cost.hierarchical_us < cost.flat_ring_us

    def test_tree_hops_grow_logarithmically(self):
        topology = FleetTopology(devices_per_rack=16)
        payload = 64 * 2**20
        costs = [
            topology.breakdown(
                payload, topology.rack_sizes(16 * racks)
            ).hierarchical_us
            for racks in (2, 4, 8, 16)
        ]
        intra = topology.intra.allreduce_us(payload, 16)
        tree = [c - intra for c in costs]
        # Doubling the rack count adds one reduce + one broadcast hop.
        steps = [tree[i + 1] - tree[i] for i in range(len(tree) - 1)]
        assert all(math.isclose(s, steps[0]) for s in steps)

    @pytest.mark.parametrize("per_rack", [1, 4, 16, 24])
    def test_breakdown_for_is_the_rack_tuple_price(self, per_rack):
        """The O(1) price is bitwise the per-rack tuple's, at every edge."""
        topology = FleetTopology(devices_per_rack=per_rack)
        payload = 64 * 2**20
        edges = (0, 1, per_rack - 1, per_rack, per_rack + 1, 2 * per_rack)
        for n in edges + (10_000,):
            assert_costs_bitwise(
                topology.breakdown_for(payload, n),
                topology.breakdown(payload, topology.rack_sizes(n)),
            )
        with pytest.raises(ConfigurationError):
            topology.breakdown_for(payload, -1)
        with pytest.raises(ConfigurationError):
            topology.breakdown_for(-1.0, 4)

    @pytest.mark.parametrize("n_devices", [1, 3, 4, 5, 8, 10_000])
    def test_collective_cost_prices_the_active_count(
        self, tiny_trace, n_devices
    ):
        spec = FleetSpec(
            n_devices=n_devices, topology=FleetTopology(devices_per_rack=4)
        )
        sim = FleetSimulator(spec, tiny_trace)
        assert_costs_bitwise(
            sim.collective_cost(),
            spec.topology.breakdown(
                spec.gradient_bytes, spec.topology.rack_sizes(n_devices)
            ),
        )

    def test_collective_cost_after_churn(self, tiny_trace):
        spec = dataclasses.replace(
            churned_spec(21, 3), topology=FleetTopology(devices_per_rack=4)
        )
        sim = FleetSimulator(spec, tiny_trace)
        sizes = set()
        for step in range(1, 30):
            sim.advance_churn(step)
            sizes.add(sim.n_active)
            assert_costs_bitwise(
                sim.collective_cost(),
                spec.topology.breakdown(
                    spec.gradient_bytes, sim.rack_sizes()
                ),
            )
        assert len(sizes) > 3


def assert_costs_bitwise(got, ref):
    for name in ("hierarchical_us", "flat_ring_us"):
        assert (
            np.float64(getattr(got, name)).tobytes()
            == np.float64(getattr(ref, name)).tobytes()
        ), name


def continuous_profiles(spec: FleetSpec) -> tuple:
    """The speed draw as it was before binning: clamped, not rounded."""
    rng = RngFactory(spec.seed).generator(VARIATION_STREAM)
    variation = spec.variation
    spread = variation.max_speed_spread
    cap = variation.max_ambient_spread_celsius
    profiles = []
    for device_id in range(spec.capacity):
        speed = 1.0 + variation.speed_sigma * float(rng.standard_normal())
        ambient = variation.ambient_sigma_celsius * float(
            rng.standard_normal()
        )
        profiles.append(
            DeviceProfile(
                device_id=device_id,
                duration_scale=min(1.0 + spread, max(1.0 - spread, speed)),
                ambient_offset_celsius=min(cap, max(-cap, ambient)),
            )
        )
    return tuple(profiles)


#: Wide enough that most boards clamp: a clamped board's profile is the
#: same draw binned or not.
CLAMPING = DeviceVariation(speed_sigma=0.2, max_speed_spread=0.05)


class TestFleetSpec:
    def test_capacity_includes_spares(self):
        spec = FleetSpec(n_devices=8, churn=ChurnConfig(max_joins=4))
        assert spec.capacity == 12
        assert len(spec.device_profiles()) == 12

    def test_spares_never_perturb_the_initial_fleet(self):
        base = FleetSpec(n_devices=8, seed=3).device_profiles()
        spare = FleetSpec(
            n_devices=8, seed=3, churn=ChurnConfig(max_joins=4)
        ).device_profiles()
        assert spare[:8] == base

    def test_profiles_match_the_cluster_reference(self):
        fleet = FleetSpec(n_devices=8, seed=5)
        cluster = ClusterSpec(n_devices=8, seed=5)
        assert fleet.device_profiles()[:8] == cluster.device_profiles()

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"seed": 11, "churn": ChurnConfig(max_joins=5)},
            {
                "variation": DeviceVariation(
                    speed_sigma=0.2, max_speed_spread=0.05
                )
            },
            {"variation": DeviceVariation.none()},
            {
                "seed": 2,
                "overrides": (
                    DeviceOverride(3, 1.4, "slow"),
                    DeviceOverride(0, 0.9, "fast"),
                ),
            },
        ],
    )
    def test_profiles_match_the_draw_oracle(self, overrides):
        """Two draws per board, in order: the reference spec's loop."""
        fleet = FleetSpec(n_devices=12, **overrides)
        oracle = cluster_spec_of(fleet, fleet.capacity)
        assert fleet.device_profiles() == oracle.device_profiles()

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"seed": 11, "churn": ChurnConfig(max_joins=5)},
            {
                "seed": 2,
                "overrides": (
                    DeviceOverride(3, 1.4, "slow"),
                    DeviceOverride(0, 0.9, "fast"),
                ),
            },
        ],
    )
    def test_board_arrays_equal_the_profiles(self, overrides, tiny_trace):
        """The simulator reads the spec's arrays, never the profiles; the
        arrays hold each profile's floats, overrides applied."""
        spec = FleetSpec(n_devices=12, **overrides)
        sim = FleetSimulator(spec, tiny_trace)
        assert "_profiles" not in vars(spec)
        profiles = spec.device_profiles()
        assert spec.duration_scales.tolist() == [
            p.total_duration_scale for p in profiles
        ]
        assert spec.ambient_offsets_celsius.tolist() == [
            p.ambient_offset_celsius for p in profiles
        ]
        base = spec.npu.thermal.ambient_celsius
        assert sim.celsius.tolist() == [
            base + p.ambient_offset_celsius for p in profiles
        ]
        for array in (spec.duration_scales, spec.ambient_offsets_celsius):
            assert not array.flags.writeable

    def test_profiles_are_drawn_once_per_spec(self, monkeypatch, tiny_trace):
        """The simulator and every later reader share one draw."""
        import repro.fleet.spec as spec_module

        draws = []
        factory = spec_module.RngFactory

        def counting(seed):
            draws.append(seed)
            return factory(seed)

        monkeypatch.setattr(spec_module, "RngFactory", counting)
        spec = FleetSpec(n_devices=8, seed=4)
        first = spec.device_profiles()
        assert spec.device_profiles() is first
        FleetSimulator(spec, tiny_trace)
        assert draws == [4]
        # The cache is not a field: equal specs stay equal, and a
        # replaced spec draws its own profiles.
        assert spec == FleetSpec(n_devices=8, seed=4)
        other = dataclasses.replace(spec, seed=5)
        assert other.device_profiles() != first
        assert draws == [4, 5]

    def test_clamped_boards_keep_their_profiles(self):
        """Binning moves only boards inside the clamp: a board clamped
        at the speed spread draws the same profile binned or not."""
        spec = FleetSpec(n_devices=8, seed=0, variation=CLAMPING)
        same = [
            old == new
            for old, new in zip(
                continuous_profiles(spec), spec.device_profiles()
            )
        ]
        assert 0 < sum(same) < len(same)

    def test_from_cluster_round_trip(self):
        cluster = ClusterSpec(n_devices=4, seed=7)
        fleet = fleet_spec_of(cluster)
        assert cluster_spec_of(fleet) == cluster

    def test_rejects_min_active_beyond_fleet(self):
        with pytest.raises(ConfigurationError):
            FleetSpec(n_devices=2, churn=ChurnConfig(min_active=3))

    def test_rejects_empty_fleet(self):
        with pytest.raises(ConfigurationError):
            FleetSpec(n_devices=0)


class TestDurationTable:
    def test_bitwise_against_looped_probes(self, tiny_trace):
        """The stacked duration table is the per-device probe loop."""
        spec = FleetSpec(n_devices=4, seed=0)
        sim = FleetSimulator(spec, tiny_trace)
        table = sim.duration_table()
        cluster = SimulatedCluster(cluster_spec_of(spec))
        tables = build_frequency_tables(cluster, tiny_trace)
        for i, device in enumerate(tables):
            for j in range(len(device.freqs_mhz)):
                assert table[i, j] == device.duration_us[j]

    def test_built_once_and_read_only(self, tiny_trace):
        """One table object survives reset() and churn, and is frozen."""
        sim = FleetSimulator(churned_spec(32, 3), tiny_trace)
        table = sim.duration_table()
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
        assert sim.duration_table() is table
        sim.run_steps(None, 8)
        assert any(e.kind in MEMBERSHIP_KINDS for e in sim.events)
        assert sim.duration_table() is table
        sim.reset()
        assert sim.duration_table() is table

    def test_capacity_by_frequency_view(self, tiny_trace):
        """Callers see ``(capacity, F)``, read-only, one object."""
        sim = FleetSimulator(churned_spec(32, 3), tiny_trace)
        table = sim.duration_table()
        grid = sim.spec.npu.frequencies.points
        assert table.shape == (sim.spec.capacity, len(grid))
        assert not table.flags.writeable
        assert sim.duration_table() is table

    def test_transpose_is_c_contiguous(self, tiny_trace):
        """Storage is frequency-major: one contiguous row per grid point."""
        sim = FleetSimulator(churned_spec(32, 3), tiny_trace)
        by_freq = sim.duration_table().T
        assert by_freq.flags.c_contiguous
        assert not by_freq.flags.writeable

    def test_equals_a_per_column_build(self, tiny_trace):
        sim = FleetSimulator(churned_spec(32, 3), tiny_trace)
        table = sim.duration_table()
        grid = sim.spec.npu.frequencies.points
        ref = np.empty((sim.spec.capacity, len(grid)))
        for j, freq in enumerate(grid):
            ref[:, j] = batched_const_durations(
                sim.compiled, freq, sim.duration_scales
            )
        assert np.ascontiguousarray(table).tobytes() == ref.tobytes()

    def test_columns_equal_the_solutions(self, tiny_trace):
        sim = FleetSimulator(FleetSpec(n_devices=16, seed=2), tiny_trace)
        table = sim.duration_table()
        for j, freq in enumerate(sim.spec.npu.frequencies.points):
            column = np.ascontiguousarray(table[:, j])
            assert (
                column.tobytes() == sim.solution(freq).duration_us.tobytes()
            )

    def test_solution_rejects_off_grid_frequency(self, small_fleet):
        with pytest.raises(ConfigurationError):
            small_fleet.solution(1234.5)

    @pytest.mark.parametrize("n_devices, seed", [(64, 3), (1000, 7)])
    def test_warm_reclaim_after_churn_matches_fresh(
        self, tiny_trace, n_devices, seed
    ):
        """A replan from the cached table equals one from a new fleet."""
        spec = churned_spec(n_devices, seed)
        warm = FleetSimulator(spec, tiny_trace)
        plan = reclaim_fleet_slack(warm)
        warm.run_steps(
            plan, 12, plan.target_compute_us, replan=auto_retarget()
        )
        fresh = FleetSimulator(spec, tiny_trace)
        for step in range(1, 12):
            fresh.advance_churn(step)
        assert np.array_equal(fresh.active_ids, warm.active_ids)
        assert not np.array_equal(
            warm.active_ids, np.arange(spec.n_devices)
        )
        got = reclaim_fleet_slack(warm)
        ref = reclaim_fleet_slack(fresh)
        for name in ("freq_index", "freq_mhz", "predicted_us", "covered"):
            assert (
                getattr(got, name).tobytes() == getattr(ref, name).tobytes()
            ), name
        assert got.target_compute_us == ref.target_compute_us
        assert got.straggler_id == ref.straggler_id


class TestChurn:
    def test_draws_are_deterministic(self):
        config = ChurnConfig(join_rate=1.0, leave_rate=1.0, fail_rate=0.5)
        assert draw_churn(config, 0, 3) == draw_churn(config, 0, 3)

    def test_steps_draw_independent_streams(self):
        config = ChurnConfig(join_rate=5.0, leave_rate=5.0, fail_rate=5.0)
        draws = {draw_churn(config, 0, step) for step in range(8)}
        assert len(draws) > 1

    def test_no_rates_no_draws(self):
        draw = draw_churn(ChurnConfig.none(), 0, 1)
        assert (draw.joins, draw.leaves, draw.fails) == (0, 0, 0)

    def test_replay_identical(self, tiny_trace):
        spec = FleetSpec(
            n_devices=8,
            seed=2,
            churn=ChurnConfig(
                join_rate=1.0, leave_rate=1.0, fail_rate=0.5, max_joins=4
            ),
        )

        def run():
            sim = FleetSimulator(spec, tiny_trace)
            results = sim.run_steps(None, steps=4)
            return (
                sim.events,
                tuple(r.fleet_soc_energy_j for r in results),
                tuple(tuple(r.device_ids) for r in results),
            )

        assert run() == run()

    def test_min_active_floor_holds(self, tiny_trace):
        spec = FleetSpec(
            n_devices=2,
            seed=0,
            churn=ChurnConfig(leave_rate=10.0, min_active=2),
        )
        sim = FleetSimulator(spec, tiny_trace)
        sim.run_steps(None, steps=4)
        assert sim.n_active == 2
        assert all(e.kind == "churn_skipped" for e in sim.events)

    def test_join_exhaustion_is_logged(self, tiny_trace):
        spec = FleetSpec(
            n_devices=2,
            seed=0,
            churn=ChurnConfig(join_rate=10.0, max_joins=1),
        )
        sim = FleetSimulator(spec, tiny_trace)
        sim.run_steps(None, steps=3)
        kinds = [e.kind for e in sim.events]
        assert kinds.count("join") == 1
        assert "join_exhausted" in kinds
        assert sim.n_active == 3

    def test_joined_board_starts_at_its_own_ambient(self, tiny_trace):
        spec = FleetSpec(
            n_devices=2,
            seed=0,
            churn=ChurnConfig(join_rate=10.0, max_joins=1),
        )
        sim = FleetSimulator(spec, tiny_trace)
        sim.step()  # warms devices 0 and 1 above ambient
        events = sim.advance_churn(1)
        joined = [e.device_id for e in events if e.kind == "join"]
        assert joined == [2]
        base = spec.npu.thermal.ambient_celsius
        profile = spec.device_profiles()[2]
        assert sim.celsius[2] == base + profile.ambient_offset_celsius

    def test_reset_restores_initial_membership(self, tiny_trace):
        spec = FleetSpec(
            n_devices=4,
            seed=1,
            churn=ChurnConfig(leave_rate=5.0, min_active=1),
        )
        sim = FleetSimulator(spec, tiny_trace)
        sim.run_steps(None, steps=3)
        sim.reset()
        fresh = FleetSimulator(spec, tiny_trace)
        assert sim.n_active == 4
        assert sim.events == ()
        assert np.array_equal(sim.celsius, fresh.celsius)
        assert np.array_equal(sim.active_ids, fresh.active_ids)

    def test_rejects_negative_rates(self):
        with pytest.raises(ConfigurationError):
            ChurnConfig(join_rate=-1.0)
        with pytest.raises(ConfigurationError):
            ChurnConfig(min_active=0)


class TestReclaim:
    def test_matches_the_looped_cluster_plan(self, small_fleet, tiny_trace):
        spec = small_fleet.spec
        cluster = SimulatedCluster(cluster_spec_of(spec))
        tables = build_frequency_tables(cluster, tiny_trace)
        reference = reclaim_slack(
            tables, tiny_trace.name, allreduce_us=cluster.spec.allreduce_us
        )
        plan = reclaim_fleet_slack(small_fleet)
        assert plan.target_compute_us == reference.target_compute_us
        assert plan.straggler_id == reference.straggler_id
        assert (
            tuple(plan.freq_mhz[: spec.n_devices])
            == reference.frequencies_mhz
        )
        assert plan_strategy_json(plan) == reference.strategy_json()

    def test_straggler_keeps_max_frequency(self, small_fleet):
        plan = reclaim_fleet_slack(small_fleet)
        grid_max = small_fleet.spec.npu.frequencies.points[-1]
        assert plan.freq_mhz[plan.straggler_id] == grid_max

    def test_some_device_downclocks(self, small_fleet):
        plan = reclaim_fleet_slack(small_fleet)
        grid_max = small_fleet.spec.npu.frequencies.points[-1]
        covered = plan.freq_mhz[plan.covered]
        assert (covered < grid_max).any()

    def test_rejects_negative_margin(self, small_fleet):
        with pytest.raises(ConfigurationError):
            reclaim_fleet_slack(small_fleet, slack_margin=-0.1)

    def test_plan_arrays_are_read_only(self, small_fleet):
        plan = reclaim_fleet_slack(small_fleet)
        assert_plan_frozen(plan)

    def test_replan_covers_only_survivors(self, tiny_trace):
        spec = FleetSpec(
            n_devices=8,
            seed=0,
            churn=ChurnConfig(fail_rate=2.0, min_active=2),
        )
        sim = FleetSimulator(spec, tiny_trace)
        sim.run_steps(None, steps=3, replan=auto_retarget())
        failed = {e.device_id for e in sim.events if e.kind == "fail"}
        assert failed  # seed 0 does fail someone in three steps
        plan = reclaim_fleet_slack(sim)
        assert not any(plan.covered[list(failed)])
        assert plan.n_devices == sim.n_active

    def test_reclaimed_step_saves_energy_at_same_step_time(
        self, small_fleet
    ):
        small_fleet.reset()
        baseline = small_fleet.step()
        small_fleet.reset()
        plan = reclaim_fleet_slack(small_fleet)
        reclaimed = small_fleet.step(
            plan, target_compute_us=plan.target_compute_us
        )
        assert reclaimed.step_us == baseline.step_us
        assert reclaimed.fleet_soc_energy_j < baseline.fleet_soc_energy_j
        assert reclaimed.overrun_count == 0

    def test_stale_plan_overruns_after_degradation(self, tiny_trace):
        spec = FleetSpec(n_devices=8, seed=0)
        plan = reclaim_fleet_slack(FleetSimulator(spec, tiny_trace))
        victim = (plan.straggler_id + 1) % 8
        degraded = FleetSimulator(
            spec.with_degraded_device(victim, 1.3), tiny_trace
        )
        stale = degraded.step(
            plan, target_compute_us=plan.target_compute_us
        )
        assert stale.overrun_count >= 1
        assert victim in stale.overrun_device_ids
        retargeted = reclaim_fleet_slack(degraded)
        assert retargeted.straggler_id == victim
        fresh = degraded.step(
            retargeted, target_compute_us=retargeted.target_compute_us
        )
        assert fresh.overrun_count == 0


class TestReporting:
    def test_top_k_rows_plus_remainder(self, tiny_trace):
        sim = FleetSimulator(FleetSpec(n_devices=32, seed=0), tiny_trace)
        result = sim.step()
        rows = result.device_rows(top_k=8)
        assert len(rows) == 9
        assert rows[0]["device"] == result.straggler_id
        assert rows[0]["straggler"] == "*"
        assert rows[-1]["device"] == "(+24 faster)"
        total = sum(r["soc_j"] for r in rows)
        assert total == pytest.approx(result.fleet_soc_energy_j, abs=0.5)

    def test_small_fleet_needs_no_remainder(self, small_fleet):
        small_fleet.reset()
        rows = small_fleet.step().device_rows(top_k=8)
        assert len(rows) == 8
        assert all(isinstance(r["device"], int) for r in rows)

    def test_cluster_rows_share_the_shape(self, tiny_trace):
        cluster = SimulatedCluster(ClusterSpec(n_devices=4, seed=0))
        result = cluster.run_step(tiny_trace)
        rows = result.device_rows(top_k=2)
        assert len(rows) == 3
        assert rows[0]["straggler"] == "*"
        assert rows[-1]["device"] == "(+2 faster)"
        assert set(rows[0]) == set(rows[-1])

    def test_report_render_mentions_straggler(self, small_fleet):
        small_fleet.reset()
        baseline = small_fleet.step()
        small_fleet.reset()
        report = small_fleet.step().report(baseline)
        text = report.render()
        assert "straggler" in text
        assert small_fleet.spec.name in text

    def test_straggler_summary_aggregates(self, small_fleet):
        small_fleet.reset()
        results = small_fleet.run_steps(None, steps=3)
        summary = straggler_summary(results)
        assert summary["steps"] == 3
        assert summary["devices_last"] == 8
        assert summary["overruns"] == 0


class TestDescendingTopK:
    """The O(N) top-k selection must match the old full argsort exactly."""

    @staticmethod
    def reference(values, k):
        # The path device_rows used before the argpartition rewrite.
        return np.argsort(-values, kind="stable")[:k]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [0, 1, 3, 8, 50, 200, 500])
    def test_matches_stable_argsort_prefix(self, seed, k):
        values = np.random.default_rng(seed).normal(size=200)
        assert np.array_equal(
            descending_top_k(values, k), self.reference(values, k)
        )

    @pytest.mark.parametrize(
        "values",
        [
            [5.0, 5.0, 5.0, 5.0],
            [9.0, 8.0, 8.0, 8.0, 7.0],
            [1.0, 2.0, 2.0, 2.0, 2.0, 3.0],
            [0.0],
            [3.0, 3.0],
        ],
    )
    def test_tie_positions_resolve_like_stable_sort(self, values):
        arr = np.asarray(values)
        for k in range(len(values) + 2):
            assert np.array_equal(
                descending_top_k(arr, k), self.reference(arr, k)
            )

    @given(
        st.lists(
            st.integers(min_value=-5, max_value=5), min_size=1, max_size=40
        ),
        st.integers(min_value=0, max_value=45),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_equals_old_path(self, values, k):
        arr = np.asarray(values, dtype=float)
        assert np.array_equal(
            descending_top_k(arr, k), self.reference(arr, k)
        )

    def test_device_rows_match_the_old_argsort_path(self, tiny_trace):
        sim = FleetSimulator(FleetSpec(n_devices=64, seed=4), tiny_trace)
        result = sim.step()
        for top_k in (1, 8, 32):
            rows = result.device_rows(top_k)
            order = self.reference(result.arrival_us, top_k)
            expected = []
            for pos in order:
                device = int(result.device_ids[pos])
                expected.append(
                    {
                        "device": device,
                        "compute_ms": round(
                            float(result.arrival_us[pos]) / 1000.0, 3
                        ),
                        "wait_ms": round(
                            float(result.wait_us[pos]) / 1000.0, 3
                        ),
                        "idle_mhz": round(float(result.freq_mhz[pos])),
                        "soc_j": round(
                            float(result.total_soc_energy_j[pos]), 3
                        ),
                        "aicore_j": round(
                            float(result.total_aicore_energy_j[pos]), 3
                        ),
                        "straggler": (
                            "*" if device == result.straggler_id else ""
                        ),
                    }
                )
            assert rows[: len(order)] == expected


#: Every per-device array a step result carries.
STEP_ARRAYS = (
    "device_ids",
    "arrival_us",
    "wait_us",
    "freq_mhz",
    "aicore_energy_j",
    "soc_energy_j",
    "idle_aicore_energy_j",
    "idle_soc_energy_j",
    "end_celsius",
)


def churned_spec(n_devices: int, seed: int) -> FleetSpec:
    return FleetSpec(
        n_devices=n_devices,
        seed=seed,
        churn=ChurnConfig(
            join_rate=0.3, leave_rate=0.2, fail_rate=0.1, max_joins=4
        ),
    )


def cold_steps(sim, plan, steps, target, replan=None):
    """``run_steps`` spelled out with a fresh plan object every step.

    An equal but distinct plan misses the epoch cache, so every step
    rebuilds its epoch from scratch: the reference the cached path must
    reproduce bit for bit.
    """
    results = []
    for index in range(steps):
        events = ()
        if index > 0:
            events = sim.advance_churn(index)
            changed = any(e.kind in MEMBERSHIP_KINDS for e in events)
            if changed and replan is not None:
                plan = replan(sim)
                target = plan.target_compute_us
        results.append(
            sim.step(dataclasses.replace(plan), target, events=events)
        )
    return results


def assert_steps_identical(got, ref):
    assert len(got) == len(ref)
    for x, y in zip(got, ref):
        for name in STEP_ARRAYS:
            assert np.array_equal(getattr(x, name), getattr(y, name)), name
        assert x.compute_us == y.compute_us
        assert x.collective == y.collective
        assert x.straggler_id == y.straggler_id
        assert x.overrun_count == y.overrun_count
        assert x.overrun_device_ids == y.overrun_device_ids
        assert x.events == y.events


class TestEpochCache:
    """Warm (cached) steps against cold (rebuilt-every-step) steps."""

    @pytest.mark.parametrize("n_devices, seed", [(64, 3), (1000, 7)])
    def test_fixed_plan_warm_matches_cold(self, tiny_trace, n_devices, seed):
        spec = churned_spec(n_devices, seed)
        warm = FleetSimulator(spec, tiny_trace)
        cold = FleetSimulator(spec, tiny_trace)
        plan = reclaim_fleet_slack(warm)
        target = plan.target_compute_us
        got = warm.run_steps(plan, 12, target)
        ref = cold_steps(cold, plan, 12, target)
        # The run must cross membership changes without a replan, so a
        # stale epoch would show up as stale ids and arrivals.
        assert any(
            e.kind in MEMBERSHIP_KINDS for r in got for e in r.events
        )
        assert_steps_identical(got, ref)
        assert warm.overrun_total == cold.overrun_total

    @pytest.mark.parametrize("n_devices, seed", [(64, 3), (1000, 7)])
    def test_auto_retarget_warm_matches_cold(
        self, tiny_trace, n_devices, seed
    ):
        spec = churned_spec(n_devices, seed)
        warm = FleetSimulator(spec, tiny_trace)
        cold = FleetSimulator(spec, tiny_trace)
        plan = reclaim_fleet_slack(warm)
        replan = auto_retarget()
        got = warm.run_steps(
            plan, 12, plan.target_compute_us, replan=replan
        )
        ref = cold_steps(
            cold, plan, 12, plan.target_compute_us, replan=replan
        )
        assert_steps_identical(got, ref)

    def test_reset_replays_identically(self, tiny_trace):
        sim = FleetSimulator(churned_spec(64, 3), tiny_trace)
        plan = reclaim_fleet_slack(sim)
        first = sim.run_steps(plan, 12, plan.target_compute_us)
        sim.reset()
        second = sim.run_steps(plan, 12, plan.target_compute_us)
        assert_steps_identical(second, first)

    def test_overrun_total_accumulates_every_step(self, tiny_trace):
        spec = FleetSpec(n_devices=12, seed=0)
        warm = FleetSimulator(spec, tiny_trace)
        cold = FleetSimulator(spec, tiny_trace)
        plan = reclaim_fleet_slack(warm)
        tight = plan.target_compute_us / 2.0
        got = warm.run_steps(plan, 3, tight)
        ref = cold_steps(cold, plan, 3, tight)
        assert_steps_identical(got, ref)
        assert got[0].overrun_count > 0
        assert warm.overrun_total == 3 * got[0].overrun_count
        assert warm.overrun_total == cold.overrun_total

    def test_warm_steps_share_the_epoch_arrays(self, small_fleet):
        small_fleet.reset()
        first = small_fleet.step()
        second = small_fleet.step()
        assert second.arrival_us is first.arrival_us
        assert not np.array_equal(first.end_celsius, second.end_celsius)

    def test_shared_arrays_are_read_only(self, small_fleet):
        small_fleet.reset()
        result = small_fleet.step()
        arrays = [
            getattr(result, name)
            for name in ("device_ids", "arrival_us", "wait_us", "freq_mhz")
        ]
        # The step's own delta0 and the epoch pairs its arrays derive from.
        arrays += [result.delta0, result.epoch.ambient]
        for pair in EAGER_STEP_PAIRS.values():
            arrays += [getattr(result.epoch, name) for name in pair]
        for values in arrays:
            with pytest.raises(ValueError):
                values[0] = 0


class TestStepArraysOnAccess:
    """A result keeps ``delta0``; its five affine arrays come on access."""

    def test_arrays_equal_the_eager_oracle(self, tiny_trace):
        sim = FleetSimulator(churned_spec(64, 3), tiny_trace)
        plan = reclaim_fleet_slack(sim)
        results = sim.run_steps(
            plan, 60, plan.target_compute_us, replan=auto_retarget()
        )
        epochs = {id(r.epoch) for r in results}
        assert len(epochs) > 1  # at least one churn-driven replan
        for result in results:
            eager = eager_step_arrays(result.epoch, result.delta0)
            for name, values in eager.items():
                assert np.array_equal(getattr(result, name), values), name
            soc = eager["soc_energy_j"] + eager["idle_soc_energy_j"]
            aicore = eager["aicore_energy_j"] + eager["idle_aicore_energy_j"]
            assert np.array_equal(result.total_soc_energy_j, soc)
            assert np.array_equal(result.total_aicore_energy_j, aicore)
            assert result.fleet_soc_energy_j == float(np.sum(soc))
            assert result.fleet_aicore_energy_j == float(np.sum(aicore))

        # Each step's end temperatures are the thermal state the next
        # step starts from: survivors carry them, joiners start at
        # their own ambient.
        for prev, nxt in zip(results, results[1:]):
            _, i, j = np.intersect1d(
                prev.device_ids, nxt.device_ids, return_indices=True
            )
            assert np.array_equal(
                nxt.delta0[j], prev.end_celsius[i] - nxt.epoch.ambient[j]
            )
            joined = np.isin(nxt.device_ids, prev.device_ids, invert=True)
            assert not nxt.delta0[joined].any()
        last = results[-1]
        assert np.array_equal(sim.celsius[last.device_ids], last.end_celsius)

    def test_run_steps_retains_one_array_per_step(self, tiny_trace):
        n_devices, steps = 2000, 40
        spec = FleetSpec(n_devices=n_devices, seed=3)
        sim = FleetSimulator(spec, tiny_trace)
        plan = reclaim_fleet_slack(sim)
        target = plan.target_compute_us
        sim.step(plan, target)  # build the epoch outside the measurement
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            results = sim.run_steps(plan, steps, target)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(results) == steps
        assert retained <= 1.25 * n_devices * 8 * steps


class TestComparisonHarness:
    def test_rejects_churned_specs(self, tiny_trace):
        spec = FleetSpec(
            n_devices=4, seed=0, churn=ChurnConfig(leave_rate=1.0)
        )
        with pytest.raises(ConfigurationError):
            compare_with_cluster(spec, tiny_trace)

    def test_rejects_multi_rack_fleets(self, tiny_trace):
        spec = FleetSpec(
            n_devices=8, topology=FleetTopology(devices_per_rack=4)
        )
        with pytest.raises(ConfigurationError):
            compare_with_cluster(spec, tiny_trace)


class TestCli:
    def test_run_smoke(self, capsys):
        exit_code = fleet_main(
            ["run", "gpt3", "--scale", "0.005", "--devices", "4"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "straggler" in out
        assert "fleet SoC energy" in out

    def test_bench_smoke_writes_artifact(self, capsys, tmp_path):
        output = tmp_path / "bench.json"
        exit_code = fleet_main(
            [
                "bench",
                "gpt3",
                "--scale",
                "0.005",
                "--devices",
                "32",
                "--steps",
                "2",
                "--rounds",
                "1",
                "--output",
                str(output),
            ]
        )
        assert exit_code == 0
        payload = json.loads(output.read_text())
        assert payload["meta"]["devices"] == 32
        assert payload["benchmarks"]["baseline_steps_per_s"] > 0
        assert payload["benchmarks"]["replan_ms"] > 0
        assert payload["paper_scale"] is None
        assert "equivalence" not in payload

    def test_bench_large_runs_record_the_paper_scale_leg(
        self, capsys, tmp_path
    ):
        output = tmp_path / "bench.json"
        argv = ["bench", "gpt3", "--scale", "0.005", "--devices", "4",
                "--steps", "1", "--rounds", "1", "--scale-devices", "8",
                "--output", str(output)]
        assert fleet_main(argv) == 0
        leg = json.loads(output.read_text())["paper_scale"]
        assert leg["devices"] == 4
        assert leg["scale"] == 1.0
        assert leg["operators"] == generate("gpt3", scale=1.0).operator_count
        assert 1 <= leg["speed_classes"] <= 4
        assert leg["compile_seconds"] > 0
        assert leg["first_planned_step_seconds"] > 0
        assert leg["max_rss_mb"] > 0
        assert "paper scale: 4 devices" in capsys.readouterr().out

    def test_bench_floor_violation_fails(self, capsys, tmp_path):
        exit_code = fleet_main(
            [
                "bench",
                "gpt3",
                "--scale",
                "0.005",
                "--devices",
                "4",
                "--steps",
                "1",
                "--rounds",
                "1",
                "--assert-steps-per-sec",
                "1e12",
            ]
        )
        assert exit_code == 1
        assert "FAIL" in capsys.readouterr().err

    def test_bad_degrade_fails_before_simulating(self, capsys):
        argv = ["run", "gpt3", "--scale", "0.005", "--devices", "4"]
        assert fleet_main(argv + ["--degrade", "9"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: override targets device 9, but the fleet has 4 "
            "devices\n"
        )
        assert fleet_main(argv + ["--degrade", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: device_id must be >= 0: -1\n"

    def test_unknown_workload_fails_cleanly(self, capsys):
        exit_code = fleet_main(["run", "nonsense", "--devices", "2"])
        assert exit_code == 1
        assert "error:" in capsys.readouterr().err
