"""Tests for the fleet's device model and policies at cluster size.

A cluster is a one-rack :class:`~repro.fleet.simulator.FleetSimulator`
(a single ring); the looped
:class:`~tests.reference.simulator.SimulatedCluster` is only its
reference, so the tests that pin reference behaviour construct it
directly.
"""

import ast
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.fleet
from repro.errors import ConfigurationError, StrategyError
from repro.fleet.cli import main as fleet_main
from repro.fleet import dvfs as fleet_dvfs
from repro.fleet.dvfs import (
    degrade_and_retarget,
    fleet_plan_score,
    optimal_fleet_plan,
    plan_strategies,
    reclaim_fleet_slack,
)
from repro.fleet.simulator import FleetSimulator
from repro.fleet.spec import DeviceOverride, DeviceVariation, FleetSpec
from repro.fleet.topology import FleetTopology, InterconnectSpec
from repro.npu.engine import reference_only
from repro.npu.execution import GroundTruthEvaluator
from repro.units import gbps_to_bytes_per_us
from repro.workloads import generate
from tests.oracles import FleetObjectiveScorer
from tests.reference.compare import compare_with_cluster
from tests.reference.device import VariedEvaluator
from tests.reference.simulator import (
    SimulatedCluster,
    build_frequency_tables,
    reclaim_slack,
)
from tests.reference.spec import ClusterSpec, cluster_spec_of, fleet_spec_of


@pytest.fixture(scope="module")
def tiny_trace():
    """A small GPT-3 iteration; cluster runs replay it N times."""
    return generate("gpt3", scale=0.01)


@pytest.fixture(scope="module")
def small_spec():
    return ClusterSpec(n_devices=4, seed=0)


@pytest.fixture(scope="module")
def small_fleet(small_spec, tiny_trace):
    return FleetSimulator(fleet_spec_of(small_spec), tiny_trace)


@pytest.fixture(scope="module")
def small_cluster(small_spec):
    """The looped reference of ``small_fleet``."""
    return SimulatedCluster(small_spec)


@pytest.fixture(scope="module")
def small_tables(small_cluster, tiny_trace):
    return build_frequency_tables(small_cluster, tiny_trace)


def fresh_step(sim, plan=None):
    """One step from the boards' ambient temperatures."""
    sim.reset()
    target = None if plan is None else plan.target_compute_us
    return sim.step(plan, target_compute_us=target)


class TestClusterSpec:
    """The cluster's device model, as production draws it (``FleetSpec``)."""

    def test_profiles_are_deterministic(self):
        spec = FleetSpec(n_devices=8, seed=3)
        assert spec.device_profiles() == spec.device_profiles()
        assert (
            spec.device_profiles()
            == FleetSpec(n_devices=8, seed=3).device_profiles()
        )

    def test_different_seeds_differ(self):
        a = FleetSpec(n_devices=8, seed=0).device_profiles()
        b = FleetSpec(n_devices=8, seed=1).device_profiles()
        assert a != b

    def test_growing_the_cluster_preserves_prefix(self):
        """Profile i depends only on (seed, i): 2 draws per device."""
        small = FleetSpec(n_devices=4, seed=0).device_profiles()
        grown = FleetSpec(n_devices=8, seed=0).device_profiles()
        assert grown[:4] == small

    def test_draw_clamps_respected(self):
        variation = DeviceVariation(
            speed_sigma=10.0,
            max_speed_spread=0.05,
            ambient_sigma_celsius=100.0,
            max_ambient_spread_celsius=3.0,
        )
        for profile in FleetSpec(
            n_devices=32, variation=variation, seed=0
        ).device_profiles():
            assert 0.95 <= profile.duration_scale <= 1.05
            assert -3.0 <= profile.ambient_offset_celsius <= 3.0

    def test_no_variation_means_identical_devices(self):
        profiles = FleetSpec(
            n_devices=4, variation=DeviceVariation.none(), seed=0
        ).device_profiles()
        assert all(p.duration_scale == 1.0 for p in profiles)
        assert all(p.ambient_offset_celsius == 0.0 for p in profiles)

    def test_override_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetSpec(
                n_devices=2, overrides=(DeviceOverride(device_id=5),)
            )

    def test_duplicate_override_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetSpec(
                n_devices=4,
                overrides=(
                    DeviceOverride(device_id=1),
                    DeviceOverride(device_id=1),
                ),
            )

    def test_with_degraded_device_replaces_existing_override(self):
        spec = FleetSpec(n_devices=4).with_degraded_device(2, 1.2)
        spec = spec.with_degraded_device(2, 1.5)
        assert len(spec.overrides) == 1
        assert spec.overrides[0].extra_duration_scale == 1.5
        profile = spec.device_profiles()[2]
        assert profile.degraded
        assert profile.total_duration_scale == pytest.approx(
            profile.duration_scale * 1.5
        )

    def test_lifted_cluster_is_one_rack(self):
        """A cluster is one ring at any size, never the hierarchical tree."""
        fleet = FleetSpec(
            name="ring-cluster",
            n_devices=24,
            topology=FleetTopology(devices_per_rack=24),
        )
        assert fleet.topology.rack_sizes(24) == (24,)
        cost = fleet.topology.breakdown(
            fleet.gradient_bytes, fleet.topology.rack_sizes(24)
        )
        assert cost.chosen_us == cluster_spec_of(fleet).allreduce_us


class TestCollective:
    def test_ring_allreduce_law(self):
        spec = InterconnectSpec(link_bandwidth_gbps=50.0, link_latency_us=12.0)
        payload, n = 64 * 2**20, 8
        expected = (
            2 * (n - 1) / n * payload / gbps_to_bytes_per_us(50.0)
            + 2 * (n - 1) * 12.0
        )
        assert spec.allreduce_us(payload, n) == pytest.approx(expected)

    def test_single_device_is_free(self):
        assert InterconnectSpec().allreduce_us(2**30, 1) == 0.0

    def test_bandwidth_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            InterconnectSpec(link_bandwidth_gbps=0.0)


class TestVariedEvaluator:
    def test_scales_duration_only(self, npu_spec, small_bert_trace):
        inner = GroundTruthEvaluator(npu_spec)
        varied = VariedEvaluator(inner, 1.07)
        spec = small_bert_trace.entries[0].spec
        base = inner.evaluate(spec, 1800.0)
        scaled = varied.evaluate(spec, 1800.0)
        assert scaled.duration_us == pytest.approx(base.duration_us * 1.07)
        assert varied.soc_power(base, 5.0) == inner.soc_power(base, 5.0)
        assert varied.idle_soc_power(1800.0, 0.0) == inner.idle_soc_power(
            1800.0, 0.0
        )


class TestBarrierSemantics:
    def test_step_is_straggler_plus_allreduce(self, small_fleet, small_spec):
        result = fresh_step(small_fleet)
        arrivals = result.arrival_us
        assert result.compute_us == arrivals.max()
        assert result.straggler_id == int(
            result.device_ids[int(np.argmax(arrivals))]
        )
        assert result.step_us == arrivals.max() + small_spec.allreduce_us

    def test_straggler_never_waits(self, small_fleet):
        result = fresh_step(small_fleet)
        position = result.device_ids.searchsorted(result.straggler_id)
        assert result.wait_us[position] == 0.0
        assert np.array_equal(
            result.wait_us, result.compute_us - result.arrival_us
        )

    def test_barrier_wait_costs_energy(self, small_fleet):
        result = fresh_step(small_fleet)
        assert (result.idle_soc_energy_j > 0.0).all()
        assert (result.total_soc_energy_j > result.soc_energy_j).all()

    def test_engine_matches_the_reference_loop(self):
        """A 4-device looped step, engine on vs ``reference_only()``.

        The same step at the same size the simulator bench's former
        cluster section timed: fleet aggregates within 1e-9 relative,
        and the same straggler.
        """
        trace = generate("gpt3", scale=0.02)
        fast = SimulatedCluster(ClusterSpec(n_devices=4)).run_step(trace)
        with reference_only():
            ref = SimulatedCluster(ClusterSpec(n_devices=4)).run_step(trace)
        for field in (
            "step_us",
            "fleet_soc_energy_j",
            "fleet_aicore_energy_j",
        ):
            got, want = getattr(fast, field), getattr(ref, field)
            assert abs(got - want) / max(abs(got), abs(want)) <= 1e-9
        assert fast.straggler_id == ref.straggler_id

    def test_strategy_count_mismatch_rejected(
        self, small_cluster, tiny_trace, small_tables
    ):
        plan = reclaim_slack(small_tables, tiny_trace.name)
        with pytest.raises(ConfigurationError):
            small_cluster.run_step(tiny_trace, plan.strategies[:2])


class TestSlackReclamation:
    def test_zero_regression_and_energy_savings(self, small_fleet):
        baseline = fresh_step(small_fleet)
        plan = reclaim_fleet_slack(small_fleet)
        reclaimed = fresh_step(small_fleet, plan)
        report = reclaimed.report(baseline)
        assert report.step_time_regression <= 0.005
        assert report.soc_energy_savings > 0.0
        assert reclaimed.overrun_count == 0

    def test_straggler_keeps_max_frequency(self, small_fleet):
        plan = reclaim_fleet_slack(small_fleet)
        grid_max = plan.freqs_mhz[-1]
        assert plan.freq_mhz[plan.straggler_id] == grid_max
        assert plan.freq_mhz.min() < grid_max

    def test_slack_margin_downclocks_deeper(self, small_fleet):
        tight = reclaim_fleet_slack(small_fleet)
        loose = reclaim_fleet_slack(small_fleet, slack_margin=0.05)
        assert loose.freq_mhz.sum() <= tight.freq_mhz.sum()
        assert loose.target_compute_us > tight.target_compute_us

    def test_infeasible_barrier_raises(self, small_tables):
        with pytest.raises(StrategyError):
            small_tables[0].lowest_index_meeting(1.0)


class TestOptimalFleetPlan:
    def test_baseline_individual_scores_two(self, small_fleet):
        scorer = FleetObjectiveScorer(small_fleet)
        n_freqs = len(small_fleet.spec.npu.frequencies.points)
        baseline = np.full((1, small_fleet.n_active), n_freqs - 1)
        assert scorer.score(baseline)[0] == pytest.approx(2.0)
        reclaim = reclaim_fleet_slack(small_fleet)
        all_max = replace(
            reclaim, freq_index=np.full_like(reclaim.freq_index, n_freqs - 1)
        )
        assert fleet_plan_score(small_fleet, all_max) == (
            pytest.approx(2.0),
            True,
        )

    def test_optimum_never_loses_to_uniform_max(self, small_fleet):
        plan = optimal_fleet_plan(small_fleet)
        scorer = FleetObjectiveScorer(small_fleet)
        genes = scorer.plan_genes(plan)
        score, feasible = fleet_plan_score(small_fleet, plan)
        assert feasible and scorer.feasible(genes)[0]
        assert score >= 2.0
        assert score == pytest.approx(scorer.score(genes)[0], rel=1e-12)
        assert scorer.evaluate(genes)[1][0] <= scorer.baseline_energy_j
        assert plan.covered.all()
        assert plan.target_compute_us == plan.predicted_us.max()

    def test_inputs_are_the_reference_tables(self, small_fleet, small_tables):
        """Durations and idle powers bitwise, compute energy to rounding."""
        objective = fleet_dvfs._Objective(small_fleet, 0.005)
        for i, table in enumerate(small_tables):
            assert tuple(objective.durations[i]) == table.duration_us
            assert tuple(objective.idle_soc_w) == table.idle_soc_watts
            assert np.allclose(
                objective.soc_energy_j[i],
                table.soc_energy_j,
                rtol=1e-12,
                atol=0,
            )


class TestFaultStory:
    def test_degradation_retargets_and_logs(self, small_spec, tiny_trace):
        spec = fleet_spec_of(small_spec)
        sim = FleetSimulator(spec, tiny_trace)
        plan = reclaim_fleet_slack(sim)
        victim = (plan.straggler_id + 1) % spec.n_devices
        degraded = degrade_and_retarget(sim, plan, victim, 1.4, reason="test")
        assert degraded.stale.overrun_count >= 1
        assert victim in degraded.stale.overrun_device_ids
        assert degraded.plan.straggler_id == victim
        assert degraded.baseline.straggler_id == victim
        assert degraded.retargeted.overrun_count == 0
        report = degraded.report()
        assert report.step_time_regression <= 1e-12
        assert report.soc_energy_savings > 0.0


class TestWiring:
    def test_cluster_result_render(self, small_fleet, small_spec, tiny_trace):
        baseline = fresh_step(small_fleet)
        report = fresh_step(small_fleet).report(baseline)
        text = report.render()
        assert small_spec.name in text
        assert tiny_trace.name in text
        assert "straggler" in text
        assert math.isclose(report.step_time_regression, 0.0, abs_tol=1e-9)

    def test_cli_smoke(self, capsys):
        exit_code = fleet_main(
            ["run", "gpt3", "--scale", "0.005", "--devices", "2"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "slack reclamation" in out

    def test_cli_24_devices_steps_the_reference_ring(self, capsys):
        """A 24-device one-rack fleet steps as the reference ring.

        Every printed per-phase step time (first reclaimed step, fleet
        optimum, re-targeted reclamation) is the looped reference's, which
        only holds if the fleet is a single rack whose collective is the
        cluster's ring all-reduce.
        """
        args = [
            "run",
            "gpt3",
            "--scale",
            "0.005",
            "--devices",
            "24",
            "--devices-per-rack",
            "24",
        ]
        exit_code = fleet_main(args + ["--optimum", "--degrade", "3"])
        out = capsys.readouterr().out
        assert exit_code == 0
        trace = generate("gpt3", scale=0.005)
        spec = ClusterSpec(n_devices=24, seed=0)
        assert compare_with_cluster(
            fleet_spec_of(spec), trace, steps=1
        ).ok()

        def ms(result):
            return f"{result.step_us / 1000.0:.2f}"

        def reference_steps(cluster_spec, strategies=None):
            """Baseline, reclaimed and (optionally) given-plan steps."""
            cluster = SimulatedCluster(cluster_spec)
            plan = reclaim_slack(
                build_frequency_tables(cluster, trace), trace.name
            )
            plans = [plan.strategies]
            if strategies is not None:
                plans.append(strategies)
            baseline = ms(cluster.run_step(trace))
            return [
                (baseline, ms(cluster.run_step(trace, plan)))
                for plan in plans
            ]

        best = optimal_fleet_plan(FleetSimulator(fleet_spec_of(spec), trace))
        printed = re.findall(r"step ([\d.]+) ms -> ([\d.]+) ms", out)
        assert printed == reference_steps(
            spec, plan_strategies(best)
        ) + reference_steps(spec.with_degraded_device(3, 1.3))
        assert f"all-reduce {spec.allreduce_us / 1000.0:.2f} ms" in out
        assert "straggler now device 3" in out
        assert re.search(r"barrier_overrun\s+3\s", out)


class TestReferenceIsolation:
    def test_fleet_imports_only_at_module_level(self):
        """No module under ``src/repro/fleet`` imports inside a function.

        Deferred imports are how an import cycle hides; with every
        import at module level, a cycle fails at import time.
        """
        root = Path(repro.fleet.__file__).parent
        offenders = []
        for path in sorted(root.glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                for inner in ast.walk(node):
                    if isinstance(inner, (ast.Import, ast.ImportFrom)):
                        offenders.append(f"{path.name}:{inner.lineno}")
        assert offenders == []

    def test_fleet_does_not_load_the_serve_stack(self):
        """``import repro.fleet`` loads no ``repro.serve`` module.

        Fleet plans are recomputed, not cached, so the fleet needs
        neither the strategy store nor the gateway behind it.  The check
        runs in a fresh interpreter: other tests import ``repro.serve``.
        """
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        code = (
            "import json, sys, repro.fleet; print(json.dumps(sorted("
            "m for m in sys.modules if m.startswith('repro.serve'))))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=240,
            check=False,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.strip().splitlines()[-1]) == []

    def test_production_does_not_import_the_reference(self):
        """No module under ``src/repro`` imports the ``tests`` package.

        The looped reference and every other oracle live under
        ``tests/``; production must run without them.
        """
        root = Path(repro.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            module = ".".join(
                path.relative_to(root.parent).with_suffix("").parts
            )
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if any(n.split(".")[0] == "tests" for n in names):
                    offenders.append(f"{module}:{node.lineno}")
        assert offenders == []
