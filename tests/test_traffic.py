"""Tests for the synthetic traffic generator and driver (repro.traffic)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import OptimizerConfig
from repro.dvfs import GaConfig
from repro.errors import WorkloadError
from repro.serve.gateway import GatewayConfig
from repro.serve.shards import ShardedStrategyStore
from repro.traffic import (
    TrafficConfig,
    build_schedule,
    build_workload_population,
    diurnal_multiplier,
    drive_traffic,
    run_bench,
    zipf_weights,
)
from repro.traffic.driver import _percentiles

TINY_GA = GaConfig(population_size=8, iterations=6, seed=0, patience=4)


@pytest.fixture(scope="module")
def tiny_optimizer_config():
    return OptimizerConfig(ga=TINY_GA, seed=0)


class TestZipf:
    def test_normalized_and_monotonic(self):
        weights = zipf_weights(100, 1.1)
        assert weights.shape == (100,)
        assert np.isclose(weights.sum(), 1.0)
        assert np.all(np.diff(weights) <= 0)

    def test_zero_exponent_is_uniform(self):
        weights = zipf_weights(10, 0.0)
        assert np.allclose(weights, 0.1)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            zipf_weights(0, 1.0)
        with pytest.raises(WorkloadError):
            zipf_weights(10, -0.1)


class TestDiurnal:
    def test_oscillates_around_one(self):
        t = np.linspace(0.0, 100.0, 1000)
        values = diurnal_multiplier(t, period_seconds=100.0, amplitude=0.5)
        assert values.max() <= 1.5 + 1e-9
        assert values.min() >= 0.5 - 1e-9
        assert np.isclose(np.mean(values), 1.0, atol=0.01)

    def test_clipped_at_floor(self):
        values = diurnal_multiplier(
            np.linspace(0.0, 10.0, 100), period_seconds=10.0, amplitude=2.0
        )
        assert values.min() >= 0.05

    def test_validation(self):
        with pytest.raises(WorkloadError):
            diurnal_multiplier(0.0, period_seconds=0.0, amplitude=0.5)


class TestSchedule:
    def test_deterministic_for_seed(self):
        first = build_schedule(
            5000, 16, np.random.default_rng(7), base_rate=10_000.0
        )
        second = build_schedule(
            5000, 16, np.random.default_rng(7), base_rate=10_000.0
        )
        assert np.array_equal(first.arrival_s, second.arrival_s)
        assert np.array_equal(first.workload_idx, second.workload_idx)
        assert np.array_equal(first.source_idx, second.source_idx)
        assert np.array_equal(first.bursts, second.bursts)

    def test_shapes_and_ranges(self):
        schedule = build_schedule(
            2000, 8, np.random.default_rng(0), sources=4
        )
        assert len(schedule) == 2000
        assert np.all(np.diff(schedule.arrival_s) >= 0)
        assert schedule.workload_idx.min() >= 0
        assert schedule.workload_idx.max() < 8
        assert schedule.source_idx.min() >= 0
        assert schedule.source_idx.max() < 4

    def test_bursts_do_not_stack(self):
        """Regression: overlapping burst windows must not compound —
        the effective multiplier is bounded by the largest magnitude,
        so the schedule's virtual duration stays near the nominal
        ``requests / base_rate`` horizon instead of collapsing."""
        requests, base_rate = 20_000, 50_000.0
        schedule = build_schedule(
            requests,
            16,
            np.random.default_rng(0),
            base_rate=base_rate,
            burst_count=12,
            burst_magnitude=4.0,
        )
        horizon = requests / base_rate
        # Max instantaneous rate is base * (1 + amplitude) * magnitude,
        # so the duration can shrink at most ~6.4x; the stacking bug
        # compressed it ~15x.
        assert schedule.duration_s > horizon / 7.0
        assert schedule.duration_s < horizon * 3.0
        grid = np.linspace(0.0, schedule.duration_s, 512)
        assert schedule.burst_multiplier_at(grid).max() <= 4.0

    def test_zipf_popularity_skews_traffic(self):
        schedule = build_schedule(
            20_000, 32, np.random.default_rng(0), zipf_s=1.1
        )
        counts = np.bincount(schedule.workload_idx, minlength=32)
        assert counts[0] > counts[16] > 0

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(WorkloadError):
            build_schedule(0, 4, rng)
        with pytest.raises(WorkloadError):
            build_schedule(10, 4, rng, sources=0)
        with pytest.raises(WorkloadError):
            build_schedule(10, 4, rng, base_rate=0.0)
        with pytest.raises(WorkloadError):
            build_schedule(10, 4, rng, burst_magnitude=0.5)


class TestWorkloadPopulation:
    def test_deterministic_distinct_fingerprints(self):
        first = build_workload_population(12, seed=3)
        second = build_workload_population(12, seed=3)
        fingerprints = [trace.fingerprint() for trace in first]
        assert fingerprints == [trace.fingerprint() for trace in second]
        assert len(set(fingerprints)) == 12

    def test_seed_changes_population(self):
        a = build_workload_population(4, seed=0)[0].fingerprint()
        b = build_workload_population(4, seed=1)[0].fingerprint()
        assert a != b

    def test_validation(self):
        with pytest.raises(WorkloadError):
            build_workload_population(0)


class TestPercentiles:
    def test_zero_safe(self):
        assert _percentiles(np.array([])) == {
            "p50": 0.0, "p90": 0.0, "p99": 0.0, "p999": 0.0, "max": 0.0
        }

    def test_ordering(self):
        values = _percentiles(np.arange(1, 1001, dtype=np.float64))
        assert values["p50"] <= values["p90"] <= values["p99"]
        assert values["p99"] <= values["p999"] <= values["max"] == 1000.0


class TestTrafficConfig:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            TrafficConfig(requests=0)
        with pytest.raises(WorkloadError):
            TrafficConfig(workloads=0)
        with pytest.raises(WorkloadError):
            TrafficConfig(window=0)
        with pytest.raises(WorkloadError):
            TrafficConfig(verify=-1)


class TestDrive:
    def test_small_drive_invariants(self, tmp_path, tiny_optimizer_config):
        config = TrafficConfig(
            requests=300, workloads=4, window=64, seed=0, verify=0
        )
        with ShardedStrategyStore(
            tmp_path / "store", shards=2, hot_slots=16
        ) as store:
            report = drive_traffic(
                config, tiny_optimizer_config, store=store
            )
        assert report.offered == 300
        assert report.admitted + report.shed == 300
        assert report.failed == 0
        assert report.ga_runs == 4  # one per distinct workload
        assert 0.0 <= report.hit_rate <= 1.0
        assert report.latency_us["p50"] <= report.latency_us["p99"]
        # Computed (miss) latencies are reported separately from hits and
        # dominate them: a miss pays a GA run, a hit a store lookup.
        assert report.miss_latency_us["p50"] <= report.miss_latency_us["p99"]
        assert report.miss_latency_us["p50"] > report.hit_latency_us["p99"]
        rows = {row["metric"]: row["value"] for row in report.rows()}
        assert rows["miss_p50_us"] == f"{report.miss_latency_us['p50']:.1f}"
        assert rows["hit_p99_us"] == f"{report.hit_latency_us['p99']:.1f}"
        # The report serializes cleanly (what BENCH_serve.json holds).
        document = report.to_dict()
        json.dumps(document)
        assert document["miss_latency_us"] == report.miss_latency_us
        assert sum(report.source_counts.values()) == report.offered

    def test_rate_limited_drive_sheds(self, tmp_path, tiny_optimizer_config):
        config = TrafficConfig(
            requests=400, workloads=2, window=64, seed=0, verify=0,
            base_rate=10_000.0, prewarm=True,
        )
        gateway_config = GatewayConfig(
            rate_per_source=100.0, burst_per_source=5.0
        )
        with ShardedStrategyStore(
            tmp_path / "store", shards=1, hot_slots=0
        ) as store:
            report = drive_traffic(
                config, tiny_optimizer_config, gateway_config, store=store
            )
        assert report.shed > 0
        assert report.shed_by_reason.get("rate_limited", 0) == report.shed
        assert report.admitted + report.shed == 400
        assert report.failed == 0

    def test_run_bench_writes_report_and_verifies(
        self, tmp_path, tiny_optimizer_config
    ):
        output = tmp_path / "BENCH_serve.json"
        config = TrafficConfig(
            requests=200, workloads=3, window=64, seed=0, verify=3
        )
        report = run_bench(
            config,
            tiny_optimizer_config,
            store_root=tmp_path / "bench-root",
            shards=2,
            hot_slots=16,
            output=output,
        )
        assert report.byte_identical is True
        assert report.verified_workloads == 3
        document = json.loads(output.read_text(encoding="utf-8"))
        assert document["meta"]["requests"] == 200
        assert document["traffic"]["byte_identical"] is True

    def test_prewarm_on_cold_workers_matches_serial_verify(
        self, tmp_path, tiny_optimizer_config, monkeypatch
    ):
        """The prewarm batch runs on two worker processes that build their
        own calibration runs; the serial verify replays its own."""
        from repro.core import optimizer as optimizer_module

        monkeypatch.setattr(optimizer_module, "_CALIBRATION_RUNS", {})
        config = TrafficConfig(
            requests=200, workloads=3, window=64, seed=0, verify=3,
            prewarm=True, workers=2,
        )
        report = run_bench(
            config,
            tiny_optimizer_config,
            store_root=tmp_path / "bench-root",
            shards=2,
            hot_slots=16,
        )
        assert report.ga_runs == 0  # every miss was computed by the prewarm
        assert report.byte_identical is True
        assert report.verified_workloads == 3

    def test_bench_cli_smoke(self, tmp_path, capsys):
        from repro.serve.cli import main

        exit_code = main([
            "bench-traffic",
            "--requests", "200",
            "--workloads", "3",
            "--window", "64",
            "--population", "8",
            "--iterations", "6",
            "--patience", "4",
            "--verify", "2",
            "--assert-max-shed-rate", "0.0",
            "--output", str(tmp_path / "bench.json"),
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "byte_identical" in out
        assert (tmp_path / "bench.json").exists()
