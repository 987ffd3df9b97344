"""Tests of the benchmark itself (not of the repro package).

    python3 -m pytest perfbench/tests -q        # from the repository root
"""

import json
import math
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fleet_churn
import serve_mixed
import strategy_cold
from bench_common import Span, self_times, summarize, tail_percentile

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- the percentile rule ------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [
        (0, None),
        (19, None),
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
        (100000, 99.99),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_summarize_reports_median_tail_and_count():
    values = list(range(1, 101))
    out = summarize(values)
    assert out["n"] == 100
    assert out["p50"] == pytest.approx(np.percentile(values, 50))
    assert out["tail_pct"] == 90.0
    assert out["tail"] == pytest.approx(np.percentile(values, 90))
    assert "tail" not in summarize([1.0, 2.0])


# -- choosing serve max rate from ladder results ------------------------------


def rung(rate, p99, drain=0.0):
    return {"rate": rate, "p99_ms": p99, "drain_ms": drain}


def test_max_rate_interpolates_the_limit_crossing():
    rungs = [rung(800, 40), rung(1000, 60), rung(1250, 600)]
    ladder, crossing = serve_mixed.select_max_rate(rungs, limit_ms=150)
    assert ladder == 1000
    # log(p99) is taken as linear in log(rate) between the two rungs.
    fraction = math.log(150 / 60) / math.log(600 / 60)
    assert crossing == pytest.approx(1000 * 1.25**fraction)
    assert 1000 < crossing < 1250


def test_max_rate_stops_at_the_first_failing_rung():
    rungs = [rung(800, 40), rung(1000, 400), rung(1250, 60)]
    assert serve_mixed.select_max_rate(rungs, limit_ms=150)[0] == 800


def test_max_rate_growing_queue_fails_and_interpolates_on_drain_time():
    # p99 meets the limit, but the backlog takes 300 ms to drain.
    rungs = [rung(800, 40, drain=20), rung(1000, 90, drain=300)]
    ladder, crossing = serve_mixed.select_max_rate(rungs, limit_ms=150)
    assert ladder == 800
    fraction = math.log(150 / 40) / math.log(300 / 40)
    assert crossing == pytest.approx(800 * 1.25**fraction)


def test_max_rate_counts_shed_requests_as_missing_the_limit():
    rungs = [rung(800, 40), rung(1000, math.inf)]
    assert serve_mixed.select_max_rate(rungs, limit_ms=150) == (800, 800)


def test_max_rate_all_pass_and_first_fails():
    assert serve_mixed.select_max_rate([rung(1000, 10), rung(800, 5)], 150) == (
        1000,
        1000,
    )
    assert serve_mixed.select_max_rate([rung(800, 151)], 150) is None


# -- deterministic inputs -----------------------------------------------------


def test_serve_schedule_is_deterministic_for_a_seed():
    a = serve_mixed.build_schedule(7, 2, 1000.0, 3.0, fresh_offset=40)
    b = serve_mixed.build_schedule(7, 2, 1000.0, 3.0, fresh_offset=40)
    c = serve_mixed.build_schedule(8, 2, 1000.0, 3.0, fresh_offset=40)
    for x, y in zip(a[:2], b[:2]):
        np.testing.assert_array_equal(x, y)
    assert a[2] == b[2]
    assert len(a[0]) != len(c[0]) or not np.array_equal(a[1], c[1])


def test_serve_schedule_shape():
    due, workload, new = serve_mixed.build_schedule(3, 0, 2000.0, 5.0, 10)
    assert np.all(np.diff(due) >= 0) and due[0] >= 0 and due[-1] < 5.0
    assert abs(len(due) - 10000) < 500
    fresh = workload[workload >= serve_mixed.POPULATION]
    first = serve_mixed.POPULATION + 10
    assert set(np.unique(fresh)) == set(range(first, first + new))
    assert 0.005 < new / len(due) < 0.02


def test_strategy_and_fleet_inputs_are_deterministic_for_a_seed():
    assert strategy_cold.pass_seeds(5, 1) == strategy_cold.pass_seeds(5, 1)
    assert strategy_cold.pass_seeds(5, 1) != strategy_cold.pass_seeds(5, 2)
    seed = fleet_churn.fleet_seed(5)
    assert seed == fleet_churn.fleet_seed(5)
    assert fleet_churn.changing_steps(seed) == fleet_churn.SEGMENT_REPLANS


def test_fleet_segments_repeat_the_same_work():
    """Each segment starts from the initial membership and spares.

    The fleet provisions only the joins of one segment, so a segment
    that inherited the last one's membership would find the spares used
    up and fail its membership-change check.
    """
    from bench_common import Tracer, WorkloadResult
    from repro.fleet import FleetSpec, draw_churn, make_fleet_simulator
    from repro.workloads.registry import generate

    seed = next(
        s
        for s in (fleet_churn.fleet_seed(k) for k in range(50))
        if any(
            draw_churn(fleet_churn.CHURN, s, step).joins
            for step in range(1, fleet_churn.SEGMENT_STEPS)
        )
    )
    joins = sum(
        draw_churn(fleet_churn.CHURN, seed, step).joins
        for step in range(1, fleet_churn.SEGMENT_STEPS)
    )
    churn = replace(fleet_churn.CHURN, max_joins=joins, min_active=8)
    spec = FleetSpec(name="t", n_devices=32, seed=seed, churn=churn)
    sim = make_fleet_simulator(spec, generate("gpt3", scale=0.02, seed=1))
    result = WorkloadResult()
    deadline = time.perf_counter() + 1.5
    steps, reclaims, events, _ = fleet_churn.drive(
        sim, deadline, result, Tracer(enabled=False)
    )
    assert len(reclaims) >= 2
    assert steps == len(reclaims) * fleet_churn.SEGMENT_STEPS
    assert result.check_failures == [] and result.failed == 0
    assert events % len(reclaims) == 0


def test_staged_request_matches_optimize():
    """The traced request makes optimize()'s calls in optimize()'s order,
    so it draws the same noise and reaches the same result."""
    from bench_common import Tracer
    from repro.core import EnergyOptimizer
    from repro.workloads.registry import generate

    config = strategy_cold.request_config(3)
    config = replace(config, ga=replace(config.ga, population_size=16, iterations=10))
    plain = EnergyOptimizer(config).optimize(generate("bert", scale=0.05, seed=3))
    staged = strategy_cold.optimize_staged(
        generate("bert", scale=0.05, seed=3), config, Tracer(), None, "r"
    )
    assert staged.strategy.to_json() == plain.strategy.to_json()
    assert repr(staged.predicted) == repr(plain.predicted)
    assert staged.baseline == plain.baseline


# -- spans --------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, "run", 0.0, 10.0, None, None),
        Span(2, "a", 1.0, 4.0, 1, "r"),
        Span(3, "b", 3.0, 6.0, 1, "r"),  # overlaps a (threads)
        Span(4, "c", 4.5, 5.0, 3, "r"),
    ]
    own = self_times(spans)
    assert own["run"] == pytest.approx(10.0 - 5.0)
    assert own["b"] == pytest.approx(3.0 - 0.5)
    assert own["c"] == pytest.approx(0.5)


# -- printed names match BENCHMARK.json ---------------------------------------


def test_every_per_layer_metric_is_measured_by_some_workload():
    sources = "".join(
        (BENCH / f"{m}.py").read_text(encoding="utf-8")
        for m in ("strategy_cold", "serve_mixed", "fleet_churn")
    )
    missing = [
        m["name"] for m in SPEC["per_layer"] if f'"{m["name"]}"' not in sources
    ]
    assert missing == []


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_equal_benchmark_json(trace):
    proc = subprocess.run(
        [
            sys.executable,
            str(BENCH / "run.py"),
            "--workload",
            "fleet-churn",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    kind = "per_layer" if trace else "end_to_end"
    assert list(last["metrics"]) == [m["name"] for m in SPEC[kind]]
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == units
    assert last["correct"] is True and last["failed"] == 0
