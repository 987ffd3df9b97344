"""fleet-churn: the vectorized barrier step and fleet DVFS under churn.

10,000 devices replay gpt3 at scale 0.02 on the default engine
(``make_fleet_simulator(spec, trace)``, one process).  The run is a
sequence of segments; each segment reclaims slack once, then runs
``run_steps`` with seeded churn and ``auto_retarget``.  The fleet seed
is chosen from the benchmark seed so that every segment holds exactly
``SEGMENT_REPLANS`` membership changes: replans cost ~40x a steady
step, so a seed-dependent replan count would make steps per second a
draw of the churn dice rather than a property of the engine.  With
200 steps per segment, re-plans and steady steps each take a large
share of host time.

Every segment starts from a ``reset()`` fleet (initial membership,
spares and temperatures), so every segment is the same work whatever
the run length or host speed: without it, each segment's joins would
use up the spares and the active count would drift with run length.

The traced half drives ``advance_churn``, ``reclaim_fleet_slack`` and
``step`` itself, the same calls ``run_steps`` makes.  It also times one
``collective_cost()`` per step as a separate probe (``step`` pays the
same call inside); the probe's time is taken out of the traced wall
time.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time

import numpy as np

from bench_common import (
    HostGauge,
    Tracer,
    WorkloadResult,
    durations,
    log,
    median_setup,
    self_times,
)
from repro.fleet import (
    ChurnConfig,
    FleetSpec,
    auto_retarget,
    draw_churn,
    make_fleet_simulator,
    reclaim_fleet_slack,
)
from repro.workloads.registry import generate

DEVICES = 10_000
TRACE_MODEL = "gpt3"
TRACE_SCALE = 0.02
SEGMENT_STEPS = 200
SEGMENT_REPLANS = 2
CHURN = ChurnConfig(
    join_rate=0.006,
    leave_rate=0.003,
    fail_rate=0.002,
    max_joins=64,
    min_active=DEVICES - 1000,
)
SETUP_REPEATS = 3
MEMBERSHIP_KINDS = ("join", "leave", "fail")
LAYER_SPANS = ("fleet.reclaim", "fleet.churn", "fleet.step")


def changing_steps(fleet_seed: int) -> int:
    """Steps of one segment whose churn draw changes membership."""
    count = 0
    for step in range(1, SEGMENT_STEPS):
        draw = draw_churn(CHURN, fleet_seed, step)
        if draw.joins + draw.leaves + draw.fails:
            count += 1
    return count


def fleet_seed(seed: int) -> int:
    """The first seed derived from ``seed`` with exactly SEGMENT_REPLANS."""
    for candidate in range(10_000):
        value = int(np.random.default_rng([seed, candidate]).integers(2**31))
        if changing_steps(value) == SEGMENT_REPLANS:
            return value
    raise RuntimeError(f"no fleet seed with {SEGMENT_REPLANS} changes")


def plan_digest(plan) -> str:
    """Digest of the plan's per-device choices and barrier target."""
    h = hashlib.sha256()
    h.update(plan.freq_index.tobytes())
    h.update(plan.predicted_us.tobytes())
    h.update(np.float64(plan.target_compute_us).tobytes())
    return h.hexdigest()


class FleetSetup:
    """A compiled fleet with warm per-frequency solutions."""

    def __init__(self, seed: int) -> None:
        self.spec = FleetSpec(
            name="bench", n_devices=DEVICES, seed=fleet_seed(seed), churn=CHURN
        )
        trace = generate(TRACE_MODEL, scale=TRACE_SCALE, seed=seed)
        start = time.perf_counter()
        self.sim = make_fleet_simulator(self.spec, trace)
        baseline = self.sim.step()
        self.plan = reclaim_fleet_slack(self.sim)
        self.sim.reset()
        planned = self.sim.step(self.plan, self.plan.target_compute_us)
        self.sim.reset()
        self.compile_s = time.perf_counter() - start
        self.energy_saved = 1.0 - planned.fleet_soc_energy_j / baseline.fleet_soc_energy_j


#: Every per-device array a step reports.
STEP_ARRAYS = (
    "arrival_us",
    "wait_us",
    "freq_mhz",
    "aicore_energy_j",
    "soc_energy_j",
    "idle_aicore_energy_j",
    "idle_soc_energy_j",
    "end_celsius",
)


def check_step(result: WorkloadResult, step) -> bool:
    ok = math.isfinite(step.step_us) and all(
        np.isfinite(getattr(step, name)).all() for name in STEP_ARRAYS
    )
    result.check(ok, "a fleet step produced a non-finite value")
    if not step.events:
        ok &= result.check(
            step.overrun_count == 0,
            f"{step.overrun_count} overruns on a churn-free step",
        )
    return ok


def drive(sim, deadline, result, tracer: Tracer, parent=None, gauge=None):
    """Segments until ``deadline``.

    Returns ``(steps, reclaim seconds, churn events, overruns)``; the
    counts come from the step results, since ``reset()`` clears the
    simulator's own totals.  With a ``gauge``, host speed is sampled
    before every segment.
    """
    steps = 0
    reclaims = []
    churn_events = 0
    overruns = 0
    segment = 0
    replan = auto_retarget()
    while time.perf_counter() < deadline:
        if gauge is not None:
            gauge.sample()
        rid = f"s{segment}"
        sim.reset()
        start = time.perf_counter()
        with tracer.span("fleet.reclaim", parent, rid):
            plan = reclaim_fleet_slack(sim)
        reclaims.append(time.perf_counter() - start)
        if tracer.enabled:
            results = traced_steps(sim, plan, replan, tracer, parent, rid)
        else:
            results = sim.run_steps(
                plan, SEGMENT_STEPS, plan.target_compute_us, replan=replan
            )
        changed = sum(
            1 for r in results if any(e.kind in MEMBERSHIP_KINDS for e in r.events)
        )
        result.check(
            changed == SEGMENT_REPLANS,
            f"segment {segment}: {changed} membership changes, "
            f"expected {SEGMENT_REPLANS}",
        )
        for step in results:
            result.attempted += 1
            if not check_step(result, step):
                result.failed += 1
            churn_events += len(step.events)
            overruns += step.overrun_count
        steps += len(results)
        segment += 1
    return steps, reclaims, churn_events, overruns


def traced_steps(sim, plan, replan, tracer: Tracer, parent, rid):
    """``FleetSimulator.run_steps`` spelled out, one span per call."""
    target = plan.target_compute_us
    results = []
    for index in range(SEGMENT_STEPS):
        events = ()
        if index > 0:
            with tracer.span("fleet.churn", parent, rid):
                events = sim.advance_churn(index)
            if any(e.kind in MEMBERSHIP_KINDS for e in events):
                with tracer.span("fleet.reclaim", parent, rid):
                    plan = replan(sim)
                target = plan.target_compute_us
        # A probe: step() prices the same collective inside.
        with tracer.span("fleet.collective", parent, rid):
            sim.collective_cost()
        with tracer.span("fleet.step", parent, rid):
            results.append(sim.step(plan, target, events=events))
    return results


def run(seed: int, seconds: float, traced: bool, import_s: float, spans_path):
    result = WorkloadResult()
    digests = []

    def set_up():
        setup = FleetSetup(seed)
        digests.append(plan_digest(setup.plan))
        return setup

    setup_s, setup_all, setup = median_setup(set_up, SETUP_REPEATS)
    log(f"fleet-churn: set-ups {[round(s, 3) for s in setup_all]} s")
    result.check(len(set(digests)) == 1, "the reclaim plan digest did not repeat")
    off = Tracer(enabled=False)
    sim = setup.sim
    if not traced:
        gauge = HostGauge()
        start = time.perf_counter()
        steps, reclaims, _, _ = drive(sim, start + seconds, result, off, gauge=gauge)
        elapsed = time.perf_counter() - start - sum(gauge.samples)
        scale = gauge.scale()
        result.end_to_end = {
            "setup_s": import_s + setup_s,
            "throughput_per_s": steps / elapsed / scale,
            "latency_ms": statistics.median(reclaims) * scale * 1000.0,
            "saving_pct": setup.energy_saved * 100.0,
        }
        result.detail.update(
            {
                "host.scale": scale,
                "fleet.steps_per_s": steps / elapsed,
                "fleet.energy_saved_pct": setup.energy_saved * 100.0,
                "fleet.steps": steps,
                "fleet.reclaim_p50_ms": statistics.median(reclaims) * 1000.0,
                "fleet.compile_s": setup.compile_s,
            }
        )
    else:
        half = seconds / 2.0
        start = time.perf_counter()
        plain_steps, _, _, _ = drive(sim, start + half, result, off)
        plain_rate = plain_steps / (time.perf_counter() - start)
        tracer = Tracer()
        start = time.perf_counter()
        with tracer.span("fleet.run") as run_sid:
            steps, _, churn_events, overruns = drive(
                sim, start + half, result, tracer, run_sid
            )
        spans = tracer.spans
        # The collective probe is work run_steps never does.
        elapsed = time.perf_counter() - start - sum(
            durations(spans, "fleet.collective")
        )
        own = self_times(spans)
        segments = len({s.rid for s in spans if s.name == "fleet.step"})
        result.per_layer = {
            "fleet.compile_s": setup.compile_s,
            "fleet.step_ms": statistics.median(durations(spans, "fleet.step")) * 1000.0,
            "fleet.reclaim_ms": statistics.median(durations(spans, "fleet.reclaim")) * 1000.0,
            "fleet.churn_us": statistics.median(durations(spans, "fleet.churn")) * 1e6,
            "fleet.collective_us": statistics.median(durations(spans, "fleet.collective")) * 1e6,
            "fleet.replans": len(durations(spans, "fleet.reclaim")) - segments,
            "fleet.churn_events": churn_events,
            "fleet.overruns": overruns,
            "trace_overhead_pct": (plain_rate / (steps / elapsed) - 1.0) * 100.0,
            "trace.layer_share_pct": sum(own.get(n, 0.0) for n in LAYER_SPANS)
            / elapsed
            * 100.0,
        }
        tracer.write_jsonl(spans_path)
    return result
