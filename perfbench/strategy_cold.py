"""strategy-cold: the paper's own use, one cold strategy request at a time.

A closed loop with one client.  Each request builds a fresh
``EnergyOptimizer`` under the default configuration (GA 200 x 600, 2%
loss target) and optimizes a trace object never seen before in the
process, so no process-wide cache (compiled traces, calibration) carries
over between requests.  A pass is two paper-scale gpt3 traces (14,208
operators each, different seeds) plus bert, resnet50, vit_base,
llama2_inference and vgg19, all at scale 1.0; a run optimizes one pass
per ``PASS_SECONDS`` of the run time, each pass on fresh seeds.

Untraced requests call ``EnergyOptimizer.optimize``; traced requests
call the same stage methods one by one with a span around each.  The
traced run optimizes the same passes twice, untraced and then traced on
freshly generated traces, so ``trace_overhead_pct`` compares the same
inputs and every strategy digest must repeat between the two halves.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import replace

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
from repro.core import EnergyOptimizer, OptimizerConfig
from repro.core.report import MeasuredMetrics, OptimizationReport
from repro.dvfs.guard import GuardConfig
from repro.workloads.registry import generate

#: One pass, in request order, every model at scale 1.0.  gpt3 appears
#: twice on different seeds; it is the paper-scale request (Sect. 7.4).
PASS_MODELS: tuple[str, ...] = (
    "gpt3",
    "gpt3",
    "bert",
    "resnet50",
    "vit_base",
    "llama2_inference",
    "vgg19",
)
PAPER_SCALE_MODEL = "gpt3"
#: A pass takes ~10-15 s on a 2-vCPU host.  A run optimizes a whole
#: number of passes fixed by ``--seconds``, so every run does the same
#: work whatever the host speed.
PASS_SECONDS = 10.0
SETUP_REPEATS = 3
#: Layer spans of one request plus trace generation; their self times
#: must account for the traced run's wall time.
LAYER_SPANS = (
    "workloads.generate",
    "core.init",
    "power.calibrate",
    "npu.profile",
    "perf.fit",
    "dvfs.preprocess",
    "dvfs.search",
    "dvfs.execute",
    "core.report",
)


def pass_seeds(seed: int, index: int) -> list[int]:
    """Per-request seeds of pass ``index`` (a pure function of the seed)."""
    rng = np.random.default_rng([seed, index])
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=len(PASS_MODELS))]


def build_pass(seed: int, index: int, tracer: Tracer, parent=None):
    """Generate the traces of one pass (fresh objects on every call)."""
    requests = []
    for model, req_seed in zip(PASS_MODELS, pass_seeds(seed, index)):
        with tracer.span("workloads.generate", parent):
            trace = generate(model, scale=1.0, seed=req_seed)
        requests.append((model, req_seed, trace))
    return requests


def request_config(req_seed: int) -> OptimizerConfig:
    """The default configuration, seeded per request."""
    config = OptimizerConfig(seed=req_seed)
    return replace(config, ga=replace(config.ga, seed=req_seed))


def optimize_staged(
    trace, config: OptimizerConfig, tracer: Tracer, parent: int | None, rid
) -> OptimizationReport:
    """``EnergyOptimizer.optimize`` stage by stage, one span per stage."""
    with tracer.span("core.init", parent, rid):
        optimizer = EnergyOptimizer(config)
    with tracer.span("npu.profile", parent, rid):
        bundle = optimizer.profile(trace)
    # optimize() calibrates lazily inside build_models, after profiling;
    # both draw on the telemetry noise stream, so calibrating first
    # would change every strategy.
    with tracer.span("power.calibrate", parent, rid):
        optimizer.calibrate()
    with tracer.span("perf.fit", parent, rid):
        models = optimizer.build_models(bundle)
    with tracer.span("dvfs.preprocess", parent, rid):
        candidates = optimizer.preprocess(bundle)
    with tracer.span("dvfs.search", parent, rid):
        strategy, scorer, search = optimizer.search(trace, models, candidates)
    with tracer.span("dvfs.execute", parent, rid):
        outcome = optimizer.guarded_executor.execute_with_baseline(
            trace, strategy
        )
    with tracer.span("core.report", parent, rid):
        report = OptimizationReport(
            workload=trace.name,
            performance_loss_target=optimizer.config.performance_loss_target,
            baseline=MeasuredMetrics.from_result(outcome.baseline),
            under_dvfs=MeasuredMetrics.from_result(outcome.result),
            predicted=scorer.breakdown(search.best_genes),
            strategy=strategy,
            search=search,
            stage_count=len(candidates.stages),
            operator_count=trace.operator_count,
            incidents=outcome.incidents,
            fell_back=outcome.fell_back,
        )
    return report


def strategy_digest(report: OptimizationReport) -> str:
    return hashlib.sha256(report.strategy.to_json().encode()).hexdigest()


def check_report(result: WorkloadResult, model: str, report) -> bool:
    """The loss envelope the guarded runtime enforces, with no revert."""
    limit = report.performance_loss_target + GuardConfig().loss_margin
    ok = result.check(
        report.performance_loss <= limit,
        f"{model}: measured loss {report.performance_loss:.4f} exceeds "
        f"{limit:.4f}",
    )
    return ok and result.check(
        not report.fell_back and not report.incidents,
        f"{model}: guarded runtime intervened",
    )


def passes_for(seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS))


def drive(seed, passes, requests, tracer, result, parent=None, gauge=None):
    """The closed loop over passes ``0 .. passes - 1``; returns the
    records.  ``requests`` is pass 0, if already built; the loop holds
    the only reference, so each pass is freed after it.  With a
    ``gauge``, host speed is sampled before every request."""
    records = []
    for pass_index in range(passes):
        if requests is None:
            requests = build_pass(seed, pass_index, tracer, parent)
        for position, (model, req_seed, trace) in enumerate(requests):
            rid = f"p{pass_index}r{position}"
            result.attempted += 1
            if gauge is not None:
                gauge.sample()
            begin = time.perf_counter()
            try:
                if tracer.enabled:
                    with tracer.span("strategy.request", parent, rid) as sid:
                        report = optimize_staged(
                            trace, request_config(req_seed), tracer, sid, rid
                        )
                else:
                    optimizer = EnergyOptimizer(request_config(req_seed))
                    report = optimizer.optimize(trace)
            except Exception as exc:  # counted as failed; the loop goes on
                result.failed += 1
                result.check(False, f"{model} seed {req_seed} raised {exc!r}")
                continue
            latency = time.perf_counter() - begin
            if not check_report(result, model, report):
                result.failed += 1
            records.append(
                {
                    "pass": pass_index,
                    "model": model,
                    "seed": req_seed,
                    "ops": trace.operator_count,
                    "latency_s": latency,
                    "saving": report.aicore_power_reduction,
                    "digest": strategy_digest(report),
                    **request_row(report),
                }
            )
        requests = None
    return records


def ops_per_s(records) -> float:
    return sum(r["ops"] for r in records) / sum(r["latency_s"] for r in records)


def paper_latency_s(records) -> float:
    """Median latency of the paper-scale requests."""
    return statistics.median(
        r["latency_s"] for r in records if r["model"] == PAPER_SCALE_MODEL
    )


def end_to_end(records, scale: float) -> dict[str, float]:
    """The end-to-end metrics, timings host-normalised by ``scale``."""
    by_model: dict[str, list[float]] = {}
    for r in records:
        by_model.setdefault(r["model"], []).append(r["saving"])
    # Mean of per-model means: each model counts once, gpt3 included.
    saving = statistics.mean(statistics.mean(v) for v in by_model.values())
    return {
        "throughput_per_s": ops_per_s(records) / scale,
        "latency_ms": paper_latency_s(records) * scale * 1000.0,
        "saving_pct": saving * 100.0,
    }


def check_digests(seed: int, records, result: WorkloadResult) -> None:
    """Replay the first pass's small requests on fresh traces and optimizers.

    The strategy JSON digest must repeat for the same seed.  The gpt3
    requests are left out of the replay to keep the run short.
    """
    first = {(r["model"], r["seed"]): r["digest"] for r in records if r["pass"] == 0}
    replay = Tracer(enabled=False)
    for model, req_seed, trace in build_pass(seed, 0, replay):
        if model == PAPER_SCALE_MODEL or (model, req_seed) not in first:
            continue
        report = EnergyOptimizer(request_config(req_seed)).optimize(trace)
        check_repeat(result, model, req_seed, strategy_digest(report), first)


def check_repeat(result: WorkloadResult, model, req_seed, digest, first) -> None:
    result.check(
        digest == first.get((model, req_seed)),
        f"{model} seed {req_seed}: strategy digest did not repeat",
    )


def request_row(report: OptimizationReport) -> dict:
    """The search counts of one request."""
    return {
        "stages": report.stage_count,
        "generations": report.search.generations,
        "evaluations": report.search.evaluations,
    }


def stage_metrics(spans, rows) -> dict[str, float]:
    """Per-request means of the stage spans and search counts."""
    n = len(rows)

    def mean_s(name: str) -> float:
        return sum(durations(spans, name)) / n if n else 0.0

    def mean_of(key: str) -> float:
        return statistics.mean(r[key] for r in rows) if n else 0.0

    return {
        "power.calibrate_ms": mean_s("power.calibrate") * 1000.0,
        "npu.profile_s": mean_s("npu.profile"),
        "perf.fit_s": mean_s("perf.fit"),
        "dvfs.preprocess_s": mean_s("dvfs.preprocess"),
        "dvfs.search_s": mean_s("dvfs.search"),
        "dvfs.execute_s": mean_s("dvfs.execute"),
        "dvfs.stages": mean_of("stages"),
        "dvfs.ga_generations": mean_of("generations"),
        "dvfs.oracle_evaluations": mean_of("evaluations"),
    }


def layer_metrics(tracer: Tracer, records, plain, traced_s: float) -> dict:
    own = self_times(tracer.spans)
    layer_s = sum(own.get(name, 0.0) for name in LAYER_SPANS)
    return {
        **stage_metrics(tracer.spans, records),
        "trace_overhead_pct": (ops_per_s(plain) / ops_per_s(records) - 1.0)
        * 100.0,
        "trace.layer_share_pct": layer_s / traced_s * 100.0,
    }


def run(seed: int, seconds: float, traced: bool, import_s: float, spans_path):
    result = WorkloadResult()
    off = Tracer(enabled=False)
    setup_s, setup_all, built = median_setup(
        lambda: [build_pass(seed, 0, off)], SETUP_REPEATS
    )
    log(f"strategy-cold: set-ups {[round(s, 3) for s in setup_all]} s")
    if not traced:
        gauge = HostGauge()
        records = drive(
            seed, passes_for(seconds), built.pop(), off, result, gauge=gauge
        )
        if not any(r["model"] == PAPER_SCALE_MODEL for r in records):
            result.check(False, "no paper-scale request completed")
            return result
        scale = gauge.scale()
        result.end_to_end = {
            "setup_s": import_s + setup_s,
            **end_to_end(records, scale),
        }
        result.detail.update(
            {
                "strategy.ops_per_s": ops_per_s(records),
                "strategy.gpt3_latency_s": paper_latency_s(records),
                "strategy.aicore_saving_pct": result.end_to_end["saving_pct"],
                "host.scale": scale,
            }
        )
    else:
        # The untraced half is the overhead reference; the traced half
        # replays the same passes on fresh traces and optimizers.
        half = passes_for(seconds / 2.0)
        plain = drive(seed, half, built.pop(), off, result)
        tracer = Tracer()
        start = time.perf_counter()
        with tracer.span("strategy.run") as run_sid:
            traced_records = drive(seed, half, None, tracer, result, run_sid)
        traced_s = time.perf_counter() - start
        result.per_layer = layer_metrics(tracer, traced_records, plain, traced_s)
        tracer.write_jsonl(spans_path)
        first = {(r["model"], r["seed"]): r["digest"] for r in plain}
        for r in traced_records:
            check_repeat(result, r["model"], r["seed"], r["digest"], first)
        records = plain
    result.detail["strategy.requests"] = len(records)
    result.detail["strategy.passes"] = len({r["pass"] for r in records})
    if not traced:
        check_digests(seed, records, result)
    return result
