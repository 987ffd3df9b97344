"""serve-mixed: cache-hit reads beside cold-miss writes through the gateway.

An open loop on the wall clock: one process generates fixed-rate
Poisson arrivals and submits them to ``AsyncGateway`` over a
``StrategyService`` and a ``ShardedStrategyStore``.  Requests repeat a
Zipf-skewed population built with ``traffic.build_workload_population``;
a steady ~1% are fingerprints the store has never seen, and some
requests repeat such a fingerprint while it computes, so misses
coalesce.  The store's memory LRU is smaller than the population, so
memory, hot-tier and disk hits all occur.  The optimizer config is the
``repro-serve bench-traffic`` default (GA 16 x 12, patience 6); miss
jobs run on the gateway's process pool (see ``gateway_config``).

Each request is timed from the moment it was due, not from when the
generator got to it, and the generator's own lateness is reported.
The first rung of a ladder of offered rates, each 1.25x the last, is
the reference rate; it runs long enough for miss percentiles.  The
ladder stops at the first rung whose p99 over all offered requests
misses the limit or whose dispatch queue grew.
"""

from __future__ import annotations

import asyncio
import math
import os
import selectors
import shutil
import statistics
import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

from bench_common import (
    HostGauge,
    Tracer,
    WorkloadResult,
    durations,
    log,
    median_setup,
    percentile,
    summarize,
)
from repro.core import OptimizerConfig
from repro.dvfs import GaConfig
from repro.errors import Overloaded
from repro.serve import (
    AsyncGateway,
    GatewayConfig,
    ServeResult,
    ShardedStrategyStore,
    StrategyService,
)
from repro.serve.pool import job_config
from repro.traffic import TrafficConfig, build_workload_population
from repro.traffic.driver import verify_byte_identity
from repro.traffic.patterns import zipf_weights
from strategy_cold import optimize_staged, request_row, stage_metrics

#: Distinct workloads served from the store (pre-computed in set-up).
POPULATION = 96
ZIPF_S = 1.1
#: Every NEW_EVERY-th arrival carries a fingerprint the store has never
#: seen (a steady 1%), and every second one is repeated REPEAT_AFTER
#: arrivals later, while it still computes, so it coalesces.  Evenly
#: spaced rather than drawn, so the miss load is the same in every
#: rung and the ladder's knee is the system's, not a burst's.
NEW_EVERY = 100
REPEAT_AFTER = 3
#: Store geometry: 8 shards x 3 LRU entries and 24 hot slots hold less
#: than the population, so every tier serves some hits.
SHARDS = 8
MEMORY_CAPACITY = 3
HOT_SLOTS = 24
#: Offered rate of the reference phase (hit and miss latencies), which
#: is also the first ladder rung.
REFERENCE_RATE = 1000.0
LADDER_STEP = 1.25
MAX_RUNGS = 10
#: The p99 limit over all offered requests (shed and failed count as
#: missing it).  Below saturation p99 stays under ~60 ms on a 2-core
#: host; past it the miss backlog pushes p99 to several hundred ms
#: within one rung.
P99_LIMIT_MS = 150.0
#: Shares of the measured time given to the reference phase and to each
#: further rung.
REFERENCE_SHARE = 0.5
RUNG_SHARE = 0.1
#: Rungs that may be run a second time in one run (see ``measure``).
MAX_RETRIES = 2
VERIFY_WORKLOADS = 8
REPLAY_JOBS = 8
SETUP_REPEATS = 3
#: Host-speed samples before the first phase; one more follows each.
GAUGE_SAMPLES_FIRST = 3
HIT_TIERS = ("memory", "hot", "disk")


def optimizer_config(seed: int) -> OptimizerConfig:
    """The ``repro-serve bench-traffic`` default configuration."""
    return OptimizerConfig(
        performance_loss_target=0.02,
        ga=GaConfig(population_size=16, iterations=12, seed=seed),
        seed=seed,
    ).with_patience(6)


def gateway_config() -> GatewayConfig:
    """Dispatchers up to the core count, miss jobs on worker processes.

    With the default thread executor, two concurrent miss jobs race on
    the process-wide compiled-trace cache of ``repro.npu.engine``
    (``RuntimeError: dictionary keys changed during iteration``), and a
    single dispatcher thread still holds the interpreter lock against
    the event loop for a whole job, which makes every latency depend on
    thread scheduling rather than on the work done.
    """
    return GatewayConfig(
        dispatchers=min(4, os.cpu_count() or 1), use_processes=True
    )


def build_schedule(
    seed: int, phase: int, rate: float, seconds: float, fresh_offset: int
):
    """Arrivals of one phase: due offsets (s) and workload indices.

    Poisson arrivals at ``rate`` over ``seconds``.  Indices below
    ``POPULATION`` are the known population (Zipf over ranks); new
    fingerprints take consecutive indices from ``POPULATION +
    fresh_offset``.  Returns ``(due, workload, new)`` where ``new``
    counts the fresh indices consumed.  A pure function of its
    arguments.
    """
    rng = np.random.default_rng([seed, phase])
    count = int(rng.poisson(rate * seconds))
    due = np.sort(rng.uniform(0.0, seconds, count))
    workload = rng.choice(POPULATION, size=count, p=zipf_weights(POPULATION, ZIPF_S))
    first = int(rng.integers(NEW_EVERY))
    new_at = np.arange(first, count, NEW_EVERY)
    fresh = POPULATION + fresh_offset + np.arange(new_at.size)
    workload[new_at] = fresh
    repeat_at = new_at[::2] + REPEAT_AFTER
    keep = repeat_at < count
    workload[repeat_at[keep]] = fresh[::2][keep]
    return due, workload, int(new_at.size)


def ladder_rates() -> list[float]:
    return [REFERENCE_RATE * LADDER_STEP**k for k in range(MAX_RUNGS)]


def rung_tail_ms(rung: dict) -> float:
    """p99 over all offered requests, or the time the backlog left when
    arrivals stop takes to drain, whichever is longer: a growing queue
    shows as a late tail."""
    return max(rung["p99_ms"], rung["drain_ms"])


def rung_passes(rung: dict, limit_ms: float = P99_LIMIT_MS) -> bool:
    """The tail within the limit: p99 met and the queue not growing."""
    return rung_tail_ms(rung) <= limit_ms


def select_max_rate(
    rungs: list[dict], limit_ms: float = P99_LIMIT_MS
) -> tuple[float, float] | None:
    """The highest passing rate: ``(ladder rate, interpolated rate)``.

    The ladder rate is the last rung passing before the first failing
    one, in ascending rate order.  One rung is a 25% step, so across
    seeds the ladder rate flips between neighbours; the interpolated
    rate is where the tail (``rung_tail_ms``) crosses ``limit_ms``
    between that rung and the first failing one, linear in log(rate)
    against log(tail).  It equals the ladder rate when no rung failed.
    ``None`` when the first rung fails.
    """
    passed = None
    for rung in sorted(rungs, key=lambda r: r["rate"]):
        if rung_passes(rung, limit_ms):
            passed = rung
            continue
        if passed is None:
            return None
        lo, hi = rung_tail_ms(passed), rung_tail_ms(rung)
        if lo <= 0.0:
            return passed["rate"], passed["rate"]
        fraction = math.log(limit_ms / lo) / math.log(hi / lo)
        crossing = passed["rate"] * (rung["rate"] / passed["rate"]) ** fraction
        return passed["rate"], crossing
    if passed is None:
        return None
    return passed["rate"], passed["rate"]


class ServeSetup:
    """A warm store behind a service: what every measured phase needs."""

    def __init__(self, seed: int, root: Path, fresh: int) -> None:
        self.root = root
        self.config = optimizer_config(seed)
        self.traces = build_workload_population(POPULATION + fresh, seed=seed)
        self.store = ShardedStrategyStore(
            root / "store",
            shards=SHARDS,
            memory_capacity=MEMORY_CAPACITY,
            hot_slots=HOT_SLOTS,
        )
        self.service = StrategyService(config=self.config, store=self.store)
        for trace in self.traces[:POPULATION]:
            self.service.fingerprint(trace)
        self.savings: list[float] = []
        commit = self.service.commit

        def keep_saving(pool_result):
            self.savings.append(pool_result.aicore_power_reduction)
            return commit(pool_result)

        # The population is computed through the gateway, so the
        # byte-identity check compares gateway-committed records.
        self.service.commit = keep_saving
        try:
            asyncio.run(self._prewarm())
        finally:
            del self.service.commit

    async def _prewarm(self) -> None:
        async with AsyncGateway(self.service, gateway_config()) as gateway:
            await asyncio.gather(
                *(gateway.submit(t) for t in self.traces[:POPULATION])
            )

    def close(self) -> None:
        self.service.close()
        self.store.close()
        shutil.rmtree(self.root, ignore_errors=True)


def precise_loop() -> asyncio.AbstractEventLoop:
    """An event loop whose timers wake with microsecond, not millisecond,
    resolution (``select`` takes a float timeout; epoll rounds up to
    whole milliseconds, which would dominate a ~15 us hit)."""
    return asyncio.SelectorEventLoop(selectors.SelectSelector())


class Phase:
    """Per-request outcome arrays of one phase."""

    def __init__(self, rate: float, due, workload) -> None:
        self.rate = rate
        self.due = due
        self.workload = workload
        n = len(due)
        self.latency = np.full(n, np.inf)
        self.late = np.zeros(n)
        self.source = ["failed"] * n
        #: From the last arrival's due time until every request finished.
        self.drain_s = 0.0
        self.queue_depth_max = 0

    def mask(self, *sources: str) -> np.ndarray:
        return np.array([s in sources for s in self.source], dtype=bool)

    def summary(self) -> dict:
        """The ladder view: p99 over all offered requests, and how long
        the backlog left when arrivals stop took to drain."""
        return {
            "rate": self.rate,
            "offered": len(self.due),
            "p99_ms": percentile(self.latency.tolist(), 99.0) * 1000.0,
            "drain_ms": self.drain_s * 1000.0,
        }


async def drive_phase(gateway, traces, phase: Phase, tracer: Tracer, hooks) -> None:
    """Submit every arrival at its due time; wait for all to finish."""
    clock = time.perf_counter
    submit = gateway.submit_nowait
    due = phase.due.tolist()
    workload = phase.workload.tolist()
    pending = []
    t0 = clock()

    def finished(i, task):
        phase.latency[i] = clock() - t0 - due[i]
        if task.cancelled() or task.exception() is not None:
            phase.source[i] = "failed"
        else:
            phase.source[i] = task.result().source

    i = 0
    n = len(due)
    while i < n:
        ahead = due[i] - (clock() - t0)
        if ahead > 0:
            await asyncio.sleep(ahead)
            continue
        while i < n and due[i] <= clock() - t0:
            start = clock()
            phase.late[i] = start - t0 - due[i]
            trace = traces[workload[i]]
            try:
                if tracer.enabled:
                    with tracer.span("serve.submit", rid=str(i)) as sid:
                        hooks.current = sid
                        outcome = submit(trace)
                        hooks.current = None
                else:
                    outcome = submit(trace)
            except Overloaded:
                if tracer.enabled:
                    hooks.current = None
                phase.source[i] = "shed"
                i += 1
                continue
            if type(outcome) is ServeResult:
                phase.latency[i] = clock() - t0 - due[i]
                phase.source[i] = outcome.source
            else:
                if tracer.enabled:
                    hooks.admitted.setdefault(hooks.last_fingerprint, start)
                    hooks.request_fp[i] = hooks.last_fingerprint
                task = asyncio.ensure_future(outcome)
                task.add_done_callback(partial(finished, i))
                pending.append(task)
            i += 1
    if pending:
        await asyncio.gather(*pending, return_exceptions=True)
    if n:
        phase.drain_s = clock() - t0 - due[-1]


class Hooks:
    """Spans around ``StrategyService.fingerprint``/``lookup``/``commit``,
    installed from outside ``src``.

    The job itself runs in a worker process, so its span is rebuilt at
    commit: it ends when the commit starts and lasts the job's own
    ``PoolResult.wall_seconds``; the queue wait runs from admission to
    that start, so it includes the hand-off to and from the worker.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.current: int | None = None
        self.last_fingerprint: str | None = None
        self.admitted: dict[str, float] = {}
        self.request_fp: dict[int, str] = {}

    @contextmanager
    def installed(self, service: StrategyService):
        tracer = self.tracer
        fingerprint, lookup, commit = (
            service.fingerprint,
            service.lookup,
            service.commit,
        )
        def fingerprint_hook(trace):
            with tracer.span("serve.fingerprint", self.current):
                self.last_fingerprint = fingerprint(trace)
            return self.last_fingerprint

        def lookup_hook(fp):
            with tracer.span("serve.lookup", self.current, fp):
                return lookup(fp)

        def commit_hook(pool_result):
            fp = pool_result.fingerprint
            now = time.perf_counter()
            started = now - pool_result.wall_seconds
            admitted = self.admitted.get(fp)
            if admitted is not None:
                tracer.record("serve.queue_wait", admitted, started, rid=fp)
            tracer.record("serve.job", started, now, rid=fp)
            with tracer.span("serve.commit", rid=fp):
                return commit(pool_result)

        service.fingerprint = fingerprint_hook
        service.lookup = lookup_hook
        service.commit = commit_hook
        try:
            yield self
        finally:
            del service.fingerprint, service.lookup, service.commit


def fresh_needed(seconds: float) -> int:
    """Fresh traces to build so no phase can run out (generous)."""
    rates = ladder_rates()
    offered = REFERENCE_RATE * seconds + seconds * RUNG_SHARE * (
        sum(rates) + MAX_RETRIES * rates[-1]
    )
    return int(offered / NEW_EVERY * 1.5) + 64


def latency_split(phase: Phase) -> dict:
    hits = phase.latency[phase.mask(*HIT_TIERS)] * 1e6
    misses = phase.latency[phase.mask("computed")] * 1000.0
    return {
        "hit_us": summarize(hits.tolist()),
        "miss_ms": summarize(misses.tolist()),
        "late_ms": summarize((phase.late * 1000.0).tolist()),
        "sources": {
            s: phase.source.count(s)
            for s in (*HIT_TIERS, "coalesced", "computed", "shed", "failed")
        },
    }


async def measure(setup: ServeSetup, seed: int, result, plan, gauge=None, retry_s=0.0):
    """Run ``plan`` (a list of phase kinds) through one gateway.

    A reference or rung phase that misses the limit is run once more,
    for ``retry_s`` on a schedule of its own, up to ``MAX_RETRIES`` times
    a run; the ladder stops only when the retry misses too.  A stall of
    the shared host for a few hundred milliseconds fails a rung at any
    rate, while a rate past the knee fails both times.

    With a ``gauge``, host speed is sampled before the first phase and
    after every phase, while no request is in flight.
    """
    outcomes = []
    fresh_offset = 0
    retries = 0
    async with AsyncGateway(setup.service, gateway_config()) as gateway:
        if gauge is not None:
            for _ in range(GAUGE_SAMPLES_FIRST):
                gauge.sample()

        async def run_phase(number, kind, rate, length, tracer, hooks):
            nonlocal fresh_offset
            due, workload, new = build_schedule(seed, number, rate, length, fresh_offset)
            fresh_offset += new
            phase = Phase(rate, due, workload)
            gateway.max_queue_depth_seen = 0
            if tracer.enabled:
                with hooks.installed(setup.service):
                    await drive_phase(gateway, setup.traces, phase, tracer, hooks)
            else:
                await drive_phase(gateway, setup.traces, phase, tracer, hooks)
            phase.queue_depth_max = gateway.max_queue_depth_seen
            result.attempted += len(due)
            result.failed += phase.source.count("shed") + phase.source.count("failed")
            summary = phase.summary()
            log(
                f"serve-mixed: {kind} {rate:.0f} rps offered {summary['offered']} "
                f"p99 {summary['p99_ms']:.2f} ms drain {summary['drain_ms']:.2f} ms"
            )
            outcomes.append((kind, phase, summary))
            if gauge is not None:
                gauge.sample()
            return summary

        for index, (kind, rate, length, tracer, hooks) in enumerate(plan):
            summary = await run_phase(index, kind, rate, length, tracer, hooks)
            if kind not in ("reference", "rung") or rung_passes(summary):
                continue
            if retries == MAX_RETRIES:
                break
            retries += 1
            retry = await run_phase(len(plan) + index, "retry", rate, retry_s, tracer, hooks)
            if not rung_passes(retry):
                break
    return outcomes


def run(seed: int, seconds: float, traced: bool, import_s: float, spans_path: Path):
    result = WorkloadResult()
    work = spans_path.parent / f"serve-store-{seed}"
    fresh = fresh_needed(seconds)
    counter = iter(range(SETUP_REPEATS))
    setups: list[ServeSetup] = []

    def set_up():
        for old in setups:
            old.close()
        setups.clear()
        setups.append(ServeSetup(seed, work / f"setup-{next(counter)}", fresh))
        return setups[0]

    setup_s, setup_all, setup = median_setup(set_up, SETUP_REPEATS)
    log(f"serve-mixed: set-ups {[round(s, 3) for s in setup_all]} s")
    off = Tracer(enabled=False)
    try:
        with asyncio.Runner(loop_factory=precise_loop) as runner:
            if not traced:
                plan = [("reference", REFERENCE_RATE, seconds * REFERENCE_SHARE, off, None)]
                plan += [
                    ("rung", rate, seconds * RUNG_SHARE, off, None)
                    for rate in ladder_rates()[1:]
                ]
                gauge = HostGauge()
                outcomes = runner.run(
                    measure(setup, seed, result, plan, gauge, seconds * RUNG_SHARE)
                )
                _end_to_end(result, outcomes, setup, import_s + setup_s, gauge.scale())
            else:
                tracer = Tracer()
                hooks = Hooks(tracer)
                half = seconds / 2.0
                plan = [
                    ("untraced", REFERENCE_RATE, half, off, hooks),
                    ("traced", REFERENCE_RATE, half, tracer, hooks),
                ]
                outcomes = runner.run(measure(setup, seed, result, plan))
                _layers(result, outcomes, setup, tracer, hooks)
                tracer.write_jsonl(spans_path)
        identical, verified = verify_byte_identity(
            TrafficConfig(
                requests=1,
                workloads=len(setup.traces),
                seed=seed,
                verify=VERIFY_WORKLOADS,
            ),
            setup.config,
            setup.store,
            work / "verify",
        )
        result.check(
            identical and verified == VERIFY_WORKLOADS,
            "served strategies differ from a fresh serial StrategyService",
        )
        if not identical:
            result.failed += verified
    finally:
        setup.close()
        shutil.rmtree(work, ignore_errors=True)
    return result


def percentiles(prefix: str, unit: str, stats: dict) -> dict:
    """``<prefix>_p50_<unit>``, the tail the sample supports, the count."""
    out = {f"{prefix}_p50_{unit}": stats["p50"], f"{prefix}_n": stats["n"]}
    if "tail" in stats:
        out[f"{prefix}_p{stats['tail_pct']:g}_{unit}"] = stats["tail"]
    return out


def _end_to_end(result, outcomes, setup: ServeSetup, setup_s: float, scale: float) -> None:
    """The end-to-end metrics, timings and rates host-normalised by
    ``scale``; the detail figures are raw host time."""
    reference = latency_split(outcomes[0][1])
    # A retry replaces the failed attempt at its rate.
    rungs = list({summary["rate"]: summary for _, _, summary in outcomes}.values())
    rates = select_max_rate(rungs)
    ok = result.check(rates is not None, "the first ladder rung missed the p99 limit")
    ok &= result.check(reference["miss_ms"]["n"] > 0, "no computed miss at the reference rate")
    if not ok:
        return
    ladder_rate, max_rate = rates
    result.end_to_end = {
        "setup_s": setup_s,
        "throughput_per_s": max_rate / scale,
        "latency_ms": reference["miss_ms"]["p50"] * scale,
        # The median: a few traces with very large or no savings move
        # the mean of 96 by ~12% from seed to seed, the median by ~3%.
        "saving_pct": statistics.median(setup.savings) * 100.0,
    }
    result.detail.update(
        {
            "host.scale": scale,
            "serve.max_rate_rps": max_rate,
            "serve.max_ladder_rate_rps": ladder_rate,
            "serve.retried_rungs": sum(1 for kind, _, _ in outcomes if kind == "retry"),
            "serve.reference_rate_rps": REFERENCE_RATE,
            "serve.p99_limit_ms": P99_LIMIT_MS,
            **percentiles("serve.hit", "us", reference["hit_us"]),
            **percentiles("serve.miss", "ms", reference["miss_ms"]),
            **percentiles("serve.generator_late", "ms", reference["late_ms"]),
            "serve.rungs": " ".join(
                f"{r['rate']:.0f}:{r['p99_ms']:.1f}/{r['drain_ms']:.1f}"
                for r in rungs
            ),
        }
    )


def _layers(result, outcomes, setup: ServeSetup, tracer: Tracer, hooks: Hooks) -> None:
    (_, plain, _), (_, traced, _) = outcomes
    spans = tracer.spans
    hit_rids = {str(i) for i, s in enumerate(traced.source) if s in HIT_TIERS}
    submit_us = [
        (s.end - s.start) * 1e6 for s in spans if s.name == "serve.submit" and s.rid in hit_rids
    ]
    split = latency_split(traced)
    sources = split["sources"]
    offered = len(traced.due)
    hits = sum(sources[t] for t in HIT_TIERS)

    def p50(values):
        return statistics.median(values) if values else 0.0

    # Share of each computed miss (from its submit) covered by the queue
    # wait and job spans.
    wait = {s.rid: s.end - s.start for s in spans if s.name == "serve.queue_wait"}
    job = {s.rid: s.end - s.start for s in spans if s.name == "serve.job"}
    shares = []
    for i, fp in hooks.request_fp.items():
        if traced.source[i] == "computed" and fp in wait and fp in job:
            latency = traced.latency[i] - traced.late[i]
            shares.append((wait[fp] + job[fp]) / latency)

    # Serial replay of sampled miss jobs through the stage methods.
    computed = sorted({hooks.request_fp[i] for i in hooks.request_fp if traced.source[i] == "computed"})
    by_fp = {setup.service.fingerprint(t): t for t in setup.traces[POPULATION:]}
    replayed = []
    for fp in computed[:REPLAY_JOBS]:
        with tracer.span("serve.replay_job", rid=fp) as sid:
            report = optimize_staged(by_fp[fp], job_config(setup.config, fp), tracer, sid, fp)
        replayed.append(request_row(report))
        served = setup.store.get(fp, setup.service.config_hash, setup.service.spec_hash)
        if not result.check(
            served is not None and served.to_json() == report.strategy.to_json(),
            f"replayed miss job {fp[:12]} differs from the served strategy",
        ):
            result.failed += 1
    stages = stage_metrics(spans, replayed)
    result.per_layer = {
        "serve.submit_us": p50(submit_us),
        "serve.lookup_us": p50([d * 1e6 for d in durations(spans, "serve.lookup")]),
        "serve.queue_wait_ms": p50([d * 1000.0 for d in wait.values()]),
        "serve.job_ms": p50([d * 1000.0 for d in job.values()]),
        "serve.job.calibrate_ms": stages["power.calibrate_ms"],
        "serve.job.profile_ms": stages["npu.profile_s"] * 1000.0,
        "serve.job.search_ms": stages["dvfs.search_s"] * 1000.0,
        "serve.job.execute_ms": stages["dvfs.execute_s"] * 1000.0,
        **stages,
        "serve.memory_hits": sources["memory"],
        "serve.hot_hits": sources["hot"],
        "serve.disk_hits": sources["disk"],
        "serve.coalesced": sources["coalesced"],
        "serve.computed": sources["computed"],
        "serve.shed": sources["shed"],
        "serve.queue_depth_max": traced.queue_depth_max,
        "serve.hit_ratio": hits / offered,
        "trace_overhead_pct": (
            split["hit_us"]["p50"] / latency_split(plain)["hit_us"]["p50"] - 1.0
        )
        * 100.0,
        "trace.layer_share_pct": statistics.mean(shares) * 100.0 if shares else 0.0,
    }
