"""Command-line entry point: ``repro-serve`` / ``python -m repro.serve``.

Three subcommands::

    repro-serve warm gpt3 bert --store /tmp/strategies --scale 0.05
    repro-serve stats --store /tmp/strategies
    repro-serve bench-traffic --requests 1000000 --output BENCH_serve.json

``warm`` (the default when the first argument is a workload name, for
backwards compatibility) warms the persistent strategy store for named
workloads and reports the service's hit/miss counters — run it twice
against the same store directory to watch the second run serve
everything from disk.  ``stats`` scans a store directory — flat or
sharded — validating every record (quarantining damage) and renders the
service/store counter tables.  ``bench-traffic`` runs the synthetic
fleet traffic driver (:mod:`repro.traffic`) against an async gateway
and optionally writes/asserts ``BENCH_serve.json``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.core import OptimizerConfig, render_service_stats
from repro.dvfs import GaConfig
from repro.errors import ReproError
from repro.serve.service import StrategyService
from repro.serve.shards import ShardedStrategyStore, ShardLayout
from repro.serve.store import StrategyStore
from repro.workloads import generate, workload_names

_SUBCOMMANDS = ("warm", "stats", "bench-traffic")


def build_parser() -> argparse.ArgumentParser:
    """The ``warm`` argument parser (kept name for API compatibility)."""
    parser = argparse.ArgumentParser(
        prog="repro-serve warm",
        description=(
            "Warm the persistent DVFS strategy store for named workloads "
            "and print the service's hit/miss statistics."
        ),
    )
    parser.add_argument(
        "workloads",
        nargs="*",
        default=["gpt3", "bert"],
        help=f"workload names (default: gpt3 bert; known: "
        f"{', '.join(workload_names())})",
    )
    parser.add_argument(
        "--store",
        default=".repro-strategy-store",
        help="strategy store directory (default .repro-strategy-store)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.05, help="workload scale"
    )
    parser.add_argument(
        "--target",
        type=float,
        default=0.02,
        help="performance-loss target (default 0.02)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="optimizer-pool processes (0 = serial, the default)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="serve the request stream this many times (default 1)",
    )
    parser.add_argument(
        "--population", type=int, default=60, help="GA population size"
    )
    parser.add_argument(
        "--iterations", type=int, default=120, help="GA iterations"
    )
    parser.add_argument(
        "--patience",
        type=int,
        default=0,
        help=(
            "stop a GA miss after this many generations without "
            "improvement (0 = run the full iteration budget, the default)"
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    return parser


def _warm_main(argv: Sequence[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.patience < 0:
        parser.error("--patience must be >= 0")
    config = OptimizerConfig(
        performance_loss_target=args.target,
        ga=GaConfig(
            population_size=args.population,
            iterations=args.iterations,
            seed=args.seed,
        ),
        seed=args.seed,
    ).with_patience(args.patience)
    store = StrategyStore(Path(args.store))
    try:
        traces = [
            generate(name, scale=args.scale, seed=args.seed)
            for name in args.workloads
        ]
        with StrategyService(
            config=config, store=store, workers=args.workers
        ) as service:
            print(
                f"Warming {args.store} with {len(traces)} workload(s) x "
                f"{args.repeats} repeat(s)..."
            )
            for round_index in range(args.repeats):
                for result in service.serve_batch(traces):
                    print(
                        f"  [{round_index + 1}/{args.repeats}] "
                        f"{result.strategy.workload:<18} "
                        f"{result.source:<9} "
                        f"{result.latency_seconds * 1e3:9.3f} ms  "
                        f"{result.fingerprint[:12]}"
                    )
            print()
            print(render_service_stats(service.stats))
            print()
            print(render_service_stats(store.counters, title="strategy store"))
            print(f"\nstore now holds {len(store)} strategy record(s)")
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def build_stats_parser() -> argparse.ArgumentParser:
    """The ``stats`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-serve stats",
        description=(
            "Scan a strategy store directory (flat or sharded), validate "
            "every record, and render the service/store counter tables."
        ),
    )
    parser.add_argument(
        "--store",
        default=".repro-strategy-store",
        help="store directory (default .repro-strategy-store)",
    )
    return parser


def _stats_main(argv: Sequence[str]) -> int:
    args = build_stats_parser().parse_args(argv)
    root = Path(args.store)
    try:
        layout = ShardLayout.detect(root)
        if layout.sharded:
            store = ShardedStrategyStore(
                root, shards=layout.shards, hot_slots=0
            )
        else:
            store = StrategyStore(root)
        # Validate every record (no hash pinning: structural checks
        # only, so nothing valid is invalidated by this scan; damage is
        # quarantined exactly as it would be in serving).
        for fingerprint in list(store.fingerprints()):
            store.lookup(fingerprint)
        quarantined = sum(1 for _ in store.quarantined_files())
        with StrategyService(
            config=OptimizerConfig(), store=store
        ) as service:
            print(
                f"{root}: "
                + (
                    f"sharded store ({layout.shards} shards), "
                    if layout.sharded
                    else "flat store, "
                )
                + f"{len(store)} valid record(s), "
                f"{quarantined} quarantined file(s)"
            )
            print()
            print(render_service_stats(service.stats))
            print()
            counters = (
                store.counter_rows()
                if isinstance(store, ShardedStrategyStore)
                else store.counters.rows()
            )
            print(
                "[strategy store]\n"
                + _format_rows(counters)
            )
            if layout.sharded:
                print()
                rows = [
                    {
                        "shard": f"shard-{i:02d}",
                        "records": len(shard),
                        "lru_entries": shard.memory_size(),
                    }
                    for i, shard in enumerate(store.shard_stores)
                ]
                print("[shards]\n" + _format_rows(rows))
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def _format_rows(rows: list[dict]) -> str:
    from repro.core.report import format_table

    return format_table(rows)


def build_bench_parser() -> argparse.ArgumentParser:
    """The ``bench-traffic`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-serve bench-traffic",
        description=(
            "Drive seeded synthetic fleet traffic (Zipf popularity, "
            "diurnal load, bursts) through the async serving gateway and "
            "report p50/p99 latency, hit rate, shed rate and queue depth."
        ),
    )
    parser.add_argument(
        "--requests", type=int, default=1_000_000,
        help="requests to offer (default 1,000,000)",
    )
    parser.add_argument(
        "--workloads", type=int, default=64,
        help="distinct workload population size (default 64)",
    )
    parser.add_argument(
        "--zipf", type=float, default=1.1,
        help="Zipf popularity exponent (default 1.1)",
    )
    parser.add_argument(
        "--sources", type=int, default=8,
        help="distinct request sources (default 8)",
    )
    parser.add_argument(
        "--rate", type=float, default=50_000.0,
        help="base arrival rate, virtual req/s (default 50k)",
    )
    parser.add_argument(
        "--window", type=int, default=4096,
        help="driver concurrency window (default 4096)",
    )
    parser.add_argument(
        "--burst-count", type=int, default=12,
        help="burst windows over the drive (default 12)",
    )
    parser.add_argument(
        "--burst-magnitude", type=float, default=4.0,
        help="rate multiplier inside a burst (default 4.0)",
    )
    parser.add_argument(
        "--shards", type=int, default=8,
        help="store shards (default 8)",
    )
    parser.add_argument(
        "--hot-slots", type=int, default=512,
        help="shared-memory hot-tier slots, 0 disables (default 512)",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=256,
        help="gateway admission queue bound (default 256)",
    )
    parser.add_argument(
        "--dispatchers", type=int, default=4,
        help="gateway dispatcher tasks (default 4)",
    )
    parser.add_argument(
        "--rate-per-source", type=float, default=0.0,
        help="token-bucket rate per source, virtual req/s (0 = off)",
    )
    parser.add_argument(
        "--burst-per-source", type=float, default=0.0,
        help="token-bucket burst per source (0 = one second of tokens)",
    )
    parser.add_argument(
        "--population", type=int, default=16, help="GA population size"
    )
    parser.add_argument(
        "--iterations", type=int, default=12, help="GA iterations"
    )
    parser.add_argument(
        "--patience", type=int, default=6, help="GA early-stop patience"
    )
    parser.add_argument(
        "--target", type=float, default=0.02,
        help="performance-loss target (default 0.02)",
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument(
        "--verify", type=int, default=8,
        help="workloads recomputed serially for byte-identity (default 8)",
    )
    parser.add_argument(
        "--prewarm", action="store_true",
        help=(
            "compute every workload's strategy before the timed drive "
            "(steady-state measurement; cold start excluded)"
        ),
    )
    parser.add_argument(
        "--workers", dest="traffic_workers", type=int, default=0,
        help=(
            "optimizer-pool worker processes behind the strategy "
            "service, which compute the --prewarm batch (default 0 = "
            "in-process serial, the historical behavior)"
        ),
    )
    parser.add_argument(
        "--store", default=None,
        help="persistent store root (default: fresh temp dir)",
    )
    parser.add_argument(
        "--output", default=None,
        help="write the JSON report here (e.g. BENCH_serve.json)",
    )
    parser.add_argument(
        "--assert-p99-ms", type=float, default=None,
        help="fail unless served p99 latency <= this many ms",
    )
    parser.add_argument(
        "--assert-hit-rate", type=float, default=None,
        help="fail unless hit rate >= this fraction",
    )
    parser.add_argument(
        "--assert-max-shed-rate", type=float, default=None,
        help="fail unless shed rate <= this fraction",
    )
    return parser


def _bench_main(argv: Sequence[str]) -> int:
    from repro.serve.gateway import GatewayConfig
    from repro.traffic import TrafficConfig, run_bench

    parser = build_bench_parser()
    args = parser.parse_args(argv)
    config = TrafficConfig(
        requests=args.requests,
        workloads=args.workloads,
        zipf_s=args.zipf,
        sources=args.sources,
        base_rate=args.rate,
        burst_count=args.burst_count,
        burst_magnitude=args.burst_magnitude,
        seed=args.seed,
        window=args.window,
        verify=args.verify,
        prewarm=args.prewarm,
        workers=args.traffic_workers,
    )
    optimizer_config = OptimizerConfig(
        performance_loss_target=args.target,
        ga=GaConfig(
            population_size=args.population,
            iterations=args.iterations,
            seed=args.seed,
        ),
        seed=args.seed,
    ).with_patience(args.patience)
    gateway_config = GatewayConfig(
        max_queue_depth=args.queue_depth,
        dispatchers=args.dispatchers,
        rate_per_source=args.rate_per_source,
        burst_per_source=args.burst_per_source,
    )
    try:
        print(
            f"Driving {config.requests:,} requests over "
            f"{config.workloads} workloads "
            f"(zipf {config.zipf_s}, {config.sources} sources)..."
        )
        report = run_bench(
            config,
            optimizer_config,
            gateway_config,
            store_root=Path(args.store) if args.store else None,
            shards=args.shards,
            hot_slots=args.hot_slots,
            output=Path(args.output) if args.output else None,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print()
    print("[traffic]\n" + _format_rows(report.rows()))
    ok = True
    if report.failed:
        print(f"FAIL: {report.failed} request(s) failed", file=sys.stderr)
        ok = False
    if report.byte_identical is False:
        print(
            "FAIL: served strategies are not byte-identical to the "
            "serial reference",
            file=sys.stderr,
        )
        ok = False
    p99_ms = report.latency_us["p99"] / 1e3
    if args.assert_p99_ms is not None and p99_ms > args.assert_p99_ms:
        print(
            f"FAIL: p99 {p99_ms:.3f} ms > floor {args.assert_p99_ms} ms",
            file=sys.stderr,
        )
        ok = False
    if (
        args.assert_hit_rate is not None
        and report.hit_rate < args.assert_hit_rate
    ):
        print(
            f"FAIL: hit rate {report.hit_rate:.4f} < "
            f"{args.assert_hit_rate}",
            file=sys.stderr,
        )
        ok = False
    if (
        args.assert_max_shed_rate is not None
        and report.shed_rate > args.assert_max_shed_rate
    ):
        print(
            f"FAIL: shed rate {report.shed_rate:.4f} > "
            f"{args.assert_max_shed_rate}",
            file=sys.stderr,
        )
        ok = False
    return 0 if ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    The first argument selects the subcommand; anything else falls back
    to the original ``warm`` behaviour, so existing invocations like
    ``python -m repro.serve gpt3 bert`` keep working.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "stats":
        return _stats_main(argv[1:])
    if argv and argv[0] == "bench-traffic":
        return _bench_main(argv[1:])
    if argv and argv[0] == "warm":
        argv = argv[1:]
    return _warm_main(argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
