"""Synthetic fleet traffic for the serving gateway (Sect. 8.1 at scale).

The paper amortizes one offline strategy search across a fleet; this
package supplies the *fleet side* of that argument — a seeded traffic
generator and driver that push a million-request workload through
:class:`~repro.serve.gateway.AsyncGateway` and measure what a production
deployment would: tail latency, hit rate, shed rate, queue depth.

* :mod:`repro.traffic.patterns` — the request schedule: heavy-tailed
  (Zipf) workload popularity, a diurnal load curve, seeded burst
  windows, and per-chunk Poisson arrivals, all as NumPy arrays from one
  ``numpy.random.Generator``; same seed, same schedule, byte for byte.
* :mod:`repro.traffic.driver` — the open-loop driver: builds a distinct
  workload population, replays the schedule against a gateway in
  bounded concurrency windows, collects latency/shed/queue statistics
  into a :class:`TrafficReport`, verifies byte-identity of served
  strategies against a serial :class:`~repro.serve.StrategyService`,
  and writes the checked-in ``BENCH_serve.json``.

Run it from the shell::

    python -m repro.serve bench-traffic --requests 1000000
"""

from repro.traffic.driver import (
    TrafficConfig,
    TrafficReport,
    build_workload_population,
    drive_traffic,
    run_bench,
)
from repro.traffic.patterns import (
    TrafficSchedule,
    build_schedule,
    diurnal_multiplier,
    zipf_weights,
)

__all__ = [
    "TrafficConfig",
    "TrafficReport",
    "TrafficSchedule",
    "build_schedule",
    "build_workload_population",
    "diurnal_multiplier",
    "drive_traffic",
    "run_bench",
    "zipf_weights",
]
