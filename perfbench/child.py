"""One workload in a fresh interpreter: ``child.py WORKLOAD SEED SECONDS
TRACE RESULT_JSON SPANS_JSONL``.

Started by ``run.py``, so process-global state of one workload (the
compiled-trace cache, calibration, store files) never warms another,
and ``setup_s`` and ``peak_rss_mb`` are this process's own.
"""

import time

_STARTED = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

MODULES = {
    "strategy-cold": "strategy_cold",
    "serve-mixed": "serve_mixed",
    "fleet-churn": "fleet_churn",
}


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, result_path, spans_path = argv
    # Importing the workload imports numpy and the repro package; that
    # cost is part of set-up.
    module = importlib.import_module(MODULES[workload])
    from bench_common import peak_rss_mb

    import_s = time.perf_counter() - _STARTED
    result = module.run(
        int(seed), float(seconds), trace == "1", import_s, Path(spans_path)
    )
    # The shared-memory hot tier starts multiprocessing's resource
    # tracker; stop (and reap) it here so no process outlives this one.
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    # Every worker has been joined by now, so the peak counts them.
    if result.end_to_end:
        result.end_to_end["peak_rss_mb"] = peak_rss_mb()
    Path(result_path).write_text(json.dumps(result.to_dict()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
