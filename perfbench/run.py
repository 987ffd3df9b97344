"""The repository benchmark.

    python3 perfbench/run.py --workload strategy-cold --seed 0 --seconds 24 --trace 0

Run from the repository root.  The workload runs in a fresh interpreter
(``child.py``) against ``src/``; this process waits for it and for every
process it started, checks its result against ``BENCHMARK.json`` and
prints a readable report followed, as the last line, by one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
run and writes its spans as JSON lines under ``perfbench/out/``.  The
exit code is non-zero when an output check fails or the run breaks.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("strategy-cold", "serve-mixed", "fleet-churn")
#: Time a workload may take beyond ``--seconds`` (set-up, closing
#: requests, output checks).
CHILD_GRACE_S = 120.0
#: Time descendants (e.g. a shared-memory resource tracker) get to exit
#: after the workload process has.
REAP_S = 10.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def reap_group(pgid: int) -> None:
    """Wait for every process left in the workload's process group."""
    deadline = time.monotonic() + REAP_S
    signalled = False
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            if signalled:
                return
            os.killpg(pgid, signal.SIGKILL)
            signalled = True
            deadline = time.monotonic() + 1.0
        time.sleep(0.05)


def run_child(root: Path, args, result_path: Path, spans_path: Path) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable,
        str(HERE / "child.py"),
        args.workload,
        str(args.seed),
        str(args.seconds),
        str(args.trace),
        str(result_path),
        str(spans_path),
    ]
    # A session of its own, so the workload and anything it starts can
    # be waited for (and killed on a timeout) as one group.
    proc = subprocess.Popen(
        command, cwd=root, env=env, stdout=sys.stderr, start_new_session=True
    )
    try:
        code = proc.wait(timeout=args.seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = -signal.SIGKILL
        print(f"error: {args.workload} timed out", file=sys.stderr)
    finally:
        reap_group(proc.pid)
    return code


def unit_of(name: str) -> str:
    """Unit of a detail figure, read off its name's suffix."""
    for suffix, unit in (
        ("_us", "us"),
        ("_ms", "ms"),
        ("_rps", "1/s"),
        ("_per_s", "1/s"),
        ("_pct", "%"),
        ("_s", "s"),
    ):
        if name.endswith(suffix):
            return unit
    return ""


def report(args, result: dict, metrics: dict) -> None:
    meta = result["meta"]
    print(
        f"# {args.workload} seed {args.seed} seconds {args.seconds} "
        f"trace {args.trace} | nproc {meta['nproc']} python {meta['python']} "
        f"numpy {meta['numpy']}"
    )
    for name, value in result["detail"].items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {name:<34} {shown} {unit_of(name)}")
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:.6g} {metric['unit']}")
    print(f"  attempted {result['attempted']} failed {result['failed']}")
    for line in result["check_failures"]:
        print(f"  CHECK FAILED: {line}")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir() or not (root / "BENCHMARK.json").is_file():
        print(
            "error: run from the repository root (needs src/repro and "
            "BENCHMARK.json)",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = out / f"{stem}.json"
    spans_path = out / f"{args.workload}-seed{args.seed}.spans.jsonl"
    result_path.unlink(missing_ok=True)

    code = run_child(root, args, result_path, spans_path)
    if code != 0 or not result_path.is_file():
        print(f"error: {args.workload} exited with {code}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text(encoding="utf-8"))

    kind = "per_layer" if args.trace else "end_to_end"
    values = result[kind]
    metrics = {}
    for entry in spec[kind]:
        name = entry["name"]
        if name not in values and kind == "end_to_end":
            result["check_failures"].append(f"metric {name} was not measured")
            continue
        # A layer the workload never calls reports zero work.
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": entry["unit"]}
    correct = not result["check_failures"]
    report(args, result, metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
