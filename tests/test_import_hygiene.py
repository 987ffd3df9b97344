"""Production paths import no ``scipy``.

The deployed model (Func. 2, and the stacked ``BATCH_FITTERS``) is closed
form, so only the scalar Func. 1 / Func. 3 fitters of the Sect. 4.3
experiments load ``scipy.optimize``, on first call.  Both checks run in a
fresh interpreter: other tests in this process import scipy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def _run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON line last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
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
    return json.loads(done.stdout.strip().splitlines()[-1])


DEFAULT_PATHS = """
import json, sys
import repro, repro.core, repro.serve, repro.fleet
from repro.core import EnergyOptimizer
from repro.fleet import FleetSimulator, FleetSpec, reclaim_fleet_slack
from repro.workloads import generate

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

after_import = scipy_modules()
report = EnergyOptimizer().optimize(generate("bert", scale=0.1))
after_optimize = scipy_modules()
sim = FleetSimulator(FleetSpec(n_devices=16), generate("gpt3", scale=0.02))
plan = reclaim_fleet_slack(sim)
step = sim.step(plan, target_compute_us=plan.target_compute_us)
after_fleet = scipy_modules()

from repro.perf import fit_func1
fit = fit_func1([1000.0, 1400.0, 1800.0], [30.0, 25.0, 22.0])
print(json.dumps({
    "after_import": after_import,
    "after_optimize": after_optimize,
    "after_fleet": after_fleet,
    "devices": step.n_devices,
    "optimize_after_fit": "scipy.optimize" in sys.modules,
    "params": fit.params,
}))
"""


def test_default_paths_load_no_scipy():
    result = _run_fresh(DEFAULT_PATHS)
    assert result["after_import"] == []
    assert result["after_optimize"] == []
    assert result["devices"] == 16
    assert result["after_fleet"] == []
    # The scalar Func. 1 fitter still loads curve_fit on demand.
    assert result["optimize_after_fit"]
    assert len(result["params"]) == 3


SEC43_PROBE = """
import json, sys
import repro.experiments.sec43_fitting_cost as sec43

inner = sec43.fit_func1
loaded = []

def recording_fit_func1(freqs, times):
    loaded.append("scipy.optimize" in sys.modules)
    return inner(freqs, times)

sec43.fit_func1 = recording_fit_func1
result = sec43.run(scale=0.02, seed=0)
print(json.dumps({
    "loaded": loaded,
    "operators": result.measured["operators"],
}))
"""


def test_sec43_times_func1_with_scipy_loaded():
    result = _run_fresh(SEC43_PROBE)
    loaded, operators = result["loaded"], result["operators"]
    assert operators > 0
    # One untimed warm-up call, then one timed call per operator.
    assert len(loaded) == operators + 1
    # The fresh interpreter had not loaded scipy before the warm-up ...
    assert loaded[0] is False
    # ... and every timed call, the first included, finds it loaded.
    assert all(loaded[1:])
