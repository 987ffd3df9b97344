"""Benchmark: vectorized fleet scaling with hierarchical collectives.

The acceptance bar for the fleet layer at scale: reclamation still
saves fleet energy at zero step-time regression at hundreds of devices,
the hierarchical collective never loses to the flat ring, churn replays
are bit-identical, and the vectorized barrier step sustains a real step
rate at thousands of devices.  That the stacked-array simulator
reproduces the looped cluster to <= 1e-9 (durations bitwise, plans
byte-identical) is a unit test, ``tests/test_fleet_equivalence.py``,
since the looped reference ships only with the tests.
"""

from repro.experiments import run_experiment


def test_bench_ext_fleet_scale(run_once):
    result = run_once(
        run_experiment, "ext_fleet_scale", scale=0.02,
        devices=256, scaling_sizes=(64, 256, 1024),
    )
    measured = result.measured
    # Energy: fleet savings at zero step-time regression, at scale.
    assert measured["soc_energy_savings"] > 0.0
    assert measured["step_time_regression"] <= 0.005
    # Collectives: hierarchical never slower than the flat ring, and
    # exactly the ring law inside one rack.
    assert measured["hierarchical_not_slower"]
    assert measured["single_rack_exact_ring"]
    # Elasticity: seeded churn replays bit-identically.
    assert measured["churn_events"] >= 1
    assert measured["churn_replay_identical"]
    # Throughput: the vectorized step sustains a real rate at the
    # largest scaling size (the 10k-device point lives in
    # BENCH_fleet.json with a 50 steps/s floor in CI).
    assert measured["scaling_min_steps_per_s"] > 50.0
