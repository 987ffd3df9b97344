"""Fleet <-> cluster equivalence: the vectorization must not change physics.

The fleet stacks every device's compiled affine solution into arrays;
the looped :class:`~tests.reference.simulator.SimulatedCluster` runs each
device through the full engine.  Both must agree — per-device arrivals
bitwise, energies and temperatures to <= 1e-9 (in practice ~1e-15,
summation association only), reclaimed plans byte-identical — across
fleet sizes, seeds, margins and explicit degradations.  This is the
acceptance bar of the ``repro.fleet`` subsystem; everything else in the
fleet package builds on the comparison passing here.
"""

import pytest

from repro.fleet.spec import FleetSpec
from repro.workloads import generate
from tests.reference.compare import (
    EQUIVALENCE_TOLERANCE,
    compare_with_cluster,
)


@pytest.fixture(scope="module")
def tiny_trace():
    return generate("gpt3", scale=0.01)


@pytest.mark.parametrize(
    ("n_devices", "seed"),
    [(1, 0), (2, 0), (2, 1), (8, 0), (8, 3), (16, 0), (16, 7)],
)
def test_fleet_matches_cluster(tiny_trace, n_devices, seed):
    comparison = compare_with_cluster(
        FleetSpec(n_devices=n_devices, seed=seed), tiny_trace
    )
    assert comparison.plans_byte_identical
    assert comparison.overruns_equal
    # Durations flow through the identical closed-form scan: bitwise.
    assert comparison.max_rel_duration == 0.0
    assert comparison.max_rel_err <= EQUIVALENCE_TOLERANCE
    assert comparison.ok()


def test_fleet_matches_cluster_with_slack_margin(tiny_trace):
    comparison = compare_with_cluster(
        FleetSpec(n_devices=8, seed=0), tiny_trace, slack_margin=0.02
    )
    assert comparison.plans_byte_identical
    assert comparison.ok()


def test_fleet_matches_cluster_under_degradation(tiny_trace):
    spec = FleetSpec(n_devices=8, seed=0).with_degraded_device(
        3, 1.3, reason="equivalence degradation"
    )
    comparison = compare_with_cluster(spec, tiny_trace)
    assert comparison.plans_byte_identical
    assert comparison.max_rel_duration == 0.0
    assert comparison.ok()


def test_fleet_matches_cluster_on_three_steps(tiny_trace):
    """Thermal state carried across more steps stays within the bar."""
    comparison = compare_with_cluster(
        FleetSpec(n_devices=4, seed=2), tiny_trace, steps=3
    )
    assert comparison.ok()


def test_fleet_matches_cluster_at_bench_config():
    """The gate ``fleet bench`` and ``ext_fleet_scale`` used to run.

    gpt3 at scale 0.02, 8 devices, seed 0, a 64 MiB gradient, 2 steps,
    no slack margin: durations bitwise, plans byte-identical, equal
    overruns and every other observable within 1e-9.
    """
    comparison = compare_with_cluster(
        FleetSpec(n_devices=8, gradient_bytes=64 * 2**20, seed=0),
        generate("gpt3", scale=0.02),
        steps=2,
        slack_margin=0.0,
    )
    assert comparison.plans_byte_identical
    assert comparison.overruns_equal
    assert comparison.max_rel_duration == 0.0
    assert comparison.max_rel_err <= EQUIVALENCE_TOLERANCE
