"""Differential tests of the fleet's contiguous hot paths.

The reclaim makes row passes over the frequency-major duration table,
and a warm step updates a dense per-epoch temperature array in place.
Both are pinned byte for byte against their former forms in
:mod:`tests.oracles`: :func:`~tests.oracles.argmax_reclaim` (a boolean
``argmax`` along the rows of the ``(capacity, F)`` table) and
:func:`~tests.oracles.gather_scatter_step` (a gather and a scatter of
the capacity-wide thermal state on every step).
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import StrategyError
from repro.fleet import (
    ChurnConfig,
    FleetSimulator,
    FleetSpec,
    reclaim_fleet_slack,
)
from repro.fleet import dvfs as fleet_dvfs
from repro.fleet.simulator import MEMBERSHIP_KINDS
from repro.workloads import generate
from tests.oracles import (
    argmax_barrier_target,
    argmax_reclaim,
    gather_scatter_step,
)

PLAN_ARRAYS = ("freq_index", "freq_mhz", "predicted_us", "covered")

#: Every per-device array a step result carries, ``delta0`` included.
STEP_ARRAYS = (
    "device_ids",
    "arrival_us",
    "wait_us",
    "freq_mhz",
    "delta0",
    "aicore_energy_j",
    "soc_energy_j",
    "idle_aicore_energy_j",
    "idle_soc_energy_j",
    "end_celsius",
)


@pytest.fixture(scope="module")
def tiny_trace():
    return generate("gpt3", scale=0.01)


def churned_spec(n_devices: int, seed: int) -> FleetSpec:
    return FleetSpec(
        n_devices=n_devices,
        seed=seed,
        churn=ChurnConfig(
            join_rate=0.3, leave_rate=0.2, fail_rate=0.1, max_joins=4
        ),
    )


class TableFleet:
    """The part of a ``FleetSimulator`` the reclaim reads, over any table.

    Stores the table frequency-major and hands out its transposed view,
    as the simulator does.
    """

    def __init__(self, table: np.ndarray, active: np.ndarray, freqs):
        by_freq = np.ascontiguousarray(table.T)
        by_freq.flags.writeable = False
        self._table = by_freq.T
        self.active_ids = np.flatnonzero(active)
        self.spec = SimpleNamespace(
            capacity=table.shape[0],
            npu=SimpleNamespace(frequencies=SimpleNamespace(points=freqs)),
        )
        self.trace = SimpleNamespace(name="random-table")

    def duration_table(self) -> np.ndarray:
        return self._table


def random_fleet(rng, n_freqs: int, slack_margin: float) -> TableFleet:
    """Non-monotone rows on a coarse value lattice, ties at the target.

    Inactive rows sit far above any target (they would be infeasible
    if the reclaim looked at them), and some active cells are set to
    exactly the barrier target.
    """
    capacity = int(rng.integers(1, 120))
    freqs = tuple(1000.0 + 10.0 * j for j in range(n_freqs))
    table = rng.integers(1, 12, size=(capacity, n_freqs)) * 100.0
    active = rng.random(capacity) < 0.7
    active[rng.integers(capacity)] = True
    inactive = np.flatnonzero(~active)
    table[inactive[rng.random(inactive.size) < 0.5]] = 1e12
    act = np.flatnonzero(active)
    target = float(table[act, -1].max()) * (1.0 + slack_margin)
    # Exact ties with the target, off the last column (a tie there
    # cannot move the straggler's arrival, but keep the max untouched).
    if n_freqs > 1:
        rows = rng.choice(act, size=max(1, act.size // 3))
        cols = rng.integers(0, n_freqs - 1, size=rows.size)
        table[rows, cols] = target
    return TableFleet(table, active, freqs)


def assert_plans_identical(got, ref):
    for name in PLAN_ARRAYS:
        x, y = getattr(got, name), getattr(ref, name)
        assert x.dtype == y.dtype, name
        assert x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
    assert got.target_compute_us == ref.target_compute_us
    assert got.straggler_id == ref.straggler_id
    assert got.freqs_mhz == ref.freqs_mhz
    assert got.workload == ref.workload


class TestReclaimOracle:
    @pytest.mark.parametrize("n_freqs", [1, 2, 9, 300])
    @pytest.mark.parametrize("slack_margin", [0.0, 0.05])
    def test_random_tables(self, n_freqs, slack_margin):
        rng = np.random.default_rng([n_freqs, int(slack_margin * 100)])
        for _ in range(40):
            fleet = random_fleet(rng, n_freqs, slack_margin)
            got = reclaim_fleet_slack(fleet, slack_margin)
            target, straggler = argmax_barrier_target(fleet, slack_margin)
            assert fleet_dvfs.barrier_target(fleet, slack_margin) == (
                target,
                straggler,
            )
            ref = argmax_reclaim(fleet, target, straggler)
            assert_plans_identical(got, ref)

    def test_ties_at_the_target_take_the_lowest_point(self):
        """A cell exactly at the barrier meets it, in both forms."""
        table = np.array(
            [
                [5.0, 4.0, 3.0],  # the straggler: target 3.0
                [9.0, 3.0, 1.0],  # non-monotone, tie at point 1
                [3.0, 8.0, 2.0],  # tie at point 0, then a miss
            ]
        )
        fleet = TableFleet(table, np.ones(3, dtype=bool), (1.0, 2.0, 3.0))
        got = reclaim_fleet_slack(fleet)
        assert got.freq_index.tolist() == [2, 1, 0]
        assert_plans_identical(got, argmax_reclaim(fleet, 3.0, 0))

    @pytest.mark.parametrize("n_freqs", [1, 2, 9, 300])
    def test_active_infeasible_device_raises_the_same_error(
        self, n_freqs, monkeypatch
    ):
        """A stale barrier below a device's fastest arrival names it."""
        rng = np.random.default_rng(n_freqs)
        fleet = random_fleet(rng, n_freqs, 0.0)
        act = fleet.active_ids
        by_device = fleet.duration_table()
        fastest = by_device[act].min(axis=1)
        # Below every active device's best arrival but one: the first
        # device over it is the one both forms must name.
        stale = float(np.sort(fastest)[-1]) - 1.0
        straggler = int(act[0])
        monkeypatch.setattr(
            fleet_dvfs,
            "barrier_target",
            lambda sim, slack_margin=0.0: (stale, straggler),
        )
        with pytest.raises(StrategyError) as got:
            reclaim_fleet_slack(fleet)
        with pytest.raises(StrategyError) as ref:
            argmax_reclaim(fleet, stale, straggler)
        assert str(got.value) == str(ref.value)
        first = int(act[int(np.argmax(fastest > stale))])
        assert str(got.value).startswith(f"device {first} cannot reach")

    @pytest.mark.parametrize("slack_margin", [0.0, 0.03])
    @pytest.mark.parametrize("n_devices, seed", [(64, 3), (300, 7)])
    def test_churned_fleet_replans(
        self, tiny_trace, n_devices, seed, slack_margin
    ):
        """Every churn-driven replan equals the oracle's plan."""
        sim = FleetSimulator(churned_spec(n_devices, seed), tiny_trace)
        checked = []

        def replan(fleet):
            plan = reclaim_fleet_slack(fleet, slack_margin)
            target, straggler = argmax_barrier_target(fleet, slack_margin)
            assert_plans_identical(
                plan, argmax_reclaim(fleet, target, straggler)
            )
            checked.append(fleet.n_active)
            return plan

        plan = replan(sim)
        sim.run_steps(plan, 16, plan.target_compute_us, replan=replan)
        assert len(checked) > 2
        assert any(e.kind in MEMBERSHIP_KINDS for e in sim.events)


def assert_results_identical(x, y):
    for name in STEP_ARRAYS:
        a, b = getattr(x, name), getattr(y, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert x.compute_us == y.compute_us
    assert x.collective == y.collective
    assert x.straggler_id == y.straggler_id
    assert x.overrun_count == y.overrun_count
    assert x.overrun_device_ids == y.overrun_device_ids
    assert x.events == y.events


class TestLiveThermalState:
    """The epoch-resident temperatures against a gather/scatter step."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_interleaving(self, tiny_trace, seed):
        spec = FleetSpec(
            n_devices=24,
            seed=seed,
            churn=ChurnConfig(
                join_rate=0.6, leave_rate=0.5, fail_rate=0.3, max_joins=6
            ),
        )
        # ``watched`` has its temperatures read after every operation;
        # ``quiet`` only at the explicit reads, so its live array is
        # written back by epoch misses alone.
        watched = FleetSimulator(spec, tiny_trace)
        quiet = FleetSimulator(spec, tiny_trace)
        oracle = FleetSimulator(spec, tiny_trace)
        rng = np.random.default_rng(seed)
        plans = {"none": None}
        plan_key = "none"
        churn_step = 0
        ops = rng.choice(
            ["step"] * 6 + ["churn", "reset", "read", "swap", "replan"],
            size=150,
        )
        seen = set()
        for op in ops:
            if op == "churn":
                churn_step += 1
                events = [
                    sim.advance_churn(churn_step)
                    for sim in (watched, quiet, oracle)
                ]
                assert events[0] == events[1] == events[2]
                if any(e.kind in MEMBERSHIP_KINDS for e in events[0]):
                    seen.add("membership")
            elif op == "reset":
                for sim in (watched, quiet, oracle):
                    sim.reset()
            elif op == "read":
                assert quiet.celsius.tobytes() == oracle.celsius.tobytes()
            elif op == "replan":
                # A new plan object on the current membership.
                plan_key = f"plan{len(plans)}"
                plans[plan_key] = reclaim_fleet_slack(watched)
            elif op == "swap":
                # Same membership, any kept plan or none: an epoch miss
                # unless it draws the current one.
                plan_key = str(rng.choice(sorted(plans)))
            else:
                plan = plans[plan_key]
                target = None if plan is None else plan.target_compute_us
                got = watched.step(plan, target)
                other = quiet.step(plan, target)
                ref = gather_scatter_step(oracle, plan, target)
                assert_results_identical(got, ref)
                assert_results_identical(other, ref)
                seen.add("baseline" if plan is None else "planned")
            seen.add(op)
            assert watched.celsius.tobytes() == oracle.celsius.tobytes()
        assert quiet.celsius.tobytes() == oracle.celsius.tobytes()
        assert {
            "membership", "reset", "read", "swap", "baseline", "planned"
        } <= seen

    def test_read_keeps_the_epoch_warm(self, tiny_trace):
        sim = FleetSimulator(FleetSpec(n_devices=8, seed=0), tiny_trace)
        first = sim.step()
        before = sim.celsius
        second = sim.step()
        assert second.epoch is first.epoch
        assert np.array_equal(
            second.delta0, before[second.device_ids] - first.epoch.ambient
        )
