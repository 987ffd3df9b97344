"""The fleet objective's exact optimum against brute force.

:func:`repro.fleet.dvfs.optimal_fleet_plan` scores a pruned set of
candidate barriers.  These tests pin it to the test-only
:class:`~tests.oracles.FleetObjectiveScorer`: to the enumeration of
every ``F ** devices`` assignment on small fleets (healthy, degraded and
churned, on real traces and on random tables), and to the unpruned
barrier enumeration at 64 devices.  Reclaim's plan never outscores the
optimum, and one fleet where the optimum strictly beats it is pinned as
a finding.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fleet import (
    ChurnConfig,
    FleetSimulator,
    FleetSpec,
    fleet_plan_score,
    optimal_fleet_plan,
    reclaim_fleet_slack,
)
from repro.workloads import generate
from tests.oracles import FleetObjectiveScorer

LOSS_TARGETS = (0.0, 0.005, 0.05)


class TableSim:
    """The part of a ``FleetSimulator`` the fleet objective reads.

    Serves given ``(capacity, F)`` duration and compute-energy tables,
    per-point idle powers and an all-reduce time.
    """

    def __init__(self, durations, soc_energy, idle_w, allreduce_us, active):
        freqs = tuple(1000.0 + 100.0 * j for j in range(durations.shape[1]))
        by_freq = np.ascontiguousarray(durations.T)
        by_freq.flags.writeable = False
        self._table = by_freq.T
        self._solutions = {
            f: SimpleNamespace(
                e0_soc_j=soc_energy[:, j], idle_soc_w0=float(idle_w[j])
            )
            for j, f in enumerate(freqs)
        }
        self._collective = SimpleNamespace(chosen_us=float(allreduce_us))
        self.active_ids = np.flatnonzero(active)
        self.trace = SimpleNamespace(name="table")
        self.spec = SimpleNamespace(
            capacity=durations.shape[0],
            npu=SimpleNamespace(frequencies=SimpleNamespace(points=freqs)),
        )

    def duration_table(self):
        return self._table

    def solution(self, freq_mhz):
        return self._solutions[freq_mhz]

    def collective_cost(self):
        return self._collective


def assert_exact(sim, loss: float, exhaustive: bool = True) -> float:
    """The optimum's score equals the oracle's best; returns it."""
    plan = optimal_fleet_plan(sim, loss)
    scorer = FleetObjectiveScorer(sim, loss)
    genes = scorer.plan_genes(plan)
    got = float(scorer.score(genes)[0])
    best = (
        scorer.enumerated_best() if exhaustive else scorer.every_barrier_best()
    )
    assert got == pytest.approx(best, rel=1e-12, abs=0.0)
    assert fleet_plan_score(sim, plan, loss) == (
        pytest.approx(got, rel=1e-12, abs=0.0),
        bool(scorer.feasible(genes)[0]),
    )
    # The plan covers exactly the active devices and waits for the
    # slowest of them.
    act = sim.active_ids
    capacity = sim.spec.capacity
    assert np.array_equal(np.flatnonzero(plan.covered), act)
    inactive = np.setdiff1d(np.arange(capacity), act)
    assert (plan.freq_index[inactive] == len(plan.freqs_mhz) - 1).all()
    table = sim.duration_table()
    assert np.array_equal(
        plan.predicted_us, table[np.arange(capacity), plan.freq_index]
    )
    assert plan.target_compute_us == plan.predicted_us[act].max()
    assert plan.straggler_id in act
    return got


def reclaim_score(sim, loss: float) -> float:
    scorer = FleetObjectiveScorer(sim, loss)
    genes = scorer.plan_genes(reclaim_fleet_slack(sim))
    return float(scorer.score(genes)[0])


@pytest.fixture(scope="module")
def traces():
    return {
        name: generate(name, scale=0.02, seed=0)
        for name in ("gpt3", "resnet50")
    }


def small_fleet(trace, kind: str, seed: int) -> FleetSimulator:
    """A fleet of at most four active devices."""
    if kind == "healthy":
        return FleetSimulator(FleetSpec(n_devices=4, seed=seed), trace)
    if kind == "degraded":
        spec = FleetSpec(n_devices=4, seed=seed)
        return FleetSimulator(spec.with_degraded_device(1, 1.15), trace)
    churn = ChurnConfig(
        join_rate=0.6, leave_rate=0.6, fail_rate=0.3, max_joins=1
    )
    sim = FleetSimulator(
        FleetSpec(n_devices=3, seed=seed, churn=churn), trace
    )
    sim.run_steps(None, steps=4)
    return sim


class TestExactOptimum:
    @pytest.mark.parametrize("loss", LOSS_TARGETS)
    @pytest.mark.parametrize("kind", ("healthy", "degraded", "churned"))
    @pytest.mark.parametrize("workload", ("gpt3", "resnet50"))
    def test_matches_full_enumeration(self, traces, workload, kind, loss):
        for seed in (0, 1):
            sim = small_fleet(traces[workload], kind, seed)
            if kind == "churned":
                assert sim.events
            assert 1 <= sim.n_active <= 4
            best = assert_exact(sim, loss)
            assert reclaim_score(sim, loss) <= best

    @pytest.mark.parametrize("loss", LOSS_TARGETS)
    @pytest.mark.parametrize("workload", ("gpt3", "resnet50"))
    def test_matches_every_barrier_at_64_devices(self, traces, workload, loss):
        sim = FleetSimulator(FleetSpec(n_devices=64, seed=0), traces[workload])
        best = assert_exact(sim, loss, exhaustive=False)
        assert reclaim_score(sim, loss) <= best

    def test_optimum_strictly_beats_reclaim(self, traces):
        """Finding: reclaim is not always the objective's optimum.

        On this fleet a 0.5% loss target lets the optimum stretch past
        reclaim's barrier and downclock further, scoring 2.054925 against
        reclaim's 2.048463.
        """
        sim = FleetSimulator(FleetSpec(n_devices=4, seed=0), traces["resnet50"])
        best = assert_exact(sim, 0.005)
        reclaimed = reclaim_score(sim, 0.005)
        assert best == pytest.approx(2.054925, abs=5e-6)
        assert reclaimed == pytest.approx(2.048463, abs=5e-6)
        assert best > reclaimed

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_devices=st.integers(1, 4),
        n_freqs=st.integers(1, 5),
        spare=st.integers(0, 2),
        loss=st.sampled_from((0.0, 0.005, 0.02, 0.05)),
    )
    def test_random_tables_match_full_enumeration(
        self, seed, n_devices, n_freqs, spare, loss
    ):
        """Ties, non-monotone rows, inactive boards and wide energy gaps."""
        rng = np.random.default_rng(seed)
        capacity = n_devices + spare
        durations = rng.integers(8, 14, size=(capacity, n_freqs)).astype(float)
        soc_energy = rng.choice([0.05, 0.5, 1.0, 3.0], size=(capacity, n_freqs))
        idle_w = rng.uniform(0.0, 2e5, size=n_freqs)
        active = np.zeros(capacity, dtype=bool)
        active[rng.choice(capacity, size=n_devices, replace=False)] = True
        sim = TableSim(durations, soc_energy, idle_w, rng.uniform(0, 3), active)
        assert_exact(sim, loss)

    def test_infeasible_barrier_wins_when_the_bound_allows(self):
        """A step past the limit loses the 2x bonus but can still win.

        The slow point costs 1/1000 of the fast one's energy, so the
        infeasible plan outscores the feasible all-max baseline.
        """
        sim = TableSim(
            durations=np.array([[10.0, 1.0]]),
            soc_energy=np.array([[0.001, 1.0]]),
            idle_w=np.zeros(2),
            allreduce_us=0.0,
            active=np.array([True]),
        )
        plan = optimal_fleet_plan(sim, 0.0)
        assert tuple(plan.freq_index) == (0,)
        score, feasible = fleet_plan_score(sim, plan, 0.0)
        assert not feasible and score > 2.0
        assert_exact(sim, 0.0)

    def test_ties_go_to_the_lowest_grid_point(self):
        """Every assignment scores the same; the lowest points win."""
        sim = TableSim(
            durations=np.array([[10.0, 10.0, 10.0], [4.0, 6.0, 8.0]]),
            soc_energy=np.ones((2, 3)),
            idle_w=np.zeros(3),
            allreduce_us=1.0,
            active=np.array([True, True]),
        )
        plan = optimal_fleet_plan(sim, 0.0)
        assert tuple(plan.freq_index) == (0, 0)
        assert plan.target_compute_us == 10.0
        assert plan.straggler_id == 0

    def test_rejects_bad_inputs(self, traces):
        sim = FleetSimulator(FleetSpec(n_devices=2, seed=0), traces["gpt3"])
        for loss in (-0.01, 1.0):
            with pytest.raises(ConfigurationError):
                optimal_fleet_plan(sim, loss)
        empty = TableSim(
            np.ones((2, 3)),
            np.ones((2, 3)),
            np.ones(3),
            0.0,
            np.zeros(2, dtype=bool),
        )
        with pytest.raises(ConfigurationError):
            optimal_fleet_plan(empty)
