"""Tests for the guarded, self-healing DVFS runtime (`repro.dvfs.guard`)."""

import pytest

from repro.dvfs import (
    DvfsExecutor,
    DvfsStrategy,
    GuardConfig,
    GuardedDvfsExecutor,
    GuardedFrequencyPlan,
    StageKind,
    StagePlan,
)
from repro.dvfs.guard import Incident, IncidentLog
from repro.errors import ConfigurationError, SetFreqTimeoutError
from repro.npu import FaultConfig, FaultInjector, NpuDevice
from repro.npu.engine import reference_only
from repro.npu.faults import FaultyFrequencyPlan
from repro.npu.setfreq import AnchoredFrequencyPlan, AnchoredSwitch
from repro.workloads import build_trace
from tests.conftest import make_compute_op
from tests.oracles import ObjectCheckGuard


def make_trace(n=8, name="w", core_cycles=300_000.0):
    ops = [
        make_compute_op(name=f"{name}.op{i}", core_cycles=core_cycles)
        for i in range(n)
    ]
    return build_trace(name, ops)


def make_strategy(loss_target=0.5, name="w"):
    """HFC -> LFC dip at op 2 -> HFC recovery at op 5."""
    plans = (
        StagePlan(0.0, 400.0, 1800.0, StageKind.HFC, 0),
        StagePlan(400.0, 600.0, 1000.0, StageKind.LFC, 2),
        StagePlan(1000.0, 600.0, 1800.0, StageKind.HFC, 5),
    )
    return DvfsStrategy(name, loss_target, plans)


def fast_guard(**overrides):
    """Backoffs short enough that retries resolve inside a small trace."""
    settings = dict(
        max_retries=2,
        backoff_base_us=20.0,
        backoff_cap_us=100.0,
        readback_grace_us=10.0,
    )
    settings.update(overrides)
    return GuardConfig(**settings)


def injector_for(config, seed=7, stream="faults"):
    return FaultInjector.from_seed(config, seed, stream=stream)


def drive(plan, limit=200):
    """Walk the plan the way the device does, boundary by boundary."""
    t = 0.0
    plan.frequency_at(t)
    for _ in range(limit):
        nxt = plan.next_switch_after(t)
        if nxt is None:
            break
        t = nxt.time_us
        plan.frequency_at(t)
    return t


class TestGuardConfig:
    def test_backoff_doubles_and_caps(self):
        config = GuardConfig(backoff_base_us=500.0, backoff_cap_us=8_000.0)
        assert config.backoff_us(0) == 500.0
        assert config.backoff_us(1) == 1_000.0
        assert config.backoff_us(2) == 2_000.0
        assert config.backoff_us(10) == 8_000.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_base_us": 0.0},
            {"backoff_base_us": 100.0, "backoff_cap_us": 50.0},
            {"readback_grace_us": -1.0},
            {"loss_margin": -0.01},
            {"throttle_celsius": 0.0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            GuardConfig(**kwargs)


class TestIncidentLog:
    def test_record_and_counts(self):
        log = IncidentLog()
        log.record("setfreq_retry", time_us=10.0, op_index=2, attempt=1)
        log.record("setfreq_retry", time_us=20.0, op_index=2, attempt=2)
        log.record("baseline_revert", detail="gave up")
        assert len(log) == 3
        assert log.counts_by_kind() == {
            "setfreq_retry": 2,
            "baseline_revert": 1,
        }
        rows = log.to_rows()
        assert rows[0]["attempt"] == 1
        assert rows[2]["kind"] == "baseline_revert"
        log.clear()
        assert len(log) == 0

    def test_incident_row_blanks_missing_fields(self):
        row = Incident(kind="throttle_detected").to_row()
        assert row["time_us"] == ""
        assert row["op_index"] == ""


class TestGuardedPlanOnline:
    def _guarded(self, config=None, fault=None, seed=7,
                 revert_latency_us=100.0):
        config = config or fast_guard()
        anchors = {0: 1000.0}
        injector = None
        if fault is not None and fault.setfreq_active:
            injector = injector_for(fault, seed)
            inner = FaultyFrequencyPlan(
                1800.0,
                [AnchoredSwitch(i, f) for i, f in anchors.items()],
                injector,
            )
        else:
            inner = AnchoredFrequencyPlan(
                1800.0, [AnchoredSwitch(i, f) for i, f in anchors.items()]
            )
            if fault is not None:
                injector = injector_for(fault, seed)
        log = IncidentLog()
        plan = GuardedFrequencyPlan(
            inner=inner,
            anchors=anchors,
            baseline_mhz=1800.0,
            extra_delay_us=0.0,
            revert_latency_us=revert_latency_us,
            config=config,
            log=log,
            injector=injector,
        )
        return plan, log

    def test_healthy_change_verifies_silently(self):
        plan, log = self._guarded()
        plan.on_op_start(0, 0.0)
        assert plan.frequency_at(0.0) == 1000.0
        drive(plan)
        assert len(log) == 0
        assert not plan.fallback_engaged

    def test_dropped_change_retries_then_reverts(self):
        plan, log = self._guarded(fault=FaultConfig(setfreq_drop_rate=1.0))
        plan.on_op_start(0, 0.0)
        drive(plan)
        assert plan.fallback_engaged
        counts = log.counts_by_kind()
        assert counts["setfreq_unverified"] == 3  # initial + 2 retries
        assert counts["setfreq_retry"] == 2
        assert counts["baseline_revert"] == 1
        # After the revert the plan pins the baseline frequency.
        assert plan.frequency_at(1e9) == 1800.0

    def test_fallback_waits_one_revert_latency(self):
        plan, log = self._guarded(
            fault=FaultConfig(setfreq_drop_rate=1.0), revert_latency_us=500.0
        )
        plan.on_op_start(0, 0.0)
        drive(plan)
        revert = next(
            i for i in log.incidents if i.kind == "baseline_revert"
        )
        # The revert is itself a SetFreq: it lands one controller latency
        # after the decision, not instantaneously.
        boundary = plan.next_switch_after(revert.time_us)
        assert boundary is not None
        assert boundary.time_us == pytest.approx(revert.time_us + 500.0)
        assert boundary.freq_mhz == 1800.0

    def test_readback_dropout_counts_against_budget(self):
        # The true frequency is fine; only the verification channel is
        # down.  The guard cannot distinguish the two, so it retries and
        # eventually reverts (safe but conservative).
        plan, log = self._guarded(
            fault=FaultConfig(telemetry_dropout_rate=1.0)
        )
        plan.on_op_start(0, 0.0)
        drive(plan)
        assert plan.fallback_engaged
        counts = log.counts_by_kind()
        assert counts["readback_dropout"] == 3
        assert counts["baseline_revert"] == 1

    def test_raises_when_revert_disabled(self):
        plan, _ = self._guarded(
            config=fast_guard(revert_on_failure=False),
            fault=FaultConfig(setfreq_drop_rate=1.0),
        )
        plan.on_op_start(0, 0.0)
        with pytest.raises(SetFreqTimeoutError):
            drive(plan)

    def test_newer_anchor_supersedes_outstanding_watch(self):
        config = fast_guard()
        anchors = {0: 1000.0, 1: 1200.0}
        injector = injector_for(FaultConfig(setfreq_drop_rate=1.0))
        inner = FaultyFrequencyPlan(
            1800.0,
            [AnchoredSwitch(i, f) for i, f in anchors.items()],
            injector,
        )
        log = IncidentLog()
        plan = GuardedFrequencyPlan(
            inner=inner,
            anchors=anchors,
            baseline_mhz=1800.0,
            extra_delay_us=0.0,
            revert_latency_us=100.0,
            config=config,
            log=log,
            injector=injector,
        )
        plan.on_op_start(0, 0.0)
        plan.on_op_start(1, 5.0)  # before op 0's watch deadline
        drive(plan)
        # Every incident refers to the superseding change; the stale
        # op-0 verification was cancelled.
        assert {i.op_index for i in log.incidents} == {1}

    def test_reset_clears_state_but_keeps_log(self):
        plan, log = self._guarded(fault=FaultConfig(setfreq_drop_rate=1.0))
        plan.on_op_start(0, 0.0)
        drive(plan)
        assert plan.fallback_engaged
        recorded = len(log)
        assert recorded > 0
        plan.reset()
        assert not plan.fallback_engaged
        assert len(log) == recorded
        assert plan.frequency_at(0.0) == 1800.0

    def test_delegated_counters(self):
        plan, _ = self._guarded()
        assert plan.initial_mhz == 1800.0
        assert plan.switch_count == 1
        plan.on_op_start(0, 0.0)
        plan.frequency_at(0.0)
        assert plan.applied_switch_count == 1
        assert plan.dropped_switch_count == 0


class TestGuardedExecutorHealthy:
    def test_byte_identical_to_plain_executor(self, device):
        trace = make_trace()
        strategy = make_strategy()
        plain = DvfsExecutor(device)
        guarded = GuardedDvfsExecutor(plain)
        a = plain.execute_with_baseline(trace, strategy)
        b = guarded.execute_with_baseline(trace, strategy)
        assert b.result == a.result
        assert b.baseline == a.baseline
        assert b.incidents == ()
        assert not b.fell_back
        assert b.intervention_count == 0

    def test_healthy_compile_is_the_plain_plan(self, device):
        strategy = make_strategy()
        plain = DvfsExecutor(device)
        guarded = GuardedDvfsExecutor(plain)
        plan = guarded.compile(strategy)
        assert type(plan) is AnchoredFrequencyPlan

    def test_telemetry_only_faults_keep_plain_plan(self, device):
        # Telemetry faults corrupt instruments, not SetFreq; the control
        # plan stays unguarded (and the execution byte-identical).
        strategy = make_strategy()
        guarded = GuardedDvfsExecutor(
            DvfsExecutor(device),
            injector=injector_for(FaultConfig(telemetry_spike_rate=1.0)),
        )
        assert type(guarded.compile(strategy)) is AnchoredFrequencyPlan

    def test_setfreq_faults_compile_guarded_plan(self, device):
        strategy = make_strategy()
        guarded = GuardedDvfsExecutor(
            DvfsExecutor(device),
            injector=injector_for(FaultConfig(setfreq_drop_rate=1.0)),
        )
        plan = guarded.compile(strategy)
        assert isinstance(plan, GuardedFrequencyPlan)

    def test_validate_delegates(self, device):
        guarded = GuardedDvfsExecutor(DvfsExecutor(device))
        from repro.errors import StrategyError

        with pytest.raises(StrategyError):
            guarded.validate(make_trace(name="other"), make_strategy())


class TestGuardedExecutorFaulty:
    def _guarded(self, device, fault, seed=7, **config_overrides):
        return GuardedDvfsExecutor(
            DvfsExecutor(device),
            config=fast_guard(**config_overrides),
            injector=injector_for(fault, seed),
        )

    def test_dropped_setfreq_reverts_to_baseline(self, device):
        trace = make_trace()
        guarded = self._guarded(device, FaultConfig(setfreq_drop_rate=1.0))
        outcome = guarded.execute_with_baseline(trace, make_strategy())
        assert outcome.fell_back
        # The online fallback runs the remainder at the baseline
        # frequency: no savings, and a loss within the envelope.
        assert outcome.performance_loss == pytest.approx(0.0, abs=1e-3)
        assert outcome.aicore_power_reduction == pytest.approx(0.0, abs=0.01)
        kinds = {incident.kind for incident in outcome.incidents}
        assert "baseline_revert" in kinds
        assert guarded.incidents == outcome.incidents

    def test_revert_disabled_raises(self, device):
        trace = make_trace()
        guarded = self._guarded(
            device,
            FaultConfig(setfreq_drop_rate=1.0),
            revert_on_failure=False,
        )
        with pytest.raises(SetFreqTimeoutError):
            guarded.execute_with_baseline(trace, make_strategy())

    def test_ambient_step_triggers_throttle_revert(self, device):
        trace = make_trace()
        guarded = self._guarded(
            device,
            FaultConfig(ambient_step_rate=1.0, ambient_step_celsius=40.0),
        )
        outcome = guarded.execute_with_baseline(trace, make_strategy())
        kinds = {incident.kind for incident in outcome.incidents}
        assert "ambient_step" in kinds
        assert "throttle_detected" in kinds
        assert outcome.fell_back
        assert outcome.result == outcome.baseline

    def test_loss_violation_reverts(self, device):
        # A healthy control plane but an unmeetable target: the post-hoc
        # check catches the violation and replaces the run.
        trace = make_trace()
        strategy = make_strategy(loss_target=1e-6)
        guarded = GuardedDvfsExecutor(
            DvfsExecutor(device), config=fast_guard(loss_margin=0.0)
        )
        outcome = guarded.execute_with_baseline(trace, strategy)
        kinds = {incident.kind for incident in outcome.incidents}
        assert "loss_violation" in kinds
        assert outcome.fell_back
        assert outcome.performance_loss == pytest.approx(0.0)

    def test_loss_never_exceeds_envelope(self, device):
        trace = make_trace()
        strategy = make_strategy(loss_target=0.02)
        for rate in (0.2, 0.5, 1.0):
            guarded = self._guarded(device, FaultConfig.uniform(rate))
            outcome = guarded.execute_with_baseline(trace, strategy)
            limit = (
                strategy.performance_loss_target
                + guarded.config.loss_margin
            )
            assert outcome.performance_loss <= limit + 1e-9

    def test_same_seed_same_incident_log(self, device):
        trace = make_trace()
        strategy = make_strategy()
        fault = FaultConfig.uniform(0.4)
        outcomes = []
        for _ in range(2):
            guarded = self._guarded(device, fault, seed=11)
            outcomes.append(
                guarded.execute_with_baseline(trace, strategy)
            )
        assert outcomes[0].incidents == outcomes[1].incidents
        assert outcomes[0].fell_back == outcomes[1].fell_back
        assert outcomes[0].result == outcomes[1].result

    def test_different_seeds_can_differ(self, device):
        trace = make_trace()
        strategy = make_strategy()
        fault = FaultConfig.uniform(0.4)
        a = self._guarded(device, fault, seed=11).execute_with_baseline(
            trace, strategy
        )
        b = self._guarded(device, fault, seed=12).execute_with_baseline(
            trace, strategy
        )
        assert a.incidents != b.incidents


class TestPostHocChecksReadColumns:
    """The throttle and anchor checks log what the object reads logged."""

    THROTTLE = FaultConfig(ambient_step_rate=1.0, ambient_step_celsius=40.0)
    DROPPED = FaultConfig(setfreq_drop_rate=1.0)

    def _incidents(self, guard_type, device, fault, reference):
        guard = guard_type(
            DvfsExecutor(device),
            config=fast_guard(),
            injector=injector_for(fault),
        )
        if reference:
            with reference_only():
                outcome = guard.execute_with_baseline(
                    make_trace(), make_strategy()
                )
        else:
            outcome = guard.execute_with_baseline(
                make_trace(), make_strategy()
            )
        return outcome.incidents

    @pytest.mark.parametrize("reference", [False, True])
    def test_throttle(self, npu_spec, reference):
        device = NpuDevice(npu_spec)
        got = self._incidents(
            GuardedDvfsExecutor, device, self.THROTTLE, reference
        )
        assert "throttle_detected" in {i.kind for i in got}
        # The attempt runs on a hotter copy of the device: the nominal
        # one ran only the baseline, on the path under test.
        assert (device.reference_runs > 0) == reference
        assert (device.fast_path_runs > 0) != reference
        assert got == self._incidents(
            ObjectCheckGuard, NpuDevice(npu_spec), self.THROTTLE, reference
        )

    def test_anchor_mismatch_on_the_reference_loop(self, npu_spec):
        """Dropped SetFreqs leave anchors at the baseline frequency."""
        got = self._incidents(
            GuardedDvfsExecutor, NpuDevice(npu_spec), self.DROPPED, False
        )
        assert "anchor_mismatch" in {i.kind for i in got}
        assert got == self._incidents(
            ObjectCheckGuard, NpuDevice(npu_spec), self.DROPPED, False
        )

    @pytest.mark.parametrize("reference", [False, True])
    def test_anchor_mismatch_against_another_plan(self, npu_spec, reference):
        """A healthy run checked against anchors it did not follow."""
        device = NpuDevice(npu_spec)
        trace = make_trace()
        plan = DvfsExecutor(device).compile(make_strategy())
        if reference:
            with reference_only():
                result = device.run(trace, plan)
        else:
            result = device.run(trace, plan)
        assert (device.reference_runs == 1) == reference
        other = DvfsStrategy(
            "w",
            0.5,
            (
                StagePlan(0.0, 400.0, 1800.0, StageKind.HFC, 0),
                StagePlan(400.0, 600.0, 1200.0, StageKind.LFC, 3),
                StagePlan(1000.0, 600.0, 1700.0, StageKind.HFC, 6),
            ),
        )
        logs = []
        for guard_type in (GuardedDvfsExecutor, ObjectCheckGuard):
            guard = guard_type(DvfsExecutor(device))
            guard._verify_anchors(result, other)
            logs.append(guard.incidents)
        assert [i.kind for i in logs[0]] == ["anchor_mismatch"] * 2
        assert logs[0] == logs[1]


class TestSlowControllerSemantics:
    def test_anchor_verify_skipped_with_extra_delay(self, npu_spec):
        # On a slow controller (Fig. 18) changes legitimately land late;
        # the post-hoc anchor check must not flag them.
        from dataclasses import replace

        from repro.npu import NpuDevice

        slow = replace(
            npu_spec, setfreq=replace(npu_spec.setfreq, extra_delay_us=14_000.0)
        )
        device = NpuDevice(slow)
        trace = make_trace()
        guarded = GuardedDvfsExecutor(DvfsExecutor(device))
        outcome = guarded.execute_with_baseline(trace, make_strategy())
        kinds = {incident.kind for incident in outcome.incidents}
        assert "anchor_mismatch" not in kinds
