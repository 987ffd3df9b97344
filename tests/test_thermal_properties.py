"""Property-based tests for the thermal RC model, plus an aliasing audit.

The cluster layer multiplies thermal state: every device carries its own
:class:`~repro.npu.thermal.ThermalState`, and per-device ambients are
produced by ``dataclasses.replace`` on one shared
:class:`~repro.npu.thermal.ThermalSpec`.  Two families of guarantees:

* **Physics** (hypothesis): ``advance`` approaches the equilibrium
  monotonically and never overshoots; splitting an interval into k
  sub-steps is exactly equivalent to one big step (the update is the
  exact ODE solution, not an Euler approximation); ``settle`` equals
  the closed form and the infinite-time limit of ``advance``.
* **Isolation** (audit): specs are frozen and shared safely; states are
  created fresh per run, so two devices built from one spec can never
  alias each other's temperature.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.npu.spec import default_npu_spec
from repro.npu.thermal import ThermalSpec, ThermalState
from tests.reference.device import ClusterDevice
from tests.reference.spec import ClusterSpec

specs = st.builds(
    ThermalSpec,
    ambient_celsius=st.floats(0.0, 60.0),
    celsius_per_watt=st.floats(0.01, 1.0),
    time_constant_us=st.floats(1e3, 1e8),
)
powers = st.floats(0.0, 500.0)
durations = st.floats(0.0, 1e8)
temperatures = st.floats(-20.0, 150.0)


class TestAdvanceProperties:
    @given(spec=specs, power=powers, start=temperatures, duration=durations)
    @settings(max_examples=200, deadline=None)
    def test_monotone_approach_without_overshoot(
        self, spec, power, start, duration
    ):
        """After any interval, T stays between the start and equilibrium."""
        equilibrium = spec.equilibrium_celsius(power)
        state = ThermalState(spec, start)
        end = state.advance(power, duration)
        low, high = min(start, equilibrium), max(start, equilibrium)
        assert low - 1e-9 <= end <= high + 1e-9

    @given(
        spec=specs,
        power=powers,
        start=temperatures,
        duration=st.floats(1.0, 1e7),
        splits=st.integers(1, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_substepping_invariance(
        self, spec, power, start, duration, splits
    ):
        """k equal sub-steps land exactly where one big step does."""
        one = ThermalState(spec, start)
        one.advance(power, duration)
        many = ThermalState(spec, start)
        for _ in range(splits):
            many.advance(power, duration / splits)
        assert math.isclose(
            one.celsius, many.celsius, rel_tol=1e-9, abs_tol=1e-9
        )

    @given(spec=specs, power=powers, start=temperatures)
    @settings(max_examples=200, deadline=None)
    def test_settle_is_closed_form_and_advance_limit(
        self, spec, power, start
    ):
        """settle == Eq. 15 closed form == advance over many tau."""
        state = ThermalState(spec, start)
        settled = state.settle(power)
        expected = spec.ambient_celsius + spec.celsius_per_watt * power
        assert math.isclose(settled, expected, rel_tol=1e-12, abs_tol=1e-12)
        limit = ThermalState(spec, start)
        limit.advance(power, 80.0 * spec.time_constant_us)
        assert math.isclose(limit.celsius, settled, rel_tol=1e-9, abs_tol=1e-6)

    @given(spec=specs, power=powers)
    @settings(max_examples=100, deadline=None)
    def test_zero_duration_is_identity(self, spec, power):
        state = ThermalState(spec, 42.0)
        assert state.advance(power, 0.0) == 42.0

    def test_negative_duration_rejected(self):
        state = ThermalState(ThermalSpec())
        with pytest.raises(ConfigurationError):
            state.advance(10.0, -1.0)


class TestThermalAliasingAudit:
    def test_thermal_spec_is_frozen(self):
        """The shared spec cannot be mutated through any holder."""
        spec = ThermalSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.ambient_celsius = 99.0

    def test_states_from_one_spec_never_alias(self):
        """Two states over one spec evolve independently."""
        spec = ThermalSpec()
        hot = ThermalState(spec, 30.0)
        cold = ThermalState(spec, 30.0)
        hot.advance(200.0, 5e6)
        assert cold.celsius == 30.0
        assert hot.celsius > cold.celsius

    def test_cluster_devices_never_share_thermal_state(self):
        """Two devices built from one base spec heat up independently.

        The cluster applies per-device ambients with
        ``dataclasses.replace`` on the shared base ``ThermalSpec``; a
        shared-mutable-default bug anywhere in that chain would leak one
        device's run into its sibling's starting temperature.
        """
        base = default_npu_spec()
        spec = ClusterSpec(n_devices=2, npu=base, seed=0)
        profiles = spec.device_profiles()
        a = ClusterDevice(profiles[0], base)
        b = ClusterDevice(profiles[1], base)
        assert a.npu.thermal is not b.npu.thermal or (
            profiles[0].ambient_offset_celsius
            == profiles[1].ambient_offset_celsius
        )
        # Idling device a hot must not move device b's spec or results.
        before = b.npu.thermal.ambient_celsius
        a.idle(5e6, 1800.0, start_celsius=90.0)
        assert b.npu.thermal.ambient_celsius == before
        assert base.thermal.ambient_celsius == 25.0
