"""The looped multi-device reference the vectorized fleet is checked against.

Production steps every cluster and fleet on
:class:`repro.fleet.simulator.FleetSimulator`.  This package keeps the
former looped form only for the equivalence tests:

* :mod:`tests.reference.spec` — :class:`ClusterSpec`, the single-ring
  description (and the draw oracle for ``FleetSpec.device_profiles``);
* :mod:`tests.reference.device` — one varied NPU and its executor;
* :mod:`tests.reference.simulator` — :class:`SimulatedCluster`, N such
  devices stepped one by one, and the table-based ``reclaim_slack``;
* :mod:`tests.reference.compare` — :func:`compare_with_cluster`, the
  fleet-vs-cluster harness (<= 1e-9, byte-identical plans).

No module under ``src/repro`` imports this package.
"""
