"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting genuine programming errors propagate.

The robustness layer adds three typed failures so guard/retry code paths
can react precisely instead of pattern-matching messages:

* :class:`FaultInjectionError` — a fault-injection configuration or
  request is invalid (bad rates, a faulty wrapper built without an
  injector, ...).  Subclass of :class:`ConfigurationError`.
* :class:`TelemetryError` — the telemetry plane returned no usable data
  (for example, every sample of a window was dropped by an injected
  sensor fault).  Subclass of :class:`ProfilingError`, so existing
  measurement-error handlers keep working.
* :class:`SetFreqTimeoutError` — a frequency change could not be
  verified within the guard's retry budget and the guard was configured
  not to revert to the baseline.  Subclass of :class:`StrategyError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration object is inconsistent or out of range."""


class FrequencyError(ConfigurationError):
    """A frequency is outside the supported DVFS grid."""


class CalibrationError(ReproError):
    """Power/performance model calibration could not be completed."""


class FittingError(ReproError):
    """A model-fitting routine failed to produce parameters."""


class FaultInjectionError(ConfigurationError):
    """A fault-injection configuration or request is invalid."""


class ProfilingError(ReproError):
    """Profiling data is missing or inconsistent with the request."""


class TelemetryError(ProfilingError):
    """The telemetry plane returned no usable data."""


class StrategyError(ReproError):
    """A DVFS strategy is malformed or incompatible with a trace."""


class SetFreqTimeoutError(StrategyError):
    """A frequency change was never verified within the retry budget."""


class ConvergenceError(ReproError):
    """An iterative solver failed to converge within its budget."""


class WorkloadError(ReproError):
    """A workload trace or generator request is invalid."""


class ExperimentError(ReproError):
    """An experiment harness was invoked with an unknown id or bad config."""


class ServeError(ReproError):
    """The strategy service or store was misused, or a record is invalid.

    Store-internal validation failures (schema drift, hash mismatch,
    corruption) surface as invalidated records — callers only see this
    exception for genuine misuse (bad fingerprints, bad capacities).
    """


class CorruptRecordError(ServeError):
    """A store record is structurally damaged (truncated, garbled, not
    an envelope at all).

    Distinct from ordinary invalidation (schema or hash *drift*, which
    deletes the stale record): corruption is evidence of a disk or
    writer failure, so the store quarantines the file with a
    ``.corrupt`` suffix for post-mortem instead of destroying it.
    """


class Overloaded(ServeError):
    """The serving gateway refused a request instead of queueing it.

    Typed (rather than a bool or a None result) so fleet callers can
    distinguish *shed* from *failed* and apply backpressure — retry
    with jitter, route to another replica, or drop.  ``reason`` is one
    of ``"queue_full"``, ``"rate_limited"`` or ``"draining"``.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        self.reason = reason
        self.detail = detail
        message = f"request shed: {reason}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)
