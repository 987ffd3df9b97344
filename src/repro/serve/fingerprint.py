"""Workload and configuration fingerprinting for the strategy service.

A fingerprint is a stable SHA-256 content hash: two requests share a
fingerprint exactly when the optimizer would produce the same strategy
for both — the same operator sequence (shapes, gaps, host pacing) under
the same strategy-relevant configuration (loss target, frequency grid,
fit function, GA hyper-parameters, guard/fault knobs, seed).

Trace names and descriptions are deliberately *excluded* from the trace
hash: a fleet frequently submits the same iteration under different job
names, and those requests must coalesce onto one GA run.

The hash is computed over a canonical JSON encoding (sorted keys, enums
by value, dataclasses tagged with their class name), so it is stable
across processes and sessions — the property the on-disk store relies
on.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any

from repro.core.config import OptimizerConfig
from repro.npu.spec import NpuSpec
from repro.workloads.trace import Trace

#: Bump when the canonical encoding changes incompatibly; part of every
#: digest so old store entries invalidate instead of aliasing.
#: v3: the config hash no longer carries a ``"surrogate"`` key, because
#: the exact GA is the only search path.
FINGERPRINT_VERSION = 3


def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to deterministically JSON-encodable plain data.

    Dataclasses are tagged with their class name (two spec types with
    coincidentally equal fields must not collide), enums collapse to
    their values, and tuples become lists.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        payload: dict[str, Any] = {"__class__": type(value).__name__}
        for field in dataclasses.fields(value):
            payload[field.name] = canonicalize(getattr(value, field.name))
        return payload
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, dict):
        return {
            str(key.value if isinstance(key, enum.Enum) else key): (
                canonicalize(val)
            )
            for key, val in value.items()
        }
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"cannot canonicalize {type(value).__name__} for fingerprinting"
    )


def _digest(payload: Any) -> str:
    document = json.dumps(
        {"fingerprint_version": FINGERPRINT_VERSION, "payload": payload},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def trace_fingerprint(trace: Trace) -> str:
    """Content hash of a trace's operator sequence (name excluded).

    Memoized on the (immutable) trace object itself, so a serving loop
    pays the canonicalization cost once per trace and repeat lookups
    cost an attribute read — the store's cache hits stay in the
    microsecond range.
    """
    cached = getattr(trace, "_fingerprint_cache", None)
    if cached is not None:
        return cached
    entries = [
        {
            "spec": canonicalize(entry.spec),
            "gap_before_us": entry.gap_before_us,
            "host_interval_us": entry.host_interval_us,
        }
        for entry in trace.entries
    ]
    fingerprint = _digest({"kind": "trace", "entries": entries})
    object.__setattr__(trace, "_fingerprint_cache", fingerprint)
    return fingerprint


def spec_fingerprint(spec: NpuSpec) -> str:
    """Content hash of the full hardware description."""
    return _digest({"kind": "npu_spec", "spec": canonicalize(spec)})


def config_fingerprint(config: OptimizerConfig) -> str:
    """Content hash of the strategy-relevant optimizer configuration.

    Covers every knob the generated strategy depends on: loss target,
    adjustment interval, profile frequencies, fit function, objective,
    GA hyper-parameters, guard and fault knobs, and the root seed.  The
    hardware description is hashed separately (:func:`spec_fingerprint`)
    so the store can report *which* of the two drifted.

    The process-wide engine switch
    (:func:`repro.npu.engine.reference_only`) is deliberately NOT
    hashed, nor is the profiling route it implies (the one-pass grid
    versus the sequential sweep, which are bitwise identical): the
    engine switch stays within 1e-9 relative, so hashing it would only
    split the cache on an operational toggle.
    """
    return _digest(
        {
            "kind": "optimizer_config",
            "performance_loss_target": config.performance_loss_target,
            "adjustment_interval_us": config.adjustment_interval_us,
            "profile_freqs_mhz": list(config.profile_freqs_mhz),
            "fit_function": config.fit_function.value,
            "objective": config.objective,
            "ga": canonicalize(config.ga),
            "fault": canonicalize(config.fault),
            "guard": canonicalize(config.guard),
            "seed": config.seed,
        }
    )


def combine_fingerprints(
    trace_hash: str, config_hash: str, spec_hash: str
) -> str:
    """Fold the three component hashes into one request fingerprint.

    Split out so the service can precompute the config/spec hashes once
    and pay only the (memoized) trace hash plus one small digest per
    request — the path that keeps cache hits in the microsecond range.
    """
    return _digest(
        {
            "kind": "request",
            "trace": trace_hash,
            "config": config_hash,
            "spec": spec_hash,
        }
    )


def request_fingerprint(trace: Trace, config: OptimizerConfig) -> str:
    """The service's cache key: trace content + config + hardware."""
    return combine_fingerprints(
        trace_fingerprint(trace),
        config_fingerprint(config),
        spec_fingerprint(config.npu),
    )
