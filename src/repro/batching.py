"""Global switch for the batched cold-path pipeline.

The offline strategy-generation pipeline (profile -> fit -> score) has two
implementations: the scalar reference path, which mirrors the paper's
sequential flow operator by operator, and a batched NumPy path that
computes the same quantities array-at-a-time (one-pass multi-frequency
profiling, stacked model fits, grouped scorer tables).  The batched path
reproduces the reference bit for bit — including the measurement-noise RNG
stream — so :class:`~repro.dvfs.ga.GaResult.best_genes` are byte-identical
either way; this module is the escape hatch that forces the reference
implementations globally, mirroring :func:`repro.npu.engine.reference_only`
for the execution engine.  These two process-global toggles and the
per-device ``engine=False`` are the only fast/reference switches; none
is part of the strategy fingerprint, since either setting yields the
same strategy.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

_BATCHED_ENABLED = True


def batched_cold_path_enabled() -> bool:
    """Whether the batched cold-path pipeline is globally enabled."""
    return _BATCHED_ENABLED


def set_batched_cold_path(enabled: bool) -> None:
    """Globally enable/disable the batched cold path (reference fallback)."""
    global _BATCHED_ENABLED
    _BATCHED_ENABLED = bool(enabled)


@contextmanager
def reference_cold_path() -> Iterator[None]:
    """Context manager forcing the scalar cold path (A/B comparisons)."""
    previous = _BATCHED_ENABLED
    set_batched_cold_path(False)
    try:
        yield
    finally:
        set_batched_cold_path(previous)
