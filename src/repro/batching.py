"""Global switch for the batched cold-path pipeline.

The offline strategy-generation pipeline (profile -> fit -> score) has two
implementations: the scalar reference path, which mirrors the paper's
sequential flow operator by operator, and a batched NumPy path that
computes the same quantities array-at-a-time (one-pass multi-frequency
profiling, stacked model fits).  The batched path reproduces the
reference bit for bit — including the measurement-noise RNG stream — so
:class:`~repro.dvfs.ga.GaResult.best_genes` are byte-identical either
way; :func:`reference_cold_path` is the escape hatch that forces the
reference implementations globally.

The switch is read in one place,
:meth:`repro.core.optimizer.EnergyOptimizer.profile`: profiling picks the
grid pass or the sequential sweep, and the bundle it returns carries that
choice into fitting, the power table and preprocessing.  The scorer has
one table builder for both paths.  The switch stays separate from
:func:`repro.npu.engine.reference_only` because the two promise different
things: this one is bitwise, the engine's ≤1e-9 relative.  Neither switch
is part of the strategy fingerprint, since either setting yields the same
strategy.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

_BATCHED_ENABLED = True


def batched_cold_path_enabled() -> bool:
    """Whether the batched cold-path pipeline is globally enabled."""
    return _BATCHED_ENABLED


@contextmanager
def reference_cold_path() -> Iterator[None]:
    """Context manager forcing the scalar cold path (A/B comparisons)."""
    global _BATCHED_ENABLED
    previous = _BATCHED_ENABLED
    _BATCHED_ENABLED = False
    try:
        yield
    finally:
        _BATCHED_ENABLED = previous
