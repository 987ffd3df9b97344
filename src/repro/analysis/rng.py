"""Deterministic random-number plumbing.

Every stochastic component in the library (measurement noise, workload
jitter, genetic-algorithm sampling) draws from a generator handed to it by
an :class:`RngFactory`, so whole experiments are reproducible from a single
seed while components stay statistically independent of each other.
"""

from __future__ import annotations

import numpy as np

#: Words in a :class:`numpy.random.SeedSequence` entropy pool.  A spawned
#: sequence zero-pads its run entropy to this many words before appending
#: the spawn key.
_POOL_SIZE = 4


def _seed_words(seed: int) -> np.ndarray:
    """``seed`` as little-endian 32-bit words, zero-padded to the pool size.

    The run-entropy half of the array ``SeedSequence(seed, spawn_key=...)``
    assembles for a non-empty spawn key.
    """
    count = max(_POOL_SIZE, -(-seed.bit_length() // 32))
    return np.frombuffer(seed.to_bytes(4 * count, "little"), dtype="<u4")


class RngFactory:
    """Derives independent, named random generators from one root seed.

    Generators are derived by hashing the component name into the seed
    sequence, so the stream a component sees depends only on
    ``(root_seed, name)`` — adding a new component never perturbs the
    streams of existing ones, which keeps calibrated experiment outputs
    stable as the library grows.
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = seed

    @property
    def seed(self) -> int:
        """The root seed this factory was created with."""
        return self._seed

    def generator(self, name: str) -> np.random.Generator:
        """A fresh generator for the component ``name``.

        Calling this twice with the same name returns generators that
        produce identical streams.  The stream is that of
        ``SeedSequence(seed, spawn_key=tuple(name.encode("utf-8")))``;
        the entropy array that sequence would assemble one byte at a time
        (seed words, zero-padded, then the name's bytes) is built here in
        one concatenation, which is what makes a per-step stream cheap.
        """
        if not name:
            raise ValueError("component name must be non-empty")
        if self._seed < 0:
            raise ValueError("expected non-negative integer")
        key = np.frombuffer(name.encode("utf-8"), dtype=np.uint8)
        entropy = np.concatenate((_seed_words(self._seed), key))
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def child(self, name: str) -> "RngFactory":
        """A derived factory whose streams are independent of this one's."""
        derived_seed = int(
            np.random.SeedSequence(
                self._seed, spawn_key=tuple(name.encode("utf-8"))
            ).generate_state(1)[0]
        )
        return RngFactory(derived_seed)

    def __repr__(self) -> str:
        return f"RngFactory(seed={self._seed})"
