"""Per-operator power coefficients for DVFS strategy scoring.

Section 5.4.1 notes that differing input shapes produce different power
patterns even within one operator type, so an individual ``alpha`` must be
calculated for each operator.  This module builds that table from
per-operator power readings at the reference frequencies, and exposes the
vectorised lookups the genetic algorithm needs.

Thermal leakage is *not* applied per operator here: the temperature rise is
a chip-global quantity, so strategy scoring applies the Sect. 5.4.2
iterative AT solve once per candidate strategy over the aggregate power
(see :mod:`repro.dvfs.scoring`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.errors import CalibrationError
from repro.power.calibration import CalibrationConstants
from repro.power.model import PowerObservation, solve_alpha, solve_alpha_batch


@dataclass(frozen=True)
class OperatorPowerEntry:
    """Fitted load-dependent coefficients of one operator."""

    name: str
    alpha_aicore: float
    alpha_soc: float


@dataclass(frozen=True)
class OperatorPowerTable:
    """Per-operator alphas plus the shared calibration constants."""

    constants: CalibrationConstants
    entries: Mapping[str, OperatorPowerEntry]

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, name: str) -> OperatorPowerEntry:
        """The coefficients of one operator.

        Raises:
            CalibrationError: for an unknown operator name.
        """
        try:
            return self.entries[name]
        except KeyError:
            raise CalibrationError(
                f"no power coefficients for operator {name!r}"
            ) from None

    def aicore_power_matrix(
        self, names: Sequence[str], freqs_mhz: Sequence[float]
    ) -> np.ndarray:
        """AICore power (active + idle, no thermal term) per (op, freq).

        Shape ``(len(names), len(freqs))``; the global thermal term is
        added by the scorer after the chip-level AT solve.
        """
        return self._power_matrix(names, freqs_mhz, soc=False)

    def soc_power_matrix(
        self, names: Sequence[str], freqs_mhz: Sequence[float]
    ) -> np.ndarray:
        """SoC power (active + idle, no thermal term) per (op, freq)."""
        return self._power_matrix(names, freqs_mhz, soc=True)

    def _grid_vectors(
        self, freqs_key: tuple[float, ...]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached per-grid ``(f V^2, aicore idle, soc idle)`` vectors.

        The scorer asks for power matrices over the same frequency grid
        once per stage; the voltage lookups and idle-fit predictions only
        depend on the grid, so they are computed once per distinct grid
        and reused (lazily attached — the table is a frozen dataclass).
        """
        cache: dict | None = getattr(self, "_grid_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_grid_cache", cache)
        vectors = cache.get(freqs_key)
        if vectors is None:
            constants = self.constants
            freqs = np.asarray(freqs_key, dtype=float)
            volts = np.array([constants.volts(f) for f in freqs])
            fv2 = (freqs / 1000.0) * volts * volts
            idle_aicore = np.array(
                [
                    constants.aicore_idle.predict(f, v)
                    for f, v in zip(freqs, volts)
                ]
            )
            idle_soc = np.array(
                [
                    constants.soc_idle.predict(f, v)
                    for f, v in zip(freqs, volts)
                ]
            )
            vectors = (fv2, idle_aicore, idle_soc)
            cache[freqs_key] = vectors
        return vectors

    def _stacked_alphas(self) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
        """Cached ``(name index, aicore alphas, soc alphas)`` arrays.

        Batched construction attaches these for free (the arrays already
        exist there); tables from the scalar builder materialise them on
        first use.  Either way the per-name ``entry()`` object walk drops
        out of the power-matrix hot path.
        """
        stacked = getattr(self, "_alpha_stack", None)
        if stacked is None:
            index = {name: i for i, name in enumerate(self.entries)}
            aicore = np.array(
                [e.alpha_aicore for e in self.entries.values()]
            )
            soc = np.array([e.alpha_soc for e in self.entries.values()])
            stacked = (index, aicore, soc)
            object.__setattr__(self, "_alpha_stack", stacked)
        return stacked

    def _power_matrix(
        self, names: Sequence[str], freqs_mhz: Sequence[float], soc: bool
    ) -> np.ndarray:
        fv2, idle_aicore, idle_soc = self._grid_vectors(
            tuple(float(f) for f in freqs_mhz)
        )
        idle = idle_soc if soc else idle_aicore
        index, alpha_aicore, alpha_soc = self._stacked_alphas()
        try:
            rows = np.fromiter(
                map(index.__getitem__, names), dtype=np.intp, count=len(names)
            )
        except KeyError:
            for name in names:
                self.entry(name)
            raise  # unreachable: entry() raised the CalibrationError
        alphas = (alpha_soc if soc else alpha_aicore)[rows]
        return alphas[:, None] * fv2[None, :] + idle[None, :]


class _LazyEntryMap(Mapping):
    """Entry mapping that materialises the per-name objects on demand.

    Strategy scoring reads alphas through the stacked arrays attached to
    the table, never through :class:`OperatorPowerEntry` objects, so the
    batched builder defers object construction until something actually
    looks an entry up.  Lookups, order and values match the eager dict.
    """

    __slots__ = ("_index", "_names", "_aicore", "_soc", "_dict")

    def __init__(self, index, names, aicore, soc):
        self._index = index
        self._names = names
        self._aicore = aicore
        self._soc = soc
        self._dict: dict[str, OperatorPowerEntry] | None = None

    def _materialise(self) -> dict[str, OperatorPowerEntry]:
        built = self._dict
        if built is None:
            # Bypass the frozen-dataclass __init__/__setattr__ machinery:
            # with hundreds of operators the ordinary constructor
            # dominates table construction (no __post_init__ to skip).
            built = {}
            new_entry = OperatorPowerEntry.__new__
            set_dict = object.__setattr__
            aicore_l = self._aicore.tolist()
            soc_l = self._soc.tolist()
            for i, name in enumerate(self._names):
                entry = new_entry(OperatorPowerEntry)
                set_dict(
                    entry,
                    "__dict__",
                    {
                        "name": name,
                        "alpha_aicore": aicore_l[i],
                        "alpha_soc": soc_l[i],
                    },
                )
                built[name] = entry
            self._dict = built
        return built

    def __getitem__(self, name: str) -> OperatorPowerEntry:
        return self._materialise()[name]

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Mapping):
            return dict(self) == dict(other)
        return NotImplemented

    __hash__ = None  # mappings are mutable-equality containers


def build_operator_power_table(
    readings_by_freq: Mapping[float, Mapping[str, tuple[float, float]]],
    constants: CalibrationConstants,
) -> OperatorPowerTable:
    """Fit per-operator alphas from per-operator power readings.

    Args:
        readings_by_freq: for each reference frequency, the telemetry's
            per-operator ``(aicore, soc)`` power readings
            (see ``PowerTelemetry.measure_operator_power``).
        constants: the offline calibration.

    Operators appearing at only some frequencies use the observations they
    have.  Negative alpha estimates (possible on near-idle operators under
    sensor noise) are clamped to zero.

    Raises:
        CalibrationError: if no readings are given.
    """
    if not readings_by_freq:
        raise CalibrationError("no power readings given")
    names: set[str] = set()
    for readings in readings_by_freq.values():
        names.update(readings)
    entries: dict[str, OperatorPowerEntry] = {}
    for name in names:
        estimates: list[tuple[float, float]] = []
        for freq, readings in readings_by_freq.items():
            reading = readings.get(name)
            if reading is None:
                continue
            observation = PowerObservation(
                freq_mhz=freq,
                aicore_watts=reading[0],
                soc_watts=reading[1],
            )
            estimates.append(solve_alpha(observation, constants))
        if not estimates:
            continue
        alpha_aicore = max(0.0, float(np.mean([a for a, _ in estimates])))
        alpha_soc = max(0.0, float(np.mean([s for _, s in estimates])))
        entries[name] = OperatorPowerEntry(
            name=name, alpha_aicore=alpha_aicore, alpha_soc=alpha_soc
        )
    return OperatorPowerTable(constants=constants, entries=entries)


def build_operator_power_table_arrays(
    names: Sequence[str],
    readings_by_freq: Mapping[float, tuple[np.ndarray, np.ndarray]],
    constants: CalibrationConstants,
) -> OperatorPowerTable:
    """Batched equivalent of :func:`build_operator_power_table`.

    Takes each frequency's readings as ``(aicore_watts, soc_watts)``
    arrays aligned with ``names`` (every frequency covers every name, as
    on the healthy cold path, which profiles the same trace at each
    point) and solves Eq. (14) for all operators at once, one vectorised
    pass per reference frequency, then averages and clamps exactly like
    the scalar loop.  The per-name alphas are bit-identical; entry
    *order* is ``names`` order instead of set order, which nothing
    downstream observes (lookups are by name).

    Raises:
        CalibrationError: if no readings are given.
    """
    if not readings_by_freq:
        raise CalibrationError("no power readings given")
    name_list = list(names)
    n_freqs = len(readings_by_freq)
    estimates_a = np.empty((len(name_list), n_freqs))
    estimates_s = np.empty((len(name_list), n_freqs))
    for j, (freq, (aicore, soc)) in enumerate(readings_by_freq.items()):
        alpha_a, alpha_s = solve_alpha_batch(
            freq,
            np.asarray(aicore, dtype=float),
            np.asarray(soc, dtype=float),
            constants,
        )
        estimates_a[:, j] = alpha_a
        estimates_s[:, j] = alpha_s
    alpha_aicore = np.maximum(0.0, np.mean(estimates_a, axis=1))
    alpha_soc = np.maximum(0.0, np.mean(estimates_s, axis=1))
    index = {name: i for i, name in enumerate(name_list)}
    entries = _LazyEntryMap(index, name_list, alpha_aicore, alpha_soc)
    table = OperatorPowerTable(constants=constants, entries=entries)
    object.__setattr__(table, "_alpha_stack", (index, alpha_aicore, alpha_soc))
    return table
