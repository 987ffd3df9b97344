"""Compiled-trace fast-path execution engine.

:class:`NpuDevice.run` is, in the reference implementation, a pure-Python
per-operator/per-chunk loop: every chunk pays for a timeline query, a
memoised-but-allocating evaluator call, power-model arithmetic, and a
:class:`~repro.npu.device.PowerChunk` allocation.  Every layer above the
device — profiling sweeps, calibration, GA baselines, fault replays,
``repro.serve`` warm-up, the N-device cluster barrier — bottoms out in
that loop, so its constant factor taxes the whole system (the scaling
limiter ONNXim and NeuroScalar identify for cycle-level NPU simulation).

This module lowers a :class:`~repro.workloads.trace.Trace` plus the
device's evaluator **once** into NumPy lookup tables — per-operator
duration and power coefficients per frequency, idle-power rows, host-gap
arrays — and then executes iterations as array scans:

* **Operator-level plans** (a constant :class:`FrequencyTimeline`, or an
  :class:`AnchoredFrequencyPlan` with zero extra delay, where switches
  land exactly on operator starts) run as a single vectorised pass: start
  times come from one ``cumsum``, and the RC thermal recurrence — an
  affine scan ``delta' = a * delta + b`` per chunk — is solved in closed
  form with ``cumprod``/``cumsum``.
* **Wall-clock timelines with switches** run as an O(#chunks) scalar scan
  over the precomputed tables, splitting operators at switch boundaries
  with exactly the reference loop's progress-proportional carry.

Results are numerically equivalent to the reference loop (relative error
well under 1e-9 on duration, energy and temperature; see
``tests/test_engine.py``), and per-operator records / power chunks are
materialised lazily, so consumers that never touch them (stable-state
inner rounds, cluster steps) never pay for their construction.

Stateful or faulty plans — :class:`~repro.npu.faults.FaultyFrequencyPlan`,
:class:`~repro.dvfs.guard.GuardedFrequencyPlan`, anchored plans with a
busy-controller extra delay — are *not* eligible: the device transparently
keeps the reference loop for them.  :func:`reference_only` forces the
reference loop globally (benchmarks and equivalence tests use this).
"""

from __future__ import annotations

import math
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from repro.npu.device import (
    ExecutionResult,
    IDLE_INDEX,
    OperatorRecord,
    PowerChunk,
)
from repro.npu.setfreq import AnchoredFrequencyPlan, FrequencyTimeline
from repro.npu.spec import NpuSpec
from repro.units import US_PER_S

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.trace import Trace

#: Below this cumulative thermal-decay product the closed-form affine scan
#: switches to a sequential scan: dividing by a vanishing ``cumprod`` would
#: amplify rounding (only reachable when chunk lengths rival the thermal
#: time constant times hundreds).
_SCAN_UNDERFLOW = 1e-250

#: Compiled traces cached per engine before dead weak references are pruned.
_COMPILED_CACHE_LIMIT = 64

#: Process-wide compiled-trace cache, shared across engines whose specs
#: are value-identical.  Serving creates a fresh optimizer (device +
#: engine) per cache-missed request, yet lowering a trace is a pure
#: function of (trace, spec): sharing the result across instances removes
#: recompilation — and the unique-grid evaluation cached on it — from the
#: cold path.  Keyed by ``(id(trace), repr(spec))`` with a weakref guard
#: against id reuse; ``repr`` covers every spec field recursively, so
#: equal keys imply equal lowering output bit for bit.
_SHARED_COMPILED: dict[tuple[int, str], tuple] = {}

#: Guards every read, eviction and insert of ``_SHARED_COMPILED``: engines
#: on different threads (e.g. a gateway's thread executor) share it.
_SHARED_COMPILED_LOCK = threading.Lock()

_FAST_PATH_ENABLED = True


def fast_path_enabled() -> bool:
    """Whether the compiled-trace fast path is globally enabled."""
    return _FAST_PATH_ENABLED


@contextmanager
def reference_only() -> Iterator[None]:
    """Context manager forcing the reference loop (for A/B comparisons)."""
    global _FAST_PATH_ENABLED
    previous = _FAST_PATH_ENABLED
    _FAST_PATH_ENABLED = False
    try:
        yield
    finally:
        _FAST_PATH_ENABLED = previous


class _LazySeq(Sequence):
    """Tuple-like sequence that materialises its items on demand.

    Single-item access builds one item (``result.chunks[-1]`` stays O(1));
    iteration and slicing materialise once and cache the tuple.
    """

    __slots__ = ("_size", "_make", "_items")

    def __init__(self, size: int, make: Callable[[int], object]) -> None:
        self._size = size
        self._make = make
        self._items: tuple | None = None

    def _materialise(self) -> tuple:
        if self._items is None:
            make = self._make
            self._items = tuple(make(i) for i in range(self._size))
        return self._items

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._materialise()[index]
        if self._items is not None:
            return self._items[index]
        i = int(index)
        if i < 0:
            i += self._size
        if not 0 <= i < self._size:
            raise IndexError(index)
        return self._make(i)

    def __iter__(self):
        return iter(self._materialise())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, list, _LazySeq)):
            return self._materialise() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._materialise())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(len={self._size})"


@dataclass
class EngineStats:
    """Counters describing how the engine has been exercised."""

    fast_path_runs: int = 0
    compiled_traces: int = 0
    column_builds: int = 0


class _FreqColumn:
    """Per-frequency lookup tables over one compiled trace.

    Power is affine in the temperature rise ``delta`` on both rails
    (``P(delta) = P(0) + slope * delta``); the column stores the intercept
    and slope probed from the evaluator at ``delta = 0`` and ``delta = 1``,
    which keeps the engine agnostic of the power model's internals.
    """

    __slots__ = (
        "freq_mhz", "dur", "a0", "ga", "s0", "gs",
        "idle_a0", "idle_ga", "idle_s0", "idle_gs", "_lists",
    )

    def __init__(
        self,
        freq_mhz: float,
        dur: np.ndarray,
        a0: np.ndarray,
        ga: np.ndarray,
        s0: np.ndarray,
        gs: np.ndarray,
        idle_a0: float,
        idle_ga: float,
        idle_s0: float,
        idle_gs: float,
    ) -> None:
        self.freq_mhz = freq_mhz
        self.dur = dur
        self.a0 = a0
        self.ga = ga
        self.s0 = s0
        self.gs = gs
        self.idle_a0 = idle_a0
        self.idle_ga = idle_ga
        self.idle_s0 = idle_s0
        self.idle_gs = idle_gs
        self._lists: tuple[list, list, list, list, list] | None = None

    def as_lists(self) -> tuple[list, list, list, list, list]:
        """Plain-list views of the per-operator tables (scalar scans)."""
        if self._lists is None:
            self._lists = (
                self.dur.tolist(),
                self.a0.tolist(),
                self.ga.tolist(),
                self.s0.tolist(),
                self.gs.tolist(),
            )
        return self._lists


class CompiledTrace:
    """A trace lowered against one evaluator, ready for array execution.

    Construction walks the trace once to collect host-gap arrays and the
    distinct operator characters (the evaluator's own memoisation key);
    frequency columns are then built lazily, in one vectorised
    :meth:`unique_grid` pass over the distinct characters per batch of
    missing frequencies, and reused across every subsequent run of the
    same trace on the same device.
    """

    def __init__(self, trace: "Trace", evaluator) -> None:
        self._trace = trace
        self._evaluator = evaluator
        entries = trace.entries
        n = len(entries)
        self.n_ops = n
        self.gap = np.array([e.gap_before_us for e in entries], dtype=float)
        self.host = np.array(
            [e.host_interval_us for e in entries], dtype=float
        )
        keys: dict[object, int] = {}
        uniq_specs = []
        uniq_idx = np.empty(n, dtype=np.intp)
        for i, entry in enumerate(entries):
            spec = entry.spec
            if spec.is_compute:
                key = (spec.compute,)
            else:
                key = (spec.kind, spec.fixed_duration_us)
            j = keys.get(key)
            if j is None:
                j = len(uniq_specs)
                keys[key] = j
                uniq_specs.append(spec)
            uniq_idx[i] = j
        self._uniq_specs = uniq_specs
        self._uniq_idx = uniq_idx
        self._columns: dict[float, _FreqColumn] = {}
        self._const_solutions: dict[float, "_ConstSolution"] = {}
        self._grids: dict[tuple[float, ...], object] = {}

    @property
    def trace(self) -> "Trace":
        """The lowered trace."""
        return self._trace

    @property
    def unique_operator_count(self) -> int:
        """Distinct operator characters in the trace."""
        return len(self._uniq_specs)

    @property
    def column_count(self) -> int:
        """Frequency columns built so far."""
        return len(self._columns)

    @property
    def unique_specs(self) -> list:
        """One representative spec per distinct operator character."""
        return self._uniq_specs

    @property
    def unique_index(self) -> np.ndarray:
        """Per-operator row index into :attr:`unique_specs`."""
        return self._uniq_idx

    def evaluation_for(self, op_index: int, freq_mhz: float):
        """The (memoised) ground-truth evaluation backing a record."""
        return self._evaluator.evaluate(
            self._trace.entries[op_index].spec, freq_mhz
        )

    def unique_grid(self, freqs_mhz: Sequence[float]):
        """Vectorised unique-spec evaluation over a whole frequency grid.

        Returns a :class:`repro.npu.vectoreval.UniqueSpecGrid` and installs
        any missing per-frequency columns from it.  This is the only
        column builder; ``tests/oracles.py`` keeps the scalar
        one-evaluation-per-spec build it is pinned against bit for bit.
        Grids are cached per frequency tuple — the evaluation is a pure
        function of (specs, grid), and repeated cold passes over the same
        sweep (the serving miss path) ask for the same grid every time.
        """
        grid_key = tuple(float(f) for f in freqs_mhz)
        cached = self._grids.get(grid_key)
        if cached is not None:
            return cached
        grid = self._evaluator.unique_grid(self._uniq_specs, freqs_mhz)
        idx = self._uniq_idx
        for j, freq in enumerate(grid.freqs_mhz):
            if freq in self._columns:
                continue
            self._columns[freq] = _FreqColumn(
                freq_mhz=freq,
                dur=grid.dur[idx, j],
                a0=grid.a_cold[idx, j],
                ga=grid.ga[idx, j],
                s0=grid.s_cold[idx, j],
                gs=grid.gs[idx, j],
                idle_a0=float(grid.idle_a0[j]),
                idle_ga=float(grid.idle_ga[j]),
                idle_s0=float(grid.idle_s0[j]),
                idle_gs=float(grid.idle_gs[j]),
            )
        self._grids[grid_key] = grid
        return grid

    def prime_columns(self, freqs_mhz: Sequence[float]) -> None:
        """Batch-build any missing frequency columns in one pass."""
        missing = [
            f
            for f in dict.fromkeys(float(f) for f in freqs_mhz)
            if f not in self._columns
        ]
        if missing:
            self.unique_grid(missing)

    def column(self, freq_mhz: float) -> _FreqColumn:
        """The per-operator tables at one frequency (built on first use)."""
        col = self._columns.get(freq_mhz)
        if col is None:
            self.prime_columns([freq_mhz])
            col = self._columns[float(freq_mhz)]
        return col

    def const_solution(
        self, freq_mhz: float, k: float, tau: float
    ) -> "_ConstSolution":
        """The cached O(1)-per-run reduction of a constant-frequency run."""
        solution = self._const_solutions.get(freq_mhz)
        if solution is None:
            solution = _ConstSolution(self, self.column(freq_mhz), k, tau)
            self._const_solutions[freq_mhz] = solution
        return solution


def _affine_parts(
    dt: np.ndarray,
    s0: np.ndarray,
    gs: np.ndarray,
    k: float,
    tau: float,
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Solve the per-chunk RC recurrence as an affine map of ``delta0``.

    Each chunk holds power constant at its start temperature, then the
    exact RC solution advances the state: with ``e = exp(-dt/tau)`` the
    temperature rise obeys ``delta' = a * delta + b`` where
    ``a = e + k*gs*(1-e)`` and ``b = k*s0*(1-e)``.  The composition of
    affine steps is affine, so every chunk-start temperature rise is
    ``A[i] + B[i] * delta0``; dividing the recurrence through by the
    running product of ``a`` turns the inhomogeneous part into a prefix
    sum, making the whole trajectory two ``cum*`` kernels.  Because the
    parts do not depend on the initial temperature, a constant-frequency
    trace caches them once and every subsequent run is O(1).

    Returns:
        ``(A, B, A_end, B_end)`` with chunk-start rises ``A + B*delta0``
        and final rise ``A_end + B_end*delta0``.
    """
    n = dt.size
    if n == 0:
        return np.empty(0), np.empty(0), 0.0, 1.0
    e = np.exp(-dt / tau)
    one_m = 1.0 - e
    a = e + (k * gs) * one_m
    b = (k * s0) * one_m
    c = np.cumprod(a)
    tail = float(c[-1])
    if (
        not math.isfinite(tail)
        or tail <= _SCAN_UNDERFLOW
        or float(np.min(a)) <= 0.0
    ):
        # Pathological decay (chunks of hundreds of thermal time
        # constants): fall back to the sequential recurrence.
        big_a = np.empty(n)
        big_b = np.empty(n)
        acc_a = 0.0
        acc_b = 1.0
        a_l = a.tolist()
        b_l = b.tolist()
        for i in range(n):
            big_a[i] = acc_a
            big_b[i] = acc_b
            acc_a = a_l[i] * acc_a + b_l[i]
            acc_b = a_l[i] * acc_b
        return big_a, big_b, acc_a, acc_b
    acc = np.cumsum(b / c)
    big_b = np.concatenate(([1.0], c[:-1]))
    big_a = big_b * np.concatenate(([0.0], acc[:-1]))
    return big_a, big_b, tail * float(acc[-1]), tail


class _ConstSolution:
    """Fully-reduced constant-frequency execution of one compiled trace.

    Everything about a constant-frequency run except the initial
    temperature is fixed, and the thermal recurrence is affine in the
    initial rise ``delta0`` (see :func:`_affine_parts`) — so energies and
    the final temperature reduce to cached scalars ``E0 + E1 * delta0``,
    and a repeat run (profiling sweeps, ``run_stable`` rounds, cluster
    baselines) costs O(1) plus lazy O(1)-per-item records and chunks.
    """

    __slots__ = (
        "freq", "duration", "start", "end", "pos_op",
        "cstart", "cend", "cdt", "cop", "ca0", "cga", "cs0", "cgs",
        "th_a", "th_b", "end_a", "end_b",
        "e0_aicore", "e1_aicore", "e0_soc", "e1_soc",
    )

    def __init__(
        self, compiled: "CompiledTrace", col: _FreqColumn,
        k: float, tau: float,
    ) -> None:
        self.freq = col.freq_mhz
        geo = _chunk_geometry(
            compiled, col.dur,
            col.a0, col.ga, col.s0, col.gs,
            np.full(compiled.n_ops, col.idle_a0),
            np.full(compiled.n_ops, col.idle_ga),
            np.full(compiled.n_ops, col.idle_s0),
            np.full(compiled.n_ops, col.idle_gs),
        )
        (self.start, self.end, self.pos_op, self.cstart, self.cend,
         self.cdt, self.cop, self.ca0, self.cga, self.cs0, self.cgs,
         _cfreq_unused) = geo
        self.duration = float(self.end[-1])
        self.th_a, self.th_b, self.end_a, self.end_b = _affine_parts(
            self.cdt, self.cs0, self.cgs, k, tau
        )
        per_dt = self.cdt / US_PER_S
        self.e0_aicore = float(
            np.dot(self.ca0 + self.cga * self.th_a, per_dt)
        )
        self.e1_aicore = float(np.dot(self.cga * self.th_b, per_dt))
        self.e0_soc = float(np.dot(self.cs0 + self.cgs * self.th_a, per_dt))
        self.e1_soc = float(np.dot(self.cgs * self.th_b, per_dt))


#: Cell budget (rows x chunk columns) of one block of the batched
#: constant-frequency build; keeps peak temporaries around tens of MB
#: even for 10k-device fleets on long traces.
_BATCH_CELL_BUDGET = 1_000_000


@dataclass(frozen=True)
class ConstAffineBatch:
    """Per-device affine reductions of one constant-frequency run.

    The fleet-facing form of :class:`_ConstSolution`: every array is
    indexed by device, where devices differ only by an operator-duration
    scale (silicon speed binning) and, downstream, by their initial
    temperature rise ``delta0``.  For device ``i``::

        duration  = duration_us[i]                       (exact)
        E_aicore  = e0_aicore_j[i] + e1_aicore_j[i] * delta0
        E_soc     = e0_soc_j[i]    + e1_soc_j[i]    * delta0
        rise'     = end_a[i]       + end_b[i]       * delta0

    Durations are bitwise identical to the per-device engine path (the
    same scale multiply and the same per-row ``cumsum`` geometry);
    energies and the final rise agree to rounding (~1e-15 relative)
    because only the summation association differs.  The idle-power
    coefficients are frequency-only (device-independent), probed the
    same way as :class:`_FreqColumn`.
    """

    freq_mhz: float
    duration_us: np.ndarray
    e0_aicore_j: np.ndarray
    e1_aicore_j: np.ndarray
    e0_soc_j: np.ndarray
    e1_soc_j: np.ndarray
    end_a: np.ndarray
    end_b: np.ndarray
    idle_aicore_w0: float
    idle_aicore_gain: float
    idle_soc_w0: float
    idle_soc_gain: float

    @property
    def n_devices(self) -> int:
        """How many device rows the batch covers."""
        return self.duration_us.size


def _block_geometry(
    compiled: "CompiledTrace",
    col: _FreqColumn,
    scales: np.ndarray,
    d: np.ndarray,
    start: np.ndarray,
) -> None:
    """Write one block's operator durations and start times in place.

    ``d`` and ``start`` are ``(rows, n_ops)`` outputs: ``d`` is every
    operator's duration scaled per row, and ``start`` follows the
    gap/host-pacing rule of :func:`_chunk_geometry` as a per-row
    ``cumsum``.  Both match the per-device engine geometry bit for bit.
    """
    np.multiply(col.dur, scales[:, None], out=d)
    start[:, 0] = 0.0
    start[:, 1:] = d[:, :-1]
    np.add(start, compiled.gap, out=start)
    np.maximum(start, compiled.host, out=start)
    np.cumsum(start, axis=1, out=start)


def _block_rows(total: int, cells_per_row: int) -> tuple[int, int]:
    """``(rows per block, rows to allocate)`` under the cell budget."""
    block = max(1, _BATCH_CELL_BUDGET // max(1, cells_per_row))
    return block, min(block, total)


def _batched_block(
    compiled: "CompiledTrace",
    col: _FreqColumn,
    chunk_coef: tuple[np.ndarray, ...],
    scales: np.ndarray,
    k: float,
    tau: float,
    buffers: tuple[np.ndarray, ...],
) -> tuple[np.ndarray, ...]:
    """One block of the batched constant-frequency reduction.

    Lays every device row out as the rectangular chunk interleave
    ``[idle_0, op_0, idle_1, op_1, ...]``: rows without a wait before
    operator ``i`` simply get a zero-length idle chunk there, which is
    an exact identity of both the affine thermal scan (``a = 1``,
    ``b = 0``) and the energy sum (``dt = 0``), so the rectangular
    layout reproduces the per-device compressed layout bit for bit.

    Every block-sized temporary lives in ``buffers`` (four
    ``(rows, 2n)`` arrays and one ``(rows, n)``; longer is fine, only
    the leading ``scales.size`` rows are used).  The ops are the ones
    the per-device path runs, element for element, so the result does
    not depend on the block a row falls in.
    """
    ca0, cga, cs0, cgs, kgs, kcs0 = chunk_coef
    rows = scales.size
    cdt, x, y, z, start = (buf[:rows] for buf in buffers)
    d = cdt[:, 1::2]
    _block_geometry(compiled, col, scales, d, start)
    duration = start[:, -1] + d[:, -1]
    # Idle chunk i is the wait start[i] - end[i-1] (end[-1] = 0).
    idle = cdt[:, 0::2]
    idle[:, 0] = 0.0
    np.add(start[:, :-1], d[:, :-1], out=idle[:, 1:])
    np.subtract(start, idle, out=idle)

    # x = e = exp(-dt/tau); y = 1 - e, then b; z = a, then its cumprod.
    np.divide(cdt, -tau, out=x)
    np.exp(x, out=x)
    np.subtract(1.0, x, out=y)
    np.multiply(kgs, y, out=z)
    np.add(x, z, out=z)
    np.multiply(kcs0, y, out=y)
    a_min = np.min(z, axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.cumprod(z, axis=1, out=z)
        tail = z[:, -1].copy()
        bad = ~np.isfinite(tail) | (tail <= _SCAN_UNDERFLOW) | (a_min <= 0.0)
        np.divide(y, z, out=y)
        np.cumsum(y, axis=1, out=y)
        end_a = tail * y[:, -1]
        end_b = tail
        # th_b = [1, c[:-1]] into x; th_a = th_b * [0, acc[:-1]] into
        # z.  Non-finite values only occur on the bad rows replaced below.
        x[:, 0] = 1.0
        x[:, 1:] = z[:, :-1]
        z[:, 0] = 0.0
        z[:, 1:] = y[:, :-1]
        np.multiply(x, z, out=z)
    th_a, th_b = z, x
    for i in np.flatnonzero(bad):
        # Pathological decay on this row: same sequential fallback as
        # the per-device path (see _affine_parts).
        th_a[i], th_b[i], end_a[i], end_b[i] = _affine_parts(
            cdt[i], cs0, cgs, k, tau
        )

    per_dt = np.divide(cdt, US_PER_S, out=cdt)
    sums = []
    for base, gain, th in ((ca0, cga, th_a), (None, cga, th_b),
                           (cs0, cgs, th_a), (None, cgs, th_b)):
        np.multiply(gain, th, out=y)
        if base is not None:
            np.add(base, y, out=y)
        np.multiply(y, per_dt, out=y)
        sums.append(y.sum(axis=1))
    return (duration, *sums, end_a, end_b)


def batched_const_durations(
    compiled: "CompiledTrace",
    freq_mhz: float,
    duration_scales: Sequence[float] | np.ndarray,
) -> np.ndarray:
    """Per-device constant-frequency durations, one row per scale.

    Bitwise identical to running each device through the engine: the
    per-device path multiplies each operator's duration by the device's
    scale and the chunk geometry is a per-row ``cumsum``, both of which
    :func:`_block_geometry` reproduces element for element.
    """
    scales = np.ascontiguousarray(duration_scales, dtype=float)
    n = compiled.n_ops
    if n == 0:
        return np.zeros(scales.size)
    col = compiled.column(freq_mhz)
    out = np.empty(scales.size)
    block, size = _block_rows(scales.size, n)
    d_buf = np.empty((size, n))
    start_buf = np.empty((size, n))
    for lo in range(0, scales.size, block):
        s = scales[lo : lo + block]
        d = d_buf[: s.size]
        start = start_buf[: s.size]
        _block_geometry(compiled, col, s, d, start)
        np.add(start[:, -1], d[:, -1], out=out[lo : lo + s.size])
    return out


def batched_const_solutions(
    compiled: "CompiledTrace",
    freq_mhz: float,
    duration_scales: Sequence[float] | np.ndarray,
    k: float,
    tau: float,
) -> ConstAffineBatch:
    """Stack every device's constant-frequency affine solution.

    The fleet analogue of :meth:`CompiledTrace.const_solution`: one call
    reduces a whole device population (each with its own operator-
    duration scale) to ``(devices,)`` arrays of affine scalars, built in
    blocks of ~:data:`_BATCH_CELL_BUDGET` cells so peak memory stays
    bounded at any fleet size.  ``k``/``tau`` are the shared RC thermal
    constants; per-board ambients do not enter (the recurrence lives in
    temperature-rise space), so one batch serves boards in warm and cool
    rack positions alike.
    """
    scales = np.ascontiguousarray(duration_scales, dtype=float)
    rows = scales.size
    col = compiled.column(freq_mhz)
    if compiled.n_ops == 0:
        zero = np.zeros(rows)
        return ConstAffineBatch(
            freq_mhz=col.freq_mhz,
            duration_us=zero,
            e0_aicore_j=zero.copy(),
            e1_aicore_j=zero.copy(),
            e0_soc_j=zero.copy(),
            e1_soc_j=zero.copy(),
            end_a=zero.copy(),
            end_b=np.ones(rows),
            idle_aicore_w0=col.idle_a0,
            idle_aicore_gain=col.idle_ga,
            idle_soc_w0=col.idle_s0,
            idle_soc_gain=col.idle_gs,
        )
    n = compiled.n_ops
    chunk_coef = []
    for idle, op in ((col.idle_a0, col.a0), (col.idle_ga, col.ga),
                     (col.idle_s0, col.s0), (col.idle_gs, col.gs)):
        coef = np.empty(2 * n)
        coef[0::2] = idle
        coef[1::2] = op
        chunk_coef.append(coef)
    chunk_coef += [k * chunk_coef[3], k * chunk_coef[2]]
    block, size = _block_rows(rows, 2 * n)
    buffers = tuple(np.empty((size, 2 * n)) for _ in range(4)) + (
        np.empty((size, n)),
    )
    parts = [np.empty(rows) for _ in range(7)]
    for lo in range(0, rows, block):
        chunk = _batched_block(
            compiled, col, tuple(chunk_coef), scales[lo : lo + block],
            k, tau, buffers,
        )
        for dest, src in zip(parts, chunk):
            dest[lo : lo + src.size] = src
    return ConstAffineBatch(
        freq_mhz=col.freq_mhz,
        duration_us=parts[0],
        e0_aicore_j=parts[1],
        e1_aicore_j=parts[2],
        e0_soc_j=parts[3],
        e1_soc_j=parts[4],
        end_a=parts[5],
        end_b=parts[6],
        idle_aicore_w0=col.idle_a0,
        idle_aicore_gain=col.idle_ga,
        idle_soc_w0=col.idle_s0,
        idle_soc_gain=col.idle_gs,
    )


def _chunk_geometry(
    compiled: "CompiledTrace",
    d: np.ndarray,
    a0: np.ndarray,
    ga: np.ndarray,
    s0: np.ndarray,
    gs: np.ndarray,
    idle_a0: np.ndarray,
    idle_ga: np.ndarray,
    idle_s0: np.ndarray,
    idle_gs: np.ndarray,
    fop: np.ndarray | None = None,
    fgap: np.ndarray | None = None,
) -> tuple:
    """Lay out the chronological chunk arrays for per-op-constant runs.

    Start times follow the reference's gap/host-pacing rule
    ``start[i] = start[i-1] + max(d[i-1] + gap[i], host[i])`` in
    prefix-sum form; idle chunks are interleaved before the operators
    that have a positive wait.
    """
    n = compiled.n_ops
    prev_d = np.concatenate(([0.0], d[:-1]))
    start = np.cumsum(np.maximum(prev_d + compiled.gap, compiled.host))
    end = start + d
    prev_end = np.concatenate(([0.0], end[:-1]))
    idle_dt = start - prev_end
    has_idle = idle_dt > 0.0
    n_idle = int(np.count_nonzero(has_idle))

    n_chunks = n + n_idle
    pos_op = np.arange(n) + np.cumsum(has_idle)
    pos_idle = (pos_op - 1)[has_idle]
    cdt = np.empty(n_chunks)
    ca0 = np.empty(n_chunks)
    cga = np.empty(n_chunks)
    cs0 = np.empty(n_chunks)
    cgs = np.empty(n_chunks)
    cstart = np.empty(n_chunks)
    cend = np.empty(n_chunks)
    cop = np.empty(n_chunks, dtype=np.intp)
    cfreq = np.empty(n_chunks) if fop is not None else None
    cdt[pos_op] = end - start
    ca0[pos_op] = a0
    cga[pos_op] = ga
    cs0[pos_op] = s0
    cgs[pos_op] = gs
    cstart[pos_op] = start
    cend[pos_op] = end
    cop[pos_op] = np.arange(n)
    if cfreq is not None:
        cfreq[pos_op] = fop
    if n_idle:
        cdt[pos_idle] = idle_dt[has_idle]
        ca0[pos_idle] = idle_a0[has_idle]
        cga[pos_idle] = idle_ga[has_idle]
        cs0[pos_idle] = idle_s0[has_idle]
        cgs[pos_idle] = idle_gs[has_idle]
        cstart[pos_idle] = prev_end[has_idle]
        cend[pos_idle] = start[has_idle]
        cop[pos_idle] = IDLE_INDEX
        if cfreq is not None:
            cfreq[pos_idle] = fgap[has_idle]
    return (
        start, end, pos_op, cstart, cend, cdt, cop,
        ca0, cga, cs0, cgs, cfreq,
    )


def _peak(celsius: np.ndarray, start: float) -> float:
    """The hottest chunk temperature, ``start`` when there is none."""
    return float(celsius.max()) if celsius.size else start


class _ChunkArrays:
    """Column-oriented chunk storage backing the lazy ``chunks`` view."""

    __slots__ = ("start", "end", "freq", "aw", "sw", "celsius", "op")

    def __init__(self, start, end, freq, aw, sw, celsius, op) -> None:
        self.start = start
        self.end = end
        self.freq = freq
        self.aw = aw
        self.sw = sw
        self.celsius = celsius
        self.op = op

    def chunk(self, i: int) -> PowerChunk:
        return PowerChunk(
            start_us=float(self.start[i]),
            end_us=float(self.end[i]),
            freq_mhz=float(self.freq[i]),
            aicore_watts=float(self.aw[i]),
            soc_watts=float(self.sw[i]),
            celsius=float(self.celsius[i]),
            op_index=int(self.op[i]),
        )

    def lazy(self) -> _LazySeq:
        return _LazySeq(len(self.start), self.chunk)


class _RecordArrays:
    """Column-oriented record storage backing the lazy ``records`` view."""

    __slots__ = ("compiled", "start", "end", "f0", "f1", "aj", "sj")

    def __init__(self, compiled, start, end, f0, f1, aj, sj) -> None:
        self.compiled = compiled
        self.start = start
        self.end = end
        self.f0 = f0
        self.f1 = f1
        self.aj = aj
        self.sj = sj

    def record(self, i: int) -> OperatorRecord:
        start_freq = float(self.f0[i])
        return OperatorRecord(
            index=i,
            evaluation=self.compiled.evaluation_for(i, start_freq),
            start_us=float(self.start[i]),
            end_us=float(self.end[i]),
            start_freq_mhz=start_freq,
            end_freq_mhz=float(self.f1[i]),
            aicore_energy_j=float(self.aj[i]),
            soc_energy_j=float(self.sj[i]),
        )

    def lazy(self) -> _LazySeq:
        return _LazySeq(len(self.start), self.record)


class TraceEngine:
    """Compiled-trace executor attached to one :class:`NpuDevice`."""

    def __init__(self, npu: NpuSpec, evaluator) -> None:
        self._npu = npu
        self._evaluator = evaluator
        self._compiled: dict[int, tuple[weakref.ref, CompiledTrace]] = {}
        self._spec_repr: str | None = None
        self.stats = EngineStats()

    @property
    def npu(self) -> NpuSpec:
        """The hardware description executions are integrated against."""
        return self._npu

    def supports(self, timeline: object) -> bool:
        """Whether a plan is eligible for the fast path.

        Exactly a plain wall-clock :class:`FrequencyTimeline` (constant or
        switching), or exactly a plain :class:`AnchoredFrequencyPlan` with
        zero extra controller delay.  Subclasses — the fault-injecting and
        guarded plans — are stateful in ways the compiler must not assume
        away, and keep the reference loop.
        """
        if type(timeline) is FrequencyTimeline:
            return True
        return (
            type(timeline) is AnchoredFrequencyPlan
            and timeline.extra_delay_us == 0.0
        )

    def active_for(self, timeline: object) -> bool:
        """``supports`` gated by the global enable flag."""
        return _FAST_PATH_ENABLED and self.supports(timeline)

    def execute(
        self,
        trace: "Trace",
        timeline: FrequencyTimeline | AnchoredFrequencyPlan,
        initial_celsius: float | None = None,
    ) -> ExecutionResult:
        """Run one iteration on the fast path (caller checked eligibility)."""
        compiled = self.compiled(trace)
        thermal = self._npu.thermal
        celsius0 = (
            thermal.ambient_celsius
            if initial_celsius is None
            else float(initial_celsius)
        )
        self.stats.fast_path_runs += 1
        if type(timeline) is AnchoredFrequencyPlan:
            gap_freqs, op_freqs = timeline.compile_op_schedule(compiled.n_ops)
            return self._run_oplevel(compiled, op_freqs, gap_freqs, celsius0)
        if timeline.switch_count == 0:
            return self._run_constant(
                compiled, timeline.initial_mhz, celsius0
            )
        return self._run_scan(compiled, timeline, celsius0)

    def compiled(self, trace: "Trace") -> CompiledTrace:
        """The (cached) lowering of ``trace`` against this device.

        Misses consult the process-wide cache before compiling: another
        engine with a value-identical spec may already have lowered this
        trace, and lowering is pure, so adopting its result (evaluator
        included) changes nothing downstream.  ``stats.compiled_traces``
        counts this engine's cache misses either way.
        """
        key = id(trace)
        cached = self._compiled.get(key)
        if cached is not None:
            ref, compiled = cached
            if ref() is trace:
                return compiled
        if len(self._compiled) >= _COMPILED_CACHE_LIMIT:
            self._compiled = {
                k: (ref, comp)
                for k, (ref, comp) in self._compiled.items()
                if ref() is not None
            }
            while len(self._compiled) >= _COMPILED_CACHE_LIMIT:
                self._compiled.pop(next(iter(self._compiled)))
        spec_key = self._spec_key()
        shared_key = (key, spec_key) if spec_key is not None else None
        if shared_key is not None:
            with _SHARED_COMPILED_LOCK:
                shared = _SHARED_COMPILED.get(shared_key)
            if shared is not None:
                ref, compiled = shared
                if ref() is trace:
                    self.stats.compiled_traces += 1
                    self._compiled[key] = (ref, compiled)
                    return compiled
        compiled = CompiledTrace(trace, self._evaluator)
        self.stats.compiled_traces += 1
        self._compiled[key] = (weakref.ref(trace), compiled)
        if shared_key is not None:
            with _SHARED_COMPILED_LOCK:
                if len(_SHARED_COMPILED) >= _COMPILED_CACHE_LIMIT:
                    stale = [
                        k
                        for k, (ref, _) in _SHARED_COMPILED.items()
                        if ref() is None
                    ]
                    for k in stale:
                        del _SHARED_COMPILED[k]
                    while len(_SHARED_COMPILED) >= _COMPILED_CACHE_LIMIT:
                        _SHARED_COMPILED.pop(next(iter(_SHARED_COMPILED)))
                _SHARED_COMPILED[shared_key] = self._compiled[key]
        return compiled

    def _spec_key(self) -> str | None:
        """Value key of this engine for the process-wide compiled cache.

        ``None`` (never share) unless the evaluator is a plain
        :class:`GroundTruthEvaluator` — wrapped evaluators (e.g. the
        test reference's duration-scaling ``VariedEvaluator``) change
        the lowering output, and their state is not captured by any
        value key.  The
        key covers both the engine spec (thermal constants baked into
        cached const solutions) and the evaluator spec (which columns
        and grids are computed from) so equal keys imply bit-identical
        compiled output.
        """
        spec_key = self._spec_repr
        if spec_key is None:
            from repro.npu.execution import GroundTruthEvaluator

            if type(self._evaluator) is not GroundTruthEvaluator:
                spec_key = ""
            else:
                spec_key = (
                    repr(self._npu) + "\x00" + repr(self._evaluator.npu)
                )
            self._spec_repr = spec_key
        return spec_key or None

    # ------------------------------------------------------------------
    # Operator-level vectorised paths
    # ------------------------------------------------------------------

    def _run_constant(
        self,
        compiled: CompiledTrace,
        freq_mhz: float,
        celsius0: float,
    ) -> ExecutionResult:
        """A constant-frequency run from the cached affine reduction
        (see :class:`_ConstSolution`): O(1) Python work, plus one array
        pass over the chunk temperatures for the run's peak."""
        thermal = self._npu.thermal
        ambient = thermal.ambient_celsius
        sol = compiled.const_solution(
            freq_mhz, thermal.celsius_per_watt, thermal.time_constant_us
        )
        delta0 = celsius0 - ambient
        # Every chunk's temperature, as chunk(i) computes it.
        celsius = ambient + (sol.th_a + sol.th_b * delta0)

        def chunk(i: int) -> PowerChunk:
            ds = sol.th_a[i] + sol.th_b[i] * delta0
            return PowerChunk(
                start_us=float(sol.cstart[i]),
                end_us=float(sol.cend[i]),
                freq_mhz=sol.freq,
                aicore_watts=float(sol.ca0[i] + sol.cga[i] * ds),
                soc_watts=float(sol.cs0[i] + sol.cgs[i] * ds),
                celsius=float(ambient + ds),
                op_index=int(sol.cop[i]),
            )

        def record(i: int) -> OperatorRecord:
            j = sol.pos_op[i]
            ds = sol.th_a[j] + sol.th_b[j] * delta0
            dt = float(sol.cdt[j])
            return OperatorRecord(
                index=i,
                evaluation=compiled.evaluation_for(i, sol.freq),
                start_us=float(sol.start[i]),
                end_us=float(sol.end[i]),
                start_freq_mhz=sol.freq,
                end_freq_mhz=sol.freq,
                aicore_energy_j=float(sol.ca0[j] + sol.cga[j] * ds)
                * dt / US_PER_S,
                soc_energy_j=float(sol.cs0[j] + sol.cgs[j] * ds)
                * dt / US_PER_S,
            )

        return ExecutionResult(
            trace_name=compiled.trace.name,
            duration_us=sol.duration,
            aicore_energy_j=sol.e0_aicore + sol.e1_aicore * delta0,
            soc_energy_j=sol.e0_soc + sol.e1_soc * delta0,
            records=_LazySeq(compiled.n_ops, record),
            chunks=_LazySeq(len(sol.cdt), chunk),
            start_celsius=celsius0,
            end_celsius=ambient + (sol.end_a + sol.end_b * delta0),
            peak_celsius=_peak(celsius, celsius0),
            op_start_freq_mhz=np.full(compiled.n_ops, sol.freq),
        )

    def _run_oplevel(
        self,
        compiled: CompiledTrace,
        op_freqs: Sequence[float],
        gap_freqs: Sequence[float],
        celsius0: float,
    ) -> ExecutionResult:
        """One vectorised pass for per-operator-constant frequencies."""
        n = compiled.n_ops
        fop = np.asarray(op_freqs, dtype=float)
        fgap = np.asarray(gap_freqs, dtype=float)
        distinct = set(fop.tolist()) | set(fgap.tolist())
        compiled.prime_columns(sorted(distinct))
        cols = {f: compiled.column(f) for f in distinct}
        if len(cols) == 1:
            col = next(iter(cols.values()))
            d, a0, ga, s0, gs = col.dur, col.a0, col.ga, col.s0, col.gs
            idle_a0 = np.full(n, col.idle_a0)
            idle_ga = np.full(n, col.idle_ga)
            idle_s0 = np.full(n, col.idle_s0)
            idle_gs = np.full(n, col.idle_gs)
        else:
            d = np.empty(n)
            a0 = np.empty(n)
            ga = np.empty(n)
            s0 = np.empty(n)
            gs = np.empty(n)
            idle_a0 = np.empty(n)
            idle_ga = np.empty(n)
            idle_s0 = np.empty(n)
            idle_gs = np.empty(n)
            for f, col in cols.items():
                mask = fop == f
                if mask.any():
                    d[mask] = col.dur[mask]
                    a0[mask] = col.a0[mask]
                    ga[mask] = col.ga[mask]
                    s0[mask] = col.s0[mask]
                    gs[mask] = col.gs[mask]
                gmask = fgap == f
                if gmask.any():
                    idle_a0[gmask] = col.idle_a0
                    idle_ga[gmask] = col.idle_ga
                    idle_s0[gmask] = col.idle_s0
                    idle_gs[gmask] = col.idle_gs

        (start, end, pos_op, cstart, cend, cdt, cop,
         ca0, cga, cs0, cgs, cfreq) = _chunk_geometry(
            compiled, d, a0, ga, s0, gs,
            idle_a0, idle_ga, idle_s0, idle_gs,
            fop=fop, fgap=fgap,
        )

        thermal = self._npu.thermal
        delta0 = celsius0 - thermal.ambient_celsius
        th_a, th_b, end_a, end_b = _affine_parts(
            cdt, cs0, cgs,
            thermal.celsius_per_watt, thermal.time_constant_us,
        )
        delta_start = th_a + th_b * delta0
        caw = ca0 + cga * delta_start
        csw = cs0 + cgs * delta_start
        aicore_j = float(np.dot(caw, cdt)) / US_PER_S
        soc_j = float(np.dot(csw, cdt)) / US_PER_S

        celsius = thermal.ambient_celsius + delta_start
        chunks = _ChunkArrays(cstart, cend, cfreq, caw, csw, celsius, cop)
        op_aj = (caw[pos_op] * cdt[pos_op]) / US_PER_S
        op_sj = (csw[pos_op] * cdt[pos_op]) / US_PER_S
        records = _RecordArrays(compiled, start, end, fop, fop, op_aj, op_sj)
        return ExecutionResult(
            trace_name=compiled.trace.name,
            duration_us=float(end[-1]),
            aicore_energy_j=aicore_j,
            soc_energy_j=soc_j,
            records=records.lazy(),
            chunks=chunks.lazy(),
            start_celsius=celsius0,
            end_celsius=float(
                thermal.ambient_celsius + (end_a + end_b * delta0)
            ),
            peak_celsius=_peak(celsius, celsius0),
            op_start_freq_mhz=fop,
        )

    # ------------------------------------------------------------------
    # Wall-clock switching-timeline scan
    # ------------------------------------------------------------------

    def _run_scan(
        self,
        compiled: CompiledTrace,
        timeline: FrequencyTimeline,
        celsius0: float,
    ) -> ExecutionResult:
        """O(#chunks) scan splitting operators at wall-clock switches."""
        switches = timeline.switches
        times = [s.time_us for s in switches]
        freqs_after = [s.freq_mhz for s in switches]
        n_switches = len(times)
        distinct = {timeline.initial_mhz, *freqs_after}
        compiled.prime_columns(sorted(distinct))
        tables = {}
        for f in distinct:
            col = compiled.column(f)
            tables[f] = (col, *col.as_lists())

        thermal = self._npu.thermal
        ambient = thermal.ambient_celsius
        k = thermal.celsius_per_watt
        tau = thermal.time_constant_us
        exp = math.exp
        gap_l = compiled.gap.tolist()
        host_l = compiled.host.tolist()
        n = compiled.n_ops

        cstart: list[float] = []
        cend: list[float] = []
        cfreq: list[float] = []
        caw: list[float] = []
        csw: list[float] = []
        ccel: list[float] = []
        cop: list[int] = []
        r_start: list[float] = []
        r_end: list[float] = []
        r_f0: list[float] = []
        r_f1: list[float] = []
        r_aj: list[float] = []
        r_sj: list[float] = []

        celsius = celsius0
        clock = 0.0
        ptr = 0  # switches with effect time <= clock
        freq = timeline.initial_mhz
        aicore_energy = 0.0
        soc_energy = 0.0
        previous_start = 0.0

        for i in range(n):
            idle_until = clock + gap_l[i]
            host = host_l[i]
            if host > 0:
                paced = previous_start + host
                if paced > idle_until:
                    idle_until = paced
            while clock < idle_until:
                while ptr < n_switches and times[ptr] <= clock:
                    freq = freqs_after[ptr]
                    ptr += 1
                chunk_end = (
                    min(idle_until, times[ptr])
                    if ptr < n_switches
                    else idle_until
                )
                dt = chunk_end - clock
                col = tables[freq][0]
                delta = celsius - ambient
                aw = col.idle_a0 + col.idle_ga * delta
                sw = col.idle_s0 + col.idle_gs * delta
                cstart.append(clock)
                cend.append(chunk_end)
                cfreq.append(freq)
                caw.append(aw)
                csw.append(sw)
                ccel.append(celsius)
                cop.append(IDLE_INDEX)
                aicore_energy += aw * dt / US_PER_S
                soc_energy += sw * dt / US_PER_S
                target = ambient + k * sw
                celsius = target + (celsius - target) * exp(-dt / tau)
                clock = chunk_end
            previous_start = clock
            # Operator: split at switch boundaries, carrying progress.
            start_us = clock
            progress = 0.0
            op_aj = 0.0
            op_sj = 0.0
            start_freq = None
            while progress < 1.0:
                while ptr < n_switches and times[ptr] <= clock:
                    freq = freqs_after[ptr]
                    ptr += 1
                if start_freq is None:
                    start_freq = freq
                _, dur_l, a0_l, ga_l, s0_l, gs_l = tables[freq]
                duration = dur_l[i]
                remaining = (1.0 - progress) * duration
                if ptr < n_switches and times[ptr] < clock + remaining:
                    chunk_end = times[ptr]
                    progress += (chunk_end - clock) / duration
                else:
                    chunk_end = clock + remaining
                    progress = 1.0
                dt = chunk_end - clock
                delta = celsius - ambient
                aw = a0_l[i] + ga_l[i] * delta
                sw = s0_l[i] + gs_l[i] * delta
                cstart.append(clock)
                cend.append(chunk_end)
                cfreq.append(freq)
                caw.append(aw)
                csw.append(sw)
                ccel.append(celsius)
                cop.append(i)
                op_aj += aw * dt / US_PER_S
                op_sj += sw * dt / US_PER_S
                target = ambient + k * sw
                celsius = target + (celsius - target) * exp(-dt / tau)
                clock = chunk_end
            aicore_energy += op_aj
            soc_energy += op_sj
            r_start.append(start_us)
            r_end.append(clock)
            r_f0.append(start_freq)
            r_f1.append(freq)
            r_aj.append(op_aj)
            r_sj.append(op_sj)

        chunks = _ChunkArrays(cstart, cend, cfreq, caw, csw, ccel, cop)
        records = _RecordArrays(
            compiled, r_start, r_end, r_f0, r_f1, r_aj, r_sj
        )
        return ExecutionResult(
            trace_name=compiled.trace.name,
            duration_us=clock,
            aicore_energy_j=aicore_energy,
            soc_energy_j=soc_energy,
            records=records.lazy(),
            chunks=chunks.lazy(),
            start_celsius=celsius0,
            end_celsius=celsius,
            peak_celsius=max(ccel, default=celsius0),
            op_start_freq_mhz=np.array(r_f0, dtype=float),
        )
