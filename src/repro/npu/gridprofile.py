"""One-pass multi-frequency profiling over a compiled trace.

The reference cold path profiles a workload one frequency at a time:
``NpuDevice.run_stable`` plays the whole trace per grid point, then the
CANN-style profiler and the power telemetry walk every operator record and
power chunk again, drawing measurement noise scalar by scalar.  With the
compiled-trace engine the run itself is already a cached affine reduction
(:class:`~repro.npu.engine._ConstSolution`), so nearly all of that cost is
the per-record/per-chunk Python re-walk.

:func:`profile_cold_grid` replaces the walk: it evaluates the unique-spec
grid once (:meth:`CompiledTrace.unique_grid`), replays the ``run_stable``
thermal-equilibrium iteration on the cached energy scalars, and applies
the measurement-noise layer as **one vectorised draw per frequency pass**
that reproduces the sequential RNG stream exactly:

* the profiler draws, per record, one duration factor (iff
  ``duration_sigma > 0``) followed by one additive ratio draw per present
  pipe (iff ``utilisation_sigma > 0``) — a ragged but fixed layout, so a
  single ``Generator.normal(0.0, sigma_array)`` call consumes the stream
  identically to the scalar call sequence;
* the telemetry applies one multiplicative error per operator name and
  rail, aicore before soc — a single interleaved ``2K`` draw.

The resulting :class:`~repro.npu.profiler.ProfileReport` objects and
per-name power readings compare equal — floats bit for bit — to what the
sequential ``run_stable -> profile -> measure_operator_power`` loop
produces (``tests/test_pipeline_batched.py`` pins this), which is what
keeps downstream ``GaResult.best_genes`` byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.errors import ProfilingError
from repro.npu.operators import OperatorKind
from repro.npu.profiler import ProfiledOperator, ProfileReport
from repro.npu.vectoreval import SLOT_PIPES
from repro.units import US_PER_S

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.npu.device import NpuDevice
    from repro.workloads.trace import Trace

#: ``NpuDevice.run_stable`` defaults, which the optimizer's profiling
#: sweep uses; the grid replay must iterate the same fixed point.
_STABLE_MAX_ROUNDS = 6
_STABLE_TOL_CELSIUS = 0.3


@dataclass(frozen=True)
class BaselineOpArrays:
    """Columnar view of the baseline-frequency profile pass.

    Array-path preprocessing (classification + LFC/HFC staging) consumes
    these instead of walking :class:`ProfiledOperator` objects.  ``present``
    and ``ratios`` are ``(n, 6)`` in :data:`SLOT_PIPES` slot order with
    exact zeros for absent pipes — the same floats the per-op ratio dicts
    would hold, in the same iteration order.
    """

    freq_mhz: float
    start_us: np.ndarray
    duration_us: np.ndarray
    gap_before_us: np.ndarray
    is_compute: np.ndarray
    present: np.ndarray
    ratios: np.ndarray


@dataclass(frozen=True)
class GridProfileData:
    """Batched per-operator profiling data for downstream model fitting.

    ``durations`` holds the *noisy* measured durations, one row per trace
    operator and one column per frequency in ``freqs_mhz`` (ascending) —
    the same numbers as ``reports[f].operators[i].duration_us``.
    ``baseline`` carries the baseline pass as columnar arrays so the
    staging pipeline can skip report materialisation entirely.
    """

    trace_name: str
    names: tuple[str, ...]
    name_ids: np.ndarray
    kinds: tuple[OperatorKind, ...]
    op_types: tuple[str, ...]
    freqs_mhz: tuple[float, ...]
    durations: np.ndarray
    baseline: BaselineOpArrays | None = None

    @property
    def name_count(self) -> int:
        """Distinct operator names, in first-appearance order."""
        return len(self.names)


class _LazyReports:
    """Per-frequency raw profile arrays, materialised into reports on demand.

    Building :class:`ProfiledOperator` objects is the single most
    expensive part of a grid pass, yet the batched cold path never reads
    them — model fitting uses the stacked duration matrix and staging
    uses :class:`BaselineOpArrays`.  The builder therefore stores each
    pass's raw arrays and only runs the object loop when a report is
    actually requested; materialisation uses the exact loop (and the
    exact ``.tolist()`` floats) the eager path used, so the reports
    compare equal bit for bit whenever someone does look.
    """

    def __init__(
        self,
        trace_name: str,
        names: list[str],
        op_types: list[str],
        kinds: list,
        pres_ops: np.ndarray,
        u_starts: np.ndarray,
    ) -> None:
        self._trace_name = trace_name
        self._names = names
        self._op_types = op_types
        self._kinds = kinds
        self._pres_ops = pres_ops
        self._base_l = u_starts.tolist()
        self._raw: dict[float, tuple] = {}
        self._cache: dict[float, ProfileReport] = {}
        self._pipe_lists: list[tuple] | None = None

    @property
    def sweep(self) -> tuple[float, ...]:
        """The swept frequencies, in insertion (ascending) order."""
        return tuple(self._raw)

    def add_pass(
        self,
        freq: float,
        start: np.ndarray,
        noisy_dur: np.ndarray,
        gaps: np.ndarray,
        ratios_flat: np.ndarray,
        total_duration_us: float,
    ) -> None:
        """Record one frequency pass's raw arrays."""
        self._raw[freq] = (start, noisy_dur, gaps, ratios_flat, total_duration_us)

    def _pipes(self) -> list[tuple]:
        # Presence patterns repeat heavily across operators, so intern the
        # per-op pipe tuples by their 6-bit presence code (lazily — only
        # report materialisation needs them).
        if self._pipe_lists is None:
            pres_ops = self._pres_ops
            codes = (pres_ops @ (1 << np.arange(6))).tolist()
            pres_l = pres_ops.tolist()
            pipe_cache: dict[int, tuple] = {}
            pipe_lists = []
            for i, code in enumerate(codes):
                tup = pipe_cache.get(code)
                if tup is None:
                    row = pres_l[i]
                    tup = tuple(SLOT_PIPES[s] for s in range(6) if row[s])
                    pipe_cache[code] = tup
                pipe_lists.append(tup)
            self._pipe_lists = pipe_lists
        return self._pipe_lists

    def report_for(self, freq: float) -> ProfileReport:
        """The full :class:`ProfileReport` of one swept frequency."""
        report = self._cache.get(freq)
        if report is not None:
            return report
        try:
            start, noisy_dur, gaps, ratios_flat, total = self._raw[freq]
        except KeyError:
            raise ProfilingError(
                f"frequency {freq} MHz was not in the profiling sweep"
            ) from None
        names = self._names
        op_types = self._op_types
        kinds = self._kinds
        pipe_lists = self._pipes()
        start_l = start.tolist()
        dur_l = noisy_dur.tolist()
        gap_l = gaps.tolist()
        ratio_l = ratios_flat.tolist()
        base_l = self._base_l
        # Frozen-dataclass __init__ pays object.__setattr__ per field,
        # which dominates this hot loop; installing the instance dict
        # directly produces identical (==, hash, pickle) objects.
        new_op = ProfiledOperator.__new__
        set_dict = object.__setattr__
        operators = []
        for i in range(len(names)):
            pipes = pipe_lists[i]
            lo = base_l[i]
            op = new_op(ProfiledOperator)
            set_dict(
                op,
                "__dict__",
                {
                    "index": i,
                    "name": names[i],
                    "op_type": op_types[i],
                    "kind": kinds[i],
                    "start_us": start_l[i],
                    "duration_us": dur_l[i],
                    "gap_before_us": gap_l[i],
                    "freq_mhz": freq,
                    "ratios": dict(zip(pipes, ratio_l[lo:lo + len(pipes)])),
                    "straddled_switch": False,
                },
            )
            operators.append(op)
        report = ProfileReport(
            trace_name=self._trace_name,
            freq_label_mhz=freq,
            operators=tuple(operators),
            total_duration_us=total,
        )
        self._cache[freq] = report
        return report


class _LazyPowerReadings(Mapping):
    """Per-frequency power readings, materialised as dicts on demand.

    The batched power-table builder consumes the underlying arrays
    directly (``GridProfileResult.power_arrays``); the per-name dict view
    exists for the sequential-sweep API and is only packed when someone
    actually indexes it.  Keys, order and values match the eager dicts.
    """

    __slots__ = ("_names", "_arrays", "_dicts")

    def __init__(
        self,
        names: tuple[str, ...],
        arrays: dict[float, tuple[np.ndarray, np.ndarray]],
    ) -> None:
        self._names = names
        self._arrays = arrays
        self._dicts: dict[float, dict[str, tuple[float, float]]] = {}

    def __getitem__(self, freq: float) -> dict[str, tuple[float, float]]:
        built = self._dicts.get(freq)
        if built is None:
            read_a, read_s = self._arrays[freq]
            read_a_l = read_a.tolist()
            read_s_l = read_s.tolist()
            built = {
                name: (read_a_l[t], read_s_l[t])
                for t, name in enumerate(self._names)
            }
            self._dicts[freq] = built
        return built

    def __iter__(self):
        return iter(self._arrays)

    def __len__(self) -> int:
        return len(self._arrays)

    def __contains__(self, freq: object) -> bool:
        return freq in self._arrays

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Mapping):
            return dict(self) == dict(other)
        return NotImplemented

    __hash__ = None  # mappings are mutable-equality containers


class GridProfileResult:
    """Everything one cold-path profiling pass produces.

    ``reports`` covers every swept frequency (ascending); telemetry
    readings exist only for the model-fitting frequencies, exactly like
    the sequential sweep.  Reports materialise lazily (and are cached) —
    the batched pipeline reads the stacked ``data`` arrays instead, so a
    cold run that never inspects a report never pays for its objects.
    """

    def __init__(
        self,
        power_readings: "Mapping[float, dict[str, tuple[float, float]]]",
        data: GridProfileData,
        builder: _LazyReports,
        power_arrays: dict[float, tuple[np.ndarray, np.ndarray]] | None = None,
    ) -> None:
        self.power_readings = power_readings
        self.data = data
        self._builder = builder
        #: Per-fit-frequency ``(aicore, soc)`` reading arrays aligned with
        #: ``data.names`` — the power-table builder's zero-copy input.
        self.power_arrays = power_arrays

    @property
    def sweep(self) -> tuple[float, ...]:
        """The swept frequencies, ascending."""
        return self._builder.sweep

    @property
    def reports(self) -> tuple[tuple[float, ProfileReport], ...]:
        """``(freq, report)`` pairs for the full sweep (materialises all)."""
        return tuple(
            (freq, self._builder.report_for(freq))
            for freq in self._builder.sweep
        )

    def report_for(self, freq: float) -> ProfileReport:
        """One swept frequency's report (materialised on first request)."""
        return self._builder.report_for(freq)


def profile_cold_grid(
    device: "NpuDevice",
    trace: "Trace",
    profile_freqs_mhz: Sequence[float],
    baseline_freq_mhz: float,
    profiler_rng: np.random.Generator,
    telemetry_rng: np.random.Generator,
) -> GridProfileResult:
    """Profile ``trace`` across the whole frequency sweep in one pass.

    Args:
        device: the target device; its compiled-trace engine lowers the
            trace.
        profile_freqs_mhz: the model-fitting frequencies (telemetry runs
            at these).
        baseline_freq_mhz: the maximum-frequency baseline point (profiled
            but only measured if it is also a fitting frequency).
        profiler_rng / telemetry_rng: the *instruments'* generators — the
            draws consume their streams exactly as the sequential sweep
            would.
    """
    npu = device.npu
    validate = npu.frequencies.validate
    profile_set = {validate(float(f)) for f in profile_freqs_mhz}
    sweep = sorted(profile_set | {validate(float(baseline_freq_mhz))})

    compiled = device.engine.compiled(trace)
    n = compiled.n_ops
    if n == 0:
        raise ProfilingError(
            f"execution of {trace.name!r} has no operator records"
        )
    grid = compiled.unique_grid(sweep)

    entries = trace.entries
    specs = [entry.spec for entry in entries]
    names = [spec.name for spec in specs]
    op_types = [spec.op_type for spec in specs]
    kinds = [spec.kind for spec in specs]
    name_id_map: dict[str, int] = {}
    first_ops: list[int] = []
    ids_l: list[int] = []
    for i, name in enumerate(names):
        t = name_id_map.get(name)
        if t is None:
            t = len(name_id_map)
            name_id_map[name] = t
            first_ops.append(i)
        ids_l.append(t)
    name_ids = np.asarray(ids_l, dtype=np.intp)
    uniq_names = tuple(name_id_map)
    kinds_by_name = tuple(kinds[i] for i in first_ops)
    op_types_by_name = tuple(op_types[i] for i in first_ops)

    idx = compiled.unique_index
    pres_ops = grid.present[idx]  # (n, 6) bool, frequency-independent
    k_per_op = pres_ops.sum(axis=1).astype(np.intp)
    u_starts = np.concatenate(([0], np.cumsum(k_per_op)))
    builder = _LazyReports(
        trace_name=trace.name,
        names=names,
        op_types=op_types,
        kinds=kinds,
        pres_ops=pres_ops,
        u_starts=u_starts,
    )

    # Flat per-pass noise-sigma layout: per record, one duration draw (iff
    # duration_sigma > 0) then one draw per present pipe (iff
    # utilisation_sigma > 0) — the scalar profiler's exact draw order.
    noise = npu.noise
    dsig = noise.duration_sigma
    usig = noise.utilisation_sigma
    psig = noise.power_sigma
    d_count = 1 if dsig > 0 else 0
    u_counts = k_per_op if usig > 0 else np.zeros(n, dtype=np.intp)
    per_op = d_count + u_counts
    starts = np.concatenate(([0], np.cumsum(per_op)))[:-1]
    total_draws = int(per_op.sum()) if n else 0
    sigma_flat = np.empty(total_draws)
    ratio_pos: np.ndarray | None = None
    if d_count:
        sigma_flat[starts] = dsig
    if usig > 0:
        k_total = int(k_per_op.sum())
        ratio_pos = np.repeat(starts + d_count, k_per_op) + (
            np.arange(k_total) - np.repeat(u_starts[:-1], k_per_op)
        )
        sigma_flat[ratio_pos] = usig

    thermal = npu.thermal
    ambient = thermal.ambient_celsius
    k_cpw = thermal.celsius_per_watt
    tau = thermal.time_constant_us

    baseline_valid = validate(float(baseline_freq_mhz))
    baseline_arrays: BaselineOpArrays | None = None
    power_arrays: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    fit_cols: list[np.ndarray] = []
    fit_freqs: list[float] = []
    for freq in sweep:
        sol = compiled.const_solution(freq, k_cpw, tau)

        # run_stable: iterate to the thermal equilibrium fixed point on
        # the cached affine energy scalars (durations, gaps and all noise
        # draws are independent of the start temperature).
        dur_s = sol.duration / US_PER_S
        start_c = ambient
        delta0 = start_c - ambient
        soc_avg = (sol.e0_soc + sol.e1_soc * delta0) / dur_s
        for _ in range(_STABLE_MAX_ROUNDS):
            equilibrium = thermal.equilibrium_celsius(soc_avg)
            if abs(equilibrium - start_c) <= _STABLE_TOL_CELSIUS:
                break
            start_c = equilibrium
            delta0 = start_c - ambient
            soc_avg = (sol.e0_soc + sol.e1_soc * delta0) / dur_s

        true_dur = sol.end - sol.start
        prev_end = np.concatenate(([0.0], sol.end[:-1]))
        gaps = np.maximum(0.0, sol.start - prev_end)

        # Profiler noise: one vectorised draw for the whole pass.
        j = grid.freq_index(freq)
        util_flat = grid.util[idx, :, j][pres_ops]
        if total_draws:
            draws = profiler_rng.normal(0.0, sigma_flat)
        else:
            draws = None
        if d_count and draws is not None:
            factors = np.maximum(0.5, 1.0 + draws[starts])
            noisy_dur = true_dur * factors
        else:
            noisy_dur = true_dur * 1.0
        if ratio_pos is not None and draws is not None:
            noisy_util = util_flat + draws[ratio_pos]
        else:
            noisy_util = util_flat
        ratios_flat = np.minimum(1.0, np.maximum(0.0, noisy_util))

        builder.add_pass(
            freq, sol.start, noisy_dur, gaps, ratios_flat, sol.duration
        )
        if freq == baseline_valid:
            ratios2d = np.zeros((n, 6))
            ratios2d[pres_ops] = ratios_flat
            baseline_arrays = BaselineOpArrays(
                freq_mhz=freq,
                start_us=sol.start,
                duration_us=noisy_dur,
                gap_before_us=gaps,
                is_compute=np.fromiter(
                    (kind is OperatorKind.COMPUTE for kind in kinds),
                    dtype=bool,
                    count=n,
                ),
                present=pres_ops,
                ratios=ratios2d,
            )

        if freq in profile_set:
            fit_cols.append(noisy_dur)
            fit_freqs.append(freq)
            power_arrays[freq] = _measure_grid_power(
                sol, delta0, name_ids, len(uniq_names), psig, telemetry_rng
            )

    data = GridProfileData(
        trace_name=trace.name,
        names=uniq_names,
        name_ids=name_ids,
        kinds=kinds_by_name,
        op_types=op_types_by_name,
        freqs_mhz=tuple(fit_freqs),
        durations=np.column_stack(fit_cols),
        baseline=baseline_arrays,
    )
    return GridProfileResult(
        power_readings=_LazyPowerReadings(uniq_names, power_arrays),
        data=data,
        builder=builder,
        power_arrays=power_arrays,
    )


def _measure_grid_power(
    sol,
    delta0: float,
    name_ids: np.ndarray,
    n_names: int,
    power_sigma: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-name power readings from a cached constant-frequency solution.

    Mirrors :meth:`PowerTelemetry.measure_operator_power`: energy-average
    each name's operator chunks (idle chunks carry no name), then apply
    one multiplicative sensor error per name and rail, aicore before soc.
    Returns the ``(aicore, soc)`` reading arrays in name-id order; the
    dict view is :class:`_LazyPowerReadings`'s job.
    """
    pos = sol.pos_op
    dt = sol.cend[pos] - sol.cstart[pos]
    ds = sol.th_a[pos] + sol.th_b[pos] * delta0
    watts_a = sol.ca0[pos] + sol.cga[pos] * ds
    watts_s = sol.cs0[pos] + sol.cgs[pos] * ds
    energy_a = np.bincount(name_ids, weights=watts_a * dt, minlength=n_names)
    energy_s = np.bincount(name_ids, weights=watts_s * dt, minlength=n_names)
    time_us = np.bincount(name_ids, weights=dt, minlength=n_names)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw_a = energy_a / time_us
        raw_s = energy_s / time_us
    if power_sigma > 0:
        draws = rng.normal(0.0, np.full(2 * n_names, power_sigma))
        factors = np.maximum(0.5, 1.0 + draws)
        read_a = raw_a * factors[0::2]
        read_s = raw_s * factors[1::2]
    else:
        read_a, read_s = raw_a, raw_s
    return read_a, read_s
