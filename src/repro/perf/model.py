"""Per-operator and per-workload performance models (Sect. 4.3).

A :class:`WorkloadPerformanceModel` maps every operator name in a profiled
workload to a duration predictor:

* compute operators get a fitted convex surrogate (Func. 2 by default);
* non-compute operators (AICPU, communication, idle) are frequency-
  insensitive and get their measured mean duration as a constant.

Models are constructed from profiler reports gathered at two (or three)
frequencies — exactly the paper's data-collection protocol, where running
each model once per frequency point suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.errors import FittingError, ProfilingError
from repro.npu.operators import OperatorKind
from repro.npu.profiler import ProfileReport, merge_reports
from repro.perf.fitting import (
    BATCH_FITTERS,
    FitFunction,
    PerformanceFit,
    fit_performance,
    select_fit_frequencies,
)


@dataclass(frozen=True)
class OperatorPerformanceModel:
    """Duration predictor for one operator name."""

    name: str
    op_type: str
    kind: OperatorKind
    #: Fitted surrogate for compute operators; None for fixed-time ones.
    fit: PerformanceFit | None
    #: Constant duration for non-compute operators (and the fallback).
    constant_us: float

    @property
    def frequency_sensitive(self) -> bool:
        """Whether predictions vary with core frequency."""
        return self.fit is not None

    def predict_time_us(self, freq_mhz: float) -> float:
        """Predicted duration at ``freq_mhz``."""
        if self.fit is None:
            return self.constant_us
        return float(self.fit.predict_time_us(freq_mhz))


@dataclass(frozen=True)
class WorkloadPerformanceModel:
    """Duration predictors for every operator of one workload."""

    trace_name: str
    function: FitFunction
    fit_freqs_mhz: tuple[float, ...]
    operators: Mapping[str, OperatorPerformanceModel]

    def __len__(self) -> int:
        return len(self.operators)

    def predict_time_us(self, name: str, freq_mhz: float) -> float:
        """Predicted duration of operator ``name`` at ``freq_mhz``.

        Raises:
            FittingError: for an unknown operator name.
        """
        try:
            model = self.operators[name]
        except KeyError:
            raise FittingError(
                f"no performance model for operator {name!r}"
            ) from None
        return model.predict_time_us(freq_mhz)

    def duration_matrix(
        self, names: Sequence[str], freqs_mhz: Sequence[float]
    ) -> np.ndarray:
        """Matrix of predicted durations, shape ``(len(names), len(freqs))``.

        This is the lookup table the genetic-algorithm scoring uses.  A
        batch-built model evaluates every row as one stacked broadcast of
        its fit parameters; any other model evaluates one vectorised
        surrogate call per row.  The element operations (and their
        association order) are the same either way, so the two matrices
        are bit-identical.
        """
        freqs = np.asarray(list(freqs_mhz), dtype=float)
        if np.any(freqs <= 0):
            raise FittingError("frequency must be positive")
        matrix = np.empty((len(names), freqs.size), dtype=float)
        stacked = getattr(self, "_stacked", None)
        if stacked is not None:
            index, has_fit, constants, params = stacked
            try:
                rows = np.fromiter(
                    map(index.__getitem__, names),
                    dtype=np.intp,
                    count=len(names),
                )
            except KeyError as exc:
                raise FittingError(
                    f"no performance model for operator {exc.args[0]!r}"
                ) from None
            fit_mask = has_fit[rows]
            const_mask = ~fit_mask
            if const_mask.any():
                matrix[const_mask] = (
                    constants[rows[const_mask]][:, None]
                )
            if fit_mask.any():
                p = params[rows[fit_mask]]
                if self.function is FitFunction.QUADRATIC_NO_LINEAR:
                    a, c = p[:, :1], p[:, 1:]
                    matrix[fit_mask] = (a * freqs * freqs + c) / freqs
                else:
                    a, b, c = p[:, :1], p[:, 1:2], p[:, 2:]
                    matrix[fit_mask] = (
                        (a * freqs * freqs + b * freqs + c) / freqs
                    )
            return matrix
        for i, name in enumerate(names):
            try:
                model = self.operators[name]
            except KeyError:
                raise FittingError(
                    f"no performance model for operator {name!r}"
                ) from None
            if model.fit is None:
                matrix[i, :] = model.constant_us
            else:
                matrix[i, :] = model.fit.predict_time_us(freqs)
        return matrix


def build_performance_model(
    reports: Sequence[ProfileReport],
    function: FitFunction = FitFunction.QUADRATIC_NO_LINEAR,
    fit_freqs_mhz: Sequence[float] | None = None,
    allow_missing: bool = False,
) -> WorkloadPerformanceModel:
    """Fit per-operator models from profiler reports at several frequencies.

    Args:
        reports: one report per frequency point for the same trace.
        function: which Sect. 4.3 surrogate to fit for compute operators.
        fit_freqs_mhz: which of the profiled frequencies to fit on;
            defaults to the paper's protocol (extremes, plus the middle for
            three-parameter functions).
        allow_missing: tolerate operators absent from some reports (a
            faulty profiler drops records — see :mod:`repro.npu.faults`).
            Names are unioned across all reports; an operator profiled at
            too few frequencies for ``function`` degrades to a constant
            predictor instead of aborting the model.

    Raises:
        ProfilingError: if the reports are inconsistent, or (unless
            ``allow_missing``) an operator is missing from some reports.
        FittingError: if too few frequencies are available.
    """
    ordered = merge_reports(reports)
    available = [report.freq_label_mhz for report in ordered]
    if fit_freqs_mhz is None:
        chosen = select_fit_frequencies(available, function)
    else:
        chosen = [float(f) for f in fit_freqs_mhz]
        missing = set(chosen) - set(available)
        if missing:
            raise ProfilingError(
                f"requested fit frequencies {sorted(missing)} not profiled "
                f"(available: {available})"
            )
    by_freq = {r.freq_label_mhz: r.durations_by_name() for r in ordered}
    if allow_missing:
        reference: dict[str, object] = {}
        for report in ordered:
            for name, op in report.first_by_name().items():
                reference.setdefault(name, op)
    else:
        reference = ordered[0].first_by_name()

    operators: dict[str, OperatorPerformanceModel] = {}
    for name, profiled in reference.items():
        durations = [by_freq[f].get(name) for f in chosen]
        if any(d is None for d in durations):
            if not allow_missing:
                raise ProfilingError(
                    f"operator {name!r} missing from some frequency reports"
                )
            operators[name] = _degraded_model(
                name, profiled, chosen, by_freq, function
            )
            continue
        mean_duration = float(np.mean([d for d in durations if d is not None]))
        if profiled.kind is OperatorKind.COMPUTE:
            try:
                fit = fit_performance(chosen, durations, function)
            except FittingError:
                # A non-converging curve_fit (it happens with Func. 3's
                # bounded exponential) degrades to a constant predictor
                # rather than aborting the whole workload model.
                fit = None
        else:
            fit = None
        operators[name] = OperatorPerformanceModel(
            name=name,
            op_type=profiled.op_type,
            kind=profiled.kind,
            fit=fit,
            constant_us=mean_duration,
        )
    return WorkloadPerformanceModel(
        trace_name=ordered[0].trace_name,
        function=function,
        fit_freqs_mhz=tuple(chosen),
        operators=operators,
    )


class _LazyOperatorMap(Mapping):
    """Per-name model mapping that materialises objects on first access.

    The batched cold path predicts through the stacked arrays attached
    to the workload model (the ``duration_matrix`` fast path) and never
    reads the per-name :class:`OperatorPerformanceModel` objects, so
    building thousands of them eagerly is pure constructor overhead.
    Iteration order, lookups and the materialised objects are identical
    to the eager dict the scalar builder produces.
    """

    __slots__ = (
        "_index",
        "_names",
        "_op_types",
        "_kinds",
        "_function",
        "_params",
        "_has_fit",
        "_means",
        "_dict",
    )

    def __init__(
        self, *, index, names, op_types, kinds, function, params, has_fit,
        means,
    ):
        self._index = index
        self._names = names
        self._op_types = op_types
        self._kinds = kinds
        self._function = function
        self._params = params
        self._has_fit = has_fit
        self._means = means
        self._dict: dict[str, OperatorPerformanceModel] | None = None

    def _materialise(self) -> dict[str, OperatorPerformanceModel]:
        built = self._dict
        if built is None:
            # Bypass dataclass __init__ (and the frozen __setattr__
            # dance): neither class has a __post_init__, and with
            # thousands of operators the ordinary constructors dominate.
            built = {}
            new_fit = PerformanceFit.__new__
            new_op = OperatorPerformanceModel.__new__
            set_dict = object.__setattr__
            function = self._function
            params_l = self._params.tolist()
            has_fit_l = self._has_fit.tolist()
            means_l = self._means.tolist()
            for i, name in enumerate(self._names):
                fit = None
                if has_fit_l[i]:
                    fit = new_fit(PerformanceFit)
                    set_dict(
                        fit,
                        "__dict__",
                        {"function": function, "params": tuple(params_l[i])},
                    )
                op = new_op(OperatorPerformanceModel)
                set_dict(
                    op,
                    "__dict__",
                    {
                        "name": name,
                        "op_type": self._op_types[i],
                        "kind": self._kinds[i],
                        "fit": fit,
                        "constant_us": means_l[i],
                    },
                )
                built[name] = op
            self._dict = built
        return built

    def __getitem__(self, name: str) -> OperatorPerformanceModel:
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


def build_performance_model_batched(
    data,
    function: FitFunction = FitFunction.QUADRATIC_NO_LINEAR,
    fit_freqs_mhz: Sequence[float] | None = None,
) -> WorkloadPerformanceModel:
    """Batched equivalent of :func:`build_performance_model`.

    Consumes the per-operator duration matrix of one grid-profiling pass
    (:class:`repro.npu.gridprofile.GridProfileData`) instead of walking
    ``ProfileReport`` objects: per-name means are grouped ``bincount``
    sums, and all operators are fitted at once with the stacked fitters
    of :mod:`repro.perf.fitting`.  For Func. 2 the resulting parameters —
    and therefore every downstream prediction — are bit-identical to the
    scalar builder; Func. 1 replaces ``curve_fit`` with the exact linear
    least-squares solution (<= 1e-9 relative).  Func. 3 is not batched:
    callers keep the reference builder for it.

    Raises:
        FittingError: for Func. 3, or too few frequencies.
        ProfilingError: if a requested fit frequency was not profiled.
    """
    if function not in BATCH_FITTERS:
        raise FittingError(f"{function.value} has no batched fitter")
    available = [float(f) for f in data.freqs_mhz]
    if fit_freqs_mhz is None:
        chosen = select_fit_frequencies(available, function)
    else:
        chosen = [float(f) for f in fit_freqs_mhz]
        missing = set(chosen) - set(available)
        if missing:
            raise ProfilingError(
                f"requested fit frequencies {sorted(missing)} not profiled "
                f"(available: {available})"
            )
    n_names = data.name_count
    counts = np.bincount(data.name_ids, minlength=n_names)
    cols = [available.index(f) for f in chosen]
    # Per-name mean durations, accumulated in trace order exactly like
    # ``ProfileReport.durations_by_name`` (bincount sums sequentially).
    times = np.empty((n_names, len(chosen)))
    for out_col, col in enumerate(cols):
        sums = np.bincount(
            data.name_ids,
            weights=data.durations[:, col],
            minlength=n_names,
        )
        times[:, out_col] = sums / counts
    mean_durations = np.mean(times, axis=1)

    params, valid = BATCH_FITTERS[function](chosen, times)
    index = {name: i for i, name in enumerate(data.names)}
    compute_mask = np.fromiter(
        (kind is OperatorKind.COMPUTE for kind in data.kinds),
        dtype=bool,
        count=n_names,
    )
    has_fit = compute_mask & np.asarray(valid, dtype=bool)
    operators = _LazyOperatorMap(
        index=index,
        names=data.names,
        op_types=data.op_types,
        kinds=data.kinds,
        function=function,
        params=params,
        has_fit=has_fit,
        means=mean_durations,
    )
    model = WorkloadPerformanceModel(
        trace_name=data.trace_name,
        function=function,
        fit_freqs_mhz=tuple(chosen),
        operators=operators,
    )
    # Stacked per-name arrays for the duration_matrix fast path: the fit
    # parameters and constants already exist as arrays here, so attaching
    # them is free (the model is frozen — lazy attribute install).
    object.__setattr__(
        model,
        "_stacked",
        (index, has_fit, mean_durations, params),
    )
    return model


def _degraded_model(
    name: str,
    profiled,
    chosen: Sequence[float],
    by_freq: Mapping[float, Mapping[str, float]],
    function: FitFunction,
) -> OperatorPerformanceModel:
    """Best-effort predictor for an operator missing from some reports."""
    freqs = [f for f in chosen if by_freq[f].get(name) is not None]
    if not freqs:
        # Seen only at non-fit frequencies: use whatever was measured.
        freqs = sorted(f for f, table in by_freq.items() if name in table)
    durations = [by_freq[f][name] for f in freqs]
    fit = None
    if (
        profiled.kind is OperatorKind.COMPUTE
        and len(freqs) >= function.required_points
    ):
        try:
            fit = fit_performance(freqs, durations, function)
        except FittingError:
            fit = None
    return OperatorPerformanceModel(
        name=name,
        op_type=profiled.op_type,
        kind=profiled.kind,
        fit=fit,
        constant_us=float(np.mean(durations)),
    )


def patch_missing_operators(
    model: WorkloadPerformanceModel, report: ProfileReport
) -> WorkloadPerformanceModel:
    """Fill operators absent from ``model`` with constant predictors.

    Under profiler faults an operator can vanish from every fit report
    yet still appear in the baseline trace the strategy search stages
    over.  Patch such names with their baseline measured duration
    (frequency-insensitive), so scoring never hits an unknown operator.
    """
    durations = report.durations_by_name()
    patched: dict[str, OperatorPerformanceModel] = {}
    for name, profiled in report.first_by_name().items():
        if name in model.operators:
            continue
        patched[name] = OperatorPerformanceModel(
            name=name,
            op_type=profiled.op_type,
            kind=profiled.kind,
            fit=None,
            constant_us=durations[name],
        )
    if not patched:
        return model
    return WorkloadPerformanceModel(
        trace_name=model.trace_name,
        function=model.function,
        fit_freqs_mhz=model.fit_freqs_mhz,
        operators={**dict(model.operators), **patched},
    )
