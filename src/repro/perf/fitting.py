"""The three candidate fitting functions of Sect. 4.3.

Because the PMU cannot expose the breakpoints of the true piecewise-linear
cycle function, the paper fits a smooth convex surrogate to the operator's
measured time at a few frequencies:

* **Func. 1** — ``T(f) = (a f^2 + b f + c) / f``: three parameters, fitted
  with ``scipy.optimize.curve_fit`` (needs >= 3 frequency points).
* **Func. 2** — ``T(f) = (a f^2 + c) / f``: the linear term removed; the two
  parameters are *calculated directly* from two points, which is both the
  cheapest and (empirically, Fig. 15) essentially as accurate.  This is the
  function the paper deploys.
* **Func. 3** — ``T(f) = (a b^f + c) / f``: exponential; prone to overflow,
  so (like the paper) ``b`` is constrained to ``[0, 10]``, which compromises
  its accuracy — it is included to reproduce that negative result.

Only the scalar Func. 1 / Func. 3 fitters import ``scipy.optimize``, on
their first call: the deployed path (Func. 2 and :data:`BATCH_FITTERS`)
is NumPy only, so optimizing, serving and fleet processes never load
scipy.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import FittingError


class FitFunction(enum.Enum):
    """The candidate surrogate functions of Sect. 4.3."""

    #: Func. 1: ``T(f) = (a f^2 + b f + c) / f``.
    QUADRATIC = "func1"
    #: Func. 2: ``T(f) = (a f^2 + c) / f`` — the deployed model.
    QUADRATIC_NO_LINEAR = "func2"
    #: Func. 3: ``T(f) = (a b^f + c) / f``.
    EXPONENTIAL = "func3"

    @property
    def required_points(self) -> int:
        """Minimum number of distinct frequency points needed to fit."""
        return 2 if self is FitFunction.QUADRATIC_NO_LINEAR else 3


@dataclass(frozen=True)
class PerformanceFit:
    """A fitted time-vs-frequency surrogate for one operator."""

    function: FitFunction
    params: tuple[float, ...]

    def predict_time_us(self, freq_mhz: float | np.ndarray) -> float | np.ndarray:
        """Predicted wall time at ``freq_mhz``."""
        f = np.asarray(freq_mhz, dtype=float)
        if np.any(f <= 0):
            raise FittingError("frequency must be positive")
        if self.function is FitFunction.QUADRATIC:
            a, b, c = self.params
            result = (a * f * f + b * f + c) / f
        elif self.function is FitFunction.QUADRATIC_NO_LINEAR:
            a, c = self.params
            result = (a * f * f + c) / f
        else:
            a, b, c = self.params
            result = (a * _safe_pow(b, f) + c) / f
        if np.isscalar(freq_mhz) or f.ndim == 0:
            return float(result)
        return result

    def predict_cycles(self, freq_mhz: float) -> float:
        """Predicted cycle count ``T(f) * f``."""
        return float(self.predict_time_us(freq_mhz)) * freq_mhz


def _safe_pow(base: float, exponent: np.ndarray) -> np.ndarray:
    """``base ** exponent`` with the overflow clamping the paper needed.

    The clamp keeps residuals finite for ``b`` far above 1 (where
    ``b ** 1800`` would overflow), at the price of a zero gradient in the
    clamped region — curve_fit then cannot recover a useful ``b``, which is
    the accuracy compromise Sect. 7.2 describes for Func. 3.
    """
    if base <= 0:
        return np.zeros_like(np.asarray(exponent, dtype=float))
    log_term = np.clip(np.asarray(exponent, dtype=float) * np.log(base), -80.0, 80.0)
    return np.exp(log_term)


def _validate_samples(
    freqs_mhz: Sequence[float], times_us: Sequence[float], needed: int
) -> tuple[np.ndarray, np.ndarray]:
    f = np.asarray(freqs_mhz, dtype=float)
    t = np.asarray(times_us, dtype=float)
    if f.shape != t.shape:
        raise FittingError(f"shape mismatch: {f.shape} vs {t.shape}")
    if np.unique(f).size < needed:
        raise FittingError(
            f"need >= {needed} distinct frequency points, got {np.unique(f).size}"
        )
    if np.any(f <= 0) or np.any(t <= 0):
        raise FittingError("frequencies and times must be positive")
    order = np.argsort(f)
    return f[order], t[order]


def fit_func2(
    freqs_mhz: Sequence[float], times_us: Sequence[float]
) -> PerformanceFit:
    """Fit Func. 2 — closed form, no iterative optimisation.

    With exactly two points the parameters are solved exactly (the paper's
    'directly calculate parameters a and c'); with more points a linear
    least-squares on the ``(f, 1/f)`` basis is used.
    """
    f, t = _validate_samples(freqs_mhz, times_us, needed=2)
    if f.size == 2:
        # Direct calculation (the paper's headline efficiency win over
        # curve_fit): multiply T(f) = a f + c/f through by f and solve the
        # resulting 2x2 system in closed form.
        f1, f2 = float(f[0]), float(f[1])
        t1, t2 = float(t[0]), float(t[1])
        a = (t2 * f2 - t1 * f1) / (f2 * f2 - f1 * f1)
        c = t1 * f1 - a * f1 * f1
    else:
        design = np.column_stack([f, 1.0 / f])
        (a, c), *_ = np.linalg.lstsq(design, t, rcond=None)
    return PerformanceFit(FitFunction.QUADRATIC_NO_LINEAR, (float(a), float(c)))


def fit_func1(
    freqs_mhz: Sequence[float], times_us: Sequence[float]
) -> PerformanceFit:
    """Fit Func. 1 with ``scipy.optimize.curve_fit`` (as in the paper)."""
    from scipy.optimize import OptimizeWarning, curve_fit

    f, t = _validate_samples(freqs_mhz, times_us, needed=3)

    def model(freq, a, b, c):
        return (a * freq * freq + b * freq + c) / freq

    initial = (t[-1] / f[-1], 0.0, t[0] * f[0] / 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        try:
            params, _ = curve_fit(model, f, t, p0=initial, maxfev=20_000)
        except (RuntimeError, ValueError) as exc:
            raise FittingError(f"Func. 1 curve_fit failed: {exc}") from exc
    return PerformanceFit(FitFunction.QUADRATIC, tuple(float(p) for p in params))


def fit_func3(
    freqs_mhz: Sequence[float], times_us: Sequence[float]
) -> PerformanceFit:
    """Fit Func. 3 with ``b`` bounded to ``[0, 10]`` (Sect. 7.2's caveat)."""
    from scipy.optimize import OptimizeWarning, curve_fit

    f, t = _validate_samples(freqs_mhz, times_us, needed=3)

    def model(freq, a, b, c):
        return (a * _safe_pow(b, freq) + c) / freq

    # With b constrained to [0, 10] (the paper's overflow workaround) the
    # optimiser frequently stalls far from the useful near-1.0 region: the
    # clamped exponential has a zero gradient there.  We try a naive
    # mid-bounds start first and fall back to a near-1.0 start, accepting
    # the first fit that at least reproduces its own samples — the
    # wrestling that made the paper reject Func. 3.
    bounds = ((-np.inf, 0.0, -np.inf), (np.inf, 10.0, np.inf))
    last_error: Exception | None = None
    best: tuple[tuple[float, ...], float] | None = None
    for b0 in (2.0, 1.0005):
        initial = (t[0] * f[0] / 2, b0, t[0] * f[0] / 2)
        with np.errstate(over="ignore", invalid="ignore"), (
            warnings.catch_warnings()
        ):
            warnings.simplefilter("ignore", OptimizeWarning)
            try:
                params, _ = curve_fit(
                    model, f, t, p0=initial, bounds=bounds, maxfev=1_500
                )
            except (RuntimeError, ValueError) as exc:
                last_error = exc
                continue
        candidate = tuple(float(p) for p in params)
        residual = float(np.max(np.abs(model(f, *candidate) - t) / t))
        if best is None or residual < best[1]:
            best = (candidate, residual)
        if residual < 0.2:
            break
    if best is None:
        raise FittingError(f"Func. 3 curve_fit failed: {last_error}")
    params_out, residual = best
    if residual > 2.0:
        # The stalled bounded exponential can be arbitrarily wrong; treat
        # a fit that cannot even reproduce its own samples as a failure.
        raise FittingError(
            f"Func. 3 fit rejected (self-residual {residual:.1f})"
        )
    return PerformanceFit(FitFunction.EXPONENTIAL, params_out)


def _validate_batch(
    freqs_mhz: Sequence[float], times_us: np.ndarray, needed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared argument handling for the stacked fitters.

    Returns ``(f, t, valid)`` with frequencies ascending (the scalar
    ``_validate_samples`` sort), times reordered to match, and ``valid``
    marking the rows the scalar fitter would have accepted — a row with a
    non-positive time is exactly the case where ``fit_performance`` raises
    :class:`FittingError` and the model builder degrades to a constant.
    """
    f = np.asarray(freqs_mhz, dtype=float)
    t = np.atleast_2d(np.asarray(times_us, dtype=float))
    if t.shape[1] != f.size:
        raise FittingError(f"shape mismatch: {f.shape} vs {t.shape}")
    if np.unique(f).size < needed or np.any(f <= 0):
        return f, t, np.zeros(t.shape[0], dtype=bool)
    order = np.argsort(f)
    valid = np.all(t > 0.0, axis=1)
    return f[order], t[:, order], valid


def fit_func2_batch(
    freqs_mhz: Sequence[float], times_us: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fit Func. 2 for many operators at once (stacked closed form).

    ``times_us`` is an ``(n_ops, n_freqs)`` matrix of measured durations,
    all rows sharing the same frequency points.  Two points solve the 2x2
    system in closed form per row; three or more become one multi-RHS
    ``lstsq`` on the ``(f, 1/f)`` basis.  Both reproduce the scalar
    :func:`fit_func2` parameters bit for bit (``lstsq`` factorises the
    design once and back-substitutes per column, which is the same
    floating-point work as one call per column).

    Returns:
        ``(params, valid)``: an ``(n_ops, 2)`` parameter matrix and the
        rows the scalar path would have fitted (non-positive times fall
        back to a constant predictor, like the scalar ``FittingError``).
    """
    f, t, valid = _validate_batch(freqs_mhz, times_us, needed=2)
    if not valid.any():
        return np.zeros((t.shape[0], 2)), valid
    if f.size == 2:
        f1, f2 = float(f[0]), float(f[1])
        t1, t2 = t[:, 0], t[:, 1]
        a = (t2 * f2 - t1 * f1) / (f2 * f2 - f1 * f1)
        c = t1 * f1 - a * f1 * f1
        params = np.column_stack([a, c])
    else:
        design = np.column_stack([f, 1.0 / f])
        solution, *_ = np.linalg.lstsq(design, t.T, rcond=None)
        params = solution.T
    return params, valid


def fit_func1_batch(
    freqs_mhz: Sequence[float], times_us: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fit Func. 1 for many operators at once via linear least squares.

    ``T(f) = (a f^2 + b f + c) / f = a f + b + c / f`` is *linear* in its
    parameters, so the iterative ``curve_fit`` of the scalar path is
    unnecessary: one multi-RHS ``lstsq`` on the ``(f, 1, 1/f)`` basis —
    against ``T`` directly, preserving the reference's least-squares
    weighting — solves every operator simultaneously.  With exactly three
    points both paths interpolate the samples exactly, so predictions
    agree with the ``curve_fit`` reference to ~1e-12 relative (the
    equivalence suite pins <= 1e-9).

    Returns:
        ``(params, valid)`` like :func:`fit_func2_batch`, with an
        ``(n_ops, 3)`` parameter matrix.
    """
    f, t, valid = _validate_batch(freqs_mhz, times_us, needed=3)
    if not valid.any():
        return np.zeros((t.shape[0], 3)), valid
    design = np.column_stack([f, np.ones_like(f), 1.0 / f])
    solution, *_ = np.linalg.lstsq(design, t.T, rcond=None)
    return solution.T, valid


_FITTERS = {
    FitFunction.QUADRATIC: fit_func1,
    FitFunction.QUADRATIC_NO_LINEAR: fit_func2,
    FitFunction.EXPONENTIAL: fit_func3,
}

#: Stacked fitters for the batched cold path, NumPy only.  Func. 3 has
#: none: it reproduces a negative result with the scalar scipy fitter.
BATCH_FITTERS = {
    FitFunction.QUADRATIC: fit_func1_batch,
    FitFunction.QUADRATIC_NO_LINEAR: fit_func2_batch,
}


def fit_performance(
    freqs_mhz: Sequence[float],
    times_us: Sequence[float],
    function: FitFunction = FitFunction.QUADRATIC_NO_LINEAR,
) -> PerformanceFit:
    """Fit the chosen surrogate to measured (frequency, time) samples."""
    return _FITTERS[function](freqs_mhz, times_us)


def select_fit_frequencies(
    available_mhz: Sequence[float], function: FitFunction
) -> list[float]:
    """Choose which profiled frequencies to fit on (Sect. 4.3's protocol).

    Func. 2 uses the two extremes (the paper trains at 1000 and 1800 MHz);
    the three-parameter functions additionally use the middle point.
    """
    freqs = sorted(set(float(f) for f in available_mhz))
    if len(freqs) < function.required_points:
        raise FittingError(
            f"{function.value} needs {function.required_points} frequencies, "
            f"got {freqs}"
        )
    if function.required_points == 2:
        return [freqs[0], freqs[-1]]
    return [freqs[0], freqs[len(freqs) // 2], freqs[-1]]
