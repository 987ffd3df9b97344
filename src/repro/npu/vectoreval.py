"""Vectorised multi-spec, multi-frequency operator evaluation.

:func:`evaluate_unique_grid` computes, for a list of (typically unique)
operator specs and a frequency grid, exactly the quantities
:meth:`repro.npu.execution.GroundTruthEvaluator._evaluate_uncached` and the
compiled-trace column probes derive one operator at a time — durations,
per-pipe utilisation, bandwidth utilisation, effective alpha, and the
cold/temperature-gain power decomposition — as ``(spec, freq)`` matrices in
a single NumPy pass.

Bit-identity with the scalar path is a hard requirement (the batched cold
path must reproduce :class:`~repro.dvfs.ga.GaResult.best_genes` byte for
byte), so every expression below mirrors the scalar evaluation order and
associativity:

* ``smooth_max``/``transfer_cycles`` keep the factored ``hi * (1 +
  (lo/hi)^p)^(1/p)`` form and the trailing ``T0 * f`` term;
* the closed forms of Eqs. (5)-(8) keep the scalar operand order,
  including the integer-derived ``n - 1`` / ``ceil(n/2)`` coefficients;
* per-pipe busy cycles use the :func:`analytical_busy_stall` union law
  (Fig. 8 clipping included) slot by slot in the busy-dict insertion
  order MTE2 -> CUBE -> VECTOR -> SCALAR -> MTE1 -> MTE3;
* ``effective_alpha`` accumulates the six slots sequentially in that same
  order (absent slots contribute an exact ``+0.0``, which is a bitwise
  no-op for the non-negative partial sums);
* the power probes evaluate the full cold and hot expressions and
  subtract, exactly like the engine's column builder.

``tests/test_engine.py::TestGridColumns`` pins the grid columns the
engine executes from against a scalar, one-``evaluate()``-per-spec
oracle (``tests/oracles.py``) bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.npu.operators import OperatorSpec
from repro.npu.pipelines import Pipe
from repro.npu.timeline import Scenario
from repro.units import gbps_to_bytes_per_us

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.npu.execution import GroundTruthEvaluator

#: Slot layout of the per-spec pipe tables.  This is the insertion order of
#: the scalar evaluator's busy/utilisation dicts (``analytical_busy_stall``
#: inserts MTE2 first, then the core pipes in ``_CORE_PIPE_ORDER``, then
#: MTE3), which the profiler's noise layer and ``effective_alpha`` both
#: iterate in.
SLOT_PIPES: tuple[Pipe, ...] = (
    Pipe.MTE2,
    Pipe.CUBE,
    Pipe.VECTOR,
    Pipe.SCALAR,
    Pipe.MTE1,
    Pipe.MTE3,
)

#: Indices of the core-domain pipes within :data:`SLOT_PIPES`.
_CORE_SLOTS: tuple[int, ...] = (1, 2, 3, 4)

_SCENARIO_CODE: dict[Scenario, int] = {
    Scenario.PINGPONG_FREE_INDEPENDENT: 0,
    Scenario.PINGPONG_FREE_DEPENDENT: 1,
    Scenario.PINGPONG_INDEPENDENT: 2,
    Scenario.PINGPONG_DEPENDENT: 3,
}


@dataclass(frozen=True)
class UniqueSpecGrid:
    """Dense ``(spec, freq)`` evaluation tables for one frequency grid.

    All 2-D arrays are indexed ``[spec_row, freq_column]``; ``util`` is
    ``[spec_row, slot, freq_column]`` with slots per :data:`SLOT_PIPES`
    and exact zeros for absent pipes.  ``present`` marks which slots the
    scalar utilisation dict would contain (frequency-independent: MTE2
    iff the operator loads bytes, a core pipe iff its mix fraction is
    positive, MTE3 iff it stores bytes).
    """

    freqs_mhz: tuple[float, ...]
    dur: np.ndarray
    alpha: np.ndarray
    bw: np.ndarray
    util: np.ndarray
    present: np.ndarray
    a_cold: np.ndarray
    ga: np.ndarray
    s_cold: np.ndarray
    gs: np.ndarray
    idle_a0: np.ndarray
    idle_ga: np.ndarray
    idle_s0: np.ndarray
    idle_gs: np.ndarray

    def freq_index(self, freq_mhz: float) -> int:
        """Column index of a grid frequency."""
        return self.freqs_mhz.index(float(freq_mhz))


#: Cells from which ``_transfer_cycles_grid`` sorts out the distinct
#: ratios before its scalar pows.
_DISTINCT_POW_MIN = 256


def _transfer_cycles_grid(
    vol: np.ndarray,
    denom_bw: np.ndarray,
    core_bpc: float,
    sharpness: float,
    overhead_us: float,
    f_row: np.ndarray,
) -> np.ndarray:
    """Vectorised ``MemoryHierarchy.transfer_cycles`` over specs x freqs.

    ``vol``/``denom_bw`` are per-spec; returns an ``(m, F)`` cycle matrix.
    Zero-volume rows are exactly 0.0, like the scalar early return.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        a = vol / denom_bw
        c = vol / core_bpc
        x = a[:, None] * f_row[None, :]
        hi = np.maximum(x, c[:, None])
        lo = np.minimum(x, c[:, None])
        ratio = lo / hi
    # smooth_max returns max(x, y) when either side is zero.  A factor of
    # exactly 1.0 there keeps ``hi * factor == hi`` bitwise, and also
    # covers a positive volume whose two terms both underflow to 0.0,
    # where ``lo / hi`` would be 0/0.
    ratio[lo == 0.0] = 0.0
    # NumPy's vectorised float64 pow (SIMD) rounds differently from the
    # libm pow behind Python's float ** that the scalar smooth_max uses —
    # off by 1 ulp on a few permille of inputs.  Bit-identity demands the
    # exact scalar operation, so the two pows run through Python floats,
    # once per distinct ratio: the volume cancels out of ``lo / hi``, so
    # a sweep of tens of thousands of cells holds ~100 distinct ratios
    # (one per derate and frequency, give or take a rounding).  Below
    # _DISTINCT_POW_MIN cells the sort costs more than the pows it saves.
    inv = 1.0 / sharpness
    p = float(sharpness)

    def exact(values: np.ndarray) -> np.ndarray:
        return np.array(
            [(1.0 + r**p) ** inv for r in values.tolist()], dtype=np.float64
        )

    if ratio.size < _DISTINCT_POW_MIN:
        factor = exact(ratio.ravel()).reshape(ratio.shape)
    else:
        distinct, where = np.unique(ratio, return_inverse=True)
        factor = exact(distinct)[where.reshape(ratio.shape)]
    smoothed = hi * factor
    cycles = smoothed + overhead_us * f_row[None, :]
    return np.where((vol > 0.0)[:, None], cycles, 0.0)


def evaluate_unique_grid(
    evaluator: "GroundTruthEvaluator",
    specs: Sequence[OperatorSpec],
    freqs_mhz: Sequence[float],
) -> UniqueSpecGrid:
    """Evaluate every spec at every frequency in one vectorised pass."""
    from repro.npu.execution import _NONCOMPUTE_BANDWIDTH_UTILISATION

    npu = evaluator.npu
    freqs = tuple(npu.frequencies.validate(float(f)) for f in freqs_mhz)
    f_row = np.array(freqs, dtype=np.float64)
    m = len(specs)

    is_compute = np.zeros(m, dtype=bool)
    n_int = np.ones(m, dtype=np.int64)
    core = np.zeros(m, dtype=np.float64)
    ld_bytes = np.zeros(m, dtype=np.float64)
    st_bytes = np.zeros(m, dtype=np.float64)
    derate = np.ones(m, dtype=np.float64)
    overhead_us = np.zeros(m, dtype=np.float64)
    fixed_dur = np.zeros(m, dtype=np.float64)
    nc_bw = np.zeros(m, dtype=np.float64)
    scen = np.zeros(m, dtype=np.int8)
    frac = np.zeros((m, 4), dtype=np.float64)
    for i, spec in enumerate(specs):
        character = spec.compute
        if spec.is_compute and character is not None:
            is_compute[i] = True
            n_int[i] = character.n_blocks
            core[i] = character.core_cycles_per_block
            ld_bytes[i] = character.ld_bytes_per_block
            st_bytes[i] = character.st_bytes_per_block
            derate[i] = character.bandwidth_derate
            overhead_us[i] = character.fixed_overhead_us
            scen[i] = _SCENARIO_CODE[character.scenario]
            mix = character.core_mix_dict
            for s, slot in enumerate(_CORE_SLOTS):
                frac[i, s] = mix.get(SLOT_PIPES[slot], 0.0)
        else:
            fixed_dur[i] = spec.fixed_duration_us
            nc_bw[i] = _NONCOMPUTE_BANDWIDTH_UTILISATION[spec.kind]

    memory = npu.memory
    bw_base = gbps_to_bytes_per_us(memory.uncore_bandwidth_gbps)
    denom_bw = bw_base * derate
    core_bpc = memory.core_bytes_per_cycle
    sharpness = memory.saturation_sharpness
    t0_us = memory.transfer_overhead_us

    # Loads and stores share one transfer pass: rows [0, m) are the loads.
    ldst = _transfer_cycles_grid(
        np.concatenate((ld_bytes, st_bytes)),
        np.concatenate((denom_bw, denom_bw)),
        core_bpc,
        sharpness,
        t0_us,
        f_row,
    )
    ld = ldst[:m]
    st = ldst[m:]

    nf = n_int.astype(np.float64)
    ncol = nf[:, None]
    core_col = core[:, None]
    mx_ldst = np.maximum(ld, st)
    mx_all = np.maximum(mx_ldst, core_col)
    serial = ld + core_col + st
    # Eqs. (5)-(8), scalar operand order preserved.
    eq5 = ld + st + ncol * core_col + (ncol - 1.0) * mx_ldst
    eq6 = ncol * serial
    eq7 = serial + (ncol - 1.0) * mx_all
    chains_a = ((n_int + 1) // 2).astype(np.float64)[:, None]
    chains_b = ncol - chains_a
    eq8 = np.maximum(chains_a * serial, mx_all + chains_b * serial)
    scen_col = scen[:, None]
    pipeline = np.where(
        scen_col == 0,
        eq5,
        np.where(scen_col == 1, eq6, np.where(scen_col == 2, eq7, eq8)),
    )

    # Per-pipe busy union (analytical_busy_stall), all six slots at once:
    # the Fig. 8 two-stream schedule clips segments against the odd gaps;
    # everything else is a plain n * length sum.
    n_freqs = len(freqs)
    length = np.empty((m, 6, n_freqs), dtype=np.float64)
    length[:, 0, :] = ld
    length[:, 1:5, :] = (core_col * frac)[:, :, None]
    length[:, 5, :] = st
    a_gaps = 1.0 + (n_int // 2).astype(np.float64)[:, None, None]
    b_gaps = ((n_int - 1) // 2).astype(np.float64)[:, None, None]
    odd_gap = (serial - mx_all)[:, None, :]
    clip = ((scen == 3) & (n_int > 1))[:, None, None]
    busy = np.where(
        clip,
        a_gaps * length + b_gaps * np.minimum(length, odd_gap),
        nf[:, None, None] * length,
    )

    overhead = overhead_us[:, None] * f_row[None, :]
    total = pipeline + overhead
    compute_col = is_compute[:, None]
    moved = ld_bytes * nf + st_bytes * nf
    peak_bw = memory.uncore_bandwidth(derate=1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        dur_compute = total / f_row[None, :]
        util = np.where(total[:, None, :] > 0.0, busy / total[:, None, :], 0.0)
        dur = np.where(compute_col, dur_compute, fixed_dur[:, None])
        bw_compute = np.minimum(1.0, (moved[:, None] / dur) / peak_bw)
    util = np.where(is_compute[:, None, None], util, 0.0)
    bw = np.where(compute_col, bw_compute, nc_bw[:, None])

    present = np.zeros((m, 6), dtype=bool)
    present[:, 0] = ld_bytes > 0.0
    present[:, 1:5] = frac > 0.0
    present[:, 5] = st_bytes > 0.0
    present &= is_compute[:, None]

    # effective_alpha: sequential accumulation over the busy-dict order.
    # Absent slots have an exact 0.0 utilisation, so their ``+ w * 0.0``
    # term is a bitwise no-op on the non-negative partial sum.
    pipe_alpha = npu.power.pipe_alpha_w_per_ghz_v2
    capped = np.minimum(util, 1.0)
    alpha = np.zeros((m, n_freqs), dtype=np.float64)
    for slot, pipe in enumerate(SLOT_PIPES):
        alpha = alpha + pipe_alpha[pipe] * capped[:, slot, :]

    # Power probes, full cold/hot expressions subtracted (engine order).
    # Per-frequency terms are Python floats from the scalar power model,
    # laid out as rows; the idle probes are
    # ``GroundTruthEvaluator.idle_aicore_power``/``idle_soc_power``
    # spelled out over the same operands.
    power = npu.power
    volts = np.array([npu.volts_at(f) for f in freqs], dtype=np.float64)
    v_list = volts.tolist()
    f_ghz = f_row / 1000.0
    idle_ai = np.array(
        [power.aicore_idle_power(f, v) for f, v in zip(freqs, v_list)]
    )
    th_cold = np.array([power.aicore_thermal_power(0.0, v) for v in v_list])
    th_hot = np.array([power.aicore_thermal_power(1.0, v) for v in v_list])
    coupled = np.array(
        [power.coupled_power(f, v) for f, v in zip(freqs, v_list)]
    )
    active = alpha * f_ghz * volts * volts
    a_cold = active + idle_ai + th_cold
    a_hot = active + idle_ai + th_hot
    bw_part = power.uncore_idle_watts + power.uncore_bandwidth_watts * (
        np.minimum(bw, 1.0)
    )
    s_cold = a_cold + coupled + (
        bw_part + power.gamma_uncore_w_per_c_v * 0.0 * power.uncore_volts
    )
    s_hot = a_hot + coupled + (
        bw_part + power.gamma_uncore_w_per_c_v * 1.0 * power.uncore_volts
    )
    idle_a0 = idle_ai + th_cold
    idle_a_hot = idle_ai + th_hot
    idle_s0 = idle_a0 + coupled + power.uncore_power(0.0, 0.0)
    idle_s_hot = idle_a_hot + coupled + power.uncore_power(0.0, 1.0)

    return UniqueSpecGrid(
        freqs_mhz=freqs,
        dur=dur,
        alpha=alpha,
        bw=bw,
        util=util,
        present=present,
        a_cold=a_cold,
        ga=a_hot - a_cold,
        s_cold=s_cold,
        gs=s_hot - s_cold,
        idle_a0=idle_a0,
        idle_ga=idle_a_hot - idle_a0,
        idle_s0=idle_s0,
        idle_gs=idle_s_hot - idle_s0,
    )
