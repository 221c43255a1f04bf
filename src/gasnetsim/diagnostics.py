"""Lyapunov functionals, nodal residuals, decay-rate fits and regularity
estimates extracted from simulation runs."""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .network import NetworkGraph, PipeId, node_table
from .solver import EdgeGrid, Layout, SimState


@dataclass
class LyapunovSeries:
    """Time series of the quadratic error functionals."""

    times: np.ndarray
    l0: np.ndarray
    l1: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.l0 = np.asarray(self.l0, dtype=float)
        if len(self.times) != len(self.l0):
            raise ValidationError("times and l0 must have the same length")
        if np.any(self.l0 < 0):
            raise ValidationError("l0 values must be nonnegative")
        if self.l1 is not None:
            self.l1 = np.asarray(self.l1, dtype=float)
            if np.any(self.l1 < 0):
                raise ValidationError("l1 values must be nonnegative")

    def sync_time(self) -> Optional[float]:
        """First time at which l0 is exactly zero, None if it never is."""
        idx = np.nonzero(self.l0 == 0.0)[0]
        return float(self.times[idx[0]]) if idx.size else None


@dataclass
class SnapshotFrame:
    """Packed invariants (the observer error, or the truth) at one time."""

    t: float
    layout: Layout
    plus: np.ndarray
    minus: np.ndarray

    @classmethod
    def from_state(cls, state: SimState, layout: Layout) -> "SnapshotFrame":
        return cls(state.t, layout, *layout.pack(state.grids))


def snapshot_file_name(t: float) -> str:
    """Name of the snapshot file of the frame at time `t`."""
    return f"t_{t:g}.csv"


def quadrature(fields: Sequence[Tuple[np.ndarray, np.ndarray]],
               weights: Sequence[float]) -> float:
    """Sum over pipes of w * sum(plus^2 + minus^2) on that pipe's cells,
    midpoint rule, with each pipe's (plus, minus) in `fields` and its L0
    weight w = (D^2/2) * dx in `weights`, as `Layout.views` and
    `Layout.weights` give them.  One dot per pipe and field, summed in pipe
    order, so the value does not depend on where the fields are stored, and
    the sum over the first i pipes is the running total after pipe i.
    `a.dot(a)` is `np.dot(a, a)` without numpy's Python-level dispatch."""
    total = 0.0
    for (a, b), w in zip(fields, weights):
        total += w * float(a.dot(a) + b.dot(b))
    return total


def block_quadratures(blocks: Sequence[np.ndarray], weights: np.ndarray, dots: np.ndarray,
                      m: int) -> List[float]:
    """The `quadrature` of each of the first m frames of a block, bit for bit:
    with pipe i's (frames, 2, cells) view `blocks[i]`, the L0 `weights` as an
    array and a (pipes, frames, 2) `dots` to hold the sums of squares.  Each
    `np.vecdot` dot is the BLAS dot of `a.dot(a)`, and each frame's terms are
    summed in pipe order in Python floats; the floating-point flags that the
    gufuncs raise, and `a.dot(a)` and Python floats do not, are ignored."""
    with np.errstate(over="ignore", invalid="ignore"):
        for x, out in zip(blocks, dots):
            np.vecdot(x, x, out=out)
        terms = weights[:, None] * (dots[:, :m, 0] + dots[:, :m, 1])
    return [functools.reduce(operator.add, frame, 0.0) for frame in terms.T.tolist()]


def lyapunov_l0(delta_grids: Mapping[PipeId, EdgeGrid], graph: NetworkGraph) -> float:
    """Network error functional: the `quadrature` of (delta_plus, delta_minus)."""
    layout = Layout.of(delta_grids, graph)
    return quadrature([(delta_grids[pid].r_plus, delta_grids[pid].r_minus)
                       for pid in layout.pipes], layout.weights)


def lyapunov_l1(prev_grids: Mapping[PipeId, EdgeGrid], next_grids: Mapping[PipeId, EdgeGrid],
                graph: NetworkGraph, dt: float) -> float:
    """Same quadrature applied to the forward difference quotient in time.

    The quotient (delta^{n+1} - delta^n)/dt stands in for the time
    derivative; reported values are labelled with the earlier frame's time.
    """
    if prev_grids is None or next_grids is None:
        raise ValidationError("lyapunov_l1 needs two consecutive frames")
    if not dt > 0:
        raise ValidationError("lyapunov_l1 needs dt > 0")
    layout = Layout.of(prev_grids, graph)
    return quadrature([((next_grids[pid].r_plus - prev_grids[pid].r_plus) / dt,
                        (next_grids[pid].r_minus - prev_grids[pid].r_minus) / dt)
                       for pid in layout.pipes], layout.weights)


def nodal_energy_residual(delta_in: Mapping[PipeId, float], delta_out: Mapping[PipeId, float],
                          mu: float, diameters: Mapping[PipeId, float]) -> float:
    """Relative defect of sum D^2 |out|^2 = mu^2 sum D^2 |in|^2 at one node.

    Normalized by the in-sum; defined as 0 when the in-sum vanishes.
    """
    table, mismatch = node_table(diameters), "nodal_energy_residual: key mismatch"
    if len(delta_in) != len(table) or len(delta_out) != len(table):
        raise ValidationError(mismatch)
    squares, in_sum, out_sum = table.squares, 0.0, 0.0  # left folds, as in the node maps
    try:  # after the length compares, the folds' lookups find a key mismatch
        for e in delta_in:
            in_sum += squares[e] * delta_in[e] ** 2
        for e in delta_out:
            out_sum += squares[e] * delta_out[e] ** 2
    except KeyError:
        raise ValidationError(mismatch) from None
    if in_sum == 0.0:
        return 0.0 if out_sum == 0.0 else math.inf
    return abs(out_sum - mu * mu * in_sum) / in_sum


def fit_decay_rate(series: LyapunovSeries, window: Tuple[float, float],
                   use_l1: bool = False) -> Tuple[float, float]:
    """Least-squares exponential rate over a time window.

    Fits ln(L) ~ b - rate * t on the samples inside [t0, t1]; a nonpositive
    sample truncates the window there.  Returns (rate, r_squared); positive
    rate means decay.
    """
    t0, t1 = window
    y = series.l1 if use_l1 else series.l0
    if use_l1 and y is None:
        raise ValidationError("series has no l1 component")
    times = series.times[: len(y)]
    mask = (times >= t0) & (times <= t1)
    t_win = times[mask]
    y_win = np.asarray(y)[mask]
    nonpos = np.nonzero(y_win <= 0.0)[0]
    if nonpos.size:
        t_win = t_win[: nonpos[0]]
        y_win = y_win[: nonpos[0]]
    if len(y_win) == 0:
        raise ValidationError("no positive samples in the fit window")
    if len(y_win) < 10:
        raise ValidationError(f"need at least 10 samples in the window, got {len(y_win)}")
    logs = np.log(y_win)
    slope, intercept = np.polyfit(t_win, logs, 1)
    pred = slope * t_win + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return -float(slope), r2


class RegularityTracker:
    """Running maxima of the truth-difference magnitude and its time slope.

    Feeds the observability constants: m_tilde bounds |S+ - S-| and
    |R+ - R-| over the run, b_tilde bounds the difference quotient of
    (S+ - S-) between consecutive steps `dt` apart.
    """

    def __init__(self, dt: float) -> None:
        self.dt = dt
        self.m_tilde = 0.0
        self.b_tilde = 0.0
        self.finite = True  # False after a step that has a cell of either state not finite
        self._prev: Optional[np.ndarray] = None

    def observe(self, s_diff: np.ndarray, r_diff: np.ndarray) -> None:
        """Take S+ - S- and R+ - R- of one step, each packed in layout order;
        `s_diff` is kept until the next step, so it must not change."""
        top = np.maximum.reduce  # `.max()` without its Python-level wrapper; NaN propagates
        s_max, r_max = float(top(np.abs(s_diff))), float(top(np.abs(r_diff)))
        self.finite = math.isfinite(s_max) and math.isfinite(r_max)
        self.m_tilde = max(self.m_tilde, s_max, r_max)
        if self._prev is not None:
            # max(x)/dt == max(x/dt): one division per step
            self.b_tilde = max(self.b_tilde, float(top(np.abs(s_diff - self._prev))) / self.dt)
        self._prev = s_diff
