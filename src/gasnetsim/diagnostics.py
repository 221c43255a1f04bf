"""Lyapunov functionals, nodal residuals, decay-rate fits and regularity
estimates extracted from simulation runs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from .errors import ValidationError
from .network import NetworkGraph, PipeId
from .solver import EdgeGrid, SimState


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
    """Cellwise error invariants on every pipe at one time."""

    t: float
    x: Dict[PipeId, np.ndarray]
    delta_plus: Dict[PipeId, np.ndarray]
    delta_minus: Dict[PipeId, np.ndarray]

    def __post_init__(self) -> None:
        for pid in self.x:
            if not (len(self.x[pid]) == len(self.delta_plus[pid]) == len(self.delta_minus[pid])):
                raise ValidationError(f"snapshot arrays for {pid!r} length mismatch")

    @classmethod
    def from_state(cls, delta: SimState) -> "SnapshotFrame":
        return cls(
            t=delta.t,
            x={pid: g.cell_centers() for pid, g in delta.grids.items()},
            delta_plus={pid: g.r_plus.copy() for pid, g in delta.grids.items()},
            delta_minus={pid: g.r_minus.copy() for pid, g in delta.grids.items()},
        )


def lyapunov_l0(delta_grids: Mapping[PipeId, EdgeGrid], graph: NetworkGraph) -> float:
    """Network error functional: the sum over edges of
    (D^2/2) * dx * sum(delta_plus^2 + delta_minus^2), midpoint rule."""
    terms = []
    for p in graph.pipes:
        g = delta_grids[p.id]
        ssq = float(np.dot(g.r_plus, g.r_plus) + np.dot(g.r_minus, g.r_minus))
        terms.append(0.5 * p.diameter ** 2 * g.dx * ssq)
    return sum(terms)


def _pack(grids: Iterable[EdgeGrid]) -> Tuple[np.ndarray, np.ndarray]:
    """R+ and R- of all `grids`, each concatenated in the order given."""
    grids = list(grids)
    return np.concatenate([g.r_plus for g in grids]), np.concatenate([g.r_minus for g in grids])


def lyapunov_l1(
    prev_grids: Mapping[PipeId, EdgeGrid],
    next_grids: Mapping[PipeId, EdgeGrid],
    graph: NetworkGraph,
    dt: float,
) -> float:
    """Same quadrature applied to the forward difference quotient in time.

    The quotient (delta^{n+1} - delta^n)/dt stands in for the time
    derivative; reported values are labelled with the earlier frame's time.
    """
    if prev_grids is None or next_grids is None:
        raise ValidationError("lyapunov_l1 needs two consecutive frames")
    if not dt > 0:
        raise ValidationError("lyapunov_l1 needs dt > 0")
    p0, m0 = _pack(prev_grids[p.id] for p in graph.pipes)
    p1, m1 = _pack(next_grids[p.id] for p in graph.pipes)
    qp, qm = (p1 - p0) / dt, (m1 - m0) / dt
    # One dot per pipe and field, summed in pipe order: the rounding of the
    # per-pipe formula, so L1 does not depend on the packing.
    total = 0.0
    start = 0
    for p in graph.pipes:
        g0 = prev_grids[p.id]
        end = start + g0.n_cells
        a, b = qp[start:end], qm[start:end]
        total += 0.5 * p.diameter ** 2 * g0.dx * float(np.dot(a, a) + np.dot(b, b))
        start = end
    return total


def nodal_energy_residual(
    delta_in: Mapping[PipeId, float],
    delta_out: Mapping[PipeId, float],
    mu: float,
    diameters: Mapping[PipeId, float],
) -> float:
    """Relative defect of sum D^2 |out|^2 = mu^2 sum D^2 |in|^2 at one node.

    Normalized by the in-sum; defined as 0 when the in-sum vanishes.
    """
    in_sum = sum(diameters[e] ** 2 * delta_in[e] ** 2 for e in delta_in)
    out_sum = sum(diameters[e] ** 2 * delta_out[e] ** 2 for e in delta_out)
    if in_sum == 0.0:
        return 0.0 if out_sum == 0.0 else math.inf
    return abs(out_sum - mu * mu * in_sum) / in_sum


def fit_decay_rate(
    series: LyapunovSeries,
    window: Tuple[float, float],
    use_l1: bool = False,
) -> Tuple[float, float]:
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
    (S+ - S-) between consecutive steps (their grids in the same order).
    """

    def __init__(self) -> None:
        self.m_tilde = 0.0
        self.b_tilde = 0.0
        self._prev: Optional[np.ndarray] = None

    def observe(self, s_state: SimState, r_state: Optional[SimState] = None) -> None:
        # One array per system, pipes in grid order: the maxima are taken
        # over the same values as pipe by pipe, and max(x)/dt == max(x/dt).
        plus, minus = _pack(s_state.grids.values())
        ds = plus - minus
        m = float(np.max(np.abs(ds)))
        if r_state is not None:
            plus, minus = _pack(r_state.grids.values())
            m = max(m, float(np.max(np.abs(plus - minus))))
        self.m_tilde = max(self.m_tilde, m)
        if self._prev is not None:
            quot = np.max(np.abs(ds - self._prev)) / s_state.dt
            self.b_tilde = max(self.b_tilde, float(quot))
        self._prev = ds
