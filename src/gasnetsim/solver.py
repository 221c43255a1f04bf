"""Semilinear transport kernel: upwind advection at speed +-c plus an
implicit friction step, coupled through the node maps once per tick.

The splitting order is fixed: transport first, then friction.  At cfl = 1
the transport is an exact shift (implemented as a copy, so no rounding), and
the friction update has a closed-form root, so there are no iteration
tolerances anywhere in the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from .errors import ConfigurationError, ScheduleError, ValidationError
from .network import NetworkGraph, NodeId, PipeId, PipeSpec, junction_outflow

Control = Callable[[float], float]

MODE_EXACT = "exact-advection"
MODE_CFL_SAFE = "cfl-safe"


@dataclass
class EdgeGrid:
    """Cell-centered invariant fields on one pipe; cell i sits at (i + 1/2) dx."""

    pipe: PipeId
    n_cells: int
    dx: float
    cfl: float
    r_plus: np.ndarray
    r_minus: np.ndarray
    length_perturbation: float = 0.0

    def __post_init__(self) -> None:
        if self.n_cells < 2:
            raise ValidationError(f"grid on {self.pipe!r} needs at least two cells")
        if self.cfl > 1.0 + 1e-12:
            raise ValidationError(f"grid on {self.pipe!r}: cfl={self.cfl} exceeds 1")
        if len(self.r_plus) != self.n_cells or len(self.r_minus) != self.n_cells:
            raise ValidationError(f"grid on {self.pipe!r}: field size != n_cells")

    @property
    def length(self) -> float:
        """Effective (possibly snapped) pipe length n_cells * dx."""
        return self.n_cells * self.dx

    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass
class SimState:
    """All edge grids plus the simulation clock (t = step_index * dt)."""

    grids: Dict[PipeId, EdgeGrid]
    dt: float
    step_index: int = 0

    @property
    def t(self) -> float:
        return self.step_index * self.dt


def build_grids(
    graph: NetworkGraph,
    c: float,
    dt: float,
    mode: str = MODE_EXACT,
    fill: float = 0.0,
) -> Dict[PipeId, EdgeGrid]:
    """Discretize every pipe for time step dt at sound speed c.

    cfl-safe mode keeps the exact pipe length: n = floor(L/(c dt)),
    dx = L/n, cfl = c dt / dx <= 1.

    exact-advection mode forces cfl = 1: n = round-half-up(L/(c dt)),
    dx = c dt, and the effective length n dx replaces L.  The relative
    length perturbation is stored on the grid.
    """
    if mode not in (MODE_EXACT, MODE_CFL_SAFE):
        raise ConfigurationError(f"unknown grid mode {mode!r}")
    if not dt > 0:
        raise ConfigurationError("dt must be positive")
    min_len = min(p.length for p in graph.pipes)
    if dt > min_len / (2.0 * c):
        raise ConfigurationError(
            f"dt={dt} too large: the shortest pipe ({min_len} m) needs dt <= "
            f"{min_len / (2.0 * c)} for at least two cells"
        )
    grids: Dict[PipeId, EdgeGrid] = {}
    for p in graph.pipes:
        ratio = p.length / (c * dt)
        if mode == MODE_CFL_SAFE:
            n = int(math.floor(ratio))
            dx = p.length / n
            cfl = c * dt / dx
            pert = 0.0
        else:
            n = int(math.floor(ratio + 0.5))  # half-up, not banker's rounding
            dx = c * dt
            cfl = 1.0
            pert = abs(n * dx - p.length) / p.length
        grids[p.id] = EdgeGrid(
            pipe=p.id,
            n_cells=n,
            dx=dx,
            cfl=cfl,
            r_plus=np.full(n, fill, dtype=float),
            r_minus=np.full(n, fill, dtype=float),
            length_perturbation=pert,
        )
    return grids


def advect_step(grid: EdgeGrid, inflow_plus: float, inflow_minus: float) -> EdgeGrid:
    """One upwind transport step.

    r_plus moves rightwards with ghost value inflow_plus at x = 0, r_minus
    moves leftwards with ghost value inflow_minus at x = L.  At cfl = 1 the
    update is a pure shift, done as a copy so discontinuities stay sharp.
    """
    lam = grid.cfl
    p, m = grid.r_plus, grid.r_minus
    new_p = np.empty_like(p)
    new_m = np.empty_like(m)
    if lam == 1.0:
        new_p[0] = inflow_plus
        new_p[1:] = p[:-1]
        new_m[-1] = inflow_minus
        new_m[:-1] = m[1:]
    else:
        new_p[0] = inflow_plus
        new_p[1:] = p[:-1]
        new_p *= lam
        new_p += (1.0 - lam) * p
        new_m[-1] = inflow_minus
        new_m[:-1] = m[1:]
        new_m *= lam
        new_m += (1.0 - lam) * m
    return EdgeGrid(
        grid.pipe, grid.n_cells, grid.dx, lam, new_p, new_m, grid.length_perturbation
    )


def friction_root(d_star: Union[float, np.ndarray], a: float) -> Union[float, np.ndarray]:
    """Root of d + a |d| d = d_star for a >= 0, in a cancellation-free form.

    d = sign(d_star) * 2 |d_star| / (1 + sqrt(1 + 4 a |d_star|)); exact for
    a = 0 and monotone contracting (|d| <= |d_star|) for all inputs.
    """
    mag = np.abs(d_star)
    d = 2.0 * mag / (1.0 + np.sqrt(1.0 + 4.0 * a * mag))
    return np.copysign(d, d_star)


def friction_root_shifted(
    d_star: Union[float, np.ndarray],
    d_frozen: Union[float, np.ndarray],
    a: float,
) -> Union[float, np.ndarray]:
    """Root of d + a (|d + s|(d + s) - |s| s) = d_star with s = d_frozen.

    Substituting u = d + s turns this into u + a |u| u = d_star + s + a |s| s,
    which the closed-form root solves exactly.
    """
    rhs = d_star + d_frozen + a * np.abs(d_frozen) * d_frozen
    return friction_root(rhs, a) - d_frozen


def friction_step(r_plus, r_minus, nu: float, dt: float):
    """Implicit Euler step of the friction source on (R+, R-).

    Preserves the sum R+ + R- and contracts the difference.  Works on
    scalars and on whole cell arrays.
    """
    if nu < 0:
        raise ValidationError("friction_step needs nu >= 0")
    if not dt > 0:
        raise ValidationError("friction_step needs dt > 0")
    a = 2.0 * dt * nu
    if a == 0.0:
        return r_plus, r_minus
    s = np.asarray(r_plus) + np.asarray(r_minus)
    d = friction_root(np.asarray(r_plus) - np.asarray(r_minus), a)
    return (s + d) / 2.0, (s - d) / 2.0


def gather_node_inputs(
    state: SimState, graph: NetworkGraph
) -> Dict[NodeId, Dict[PipeId, float]]:
    """Incoming invariant at every node: R+ at the x=L end, R- at the x=0 end."""
    vals: Dict[NodeId, Dict[PipeId, float]] = {}
    for v in graph.nodes:
        d: Dict[PipeId, float] = {}
        for p in graph.incident_pipes(v):
            g = state.grids[p.id]
            d[p.id] = float(g.r_plus[-1]) if v == p.to_node else float(g.r_minus[0])
        vals[v] = d
    return vals


def control_values(
    graph: NetworkGraph, controls: Mapping[NodeId, Control], t: float
) -> Dict[NodeId, float]:
    """u(t) at every boundary node, each control evaluated once."""
    u: Dict[NodeId, float] = {}
    for v in graph.boundary_nodes:
        if v not in controls:
            raise ScheduleError(f"no boundary control for node {v!r}")
        u[v] = controls[v](t)
    return u


def node_outputs(
    graph: NetworkGraph,
    node_inputs: Mapping[NodeId, Mapping[PipeId, float]],
    u: Mapping[NodeId, float],
    gains: Mapping[NodeId, float],
) -> Dict[NodeId, Dict[PipeId, float]]:
    """Outgoing invariants at every node; boundary nodes consume (mu, u(t))."""
    outs: Dict[NodeId, Dict[PipeId, float]] = {}
    for v, incoming in node_inputs.items():
        if len(incoming) == 1:
            if v not in gains:
                raise ConfigurationError(f"no boundary gain mu for node {v!r}")
            outs[v] = junction_outflow(
                incoming, graph.diameters_at(v), boundary_gain=(gains[v], u[v])
            )
        else:
            outs[v] = junction_outflow(incoming, graph.diameters_at(v))
    return outs


def transport(
    state: SimState,
    graph: NetworkGraph,
    node_outs: Mapping[NodeId, Mapping[PipeId, float]],
    friction: Callable[[PipeSpec, EdgeGrid], Tuple[np.ndarray, np.ndarray]],
) -> SimState:
    """Advect every edge with the node outputs as ghost inflows, then replace
    (R+, R-) by `friction(pipe, grid)` on pipes with nu > 0."""
    grids: Dict[PipeId, EdgeGrid] = {}
    for p in graph.pipes:
        g = advect_step(
            state.grids[p.id],
            inflow_plus=node_outs[p.from_node][p.id],
            inflow_minus=node_outs[p.to_node][p.id],
        )
        if p.nu > 0.0:
            g.r_plus, g.r_minus = friction(p, g)
        grids[p.id] = g
    return SimState(grids=grids, dt=state.dt, step_index=state.step_index + 1)


def step_system(
    state: SimState,
    graph: NetworkGraph,
    controls: Mapping[NodeId, Control],
    gains: Mapping[NodeId, float],
    node_outs: Optional[Mapping[NodeId, Mapping[PipeId, float]]] = None,
) -> SimState:
    """Advance the truth system by one tick.

    Order per tick: read the node-adjacent cells of the previous step,
    evaluate the node maps, advect every edge with those outputs as ghost
    inflows, then apply the friction step cellwise.  `node_outs` lets a
    caller inject precomputed node outputs (the coupled stepper does this so
    both systems share one measurement snapshot).
    """
    if node_outs is None:
        u = control_values(graph, controls, state.t)
        node_outs = node_outputs(graph, gather_node_inputs(state, graph), u, gains)
    dt = state.dt
    return transport(
        state, graph, node_outs, lambda p, g: friction_step(g.r_plus, g.r_minus, p.nu, dt)
    )
