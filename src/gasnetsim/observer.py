"""Coupled truth/observer stepping and the direct error-system mode.

The observer runs the same kernel as the truth system; the only difference
is the node map, which blends the truth measurements with the observer's own
incoming invariants through the per-node gain mu in [-1, 1] (mu = 0: full
measurement injection, mu = 1: no measurement used).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from .errors import ConfigurationError, ValidationError
from .network import (NetworkGraph, NodeId, PipeId, PipeSpec, boundary_outflow, check_gain,
                      junction_outflow, node_table)
from .solver import (Control, EdgeGrid, SimState, friction_root_shifted, recombine, transport,
                     truth_friction)


@dataclass
class ObserverConfig:
    """Per-node gains and the boundary control schedules shared by both systems."""

    mu: Dict[NodeId, float]
    controls: Dict[NodeId, Control] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for v, m in self.mu.items():
            check_gain(m, v)


@dataclass
class CoupledState:
    """Truth state, observer state and their shared configuration."""

    s_state: SimState
    r_state: SimState
    config: ObserverConfig

    def __post_init__(self) -> None:
        if self.s_state.dt != self.r_state.dt:
            raise ConfigurationError("truth and observer states must share dt")
        if self.s_state.step_index != self.r_state.step_index:
            raise ConfigurationError("truth and observer states must share the clock")
        if self.s_state.layout is not None and self.s_state.layout is self.r_state.layout:
            return  # a layout fixes its states' pipes
        if set(self.s_state.grids) != set(self.r_state.grids):
            raise ConfigurationError("truth and observer states must share the grids")

    @property
    def t(self) -> float:
        return self.s_state.t


@dataclass
class NodalTrace:
    """Error-invariant traces at one node for one tick (diagnostic record)."""

    mu: float
    delta_in: Dict[PipeId, float]
    delta_out: Dict[PipeId, float]


def diff_junction_outflow(
    delta_in: Mapping[PipeId, float], diameters: Mapping[PipeId, float], mu: float
) -> Dict[PipeId, float]:
    """Error-invariant node map at an interior node.

    delta_out_e = mu * (omega_v * sum_g D_g^2 delta_in_g - delta_in_e), which
    satisfies sum D^2 |delta_out|^2 = mu^2 sum D^2 |delta_in|^2.
    """
    if not abs(mu) <= 1.0:  # the checks and loops of `junction_outflow`
        check_gain(mu, None)
    if len(delta_in) != len(diameters):
        raise ValidationError("diff_junction_outflow: key mismatch")
    table, total, out = node_table(diameters), 0.0, {}
    try:
        w, squares = table.omega, table.squares
        for e, d in delta_in.items():
            total += squares[e] * d
    except Exception:
        if delta_in.keys() != diameters.keys():
            raise ValidationError("diff_junction_outflow: key mismatch") from None
        raise
    for e, d in delta_in.items():
        out[e] = mu * (w * total - d)
    return out


def error_outflow(
    delta_in: Mapping[PipeId, float], diameters: Mapping[PipeId, float], mu: float
) -> Dict[PipeId, float]:
    """Error-system node map at one node: mu * delta_in at a degree-1 node,
    whose gain the caller has checked, and `diff_junction_outflow` at an
    interior node."""
    if len(delta_in) == 1:
        ((e, d),) = delta_in.items()
        return {e: mu * d}
    return diff_junction_outflow(delta_in, diameters, mu)


def observer_node_update(
    mu: float,
    diameters: Mapping[PipeId, float],
    r_in: Mapping[PipeId, float],
    s_in: Optional[Mapping[PipeId, float]] = None,
    s_out: Optional[Mapping[PipeId, float]] = None,
    u: Optional[float] = None,
) -> Dict[PipeId, float]:
    """Outgoing observer invariants at one node.

    Interior (degree >= 2, needs s_in and s_out):
        R_out_e = S_out_e - mu (R_in_e - S_in_e)
                  + mu omega_v sum_g D_g^2 (R_in_g - S_in_g)
    Degree 1 (needs u):  R_out = (1 - mu) u + mu R_in.
    """
    check_gain(mu, None)
    if len(r_in) == 1:
        if u is None:
            raise ValidationError("boundary observer update needs the control value u")
        ((e, r),) = r_in.items()
        return {e: (1.0 - mu) * u + mu * r}
    if s_in is None or s_out is None:
        raise ValidationError("interior observer update needs s_in and s_out")
    if not (set(r_in) == set(s_in) == set(s_out) == set(diameters)):
        raise ValidationError("observer_node_update: key mismatch")
    delta_in = {e: r_in[e] - s_in[e] for e in r_in}
    delta_out = diff_junction_outflow(delta_in, diameters, mu)
    return {e: s_out[e] + delta_out[e] for e in r_in}


def step_coupled(
    cs: CoupledState, graph: NetworkGraph, collect_nodal: bool = False,
    out: Optional[CoupledState] = None,
) -> Tuple[CoupledState, Optional[Dict[NodeId, NodalTrace]]]:
    """Advance truth and observer together by one tick, into `out` (each
    state as `transport` takes it, and `cs`'s config) or a new coupled state.

    Both node maps read the previous-step edge states (one shared
    measurement snapshot) and the same control values u(t), then the two
    systems advance independently.  One gather of the read slots per system
    takes the node-adjacent cells; one pass over `graph.node_plan` gives
    every node's truth map and observer map (as `observer_node_update`), and
    its error map (`error_outflow`), which a boundary node needs only for
    `collect_nodal`; one `transport` per system ends the tick.
    """
    cfg, s, r = cs.config, cs.s_state.packed_on(graph), cs.r_state.packed_on(graph)
    out = CoupledState(s.empty_like(), r.empty_like(), cfg) if out is None else out
    if (out.s_state.packed is r.packed or out.r_state.packed is s.packed
            or out.s_state.packed is out.r_state.packed):
        raise ConfigurationError("step_coupled: out's two states need pairs of their own")
    t = s.t
    s_ins = iter(s.packed.take(s.layout.read_slots).tolist())
    r_ins = iter(r.packed.take(r.layout.read_slots).tolist())
    s_out, r_out = [], []  # node outputs in read-slot order, as `transport` takes them
    traces: Optional[Dict[NodeId, NodalTrace]] = {} if collect_nodal else None
    for v, diam, mu, control in graph.node_plan(cfg.controls, cfg.mu):
        # One loop over both systems, not a comprehension per system: this
        # runs per node and step.  zip stops at the node's last pipe, before
        # it takes a value of the next node.
        s_in, d_in = {}, {}
        for e, x, y in zip(diam, s_ins, r_ins):
            s_in[e], d_in[e] = x, y - x
        if mu is None:
            raise ConfigurationError(f"no gain mu for node {v!r}")
        if control is None:
            d_out = diff_junction_outflow(d_in, diam, mu)
            so = junction_outflow(s_in, diam).values()
            s_out += so
            r_out += [x + d for x, d in zip(so, d_out.values())]
        else:
            # y: the observer's R_in at the one pipe.  The observer keeps the
            # truth map's boundary form; S_out + mu delta rounds differently.
            u = control(t)
            s_out += junction_outflow(s_in, diam, (mu, u)).values()
            r_out.append(boundary_outflow(mu, u, y))
        if traces is not None:
            traces[v] = NodalTrace(mu, d_in, d_out if control is None
                                   else error_outflow(d_in, diam, mu))
    transport(s, graph, s_out, truth_friction, out.s_state)
    transport(r, graph, r_out, truth_friction, out.r_state)
    out.config = cfg
    return out, traces


def direct_diff_step(
    d_state: SimState,
    graph: NetworkGraph,
    mu: Mapping[NodeId, float],
    s_new: Optional[SimState] = None,
) -> SimState:
    """Advance the error system delta = R - S directly by one tick.

    Node maps: `error_outflow` at every node, its gain checked first.  The
    friction source sigma(delta + S) - sigma(S) is applied by the same
    implicit split, solving for the new delta with the truth difference
    frozen at its post-step value; `s_new` must therefore be the truth state
    already advanced to the same step index.  With zero friction everywhere
    the truth trajectory is not needed.
    """
    needs_truth = any(p.nu > 0.0 for p in graph.pipes)
    if needs_truth:
        if s_new is None:
            raise ConfigurationError(
                "direct_diff_step needs the advanced truth state when friction is active"
            )
        if s_new.step_index != d_state.step_index + 1:
            raise ConfigurationError(
                "truth state must already be advanced by one step "
                f"(got {s_new.step_index}, expected {d_state.step_index + 1})"
            )
    d_state = d_state.packed_on(graph)
    ins = iter(d_state.packed.take(d_state.layout.read_slots).tolist())
    outs = []
    for v in graph.nodes:
        check_gain(mu[v], v)
        diam = graph.diameters_at(v)
        outs += error_outflow(dict(zip(diam, ins)), diam, mu[v]).values()

    def shifted_friction(p: PipeSpec, g: EdgeGrid, dt: float) -> None:
        sg = s_new.grids[p.id]
        d = friction_root_shifted(g.r_plus - g.r_minus, sg.r_plus - sg.r_minus, 2.0 * dt * p.nu)
        recombine(g.r_plus + g.r_minus, d, g.r_plus, g.r_minus)

    return transport(d_state, graph, outs, shifted_friction)


def difference_state(r_state: SimState, s_state: SimState) -> SimState:
    """Pointwise observer error delta = R - S packaged as a SimState."""
    grids: Dict[PipeId, EdgeGrid] = {}
    for pid, rg in r_state.grids.items():
        sg = s_state.grids[pid]
        grids[pid] = EdgeGrid(
            rg.pipe, rg.n_cells, rg.dx, rg.cfl, rg.r_plus - sg.r_plus, rg.r_minus - sg.r_minus,
            rg.length_perturbation,
        )
    return SimState(grids=grids, dt=r_state.dt, step_index=r_state.step_index)
