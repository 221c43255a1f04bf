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
from .network import NetworkGraph, NodeId, PipeId, PipeSpec, check_gain, junction_outflow, omega_v
from .solver import (Control, EdgeGrid, SimState, friction_root_shifted, gather_node_inputs,
                     step_system, transport)


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
    check_gain(mu, None)
    if delta_in.keys() != diameters.keys():
        raise ValidationError("diff_junction_outflow: key mismatch")
    w = omega_v(diameters.values())
    total = sum(diameters[e] ** 2 * d for e, d in delta_in.items())
    return {e: mu * (w * total - d) for e, d in delta_in.items()}


def error_node_outputs(
    graph: NetworkGraph, delta_in: Mapping[NodeId, Mapping[PipeId, float]],
    mu: Mapping[NodeId, float]
) -> Dict[NodeId, Dict[PipeId, float]]:
    """Outgoing error invariants at every node: mu * delta_in at boundary
    nodes, `diff_junction_outflow` at interior nodes."""
    outs: Dict[NodeId, Dict[PipeId, float]] = {}
    for v, incoming in delta_in.items():
        m = mu[v]
        check_gain(m, v)
        if len(incoming) == 1:
            outs[v] = {e: m * d for e, d in incoming.items()}
        else:
            outs[v] = diff_junction_outflow(incoming, graph.diameters_at(v), m)
    return outs


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
    cs: CoupledState, graph: NetworkGraph, collect_nodal: bool = False
) -> Tuple[CoupledState, Optional[Dict[NodeId, NodalTrace]]]:
    """Advance truth and observer together by one tick.

    Both node maps read the previous-step edge states (one shared
    measurement snapshot) and the same control values u(t), then the two
    systems advance independently.  One pass over `graph.node_plan` gives
    every node's truth map, error map (as `error_node_outputs`) and observer
    map (as `observer_node_update`).
    """
    cfg, s, r = cs.config, cs.s_state, cs.r_state
    s_out: Dict[NodeId, Dict[PipeId, float]] = {}
    r_out: Dict[NodeId, Dict[PipeId, float]] = {}
    traces: Optional[Dict[NodeId, NodalTrace]] = {} if collect_nodal else None
    for v, reads, diam, mu, control in graph.node_plan(cfg.controls, cfg.mu):
        # One loop, not a comprehension per map: this runs per node and step.
        s_in, d_in = {}, {}
        for e, at_to in reads:
            sg, rg = s.grids[e], r.grids[e]
            if at_to:
                x, y = sg.r_plus.item(-1), rg.r_plus.item(-1)
            else:
                x, y = sg.r_minus.item(0), rg.r_minus.item(0)
            s_in[e], d_in[e] = x, y - x
        if control is None:
            if mu is None:
                raise ConfigurationError(f"no gain mu for node {v!r}")
            so = s_out[v] = junction_outflow(s_in, diam)
            d_out = diff_junction_outflow(d_in, diam, mu)
            r_out[v] = {e: so[e] + d_out[e] for e in so}
        else:
            # e, y: the one pipe and R_in.  The observer keeps the truth map's
            # form (1 - mu) u + mu R_in; S_out + mu delta rounds differently.
            u = control(s.t)
            s_out[v] = junction_outflow(s_in, diam, (mu, u))
            r_out[v] = {e: (1.0 - mu) * u + mu * y}
            d_out = {e: mu * d_in[e]}
        if traces is not None:
            traces[v] = NodalTrace(mu, d_in, d_out)
    s_next = step_system(s, graph, cfg.controls, cfg.mu, node_outs=s_out)
    r_next = step_system(r, graph, cfg.controls, cfg.mu, node_outs=r_out)
    return CoupledState(s_next, r_next, cfg), traces


def direct_diff_step(
    d_state: SimState,
    graph: NetworkGraph,
    mu: Mapping[NodeId, float],
    s_new: Optional[SimState] = None,
) -> SimState:
    """Advance the error system delta = R - S directly by one tick.

    Node maps: `error_node_outputs`.  The friction source
    sigma(delta + S) - sigma(S) is applied by the same implicit split,
    solving for the new delta with the truth difference frozen at its
    post-step value; `s_new` must therefore be the truth state already
    advanced to the same step index.  With zero friction everywhere the
    truth trajectory is not needed.
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
    outs = error_node_outputs(graph, gather_node_inputs(d_state, graph), mu)

    def shifted_friction(p: PipeSpec, g: EdgeGrid):
        sg = s_new.grids[p.id]
        a = 2.0 * d_state.dt * p.nu
        ssum = g.r_plus + g.r_minus
        d = friction_root_shifted(g.r_plus - g.r_minus, sg.r_plus - sg.r_minus, a)
        return (ssum + d) / 2.0, (ssum - d) / 2.0

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
