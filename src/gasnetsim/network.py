"""Pipe network graph: orientation and junction coupling maps.

Each pipe is the interval [0, length] oriented from ``from_node`` to
``to_node``.  The orientation comes from the input file and does not have to
coincide with the direction of the flow.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import ConfigurationError, ScheduleError, ValidationError

NodeId = str
PipeId = str


@dataclass(frozen=True)
class PipeSpec:
    """Geometry and friction data of one oriented pipe."""

    id: PipeId
    from_node: NodeId
    to_node: NodeId
    length: float          # m
    diameter: float        # m
    theta: float = 0.0     # 1/m, lambda_fric / D

    def __post_init__(self) -> None:
        if self.from_node == self.to_node:
            raise ValidationError(f"pipe {self.id!r}: from_node equals to_node")
        if not 0 < self.length < math.inf:
            raise ValidationError(f"pipe {self.id!r}: length must be finite and positive")
        if not (self.diameter > 0 and 0 < self.diameter * self.diameter < math.inf):
            raise ValidationError(f"pipe {self.id!r}: diameter must be positive, with a square "
                                  "that is finite and nonzero")
        if not 0 <= self.theta < math.inf:
            raise ValidationError(f"pipe {self.id!r}: theta must be finite and nonnegative")

    @functools.cached_property  # read twice per pipe and step; not a field, so not compared
    def nu(self) -> float:
        """Friction coefficient of the invariant-space source term, theta/4."""
        return self.theta / 4.0

    @property
    def area(self) -> float:
        """Cross section pi D^2 / 4 in m^2."""
        return math.pi * self.diameter ** 2 / 4.0


def check_gain(mu: float, node: Optional[NodeId]) -> None:
    """Reject a gain mu outside [-1, 1], NaN included, at `node` (or None)."""
    if not abs(mu) <= 1.0:
        at = "" if node is None else f" at node {node!r}"
        raise ValidationError(f"mu{at} is {mu}, outside [-1, 1]")


def omega_v(diameters: Iterable[float]) -> float:
    """Junction coupling weight 2 / sum(D_f^2) over the pipes at a node."""
    return _omega_v(tuple(diameters))


@functools.lru_cache(maxsize=4096)
def _omega_v(ds: Tuple[float, ...]) -> float:
    # Fixed per node, so every node map of a run after the first is a lookup;
    # an error is not cached and is raised again on every call.
    if not ds:
        raise ValidationError("omega_v needs at least one diameter")
    if any(not d > 0 for d in ds):
        raise ValidationError("omega_v: diameters must be positive")
    return 2.0 / sum(d * d for d in ds)


def junction_outflow(incoming: Mapping[PipeId, float], diameters: Mapping[PipeId, float],
                     boundary_gain: Optional[Tuple[float, float]] = None) -> Dict[PipeId, float]:
    """Outgoing Riemann invariants at one node, given the incoming ones.

    Interior node (two or more pipes):
        out_e = -in_e + omega_v * sum_g D_g^2 in_g
    which enforces pressure continuity (out_e + in_e is the same on every
    pipe) and the diameter-squared weighted Kirchhoff balance.

    Degree-1 node: ``boundary_gain`` must supply (mu, u) and
        out = (1 - mu) * u + mu * in.
    """
    if incoming.keys() != diameters.keys():
        raise ValidationError("junction_outflow: incoming/diameter keys differ")
    if not incoming:
        raise ValidationError("junction_outflow: empty node")
    if len(incoming) == 1:
        if boundary_gain is None:
            raise ValidationError("degree-1 node needs boundary_gain=(mu, u)")
        mu, u = boundary_gain
        check_gain(mu, None)
        ((e, r_in),) = incoming.items()
        return {e: (1.0 - mu) * u + mu * r_in}
    if boundary_gain is not None:
        raise ValidationError("interior node takes no boundary_gain")
    w = omega_v(diameters.values())
    total = sum(diameters[e] ** 2 * r for e, r in incoming.items())
    return {e: w * total - r for e, r in incoming.items()}


class PlanNode(NamedTuple):
    """The per-run constants of one node map (see `NetworkGraph.node_plan`)."""

    node: NodeId
    reads: Tuple[Tuple[PipeId, bool], ...]  # (pipe, the node is its to_node) per pipe
    diameters: Dict[PipeId, float]
    mu: Optional[float]  # checked; None at an interior node without a gain
    control: Optional[Callable[[float], float]]  # None at an interior node

    def incoming(self, grids) -> Dict[PipeId, float]:
        """The node's incoming invariants in `grids` (pipe id -> EdgeGrid): R+
        at x = L of a pipe it is the to_node of, R- at x = 0 otherwise."""
        return {e: grids[e].r_plus.item(-1) if at_to else grids[e].r_minus.item(0)
                for e, at_to in self.reads}


class NetworkGraph:
    """Immutable pipe network with cached incident pipes per node.

    The per-node diameter tables are precomputed because every node map
    reads them on every time step; `omega_v` of a table is memoised.
    """

    def __init__(self, pipes: Sequence[PipeSpec]):
        pipes = tuple(pipes)
        if not pipes:
            raise ValidationError("a network needs at least one pipe")
        ids = [p.id for p in pipes]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise ValidationError(f"duplicate pipe id(s): {dup}")
        self.pipes: Tuple[PipeSpec, ...] = pipes

        nodes: list[NodeId] = []
        incident: Dict[NodeId, list[PipeSpec]] = {}
        for p in pipes:
            for v in (p.from_node, p.to_node):
                if v not in incident:
                    incident[v] = []
                    nodes.append(v)
            incident[p.from_node].append(p)
            incident[p.to_node].append(p)
        self.nodes: Tuple[NodeId, ...] = tuple(nodes)
        self._incident: Dict[NodeId, Tuple[PipeSpec, ...]] = {
            v: tuple(ps) for v, ps in incident.items()
        }
        self._check_connected()
        self._diameters: Dict[NodeId, Dict[PipeId, float]] = {
            v: {p.id: p.diameter for p in self._incident[v]} for v in self.nodes
        }
        self.boundary_nodes: Tuple[NodeId, ...] = tuple(
            v for v in self.nodes if len(self._incident[v]) == 1
        )
        self._plan: tuple = (None,) * 5  # controls, gains, copies of both, plan

    def _check_connected(self) -> None:
        seen = {self.nodes[0]}
        queue = deque(seen)
        while queue:
            v = queue.popleft()
            for p in self._incident[v]:
                for w in (p.from_node, p.to_node):
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
        if len(seen) != len(self.nodes):
            missing = sorted(set(self.nodes) - seen)
            raise ValidationError(f"network is not connected, unreachable: {missing}")

    def incident_pipes(self, v: NodeId) -> Tuple[PipeSpec, ...]:
        try:
            return self._incident[v]
        except KeyError:
            raise ValidationError(f"unknown node id {v!r}") from None

    def diameters_at(self, v: NodeId) -> Dict[PipeId, float]:
        try:
            return self._diameters[v]
        except KeyError:
            raise ValidationError(f"unknown node id {v!r}") from None

    def node_plan(
        self, controls: Mapping[NodeId, Callable[[float], float]], gains: Mapping[NodeId, float]
    ) -> Tuple[PlanNode, ...]:
        """One `PlanNode` per node, in `nodes` order; every boundary node needs
        a control and a gain.  The plan is built once and returned again while
        the same two mappings are passed unchanged."""
        last = self._plan  # read once: the tuple is replaced, never changed
        if last[0] is controls and last[1] is gains and last[2] == controls \
                and last[3] == gains:
            return last[4]
        nodes = []
        for v in self.nodes:
            mu, boundary = gains.get(v), len(self._incident[v]) == 1
            if boundary and v not in controls:
                raise ScheduleError(f"no boundary control for node {v!r}")
            if boundary and mu is None:
                raise ConfigurationError(f"no boundary gain mu for node {v!r}")
            if mu is not None:
                check_gain(mu, v)
            reads = tuple((p.id, v == p.to_node) for p in self._incident[v])
            nodes.append(PlanNode(v, reads, self._diameters[v], mu,
                                  controls[v] if boundary else None))
        plan = tuple(nodes)
        self._plan = (controls, gains, dict(controls), dict(gains), plan)
        return plan

    def with_theta(self, theta: float) -> "NetworkGraph":
        """Copy of the graph with a uniform friction coefficient on all pipes."""
        return NetworkGraph([replace(p, theta=theta) for p in self.pipes])

    def __repr__(self) -> str:
        return (
            f"NetworkGraph({len(self.nodes)} nodes, {len(self.pipes)} pipes, "
            f"{len(self.boundary_nodes)} boundary)"
        )
