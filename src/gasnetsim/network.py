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
from types import MappingProxyType
from typing import Callable, Dict, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import ConfigurationError, ScheduleError, ValidationError

NodeId = str
PipeId = str

# Characters an id may not hold: each would split or quote a row of an output CSV.
_ID_BREAKERS = frozenset(',"\r\n')


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
        for name in (self.id, self.from_node, self.to_node):
            if not name or not _ID_BREAKERS.isdisjoint(name):
                raise ValidationError(f"pipe {self.id!r}: an id must be nonempty and hold no "
                                      f"',', '\"', CR or LF, got {name!r}")
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
    ds = tuple(diameters)
    if not ds:
        raise ValidationError("omega_v needs at least one diameter")
    if any(not d > 0 for d in ds):
        raise ValidationError("omega_v: diameters must be positive")
    total = 0.0  # a left fold, as every node-map sum: CPython 3.12's sum() compensates
    for d in ds:
        total += d * d
    return 2.0 / total


class NodeDiameters(dict):
    """The diameter of each pipe at one node, as `NetworkGraph.diameters_at`
    gives it: read-only, so the node map's constants, `squares` (D^2 per
    pipe) and `omega` (`omega_v`), are computed once, on first use."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("a node's diameter table is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = \
        __setattr__ = __delattr__ = _read_only

    def __reduce__(self):  # copy and pickle rebuild the table, not set its items
        return NodeDiameters, (dict(self),)

    @functools.cached_property
    def squares(self) -> Mapping[PipeId, float]:
        return MappingProxyType({e: d ** 2 for e, d in self.items()})

    @functools.cached_property
    def omega(self) -> float:
        return omega_v(self.values())


def node_table(diameters: Mapping[PipeId, float]) -> NodeDiameters:
    """`diameters` if it is a graph's table, else a table of its items, whose
    constants are then computed for this call alone."""
    return diameters if type(diameters) is NodeDiameters else NodeDiameters(diameters)


def junction_outflow(incoming: Mapping[PipeId, float], diameters: Mapping[PipeId, float],
                     boundary_gain: Optional[Tuple[float, float]] = None) -> Dict[PipeId, float]:
    """Outgoing Riemann invariants at one node, given the incoming ones.

    Interior node (two or more pipes):
        out_e = -in_e + omega_v * sum_g D_g^2 in_g
    which enforces pressure continuity (out_e + in_e is the same on every
    pipe) and the diameter-squared weighted Kirchhoff balance.

    Degree-1 node: ``boundary_gain`` must supply (mu, u) and the output is
    `boundary_outflow`.
    """
    # Per node call: the fold's key lookups, not a key-set compare; a loop, not a comprehension.
    n, differ = len(incoming), "junction_outflow: incoming/diameter keys differ"
    if n != len(diameters):
        raise ValidationError(differ)
    if not n:
        raise ValidationError("junction_outflow: empty node")
    if n == 1:
        ((e, r_in),) = incoming.items()
        if e not in diameters:
            raise ValidationError(differ)
        if boundary_gain is None:
            raise ValidationError("degree-1 node needs boundary_gain=(mu, u)")
        mu, u = boundary_gain
        if not abs(mu) <= 1.0:
            check_gain(mu, None)
        return {e: boundary_outflow(mu, u, r_in)}
    if boundary_gain is not None:
        raise ValidationError(differ if incoming.keys() != diameters.keys()
                              else "interior node takes no boundary_gain")
    table, total, out = node_table(diameters), 0.0, {}
    try:
        w, squares = table.omega, table.squares
        for e, r in incoming.items():
            total += squares[e] * r
    except Exception:  # a key not in the table, or an error that a key mismatch precedes
        if incoming.keys() != diameters.keys():
            raise ValidationError(differ) from None
        raise
    for e, r in incoming.items():
        out[e] = w * total - r
    return out


def boundary_outflow(mu: float, u: float, r_in: float) -> float:
    """The outgoing invariant (1 - mu) u + mu R_in at a degree-1 node with
    control value u, in the one rounding that the truth and the observer share."""
    return (1.0 - mu) * u + mu * r_in


class PlanNode(NamedTuple):
    """The per-run constants of one node map (see `NetworkGraph.node_plan`)."""

    node: NodeId
    diameters: NodeDiameters  # pipe by pipe in the order of the node's read slots
    mu: Optional[float]  # checked; None at an interior node without a gain
    control: Optional[Callable[[float], float]]  # None at an interior node


class NetworkGraph:
    """Immutable pipe network with cached incident pipes per node.

    The per-node diameter tables (`NodeDiameters`) are built once because
    every node map uses them, with their constants, on every time step.
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
        self._diameters: Dict[NodeId, NodeDiameters] = {
            v: NodeDiameters((p.id, p.diameter) for p in self._incident[v]) for v in self.nodes
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

    def diameters_at(self, v: NodeId) -> NodeDiameters:
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
            nodes.append(PlanNode(v, self._diameters[v], mu, controls[v] if boundary else None))
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
