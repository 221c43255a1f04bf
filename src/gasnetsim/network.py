"""Pipe network graph: orientation and junction coupling maps.

Each pipe is the interval [0, length] oriented from ``from_node`` to
``to_node``.  The orientation comes from the input file and does not have to
coincide with the direction of the flow.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from .errors import ValidationError

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
        if not 0 < self.diameter < math.inf:
            raise ValidationError(f"pipe {self.id!r}: diameter must be finite and positive")
        if not 0 <= self.theta < math.inf:
            raise ValidationError(f"pipe {self.id!r}: theta must be finite and nonnegative")

    @property
    def nu(self) -> float:
        """Friction coefficient of the invariant-space source term, theta/4."""
        return self.theta / 4.0

    @property
    def area(self) -> float:
        """Cross section pi D^2 / 4 in m^2."""
        return math.pi * self.diameter ** 2 / 4.0


def omega_v(diameters: Iterable[float]) -> float:
    """Junction coupling weight 2 / sum(D_f^2) over the pipes at a node."""
    ds = list(diameters)
    if not ds:
        raise ValidationError("omega_v needs at least one diameter")
    if any(not d > 0 for d in ds):
        raise ValidationError("omega_v: diameters must be positive")
    return 2.0 / sum(d * d for d in ds)


def junction_outflow(
    incoming: Mapping[PipeId, float],
    diameters: Mapping[PipeId, float],
    boundary_gain: Optional[Tuple[float, float]] = None,
) -> Dict[PipeId, float]:
    """Outgoing Riemann invariants at one node, given the incoming ones.

    Interior node (two or more pipes):
        out_e = -in_e + omega_v * sum_g D_g^2 in_g
    which enforces pressure continuity (out_e + in_e is the same on every
    pipe) and the diameter-squared weighted Kirchhoff balance.

    Degree-1 node: ``boundary_gain`` must supply (mu, u) and
        out = (1 - mu) * u + mu * in.
    """
    if set(incoming) != set(diameters):
        raise ValidationError("junction_outflow: incoming/diameter keys differ")
    if not incoming:
        raise ValidationError("junction_outflow: empty node")
    if len(incoming) == 1:
        if boundary_gain is None:
            raise ValidationError("degree-1 node needs boundary_gain=(mu, u)")
        mu, u = boundary_gain
        if abs(mu) > 1.0:
            raise ValidationError(f"boundary gain mu={mu} outside [-1, 1]")
        ((e, r_in),) = incoming.items()
        return {e: (1.0 - mu) * u + mu * r_in}
    if boundary_gain is not None:
        raise ValidationError("interior node takes no boundary_gain")
    w = omega_v(diameters.values())
    total = sum(diameters[e] ** 2 * r for e, r in incoming.items())
    return {e: w * total - r for e, r in incoming.items()}


class NetworkGraph:
    """Immutable pipe network with cached incident pipes per node.

    The per-node diameter tables are precomputed because every node map
    reads them on every time step; the node maps compute omega_v from them.
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
        self.incident_pipes(v)
        return self._diameters[v]

    def with_theta(self, theta: float) -> "NetworkGraph":
        """Copy of the graph with a uniform friction coefficient on all pipes."""
        return NetworkGraph([replace(p, theta=theta) for p in self.pipes])

    def __repr__(self) -> str:
        return (
            f"NetworkGraph({len(self.nodes)} nodes, {len(self.pipes)} pipes, "
            f"{len(self.boundary_nodes)} boundary)"
        )
