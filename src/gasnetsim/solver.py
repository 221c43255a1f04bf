"""Semilinear transport kernel: upwind advection at speed +-c plus an
implicit friction step, coupled through the node maps once per tick.

The splitting order is fixed: transport first, then friction.  At cfl = 1
the transport is an exact shift (implemented as a copy, so no rounding), and
the friction update has a closed-form root, so there are no iteration
tolerances anywhere in the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigurationError, ValidationError
from .network import NetworkGraph, NodeId, PipeId, PipeSpec, junction_outflow

Control = Callable[[float], float]
ArrayLike = Union[float, np.ndarray]

MODE_EXACT = "exact-advection"
MODE_CFL_SAFE = "cfl-safe"


@dataclass(slots=True)
class EdgeGrid:
    """Cell-centered invariant fields on one pipe; cell i sits at (i + 1/2) dx.
    It carries their shift views, made with them: a step reads `plus_src`
    (r_plus[:-1]) and `minus_src` (r_minus[1:]) from a grid and writes
    `plus_dst` (r_plus[1:]) and `minus_dst` (r_minus[:-1]) into one."""

    pipe: PipeId
    n_cells: int
    dx: float
    cfl: float
    r_plus: np.ndarray
    r_minus: np.ndarray
    length_perturbation: float = 0.0
    plus_src: np.ndarray = field(init=False, repr=False)
    minus_src: np.ndarray = field(init=False, repr=False)
    plus_dst: np.ndarray = field(init=False, repr=False)
    minus_dst: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_cells < 2:
            raise ValidationError(f"grid on {self.pipe!r} needs at least two cells")
        if self.cfl > 1.0 + 1e-12:
            raise ValidationError(f"grid on {self.pipe!r}: cfl={self.cfl} exceeds 1")
        if len(self.r_plus) != self.n_cells or len(self.r_minus) != self.n_cells:
            raise ValidationError(f"grid on {self.pipe!r}: field size != n_cells")
        p, m = self.r_plus, self.r_minus
        self.plus_src, self.minus_src, self.plus_dst, self.minus_dst = p[:-1], m[1:], p[1:], m[:-1]

    @property
    def length(self) -> float:
        """Effective (possibly snapped) pipe length n_cells * dx."""
        return self.n_cells * self.dx

    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass
class SimState:
    """All edge grids plus the simulation clock (t = step_index * dt).

    A packed state also holds its `layout` and the (2, cells) array `packed`
    of R+ (row 0) and R- (row 1) in layout order, which every grid views.
    The step functions step packed states only; one made from bare grids is
    packed once, by `packed_on`, where it enters them.  A step writes a new
    state, or the one passed as its `out`: the run loops alone pass one, and
    swap it with their current state every step.
    """

    grids: Dict[PipeId, EdgeGrid]
    dt: float
    step_index: int = 0
    layout: Optional["Layout"] = None
    packed: Optional[np.ndarray] = None

    @property
    def t(self) -> float:
        return self.step_index * self.dt

    def packed_on(self, graph: NetworkGraph) -> "SimState":
        """This state if it is packed on a layout of `graph`, else a packed
        copy of it on a new one."""
        if self.layout is not None and self.layout.graph is graph:
            return self
        return Layout.of(self.grids, graph).packed_state(self)

    def empty_like(self) -> "SimState":
        """A state on this packed state's layout, at its step, its pair not set."""
        return self.layout.packed_state(self, np.empty_like(self.packed))


def build_grids(graph: NetworkGraph, c: float, dt: float,
                mode: str = MODE_EXACT) -> Dict[PipeId, EdgeGrid]:
    """Discretize every pipe for time step dt at sound speed c, with zero fields.

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
        try:  # room for the pipe's fields; a vanishing c * dt asks for more than exists
            np.empty(int(ratio) + 1)
        except (OverflowError, ValueError, MemoryError):
            raise ConfigurationError(f"pipe {p.id!r} needs {ratio:.6g} cells at dt = {dt!r} s, "
                                     "too many to allocate") from None
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
        grids[p.id] = EdgeGrid(p.id, n, dx, cfl, np.zeros(n), np.zeros(n),
                               length_perturbation=pert)
    return grids


def advect_step(grid: EdgeGrid, inflow_plus: float, inflow_minus: float,
                out: Optional[EdgeGrid] = None) -> EdgeGrid:
    """One upwind transport step of `grid` into `out`, a grid of its size
    (else ValidationError) whose fields do not overlap the grid's, or into a
    new grid (None); returns `out`.

    r_plus moves rightwards with ghost value inflow_plus at x = 0, r_minus
    moves leftwards with ghost value inflow_minus at x = L.  At cfl = 1 the
    update is a pure shift, done as a copy so discontinuities stay sharp.
    """
    if out is None:
        out = _with_fields(grid, np.empty_like(grid.r_plus), np.empty_like(grid.r_minus))
    elif out.n_cells != grid.n_cells:
        raise ValidationError(f"advect_step on {grid.pipe!r}: out is not of the grid's size")
    out.r_plus[0] = inflow_plus
    out.plus_dst[...] = grid.plus_src
    out.r_minus[-1] = inflow_minus
    out.minus_dst[...] = grid.minus_src
    lam = grid.cfl
    if lam != 1.0:
        out.r_plus *= lam
        out.r_plus += (1.0 - lam) * grid.r_plus
        out.r_minus *= lam
        out.r_minus += (1.0 - lam) * grid.r_minus
    return out


def _with_fields(grid: EdgeGrid, plus: np.ndarray, minus: np.ndarray) -> EdgeGrid:
    """A copy of `grid` with the fields `plus` and `minus` and their shift views."""
    return replace(grid, r_plus=plus, r_minus=minus)


# The per-step ufuncs' constant operands, as 0-d arrays that numpy takes as
# they are; it converts a Python float on every call (0.67 against 0.43 us a
# call on 74 cells), to the same bits.  Read-only, as every call shares them.
_ONE, _TWO, _HALF = (np.array(c) for c in (1.0, 2.0, 0.5))
for _c in (_ONE, _TWO, _HALF):
    _c.flags.writeable = False


def _root_in_place(d: np.ndarray, a: float, w: np.ndarray) -> None:
    """Overwrite d_star in d (owned by the caller) by its `friction_root`, with
    w, of d's shape and sharing no memory with it, as the work array."""
    np.absolute(d, w)
    w *= 4.0 * a  # per-call coefficient: a 0-d array of it costs what it saves
    np.add(w, _ONE, w)
    np.sqrt(w, w)
    np.add(w, _ONE, w)
    np.multiply(d, _TWO, d)  # not d + d, which numpy's warnings name "add"
    d /= w


def friction_root(d_star: ArrayLike, a: float) -> ArrayLike:
    """Root of d + a |d| d = d_star for a >= 0, in a cancellation-free form.

    d = 2 d_star / (1 + sqrt(1 + 4 a |d_star|)); exact for a = 0 and
    monotone contracting (|d| <= |d_star|) for all inputs.  Doubling is
    exact and the division is sign-symmetric, so this equals
    sign(d_star) * 2 |d_star| / (...) bit for bit, signed zeros included.
    """
    d = np.array(d_star, dtype=float)
    _root_in_place(d, a, np.empty_like(d))
    return d if d.ndim else d[()]


def friction_root_shifted(d_star: ArrayLike, d_frozen: ArrayLike, a: float) -> ArrayLike:
    """Root of d + a (|d + s|(d + s) - |s| s) = d_star with s = d_frozen.

    Substituting u = d + s turns this into u + a |u| u = d_star + s + a |s| s,
    which the closed-form root solves exactly.
    """
    rhs = d_star + d_frozen + a * np.abs(d_frozen) * d_frozen
    return friction_root(rhs, a) - d_frozen


def recombine(s: np.ndarray, d: np.ndarray, plus: np.ndarray, minus: np.ndarray) -> None:
    """(s + d) / 2 into `plus` and (s - d) / 2 into `minus`, which may be `s`
    or `d`; x * 0.5 has the bits of x / 2."""
    np.add(s, d, plus)
    np.multiply(plus, _HALF, plus)
    np.subtract(s, d, minus)
    np.multiply(minus, _HALF, minus)


def friction_step(r_plus, r_minus, nu: float, dt: float, out=None):
    """Implicit Euler step of the friction source on (R+, R-).

    Preserves the sum R+ + R- and contracts the difference.  Works on
    scalars (Python floats or 0-d arrays) and on whole cell arrays.  The
    result goes to `out`, a pair of cell arrays, and is `(out[0], out[1])`;
    with no `out` it goes to a new pair (two numpy scalars for scalars, the
    inputs themselves for nu = 0).  The one temporary is the sum.
    Each of `out`'s arrays may be one of the inputs, in either order, or
    share no memory with them, and the two must not overlap each other:
    the difference goes to `out[1]` once the sum is formed, and the root's
    work array to `out[0]` once both are, so no input is read after it is
    overwritten.
    """
    if not nu >= 0:
        raise ValidationError("friction_step needs nu >= 0")
    if not dt > 0:
        raise ValidationError("friction_step needs dt > 0")
    a = 2.0 * dt * nu
    if a == 0.0:
        if out is None:
            return r_plus, r_minus
        out[0][...], out[1][...] = r_plus, np.array(r_minus)  # out[0] may be r_minus
        return out[0], out[1]
    s = np.add(r_plus, r_minus)
    plus, minus = (np.empty_like(s), np.empty_like(s)) if out is None else out
    np.subtract(r_plus, r_minus, minus)
    _root_in_place(minus, a, plus)
    recombine(s, minus, plus, minus)
    if out is None and not plus.ndim:
        return plus[()], minus[()]  # scalars in, scalars out
    return plus, minus


@dataclass(frozen=True, eq=False)
class Layout:
    """Where every pipe's cells sit in the packed R+ and R- arrays of one
    graph, built once per run from the grids: the one place that fixes the
    packed order.

    Pipes follow `graph.pipes`; `spans[i]` holds pipe `pipes[i]`'s cells,
    `weights[i]` is its L0 weight (D^2/2) * dx and `x` the packed cell centres.
    `read_slots` holds, node by node in `graph.nodes` order and pipe end by
    pipe end in `graph.diameters_at` order, the flat index into a (2, cells)
    pair of the cell the node reads: R+ at x = L of a pipe the node ends,
    R- at x = 0 otherwise.  `ends[i]` indexes pipe i's (from, to) reads there.
    """

    graph: NetworkGraph
    pipes: Tuple[PipeId, ...]
    spans: Tuple[slice, ...]
    weights: Tuple[float, ...]
    x: np.ndarray
    read_slots: np.ndarray
    ends: Tuple[Tuple[int, int], ...]

    @classmethod
    def of(cls, grids: Mapping[PipeId, EdgeGrid], graph: NetworkGraph) -> "Layout":
        gs = [grids[p.id] for p in graph.pipes]
        stops = accumulate(g.n_cells for g in gs)
        spans = tuple(slice(stop - g.n_cells, stop) for g, stop in zip(gs, stops))
        x = np.concatenate([g.cell_centers() for g in gs])
        x.flags.writeable = False
        cells = dict(zip((p.id for p in graph.pipes), spans))
        reads = [(v, p) for v in graph.nodes for p in graph.incident_pipes(v)]
        slots = np.array([cells[p.id].stop - 1 if v == p.to_node else len(x) + cells[p.id].start
                          for v, p in reads], dtype=np.intp)
        slots.flags.writeable = False
        at = {(v, p.id): k for k, (v, p) in enumerate(reads)}
        return cls(graph, tuple(cells), spans,
                   tuple(0.5 * p.diameter ** 2 * g.dx for p, g in zip(graph.pipes, gs)), x, slots,
                   tuple((at[p.from_node, p.id], at[p.to_node, p.id]) for p in graph.pipes))

    def pack(self, grids: Mapping[PipeId, EdgeGrid]) -> Tuple[np.ndarray, np.ndarray]:
        """R+ and R- of every pipe, each concatenated in layout order."""
        gs = [grids[pid] for pid in self.pipes]
        return np.concatenate([g.r_plus for g in gs]), np.concatenate([g.r_minus for g in gs])

    def views(self, pair: np.ndarray) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
        """Every pipe's (R+, R-) views into a (2, cells) `pair`, in layout order."""
        plus, minus = pair
        return tuple((plus[cells], minus[cells]) for cells in self.spans)

    def packed_state(self, state: SimState, pair: Optional[np.ndarray] = None) -> SimState:
        """`state` on this layout in the (2, cells) `pair`, by default a new
        one holding its fields: its grids, copied, view their cells of it."""
        pair = np.array(self.pack(state.grids)) if pair is None else pair
        return SimState({pid: _with_fields(state.grids[pid], *fields) for pid, fields in
                         zip(self.pipes, self.views(pair))}, state.dt, state.step_index, self, pair)


def truth_friction(pipe: PipeSpec, grid: EdgeGrid, dt: float) -> None:
    """The friction rule of the truth and observer systems: `friction_step`,
    over the grid's own fields."""
    friction_step(grid.r_plus, grid.r_minus, pipe.nu, dt, (grid.r_plus, grid.r_minus))


def transport(
    state: SimState,
    graph: NetworkGraph,
    outs: Sequence[float],
    friction: Callable[[PipeSpec, EdgeGrid, float], None],
    out: Optional[SimState] = None,
) -> SimState:
    """Advect every edge of the packed `state` into `out`, a state on its
    layout in a pair of its own (None: a new one), with the node outputs
    `outs`, one per read slot, at `Layout.ends` as ghost inflows, then on
    pipes with nu > 0 let `friction(pipe, grid, dt)` overwrite `out`'s grid's
    fields.  `state` is left as it was; `out`, at the next step, is returned."""
    out = state.empty_like() if out is None else out
    if out.packed is state.packed or out.layout is not state.layout or out.dt != state.dt:
        raise ConfigurationError("transport: out must be on the state's layout and dt, "
                                 "in a pair of its own")
    # a packed state's grids follow its layout, which follows `graph.pipes`
    for p, g, o, (a, b) in zip(graph.pipes, state.grids.values(), out.grids.values(),
                               state.layout.ends):
        advect_step(g, outs[a], outs[b], o)
        if p.nu > 0.0:
            friction(p, o, state.dt)
    out.step_index = state.step_index + 1
    return out


def step_system(
    state: SimState,
    graph: NetworkGraph,
    controls: Mapping[NodeId, Control],
    gains: Mapping[NodeId, float],
    out: Optional[SimState] = None,
) -> SimState:
    """Advance the truth system by one tick, into `out` as `transport` takes it.

    Order per tick: one gather of the layout's read slots takes the
    node-adjacent cells of the previous step, one pass over
    `graph.node_plan` evaluates the node maps, then `transport` advects
    every edge with those outputs as ghost inflows and applies
    `truth_friction` cellwise.
    """
    state = state.packed_on(graph)
    ins = iter(state.packed.take(state.layout.read_slots).tolist())
    outs = []
    for n in graph.node_plan(controls, gains):
        gain = None if n.control is None else (n.mu, n.control(state.t))
        # zip stops at the node's last pipe, before it takes another value
        outs += junction_outflow(dict(zip(n.diameters, ins)), n.diameters, gain).values()
    return transport(state, graph, outs, truth_friction, out)
