"""Network and scenario file ingestion and boundary schedules.

Native network format (one record per non-comment line, '#' comments):

    node <id>
    pipe <id> <from> <to> <length_m> <diameter_m>

GasLib subset: XML ``<pipe from=.. to=..>`` elements with ``<length>`` and
``<diameter>`` children carrying value/unit attributes (km/m and mm/m).
Compressor stations, valves and other non-pipe connections are rejected.

Scenario format: key/value lines documented in the README; pressures in bar
(1 bar = 1e5 Pa), mass flows in kg/s counted positive into the network.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, ParseError, ScheduleError, ValidationError
from .network import NetworkGraph, NodeId, PipeId, PipeSpec, check_gain
from .physics import AgaLaw, IsentropicLaw, IsothermalLaw, PressureLaw

BAR = 1.0e5  # Pa

DATA_DIR = Path(__file__).parent / "data"

LENGTH_UNITS = {"m": 1.0, "km": 1000.0, "meter": 1.0}
DIAMETER_UNITS = {"m": 1.0, "mm": 1.0e-3, "meter": 1.0}


def bundled_path(name: str) -> Path:
    p = DATA_DIR / name
    if not p.exists():
        raise FileNotFoundError(f"no bundled data file named {name!r}")
    return p


# ---------------------------------------------------------------------------
# network parsing


def parse_network(text: str) -> NetworkGraph:
    """Parse GasLib-subset XML if the text starts with '<', else the native format."""
    if text.lstrip().startswith("<"):
        return _parse_gaslib(text)
    return _parse_native(text)


def _read_text(path) -> str:
    """The file's UTF-8 text; failing to read or decode it is an input error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


def parse_network_file(path) -> NetworkGraph:
    return parse_network(_read_text(path))


def _parse_native(text: str) -> NetworkGraph:
    nodes: List[NodeId] = []
    pipes: List[PipeSpec] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "node":
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: node record needs exactly one id")
            nodes.append(parts[1])
        elif kind == "pipe":
            if len(parts) != 6:
                raise ParseError(f"line {lineno}: pipe record needs 'pipe <id> <from> <to> "
                                 "<length_m> <diameter_m>'; friction is the scenario's 'theta'")
            pid, from_node, to_node = parts[1:4]
            try:
                length, diameter = float(parts[4]), float(parts[5])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            try:
                pipes.append(PipeSpec(pid, from_node, to_node, length, diameter))
            except ValidationError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        else:
            raise ParseError(f"line {lineno}: unknown record kind {kind!r}")
    declared = set(nodes)
    used = {n for p in pipes for n in (p.from_node, p.to_node)}
    stray = declared - used
    if stray:
        raise ParseError(f"declared node(s) not attached to any pipe: {sorted(stray)}")
    return NetworkGraph(pipes)


def _strip_ns(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


_REJECTED_ELEMENTS = {
    "compressorStation",
    "valve",
    "controlValve",
    "resistor",
    "shortPipe",
}


def _parse_gaslib(text: str) -> NetworkGraph:
    import xml.etree.ElementTree as ET  # imported here: only a GasLib read needs it
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ParseError(f"malformed XML: {exc}") from None
    pipes: List[PipeSpec] = []
    counter = 0
    for elem in root.iter():
        tag = _strip_ns(elem.tag)
        if tag in _REJECTED_ELEMENTS:
            ident = elem.get("id", "?")
            raise ParseError(
                f"unsupported element <{tag}> (id={ident!r}): only plain pipes "
                "are accepted; remove compressors/valves first"
            )
        if tag != "pipe":
            continue
        counter += 1
        pid = elem.get("id") or f"pipe{counter}"
        from_node = elem.get("from")
        to_node = elem.get("to")
        if from_node is None or to_node is None:
            raise ParseError(f"<pipe id={pid!r}> is missing a from/to attribute")
        length = _child_quantity(elem, pid, "length", LENGTH_UNITS)
        diameter = _child_quantity(elem, pid, "diameter", DIAMETER_UNITS)
        try:
            pipes.append(PipeSpec(pid, from_node, to_node, length, diameter))
        except ValidationError as exc:
            raise ParseError(f"<pipe id={pid!r}>: {exc}") from None
    if not pipes:
        raise ParseError("document contains no <pipe> elements")
    return NetworkGraph(pipes)


def _child_quantity(elem, pid: str, name: str, units: Mapping[str, float]) -> float:
    child = None
    for sub in elem:
        if _strip_ns(sub.tag) == name:
            child = sub
            break
    if child is None:
        raise ParseError(f"<pipe id={pid!r}> is missing a <{name}> child")
    value = child.get("value")
    if value is None:
        raise ParseError(f"<{name}> of pipe {pid!r} is missing the value attribute")
    unit = child.get("unit", "m")
    if unit not in units:
        raise ParseError(
            f"<{name}> of pipe {pid!r} has unknown unit {unit!r} "
            f"(accepted: {sorted(units)})"
        )
    try:
        return float(value) * units[unit]
    except ValueError:
        raise ParseError(f"<{name}> of pipe {pid!r} has non-numeric value {value!r}") from None


# ---------------------------------------------------------------------------
# scenarios


@dataclass(frozen=True)
class InitialCondition:
    """Initial pressure profile on one pipe, in bar.

    constant:   p(x) = p_base
    half_step:  p(x) = p_base + h on the first half (x < L/2), p_base after
    sinusoidal: p(x) = p_base + h sin(f pi x / L)
    """

    kind: str
    p_base: float
    h: float = 0.0
    f: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "half_step", "sinusoidal"):
            raise ValidationError(f"unknown initial-condition kind {self.kind!r}")
        if not (math.isfinite(self.p_base) and math.isfinite(self.h)):
            raise ValidationError("initial condition needs finite p_base and h")
        if self.kind == "sinusoidal" and not 1 <= self.f <= sys.float_info.max:
            raise ValidationError("sinusoidal initial condition needs f >= 1 in the float range")

    def pressure_bar(self, x: np.ndarray, length: float) -> np.ndarray:
        if self.kind == "constant":
            return np.full_like(x, self.p_base, dtype=float)
        if self.kind == "half_step":
            return np.where(x < length / 2.0, self.p_base + self.h, self.p_base)
        return self.p_base + self.h * np.sin(self.f * math.pi * x / length)


@dataclass(frozen=True)
class BoundaryPoint:
    t: float
    p_bar: float
    m_kg_s: float  # positive = mass flowing from the node into the network


@dataclass
class ScenarioSpec:
    """Everything needed to run one experiment on a given network."""

    law: PressureLaw = IsothermalLaw()
    theta: float = 0.0137
    rest_pressure_bar: float = 60.0
    t_end: float = 600.0
    dt: Optional[float] = None
    mode: str = "exact-advection"
    mu_preset: str = "uniform"  # uniform | mixed
    mu_uniform: float = 0.0
    mu_overrides: Dict[NodeId, float] = field(default_factory=dict)
    ic_s: Dict[PipeId, InitialCondition] = field(default_factory=dict)
    ic_r: Dict[PipeId, InitialCondition] = field(default_factory=dict)
    boundary: Dict[NodeId, Tuple[BoundaryPoint, ...]] = field(default_factory=dict)
    boundary_default: Optional[Tuple[BoundaryPoint, ...]] = None

    def __post_init__(self) -> None:
        if self.mu_preset not in ("uniform", "mixed"):
            raise ValidationError(f"unknown mu preset {self.mu_preset!r}")
        check_gain(self.mu_uniform, None)
        for v, m in self.mu_overrides.items():
            check_gain(m, v)
        if not 0 <= self.theta < math.inf:
            raise ValidationError(f"theta must be finite and nonnegative, got {self.theta}")
        for v, points in self.boundary.items():
            _check_schedule(points, f"boundary {v}")
        if self.boundary_default is not None:
            _check_schedule(self.boundary_default, "boundary default")

    def resolve_mu(self, graph: NetworkGraph) -> Dict[NodeId, float]:
        """Per-node gains: preset first, explicit overrides on top."""
        if self.mu_preset == "uniform":
            mu = {v: self.mu_uniform for v in graph.nodes}
        else:
            mu = {v: _mixed_mu(v) for v in graph.nodes}
        for v, m in self.mu_overrides.items():
            if v not in mu:
                raise ValidationError(f"mu override for unknown node {v!r}")
            mu[v] = m
        return mu

    def schedule_for(self, v: NodeId) -> Tuple[BoundaryPoint, ...]:
        if v in self.boundary:
            return self.boundary[v]
        if self.boundary_default is not None:
            return self.boundary_default
        return (BoundaryPoint(0.0, self.rest_pressure_bar, 0.0),)

    def ic_for(self, which: str, pipe_id: PipeId) -> InitialCondition:
        table = {"S": self.ic_s, "R": self.ic_r}[which]
        return table.get(pipe_id, InitialCondition("constant", self.rest_pressure_bar))


# Gains for the `mixed` preset reproduced from the experiment description:
# measurement injection (mu=0) at every even-indexed node plus these odd ones.
_MIXED_EXTRA_ZEROS = {1, 5, 7, 15, 17, 29}


def _mixed_mu(v: NodeId) -> float:
    try:
        idx = int(v)
    except ValueError:
        raise ValidationError(
            f"the mixed mu preset needs integer node ids, got {v!r}"
        ) from None
    return 0.0 if (idx % 2 == 0 or idx in _MIXED_EXTRA_ZEROS) else 1.0


def _check_schedule(points: Sequence[BoundaryPoint], where: str) -> None:
    if not points:
        raise ValidationError(f"{where}: boundary schedule needs at least one breakpoint")
    ts = [p.t for p in points]
    if any(t1 <= t0 for t0, t1 in zip(ts, ts[1:])):
        raise ValidationError(f"{where}: schedule breakpoints must be strictly increasing, "
                              f"got {ts}")
    for p in points:
        if not all(map(math.isfinite, (p.t, p.p_bar, p.m_kg_s))) or p.p_bar <= 0:
            raise ValidationError(f"{where}: bad schedule breakpoint {p}")


def parse_scenario(text: str) -> ScenarioSpec:
    spec = ScenarioSpec()
    law_cls, law_args = IsothermalLaw, {}
    law_refs: Dict[str, float] = {}
    boundary: Dict[NodeId, List[BoundaryPoint]] = {}
    boundary_default: List[BoundaryPoint] = []
    mu_overrides: Dict[NodeId, float] = {}
    ic_s: Dict[PipeId, InitialCondition] = {}
    ic_r: Dict[PipeId, InitialCondition] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *fields = line.split()
        # Each record unpacks exactly the fields it takes: a missing or an
        # extra field raises ValueError and is reported as malformed.
        try:
            if key == "law":
                kind, *values = fields
                if kind not in _LAWS:
                    raise ValidationError(f"unknown pressure law {kind!r}")
                law_cls, names = _LAWS[kind]
                law_args = dict(zip(names, map(float, values), strict=True))
            elif key in _LAW_REFS or key in _POSITIVE_KEYS:
                (text,) = fields
                if not 0 < (value := float(text)) < math.inf:
                    raise ValidationError(f"value must be finite and positive, got {value}")
                if key in _LAW_REFS:
                    law_refs[key] = value
                else:
                    spec = replace(spec, **{_POSITIVE_KEYS[key]: value})
            elif key == "theta":
                (value,) = fields
                spec = replace(spec, theta=float(value))
            elif key == "mode":
                (mode,) = fields
                if mode not in ("exact-advection", "cfl-safe"):
                    raise ValidationError(f"unknown mode {mode!r}")
                spec = replace(spec, mode=mode)
            elif key == "mu":
                directive, *values = fields
                if directive == "uniform":
                    (value,) = values
                    spec = replace(spec, mu_preset="uniform", mu_uniform=float(value))
                elif directive == "mixed":
                    () = values
                    spec = replace(spec, mu_preset="mixed")
                elif directive == "node":
                    v, value = values
                    mu_overrides[v] = float(value)
                else:
                    raise ValidationError(f"unknown mu directive {directive!r}")
            elif key == "ic":
                which, pid, kind, *values = fields
                if which not in ("S", "R"):
                    raise ValidationError(f"ic system must be S or R, got {which!r}")
                if kind == "constant":
                    (p_base,) = values
                    ic = InitialCondition(kind, float(p_base))
                elif kind == "half_step":
                    p_base, h = values
                    ic = InitialCondition(kind, float(p_base), float(h))
                elif kind == "sinusoidal":
                    p_base, h, f = values
                    ic = InitialCondition(kind, float(p_base), float(h), int(f))
                else:
                    raise ValidationError(f"unknown ic kind {kind!r}")
                (ic_s if which == "S" else ic_r)[pid] = ic
            elif key == "boundary":
                target, t, p_bar, m_kg_s = fields
                point = BoundaryPoint(float(t), float(p_bar), float(m_kg_s))
                if target == "default":
                    boundary_default.append(point)
                else:
                    boundary.setdefault(target, []).append(point)
            else:
                raise ValidationError(f"unknown key {key!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, ValidationError):
                raise ParseError(f"line {lineno}: {exc}") from None
            raise ParseError(f"line {lineno}: malformed {key!r} record ({exc})") from None
    if law_cls is not IsothermalLaw:
        law_refs.pop("c", None)
    try:
        spec = replace(
            spec,
            law=law_cls(**law_args, **law_refs),
            mu_overrides=mu_overrides,
            ic_s=ic_s,
            ic_r=ic_r,
            boundary={v: tuple(pts) for v, pts in boundary.items()},
            boundary_default=tuple(boundary_default) if boundary_default else None,
        )
    except ValidationError as exc:
        raise ParseError(str(exc)) from None
    return spec


def parse_scenario_file(path) -> ScenarioSpec:
    return parse_scenario(_read_text(path))


# The law of each `law <kind> ...` record and the names of its fields.
_LAWS = {"isothermal": (IsothermalLaw, ()), "isentropic": (IsentropicLaw, ("a", "gamma")),
         "aga": (AgaLaw, ("rs_t", "alpha"))}
# Records `key value` whose value must be finite and positive: the law's
# reference values (`c` is read by the isothermal law only), which may come
# before or after the `law` record, and the scenario's, by field name.
_LAW_REFS = ("c", "rho_ref")
_POSITIVE_KEYS = {"rest_pressure": "rest_pressure_bar", "t_end": "t_end", "dt": "dt"}


# ---------------------------------------------------------------------------
# boundary schedules


def _interp(t: float, ts: Tuple[float, ...], fs: Tuple[float, ...], j: int) -> float:
    """`np.interp(t, ts, fs)` bit for bit, with `j = bisect_right(ts, t) - 1`
    (its search on strictly increasing `ts`): the end values outside, the
    breakpoint value at one, else its formula and its fallbacks for NaN."""
    if j < 0:
        return fs[0]
    if j == len(ts) - 1:  # at or after the last breakpoint, or t is NaN
        return t if t != t and j else fs[j]
    if ts[j] == t:
        return fs[j]
    slope = (fs[j + 1] - fs[j]) / (ts[j + 1] - ts[j])  # the times differ, so no 0 below
    y = slope * (t - ts[j]) + fs[j]
    if y != y:
        y = slope * (t - ts[j + 1]) + fs[j + 1]
        if y != y and fs[j] == fs[j + 1]:
            y = fs[j]
    return y


def make_boundary_control(
    points: Sequence[BoundaryPoint], pipe: PipeSpec, law: PressureLaw
):
    """Callable t -> u for the solver, closing over one node's schedule.

    Pressure and mass flow are interpolated linearly between breakpoints and
    held constant after the last one; t < 0 raises ScheduleError.  Then
    u = Rt(rho(p)) + m / (rho A) with A = pi D^2 / 4 and m counted positive
    into the network, the same expression at both pipe ends.  A breakpoint
    pressure that the law has no density for, or whose rho A is 0, is
    refused here, naming the pipe.
    """
    pts = tuple(points)
    _check_schedule(pts, f"boundary schedule at pipe {pipe.id!r}")
    ts, ps, ms = zip(*((float(p.t), float(p.p_bar), float(p.m_kg_s)) for p in pts))
    area = pipe.area
    # Every control value lies between two breakpoints or at one, and each
    # law's admissible pressures form an interval: the breakpoints cover every t.
    for p in pts:
        where = f"boundary pressure {p.p_bar!r} bar at pipe {pipe.id!r}"
        try:
            rho = law.density_from_pressure(p.p_bar * BAR)
        except DomainError as exc:
            raise DomainError(f"{where}: {exc}") from None
        if rho * area == 0:
            raise ValidationError(f"{where} gives a density times cross section of 0")

    def control(t: float) -> float:
        if t < 0:
            raise ScheduleError(f"schedule evaluated at negative time t={t}")
        j = bisect_right(ts, t) - 1  # one search for both columns
        p_bar = _interp(t, ts, ps, j)
        m = _interp(t, ts, ms, j)
        rho = float(law.density_from_pressure(p_bar * BAR))
        return float(law.rtilde(rho)) + m / (rho * area)

    return control
