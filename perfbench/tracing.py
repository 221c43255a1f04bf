"""Traced repetitions: spans around calls into gasnetsim's modules.

Every function listed in `LAYER_FUNCTIONS` is wrapped wherever a gasnetsim
module looks it up, not only where it is defined: `run.step_coupled`,
`observer.step_system` and `solver.step_system` are three wrappers around
two functions.  A span records (name, start, end, parent); spans stay in
flat arrays in memory and are reduced after the timed region.  A span's
self time is its duration minus the time its child spans cover, so the
self times of all spans add up to the root span.  Functions not listed run
inside their caller's span and count as the caller's self time: for example
`gather_node_inputs` is part of `observer.node_map_self_s` in a coupled run.

Only the standard library is imported here: a repetition times
`import gasnetsim` itself, and numpy is first needed by `reduce`.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

# (module, qualified name) -> (count metric or None, self-time metric)
LAYER_FUNCTIONS: Dict[Tuple[str, str], Tuple[Optional[str], str]] = {
    ("solver", "advect_step"): ("solver.advect_calls", "solver.advect_s"),
    ("solver", "friction_step"): ("solver.friction_calls", "solver.friction_s"),
    ("solver", "step_system"): (None, "solver.step_self_s"),
    ("observer", "step_coupled"): (None, "observer.node_map_self_s"),
    ("observer", "diff_junction_outflow"): ("observer.diff_junction_calls",
                                            "observer.diff_junction_s"),
    ("observer", "difference_state"): (None, "observer.difference_state_s"),
    ("network", "junction_outflow"): ("network.junction_calls", "network.junction_s"),
    ("network", "NetworkGraph.__init__"): (None, "network.graph_build_s"),
    ("physics", "PressureLaw.rtilde"): ("physics.rtilde_calls", "physics.rtilde_s"),
    ("physics", "IsothermalLaw.rtilde"): ("physics.rtilde_calls", "physics.rtilde_s"),
    ("physics", "PressureLaw.rtilde_inverse"): ("physics.inverse_calls", "physics.inverse_s"),
    ("physics", "IsothermalLaw.rtilde_inverse"): ("physics.inverse_calls", "physics.inverse_s"),
    ("fileio", "parse_network_file"): (None, "fileio.parse_s"),
    ("fileio", "parse_scenario_file"): (None, "fileio.parse_s"),
    ("diagnostics", "lyapunov_l0"): (None, "diagnostics.l0_s"),
    ("diagnostics", "lyapunov_l1"): (None, "diagnostics.l1_s"),
    ("diagnostics", "RegularityTracker.observe"): (None, "diagnostics.tracker_s"),
    ("diagnostics", "nodal_energy_residual"): ("diagnostics.residual_calls",
                                               "diagnostics.residual_s"),
    ("diagnostics", "SnapshotFrame.from_state"): (None, "diagnostics.snapshot_s"),
    ("diagnostics", "fit_decay_rate"): (None, "diagnostics.fit_s"),
    ("run", "assemble"): (None, "run.assemble_s"),
    ("run", "run_observer_pair"): (None, "run.loop_self_s"),
    ("run", "run_truth"): (None, "run.loop_self_s"),
    ("bounds", "BoundInputs.from_graph"): (None, "bounds.certificate_s"),
    ("bounds", "wellposedness_constants"): (None, "bounds.certificate_s"),
    ("bounds", "decay_certificates"): (None, "bounds.certificate_s"),
    ("cli", "_cmd_observe"): (None, "cli.write_s"),
    ("cli", "_cmd_simulate"): (None, "cli.write_s"),
    ("cli", "_cmd_certify"): (None, "cli.write_s"),
    ("cli", "_write_series_csv"): (None, "cli.write_s"),
    ("cli", "_write_snapshots"): (None, "cli.write_s"),
}
# The closures returned by fileio.make_boundary_control, wrapped as they are made.
CONTROL = ("fileio.control_calls", "fileio.control_s")
# Calls into the stepper made by the run loops themselves: one per step.
RUN_STEP_SPANS = ("run.step_coupled", "run.step_system")
# Computed traffic per solver call: two fields read and two written, 8 B a cell.
BYTES_PER_CELL = 4 * 8

MODULES = ("errors", "network", "physics", "solver", "observer", "diagnostics",
           "bounds", "fileio", "run", "cli")


class Tracer:
    """Span recorder.  Span i has name `names[span_name[i]]`, times
    `start[i]`..`end[i]` and parent index `parent[i]` (-1 for a root)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.metrics: List[Tuple[Optional[str], Optional[str]]] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.current = -1
        self.cells = 0  # cells advected: cells x steps x systems
        self.bytes_moved = 0

    def name_id(self, name: str, metrics: Tuple[Optional[str], Optional[str]]) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.metrics.append(metrics)
        return self._ids[name]

    def wrap(self, fn: Callable, name: str, metrics: Tuple[Optional[str], Optional[str]],
             on_call: Optional[Callable] = None) -> Callable:
        """`fn` recording one span per call; `on_call(tracer, args, kwargs)`
        runs first and adds the call's work to the tracer's counters."""
        nid = self.name_id(name, metrics)
        span_name, start, end, parent = self.span_name, self.start, self.end, self.parent
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            idx = len(span_name)
            span_name.append(nid)
            parent.append(self.current)
            end.append(0.0)
            self.current = idx
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                self.current = parent[idx]

        return traced

    def reduce(self) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, int], float]:
        """Per-metric self time, per-metric call counts, per-span-name call
        counts, and the summed self time of every span (equal to the roots'
        duration)."""
        import numpy as np

        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = np.bincount(names, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        times: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        spans: Dict[str, int] = {}
        for nid, name in enumerate(self.names):
            count_metric, time_metric = self.metrics[nid]
            if time_metric is not None:
                times[time_metric] = times.get(time_metric, 0.0) + float(self_time[nid])
            if count_metric is not None:
                counts[count_metric] = counts.get(count_metric, 0) + int(calls[nid])
            if calls[nid]:
                spans[name] = int(calls[nid])
        return times, counts, spans, float(self_time.sum())

    def save(self, path) -> None:
        """Write every span to an .npz file."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names), span_name=np.frombuffer(self.span_name, np.int32),
            start=np.frombuffer(self.start, float), end=np.frombuffer(self.end, float),
            parent=np.frombuffer(self.parent, np.int32))


def _count_advect(tracer: Tracer, args, kwargs) -> None:
    n = (args[0] if args else kwargs["grid"]).n_cells
    tracer.cells += n
    tracer.bytes_moved += BYTES_PER_CELL * n


def _count_friction(tracer: Tracer, args, kwargs) -> None:
    n = len(args[0] if args else kwargs["r_plus"])
    tracer.bytes_moved += BYTES_PER_CELL * n


_ON_CALL = {("solver", "advect_step"): _count_advect,
            ("solver", "friction_step"): _count_friction}


def install(tracer: Tracer) -> None:
    """Wrap every listed function at every gasnetsim module that looks it up."""
    mods = {m: importlib.import_module(f"gasnetsim.{m}") for m in MODULES}
    # Methods and classmethods are patched on the class that defines them.
    for (mod, qual), metrics in LAYER_FUNCTIONS.items():
        if "." not in qual:
            continue
        cls_name, attr = qual.split(".")
        cls = getattr(mods[mod], cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, f"{mod}.{qual}", metrics)))
        else:
            setattr(cls, attr, tracer.wrap(raw, f"{mod}.{qual}", metrics))
    # Module-level functions are patched in every module namespace holding them.
    targets = {id(getattr(mods[mod], qual)): (mod, qual)
               for mod, qual in LAYER_FUNCTIONS if "." not in qual}
    make_control = mods["fileio"].make_boundary_control
    for site, module in mods.items():
        for attr, obj in list(vars(module).items()):
            if id(obj) in targets and callable(obj):
                key = targets[id(obj)]
                setattr(module, attr, tracer.wrap(
                    obj, f"{site}.{attr}", LAYER_FUNCTIONS[key], _ON_CALL.get(key)))
            elif obj is make_control:
                setattr(module, attr, _wrap_control_factory(tracer, obj))


def _wrap_control_factory(tracer: Tracer, factory: Callable) -> Callable:
    @functools.wraps(factory)
    def make(*args, **kwargs):
        return tracer.wrap(factory(*args, **kwargs), "fileio.control", CONTROL)

    return make


def layer_metrics(tracer: Tracer) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """The per-layer table of one traced repetition, the call count of every
    span name, and the summed self time of all spans.  Metrics of layers
    that did no work are 0."""
    times, counts, spans, self_sum = tracer.reduce()
    out: Dict[str, float] = {}
    for count_metric, time_metric in [*LAYER_FUNCTIONS.values(), CONTROL]:
        out[time_metric] = times.get(time_metric, 0.0)
        if count_metric is not None:
            out[count_metric] = counts.get(count_metric, 0)
    out["run.steps"] = sum(spans.get(s, 0) for s in RUN_STEP_SPANS)
    out["solver.cell_steps"] = tracer.cells
    out["solver.bytes_moved_computed"] = tracer.bytes_moved
    solver_s = out["solver.advect_s"] + out["solver.friction_s"] + out["solver.step_self_s"]
    out["solver.cell_steps_per_s"] = tracer.cells / solver_s if solver_s > 0 else 0.0
    return out, spans, self_sum
