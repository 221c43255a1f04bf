"""Command-line entry points: simulate, observe, certify, snapshot.

Exit codes: 0 success, 2 validation/input error, 3 numerical failure.
All artifacts are plain CSV/text files with '.' decimal points, written
deterministically for identical inputs by one writer, `_write`.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import BoundInputs, check_amplitude_bound, decay_certificates, wellposedness_constants
from .diagnostics import SnapshotFrame, fit_decay_rate, snapshot_file_name
from .errors import NumericalError, ValidationError
from . import run
from .fileio import BAR, ScenarioSpec, parse_network_file, parse_scenario_file
from .network import NetworkGraph
from .run import RunResult, run_observer_pair, run_truth
from .solver import Layout

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _fmt(x: float) -> str:
    return repr(float(x))


def _rows(layout: Layout, *columns: np.ndarray):
    """CSV lines `pipe,x,c0,c1,...` of float columns packed by `layout`, one
    per cell, pipe by pipe."""
    return (",".join([pid, *map(repr, vals)]) + "\n"
            for pid, cells in zip(layout.pipes, layout.spans)
            for vals in zip(*[c[cells].tolist() for c in (layout.x, *columns)]))


def _parse_times(text: str, option: str) -> List[float]:
    if not text.strip():
        return []
    error = ValidationError(f"{option} needs comma-separated finite times in s, got {text!r}")
    try:
        times = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise error from None
    if not all(math.isfinite(t) for t in times):
        raise error
    return times


def _write(path: Path, header: str, lines: Iterable[str]) -> None:
    """Write `header`, a newline, then `lines` (each ending in one) to `path`,
    making any missing directory.  Every output file is made here, as UTF-8
    with LF line ends whatever the locale or platform."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


def _write_series_csv(path: Path, header: str, rows) -> None:
    _write(path, header, (",".join([_fmt(v) if isinstance(v, float) else str(v) for v in row])
                          + "\n" for row in rows))


def _write_snapshots(out_dir: Path, snapshots: Sequence[SnapshotFrame], cols=("delta_plus", "delta_minus")) -> None:
    for frame in snapshots:
        _write(out_dir / "snapshots" / snapshot_file_name(frame.t), f"pipe,x,{cols[0]},{cols[1]}",
               _rows(frame.layout, frame.plus, frame.minus))


def parse_fit_window(text: str, t_end: float) -> Tuple[float, float]:
    """The decay-fit window from the text of --fit-window; empty means
    0.25 T .. 0.95 T with T = `t_end`."""
    if not text:
        return 0.25 * t_end, 0.95 * t_end
    parts = _parse_times(text, "--fit-window")
    if len(parts) != 2 or parts[0] >= parts[1]:
        raise ValidationError(f"--fit-window needs 't0,t1' with t0 < t1, got {text!r}")
    return parts[0], parts[1]


def write_observe_outputs(out: Path, result: RunResult, window: Tuple[float, float]) -> None:
    """Write l0.csv, l1.csv, residuals.csv, snapshots/ and rates.txt of one
    observer run into `out`, with decay rates fitted over `window`."""
    series = result.series  # the fits run before the first file is made
    lines = [f"fit_window_s = [{window[0]:g}, {window[1]:g}]"]
    for label, use_l1 in (("l0", False), ("l1", True)):
        try:
            rate, r2 = fit_decay_rate(series, window, use_l1=use_l1)
            lines.append(f"{label}_decay_rate_per_s = {_fmt(rate)}")
            lines.append(f"{label}_fit_r2 = {_fmt(r2)}")
        except ValidationError as exc:
            lines.append(f"{label}_decay_rate_per_s = n/a ({exc})")
    sync = series.sync_time()
    lines.append(
        f"finite_time_sync_s = {_fmt(sync)}" if sync is not None else "finite_time_sync_s = none"
    )
    lines.append(f"m_tilde = {_fmt(result.m_tilde)}")
    lines.append(f"b_tilde = {_fmt(result.b_tilde)}")
    _write_series_csv(out / "l0.csv", "t,l0", zip(series.times.tolist(), series.l0.tolist()))
    _write_series_csv(out / "l1.csv", "t,l1", zip(series.times.tolist(), series.l1.tolist()))
    _write(out / "residuals.csv", "t,node,residual",  # the bytes of `_write_series_csv`, faster
           (f"{_fmt(t) if isinstance(t, float) else t},{v},{float(res)!r}\n"
            for t, v, res in result.residuals))
    _write_snapshots(out, result.snapshots)
    _write(out / "rates.txt", "\n".join(lines), ())


def _cmd_observe(args, graph: NetworkGraph, scenario: ScenarioSpec) -> int:
    t_end = scenario.t_end
    window = parse_fit_window(args.fit_window, t_end)
    if args.residual_stride < 0:
        raise ValidationError(f"--residual-stride must be >= 0, got {args.residual_stride}")
    snap_times = _parse_times(args.snapshots, "--snapshots") or [0.0, t_end / 2.0, t_end]
    result = run_observer_pair(graph, scenario, record_l1=True,
                               residual_stride=args.residual_stride, snapshot_times=snap_times)
    write_observe_outputs(Path(args.out), result, window)
    return EXIT_OK


def _cmd_simulate(args, graph: NetworkGraph, scenario: ScenarioSpec) -> int:
    snap_times = _parse_times(args.snapshots, "--snapshots")
    final, snapshots = run_truth(graph, scenario, snapshot_times=snap_times)
    law = scenario.law
    # Every pressure first: a midpoint outside the law's range then writes nothing.
    p_bar = law.pressure(law.rtilde_inverse((final.plus + final.minus) / 2.0)) / BAR
    out = Path(args.out)
    _write(out / "state.csv", "pipe,x,r_plus,r_minus,pressure_bar,velocity",
           _rows(final.layout, final.plus, final.minus, p_bar, (final.plus - final.minus) / 2.0))
    _write_snapshots(out, snapshots, cols=("r_plus", "r_minus"))
    return EXIT_OK


def _cmd_snapshot(args, graph: NetworkGraph, scenario: ScenarioSpec) -> int:
    snap_times = _parse_times(args.times, "--times")
    if not snap_times:
        raise ValidationError("snapshot needs --times t1[,t2,...]")
    result = run_observer_pair(graph, scenario, record_l1=False, residual_stride=0,
                               snapshot_times=snap_times)
    _write_snapshots(Path(args.out), result.snapshots)
    return EXIT_OK


def _cmd_certify(args, graph: NetworkGraph, scenario: ScenarioSpec) -> int:
    if (args.m_tilde is None) != (args.b_tilde is None):
        raise ValidationError("--m-tilde and --b-tilde must be given together")
    check_amplitude_bound(args.amplitude_bound)
    if args.m_tilde is not None:
        m_tilde, b_tilde = args.m_tilde, args.b_tilde
        eff_graph = run.assemble(graph, scenario).graph
        source = "supplied"
    else:
        result = run_observer_pair(graph, scenario, record_l1=False, residual_stride=0)
        m_tilde, b_tilde, eff_graph = result.m_tilde, result.b_tilde, result.graph
        source = "estimated from a scenario run"
    c = scenario.law.sound_speed()
    mu = scenario.resolve_mu(eff_graph)
    inputs = BoundInputs.from_graph(
        eff_graph, c, t_horizon=scenario.t_end, m=args.amplitude_bound,
        m_tilde=m_tilde, b_tilde=b_tilde,
    )
    wp = wellposedness_constants(inputs.t_horizon, inputs.m, inputs.nu_max)
    cert = decay_certificates(eff_graph, mu, m_tilde, b_tilde, c)
    lines = [
        f"network_pipes = {len(eff_graph.pipes)}",
        f"network_nodes = {len(eff_graph.nodes)}",
        f"sound_speed_m_s = {_fmt(c)}",
        f"nu_max_per_m = {_fmt(inputs.nu_max)}",
        f"t0_min_s = {_fmt(inputs.t0_min)}",
        f"t0_max_s = {_fmt(inputs.t0_max)}",
        f"m_tilde = {_fmt(m_tilde)}  # {source}",
        f"b_tilde = {_fmt(b_tilde)}  # {source}",
        f"amplitude_bound_m = {_fmt(inputs.m)}",
        f"horizon_s = {_fmt(inputs.t_horizon)}",
        f"l_kontr = {_fmt(wp.l_kontr)}",
        f"t_threshold_s = {_fmt(wp.t_threshold)}",
        f"epsilon_valid = {wp.epsilon_valid}",
        f"epsilon = {_fmt(wp.epsilon) if wp.epsilon is not None else 'invalid (l_kontr >= 1)'}",
        f"gronwall_factor = {_fmt(wp.gronwall_factor)}",
        f"c0 = {_fmt(cert.c0)}",
        f"c1 = {_fmt(cert.c1)}",
        f"upsilon0 = {_fmt(cert.ups0)}",
        f"delta_nu_t0 = {_fmt(cert.delta_nu_t0)}",
        f"l0_window_factor = {_fmt(cert.l0_window_factor)}",
        f"h1_condition_lhs = {_fmt(cert.h1_condition_lhs)}",
        f"h1_condition_rhs = {_fmt(cert.h1_condition_rhs)}",
        f"h1_holds = {cert.h1_holds}",
        "stability_constant_C_T = not computed (existence only)",
        "decay_rate_mu0 = not computed (existence only)",
        "decay_rate_mu1 = not computed (existence only)",
        "decay_constant_C_tilde = not computed (existence only)",
    ]
    _write(Path(args.out) / "certificate.txt", "\n".join(lines), ())
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a bad, unknown or missing option as every other input error
    is reported: one `error:` line and exit 2.  `add_subparsers` makes each
    subparser of this class too."""

    def error(self, message: str):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gasnetsim",
        description="Gas network transient simulator with a nodal observer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--network", required=True, help="network file (native or GasLib XML)")
        p.add_argument("--scenario", required=True, help="scenario file")
        p.add_argument("--out", required=True, help="output directory")

    p_obs = sub.add_parser("observe", help="run the coupled truth/observer pair")
    common(p_obs)
    p_obs.add_argument("--residual-stride", type=int, default=1,
                       help="record nodal residuals every N steps (0 disables)")
    p_obs.add_argument("--snapshots", default="",
                       help="comma-separated snapshot times in s (default 0, T/2, T)")
    p_obs.add_argument("--fit-window", default="",
                       help="decay-fit window 't0,t1' (default 0.25T..0.95T)")
    p_obs.set_defaults(func=_cmd_observe)

    p_sim = sub.add_parser("simulate", help="run the truth system only")
    common(p_sim)
    p_sim.add_argument("--snapshots", default="", help="comma-separated snapshot times in s")
    p_sim.set_defaults(func=_cmd_simulate)

    p_snap = sub.add_parser("snapshot", help="dump observer-error snapshots at given times")
    common(p_snap)
    p_snap.add_argument("--times", required=True, help="comma-separated times in s")
    p_snap.set_defaults(func=_cmd_snapshot)

    p_cert = sub.add_parser("certify", help="evaluate all theory constants and conditions")
    common(p_cert)
    p_cert.add_argument("--m-tilde", type=float, default=None,
                        help="regularity bound on |S+-S-| (default: estimate from a run)")
    p_cert.add_argument("--b-tilde", type=float, default=None,
                        help="regularity bound on d/dt(S+-S-) (default: estimate from a run)")
    p_cert.add_argument("--amplitude-bound", type=float, default=1.0,
                        help="amplitude bound M for the well-posedness constants")
    p_cert.set_defaults(func=_cmd_certify)
    return parser


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        out = Path(args.out)  # a file at or above it is found now, not after the run
        if any(path.exists() and not path.is_dir() for path in (out, *out.parents)):
            raise ValidationError(f"--out {out} is a file or lies below one")
        # The finiteness checks report a blow-up; numpy need not warn on the way.
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            graph = parse_network_file(args.network)
            scenario = parse_scenario_file(args.scenario)
            return args.func(args, graph, scenario)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
