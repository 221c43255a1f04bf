#!/usr/bin/env python3
"""Run the four benchmark experiment families on the bundled 34-pipe network.

Families: discontinuous (half-step) or continuous (sinusoidal) initial
error, each with and without friction.  Every family is swept over the gain
presets mu in {0, 0.5, -0.5, 1, mixed}; each run writes the files of
`gasnetsim observe` (l0.csv, l1.csv, an empty residuals.csv, rates.txt) into
<out>/<family>/mu_<label>/ plus error snapshots at 0, 90 and 180 s, ready
for plotting.

Example:
    python scripts/run_experiments.py --out results --t-end 600
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gasnetsim import (
    bundled_path,
    fit_decay_rate,
    parse_network_file,
    parse_scenario_file,
    run_observer_pair,
)
from gasnetsim.cli import parse_fit_window, write_observe_outputs
from gasnetsim.errors import ValidationError

FAMILIES = {
    "step_friction": "step_friction.scn",
    "step_nofriction": "step_nofriction.scn",
    "sine_friction": "sine_friction.scn",
    "sine_nofriction": "sine_nofriction.scn",
}

PRESETS = {
    "0": dict(mu_preset="uniform", mu_uniform=0.0),
    "0.5": dict(mu_preset="uniform", mu_uniform=0.5),
    "-0.5": dict(mu_preset="uniform", mu_uniform=-0.5),
    "1": dict(mu_preset="uniform", mu_uniform=1.0),
    "mixed": dict(mu_preset="mixed"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--t-end", type=float, default=600.0, help="horizon in s")
    parser.add_argument("--dt", type=float, default=None, help="override time step in s")
    parser.add_argument(
        "--families", default=",".join(FAMILIES), help="comma-separated family names"
    )
    parser.add_argument(
        "--mus", default=",".join(PRESETS), help="comma-separated gain presets"
    )
    args = parser.parse_args(argv)

    net = parse_network_file(bundled_path("gaslib40_like.net"))
    out_root = Path(args.out)
    window = parse_fit_window("", args.t_end)
    n_runs = 0
    for family in args.families.split(","):
        if family not in FAMILIES:
            print(f"unknown family {family!r}", file=sys.stderr)
            return 2
        scenario = parse_scenario_file(bundled_path(FAMILIES[family]))
        scenario = dataclasses.replace(scenario, t_end=args.t_end)
        if args.dt is not None:
            scenario = dataclasses.replace(scenario, dt=args.dt)
        for label in args.mus.split(","):
            if label not in PRESETS:
                print(f"unknown mu preset {label!r}", file=sys.stderr)
                return 2
            scn = dataclasses.replace(scenario, **PRESETS[label])
            tic = time.perf_counter()
            result = run_observer_pair(
                net, scn, record_l1=True, snapshot_times=(0.0, 90.0, 180.0)
            )
            wall = time.perf_counter() - tic
            run_dir = out_root / family / f"mu_{label}"
            write_observe_outputs(run_dir, result, window)
            try:
                rate, _ = fit_decay_rate(result.series, window)
            except ValidationError:
                rate = None
            sync = result.series.sync_time()
            n_runs += 1
            rate_txt = f"{rate:10.6f}/s" if rate is not None else f"{'n/a':>12s}"
            sync_txt = f"{sync:8.1f}s" if sync is not None else f"{'none':>9s}"
            print(f"{family:16s} mu={label:5s} rate={rate_txt} sync={sync_txt} [{wall:5.1f}s]")

    print(f"\nwrote {n_runs} runs under {out_root}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
