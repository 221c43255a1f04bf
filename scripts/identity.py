#!/usr/bin/env python3
"""Output identity of the CLI: a revision against the working tree.

    python3 scripts/identity.py REV

Both sides are extracted as `scripts/ab_bench.py` extracts them, into
`.identity/parent/` (from REV) and `.identity/change/` (the working tree
as `git add -A` would stage it).  Each side then runs the whole matrix in
one process of its own, the two side by side, with its own `src/` first on
the path and its own bundled files as inputs.  The matrix is every
combination of:

  - the four bundled scenarios, on the bundled network;
  - mu = 0, 0.5, -0.5, 1 and the `mixed` preset;
  - both grid modes: exact-advection at the scenario's dt, and cfl-safe at
    dt = 0.5 s;
  - the commands observe (residuals every step, three snapshots), simulate
    (two snapshots), certify (gains estimated from a run) and snapshot;

all at the short horizon t_end = 30 s.  A cell's inputs are the bundled
scenario with the cell's settings appended (a later record overrides an
earlier one).  Every cell runs with paths relative to the side's work
directory, so no message names a side.

Every command also runs, at mu = `mixed` in exact mode, on each input of
FAILING, which a run must refuse (exit 2: a pipe record the parser refuses,
a boundary schedule for an interior node, a gain outside [-1, 1], malformed
GasLib XML) or find diverging (exit 3: a 5e152 m diameter, whose node map
overflows; a lone pipe of 1e153 m, whose L0 overflows on finite cells, which
simulate runs through), so that exit codes and error messages are compared too.

The script lists every output file that only one side wrote or whose
bytes differ, and every cell whose exit code, standard output or standard
error differs.  It then prints "N of M identical", counting the output
files and one exit record (exit code, standard output and standard error)
per cell, and exits 0 if all are identical, 1 otherwise.  The whole matrix
takes 9 to 30 s on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".identity"

SCENARIOS = ("sine_friction", "sine_nofriction", "step_friction", "step_nofriction")
GAINS = {"mu0": "mu uniform 0", "mu0.5": "mu uniform 0.5", "mu-0.5": "mu uniform -0.5",
         "mu1": "mu uniform 1", "mixed": "mu mixed"}
MODES = {"exact": "mode exact-advection", "cflsafe": "mode cfl-safe\ndt 0.5"}
HORIZON = "t_end 30"
COMMANDS = {"observe": ["--snapshots", "0,15,30"], "simulate": ["--snapshots", "0,30"],
            "certify": [], "snapshot": ["--times", "0,12.5,30"]}
RESULTS = "results.json"
NETWORK = "gaslib40_like.net"
# By name: the network's and the scenario's inputs, each as (the bundled file
# it starts from or None, the lines appended to it).
FAILING = {
    "bad-pipe": ((NETWORK, "pipe 0-99 0 99 -340 0.5"), ("step_friction.scn", "")),
    "interior-schedule": ((NETWORK, ""), ("step_friction.scn", "boundary 3 0 60 0")),
    "gain-1.5": ((NETWORK, ""), ("step_friction.scn", "mu node 5 1.5")),
    "malformed-xml": ((None, "<network><pipe id='a' from='0' to='1'></network>"),
                      ("step_friction.scn", "")),
    "huge-diameter": ((None, "pipe a 0 3 340 5e152\npipe b 3 1 680 0.4\npipe c 3 2 340 0.3"),
                      (None, "theta 0.02\ndt 0.5")),
    "l0-overflow": ((None, "pipe a 0 1 340 1e153"),
                    (None, "theta 0.02\ndt 0.5\nic S a half_step 60 2\nic R a half_step 60 1")),
}
# the cell tier-1 checks against committed fingerprints: blend, friction, mixed gains
FINGERPRINT_CELL = ("step_friction", "mixed", "cflsafe", "observe")


def cells() -> List[Tuple[str, str, str, str]]:
    """Every (scenario, gains, mode, command) of the matrix, then every
    command on every input of FAILING."""
    return [(s, g, m, c) for s in SCENARIOS for g in GAINS for m in MODES for c in COMMANDS] + \
        [(f, "mixed", "exact", c) for f in FAILING for c in COMMANDS]


def cell_name(cell: Tuple[str, str, str, str]) -> str:
    return "-".join(cell)


def run_cell(cell: Tuple[str, str, str, str], work: Path) -> Dict[str, object]:
    """Run one cell of the matrix in `work`, with the gasnetsim on the path:
    its inputs go to `work/inputs`, its outputs to `work/out/<cell>`.  The
    record holds the exit code, standard output and standard error."""
    from gasnetsim.cli import run_cli
    from gasnetsim.fileio import bundled_path

    scenario, gains, mode, command = cell
    name = cell_name(cell)
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)

    def text(base, extra):  # the bundled file `base` (or none), then the lines `extra`
        return "\n".join(filter(None, [bundled_path(base).read_text() if base else "", extra]))

    net_input, scn_input = FAILING.get(scenario, ((NETWORK, ""), (f"{scenario}.scn", "")))
    scn = Path("inputs") / f"{scenario}-{gains}-{mode}.scn"
    (work / scn).write_text(f"{text(*scn_input)}\n{HORIZON}\n{GAINS[gains]}\n{MODES[mode]}\n")
    net = Path("inputs") / (f"{scenario}.net" if scenario in FAILING else NETWORK)
    (work / net).write_text(text(*net_input))
    argv = [command, "--network", str(net), "--scenario", str(scn), "--out", f"out/{name}",
            *COMMANDS[command]]
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = Path.cwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_cli(argv)
    except Exception as exc:  # a crash is a result to compare, not the end of the matrix
        code, stderr = f"exception {type(exc).__name__}", io.StringIO(str(exc))
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": stdout.getvalue().splitlines(),
            "stderr": stderr.getvalue().splitlines()}


def run_matrix(work: str, src: str) -> None:
    """Every cell into `work`, and their records into `work/results.json`,
    with the gasnetsim of `src`."""
    import gasnetsim

    if Path(gasnetsim.__file__).resolve().parent != Path(src).resolve() / "gasnetsim":
        raise SystemExit(f"imported gasnetsim from {gasnetsim.__file__}, not from {src}")
    work_dir = Path(work)
    results = {cell_name(c): run_cell(c, work_dir) for c in cells()}
    (work_dir / RESULTS).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")


def fingerprints(out: Path) -> Dict[str, str]:
    """sha256 of every file below `out`, by its path relative to `out`."""
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def write_fingerprints(path: str, work: str) -> None:
    """Run FINGERPRINT_CELL in the empty directory `work` and write its record
    and the fingerprints of its files to `path`: tier-1's reference cell."""
    record = run_cell(FINGERPRINT_CELL, Path(work))
    Path(path).write_text(json.dumps({"cell": list(FINGERPRINT_CELL), "record": record,
                                      "files": fingerprints(Path(work) / "out")},
                                     indent=1, sort_keys=True) + "\n")


def compare(parent: Path, change: Path) -> Tuple[List[str], int, int]:
    """Each difference between two finished matrices, one line each, the
    number of items that differ and the number of items compared."""
    diffs, differing = [], set()
    runs = {side: json.loads((d / RESULTS).read_text())
            for side, d in (("parent", parent), ("change", change))}
    files = {side: fingerprints(d / "out") for side, d in (("parent", parent), ("change", change))}
    for kind, items in (("run", runs), ("file", files)):
        for name in sorted(items["parent"].keys() | items["change"].keys()):
            p, c = items["parent"].get(name), items["change"].get(name)
            if p is None or c is None:
                lines = [f"only on the {'change' if p is None else 'parent'}"]
            elif kind == "file":
                lines = ["bytes differ"] if p != c else []
            else:
                lines = [f"exit {p['exit']} -> {c['exit']}"] if p["exit"] != c["exit"] else []
                for stream in ("stdout", "stderr"):
                    a, b = p[stream], c[stream]
                    lines += [f"{stream} line {i + 1}: {x!r} -> {y!r}"
                              for i, (x, y) in enumerate(zip(a, b)) if x != y]
                    lines += [f"{stream} line {i + 1} only on the parent: {x!r}"
                              for i, x in enumerate(a[len(b):], start=len(b))]
                    lines += [f"{stream} line {i + 1} only on the change: {y!r}"
                              for i, y in enumerate(b[len(a):], start=len(a))]
            diffs += [f"{kind} {name}: {line}" for line in lines]
            if lines:
                differing.add((kind, name))
    compared = sum(len(items["parent"].keys() | items["change"].keys())
                   for items in (runs, files))
    return diffs, len(differing), compared


def main(argv=None) -> int:
    import ab_bench  # next to this script, which is first on the path

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", metavar="REV")
    args = parser.parse_args(argv)
    trees = {"parent": ab_bench.git("rev-parse", "--verify", f"{args.rev}^{{commit}}"),
             "change": ab_bench.working_tree()}
    procs = {}
    for side, tree in trees.items():
        checkout = OUT / side
        shutil.rmtree(checkout, ignore_errors=True)
        ab_bench.extract(tree, checkout / "tree")
        work = checkout / "work"
        work.mkdir()
        src = checkout / "tree" / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(HERE)])}
        procs[side] = subprocess.Popen(
            [sys.executable, "-c", "import sys, identity; identity.run_matrix(*sys.argv[1:])",
             str(work), str(src)], env=env, cwd=work, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
    outputs = {side: proc.communicate()[0] for side, proc in procs.items()}
    for side, proc in procs.items():
        if proc.returncode:
            raise SystemExit(f"error: the {side} matrix exited {proc.returncode}:\n"
                             f"{outputs[side]}")
    diffs, differing, compared = compare(OUT / "parent" / "work", OUT / "change" / "work")
    for line in diffs:
        print(line)
    print(f"{compared - differing} of {compared} identical: output files and one exit "
          f"record per run, {len(cells())} runs per side, against {trees['parent'][:12]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
