#!/usr/bin/env python3
"""A/B benchmark: perfbench/run.py on a parent revision and on the working tree.

    python3 scripts/ab_bench.py PARENT_REV [--pairs N] [--workload W] [--seed S]

Both sides are extracted with `git archive` into `.ab_bench/parent/` and
`.ab_bench/change/` at the repository root: the parent from PARENT_REV, the
change from the working tree as `git add -A` would stage it (the tree is
written through a temporary index, so the real index is left alone).  Each
of the N pairs runs W once per side, one run at a time; odd pairs run the
parent first, even pairs the change.  A run starts one
`python3 perfbench/run.py --workload w --seed S` process per workload w of W
(every workload in BENCHMARK.json for `all`), so no workload's peak RSS
starts from a process that an earlier workload grew.  A run's value of a
metric `w.metric` is run.py's median over its repetitions.

For every end-to-end metric that the parent's BENCHMARK.json names, the
script prints each side's median and quartiles over the runs, the change's
relative shift and its wins (pairs where the change reads better, ties
counting for neither), and whether the medians differ by more than the
distance between the parent's quartiles.  It also prints each side's
`wc -l src/gasnetsim/*.py`.  The same numbers, each run's result line and
its seed-0 identity and PROBLEM lines go to `.ab_bench/ab_<W>_seed<S>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".ab_bench"
RUN_LIMIT_S = 200.0  # per workload; run.py ends each workload within 180 s


def git(*args: str, env: Dict[str, str] | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def working_tree() -> str:
    """Tree id of the working tree as `git add -A` would stage it."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def extract(tree: str, dest: Path) -> None:
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", tree], cwd=ROOT, stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or untar.returncode:
        raise SystemExit(f"error: could not extract {tree} into {dest}")


def run_workload(checkout: Path, workload: str, seed: int) -> dict:
    """One perfbench process for one workload: its last-line JSON, with the
    metrics named `workload.metric`, plus its identity and PROBLEM lines."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True, timeout=RUN_LIMIT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"error: perfbench in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    # run.py names a single workload's metrics without its prefix
    result["metrics"] = {f"{workload}.{k}": v for k, v in result["metrics"].items()}
    result["identity_lines"] = [ln for ln in lines if "byte-identical" in ln]
    result["problem_lines"] = [ln for ln in lines if "PROBLEM" in ln]
    return result


def run_once(checkout: Path, workloads: List[str], seed: int) -> dict:
    """One run: every workload in its own process, merged into one record."""
    parts = [run_workload(checkout, w, seed) for w in workloads]
    return {"correct": all(r["correct"] for r in parts),
            "attempted": sum(r["attempted"] for r in parts),
            "failed": sum(r["failed"] for r in parts),
            "metrics": {k: v for r in parts for k, v in r["metrics"].items()},
            "identity_lines": [ln for r in parts for ln in r["identity_lines"]],
            "problem_lines": [ln for r in parts for ln in r["problem_lines"]]}


def source_lines(checkout: Path) -> int:
    """`wc -l src/gasnetsim/*.py` in `checkout`: the newlines of those files."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "gasnetsim").glob("*.py"))


def spread(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(runs: Dict[str, List[dict]], end_to_end: List[dict]) -> Dict[str, dict]:
    better = {m["name"]: m["better"] for m in end_to_end}
    summary = {}
    for name in runs["parent"][0]["metrics"]:
        kind = name.rsplit(".", 1)[-1]
        if kind not in better:
            continue
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = -1.0 if better[kind] == "lower" else 1.0
        gains = [sign * (y - x) for x, y in zip(p, c)]
        ps, cs = spread(p), spread(c)
        summary[name] = {
            "unit": runs["parent"][0]["metrics"][name]["unit"], "better": better[kind],
            "parent": ps, "change": cs,
            "shift": cs["median"] / ps["median"] - 1.0,
            "wins": sum(g > 0 for g in gains), "ties": sum(g == 0 for g in gains),
            "pairs": len(gains),
            "beyond_parent_iqr": abs(cs["median"] - ps["median"]) > ps["iqr"],
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev", metavar="PARENT_REV")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    parent = git("rev-parse", "--verify", f"{args.parent_rev}^{{commit}}")
    trees = {"parent": parent, "change": working_tree()}
    checkouts = {side: OUT / side for side in trees}
    for side, tree in trees.items():
        extract(tree, checkouts[side])
    lines = {side: source_lines(checkout) for side, checkout in checkouts.items()}
    print(f"wc -l src/gasnetsim/*.py: parent {lines['parent']}  change {lines['change']}",
          flush=True)
    bench_same = git("rev-parse", f"{parent}:perfbench") == git(
        "rev-parse", f"{trees['change']}:perfbench")
    if not bench_same:
        print("warning: perfbench/ differs between the sides; each runs its own", flush=True)
    bench = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    workloads = ([w["name"] for w in bench["workloads"]] if args.workload == "all"
                 else [args.workload])

    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    order = []
    for i in range(args.pairs):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        order.append(list(sides))
        for side in sides:
            result = run_once(checkouts[side], workloads, args.seed)
            runs[side].append(result)
            print(f"pair {i + 1}/{args.pairs} {side}: correct={result['correct']} "
                  f"failed={result['failed']} of {result['attempted']}", flush=True)

    summary = summarise(runs, bench["end_to_end"])
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        print(f"{name} [{s['unit']}, {s['better']} is better]: "
              f"parent {p['median']:.6g} (q1 {p['q1']:.6g}, q3 {p['q3']:.6g})  "
              f"change {c['median']:.6g} (q1 {c['q1']:.6g}, q3 {c['q3']:.6g})  "
              f"shift {100 * s['shift']:+.1f}%  wins {s['wins']}/{s['pairs']} "
              f"(ties {s['ties']})  beyond parent IQR: {s['beyond_parent_iqr']}")
    record = {"parent_rev": args.parent_rev, "parent_commit": parent,
              "change_tree": trees["change"], "workload": args.workload, "seed": args.seed,
              "pairs": args.pairs, "order": order, "benchmark_identical": bench_same,
              "src_lines": lines, "summary": summary, "runs": runs}
    path = OUT / f"ab_{args.workload}_seed{args.seed}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"written: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
