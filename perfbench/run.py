"""gasnetsim benchmark: four CLI workloads on the bundled 34-pipe network.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from anywhere; the benchmark works on the checkout it sits in and reads
and writes only there (`src/` for the program, `.perfbench_work/` for
generated inputs, outputs and span files).  Workloads are defined in
workloads.py; BENCHMARK.json gives the reason for each and names the
metrics and their units.  The seed picks the generated inputs; sizes do
not depend on it.

Each repetition runs in a fresh interpreter (repetition.py), one at a
time.  A run repeats until --seconds is used up, at least three times, and
checks every output (check.py; seed 0 also against the recorded references
in references_seed0.json).  A repetition fails on a non-zero exit, an
exception or an output that fails a check; its timings are then dropped.

--trace 0 reports the end-to-end metrics, the median over repetitions:
  cpu_s             process CPU time from the run_cli call to all outputs
                    written (no interpreter, no import)
  setup_s           CPU time of import gasnetsim + parse_*_file + run.assemble
  cell_steps_per_s  cells x steps x systems / cpu_s
  peak_rss_mb       peak resident set of the repetition's process
The times are normalised seconds of speed.SpeedClock: raw time weighted by
the CPU speed measured every 10 ms with a fixed calibration chunk, so that
a virtual CPU switching speed does not read as a program change.  Wall
time is printed as well, normalised (wall_s) and raw (wall_raw_s), with
the raw cpu_raw_s and setup_raw_s, but not gated: on a shared host it
also holds the time the hypervisor takes the virtual CPU away (steal),
15-40% of a run and drifting over minutes, which no in-process measure
removes.  The program is single-threaded and barely waits on I/O, so its
CPU time is its wall time less that steal.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer table of tracing.py (raw seconds), checks its counts against
counts derived from the inputs and across traced repetitions, and reports
trace.overhead_s = median traced - median untraced raw wall time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Earlier lines give each metric's
median, tail percentile (when at least ten samples lie beyond one) and
sample count, failed_ops, byte identity against the references, and the
run record (machine, seed, sha256 of each generated input).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import check
import tracing
import workloads
from workloads import ROOT, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
REFERENCES = HERE / "references_seed0.json"
BENCHMARK = ROOT / "BENCHMARK.json"  # metric names and units, workload reasons
MIN_REPS = 3
MAX_PROBLEM_LINES = 12
UNGATED = ("wall_s", "wall_raw_s", "cpu_raw_s", "setup_raw_s")  # printed only
EXACT_UNITS = ("count", "B")  # per-layer counts: must repeat exactly
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# Fixed hashing and single-threaded BLAS: a repetition uses one core only.
CHILD_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def machine() -> Dict[str, object]:
    """CPU count and model, cache sizes and library versions."""
    info: Dict[str, object] = {"nproc": os.cpu_count(),
                               "usable_cpus": len(os.sched_getaffinity(0)),
                               "python": platform.python_version()}
    for lib in ("numpy", "scipy"):
        try:
            info[lib] = metadata.version(lib)
        except metadata.PackageNotFoundError:
            info[lib] = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    info["caches"] = caches
    return info


def tail(samples: List[float]) -> Optional[Tuple[float, float]]:
    """(percentile, value) of the highest nearest-rank percentile with at
    least ten samples beyond it; None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


class Runner:
    """Repetitions of one workload on one seed's generated inputs."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.dir = WORK / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.inputs = workloads.generate(workload, seed, self.dir / "inputs")
        self.counts = {c.label: workloads.derive_counts(self.inputs.network,
                                                        self.inputs.scenarios[c.label])
                       for c in workload.calls}
        self.references = None
        if seed == 0 and REFERENCES.is_file():
            self.references = json.loads(REFERENCES.read_text())[workload.name]
        # (byte-identical files, files) of the last repetition checked
        # against the references
        self.identical: Optional[Tuple[int, int]] = None

    def cell_steps(self) -> int:
        return sum(k.cells * k.steps * self.workload.systems for k in self.counts.values())

    def out_dir(self, call) -> Path:
        return self.dir / "out" / call.label

    def repeat(self, traced: bool, timeout: float) -> Tuple[Optional[dict], List[str]]:
        """One repetition in a fresh interpreter: (result, problems)."""
        shutil.rmtree(self.dir / "out", ignore_errors=True)
        calls = []
        for call in self.workload.calls:
            argv = [call.command, "--network", str(self.inputs.network),
                    "--scenario", str(self.inputs.scenarios[call.label]),
                    "--out", str(self.out_dir(call)), *call.flags]
            calls.append({"argv": argv, "out": str(self.out_dir(call))})
        spec = {"src": str(ROOT / "src"), "traced": traced, "calls": calls,
                "spans": str(self.dir / "spans.npz") if traced else None}
        spec_path, result_path = self.dir / "spec.json", self.dir / "result.json"
        spec_path.write_text(json.dumps(spec))
        result_path.unlink(missing_ok=True)
        env = dict(os.environ, **CHILD_ENV)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "repetition.py"), str(spec_path), str(result_path)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, [f"repetition did not finish within {timeout:.0f} s"]
        if proc.returncode != 0 or not result_path.is_file():
            tail_lines = proc.stderr.strip().splitlines()[-3:]
            return None, [f"repetition exited with {proc.returncode}: {' | '.join(tail_lines)}"]
        result = json.loads(result_path.read_text())
        problems = [f"{c.label}: run_cli returned {code}"
                    for c, code in zip(self.workload.calls, result["exit_codes"]) if code != 0]
        identical = total = 0
        for call in self.workload.calls:
            problems += [f"{call.label}: {p}" for p in
                         check.check_call(call, self.counts[call.label], self.out_dir(call))]
            if self.references is not None and not problems:
                ref = self.references[call.label]
                found, same = check.compare(self.out_dir(call), ref)
                problems += [f"{call.label}: {p}" for p in found]
                identical, total = identical + same, total + len(ref)
        if self.references is not None and not problems:
            self.identical = (identical, total)
        return result, problems

    def expected_layer_counts(self) -> Dict[str, int]:
        """Per-layer counts derived from the input files alone."""
        w = self.workload
        exp = {k: 0 for k in ("solver.advect_calls", "solver.friction_calls", "solver.cell_steps",
                              "solver.bytes_moved_computed", "network.junction_calls",
                              "observer.diff_junction_calls", "fileio.control_calls",
                              "diagnostics.residual_calls", "run.steps")}
        for call in w.calls:
            k = self.counts[call.label]
            cell_steps = k.cells * k.steps * w.systems
            exp["solver.advect_calls"] += k.pipes * k.steps * w.systems
            exp["solver.friction_calls"] += k.pipes * k.steps * w.systems if k.friction else 0
            exp["solver.cell_steps"] += cell_steps
            exp["solver.bytes_moved_computed"] += tracing.BYTES_PER_CELL * cell_steps * (
                2 if k.friction else 1)
            exp["network.junction_calls"] += k.nodes * k.steps
            if w.systems == 2:
                exp["observer.diff_junction_calls"] += (k.nodes - k.boundary_nodes) * k.steps
            exp["fileio.control_calls"] += k.boundary_nodes * k.steps
            if call.command == "observe":
                exp["diagnostics.residual_calls"] += check.residual_rows(call, k)
            exp["run.steps"] += k.steps
        return exp


def measure(workload: Workload, seed: int, seconds: float, trace: bool, bench: dict) -> dict:
    """Repeat one workload; returns the summary the output line is built from."""
    start = time.perf_counter()
    runner = Runner(workload, seed)
    plain: List[dict] = []
    traced: List[dict] = []
    problems: List[str] = []
    attempted = failed = 0
    # Untraced first; with --trace 1 two traced repetitions follow, then alternate.
    order = [False, True, True] if trace else [False] * MIN_REPS
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if attempted >= len(order) and elapsed + last > seconds:
            break
        if elapsed > RUN_LIMIT_S - last:
            break
        is_traced = order[attempted] if attempted < len(order) else (
            trace and len(traced) <= len(plain))
        t0 = time.perf_counter()
        result, found = runner.repeat(is_traced, max(1.0, RUN_LIMIT_S - elapsed))
        last = time.perf_counter() - t0
        attempted += 1
        if result is None or found:
            failed += 1
            problems += found
            continue
        (traced if is_traced else plain).append(result)

    summary = {"workload": workload.name, "seed": seed, "attempted": attempted,
               "failed": failed, "problems": problems, "inputs": runner.inputs.hashes(),
               "cell_steps": runner.cell_steps(), "identical": runner.identical,
               "samples": {}, "metrics": {}}
    if runner.cell_steps() != workload.stated_cell_steps:
        problems.append(f"inputs give {runner.cell_steps()} cell-steps, "
                        f"not the stated {workload.stated_cell_steps}")
    if not trace:
        for r in plain:
            r["cell_steps_per_s"] = runner.cell_steps() / r["cpu_s"]
        samples = {m["name"]: [r[m["name"]] for r in plain] for m in bench["end_to_end"]}
        summary["samples"] = samples
        summary["ungated"] = {k: [r[k] for r in plain] for k in UNGATED}
        if plain:
            summary["metrics"] = {m["name"]: {"value": statistics.median(samples[m["name"]]),
                                              "unit": m["unit"]}
                                  for m in bench["end_to_end"]}
        return summary

    if traced:
        exp = runner.expected_layer_counts()
        first = traced[0]["layers"]
        for name, want in exp.items():
            if first[name] != want:
                problems.append(f"trace: {name} = {first[name]}, derived from inputs {want}")
        count_names = [m["name"] for m in bench["per_layer"] if m["unit"] in EXACT_UNITS]
        for r in traced[1:]:
            if any(r["layers"][n] != first[n] for n in count_names) or \
                    r["span_counts"] != traced[0]["span_counts"]:
                problems.append("trace: counts differ between traced repetitions")
        for r in traced:
            if abs(r["self_time_sum_s"] - r["wall_raw_s"]) > 1e-3 * r["wall_raw_s"]:
                problems.append("trace: self times do not add up to the traced wall time")
        metrics = {}
        for m in bench["per_layer"]:
            name, unit = m["name"], m["unit"]
            if name == "trace.overhead_s":
                if plain:
                    value = (statistics.median([r["wall_raw_s"] for r in traced])
                             - statistics.median([r["wall_raw_s"] for r in plain]))
                    metrics[name] = {"value": value, "unit": unit}
            elif unit in EXACT_UNITS:
                metrics[name] = {"value": first[name], "unit": unit}
            else:
                metrics[name] = {"value": statistics.median([r["layers"][name] for r in traced]),
                                 "unit": unit}
        summary["metrics"] = metrics
        summary["span_counts"] = traced[0]["span_counts"]
    return summary


def report(summary: dict, out=sys.stdout) -> None:
    """Human-readable lines: metrics with units, tails, sample counts, checks."""
    name = summary["workload"]
    for metric, entry in summary["metrics"].items():
        samples = summary["samples"].get(metric, [])
        line = f"{name}  {metric} = {entry['value']:.6g} {entry['unit']}"
        if samples:
            t = tail(samples)
            line += f"  (median of n={len(samples)}"
            line += f", p{t[0]:.0f} = {t[1]:.6g})" if t else ", no percentile has 10 beyond it)"
        print(line, file=out)
    for metric, samples in summary.get("ungated", {}).items():
        if samples:
            print(f"{name}  {metric} = {statistics.median(samples):.6g} s  "
                  f"(median of n={len(samples)}, not gated)", file=out)
    print(f"{name}  failed_ops = {summary['failed']} of {summary['attempted']} attempted",
          file=out)
    if summary["identical"]:
        same, total = summary["identical"]
        print(f"{name}  seed-0 outputs byte-identical to the references: {same} of {total} "
              f"files (last repetition)", file=out)
    problems = list(dict.fromkeys(summary["problems"]))
    for p in problems[:MAX_PROBLEM_LINES]:
        print(f"{name}  PROBLEM: {p}", file=out)
    if len(problems) > MAX_PROBLEM_LINES:
        print(f"{name}  ... and {len(problems) - MAX_PROBLEM_LINES} more problems", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM so subprocess.run kills and reaps the
    # running repetition.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    src = ROOT / "src" / "gasnetsim"
    if not (src / "__init__.py").is_file() or not (src / "data" / workloads.NETWORK).is_file():
        print(f"error: no gasnetsim source tree at {src}", file=sys.stderr)
        return 2

    bench = json.loads(BENCHMARK.read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = [measure(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), bench)
                 for n in names]
    for s in summaries:
        report(s)
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    record = {"machine": machine(), "seed": args.seed, "trace": args.trace,
              "workloads": {s["workload"]: {"why": why.get(s["workload"]),
                                            "inputs_sha256": s["inputs"],
                                            "cell_steps": s["cell_steps"],
                                            "samples": s["samples"],
                                            "ungated_samples": s.get("ungated"),
                                            "span_counts": s.get("span_counts")}
                            for s in summaries}}
    WORK.mkdir(exist_ok=True)
    (WORK / "run_record.json").write_text(json.dumps(record, indent=1) + "\n")
    print("run record: " + json.dumps({
        "machine": record["machine"], "seed": args.seed,
        "inputs_sha256": {s["workload"]: s["inputs"] for s in summaries}}))

    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in s["metrics"].items()}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    correct = failed == 0 and not any(s["problems"] for s in summaries)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
