"""One repetition of a workload, run in a fresh interpreter by run.py.

    python3 perfbench/repetition.py SPEC.json RESULT.json

SPEC names the source tree, the `run_cli` argument lists and whether to
trace.  RESULT receives the timings, exit codes and, when traced, the
per-layer table.  Untraced repetitions time with speed.SpeedClock and
report normalised seconds under the plain names, raw seconds under
`*_raw_s`; traced repetitions report raw seconds only (the clock's
handler would land inside the spans).  Timings:

- setup_s: process CPU time of `import gasnetsim` (and `gasnetsim.cli`)
  plus that spent in `parse_network_file`, `parse_scenario_file` and
  `run.assemble` during the calls, timed by a clock around those three
  functions.  numpy is imported by the clock before it starts; that
  import is timed raw and scaled by the clock's first reading;
- cpu_s / wall_s: process CPU / wall time from the first `run_cli` call
  until the last one has returned, its files written and closed.  CPU
  time leaves out the time the hypervisor takes the virtual CPU away
  (steal), wall time does not;
- peak_rss_mb: the process's peak resident set (ru_maxrss).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _setup_clock(modules, clock, store):
    """Accumulate the (raw, normalised) CPU time spent in the set-up
    functions into store."""
    def timed(fn):
        def call(*args, **kwargs):
            r0 = clock.read()
            try:
                return fn(*args, **kwargs)
            finally:
                r1 = clock.read()
                store[0] += r1.cpu_s - r0.cpu_s
                store[1] += r1.ref_cpu_s - r0.ref_cpu_s
        return call

    cli, run = modules
    cli.parse_network_file = timed(cli.parse_network_file)
    cli.parse_scenario_file = timed(cli.parse_scenario_file)
    run.assemble = timed(run.assemble)


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    clock = None
    setup = [0.0, 0.0]  # raw, normalised
    if not spec["traced"]:
        t0 = time.process_time()
        import speed  # imports numpy

        numpy_s = time.process_time() - t0
        clock = speed.SpeedClock()
        clock.start()
        setup = [numpy_s, numpy_s * clock.factor]
        r0 = clock.read()
    import gasnetsim
    import gasnetsim.cli as cli
    import gasnetsim.run as run
    if Path(gasnetsim.__file__).resolve().parent != src / "gasnetsim":
        raise SystemExit(f"imported gasnetsim from {gasnetsim.__file__}, not from {src}")

    tracer = None
    run_cli = cli.run_cli
    if clock is None:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        run_cli = tracer.wrap(run_cli, "cli.run_cli", (None, None))
    else:
        r1 = clock.read()
        setup[0] += r1.cpu_s - r0.cpu_s
        setup[1] += r1.ref_cpu_s - r0.ref_cpu_s
        _setup_clock((cli, run), clock, setup)

    exit_codes = []
    if clock is None:
        c0, w0 = time.process_time(), time.perf_counter()
    else:
        start = clock.read()
    for call in spec["calls"]:
        exit_codes.append(run_cli(call["argv"]))
    if clock is None:
        times = {"wall_raw_s": time.perf_counter() - w0, "cpu_raw_s": time.process_time() - c0}
    else:
        end = clock.stop()
        times = {"wall_raw_s": end.wall_s - start.wall_s, "cpu_raw_s": end.cpu_s - start.cpu_s,
                 "setup_raw_s": setup[0],
                 "wall_s": end.ref_wall_s - start.ref_wall_s,
                 "cpu_s": end.ref_cpu_s - start.ref_cpu_s,
                 "setup_s": setup[1]}

    result = {
        "exit_codes": exit_codes,
        **times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bytes_written": sum(_bytes_under(Path(c["out"])) for c in spec["calls"]
                             if Path(c["out"]).is_dir()),
    }
    if tracer is not None:
        layers, result["span_counts"], result["self_time_sum_s"] = tracing.layer_metrics(tracer)
        layers["cli.bytes_written"] = result["bytes_written"]
        result["layers"] = layers
        if spec.get("spans"):
            tracer.save(spec["spans"])
    Path(result_path).write_text(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
