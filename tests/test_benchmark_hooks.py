"""The traced benchmark run (perfbench/tracing.py) wraps gasnetsim's layer
functions by name; these tests fail when a refactor moves one of them."""

import importlib
import importlib.util
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
TRACING = REPO / "perfbench" / "tracing.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _load("perfbench_tracing", TRACING)


def _ab_bench():
    return _load("ab_bench", REPO / "scripts" / "ab_bench.py")


def test_traced_layer_functions_resolve():
    tracing = _tracing()
    assert tracing.LAYER_FUNCTIONS
    for mod, qual in tracing.LAYER_FUNCTIONS:
        module = importlib.import_module(f"gasnetsim.{mod}")
        if "." in qual:
            cls_name, attr = qual.split(".")
            assert attr in vars(getattr(module, cls_name)), f"{mod}.{qual}"
        else:
            assert callable(getattr(module, qual, None)), f"{mod}.{qual}"
    for mod in tracing.MODULES:
        importlib.import_module(f"gasnetsim.{mod}")


@pytest.mark.parametrize(
    "mod, attr",
    [("run", "assemble"), ("cli", "parse_network_file"), ("cli", "parse_scenario_file"),
     ("fileio", "make_boundary_control"), ("cli", "run_cli")],
)
def test_setup_timing_hooks_are_module_attributes(mod, attr):
    assert callable(getattr(importlib.import_module(f"gasnetsim.{mod}"), attr))


def test_ab_bench_summary_counts_wins_by_each_metrics_direction():
    ab = _ab_bench()

    def run(cpu, rate):
        return {"metrics": {"w.cpu_s": {"value": cpu, "unit": "s"},
                            "w.cell_steps_per_s": {"value": rate, "unit": "1/s"},
                            "w.solver.friction_s": {"value": 1.0, "unit": "s"}}}

    runs = {"parent": [run(c, 10.0) for c in (1.0, 1.2, 1.1, 1.3, 1.4)],
            "change": [run(c, r) for c, r in ((0.8, 11.0), (1.2, 10.0), (0.9, 9.0),
                                              (0.9, 12.0), (1.5, 10.0))]}
    end_to_end = [{"name": "cpu_s", "better": "lower"},
                  {"name": "cell_steps_per_s", "better": "higher"}]
    summary = ab.summarise(runs, end_to_end)
    assert set(summary) == {"w.cpu_s", "w.cell_steps_per_s"}  # per-layer metrics left out
    cpu, rate = summary["w.cpu_s"], summary["w.cell_steps_per_s"]
    assert (cpu["wins"], cpu["ties"], cpu["pairs"]) == (3, 1, 5)
    assert (rate["wins"], rate["ties"]) == (2, 2)
    assert cpu["parent"] == pytest.approx({"median": 1.2, "q1": 1.1, "q3": 1.3, "iqr": 0.2})
    assert cpu["shift"] == pytest.approx(0.9 / 1.2 - 1.0)
    assert cpu["beyond_parent_iqr"] and not rate["beyond_parent_iqr"]


def test_ab_bench_reports_each_traced_count_that_differs():
    ab = _ab_bench()

    def traced(advect, written, extra=()):
        metrics = {"w.solver.advect_calls": {"value": advect, "unit": "count"},
                   "w.cli.bytes_written": {"value": written, "unit": "B"},
                   "w.solver.advect_s": {"value": advect / 7.0, "unit": "s"},
                   "v.solver.advect_calls": {"value": 5, "unit": "count"}}
        metrics.update({k: {"value": 1, "unit": "count"} for k in extra})
        return {"metrics": metrics}

    per_layer = [{"name": "solver.advect_calls", "unit": "count"},
                 {"name": "solver.advect_s", "unit": "s"},
                 {"name": "cli.bytes_written", "unit": "B"},
                 {"name": "run.steps", "unit": "count"}]
    same = {"parent": traced(10, 99), "change": traced(10, 99)}
    assert ab.count_differences(same, per_layer) == {}
    differ = {"parent": traced(10, 99, extra=["w.run.steps"]), "change": traced(12, 99)}
    # times never count; a count that one side lacks reads None there
    assert ab.count_differences(differ, per_layer) == {
        "w.run.steps": {"parent": 1, "change": None},
        "w.solver.advect_calls": {"parent": 10, "change": 12}}


def test_ab_bench_compares_each_traced_layer_time_within_pairs():
    ab = _ab_bench()

    def traced(friction, advect, calls=34):
        return {"metrics": {"w.solver.friction_s": {"value": friction, "unit": "s"},
                            "w.solver.advect_s": {"value": advect, "unit": "s"},
                            "w.solver.friction_calls": {"value": calls, "unit": "count"},
                            "w.cpu_s": {"value": 1.0, "unit": "s"}}}

    per_layer = [{"name": "solver.friction_s", "unit": "s"},
                 {"name": "solver.advect_s", "unit": "s"},
                 {"name": "solver.friction_calls", "unit": "count"}]
    # the machine drifts 2x between pairs; within each pair the change reads
    # 0.8, 0.9 and 0.5 of the parent, and the sides' medians hide that
    runs = {"parent": [traced(1.0, 0.0), traced(2.0, 1.0), traced(4.0, 0.0)],
            "change": [traced(0.8, 0.0), traced(1.8, 2.0), traced(2.0, 0.0)]}
    times = ab.layer_times(runs, per_layer)
    assert set(times) == {"w.solver.friction_s", "w.solver.advect_s"}  # no counts, no cpu_s
    friction, advect = times["w.solver.friction_s"], times["w.solver.advect_s"]
    assert (friction["parent"], friction["change"], friction["unit"]) == (2.0, 1.8, "s")
    assert (friction["pair_ratio"], friction["ratio_pairs"]) == (pytest.approx(0.8), 3)
    # a ratio only over the pairs where the parent's time is above 0
    assert (advect["pair_ratio"], advect["ratio_pairs"]) == (2.0, 1)
    no_time = {side: [traced(0.0, 0.0)] for side in ("parent", "change")}
    assert ab.layer_times(no_time, per_layer)["w.solver.friction_s"]["pair_ratio"] is None


def test_ab_bench_lists_each_run_that_is_not_correct_or_has_failed_operations():
    ab = _ab_bench()

    def run(correct=True, failed=0, problems=()):
        return {"correct": correct, "attempted": 4, "failed": failed,
                "problem_lines": list(problems)}

    good = {"parent": [run(), run()], "change": [run(), run()]}
    assert ab.bad_runs(good) == []
    bad = {"parent": [run(), run(failed=1)],
           "change": [run(correct=False, problems=["w  PROBLEM: 6 of 7 files identical"]),
                      run()]}
    assert ab.bad_runs(bad) == [
        "parent pair 2: correct=True failed=1 of 4",
        "change pair 1: correct=False failed=0 of 4\n  w  PROBLEM: 6 of 7 files identical"]


def test_ab_bench_counts_source_lines_as_wc_does(tmp_path):
    ab = _ab_bench()

    pkg = tmp_path / "src" / "gasnetsim"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n\ny = 2\n")
    (pkg / "b.py").write_text("z = 3")  # no final newline: wc -l counts 0
    (pkg / "notes.txt").write_text("not\nsource\n")
    (pkg / "data").mkdir()
    (pkg / "data" / "c.py").write_text("nested\n")  # *.py does not descend
    assert ab.source_lines(tmp_path) == 3
    wc = subprocess.run("wc -l src/gasnetsim/*.py", shell=True, cwd=REPO, check=True,
                        capture_output=True, text=True).stdout.splitlines()[-1].split()
    assert wc[-1] == "total" and ab.source_lines(REPO) == int(wc[0])
