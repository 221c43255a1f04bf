"""The traced benchmark run (perfbench/tracing.py) wraps gasnetsim's layer
functions by name; these tests fail when a refactor moves one of them."""

import importlib
import importlib.util
import subprocess
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    path = Path(__file__).resolve().parent.parent / "scripts" / "ab_bench.py"
    spec = importlib.util.spec_from_file_location("ab_bench", path)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)

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


def test_ab_bench_counts_source_lines_as_wc_does(tmp_path):
    path = Path(__file__).resolve().parent.parent / "scripts" / "ab_bench.py"
    spec = importlib.util.spec_from_file_location("ab_bench", path)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)

    pkg = tmp_path / "src" / "gasnetsim"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n\ny = 2\n")
    (pkg / "b.py").write_text("z = 3")  # no final newline: wc -l counts 0
    (pkg / "notes.txt").write_text("not\nsource\n")
    (pkg / "data").mkdir()
    (pkg / "data" / "c.py").write_text("nested\n")  # *.py does not descend
    assert ab.source_lines(tmp_path) == 3
    repo = path.parent.parent
    wc = subprocess.run("wc -l src/gasnetsim/*.py", shell=True, cwd=repo, check=True,
                        capture_output=True, text=True).stdout.splitlines()[-1].split()
    assert wc[-1] == "total" and ab.source_lines(repo) == int(wc[0])
