"""The traced benchmark run (perfbench/tracing.py) checks that the kernel's
layer functions run once per pipe, node or boundary node per step.  This
test runs the same tracer on a small cyclic network for each of the four
commands, so a refactor that changes how often they run fails in the
tier-1 suite, not only in the benchmark."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
TRACING = REPO / "perfbench" / "tracing.py"

# The tracer patches module globals, so it runs in its own interpreter.
SCRIPT = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.install(tracer)
import gasnetsim.cli
code = gasnetsim.cli.run_cli(sys.argv[2:])
print(json.dumps({"exit_code": code, **tracing.layer_metrics(tracer)[0]}))
"""

# A triangle n1-n2-n3 with pendant pipes at n1 and n3: 5 pipes, 5 nodes,
# 2 boundary nodes; every length is a multiple of c dt = 170 m.
NETWORK = """\
pipe e0 n0 n1 340 0.5
pipe e1 n1 n2 510 0.6
pipe e2 n2 n3 680 0.4
pipe e3 n3 n1 510 0.5
pipe e4 n3 n4 340 0.3
"""
PIPES, NODES, BOUNDARY = 5, 5, 2
STEPS, STRIDE = 12, 3
SCENARIO = (
    "theta 0.02\nt_end 6\ndt 0.5\nmu uniform 0.5\n"
    "ic S e1 half_step 60 2\nic R e2 sinusoidal 60 1 2\n"
)


@pytest.mark.parametrize("command, extra, systems", [
    ("observe", ["--residual-stride", str(STRIDE)], 2),
    ("simulate", [], 1),
    ("certify", [], 2),
    ("snapshot", ["--times", "0,3"], 2),
])
def test_traced_call_counts_follow_the_network(tmp_path, command, extra, systems):
    net, scn = tmp_path / "net.net", tmp_path / "scn.scn"
    net.write_text(NETWORK)
    scn.write_text(SCENARIO)
    argv = [command, "--network", str(net), "--scenario", str(scn),
            "--out", str(tmp_path / "out"), *extra]
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(TRACING), *argv], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    m = json.loads(done.stdout.splitlines()[-1])
    assert m["exit_code"] == 0
    assert m["run.steps"] == STEPS
    assert m["solver.advect_calls"] == PIPES * STEPS * systems
    assert m["solver.friction_calls"] == PIPES * STEPS * systems
    assert m["network.junction_calls"] == NODES * STEPS
    assert m["fileio.control_calls"] == BOUNDARY * STEPS
    # As in perfbench/run.py's expected_layer_counts: the error-system node
    # map runs on every coupled run, the residuals only with a stride.
    coupled = systems == 2
    assert m["observer.diff_junction_calls"] == ((NODES - BOUNDARY) * STEPS if coupled else 0)
    assert m["diagnostics.residual_calls"] == (
        NODES * math.ceil(STEPS / STRIDE) if "--residual-stride" in extra else 0)
