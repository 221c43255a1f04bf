"""One cell of `scripts/identity.py`'s output-identity matrix against
committed fingerprints, so that an output drift shows without a second tree.

The fingerprints in `identity_fingerprints.json` are the sha256 of every
file the cell writes, with its exit code, standard output and standard
error.  A deliberate output change rewrites them with

    PYTHONPATH=src:scripts python3 -c "import identity; identity.write_fingerprints(
        'tests/identity_fingerprints.json', '/tmp/identity-cell')"
"""

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FINGERPRINTS = Path(__file__).resolve().parent / "identity_fingerprints.json"


def _identity():
    spec = importlib.util.spec_from_file_location("identity", REPO / "scripts" / "identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_identity_cell_writes_its_committed_fingerprints(tmp_path):
    identity = _identity()
    want = json.loads(FINGERPRINTS.read_text())
    cell = tuple(want["cell"])
    assert cell in identity.cells()
    assert identity.run_cell(cell, tmp_path) == want["record"]
    assert identity.fingerprints(tmp_path / "out") == want["files"]


def test_failing_cells_exit_2_or_3_with_one_error_line_and_no_output(tmp_path):
    """The cells on FAILING's inputs reach the refusals and the blow-ups they
    are there for, so the matrix compares error exits and messages too.
    `simulate` computes no L0, so it runs the L0 overflow through."""
    identity = _identity()
    failing = [c for c in identity.cells() if c[0] in identity.FAILING]
    assert len(failing) == len(identity.FAILING) * len(identity.COMMANDS)
    for cell in failing:
        record = identity.run_cell(cell, tmp_path)
        out = tmp_path / "out" / identity.cell_name(cell)
        if cell[0] == "l0-overflow" and cell[3] == "simulate":
            assert record == {"exit": 0, "stdout": record["stdout"], "stderr": []}, cell
            assert (out / "state.csv").exists()
            continue
        code, prefix = (3, "numerical error: ") if cell[0] in ("huge-diameter", "l0-overflow") \
            else (2, "error: ")
        assert record["exit"] == code and record["stdout"] == [], cell
        assert len(record["stderr"]) == 1 and record["stderr"][0].startswith(prefix), cell
        assert not out.exists(), cell
    l0_cell = identity.run_cell(("l0-overflow", "mixed", "exact", "observe"), tmp_path)
    assert l0_cell["stderr"] == ["numerical error: L0 overflowed at t=0.0 in the term of pipe a, "
                                 "with every cell of both systems finite"]
