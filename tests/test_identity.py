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
