"""Output checks of one `run_cli` call.

`check_call` holds for any seed: every expected file is present with the
row count the inputs imply, every number is finite, L0 never increases
(exact-advection mode) and every nodal residual is at most 1e-12.  At
mu = 0 (observe_gaslib40) the nodal identity holds trivially; sweep_gains'
mu = 0.5 call records sparse residuals so that the check tests it.

`fingerprint` / `compare` hold the seed-0 outputs against references
recorded from the code the benchmark was defined on.  A reference keeps
each file's sha256 (byte identity, reported on its own), its header, row
count, per-column sums and extremes, and a stride of sample rows; numbers
are compared to a relative 1e-9 of the column's largest magnitude plus an
absolute 1e-12, so a change that only reorders rounding still passes.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from workloads import Call, Counts

RTOL = 1e-9
ATOL = 1e-12
# Exact advection and friction never add energy, so L0 may grow in one step
# only by the rounding of the shift, the nodal map and the L0 sum: allow
# 1e-10 of L0(0), far above that rounding and far below any real growth.
L0_INCREASE = 1e-10
RESIDUAL_MAX = 1e-12
SAMPLE_ROWS = 40

HEADERS = {
    "l0.csv": "t,l0",
    "l1.csv": "t,l1",
    "residuals.csv": "t,node,residual",
    "state.csv": "pipe,x,r_plus,r_minus,pressure_bar,velocity",
    "snapshot": "pipe,x,delta_plus,delta_minus",
}
ID_COLUMNS = {"pipe", "node"}
RATES_KEYS = ("fit_window_s", "l0_decay_rate_per_s", "l1_decay_rate_per_s",
              "finite_time_sync_s", "m_tilde", "b_tilde")
CERT_KEYS = ("network_pipes", "network_nodes", "sound_speed_m_s", "c0", "c1",
             "upsilon0", "l0_window_factor", "h1_holds")


def flag(call: Call, name: str, default: str) -> str:
    flags = list(call.flags)
    return flags[flags.index(name) + 1] if name in flags else default


def expected_files(call: Call, counts: Counts) -> List[str]:
    """Relative paths of every output the call must write."""
    if call.command == "simulate":
        return ["state.csv"]
    if call.command == "certify":
        return ["certificate.txt"]
    snaps = flag(call, "--snapshots", "")
    times = ([float(t) for t in snaps.split(",")] if snaps
             else [0.0, counts.t_end / 2.0, counts.t_end])
    steps = sorted({min(counts.steps, max(0, round(t / counts.dt))) for t in times})
    return (["l0.csv", "l1.csv", "residuals.csv", "rates.txt"]
            + [f"snapshots/t_{k * counts.dt:g}.csv" for k in steps])


def residual_rows(call: Call, counts: Counts) -> int:
    """Residual rows of an observe call: every node on steps 1, 1 + s, ..."""
    stride = int(flag(call, "--residual-stride", "1"))
    return counts.nodes * -(-counts.steps // stride) if stride > 0 else 0


def _read_csv(path: Path) -> Tuple[str, List[List[str]]]:
    lines = path.read_text().splitlines()
    return (lines[0] if lines else ""), [ln.split(",") for ln in lines[1:]]


def _numeric_columns(header: str, rows: List[List[str]]) -> Dict[str, List[float]]:
    names = header.split(",")
    return {name: [float(r[i]) for r in rows]
            for i, name in enumerate(names) if name not in ID_COLUMNS}


def _key_values(path: Path) -> Dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value.split("  #", 1)[0].strip()
    return out


def _as_float(text: str) -> Optional[float]:
    try:
        return float(text)
    except ValueError:
        return None


def check_call(call: Call, counts: Counts, out: Path) -> List[str]:
    """Problems with the outputs of one call; empty when they pass."""
    problems: List[str] = []
    rows_expected = {
        "l0.csv": counts.steps + 1,
        "l1.csv": counts.steps,
        "residuals.csv": residual_rows(call, counts) if call.command == "observe" else 0,
        "state.csv": counts.cells,
    }
    for rel in expected_files(call, counts):
        path = out / rel
        if not path.is_file():
            problems.append(f"{rel}: missing")
            continue
        if rel.endswith(".txt"):
            values = _key_values(path)
            keys = RATES_KEYS if rel == "rates.txt" else CERT_KEYS
            missing = [k for k in keys if k not in values]
            if missing:
                problems.append(f"{rel}: missing keys {missing}")
            bad = [k for k, v in values.items()
                   if _as_float(v) is not None and not math.isfinite(float(v))]
            if bad:
                problems.append(f"{rel}: non-finite {bad}")
            if rel == "certificate.txt" and (
                    values.get("network_pipes") != str(counts.pipes)
                    or values.get("network_nodes") != str(counts.nodes)):
                problems.append(f"{rel}: network size differs from the input")
            continue
        header, rows = _read_csv(path)
        kind = "snapshot" if rel.startswith("snapshots/") else rel
        if header != HEADERS[kind]:
            problems.append(f"{rel}: header {header!r}")
            continue
        n_rows = counts.cells if kind == "snapshot" else rows_expected[kind]
        if len(rows) != n_rows:
            problems.append(f"{rel}: {len(rows)} rows, expected {n_rows}")
        try:
            cols = _numeric_columns(header, rows)
        except (ValueError, IndexError) as exc:
            problems.append(f"{rel}: unreadable row ({exc})")
            continue
        if any(not math.isfinite(v) for col in cols.values() for v in col):
            problems.append(f"{rel}: non-finite value")
        if kind == "l0.csv" and cols["l0"]:
            l0 = cols["l0"]
            worst = max((b - a for a, b in zip(l0, l0[1:])), default=0.0)
            if min(l0) < 0 or worst > L0_INCREASE * l0[0]:
                problems.append(f"{rel}: L0 increases by {worst!r} in one step")
        if kind == "l1.csv" and any(v < 0 for v in cols["l1"]):
            problems.append(f"{rel}: negative L1")
        if kind == "residuals.csv" and any(not v <= RESIDUAL_MAX for v in cols["residual"]):
            problems.append(f"{rel}: nodal residual above {RESIDUAL_MAX}")
    return problems


# ---------------------------------------------------------------------------
# seed-0 references


def fingerprint(out: Path, files: List[str]) -> Dict[str, dict]:
    """Reference record of the named output files."""
    record = {}
    for rel in files:
        path = out / rel
        entry = {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
        if rel.endswith(".txt"):
            entry["values"] = _key_values(path)
        else:
            header, rows = _read_csv(path)
            stride = max(1, len(rows) // SAMPLE_ROWS)
            entry.update(header=header, rows=len(rows),
                         samples=[",".join(r) for r in rows[::stride]], columns={})
            for name, col in _numeric_columns(header, rows).items():
                entry["columns"][name] = {"sum": math.fsum(col), "min": min(col, default=0.0),
                                          "max": max(col, default=0.0),
                                          "absmax": max(map(abs, col), default=0.0)}
            for i, name in enumerate(header.split(",")):
                if name in ID_COLUMNS:
                    ids = "\n".join(r[i] for r in rows).encode()
                    entry["columns"][name] = {"sha256": hashlib.sha256(ids).hexdigest()}
        record[rel] = entry
    return record


def _close(a: float, b: float, scale: float, n: int = 1) -> bool:
    return abs(a - b) <= n * (RTOL * scale + ATOL)


def _compare_text(rel: str, got: Dict[str, str], ref: Dict[str, str]) -> List[str]:
    problems = []
    if set(got) != set(ref):
        return [f"{rel}: keys differ from the reference"]
    for key, want in ref.items():
        a, b = _as_float(got[key]), _as_float(want)
        if a is None or b is None:
            if got[key] != want:
                problems.append(f"{rel}: {key} = {got[key]!r}, reference {want!r}")
            continue
        if key.endswith("_fit_r2"):
            # The r^2 of a fit whose slope is rounding noise is itself noise.
            rate = _as_float(ref.get(key.replace("_fit_r2", "_decay_rate_per_s"), ""))
            if rate is not None and abs(rate) <= ATOL:
                continue
        if not _close(a, b, abs(b)):
            problems.append(f"{rel}: {key} = {got[key]}, reference {want}")
    return problems


def compare(out: Path, ref: Dict[str, dict]) -> Tuple[List[str], int]:
    """(problems, number of byte-identical files) against a reference record."""
    got = fingerprint(out, list(ref))
    problems: List[str] = []
    identical = 0
    for rel, want in ref.items():
        have = got[rel]
        if have["sha256"] == want["sha256"]:
            identical += 1
            continue
        if "values" in want:
            problems += _compare_text(rel, have["values"], want["values"])
            continue
        if have["header"] != want["header"] or have["rows"] != want["rows"]:
            problems.append(f"{rel}: header or row count differs from the reference")
            continue
        names = want["header"].split(",")
        for name, stats in want["columns"].items():
            if "sha256" in stats:
                if have["columns"][name] != stats:
                    problems.append(f"{rel}: column {name} differs from the reference")
                continue
            scale, mine = stats["absmax"], have["columns"][name]
            if not (_close(mine["sum"], stats["sum"], scale, max(1, want["rows"]))
                    and all(_close(mine[k], stats[k], scale) for k in ("min", "max", "absmax"))):
                problems.append(f"{rel}: column {name} statistics differ from the reference")
        for row_got, row_want in zip(have["samples"], want["samples"]):
            for name, a, b in zip(names, row_got.split(","), row_want.split(",")):
                if name in ID_COLUMNS:
                    ok = a == b
                else:
                    ok = _close(float(a), float(b), want["columns"][name]["absmax"])
                if not ok:
                    problems.append(f"{rel}: sample row {row_got!r}, reference {row_want!r}")
                    break
    return problems, identical
