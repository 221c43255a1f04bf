"""The four benchmark workloads and their seeded input generator.

Why each workload was chosen is recorded with it in BENCHMARK.json.

Every workload runs on the bundled 34-pipe/35-node network.  Its dt,
t_end, pressure law and gain lines are fixed, so cell and step counts are
the same for every seed.  The seed only chooses which three pipes carry the
truth/observer half-step mismatch and how high the steps are; seed 0
reproduces the bundled `ic` lines exactly.

This module imports nothing from gasnetsim: the counts it derives from the
inputs are the reference the traced run is checked against.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "gasnetsim" / "data"
NETWORK = "gaslib40_like.net"

# Seed 0: the three mismatch pipes and step heights (bar) of the bundled
# step_*.scn files.  The observer's step is 0.75 of the truth's.
SEED0_PIPES = ("12-16", "27-28", "22-27")
SEED0_HEIGHTS = (2.0, 2.0, 1.0)
OBSERVER_SHARE = 0.75
HEIGHT_CHOICES = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5)

# (label, gain line, residual stride).  Only mu = 0.5 records residuals, every
# 15th step: with mu = 0 every outgoing difference is 0 and the nodal identity
# holds trivially, so the residual check needs a nonzero gain to test anything.
SWEEP_GAINS = (("0", "uniform 0", "0"), ("0.5", "uniform 0.5", "15"),
               ("-0.5", "uniform -0.5", "0"), ("1", "uniform 1", "0"),
               ("mixed", "mixed", "0"))


@dataclass(frozen=True)
class Call:
    """One `run_cli` call: the subcommand, its scenario and its extra flags."""

    label: str
    command: str
    scenario: Dict[str, Optional[str]]  # key -> value replacing the base line; None drops it
    flags: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    base: str  # bundled scenario the generated files start from
    calls: Tuple[Call, ...]
    systems: int  # 2 when truth and observer are stepped, 1 for the truth alone
    stated_cell_steps: int  # total cells x steps x systems over all calls


_FRICTION = {"law": "isothermal", "dt": "0.5882352941176471", "t_end": "600",
             "mu": "uniform 0"}

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "observe_gaslib40", "step_friction.scn",
            (Call("main", "observe", _FRICTION),),
            systems=2, stated_cell_steps=5_100_000,
        ),
        Workload(
            "simulate_fine", "step_friction.scn",
            (Call("main", "simulate", dict(_FRICTION, dt="0.058823529411764705",
                                           t_end="60")),),
            systems=1, stated_cell_steps=25_439_820,
        ),
        Workload(
            "certify_aga", "step_friction.scn",
            (Call("main", "certify", {"law": "aga 115600 -0.005", "dt": None,
                                      "t_end": "60", "mu": "uniform 0"}),),
            systems=2, stated_cell_steps=137_906,
        ),
        Workload(
            "sweep_gains", "step_nofriction.scn",
            tuple(
                Call(f"mu_{label}", "observe",
                     {"law": "isothermal", "dt": "0.5882352941176471",
                      "t_end": "180", "mu": mu},
                     ("--residual-stride", stride, "--snapshots", "0,90,180"))
                for label, mu, stride in SWEEP_GAINS
            ),
            systems=2, stated_cell_steps=7_650_000,
        ),
    )
}


def seeded_steps(seed: int, pipe_ids: List[str]) -> List[Tuple[str, float]]:
    """The (pipe, truth step height in bar) pairs chosen by `seed`."""
    if seed == 0:
        return list(zip(SEED0_PIPES, SEED0_HEIGHTS))
    rng = random.Random(seed)
    pipes = rng.sample(sorted(pipe_ids), 3)
    return [(p, rng.choice(HEIGHT_CHOICES)) for p in pipes]


def ic_lines(steps: List[Tuple[str, float]]) -> List[str]:
    lines = [f"ic S {p} half_step 60 {h:g}" for p, h in steps]
    lines += [f"ic R {p} half_step 60 {h * OBSERVER_SHARE:g}" for p, h in steps]
    return lines


def scenario_text(base_text: str, fixed: Dict[str, Optional[str]], ics: List[str]) -> str:
    """Rewrite a bundled scenario: fixed keys replaced in place (None drops
    the line), the seeded ic block where the first ic line stood."""
    out: List[str] = []
    placed_ic = False
    seen = set()
    for raw in base_text.splitlines():
        key = raw.split("#", 1)[0].split()[:1]
        key = key[0] if key else None
        if key == "ic":
            if not placed_ic:
                out.extend(ics)
                placed_ic = True
            continue
        if key in fixed:
            seen.add(key)
            if fixed[key] is not None:
                out.append(f"{key} {fixed[key]}")
            continue
        out.append(raw)
    for key, value in fixed.items():
        if key not in seen and value is not None:
            out.append(f"{key} {value}")
    if not placed_ic:
        out.extend(ics)
    return "\n".join(out) + "\n"


def parse_pipes(net_text: str) -> List[Tuple[str, str, str, float]]:
    """(id, from, to, length) of every `pipe` record of a native network file."""
    pipes = []
    for raw in net_text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if parts and parts[0] == "pipe":
            pipes.append((parts[1], parts[2], parts[3], float(parts[4])))
    return pipes


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass(frozen=True)
class Inputs:
    """Generated files of one workload and seed."""

    network: Path
    scenarios: Dict[str, Path]  # call label -> scenario file

    def hashes(self) -> Dict[str, str]:
        files = [self.network, *self.scenarios.values()]
        return {p.name: sha256(p) for p in files}


def generate(workload: Workload, seed: int, dest: Path) -> Inputs:
    """Write the network and one scenario per call into `dest`."""
    dest.mkdir(parents=True, exist_ok=True)
    net_text = (DATA / NETWORK).read_text()
    network = dest / NETWORK
    network.write_text(net_text)
    ics = ic_lines(seeded_steps(seed, [p[0] for p in parse_pipes(net_text)]))
    base_text = (DATA / workload.base).read_text()
    scenarios = {}
    for call in workload.calls:
        path = dest / f"{workload.name}_{call.label}.scn"
        path.write_text(scenario_text(base_text, call.scenario, ics))
        scenarios[call.label] = path
    return Inputs(network, scenarios)


@dataclass(frozen=True)
class Counts:
    """Sizes of one call derived from the input files alone."""

    pipes: int
    nodes: int
    boundary_nodes: int
    cells: int
    steps: int
    dt: float
    friction: bool
    t_end: float


def _scenario_values(text: str) -> Dict[str, List[str]]:
    vals = {}
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if parts and parts[0] != "ic" and parts[0] != "boundary":
            vals[parts[0]] = parts[1:]
    return vals


def derive_counts(network: Path, scenario: Path) -> Counts:
    """Cells and steps as the exact-advection grid defines them:
    n = floor(L / (c dt) + 1/2) per pipe, steps = ceil(t_end / dt)."""
    pipes = parse_pipes(network.read_text())
    vals = _scenario_values(scenario.read_text())
    law = vals.get("law", ["isothermal"])
    if law[0] == "isothermal":
        c = float(vals.get("c", ["340"])[0])
    elif law[0] == "aga":  # c = sqrt(p'(rho_ref)) with rho_ref = 1
        c = math.sqrt(float(law[1])) / (1.0 - float(law[2]))
    else:
        raise ValueError(f"no sound speed rule for law {law[0]!r}")
    min_len = min(p[3] for p in pipes)
    dt = float(vals["dt"][0]) if "dt" in vals else min_len / (8 * c)
    degree: Dict[str, int] = {}
    for _, a, b, _ in pipes:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    t_end = float(vals["t_end"][0])
    return Counts(
        pipes=len(pipes),
        nodes=len(degree),
        boundary_nodes=sum(1 for d in degree.values() if d == 1),
        cells=sum(int(math.floor(p[3] / (c * dt) + 0.5)) for p in pipes),
        steps=int(math.ceil(t_end / dt - 1e-12)),
        dt=dt,
        friction=float(vals.get("theta", ["0.0137"])[0]) > 0.0,
        t_end=t_end,
    )
