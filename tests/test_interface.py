import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gasnetsim.errors import ParseError, ScheduleError, ValidationError
from gasnetsim.fileio import (
    BAR,
    BoundaryPoint,
    InitialCondition,
    bundled_path,
    eval_boundary_schedule,
    interp_schedule,
    parse_network,
    parse_network_file,
    parse_scenario,
    parse_scenario_file,
    serialize_network,
)
from gasnetsim.physics import IsothermalLaw
from gasnetsim.cli import run_cli
from gasnetsim.network import PipeSpec

REPO = Path(__file__).resolve().parent.parent

MINIMAL_NET = """
# two nodes, one pipe
node a
node b
pipe p a b 1000 0.5
"""

GASLIB_XML = """<?xml version="1.0"?>
<network xmlns="http://gaslib.zib.de/Gas">
  <framework:nodes xmlns:framework="http://gaslib.zib.de/Framework">
    <source id="n1"/>
    <sink id="n2"/>
    <innode id="n3"/>
  </framework:nodes>
  <connections>
    <pipe id="e1" from="n1" to="n2">
      <length value="3.068" unit="km"/>
      <diameter value="400" unit="mm"/>
    </pipe>
    <pipe id="e2" from="n2" to="n3">
      <length value="500" unit="m"/>
      <diameter value="1" unit="m"/>
    </pipe>
  </connections>
</network>
"""


def test_parse_minimal_native():
    g = parse_network(MINIMAL_NET)
    assert len(g.pipes) == 1
    assert g.boundary_nodes == ("a", "b")
    p = g.pipe("p")
    assert p.length == 1000.0 and p.diameter == 0.5 and p.theta == 0.0


def test_parse_native_rejects_bad_dimension():
    with pytest.raises(ParseError):
        parse_network("pipe p a b -1 0.5")
    with pytest.raises(ParseError):
        parse_network("pipe p a b 1000 0")


def test_parse_native_rejects_unknown_record():
    with pytest.raises(ParseError):
        parse_network("compressor c a b")


def test_parse_native_rejects_stray_node():
    with pytest.raises(ParseError):
        parse_network("node a\nnode z\npipe p a b 10 0.5")


def test_native_round_trip_is_field_exact():
    g = parse_network_file(bundled_path("gaslib40_like.net"))
    text = serialize_network(g)
    g2 = parse_network(text)
    assert g2.nodes == g.nodes
    assert g2.pipes == g.pipes
    # serialization is idempotent
    assert serialize_network(g2) == text


def test_round_trip_preserves_theta():
    g = parse_network("pipe p a b 1000.5 0.5 0.0137")
    assert g.pipe("p").theta == 0.0137
    g2 = parse_network(serialize_network(g))
    assert g2.pipes == g.pipes


def test_parse_gaslib_subset_units():
    g = parse_network(GASLIB_XML)
    assert len(g.pipes) == 2
    e1 = g.pipe("e1")
    assert e1.length == 3068.0  # 3.068 km exactly
    assert e1.diameter == 0.4  # 400 mm exactly
    assert g.pipe("e2").length == 500.0
    assert g.pipe("e2").diameter == 1.0


def test_parse_gaslib_rejects_compressor():
    xml = GASLIB_XML.replace(
        "</connections>",
        '<compressorStation id="cs1" from="n1" to="n3"/></connections>',
    )
    with pytest.raises(ParseError, match="compressorStation"):
        parse_network(xml)


def test_parse_gaslib_rejects_valve():
    xml = GASLIB_XML.replace(
        "</connections>", '<valve id="v1" from="n1" to="n3"/></connections>'
    )
    with pytest.raises(ParseError, match="valve"):
        parse_network(xml)


def test_parse_gaslib_unknown_unit():
    xml = GASLIB_XML.replace('unit="km"', 'unit="miles"')
    with pytest.raises(ParseError, match="miles"):
        parse_network(xml)


def test_parse_gaslib_missing_attribute():
    xml = GASLIB_XML.replace(' from="n1" to="n2"', "")
    with pytest.raises(ParseError, match="e1"):
        parse_network(xml)


def test_bundled_network_matches_benchmark_ranges():
    g = parse_network_file(bundled_path("gaslib40_like.net"))
    assert len(g.pipes) == 34
    lengths = [p.length for p in g.pipes]
    diams = [p.diameter for p in g.pipes]
    assert min(lengths) == 3068.0 and max(lengths) == 86690.0
    assert all(3068.0 <= l <= 86690.0 for l in lengths)
    assert all(0.4 <= d <= 1.0 for d in diams)
    assert {"0", "1", "2"} <= set(g.boundary_nodes)
    for pid in ("12-16", "22-27", "27-28"):
        g.pipe(pid)


def test_scenario_defaults():
    spec = parse_scenario("")
    assert spec.theta == 0.0137
    assert spec.c == 340.0
    assert spec.law_kind == "isothermal"
    assert spec.rest_pressure_bar == 60.0
    assert spec.ic_for("S", "anything").kind == "constant"
    assert spec.ic_for("R", "anything").p_base == 60.0


def test_scenario_step_friction_offsets():
    spec = parse_scenario_file(bundled_path("step_friction.scn"))
    assert [spec.ic_s[p].h for p in ("12-16", "27-28", "22-27")] == [2.0, 2.0, 1.0]
    assert [spec.ic_r[p].h for p in ("12-16", "27-28", "22-27")] == [1.5, 1.5, 0.75]
    assert all(ic.kind == "half_step" for ic in spec.ic_s.values())
    assert spec.theta == 0.0137


def test_scenario_sine_profiles():
    spec = parse_scenario_file(bundled_path("sine_friction.scn"))
    assert [(spec.ic_s[p].h, spec.ic_s[p].f) for p in ("12-16", "27-28", "22-27")] == [
        (2.0, 2),
        (2.0, 2),
        (1.0, 4),
    ]
    assert [(spec.ic_r[p].h, spec.ic_r[p].f) for p in ("12-16", "27-28", "22-27")] == [
        (1.5, 2),
        (1.5, 2),
        (0.75, 4),
    ]


def test_scenario_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_scenario("frobnicate 3")
    with pytest.raises(ParseError):
        parse_scenario("mu uniform 1.5")
    with pytest.raises(ParseError):
        parse_scenario("boundary 0 0 60 1\nboundary 0 0 61 1")  # non-monotone
    with pytest.raises(ParseError):
        parse_scenario("ic S p half_step 60")  # missing offset


def test_initial_condition_profiles():
    x = np.array([10.0, 40.0, 60.0, 90.0])
    half = InitialCondition("half_step", 60.0, 2.0)
    assert half.pressure_bar(x, 100.0).tolist() == [62.0, 62.0, 60.0, 60.0]
    sine = InitialCondition("sinusoidal", 60.0, 2.0, 2)
    profile = sine.pressure_bar(x, 100.0)
    assert profile[0] == pytest.approx(60.0 + 2.0 * math.sin(2 * math.pi * 0.1))
    with pytest.raises(ValidationError):
        InitialCondition("sinusoidal", 60.0, 1.0, 0)
    with pytest.raises(ValidationError):
        InitialCondition("wavelet", 60.0)


def test_mixed_preset_assignment():
    g = parse_network_file(bundled_path("gaslib40_like.net"))
    spec = parse_scenario("mu mixed")
    mu = spec.resolve_mu(g)
    assert mu["0"] == 0.0 and mu["4"] == 0.0
    for odd in ("1", "5", "7", "15", "17", "29"):
        assert mu[odd] == 0.0
    for odd in ("3", "9", "11", "13", "19", "21", "23", "25", "27", "31", "33"):
        assert mu[odd] == 1.0
    # every pipe keeps one observed endpoint
    for p in g.pipes:
        assert min(abs(mu[p.from_node]), abs(mu[p.to_node])) < 1.0


def test_mixed_preset_needs_integer_ids(five_pipe):
    spec = parse_scenario("mu mixed")
    with pytest.raises(ValidationError):
        spec.resolve_mu(five_pipe)


def test_mu_overrides(five_pipe):
    spec = parse_scenario("mu uniform 0.5\nmu node n3 -0.25")
    mu = spec.resolve_mu(five_pipe)
    assert mu["n2"] == 0.5
    assert mu["n3"] == -0.25
    with pytest.raises(ValidationError):
        parse_scenario("mu node zz 5.0")


def test_schedule_interpolation_benchmark_points():
    points = (
        BoundaryPoint(0.0, 59.5, 41.788),
        BoundaryPoint(100.0, 60.5, 41.788),
        BoundaryPoint(200.0, 60.0, 41.788),
    )
    assert interp_schedule(points, 0.0)[0] == 59.5
    assert interp_schedule(points, 100.0)[0] == 60.5
    assert interp_schedule(points, 200.0)[0] == 60.0
    assert interp_schedule(points, 1e4)[0] == 60.0
    assert interp_schedule(points, 50.0)[0] == pytest.approx(60.0, rel=1e-14)
    with pytest.raises(ScheduleError):
        interp_schedule(points, -1.0)


def test_boundary_invariant_conversion():
    pipe = PipeSpec("p", "a", "b", 1000.0, 0.5)
    law = IsothermalLaw(c=340.0)
    points = (BoundaryPoint(0.0, 60.0, 41.788),)
    u = eval_boundary_schedule(points, 0.0, pipe, law)
    rho = 60.0e5 / 340.0**2
    expected = 340.0 * math.log(rho) + 41.788 / (rho * math.pi * 0.5**2 / 4.0)
    assert u == pytest.approx(expected, rel=1e-14)


def test_unit_constants():
    assert BAR == 1.0e5


# ---------------------------------------------------------------------------
# CLI


def _write_small_inputs(tmp_path: Path):
    net = tmp_path / "net.net"
    net.write_text("node a\nnode b\npipe p a b 1020 0.5\n")
    scn = tmp_path / "scn.scn"
    scn.write_text(
        "theta 0\nt_end 6\ndt 0.375\nmu uniform 0\n"
        "ic S p half_step 60 2\nic R p half_step 60 1.5\n"
    )
    return net, scn


def test_cli_observe_writes_artifacts(tmp_path):
    net, scn = _write_small_inputs(tmp_path)
    out = tmp_path / "out"
    code = run_cli(
        ["observe", "--network", str(net), "--scenario", str(scn), "--out", str(out),
         "--snapshots", "0,3", "--fit-window", "0.5,2.5"]
    )
    assert code == 0
    l0_lines = (out / "l0.csv").read_text().splitlines()
    assert l0_lines[0] == "t,l0"
    assert len(l0_lines) == 18  # header + 17 samples (16 steps)
    assert (out / "l1.csv").exists()
    assert (out / "residuals.csv").read_text().startswith("t,node,residual")
    rates = (out / "rates.txt").read_text()
    assert "finite_time_sync_s = 3.0" in rates
    snaps = sorted((out / "snapshots").iterdir())
    assert [s.name for s in snaps] == ["t_0.csv", "t_3.csv"]
    header = snaps[0].read_text().splitlines()[0]
    assert header == "pipe,x,delta_plus,delta_minus"


def test_cli_observe_bundled_frictionless_sync(tmp_path):
    # full-scale frictionless run through the CLI: rates.txt reports the
    # finite-time synchronization and l0.csv reaches exact zero
    scn_text = bundled_path("step_nofriction.scn").read_text()
    scn = tmp_path / "short.scn"
    scn.write_text(scn_text.replace("t_end 600", "t_end 280"))
    out = tmp_path / "out"
    code = run_cli(
        ["observe", "--network", str(bundled_path("gaslib40_like.net")),
         "--scenario", str(scn), "--out", str(out), "--residual-stride", "0"]
    )
    assert code == 0
    rates = (out / "rates.txt").read_text()
    sync_line = next(l for l in rates.splitlines() if l.startswith("finite_time_sync_s"))
    sync = float(sync_line.split("=")[1])
    assert abs(sync - 86690.0 / 340.0) <= 0.05 * (86690.0 / 340.0)
    tail = (out / "l0.csv").read_text().splitlines()[-1]
    assert tail.endswith(",0.0")


def test_cli_observe_deterministic(tmp_path):
    net, scn = _write_small_inputs(tmp_path)
    outputs = []
    for name in ("out1", "out2"):
        out = tmp_path / name
        assert run_cli(
            ["observe", "--network", str(net), "--scenario", str(scn), "--out", str(out)]
        ) == 0
        outputs.append((out / "l0.csv").read_bytes() + (out / "rates.txt").read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_simulate_writes_state(tmp_path):
    net, scn = _write_small_inputs(tmp_path)
    out = tmp_path / "sim"
    code = run_cli(["simulate", "--network", str(net), "--scenario", str(scn), "--out", str(out)])
    assert code == 0
    lines = (out / "state.csv").read_text().splitlines()
    assert lines[0] == "pipe,x,r_plus,r_minus,pressure_bar,velocity"
    assert len(lines) == 1 + 8  # 8 cells on the single pipe


def test_cli_snapshot_subcommand(tmp_path):
    net, scn = _write_small_inputs(tmp_path)
    out = tmp_path / "snap"
    code = run_cli(
        ["snapshot", "--network", str(net), "--scenario", str(scn), "--out", str(out),
         "--times", "0,1.5"]
    )
    assert code == 0
    assert sorted(p.name for p in (out / "snapshots").iterdir()) == ["t_0.csv", "t_1.5.csv"]


def test_cli_certify_unit_gain(tmp_path):
    net, scn = _write_small_inputs(tmp_path)
    scn.write_text(scn.read_text().replace("mu uniform 0", "mu uniform 1"))
    out = tmp_path / "cert"
    code = run_cli(
        ["certify", "--network", str(net), "--scenario", str(scn), "--out", str(out),
         "--m-tilde", "0.1", "--b-tilde", "0.0"]
    )
    assert code == 0
    cert = (out / "certificate.txt").read_text()
    assert "upsilon0 = 0.0" in cert
    assert "l0_window_factor = 1.0" in cert
    assert "delta_nu_t0 = 1.0" in cert
    assert "not computed (existence only)" in cert


def test_cli_certify_estimates_bounds(tmp_path):
    net, scn = _write_small_inputs(tmp_path)
    out = tmp_path / "cert2"
    code = run_cli(["certify", "--network", str(net), "--scenario", str(scn), "--out", str(out)])
    assert code == 0
    cert = (out / "certificate.txt").read_text()
    assert "estimated from a scenario run" in cert
    assert "h1_holds" in cert


def test_cli_missing_network_file(tmp_path, capsys):
    scn = tmp_path / "s.scn"
    scn.write_text("t_end 1\n")
    code = run_cli(
        ["observe", "--network", str(tmp_path / "nope.net"), "--scenario", str(scn),
         "--out", str(tmp_path / "o")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "nope.net" in err


def test_cli_validation_error_exit_code(tmp_path, capsys):
    net, scn = _write_small_inputs(tmp_path)
    scn.write_text("dt -1\n")
    code = run_cli(["observe", "--network", str(net), "--scenario", str(scn),
                    "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_numerical_error_exit_code(tmp_path, capsys, monkeypatch):
    import gasnetsim.cli as cli_mod
    from gasnetsim.errors import NumericalError

    net, scn = _write_small_inputs(tmp_path)

    def boom(*args, **kwargs):
        raise NumericalError("synthetic blow-up")

    monkeypatch.setattr(cli_mod, "run_observer_pair", boom)
    code = run_cli(["observe", "--network", str(net), "--scenario", str(scn),
                    "--out", str(tmp_path / "o")])
    assert code == 3
    assert "synthetic blow-up" in capsys.readouterr().err


def _blow_up_args(tmp_path: Path):
    # an absurd offtake at node 34 drives the density negative and the state
    # non-finite somewhere away from the first pipe's first cell
    scn = tmp_path / "blowup.scn"
    scn.write_text(
        bundled_path("step_friction.scn").read_text().replace("t_end 600", "t_end 30")
        + "boundary 34 0 1e-300 1e10\n"
    )
    return ["simulate", "--network", str(bundled_path("gaslib40_like.net")),
            "--scenario", str(scn), "--out", str(tmp_path / "out")]


def test_cli_simulate_blow_up_exits_3_without_state(tmp_path, capsys):
    code = run_cli(_blow_up_args(tmp_path))
    assert code == 3
    assert "not finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "state.csv").exists()


def test_cli_blow_up_raises_no_numpy_warning(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(_blow_up_args(tmp_path)) == 3


def test_cli_observe_bad_fit_window_writes_nothing(tmp_path, capsys):
    net, scn = _write_small_inputs(tmp_path)
    out = tmp_path / "out"
    code = run_cli(["observe", "--network", str(net), "--scenario", str(scn),
                    "--out", str(out), "--fit-window", "3,1"])
    assert code == 2
    assert "--fit-window" in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, gasnetsim.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"


def test_run_experiments_script_runs_from_plain_checkout(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = tmp_path / "results"
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_experiments.py"), "--t-end", "5",
         "--families", "step_nofriction", "--mus", "0", "--out", str(out)],
        env=env, cwd=tmp_path, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert (out / "step_nofriction" / "mu_0" / "rates.txt").exists()
