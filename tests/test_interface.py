import bisect
import json
import math
import os
import struct
import subprocess
import sys
import warnings
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from gasnetsim import fileio
from gasnetsim.errors import ParseError, ScheduleError, ValidationError
from gasnetsim.fileio import (
    BAR,
    BoundaryPoint,
    InitialCondition,
    bundled_path,
    make_boundary_control,
    parse_network,
    parse_network_file,
    parse_scenario,
    parse_scenario_file,
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
    p = {p.id: p for p in g.pipes}["p"]
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


def test_round_trip_preserves_length_and_diameter():
    p = PipeSpec("p", "a", "b", 1000.5, 0.5)
    g = parse_network(f"pipe p a b {p.length!r} {p.diameter!r}")
    assert g.pipes == (p,)


def test_parse_gaslib_subset_units():
    g = parse_network(GASLIB_XML)
    assert len(g.pipes) == 2
    pipes = {p.id: p for p in g.pipes}
    assert pipes["e1"].length == 3068.0  # 3.068 km exactly
    assert pipes["e1"].diameter == 0.4  # 400 mm exactly
    assert pipes["e2"].length == 500.0
    assert pipes["e2"].diameter == 1.0


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
    assert {"12-16", "22-27", "27-28"} <= {p.id for p in g.pipes}


def test_scenario_defaults():
    spec = parse_scenario("")
    assert spec.theta == 0.0137
    assert spec.law == IsothermalLaw(c=340.0)
    assert spec.rest_pressure_bar == 60.0
    assert spec.ic_for("S", "anything").kind == "constant"
    assert spec.ic_for("R", "anything").p_base == 60.0


@pytest.mark.parametrize("law", ["law isothermal", "law isentropic 40000 1.4",
                                 "law aga 115600 -0.005"])
def test_law_reference_records_may_come_before_or_after_the_law(law):
    before = parse_scenario(f"c 300\nrho_ref 2\n{law}\n").law
    assert parse_scenario(f"{law}\nc 300\nrho_ref 2\n").law == before
    assert parse_scenario(f"c 300\n{law}\nrho_ref 2\n").law == before
    assert before.rho_ref == 2.0
    if law == "law isothermal":
        assert before == IsothermalLaw(c=300.0, rho_ref=2.0)


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


@pytest.mark.parametrize("record", [
    "law isothermal 1", "law isentropic 40000 1.4 2", "law aga 115600 -0.005 0",
    "c 340 1", "rho_ref 1 1", "theta 0 1", "rest_pressure 60 61", "t_end 600 700",
    "dt 0.5 1", "mode cfl-safe exact-advection", "mu uniform 0.5 0.9", "mu mixed 1",
    "mu node a 0.5 1", "ic S p constant 60 1", "ic R p half_step 60 2 1",
    "ic S p sinusoidal 60 2 2 1", "boundary default 0 60 1 2", "boundary a 0 60 1 2",
])
def test_scenario_record_with_an_extra_field_is_rejected(record):
    with pytest.raises(ParseError, match=f"^line 2: malformed '{record.split()[0]}' record"):
        parse_scenario(f"theta 0\n{record}\n")
    parse_scenario(f"theta 0\n{record.rsplit(maxsplit=1)[0]}\n")  # the record without it


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
    pipe = PipeSpec("p", "a", "b", 1000.0, 0.5)
    control = make_boundary_control(points, pipe, IsothermalLaw(c=340.0))

    def u_at(p_bar):
        rho = p_bar * BAR / 340.0**2
        return 340.0 * math.log(rho) + 41.788 / (rho * pipe.area)

    for t, p_bar in ((0.0, 59.5), (100.0, 60.5), (200.0, 60.0), (50.0, 60.0)):
        assert control(t) == pytest.approx(u_at(p_bar), rel=1e-14)
    assert control(1e4) == control(200.0)  # the last value is held
    with pytest.raises(ScheduleError):
        control(-1.0)


def _np_interp_control(points, pipe, law):
    # Reference: make_boundary_control's closure in its np.interp form.
    ts, ps, ms = (np.array([getattr(p, k) for p in points]) for k in ("t", "p_bar", "m_kg_s"))

    def control(t):
        p_bar = float(np.interp(t, ts, ps))
        m = float(np.interp(t, ts, ms))
        rho = float(law.density_from_pressure(p_bar * BAR))
        return float(law.rtilde(rho)) + m / (rho * pipe.area)
    return control


def _float_bits(x):
    return struct.pack("<d", x)


@st.composite
def schedules(draw):
    """1-6 breakpoints at strictly increasing times (some before 0), with
    pressures that repeat and mass flows of either sign."""
    n = draw(st.integers(1, 6))
    t0 = draw(st.floats(-50.0, 50.0))
    gaps = draw(st.lists(st.floats(1e-9, 100.0), min_size=n - 1, max_size=n - 1))
    ts = list(accumulate(gaps, initial=t0))
    assume(all(a < b for a, b in zip(ts, ts[1:])))
    pressure = st.one_of(st.sampled_from([59.5, 60.0, 60.5]), st.floats(1.0, 200.0))
    return [BoundaryPoint(t, draw(pressure), draw(st.floats(-1e3, 1e3))) for t in ts]


@given(schedules(), st.lists(st.floats(0.0, 1.0), max_size=5))
def test_boundary_control_equals_its_np_interp_form(points, fractions):
    """Bit for bit at each breakpoint, between two, at and after the last."""
    pipe = PipeSpec("p", "a", "b", 1000.0, 0.5)
    law = IsothermalLaw(c=340.0)
    control = make_boundary_control(points, pipe, law)
    reference = _np_interp_control(points, pipe, law)
    ts = [p.t for p in points]
    times = [0.0, *ts, *((a + b) / 2.0 for a, b in zip(ts, ts[1:])),
             *(ts[0] + f * (ts[-1] - ts[0]) for f in fractions), ts[-1] + 1.0,
             2.0 * abs(ts[-1]) + 1e6, *(math.nextafter(t, math.inf) for t in ts),
             *(math.nextafter(t, -math.inf) for t in ts)]
    for t in times:
        if t >= 0:
            assert _float_bits(control(t)) == _float_bits(reference(t)), t


@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=6, unique=True),
       st.lists(st.floats(allow_nan=False), min_size=6, max_size=6),
       st.one_of(st.floats(), st.sampled_from([0.5, 1.0])))
# each branch of np.interp that random draws seldom reach:
@example([0.0, 10.0], [1.0, 2.0], math.nan)  # t NaN: NaN
@example([0.0], [1.0], math.nan)  # t NaN at one breakpoint: its value
@example([0.0, 5e-324], [0.0, 1.0], 0.0)  # at a breakpoint, with an infinite slope
@example([-1.7e308, 1.7e308], [0.0, 1.0], 1e308)  # 0 * inf: the form from the right end
@example([0.0, 1.0], [math.inf, math.inf], 0.5)  # both forms NaN, equal values: the value
def test_schedule_interpolation_is_np_interp(ts, fs, t):
    """`fileio._interp` after one bisection is np.interp, bit for bit, for any
    strictly increasing times, values and t, NaN and infinities included."""
    ts, fs = tuple(sorted(ts)), tuple(fs[:len(ts)])
    assume(all(a < b for a, b in zip(ts, ts[1:])))
    with np.errstate(all="ignore"):
        want = float(np.interp(t, ts, fs))
    got = fileio._interp(t, ts, fs, bisect.bisect_right(ts, t) - 1)
    assert _float_bits(got) == _float_bits(want)


def test_boundary_invariant_conversion():
    pipe = PipeSpec("p", "a", "b", 1000.0, 0.5)
    law = IsothermalLaw(c=340.0)
    points = (BoundaryPoint(0.0, 60.0, 41.788),)
    u = make_boundary_control(points, pipe, law)(0.0)
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


# Three pipes on one node, the first with a diameter whose L0 weight is
# finite but whose L0 term overflows: every cell stays finite.
OVERFLOW_NET = "pipe a n0 n1 340 5e152\npipe b n1 n2 680 0.4\npipe c n1 n3 340 0.3\n"
OVERFLOW_SCN = ("theta 0.02\nt_end 6\ndt 0.5\nmu uniform 0.5\n"
                "ic S a half_step 60 2\nic R a half_step 60 1\n")


@pytest.mark.parametrize("command", [["observe"], ["certify"], ["snapshot", "--times", "0"]])
def test_l0_overflow_with_finite_cells_names_the_pipe_of_the_term(tmp_path, capsys, command):
    net, scn = tmp_path / "net.net", tmp_path / "scn.scn"
    net.write_text(OVERFLOW_NET)
    scn.write_text(OVERFLOW_SCN)
    out = tmp_path / "out"
    code = run_cli([*command, "--network", str(net), "--scenario", str(scn), "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == ("numerical error: L0 overflowed at t=0.0 in the term of "
                                       "pipe a, with every cell of both systems finite\n")
    assert not out.exists()


@pytest.mark.parametrize("command", [["observe"], ["certify"], ["snapshot", "--times", "0"]])
@pytest.mark.parametrize("system", ["truth", "observer"])
def test_blow_up_names_the_system_and_pipe_of_the_first_bad_cell(tmp_path, capsys, monkeypatch,
                                                                  command, system):
    import gasnetsim.run as run_mod

    net, scn = tmp_path / "net.net", tmp_path / "scn.scn"
    net.write_text("pipe a n0 n1 340 0.5\npipe q n1 n2 680 0.4\npipe r n1 n3 340 0.3\n")
    scn.write_text(OVERFLOW_SCN)
    real = run_mod.step_coupled

    def step_then_spoil(cs, graph, **kwargs):
        # from t = 1.5 on, R- of pipe q's third cell and R+ of pipe r's
        # first cell in one system are not finite
        cs, traces = real(cs, graph, **kwargs)
        if cs.t >= 1.5:
            state = cs.r_state if system == "observer" else cs.s_state
            state.grids["r"].r_plus[0] = math.inf
            state.grids["q"].r_minus[2] = math.nan
        return cs, traces

    monkeypatch.setattr(run_mod, "step_coupled", step_then_spoil)
    out = tmp_path / "out"
    code = run_cli([*command, "--network", str(net), "--scenario", str(scn), "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == (f"numerical error: simulation blew up: pipe q of the "
                                       f"{system} system is not finite at t=1.5\n")
    assert not out.exists()


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


@pytest.mark.parametrize("snapshots", [[], ["--snapshots", "0"], ["--snapshots", "0,3"]])
def test_simulate_names_the_step_of_the_blow_up(tmp_path, capsys, snapshots):
    # The node map at n1 forms sum D^2 R before it scales, which overflows at
    # pipe a's diameter: the truth is not finite from the first step on,
    # while the run checks it at the snapshots and at the end only.  (A node
    # map that weights by D^2 / sum D^2 would not overflow here; this case
    # then needs another blow-up.)
    net, scn = tmp_path / "net.net", tmp_path / "scn.scn"
    net.write_text(OVERFLOW_NET)
    scn.write_text(OVERFLOW_SCN)
    out = tmp_path / "out"
    code = run_cli(["simulate", "--network", str(net), "--scenario", str(scn),
                    "--out", str(out), *snapshots])
    assert code == 3
    assert capsys.readouterr().err == ("numerical error: simulation blew up: pipe a is not "
                                       "finite at t=0.5\n")
    assert not out.exists()


def test_cli_observe_bad_fit_window_writes_nothing(tmp_path, capsys):
    net, scn = _write_small_inputs(tmp_path)
    out = tmp_path / "out"
    code = run_cli(["observe", "--network", str(net), "--scenario", str(scn),
                    "--out", str(out), "--fit-window", "3,1"])
    assert code == 2
    assert "--fit-window" in capsys.readouterr().err
    assert not out.exists()


def _assert_rejected(code, capsys, out):
    """Exit 2, exactly one `error:` line on stderr (returned) and no output
    directory."""
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()
    return err[0]


@pytest.mark.parametrize(
    "command, extra",
    [
        ("observe", ["--snapshots", "1,,2"]),
        ("observe", ["--fit-window", "a,b"]),
        ("snapshot", ["--times", "x"]),
        ("simulate", ["--snapshots", "1,,2"]),
        ("observe", ["--snapshots", "nan"]),
        ("simulate", ["--snapshots", "nan"]),
        ("observe", ["--snapshots", "inf"]),
        ("simulate", ["--snapshots", "0,-inf"]),
        ("observe", ["--residual-stride", "-3"]),
        ("certify", ["--amplitude-bound", "nan"]),
        ("certify", ["--m-tilde", "inf", "--b-tilde", "1"]),
        ("certify", ["--m-tilde", "0.5"]),
        ("certify", ["--b-tilde", "0.5"]),
    ],
)
def test_cli_bad_option_exits_2_and_writes_nothing(tmp_path, capsys, command, extra):
    net, scn = _write_small_inputs(tmp_path)
    out = tmp_path / "out"
    code = run_cli([command, "--network", str(net), "--scenario", str(scn), "--out", str(out),
                    *extra])
    _assert_rejected(code, capsys, out)


@pytest.mark.parametrize(
    "which, old, new, command",
    [
        ("step_friction.scn", "theta 0.0137", "theta nan", ["observe"]),
        ("step_friction.scn", "theta 0.0137", "theta inf", ["observe"]),
        ("gaslib40_like.net", "pipe 0-3   0  3  16000.0 1.0", "pipe 0-3   0  3  1e400 1.0",
         ["observe"]),
        ("gaslib40_like.net", "pipe 0-3   0  3  16000.0 1.0", "pipe 0-3   0  3  16000.0 inf",
         ["observe"]),
        ("gaslib40_like.net", "pipe 3-4   3  4  12500.0 1.0",
         "pipe 3-4   3  4  12500.0 1.0 nan", ["simulate"]),
        ("step_friction.scn", "t_end 600", "t_end inf", ["observe"]),
        ("step_friction.scn", "boundary 0 200 60", "boundary 0 inf 60", ["simulate"]),
        ("step_friction.scn", "mu uniform 0", "mu uniform nan",
         ["certify", "--m-tilde", "0.5", "--b-tilde", "0.1"]),
    ],
    ids=["theta-nan", "theta-inf", "length-1e400", "diameter-inf", "pipe-theta-nan",
         "t_end-inf", "breakpoint-time-inf", "mu-nan"],
)
def test_cli_non_finite_input_exits_2_and_writes_nothing(tmp_path, capsys, which, old, new,
                                                         command):
    paths = {}
    for name in ("gaslib40_like.net", "step_friction.scn"):
        text = bundled_path(name).read_text()
        if name == which:
            assert old in text
            text = text.replace(old, new)
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    out = tmp_path / "out"
    code = run_cli([command[0], "--network", str(paths["gaslib40_like.net"]),
                    "--scenario", str(paths["step_friction.scn"]), "--out", str(out),
                    *command[1:]])
    _assert_rejected(code, capsys, out)


GASLIB_ONE_PIPE = ('<network><pipe id="{}" from="n1" to="n2"><length value="340"/>'
                   '<diameter value="0.5"/></pipe></network>')


@pytest.mark.parametrize("network, records, message", [
    ("pipe a,b n0 n1 340 0.5", "", "line 1: pipe 'a,b'"),
    ("pipe c n1 x,y 340 0.5", "", "'x,y'"),
    ('pipe "q" n0 n1 340 0.5', "", "'\"q\"'"),
    (GASLIB_ONE_PIPE.format("a&#10;b"), "", "<pipe id='a\\nb'>"),
    # D^2 is finite, but the L0 weight D^2 dx / 2 is not
    ("pipe a n0 n1 340 1e154", "", "L0 weight"),
    # the default dt, length / (8 c), underflows to 0
    ("pipe a n0 n1 5e-324 0.5", "", "dt = 0.0 s"),
    # rho * A underflows to 0 and the control would divide by it
    ("pipe a n0 n1 340 0.5", "boundary default 0 5e-324 1\n", "5e-324 bar"),
    # `boundary default` is the fallback, never the schedule of a node so named
    ("pipe a default n1 340 0.5", "boundary default 0 61 0\n", "boundary node 'default'"),
    # friction is the scenario's `theta`, never a field of the pipe record
    ("pipe a n0 n1 340 0.5 0.0137", "", "line 1: pipe record needs 'pipe <id> <from> <to> "
     "<length_m> <diameter_m>'; friction is the scenario's 'theta'"),
    # initial pressures that leave the float range: f pi x, p_base + h, bar to Pa
    ("pipe a n0 n1 340 0.5", f"ic S a sinusoidal 60 1 1{'0' * 307}\n",
     "pipe 'a': ic S sinusoidal (p_base 60.0 bar, h 1.0 bar, f 1e+307) is not finite"),
    ("pipe a n0 n1 340 0.5", "ic R a half_step 1e308 1e308\n", "pipe 'a': ic R half_step"),
    ("pipe a n0 n1 340 0.5", "ic S a constant 1e304\n", "pipe 'a': ic S constant"),
    ("pipe a n0 n1 340 0.5", "rest_pressure 1e304\n", "pipe 'a': rest_pressure (p_base 1e+304"),
    # initial pressures that the law refuses
    ("pipe a n0 n1 340 0.5", "ic S a half_step 60 -70\n",
     "pipe 'a': ic S half_step (p_base 60.0 bar, h -70.0 bar, f 0): isothermal density needs "
     "positive pressure"),
    ("pipe a n0 n1 340 0.5", "ic R a constant -1\n", "pipe 'a': ic R constant (p_base -1.0"),
    ("pipe a n0 n1 340 0.5", "law aga 1e5 -0.01\nic S a constant 200\n",
     "pipe 'a': ic S constant (p_base 200.0 bar, h 0.0 bar, f 0): pressure outside the AGA "
     "admissible range"),
    # boundary pressures that the law refuses, found before the first step
    ("pipe a n0 n1 340 0.5", "law aga 1e5 -0.01\nboundary n0 0 60 0\nboundary n0 2 200 0\n",
     "boundary pressure 200.0 bar at pipe 'a': pressure outside the AGA admissible range"),
    ("pipe a n0 n1 340 0.5", "law aga 1e5 -0.01\nrest_pressure 200\n",
     "boundary pressure 200.0 bar at pipe 'a': pressure outside the AGA admissible range"),
    ("pipe a n0 n1 340 0.5", "boundary n0 0 60 0\nboundary n0 0 61 0\n",
     "boundary n0: schedule breakpoints must be strictly increasing, got [0.0, 0.0]"),
], ids=["comma-pipe-id", "comma-node-id", "quoted-pipe-id", "gaslib-newline-id",
        "weight-overflows", "default-dt-underflows", "density-underflows",
        "node-named-default", "pipe-friction-field", "ic-sine-overflows",
        "ic-step-overflows", "ic-pa-overflows", "rest-pressure-pa-overflows",
        "ic-step-negative", "ic-negative", "ic-beyond-aga", "boundary-beyond-aga",
        "rest-pressure-beyond-aga", "boundary-times-repeat"])
@pytest.mark.parametrize("command", ["simulate", "observe", "certify"])
def test_cli_unusable_network_or_boundary_exits_2_and_writes_nothing(tmp_path, capsys, command,
                                                                      network, records,
                                                                      message):
    net, scn = tmp_path / "net.net", tmp_path / "run.scn"
    net.write_text(network + "\n")
    scn.write_text("t_end 3\n" + records)
    out = tmp_path / "out"
    code = run_cli([command, "--network", str(net), "--scenario", str(scn), "--out", str(out)])
    assert message in _assert_rejected(code, capsys, out)


@pytest.mark.parametrize("argv, message", [
    ("observe --network {net} --scenario {scn} --out {out} --residual-stride=1.5",
     "error: argument --residual-stride: invalid int value: '1.5'"),
    ("certify --network {net} --scenario {scn} --out {out} --m-tilde=x",
     "error: argument --m-tilde: invalid float value: 'x'"),
    ("simulate --network {net} --out {out}",
     "error: the following arguments are required: --scenario"),
    ("", "error: the following arguments are required: command"),
], ids=["stride-not-int", "m-tilde-not-float", "no-scenario", "no-command"])
def test_cli_option_errors_exit_2_with_one_error_line(tmp_path, capsys, argv, message):
    net, scn = _write_small_inputs(tmp_path)
    out = tmp_path / "out"
    code = run_cli(argv.format(net=net, scn=scn, out=out).split())
    assert _assert_rejected(code, capsys, out) == message


def test_cli_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["observe", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gasnetsim observe")


@pytest.mark.parametrize("bounds, inf_lines", [
    (["--amplitude-bound", "22", "--m-tilde", "0.1", "--b-tilde", "0.1"], ["gronwall_factor"]),
    (["--m-tilde", "250", "--b-tilde", "1"], ["c0", "c1"]),
    (["--m-tilde", "10", "--b-tilde", "120"], ["delta_nu_t0", "h1_condition_lhs"]),
    (["--m-tilde", "1e308", "--b-tilde", "1e308"], ["c0", "c1", "delta_nu_t0"]),
], ids=["gronwall", "c0", "delta", "upsilon"])
def test_certify_constants_beyond_the_float_range_are_inf(tmp_path, bounds, inf_lines):
    out = tmp_path / "out"
    code = run_cli(["certify", "--network", str(bundled_path("gaslib40_like.net")),
                    "--scenario", str(bundled_path("step_friction.scn")), "--out", str(out),
                    *bounds])
    assert code == 0
    lines = (out / "certificate.txt").read_text().splitlines()
    assert not [line for line in lines if "nan" in line]
    for name in inf_lines:
        assert f"{name} = inf" in lines


def test_certify_zero_bounds_with_friction_beyond_the_float_range_write_no_nan(tmp_path):
    net = tmp_path / "star.net"
    net.write_text("pipe a 0 1 680 0.5\npipe b 1 2 1020 0.6\npipe c 3 1 80000 0.4\n")
    scn = tmp_path / "run.scn"
    scn.write_text("theta 1e308\nt_end 30\ndt 0.25\n")
    out = tmp_path / "out"
    assert run_cli(["certify", "--network", str(net), "--scenario", str(scn), "--out", str(out),
                    "--m-tilde", "0", "--b-tilde", "0"]) == 0
    lines = (out / "certificate.txt").read_text().splitlines()
    assert not [line for line in lines if "nan" in line]
    for line in ("c0 = 1360.0", "c1 = 2040.0", "delta_nu_t0 = 1.0", "h1_condition_lhs = inf"):
        assert line in lines


@pytest.mark.parametrize("record, message", [
    ("c 1e300", "pressure law is not strictly increasing on the sampled range"),
    ("c 1e-300", "pressure law is not strictly increasing on the sampled range"),
    ("law isentropic 1 0.9", "isentropic law needs a > 0 and gamma > 1"),
    ("law aga 115600 0.5", "AGA law needs alpha <= 0"),
    ("law adiabatic", "line 1: unknown pressure law 'adiabatic'"),
])
def test_cli_bad_pressure_law_exits_2_and_writes_nothing(tmp_path, capsys, record, message):
    net, scn = _write_small_inputs(tmp_path)
    scn.write_text(f"{record}\n{scn.read_text()}")
    out = tmp_path / "out"
    code = run_cli(["observe", "--network", str(net), "--scenario", str(scn), "--out", str(out)])
    assert _assert_rejected(code, capsys, out) == f"error: {message}"


@pytest.mark.parametrize("command", ["observe", "simulate"])
def test_boundary_schedule_for_a_node_that_is_not_degree_1_is_rejected(tmp_path, capsys,
                                                                      command):
    # node 5 is interior and there is no node 99: neither schedule has a pipe end to drive
    scn = tmp_path / "run.scn"
    scn.write_text(bundled_path("step_friction.scn").read_text().replace("t_end 600", "t_end 30")
                   + "boundary 5 0 10 500\nboundary 99 0 10 500\n")
    out = tmp_path / "out"
    code = run_cli([command, "--network", str(bundled_path("gaslib40_like.net")),
                    "--scenario", str(scn), "--out", str(out)])
    assert "['5', '99']" in _assert_rejected(code, capsys, out)


def _refused_inputs(tmp_path: Path, case: str):
    """(argv, out, the file at or above --out or None) for one input that
    every command refuses: a file it cannot read, an --out it cannot make,
    or a scenario that does not fit the network."""
    net, scn = _write_small_inputs(tmp_path)
    out, blocker = tmp_path / "out", None
    command = ["simulate"]
    if case == "network-is-a-directory":
        net = tmp_path
    elif case == "scenario-not-utf8":
        scn.write_bytes(scn.read_bytes() + b"\xff\n")
    elif case == "out-is-a-file":
        out = blocker = tmp_path / "out.txt"
        out.write_text("keep me\n")
    elif case == "out-below-a-file":
        blocker, out = net, net / "x"
    else:  # a schedule for an interior and an unknown node, under supplied bounds
        net = bundled_path("gaslib40_like.net")
        scn.write_text(bundled_path("step_friction.scn").read_text().replace("t_end 600",
                                                                              "t_end 30")
                       + "boundary 5 0 10 500\nboundary 99 0 10 500\n")
        command = ["certify", "--m-tilde", "0.5", "--b-tilde", "0.1"]
    return ([command[0], "--network", str(net), "--scenario", str(scn), "--out", str(out),
             *command[1:]], out, blocker)


@pytest.mark.parametrize("case", ["network-is-a-directory", "scenario-not-utf8",
                                  "out-is-a-file", "out-below-a-file",
                                  "certify-supplied-bounds-bad-schedule"])
def test_cli_refused_input_exits_2_with_one_error_line(tmp_path, capsys, case):
    argv, out, blocker = _refused_inputs(tmp_path, case)
    before = blocker.read_bytes() if blocker else None
    code = run_cli(argv)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    if blocker is None:
        assert not out.exists()
    else:
        assert blocker.read_bytes() == before and not out.is_dir()


def test_certify_checks_amplitude_bound_before_the_run(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("run_observer_pair called before --amplitude-bound was checked")

    monkeypatch.setattr("gasnetsim.cli.run_observer_pair", no_run)
    out = tmp_path / "out"
    code = run_cli(["certify", "--network", str(bundled_path("gaslib40_like.net")),
                    "--scenario", str(bundled_path("step_friction.scn")), "--out", str(out),
                    "--amplitude-bound", "nan"])
    assert "amplitude bound" in _assert_rejected(code, capsys, out)


def test_cli_snapshot_beyond_horizon_lands_on_last_step(tmp_path):
    net, scn = _write_small_inputs(tmp_path)
    out = tmp_path / "out"
    code = run_cli(["simulate", "--network", str(net), "--scenario", str(scn),
                    "--out", str(out), "--snapshots", "1e308"])
    assert code == 0
    assert [p.name for p in (out / "snapshots").iterdir()] == ["t_6.csv"]


@pytest.mark.parametrize("command, extra, dt", [
    pytest.param("observe", [], "0.375", id="observe-extra0"),
    pytest.param("snapshot", ["--times", "1"], "0.375", id="snapshot-extra1"),
    pytest.param("certify", [], "0.375", id="certify-extra2"),
    pytest.param("simulate", [], "0.375", id="simulate-extra3"),
    # t_end / dt overflows a float: even simulate, which records no series, stops
    pytest.param("observe", [], "1e-10", id="observe-overflow"),
    pytest.param("simulate", [], "1e-10", id="simulate-overflow"),
    pytest.param("snapshot", ["--times", "1"], "1e-10", id="snapshot-overflow"),
    pytest.param("certify", [], "1e-10", id="certify-overflow"),
])
def test_cli_enormous_horizon_exits_2_and_writes_nothing(tmp_path, capsys, command, extra, dt):
    # finite, so the scenario parser accepts it, but no per-step series fits
    net, scn = _write_small_inputs(tmp_path)
    scn.write_text(scn.read_text().replace("t_end 6", "t_end 1e300").replace("0.375", dt))
    out = tmp_path / "out"
    argv = [command, "--network", str(net), "--scenario", str(scn), "--out", str(out), *extra]
    if command == "simulate":
        # A simulate that steps for ever must not hang the suite: own process, time limit.
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run([sys.executable, "-m", "gasnetsim.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        print(done.stderr, file=sys.stderr, end="")
        code = done.returncode
    else:
        code = run_cli(argv)
    err = _assert_rejected(code, capsys, out)
    assert "t_end = 1e+300 s" in err and f"dt = {dt} s" in err and "steps" in err


@pytest.mark.parametrize("command, option", [
    ("observe", "--snapshots"),
    ("simulate", "--snapshots"),
    ("snapshot", "--times"),
])
def test_cli_snapshot_times_sharing_a_file_are_rejected(tmp_path, capsys, command, option):
    # steps 209,875 and 209,876 lie 0.59 s apart and both format as t_123456
    net = tmp_path / "net.net"
    net.write_text("node a\nnode b\npipe p a b 1020 0.5\n")
    scn = tmp_path / "scn.scn"
    scn.write_text("theta 0\nt_end 123457\ndt 0.5882352941176471\nmu uniform 0\n")
    out = tmp_path / "out"
    code = run_cli([command, "--network", str(net), "--scenario", str(scn), "--out", str(out),
                    option, "0,123456.1,123456.7"])
    err = _assert_rejected(code, capsys, out)
    assert "123456.1" in err and "123456.7" in err and "t_123456.csv" in err


STATE_LAWS = {
    "isothermal": "law isothermal\n",
    "isentropic": "law isentropic 40000 1.4\n",
    "aga": "law aga 115600 -0.005\n",
}


def _simulate_with_state(tmp_path, monkeypatch, law_line, fields):
    """Run `simulate` with run_truth replaced by a state whose pipes carry
    `fields` = {pipe: (r_plus, r_minus)}; returns the exit code and out dir."""
    import gasnetsim.cli as cli_mod
    from gasnetsim.diagnostics import SnapshotFrame
    from gasnetsim.network import NetworkGraph, PipeSpec
    from gasnetsim.solver import EdgeGrid, Layout, SimState

    grids = {pid: EdgeGrid(pid, len(rp), 170.0, 1.0, rp, rm) for pid, (rp, rm) in fields.items()}
    graph = NetworkGraph([PipeSpec(pid, f"n{i}", f"n{i + 1}", 170.0 * g.n_cells, 0.5)
                          for i, (pid, g) in enumerate(grids.items())])
    final = SnapshotFrame.from_state(SimState(grids, 0.5), Layout.of(grids, graph))
    monkeypatch.setattr(cli_mod, "run_truth", lambda *a, **k: (final, []))
    net, scn = _write_small_inputs(tmp_path)
    scn.write_text(law_line + scn.read_text())
    out = tmp_path / "out"
    code = run_cli(["simulate", "--network", str(net), "--scenario", str(scn), "--out", str(out)])
    return code, out


@pytest.mark.parametrize("law_name", sorted(STATE_LAWS))
def test_state_csv_equals_per_cell_reference(tmp_path, monkeypatch, law_name):
    from gasnetsim.physics import pressure_from_riemann

    law = parse_scenario(STATE_LAWS[law_name]).law
    rng = np.random.default_rng(17)
    fields = {}
    for pid, n in (("p", 400), ("q", 300)):
        rt = law.rtilde(rng.uniform(20.0, 80.0, n))
        v = rng.uniform(-10.0, 10.0, n)
        fields[pid] = (rt + v, rt - v)
    code, out = _simulate_with_state(tmp_path, monkeypatch, STATE_LAWS[law_name], fields)
    assert code == 0
    expected = ["pipe,x,r_plus,r_minus,pressure_bar,velocity"]
    for pid, (rp, rm) in fields.items():
        for i in range(len(rp)):
            a, b = float(rp[i]), float(rm[i])
            cells = [(i + 0.5) * 170.0, a, b, pressure_from_riemann(law, a, b) / BAR, (a - b) / 2.0]
            expected.append(",".join([pid, *(repr(float(c)) for c in cells)]))
    assert (out / "state.csv").read_text().splitlines() == expected


@pytest.mark.parametrize("law_name, midpoint", [("isentropic", -2000.0), ("aga", 2000.0)])
def test_state_csv_domain_error_is_one_line(tmp_path, capsys, monkeypatch, law_name, midpoint):
    rp = np.full(50, 100.0)
    rp[7] = midpoint
    code, out = _simulate_with_state(tmp_path, monkeypatch, STATE_LAWS[law_name],
                                     {"p": (rp, rp)})
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and repr(midpoint) in err[0]
    assert not out.exists()


def test_series_and_snapshot_files_equal_per_value_repr(tmp_path):
    from dataclasses import replace

    from gasnetsim.cli import _write_series_csv, _write_snapshots
    from gasnetsim.diagnostics import SnapshotFrame
    from gasnetsim.network import NetworkGraph
    from gasnetsim.solver import Layout, build_grids

    rng = np.random.default_rng(3)
    vals = rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40)
    vals[:4] = [0.0, -0.0, 5e-324, -1.7976931348623157e308]
    rows = [(0.25 * i, "n7", x) for i, x in enumerate(vals)]  # x is numpy float64
    _write_series_csv(tmp_path / "series.csv", "t,node,residual", rows)
    expected = ["t,node,residual"] + [f"{repr(0.25 * i)},n7,{repr(float(x))}"
                                      for i, x in enumerate(vals)]
    assert (tmp_path / "series.csv").read_text().splitlines() == expected

    x = {"p": rng.uniform(0.0, 1e3, 30), "q": rng.uniform(0.0, 1e3, 20)}
    dp = {pid: vals[: len(xs)] for pid, xs in x.items()}
    dm = {pid: -vals[-len(xs):] for pid, xs in x.items()}
    graph = NetworkGraph([PipeSpec("p", "n0", "n1", 30.0, 1.0), PipeSpec("q", "n1", "n2", 20.0, 1.0)])
    layout = replace(Layout.of(build_grids(graph, 1.0, 1.0), graph),  # 30 and 20 cells
                     x=np.concatenate(list(x.values())))
    assert layout.spans == (slice(0, 30), slice(30, 50))
    frame = SnapshotFrame(12.5, layout, np.concatenate(list(dp.values())),
                          np.concatenate(list(dm.values())))
    _write_snapshots(tmp_path, [frame], cols=("r_plus", "r_minus"))
    expected = ["pipe,x,r_plus,r_minus"] + [
        f"{pid},{repr(float(x[pid][i]))},{repr(float(dp[pid][i]))},{repr(float(dm[pid][i]))}"
        for pid in x for i in range(len(x[pid]))
    ]
    assert (tmp_path / "snapshots" / "t_12.5.csv").read_text().splitlines() == expected


# Two pipes whose pipe and node ids are not ASCII, run by every command.
LOCALE_NET = "pipe é nœud0 nœud1 340 0.5\npipe ü nœud1 Ω 510 0.6\n"
LOCALE_RUNS = {"observe": [], "simulate": ["--snapshots", "0,3"],
               "snapshot": ["--times", "0,1.5"], "certify": []}


def test_outputs_are_the_same_utf8_bytes_under_the_c_locale(tmp_path):
    net, scn = tmp_path / "net.net", tmp_path / "run.scn"
    net.write_text(LOCALE_NET, encoding="utf-8")
    scn.write_text("t_end 3\nmu uniform 0.5\nic R é half_step 60 1\n", encoding="utf-8")

    def argvs(root):
        return [[cmd, "--network", str(net), "--scenario", str(scn), "--out",
                 str(root / cmd), *extra] for cmd, extra in LOCALE_RUNS.items()]

    assert [run_cli(argv) for argv in argvs(tmp_path / "here")] == [0, 0, 0, 0]
    script = ("import json, sys\nfrom gasnetsim.cli import run_cli\n"
              "print(json.dumps([run_cli(a) for a in json.loads(sys.argv[1])]))")
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs(tmp_path / "c"))],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [0, 0, 0, 0], done.stderr

    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
                if p.is_file()}

    here, c_locale = files(tmp_path / "here"), files(tmp_path / "c")
    assert len(here) == 13 and c_locale == here
    assert "é,".encode() in here[Path("simulate", "state.csv")]


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, gasnetsim.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"


def test_cli_import_leaves_the_xml_parser_unloaded():
    """Only a GasLib read imports xml.etree.ElementTree: no bundled input is XML."""
    code = ("import sys, gasnetsim.cli, gasnetsim.fileio as f\n"
            "print('xml.etree.ElementTree' in sys.modules)\n"
            "f.parse_network(\"<network><pipe from='a' to='b'><length value='1'/>"
            "<diameter value='0.5'/></pipe></network>\")\n"
            "print('xml.etree.ElementTree' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == ["False", "True"]


def _run_experiments(tmp_path, *args):
    """The sweep script in a subprocess without PYTHONPATH, as from a plain checkout."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_experiments.py"), *args,
         "--out", str(tmp_path / "results")],
        env=env, cwd=tmp_path, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_run_experiments_script_runs_from_plain_checkout(tmp_path):
    lines = _run_experiments(tmp_path, "--t-end", "5", "--families", "step_nofriction",
                             "--mus", "0")
    assert (tmp_path / "results" / "step_nofriction" / "mu_0" / "rates.txt").exists()
    # too short to fit a rate or to sync: no unit after either word
    summary = lines[0].split()
    assert summary[:2] == ["step_nofriction", "mu=0"]
    assert summary[2:5] == ["rate=", "n/a", "sync="]
    assert summary[5] == "none"


def test_run_experiments_writes_what_observe_writes(tmp_path):
    _run_experiments(tmp_path, "--t-end", "30", "--families", "step_nofriction", "--mus", "0.5")
    text = bundled_path("step_nofriction.scn").read_text(encoding="utf-8")
    for old, new in (("t_end 600", "t_end 30"), ("mu uniform 0", "mu uniform 0.5")):
        assert old in text
        text = text.replace(old, new)
    scn = tmp_path / "run.scn"
    scn.write_text(text, encoding="utf-8")
    out = tmp_path / "observe"
    assert run_cli(["observe", "--network", str(bundled_path("gaslib40_like.net")),
                    "--scenario", str(scn), "--out", str(out), "--snapshots", "0,90,180",
                    "--residual-stride", "0"]) == 0
    swept = tmp_path / "results" / "step_nofriction" / "mu_0.5"
    files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(swept) for p in swept.rglob("*") if p.is_file())
    assert files and all((out / f).read_bytes() == (swept / f).read_bytes() for f in files)
