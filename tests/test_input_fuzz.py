"""Network and scenario records built from the README grammar, and certify
bound options, with typical and extreme numbers: every command must end in
exit 0, 2 or 3 and raise nothing."""

import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from gasnetsim.cli import run_cli

# A star of three pipes: boundary nodes 0, 2 and 3, junction 1.  The long
# pipe takes the certificate's exponentials past the float range for bounds
# in the hundreds, as on the bundled network.
NETWORK = "pipe a 0 1 680 0.5\npipe b 1 2 1020 0.6\npipe c 3 1 80000 0.4\n"
EXTREMES = ["0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "1e-308"]
NODES = st.sampled_from(["0", "1", "2", "3", "9"])  # 1 is interior, 9 unknown
PIPES = st.sampled_from(["a", "b", "c", "z"])  # z is unknown


def number(*typical):
    """A typical value or an extreme one, each half of the time."""
    return st.one_of(st.sampled_from(typical), st.sampled_from(EXTREMES))


def record(key, *parts):
    return st.tuples(*(p if isinstance(p, st.SearchStrategy) else st.just(p)
                       for p in parts)).map(lambda vals: " ".join([key, *vals]))


RECORDS = st.one_of(
    record("law", "isothermal"),
    record("law", "isentropic", number("40000"), number("1.4", "2")),
    record("law", "aga", number("115600"), number("-0.005")),
    record("c", number("340", "300")),
    record("rho_ref", number("1", "2")),
    record("theta", number("0", "0.0137")),
    record("rest_pressure", number("60")),
    record("t_end", number("3")),
    record("dt", number("0.25", "0.125")),
    record("mode", st.sampled_from(["exact-advection", "cfl-safe"])),
    record("mu", "uniform", number("0", "0.5")),
    record("mu", "mixed"),
    record("mu", "node", NODES, number("0.5")),
    record("ic", st.sampled_from(["S", "R"]), PIPES, "constant", number("60")),
    record("ic", st.sampled_from(["S", "R"]), PIPES, "half_step", number("60"), number("2")),
    record("ic", st.sampled_from(["S", "R"]), PIPES, "sinusoidal", number("60"), number("1"),
           st.sampled_from(["1", "4", "0", "-1"])),
    record("boundary", st.one_of(NODES, st.just("default")), number("0", "1"), number("59.5"),
           number("41.788", "-4.323")),
)
BOUNDS = st.lists(st.sampled_from(["--m-tilde", "--b-tilde", "--amplitude-bound"]),
                  unique=True).flatmap(
    lambda opts: st.tuples(*(st.tuples(st.just(o), number("0.1", "1", "250", "1e4")).map("=".join)
                             for o in opts)))


def pipe_record(pid, ends, length, diameter):
    """The typical `pipe` record half of the time, else one whose length,
    diameter and, when present, theta are each typical or extreme."""
    theta = st.one_of(st.just([]), number("0", "0.0137").map(lambda t: [t]))
    fuzzed = st.tuples(number(length), number(diameter), theta).map(
        lambda vals: " ".join(["pipe", pid, ends, vals[0], vals[1], *vals[2]]))
    return st.one_of(st.just(f"pipe {pid} {ends} {length} {diameter}"), fuzzed)


# The star of NETWORK, one pipe record at a time typical or fuzzed.
NETWORKS = st.tuples(
    pipe_record("a", "0 1", "680", "0.5"), pipe_record("b", "1 2", "1020", "0.6"),
    pipe_record("c", "3 1", "80000", "0.4"),
).map(lambda lines: "\n".join(lines) + "\n")


def exit_code(command, network, records, bounds=()):
    """The exit code of `command` on `network` and `t_end 3` plus `records`."""
    with tempfile.TemporaryDirectory() as tmp:
        net, scn = Path(tmp, "net.net"), Path(tmp, "run.scn")
        net.write_text(network)
        scn.write_text("\n".join(["t_end 3", *records]) + "\n")  # a few steps unless overridden
        argv = [command, "--network", str(net), "--scenario", str(scn),
                "--out", str(Path(tmp, "out"))]
        if command == "certify":
            argv += bounds
        try:
            return run_cli(argv)
        except SystemExit as exc:  # argparse's usage error
            return exc.code


@settings(max_examples=200)
# Inputs that once ended in a traceback: exponentials past the float range in
# the certificate, c ** 2 past it, and more cells than can be allocated.
@example("certify", [], ["--amplitude-bound=1e4", "--m-tilde=1", "--b-tilde=1"])
@example("certify", [], ["--m-tilde=250", "--b-tilde=1"])
@example("certify", [], ["--m-tilde=1", "--b-tilde=250"])
@example("certify", [], ["--m-tilde=1e308", "--b-tilde=1e308"])
@example("observe", ["c 1e308"], [])
@example("observe", ["t_end 1e-308", "dt 1e-308"], [])
@example("simulate", ["law isentropic 1e-308 1.4", "dt 0.25"], [])
@given(command=st.sampled_from(["observe", "simulate", "certify"]),
       records=st.lists(RECORDS, max_size=6), bounds=BOUNDS)
def test_fuzzed_scenario_and_bounds_exit_0_2_or_3(command, records, bounds):
    assert exit_code(command, NETWORK, records, bounds) in (0, 2, 3)


@settings(max_examples=100)
# Diameters whose square leaves the float range: D^2 underflowed to 0 and the
# boundary control divided by it, or overflowed in the cross section.
@example("simulate", "pipe a n0 n1 340 1e-200\n", [])
@example("observe", "pipe a n0 n1 340 1e200\n", [])
@given(command=st.sampled_from(["observe", "simulate", "certify"]), network=NETWORKS,
       records=st.lists(RECORDS, max_size=2))
def test_fuzzed_network_exit_0_2_or_3(command, network, records):
    assert exit_code(command, network, records) in (0, 2, 3)
