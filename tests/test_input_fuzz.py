"""Network and scenario records built from the README grammar, certify
bound options and the time and stride options, with typical and extreme
numbers: every command must end in exit 0, 2 or 3 and raise nothing, and on
exit 0 write CSV files that any CSV reader splits as their header says."""

import csv
import io
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from gasnetsim.cli import run_cli

# A star of three pipes: boundary nodes 0, 2 and 3, junction 1.  The long
# pipe takes the certificate's exponentials past the float range for bounds
# in the hundreds, as on the bundled network.
NETWORK = "pipe a 0 1 680 0.5\npipe b 1 2 1020 0.6\npipe c 3 1 80000 0.4\n"
EXTREMES = ["0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "1e-308", "5e-324"]
NODES = st.sampled_from(["0", "1", "2", "3", "9"])  # 1 is interior, 9 unknown
PIPES = st.sampled_from(["a", "b", "c", "z"])  # z is unknown
HUGE_F = "1" + "0" * 400  # an integer no float holds


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
           st.sampled_from(["1", "4", "0", "-1", HUGE_F])),
    record("boundary", st.one_of(NODES, st.just("default")), number("0", "1"), number("59.5"),
           number("41.788", "-4.323")),
)
BOUNDS = st.lists(st.sampled_from(["--m-tilde", "--b-tilde", "--amplitude-bound"]),
                  unique=True).flatmap(
    lambda opts: st.tuples(*(st.tuples(st.just(o), number("0.1", "1", "250", "1e4")).map("=".join)
                             for o in opts)))


def pipe_record(pid, ends, length, diameter):
    """The typical `pipe` record half of the time, else one whose length and
    diameter are each typical or extreme, sometimes with a 7th field that the
    grammar does not have (friction is the scenario's `theta`)."""
    theta = st.one_of(st.just([]), number("0", "0.0137").map(lambda t: [t]))
    fuzzed = st.tuples(number(length), number(diameter), theta).map(
        lambda vals: " ".join(["pipe", pid, ends, vals[0], vals[1], *vals[2]]))
    return st.one_of(st.just(f"pipe {pid} {ends} {length} {diameter}"), fuzzed)


# Half of the time an id of characters that a CSV row must not carry bare, or
# that need UTF-8.
def an_id(typical):
    return st.one_of(st.just(typical), st.text(',"é-a', min_size=1, max_size=3))


# The star of NETWORK, one pipe record at a time typical or fuzzed; pipe a
# and its boundary node 0 may be renamed.
NETWORKS = st.tuples(
    pipe_record("a", "0 1", "680", "0.5"), pipe_record("b", "1 2", "1020", "0.6"),
    pipe_record("c", "3 1", "80000", "0.4"), an_id("a"), an_id("0"),
).map(lambda v: "\n".join([v[0].replace("pipe a 0 ", f"pipe {v[3]} {v[4]} ", 1), *v[1:3]])
      + "\n")


def exit_code(command, network, records, options=()):
    """The exit code of `command` with `options` on `network` and `t_end 3`
    plus `records`: 0, 2 or 3.  Exit 2 prints exactly one `error:` line, and
    exits 2 and 3 leave --out empty; on exit 0, every CSV written is UTF-8
    with rows as wide as its header."""
    with tempfile.TemporaryDirectory() as tmp:
        net, scn, out = Path(tmp, "net.net"), Path(tmp, "run.scn"), Path(tmp, "out")
        net.write_text(network, encoding="utf-8")
        scn.write_text("\n".join(["t_end 3", *records]) + "\n")  # a few steps unless overridden
        err = io.StringIO()
        with redirect_stderr(err):
            code = run_cli([command, "--network", str(net), "--scenario", str(scn),
                            "--out", str(out), *options])
        assert code in (0, 2, 3)
        if code == 2:
            assert len(err.getvalue().splitlines()) == 1
            assert err.getvalue().startswith("error: ")
        if code:
            assert not out.exists() or not any(out.iterdir())
        for path in out.rglob("*.csv"):
            with path.open(encoding="utf-8", newline="") as fh:
                header, *rows = csv.reader(fh)
            assert all(len(row) == len(header) for row in rows), path.name
        return code


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
@example("simulate", ["boundary default 0 5e-324 1"], [])  # rho * A underflowed to 0
@example("simulate", [f"ic S a sinusoidal 60 1 {HUGE_F}"], [])  # f * pi overflowed
@given(command=st.sampled_from(["observe", "simulate", "certify"]),
       records=st.lists(RECORDS, max_size=6), bounds=BOUNDS)
def test_fuzzed_scenario_and_bounds_exit_0_2_or_3(command, records, bounds):
    exit_code(command, NETWORK, records, bounds if command == "certify" else ())


@settings(max_examples=100)
# Diameters whose square leaves the float range: D^2 underflowed to 0 and the
# boundary control divided by it, or overflowed in the cross section.
@example("simulate", "pipe a n0 n1 340 1e-200\n", [])
@example("observe", "pipe a n0 n1 340 1e200\n", [])
# A length whose default dt, L / (8 c), underflowed to 0; ids that split a row.
@example("observe", "pipe a n0 n1 5e-324 0.5\n", [])
@example("simulate", 'pipe a,"é 0 1 680 0.5\npipe b 1 2 1020 0.6\n', [])
@example("observe", "pipe é- -,é 1 680 0.5\npipe b 1 2 1020 0.6\n", [])
@given(command=st.sampled_from(["observe", "simulate", "certify"]), network=NETWORKS,
       records=st.lists(RECORDS, max_size=2))
def test_fuzzed_network_exit_0_2_or_3(command, network, records):
    exit_code(command, network, records)


# The time and stride options, in the `=` form: argparse reads a value with a
# leading `-` after a space as an option of its own.  A list of times may hold
# an empty or non-numeric token, or be empty.
TIMES = st.lists(st.one_of(number("0", "1.5", "3"), st.sampled_from(["", "x"])),
                 min_size=1, max_size=3).map(",".join)
OPTIONS = st.one_of(
    st.tuples(st.just("observe"), st.tuples(
        TIMES.map("--snapshots={}".format),
        st.one_of(st.just(""), st.tuples(number("0.5"), number("2.5")).map(",".join), TIMES)
        .map("--fit-window={}".format),
        number("0", "1", "15").map("--residual-stride={}".format))),
    st.tuples(st.just("simulate"), st.tuples(TIMES.map("--snapshots={}".format))),
    st.tuples(st.just("snapshot"), st.tuples(TIMES.map("--times={}".format))),
)


@settings(max_examples=200)
@given(case=OPTIONS)
def test_fuzzed_options_exit_0_2_or_3_with_one_error_line_and_no_output(case):
    command, options = case
    exit_code(command, NETWORK, [], options)


GASLIB_NS = ' xmlns="http://gaslib.zib.de/Gas" xmlns:framework="http://gaslib.zib.de/Framework"'


def xml_child(name, value, unit):
    """`<name value=".." unit=".."/>` without the attributes that are None."""
    return f"<{name}" + "".join(f' {k}="{v}"' for k, v in (("value", value), ("unit", unit))
                                if v is not None) + "/>"


def odd_quantity(typical):
    """One of the units of the `typical` (value, unit) pairs with a value
    that is extreme, non-numeric or missing (None), or one of their values
    with an unknown unit.  A typical value never meets another unit of the
    pairs: 680 km would make a run of minutes."""
    return st.one_of(
        st.tuples(st.sampled_from([*EXTREMES, "x", "", "1,5", None]),
                  st.sampled_from([u for _, u in typical])),
        st.tuples(st.sampled_from([v for v, _ in typical]), st.sampled_from(["ft", "inch"])))


def xml_pipe(pid, ends, length, diameter):
    """A GasLib `<pipe>` between the two `ends`, with or without its id; half
    of the time its length and diameter are typical, given as (m, km) and
    (m, mm) values, each in one of the units that it may have, the unit
    missing (None) for metres."""
    lengths = [(length[0], "m"), (length[1], "km"), (length[0], "meter"), (length[0], None)]
    diameters = [(diameter[0], "m"), (diameter[1], "mm"), (diameter[0], None)]
    quantities = st.one_of(st.tuples(st.sampled_from(lengths), st.sampled_from(diameters)),
                           st.tuples(odd_quantity(lengths), odd_quantity(diameters)))
    from_node, to_node = ends.split()
    return st.tuples(st.sampled_from([f' id="{pid}"', ""]), quantities).map(
        lambda v: f'<pipe{v[0]} from="{from_node}" to="{to_node}">'
                  f'{xml_child("length", *v[1][0])}{xml_child("diameter", *v[1][1])}</pipe>')


# The star of NETWORK as a GasLib document, with or without the namespace,
# sometimes with a connection that is not a plain pipe.
GASLIB_NETWORKS = st.tuples(
    st.sampled_from([GASLIB_NS, ""]),
    xml_pipe("a", "0 1", ("680", "0.68"), ("0.5", "500")),
    xml_pipe("b", "1 2", ("1020", "1.02"), ("0.6", "600")),
    xml_pipe("c", "3 1", ("80000", "80"), ("0.4", "400")),
    st.sampled_from(["", "", '<valve id="v" from="1" to="2"/>',
                     '<compressorStation id="cs" from="3" to="1"/>']),
).map(lambda v: f'<?xml version="1.0"?>\n<network{v[0]}><connections>{"".join(v[1:])}'
      "</connections></network>\n")


@settings(max_examples=100)
@given(network=GASLIB_NETWORKS, records=st.lists(RECORDS, max_size=1))
def test_fuzzed_gaslib_network_exit_0_2_or_3(network, records):
    exit_code("simulate", network, records)
