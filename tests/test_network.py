import copy
import json
import math
import operator
import pickle
import random
import subprocess
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gasnetsim.bounds import upsilon0
from gasnetsim.diagnostics import nodal_energy_residual
from gasnetsim.errors import ValidationError
from gasnetsim.network import NetworkGraph, NodeDiameters, PipeSpec, junction_outflow, omega_v
from gasnetsim.observer import diff_junction_outflow, observer_node_update


def test_pipe_spec_validation():
    with pytest.raises(ValidationError):
        PipeSpec("p", "a", "a", 10.0, 0.5)
    with pytest.raises(ValidationError):
        PipeSpec("p", "a", "b", -1.0, 0.5)
    with pytest.raises(ValidationError):
        PipeSpec("p", "a", "b", 10.0, 0.0)
    with pytest.raises(ValidationError):
        PipeSpec("p", "a", "b", 10.0, 0.5, theta=-0.1)
    # an id that an output CSV row cannot carry as one bare field
    for ids in [("", "a", "b"), ("p", "a,b", "c"), ('"p"', "a", "b"), ("p", "a", "b\rc"),
                ("p\nq", "a", "b")]:
        with pytest.raises(ValidationError, match="id must be nonempty"):
            PipeSpec(*ids, 10.0, 0.5)
    PipeSpec("é-1", "nœud 0", "b;c'", 10.0, 0.5)  # anything else is an id


def test_nu_is_quarter_theta():
    p = PipeSpec("p", "a", "b", 10.0, 0.5, theta=0.0137)
    assert p.nu == 0.0137 / 4.0


def test_omega_values():
    assert omega_v([1.0, 1.0, 1.0]) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert omega_v([0.5]) == 8.0
    # diameters within the benchmark range
    assert omega_v([0.4, 1.0]) == pytest.approx(2.0 / 1.16, rel=1e-13)
    with pytest.raises(ValidationError):
        omega_v([])
    with pytest.raises(ValidationError):
        omega_v([0.5, -0.1])


def test_omega_from_graph_diameters(five_pipe):
    assert omega_v(five_pipe.diameters_at("n2").values()) == pytest.approx(
        2.0 / (0.6**2 + 0.5**2 + 0.8**2), rel=1e-15
    )
    assert omega_v(five_pipe.diameters_at("n4").values()) == pytest.approx(2.0 / 0.25, rel=1e-15)


def test_junction_two_equal_pipes_swap():
    out = junction_outflow({"a": 0.3, "b": -1.7}, {"a": 1.0, "b": 1.0})
    assert out["a"] == pytest.approx(-1.7, rel=1e-14, abs=1e-14)
    assert out["b"] == pytest.approx(0.3, rel=1e-14, abs=1e-14)


def test_junction_boundary_dirichlet():
    out = junction_outflow({"a": 123.4}, {"a": 0.7}, boundary_gain=(0.0, 5.0))
    assert out["a"] == 5.0


def test_junction_three_pipe_example():
    incoming = {"a": 3.0, "b": 0.0, "c": 0.0}
    diam = {"a": 1.0, "b": 1.0, "c": 1.0}
    out = junction_outflow(incoming, diam)
    assert out == pytest.approx({"a": -1.0, "b": 2.0, "c": 2.0})
    kirchhoff = sum(diam[e] ** 2 * (out[e] - incoming[e]) for e in out)
    assert kirchhoff == pytest.approx(0.0, abs=1e-12)
    sums = {out[e] + incoming[e] for e in out}
    assert all(s == pytest.approx(2.0) for s in sums)


def test_junction_validation():
    with pytest.raises(ValidationError):
        junction_outflow({"a": 1.0}, {"b": 1.0})
    with pytest.raises(ValidationError):
        junction_outflow({"a": 1.0}, {"a": 1.0})  # degree 1 without gain
    with pytest.raises(ValidationError):
        junction_outflow({"a": 1.0}, {"a": 1.0}, boundary_gain=(1.5, 0.0))
    with pytest.raises(ValidationError):
        junction_outflow(
            {"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 1.0}, boundary_gain=(0.5, 0.0)
        )
    with pytest.raises(ValidationError, match="keys differ"):
        junction_outflow({"a": 1.0, "b": 2.0}, {"a": 1.0, "c": 1.0})
    with pytest.raises(ValidationError, match="keys differ"):
        junction_outflow({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 1.0, "c": 1.0})
    with pytest.raises(ValidationError, match="key mismatch"):
        diff_junction_outflow({"a": 1.0, "b": 2.0}, {"a": 1.0, "c": 1.0}, 0.5)


DIFFER = "junction_outflow: incoming/diameter keys differ"
NAN = math.nan


def outcome(call):
    """(type, text) of the exception `call()` raises, or (None, repr) of
    what it returns."""
    try:
        got = call()
    except Exception as exc:
        return type(exc), str(exc)
    return None, repr(got)


# Node values, diameters, boundary gain, and the outcome that `junction_outflow`
# gave while it compared key sets before any other check: the exception's
# type and text, or the repr of the map it returned.  A diameter whose square
# overflows is refused by the square rule of `PipeSpec`.
JUNCTION_OUTCOMES = {
    "deg1-other-key": (
        {"a": 1.0}, {"b": 0.5}, (0.5, 2.0), (ValidationError, DIFFER)),
    "deg1-other-key-no-gain": (
        {"a": 1.0}, {"b": 0.5}, None, (ValidationError, DIFFER)),
    "deg1-of-deg2-table": (
        {"a": 1.0}, {"a": 0.5, "b": 0.6}, (0.5, 2.0), (ValidationError, DIFFER)),
    "deg2-of-deg1-table": (
        {"a": 1.0, "b": 2.0}, {"a": 0.5}, (0.5, 2.0), (ValidationError, DIFFER)),
    "deg2-other-key": (
        {"a": 1.0, "b": 2.0}, {"a": 0.5, "c": 0.6}, None, (ValidationError, DIFFER)),
    "deg2-of-deg3-table": (
        {"a": 1.0, "b": 2.0}, {"a": 0.5, "b": 0.6, "c": 0.7}, None, (ValidationError, DIFFER)),
    "deg3-of-deg2-table": (
        {"a": 1.0, "b": 2.0, "c": 3.0}, {"a": 0.5, "b": 0.6}, None, (ValidationError, DIFFER)),
    "deg3-other-key": (
        {"a": 1.0, "b": 2.0, "c": 3.0}, {"a": 0.5, "b": 0.6, "d": 0.7}, None,
        (ValidationError, DIFFER)),
    "deg4-two-other-keys": (
        {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}, {"e": 0.5, "b": 0.6, "c": 0.7, "f": 0.8}, None,
        (ValidationError, DIFFER)),
    "deg3-keys-in-another-order": (
        {"c": 3.0, "a": 1.0, "b": 2.0}, {"a": 0.5, "b": 0.6, "c": 0.7}, None,
        (None, "{'c': 1.4363636363636356, 'a': 3.4363636363636356, 'b': 2.4363636363636356}")),
    "empty": (
        {}, {}, None, (ValidationError, "junction_outflow: empty node")),
    "empty-with-gain": (
        {}, {}, (0.5, 2.0), (ValidationError, "junction_outflow: empty node")),
    "empty-of-deg1-table": (
        {}, {"a": 0.5}, (0.5, 2.0), (ValidationError, DIFFER)),
    "deg1-no-gain": (
        {"a": 1.0}, {"a": 0.5}, None,
        (ValidationError, "degree-1 node needs boundary_gain=(mu, u)")),
    "deg1": (
        {"a": 1.0}, {"a": 0.5}, (0.5, 2.0), (None, "{'a': 1.5}")),
    "deg2-with-gain": (
        {"a": 1.0, "b": 2.0}, {"a": 0.5, "b": 0.6}, (0.5, 2.0),
        (ValidationError, "interior node takes no boundary_gain")),
    "deg2-with-gain-other-key": (
        {"a": 1.0, "b": 2.0}, {"a": 0.5, "c": 0.6}, (0.5, 2.0), (ValidationError, DIFFER)),
    "deg2-with-gain-of-deg3-table": (
        {"a": 1.0, "b": 2.0}, {"a": 0.5, "b": 0.6, "c": 0.7}, (0.5, 2.0),
        (ValidationError, DIFFER)),
    "deg3-with-gain-mu-1.5-other-key": (
        {"a": 1.0, "b": 2.0, "c": 3.0}, {"a": 0.5, "b": 0.6, "d": 0.7}, (1.5, 2.0),
        (ValidationError, DIFFER)),
    "deg1-mu-1.5": (
        {"a": 1.0}, {"a": 0.5}, (1.5, 2.0), (ValidationError, "mu is 1.5, outside [-1, 1]")),
    "deg1-mu-nan": (
        {"a": 1.0}, {"a": 0.5}, (NAN, 2.0), (ValidationError, "mu is nan, outside [-1, 1]")),
    "deg1-mu-1.5-other-key": (
        {"a": 1.0}, {"b": 0.5}, (1.5, 2.0), (ValidationError, DIFFER)),
    "deg1-mu-nan-other-key": (
        {"a": 1.0}, {"b": 0.5}, (NAN, 2.0), (ValidationError, DIFFER)),
    "deg1-mu-nan-of-deg2-table": (
        {"a": 1.0}, {"a": 0.5, "b": 0.6}, (NAN, 2.0), (ValidationError, DIFFER)),
    "deg1-gain-not-a-pair": (
        {"a": 1.0}, {"a": 0.5}, (0.5,),
        (ValueError, "not enough values to unpack (expected 2, got 1)")),
    "deg2-zero-diameter": (
        {"a": 1.0, "b": 2.0}, {"a": 0.0, "b": 0.6}, None,
        (ValidationError, "omega_v: diameters must be positive")),
    "deg2-zero-diameter-other-key": (
        {"a": 1.0, "b": 2.0}, {"a": 0.0, "c": 0.6}, None, (ValidationError, DIFFER)),
    "deg2-nan-diameter-other-key": (
        {"a": 1.0, "b": 2.0}, {"a": NAN, "c": 0.6}, None, (ValidationError, DIFFER)),
    "deg2-square-overflows": (
        {"a": 1.0, "b": 2.0}, {"a": 1e+200, "b": 0.6}, None,
        (ValidationError, "pipe 'a': diameter must be positive, with a square that is finite "
                          "and nonzero")),
    "deg2-square-overflows-other-key": (
        {"a": 1.0, "b": 2.0}, {"a": 1e+200, "c": 0.6}, None, (ValidationError, DIFFER)),
    "deg2-negative-square-overflows": (
        {"a": 1.0, "b": 2.0}, {"a": -1e+200, "b": 0.6}, None,
        (ValidationError, "omega_v: diameters must be positive")),
    "deg2-text-diameter": (
        {"a": 1.0, "b": 2.0}, {"a": "0.5", "b": 0.6}, None,
        (TypeError, "'>' not supported between instances of 'str' and 'int'")),
    "deg2-text-diameter-other-key": (
        {"a": 1.0, "b": 2.0}, {"a": "0.5", "c": 0.6}, None, (ValidationError, DIFFER)),
    "deg2-text-value": (
        {"a": "1", "b": 2.0}, {"a": 0.5, "b": 0.6}, None,
        (TypeError, "can't multiply sequence by non-int of type 'float'")),
    "deg2-text-value-other-key": (
        {"a": "1", "b": 2.0}, {"a": 0.5, "c": 0.6}, None, (ValidationError, DIFFER)),
    "deg2-text-value-zero-diameter": (
        {"a": "1", "b": 2.0}, {"a": 0.0, "b": 0.6}, None,
        (ValidationError, "omega_v: diameters must be positive")),
}


@pytest.mark.parametrize("table", [NodeDiameters, dict])
@pytest.mark.parametrize("case", JUNCTION_OUTCOMES)
def test_junction_outflow_raises_the_same_errors_in_the_same_order(case, table):
    """A length compare and the fold's key lookups find every key mismatch
    that a key-set compare found, and before every other check."""
    incoming, diam, gain, want = JUNCTION_OUTCOMES[case]
    assert outcome(lambda: junction_outflow(incoming, table(diam), gain)) == want


def test_node_plan_is_reused_until_a_mapping_changes(five_pipe):
    controls = {v: (lambda t: 0.0) for v in five_pipe.boundary_nodes}
    gains = {v: 0.5 for v in five_pipe.nodes}
    plan = five_pipe.node_plan(controls, gains)
    assert five_pipe.node_plan(controls, gains) is plan
    assert five_pipe.node_plan(dict(controls), gains) is not plan
    gains["n0"] = 0.25  # changed in place: the plan is built again
    assert [n.mu for n in five_pipe.node_plan(controls, gains) if n.node == "n0"] == [0.25]
    gains["n0"] = math.nan
    with pytest.raises(ValidationError, match="node 'n0'"):
        five_pipe.node_plan(controls, gains)


@pytest.mark.parametrize("mutate", [
    lambda t: t.__setitem__("p2", 2.0),
    lambda t: t.__setitem__("new", 2.0),
    lambda t: t.__delitem__("p2"),
    lambda t: t.clear(),
    lambda t: t.pop("p2"),
    lambda t: t.pop("new", None),
    lambda t: t.popitem(),
    lambda t: t.setdefault("new", 2.0),
    lambda t: t.update({"p2": 2.0}),
    lambda t: t.update(p2=2.0),
    lambda t: t.__ior__({"p2": 2.0}),  # what `t |= {...}` calls
    lambda t: operator.setitem(t.squares, "p2", 4.0),
    lambda t: setattr(t, "omega", 1.0),
    lambda t: setattr(t, "squares", {}),
    lambda t: delattr(t, "omega"),
], ids=["setitem", "setitem-new", "delitem", "clear", "pop", "pop-default", "popitem",
        "setdefault", "update", "update-kwargs", "ior", "squares-setitem", "set-omega",
        "set-squares", "del-omega"])
def test_node_diameter_tables_are_read_only(five_pipe, mutate):
    """Every way to change a graph's diameter table, or the constants it
    holds, raises `TypeError` and leaves the table and its node map as they
    were."""
    table = five_pipe.diameters_at("n2")
    incoming = {"p0": 1.0, "p1": -2.0, "p2": 3.0}
    before = junction_outflow(incoming, table)
    with pytest.raises(TypeError):
        mutate(table)
    assert table is five_pipe.diameters_at("n2")
    assert table == {"p0": 0.6, "p1": 0.5, "p2": 0.8}
    assert (table.squares, table.omega) == ({"p0": 0.6 ** 2, "p1": 0.5 ** 2, "p2": 0.8 ** 2},
                                            omega_v([0.6, 0.5, 0.8]))
    assert junction_outflow(incoming, table) == before


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda t: pickle.loads(pickle.dumps(t))],
                         ids=["copy", "deepcopy", "pickle"])
def test_node_diameter_tables_copy_and_pickle_as_tables(five_pipe, clone):
    table = five_pipe.diameters_at("n2")
    twin = clone(table)
    assert type(twin) is NodeDiameters and twin == table and list(twin) == list(table)
    assert (twin.squares, twin.omega) == (table.squares, table.omega)
    assert clone(five_pipe).diameters_at("n2") == table


def test_unknown_node_lookups_raise(five_pipe):
    for lookup in (five_pipe.diameters_at, five_pipe.incident_pipes):
        with pytest.raises(ValidationError, match="unknown node id 'nx'"):
            lookup("nx")


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_junction_residuals_random(k, seed):
    rng = np.random.default_rng(seed)
    diam = {f"e{i}": float(d) for i, d in enumerate(rng.uniform(0.4, 1.0, k))}
    incoming = {e: float(x) for e, x in zip(diam, rng.uniform(-10, 10, k))}
    out = junction_outflow(incoming, diam)
    scale = max(abs(x) for x in incoming.values()) or 1.0
    kirchhoff = sum(diam[e] ** 2 * (out[e] - incoming[e]) for e in out)
    assert abs(kirchhoff) <= 1e-12 * scale
    sums = [out[e] + incoming[e] for e in out]
    assert max(sums) - min(sums) <= 1e-12 * scale


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_junction_linearity(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    diam = {f"e{i}": float(d) for i, d in enumerate(rng.uniform(0.4, 1.0, k))}
    x = rng.uniform(-5, 5, k)
    y = rng.uniform(-5, 5, k)
    alpha, beta = rng.uniform(-3, 3, 2)
    fx = junction_outflow(dict(zip(diam, x)), diam)
    fy = junction_outflow(dict(zip(diam, y)), diam)
    fz = junction_outflow(dict(zip(diam, alpha * x + beta * y)), diam)
    for i, e in enumerate(diam):
        expected = alpha * fx[e] + beta * fy[e]
        assert fz[e] == pytest.approx(expected, rel=1e-12, abs=1e-12)


@given(st.floats(-100, 100), st.floats(-100, 100))
def test_junction_involution_two_pipes(a, b):
    diam = {"x": 0.8, "y": 0.8}
    once = junction_outflow({"x": a, "y": b}, diam)
    twice = junction_outflow(once, diam)
    scale = max(1.0, abs(a), abs(b))
    assert abs(twice["x"] - a) <= 1e-12 * scale
    assert abs(twice["y"] - b) <= 1e-12 * scale


@pytest.mark.parametrize("call", [
    lambda mu: junction_outflow({"e": 1.0}, {"e": 0.5}, boundary_gain=(mu, 2.0)),
    lambda mu: diff_junction_outflow({"e": 1.0, "f": 2.0}, {"e": 0.5, "f": 0.6}, mu),
    lambda mu: observer_node_update(mu, {"e": 0.5}, {"e": 1.0}, u=2.0),
    lambda mu: upsilon0(NetworkGraph([PipeSpec("p", "a", "b", 100.0, 0.5)]), {"a": mu, "b": 0}),
], ids=["junction_outflow", "diff_junction_outflow", "observer_node_update", "upsilon0"])
@pytest.mark.parametrize("mu", [math.nan, 1.5, -math.inf])
def test_gain_outside_unit_interval_is_rejected(call, mu):
    # NaN fails every comparison, so `abs(mu) > 1` would let it through
    with pytest.raises(ValidationError, match=r"outside \[-1, 1\]"):
        call(mu)
    call(-1.0)
    call(1.0)


def test_graph_rejects_disconnected():
    with pytest.raises(ValidationError):
        NetworkGraph(
            [PipeSpec("p", "a", "b", 10.0, 0.5), PipeSpec("q", "c", "d", 10.0, 0.5)]
        )


def test_graph_rejects_duplicate_ids():
    with pytest.raises(ValidationError):
        NetworkGraph(
            [PipeSpec("p", "a", "b", 10.0, 0.5), PipeSpec("p", "b", "c", 10.0, 0.5)]
        )


def test_graph_allows_parallel_pipes():
    g = NetworkGraph(
        [PipeSpec("p", "a", "b", 10.0, 0.5), PipeSpec("q", "a", "b", 20.0, 0.4)]
    )
    assert len(g.incident_pipes("a")) == 2
    assert not g.boundary_nodes


def test_boundary_nodes(five_pipe):
    assert set(five_pipe.boundary_nodes) == {"n0", "n1", "n4", "n5"}


def test_with_theta(five_pipe):
    g = five_pipe.with_theta(0.0137)
    assert all(p.theta == 0.0137 for p in g.pipes)
    assert all(p.nu == 0.0137 / 4 for p in g.pipes)
    # original untouched
    assert all(p.theta == 0.0 for p in five_pipe.pipes)


def left_fold(xs):
    """The sum of `xs` added one by one from 0.0: CPython 3.11's sum() of
    floats, which from 3.12 on compensates its rounding instead."""
    total = 0.0
    for x in xs:
        total += x
    return total


def bits(xs):
    return [float(x).hex() for x in xs]


def assert_node_map_sums_are_left_folds(pipes, mu):
    """The node maps, omega_v and the nodal energy residual at a node with
    (D, R) per pipe in `pipes` sum as a left fold, bit for bit."""
    ids = [f"e{i}" for i in range(len(pipes))]
    diam = {e: d for e, (d, _) in zip(ids, pipes)}
    incoming = {e: r for e, (_, r) in zip(ids, pipes)}
    w = 2.0 / left_fold(d * d for d in diam.values())
    total = left_fold(diam[e] ** 2 * r for e, r in incoming.items())
    out = junction_outflow(incoming, diam)
    assert bits([omega_v(diam.values())]) == bits([w])
    assert list(out) == ids and bits(out.values()) == bits(w * total - r for r in incoming.values())
    err = diff_junction_outflow(incoming, diam, mu)
    assert bits(err.values()) == bits(mu * (w * total - r) for r in incoming.values())
    in_sum = left_fold(diam[e] ** 2 * incoming[e] ** 2 for e in ids)
    out_sum = left_fold(diam[e] ** 2 * err[e] ** 2 for e in ids)
    want = (0.0 if out_sum == 0.0 else math.inf) if in_sum == 0.0 else \
        abs(out_sum - mu * mu * in_sum) / in_sum
    assert bits([nodal_energy_residual(incoming, err, mu, diam)]) == bits([want])
    return out


@given(st.lists(st.tuples(st.floats(0.05, 5.0), st.floats(-1e17, 1e17)), min_size=2,
                max_size=8),
       st.floats(-1.0, 1.0))
def test_node_map_sums_are_left_folds(pipes, mu):
    assert_node_map_sums_are_left_folds(pipes, mu)


def test_cancelling_node_map_sum_is_a_left_fold():
    # The fold loses the 1.0 and gives 0; a compensated sum gives 1.
    out = assert_node_map_sums_are_left_folds([(1.0, 1e16), (1.0, 1.0), (1.0, -1e16)], 0.5)
    assert out == {"e0": -1e16, "e1": -1.0, "e2": 1e16}


# Runs gasnetsim.network alone under another interpreter: a stub package
# module stands in for gasnetsim/__init__.py, so numpy is never imported.
OTHER_INTERPRETER = """
import json, sys, types
pkg = types.ModuleType("gasnetsim")
pkg.__path__ = [sys.argv[1]]
sys.modules["gasnetsim"] = pkg
from gasnetsim.network import junction_outflow, omega_v
assert "numpy" not in sys.modules
maps = json.load(sys.stdin)
print(json.dumps([[repr(omega_v(ds)), [repr(x) for x in junction_outflow(dict(enumerate(rs)),
                  dict(enumerate(ds))).values()]] for ds, rs in maps]))
"""


def node_map_reprs(maps):
    return [[repr(omega_v(ds)), [repr(x) for x in junction_outflow(dict(enumerate(rs)),
             dict(enumerate(ds))).values()]] for ds, rs in maps]


def test_node_maps_give_the_same_bits_under_every_interpreter():
    """Interior node maps and omega_v on a seeded batch give the same reprs
    under each of python3.12 to python3.14 that starts as in this
    process: their sums do not depend on how the interpreter's sum() rounds."""
    rng = random.Random(21)
    maps = [([rng.uniform(0.3, 1.5) for _ in range(k)], [rng.gauss(0.0, 1e3) for _ in range(k)])
            for k in (rng.randint(2, 6) for _ in range(20_000))]
    maps.append(([1.0, 1.0, 1.0], [1e16, 1.0, -1e16]))
    want = node_map_reprs(maps)
    package = str(Path(__file__).resolve().parent.parent / "src" / "gasnetsim")
    ran = []
    for name in ("python3.12", "python3.13", "python3.14"):
        try:
            subprocess.run([name, "-c", "pass"], capture_output=True, check=True, timeout=60)
        except (OSError, subprocess.SubprocessError):
            continue  # not installed, or a launcher that finds no interpreter
        done = subprocess.run([name, "-c", OTHER_INTERPRETER, package], input=json.dumps(maps),
                              capture_output=True, text=True, check=True, timeout=120)
        got = json.loads(done.stdout)
        differ = sum(g != w for g, w in zip(got, want))
        assert (len(got), differ) == (len(want), 0), f"{name}: {differ} maps differ"
        ran.append(name)
    if not ran:
        pytest.skip("none of python3.12, python3.13 and python3.14 starts")
