import numpy as np
import pytest
from hypothesis import given, strategies as st

from gasnetsim.errors import ValidationError
from gasnetsim.network import NetworkGraph, PipeSpec, junction_outflow, omega_v


def test_pipe_spec_validation():
    with pytest.raises(ValidationError):
        PipeSpec("p", "a", "a", 10.0, 0.5)
    with pytest.raises(ValidationError):
        PipeSpec("p", "a", "b", -1.0, 0.5)
    with pytest.raises(ValidationError):
        PipeSpec("p", "a", "b", 10.0, 0.0)
    with pytest.raises(ValidationError):
        PipeSpec("p", "a", "b", 10.0, 0.5, theta=-0.1)


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
