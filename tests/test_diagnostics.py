import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gasnetsim.diagnostics import (
    LyapunovSeries,
    RegularityTracker,
    SnapshotFrame,
    fit_decay_rate,
    lyapunov_l0,
    lyapunov_l0_per_edge,
    lyapunov_l1,
    nodal_energy_residual,
)
from gasnetsim.errors import ValidationError
from gasnetsim.network import NetworkGraph, PipeSpec
from gasnetsim.solver import EdgeGrid, SimState, build_grids


def unit_pipe_grid(n=8, length=2.0, fill_plus=0.0, fill_minus=0.0):
    net = NetworkGraph([PipeSpec("p", "a", "b", length, 1.0)])
    dx = length / n
    grid = EdgeGrid(
        "p", n, dx, 1.0,
        np.full(n, fill_plus, dtype=float),
        np.full(n, fill_minus, dtype=float),
    )
    return net, {"p": grid}


def test_l0_zero_state():
    net, grids = unit_pipe_grid()
    assert lyapunov_l0(grids, net) == 0.0


def test_l0_constant_profile_closed_form():
    # D = 1, L = 2, both invariants identically 1: (1/2) * (1 + 1) * 2 = 2
    net, grids = unit_pipe_grid(fill_plus=1.0, fill_minus=1.0)
    assert lyapunov_l0(grids, net) == pytest.approx(2.0, rel=1e-14)


def test_l0_additivity(five_pipe):
    grids = build_grids(five_pipe, 340.0, 0.5)
    rng = np.random.default_rng(2)
    for g in grids.values():
        g.r_plus[:] = rng.uniform(-1, 1, g.n_cells)
        g.r_minus[:] = rng.uniform(-1, 1, g.n_cells)
    per_edge = lyapunov_l0_per_edge(grids, five_pipe)
    assert lyapunov_l0(grids, five_pipe) == sum(per_edge.values())


def test_l0_quadrature_richardson():
    # midpoint rule on a smooth profile: halving dx divides the error by ~4
    length = 2.0
    exact = 0.5 * 1.0 * (length / 2.0) * (math.e**2 - 1.0)  # (D^2/2) int exp(2x/L) dx
    errs = []
    for n in (64, 128):
        net, grids = unit_pipe_grid(n=n, length=length)
        x = grids["p"].cell_centers()
        grids["p"].r_plus[:] = np.exp(x / length)
        errs.append(abs(lyapunov_l0(grids, net) - exact))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_l1_constant_in_time_is_zero():
    net, grids0 = unit_pipe_grid(fill_plus=3.0)
    _, grids1 = unit_pipe_grid(fill_plus=3.0)
    assert lyapunov_l1(grids0, grids1, net, dt=0.1) == 0.0


def test_l1_unit_rate_closed_form():
    # delta^{n+1} = delta^n + dt everywhere on D = 1, L = 2 -> L1 = 2
    dt = 0.25
    net, grids0 = unit_pipe_grid(fill_plus=1.0, fill_minus=-1.0)
    _, grids1 = unit_pipe_grid(fill_plus=1.0 + dt, fill_minus=-1.0 + dt)
    assert lyapunov_l1(grids0, grids1, net, dt=dt) == pytest.approx(2.0, rel=1e-13)


def test_l1_requires_two_frames():
    net, grids = unit_pipe_grid()
    with pytest.raises(ValidationError):
        lyapunov_l1(None, grids, net, dt=0.1)


def test_nodal_residual_zero_cases():
    diam = {"a": 1.0, "b": 0.5}
    assert nodal_energy_residual({"a": 0.0, "b": 0.0}, {"a": 0.0, "b": 0.0}, 0.5, diam) == 0.0
    # |mu| = 1 isometry on a boundary-style map
    d_in = {"a": 2.0}
    d_out = {"a": -2.0}
    assert nodal_energy_residual(d_in, d_out, -1.0, {"a": 1.0}) == 0.0


def test_fit_exact_exponential():
    t = np.linspace(0.0, 100.0, 201)
    series = LyapunovSeries(times=t, l0=np.exp(-0.1 * t))
    rate, r2 = fit_decay_rate(series, (0.0, 100.0))
    assert rate == pytest.approx(0.1, abs=1e-8)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_constant_series():
    t = np.linspace(0.0, 10.0, 50)
    series = LyapunovSeries(times=t, l0=np.full_like(t, 7.5))
    rate, r2 = fit_decay_rate(series, (0.0, 10.0))
    assert abs(rate) <= 1e-12
    assert r2 == 1.0


def test_fit_truncates_at_zero():
    t = np.linspace(0.0, 10.0, 40)
    vals = np.exp(-t)
    vals[25:] = 0.0
    series = LyapunovSeries(times=t, l0=vals)
    rate, _ = fit_decay_rate(series, (0.0, 10.0))
    assert rate == pytest.approx(1.0, rel=1e-8)


def test_fit_needs_enough_samples():
    t = np.linspace(0.0, 1.0, 5)
    series = LyapunovSeries(times=t, l0=np.exp(-t))
    with pytest.raises(ValidationError):
        fit_decay_rate(series, (0.0, 1.0))
    zeros = LyapunovSeries(times=t, l0=np.zeros_like(t))
    with pytest.raises(ValidationError):
        fit_decay_rate(zeros, (0.0, 1.0))


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_fit_scale_invariant(scale):
    t = np.linspace(0.0, 50.0, 101)
    vals = np.exp(-0.03 * t) * (1.0 + 0.01 * np.sin(t))
    r1, _ = fit_decay_rate(LyapunovSeries(times=t, l0=vals), (0.0, 50.0))
    r2, _ = fit_decay_rate(LyapunovSeries(times=t, l0=scale * vals), (0.0, 50.0))
    assert abs(r1 - r2) <= 1e-12 * max(1.0, abs(r1))


def test_series_validation():
    with pytest.raises(ValidationError):
        LyapunovSeries(times=np.array([0.0, 1.0]), l0=np.array([1.0]))
    with pytest.raises(ValidationError):
        LyapunovSeries(times=np.array([0.0]), l0=np.array([-1.0]))


def test_sync_time_detection():
    series = LyapunovSeries(
        times=np.array([0.0, 1.0, 2.0, 3.0]), l0=np.array([4.0, 1.0, 0.0, 0.0])
    )
    assert series.sync_time() == 2.0
    live = LyapunovSeries(times=np.array([0.0, 1.0]), l0=np.array([1.0, 0.5]))
    assert live.sync_time() is None


def test_regularity_bounds_rest_state(five_pipe):
    grids = build_grids(five_pipe, 340.0, 0.5, fill=1342.0)
    tracker = RegularityTracker()
    tracker.observe(SimState(grids=grids, dt=0.5))
    tracker.observe(SimState(grids=grids, dt=0.5, step_index=1))
    assert tracker.m_tilde == 0.0
    assert tracker.b_tilde == 0.0


def test_regularity_bounds_constant_difference():
    net, grids = unit_pipe_grid(fill_plus=2.0, fill_minus=-1.0)  # |S+ - S-| = 3
    tracker = RegularityTracker()
    for i in range(3):
        tracker.observe(
            SimState(grids={k: g.copy() for k, g in grids.items()}, dt=0.5, step_index=i)
        )
    assert tracker.m_tilde >= 3.0
    assert tracker.b_tilde == 0.0


def test_snapshot_frame_from_state(single_pipe):
    grids = build_grids(single_pipe, 340.0, 0.375)
    grids["p"].r_plus[:] = 1.5
    state = SimState(grids=grids, dt=0.375, step_index=4)
    frame = SnapshotFrame.from_state(state)
    assert frame.t == pytest.approx(1.5)
    assert frame.x["p"][0] == pytest.approx(grids["p"].dx / 2.0)
    assert np.all(frame.delta_plus["p"] == 1.5)
