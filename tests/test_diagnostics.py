import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gasnetsim.diagnostics import (
    LyapunovSeries,
    RegularityTracker,
    SnapshotFrame,
    block_quadratures,
    fit_decay_rate,
    lyapunov_l0,
    lyapunov_l1,
    nodal_energy_residual,
    quadrature,
)
from gasnetsim.errors import NumericalError, ValidationError
from gasnetsim.fileio import InitialCondition, ScenarioSpec
from gasnetsim.network import NetworkGraph, PipeSpec
from gasnetsim.observer import CoupledState, difference_state, step_coupled
from gasnetsim.run import K, assemble, run_observer_pair
from gasnetsim.solver import EdgeGrid, Layout, SimState, build_grids


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
    per_edge = [lyapunov_l0({p.id: grids[p.id]}, NetworkGraph([p])) for p in five_pipe.pipes]
    assert lyapunov_l0(grids, five_pipe) == sum(per_edge)
    for p, l0 in zip(five_pipe.pipes, per_edge):
        g = grids[p.id]
        ssq = np.sum(g.r_plus**2) + np.sum(g.r_minus**2)
        assert l0 == pytest.approx(0.5 * p.diameter**2 * g.dx * ssq, rel=1e-13)


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
    grids = build_grids(five_pipe, 340.0, 0.5)
    for g in grids.values():
        g.r_plus[:] = g.r_minus[:] = 1342.0
    plus, minus = Layout.of(grids, five_pipe).pack(grids)
    tracker = RegularityTracker(0.5)
    tracker.observe(plus - minus, plus - minus)
    tracker.observe(plus - minus, plus - minus)
    assert tracker.m_tilde == 0.0
    assert tracker.b_tilde == 0.0


def test_regularity_bounds_constant_difference():
    net, grids = unit_pipe_grid(fill_plus=2.0, fill_minus=-1.0)  # |S+ - S-| = 3
    plus, minus = Layout.of(grids, net).pack(grids)
    tracker = RegularityTracker(0.5)
    for _ in range(3):
        tracker.observe(plus - minus, np.zeros_like(plus))
    assert tracker.m_tilde >= 3.0
    assert tracker.b_tilde == 0.0


def _per_pipe_l1(prev_grids, next_grids, graph, dt):
    # Reference: lyapunov_l1 computed one pipe at a time.
    total = 0.0
    for p in graph.pipes:
        g0, g1 = prev_grids[p.id], next_grids[p.id]
        qp = (g1.r_plus - g0.r_plus) / dt
        qm = (g1.r_minus - g0.r_minus) / dt
        total += 0.5 * p.diameter ** 2 * g0.dx * float(np.dot(qp, qp) + np.dot(qm, qm))
    return total


def _per_pipe_regularity(s_frames, r_frames):
    # Reference: RegularityTracker.observe computed one pipe at a time.
    m_tilde = b_tilde = 0.0
    prev = None
    for s_state, r_state in zip(s_frames, r_frames):
        current = {}
        for pid, g in s_state.grids.items():
            ds = g.r_plus - g.r_minus
            current[pid] = ds
            rg = r_state.grids[pid]
            m = max(float(np.max(np.abs(ds))), float(np.max(np.abs(rg.r_plus - rg.r_minus))))
            m_tilde = max(m_tilde, m)
        if prev is not None:
            for pid, ds in current.items():
                b_tilde = max(b_tilde, float(np.max(np.abs(ds - prev[pid])) / s_state.dt))
        prev = current
    return m_tilde, b_tilde


@given(
    cells=st.lists(st.integers(2, 40), min_size=1, max_size=6),
    n_frames=st.integers(2, 5),
    dt=st.floats(1e-3, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_packed_diagnostics_equal_per_pipe_loops(cells, n_frames, dt, seed):
    rng = np.random.default_rng(seed)
    graph = NetworkGraph([
        PipeSpec(f"p{i}", f"n{i}", f"n{i + 1}", 100.0 * n, rng.uniform(0.3, 1.2))
        for i, n in enumerate(cells)
    ])

    def frame(step):
        grids = {}
        for p, n in zip(graph.pipes, cells):
            scale = 10.0 ** rng.uniform(-3, 3)
            grids[p.id] = EdgeGrid(p.id, n, 100.0, 1.0, scale * rng.standard_normal(n),
                                   scale * rng.standard_normal(n))
        return SimState(grids=grids, dt=dt, step_index=step)

    s_frames = [frame(k) for k in range(n_frames)]
    r_frames = [frame(k) for k in range(n_frames)]
    tracker = RegularityTracker(dt)
    layout = Layout.of(s_frames[0].grids, graph)
    for s_state, r_state in zip(s_frames, r_frames):
        (sp, sm), (rp, rm) = layout.pack(s_state.grids), layout.pack(r_state.grids)
        tracker.observe(sp - sm, rp - rm)
    assert (tracker.m_tilde, tracker.b_tilde) == _per_pipe_regularity(s_frames, r_frames)
    for prev, nxt in zip(s_frames, s_frames[1:]):
        assert lyapunov_l1(prev.grids, nxt.grids, graph, dt) == _per_pipe_l1(
            prev.grids, nxt.grids, graph, dt
        )


def _per_pipe_l0(delta_grids, graph):
    # Reference: lyapunov_l0 computed one pipe at a time.
    total = 0.0
    for p in graph.pipes:
        g = delta_grids[p.id]
        ssq = float(np.dot(g.r_plus, g.r_plus) + np.dot(g.r_minus, g.r_minus))
        total += 0.5 * p.diameter ** 2 * g.dx * ssq
    return total


def _dot_quadrature(fields, weights):
    # Reference: `quadrature` in its np.dot form.
    total = 0.0
    for (a, b), w in zip(fields, weights):
        total += w * float(np.dot(a, a) + np.dot(b, b))
    return total


# Signed zeros, subnormals, values whose square is near overflow, and non-finite cells.
QUADRATURE_SPECIAL = (0.0, -0.0, 5e-324, -1e-310, 1e154, -3e154, 1.4e154, math.inf, -math.inf,
                      math.nan)


@given(
    cells=st.lists(st.integers(1, 800), min_size=1, max_size=6),
    offset=st.integers(0, 7),
    share=st.sampled_from([0.0, 0.01, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_quadrature_equals_its_np_dot_form(cells, offset, share, seed):
    """Bit for bit, on every prefix of the pipes (the running sums that name
    an overflowing term), with each pipe's fields viewed as `Layout.views`
    views them: slices of the rows of one (2, cells) pair, here starting
    `offset` elements into a buffer."""
    rng = np.random.default_rng(seed)
    pair = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), (2, offset + sum(cells)))[:, offset:]
    hit = rng.random(pair.shape) < share
    pair[hit] = rng.choice(QUADRATURE_SPECIAL, hit.sum())
    stops = np.cumsum(cells).tolist()
    views = [(pair[0][stop - n:stop], pair[1][stop - n:stop]) for n, stop in zip(cells, stops)]
    weights = (10.0 ** rng.uniform(-6, 6, len(cells))).tolist()
    for i in range(1, len(cells) + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            got = quadrature(views[:i], weights[:i])
            want = _dot_quadrature(views[:i], weights[:i])
        assert struct.pack("<d", got) == struct.pack("<d", want), i


@given(
    cells=st.lists(st.integers(1, 300), min_size=1, max_size=6),
    offset=st.integers(0, 7),
    m=st.integers(1, K),
    share=st.sampled_from([0.0, 0.01, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_quadratures_equal_the_np_dot_form(cells, offset, m, share, seed):
    """Bit for bit, frame by frame, on a block laid out as the run loop lays
    it out: each pipe's (frames, 2, cells) view of K + 1 rows of (2, cells)
    pairs, here starting `offset` elements into a buffer.  The helper is
    called outside any `np.errstate`, so a floating-point flag it let out
    would fail the test."""
    rng = np.random.default_rng(seed)
    ring = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), (K + 1, 2, offset + sum(cells)))
    ring = ring[:, :, offset:]
    hit = rng.random(ring.shape) < share
    ring[hit] = rng.choice(QUADRATURE_SPECIAL, hit.sum())
    spans = [slice(stop - n, stop) for n, stop in zip(cells, np.cumsum(cells).tolist())]
    weights = 10.0 ** rng.uniform(-6, 6, len(cells))
    dots = np.full((len(cells), K, 2), np.nan)
    got = block_quadratures([ring[1:, :, cells] for cells in spans], weights, dots, m)
    assert len(got) == m
    for j, value in enumerate(got):
        views = [(ring[j + 1, 0, cells], ring[j + 1, 1, cells]) for cells in spans]
        with np.errstate(over="ignore", invalid="ignore"):
            want = _dot_quadrature(views, weights.tolist())
        assert struct.pack("<d", value) == struct.pack("<d", want), j


DT = 0.375


@st.composite
def observer_runs(draw):
    """A connected 2-6-pipe network (a tree, or a tree plus one pipe that
    closes a cycle) and a short coupled scenario on it.  dt = 0.375 s is not
    a power of two, so dividing by it rounds."""
    n_pipes = draw(st.integers(2, 6))
    cyclic = draw(st.booleans())
    ends = [(draw(st.integers(0, i)), i + 1) for i in range(n_pipes - cyclic)]
    if cyclic:
        a = draw(st.integers(0, n_pipes - 1))
        ends.append((a, draw(st.integers(0, n_pipes - 1).filter(lambda b: b != a))))
    pipes = []
    for i, (a, b) in enumerate(ends):
        if draw(st.booleans()):
            a, b = b, a
        pipes.append(PipeSpec(f"p{i}", f"n{a}", f"n{b}", draw(st.floats(340.0, 1200.0)),
                              draw(st.floats(0.3, 1.2))))
    graph = NetworkGraph(pipes)
    pressure = st.floats(55.0, 65.0)
    ic = st.one_of(
        st.builds(InitialCondition, st.just("constant"), pressure),
        st.builds(InitialCondition, st.just("half_step"), pressure, st.floats(-2.0, 2.0)),
        st.builds(InitialCondition, st.just("sinusoidal"), pressure, st.floats(-2.0, 2.0),
                  st.integers(1, 3)),
    )
    pipe_ids = st.sampled_from([p.id for p in pipes])
    n_steps = draw(st.integers(1, 3 * K + 2))  # blocks of K steps: full, cut and single
    scenario = ScenarioSpec(
        theta=draw(st.sampled_from([0.0, 0.02])),
        t_end=DT * n_steps,
        dt=DT,
        mode=draw(st.sampled_from(["exact-advection", "cfl-safe"])),
        mu_overrides={v: draw(st.floats(-1.0, 1.0)) for v in graph.nodes},
        ic_s=draw(st.dictionaries(pipe_ids, ic)),
        ic_r=draw(st.dictionaries(pipe_ids, ic)),
    )
    snap_steps = draw(st.sets(st.integers(0, n_steps)))
    return graph, scenario, snap_steps, draw(st.integers(0, 3)), draw(st.booleans())


def block_edge_run(n_steps, record_l1):
    """A 3-pipe star with mismatched initial states over `n_steps` steps,
    with a snapshot at each step that begins or ends a block of K steps."""
    graph = NetworkGraph([PipeSpec("p0", "n0", "n1", 340.0, 0.5), PipeSpec("p1", "n1", "n2",
                          680.0, 0.6), PipeSpec("p2", "n3", "n1", 510.0, 0.8)])
    scenario = ScenarioSpec(theta=0.02, t_end=DT * n_steps, dt=DT, mu_uniform=0.5,
                            ic_s={"p1": InitialCondition("half_step", 60.0, 2.0)},
                            ic_r={"p2": InitialCondition("sinusoidal", 60.0, 1.0, 2)})
    edges = {k for k in range(n_steps + 1) if k % K in (0, K - 1) or k == n_steps}
    return graph, scenario, edges, 1, record_l1


@given(observer_runs())
@example(block_edge_run(3 * K - 1, True))  # n + 1 frames, a multiple of K
@example(block_edge_run(3 * K, True))  # one frame more: the last block has one step
@example(block_edge_run(3 * K - 1, False))
@example(block_edge_run(3 * K, False))
def test_observer_record_equals_per_pipe_references(run):
    graph, scenario, snap_steps, stride, record_l1 = run
    result = run_observer_pair(graph, scenario, record_l1=record_l1, residual_stride=stride,
                               snapshot_times=[DT * k for k in snap_steps])
    asm = assemble(graph, scenario)
    cs = CoupledState(asm.s_state, asm.r_state, asm.config)
    s_frames, r_frames, deltas = [], [], []
    for k in range(asm.n_steps + 1):
        if k:
            cs, _ = step_coupled(cs, asm.graph)
        s_frames.append(cs.s_state)
        r_frames.append(cs.r_state)
        deltas.append(difference_state(cs.r_state, cs.s_state))
    l0 = [lyapunov_l0(d.grids, asm.graph) for d in deltas]
    assert l0 == [_per_pipe_l0(d.grids, asm.graph) for d in deltas]
    assert result.series.l0.tolist() == l0
    if record_l1:
        assert result.series.l1.tolist() == [_per_pipe_l1(d0.grids, d1.grids, asm.graph, asm.dt)
                                             for d0, d1 in zip(deltas, deltas[1:])]
    else:
        assert result.series.l1 is None
    assert (result.m_tilde, result.b_tilde) == _per_pipe_regularity(s_frames, r_frames)
    assert len(result.snapshots) == len(snap_steps)
    for frame, k in zip(result.snapshots, sorted(snap_steps)):
        grids = deltas[k].grids
        assert frame.t == deltas[k].t
        assert frame.layout.pipes == tuple(grids)
        gs = list(grids.values())
        assert np.array_equal(frame.layout.x, np.concatenate([g.cell_centers() for g in gs]))
        assert np.array_equal(frame.plus, np.concatenate([g.r_plus for g in gs]))
        assert np.array_equal(frame.minus, np.concatenate([g.r_minus for g in gs]))


def test_recorded_frames_and_tracker_inputs_keep_their_values(five_pipe, monkeypatch):
    """The observer loop reuses its delta arrays from step to step: a frame
    it returns and the truth difference the tracker keeps for the next step
    must not change when later steps run."""
    import gasnetsim.run as run_mod

    handed = []  # (array, its copy when it was handed over)

    class RecordingTracker(RegularityTracker):
        def observe(self, s_diff, r_diff):
            handed.append((s_diff, s_diff.copy()))
            super().observe(s_diff, r_diff)

    def recording_frame(t, layout, plus, minus):
        handed.extend([(plus, plus.copy()), (minus, minus.copy())])
        return SnapshotFrame(t, layout, plus, minus)

    monkeypatch.setattr(run_mod, "RegularityTracker", RecordingTracker)
    monkeypatch.setattr(run_mod, "SnapshotFrame", recording_frame)
    scenario = ScenarioSpec(theta=0.0137, t_end=5.0, dt=0.5, mu_uniform=0.5,
                            ic_s={"p2": InitialCondition("half_step", 60.0, 2.0)})
    result = run_observer_pair(five_pipe, scenario, snapshot_times=[0.5 * k for k in range(11)])
    assert len(result.snapshots) == 11 and len(handed) == 11 + 2 * 11
    assert len({id(frame.plus) for frame in result.snapshots}) == 11
    assert any(frame.plus.any() for frame in result.snapshots)
    for array, copy in handed:
        assert array.tobytes() == copy.tobytes()


# The run loop records L0 in blocks of K steps; these errors are the ones it
# raised when it checked L0 after every step.
@pytest.mark.parametrize("system", ["truth", "observer"])
def test_a_nan_inside_a_block_names_its_step_system_and_pipe(five_pipe, monkeypatch, system):
    import gasnetsim.run as run_mod

    real = run_mod.step_coupled

    def step_then_spoil(cs, graph, **kwargs):
        cs, traces = real(cs, graph, **kwargs)
        if cs.s_state.step_index == K + 2:
            state = cs.s_state if system == "truth" else cs.r_state
            state.grids["p3"].r_minus[1] = math.nan
        return cs, traces

    monkeypatch.setattr(run_mod, "step_coupled", step_then_spoil)
    scenario = ScenarioSpec(theta=0.0137, t_end=10.0, dt=0.5, mu_uniform=0.5,
                            ic_s={"p2": InitialCondition("half_step", 60.0, 2.0)})
    with pytest.raises(NumericalError) as err:
        run_observer_pair(five_pipe, scenario, residual_stride=1)
    assert str(err.value) == (f"simulation blew up: pipe p3 of the {system} system is not "
                              f"finite at t={(K + 2) * 0.5}")


@pytest.mark.parametrize("fail_at", [None, 2])
def test_an_l0_overflow_on_finite_cells_names_its_step_and_pipe(monkeypatch, fail_at):
    """One pipe of D = 1e153 m: its L0 weight is finite and its cells stay
    finite, but L0 overflows from the first step on.  A later step that
    fails (`fail_at`) does not hide the error of the earlier one."""
    import gasnetsim.run as run_mod

    real = run_mod.step_coupled

    def step_or_fail(cs, graph, **kwargs):
        if cs.s_state.step_index + 1 == fail_at:
            raise RuntimeError("a later step failed")
        return real(cs, graph, **kwargs)

    monkeypatch.setattr(run_mod, "step_coupled", step_or_fail)
    graph = NetworkGraph([PipeSpec("a", "n0", "n1", 340.0, 1e153)])
    scenario = ScenarioSpec(theta=0.02, t_end=6.0, dt=0.5, mu_uniform=0.5,
                            ic_s={"a": InitialCondition("half_step", 60.0, 2.0)},
                            ic_r={"a": InitialCondition("half_step", 60.0, 1.0)})
    with pytest.raises(NumericalError) as err:
        run_observer_pair(graph, scenario, residual_stride=1)
    assert str(err.value) == ("L0 overflowed at t=0.0 in the term of pipe a, with every cell "
                              "of both systems finite")


def test_snapshot_frame_from_state(single_pipe):
    grids = build_grids(single_pipe, 340.0, 0.375)
    grids["p"].r_plus[:] = 1.5
    state = SimState(grids=grids, dt=0.375, step_index=4)
    frame = SnapshotFrame.from_state(state, Layout.of(grids, single_pipe))
    assert frame.t == pytest.approx(1.5)
    assert frame.layout.x[0] == pytest.approx(grids["p"].dx / 2.0)
    assert np.all(frame.plus == 1.5)
