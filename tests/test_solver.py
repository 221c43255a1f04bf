import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from gasnetsim.diagnostics import lyapunov_l0, quadrature
from gasnetsim.errors import ConfigurationError, ScheduleError, ValidationError
from gasnetsim.network import NetworkGraph, PipeSpec
from gasnetsim.observer import CoupledState, ObserverConfig, step_coupled
from gasnetsim.physics import IsothermalLaw, riemann_from_state
from gasnetsim import solver
from gasnetsim.solver import (
    MODE_CFL_SAFE,
    MODE_EXACT,
    EdgeGrid,
    Layout,
    SimState,
    advect_step,
    build_grids,
    friction_root,
    friction_root_shifted,
    friction_step,
    step_system,
)


def make_grid(values_plus, values_minus, cfl=1.0, dx=10.0):
    vp = np.asarray(values_plus, dtype=float)
    vm = np.asarray(values_minus, dtype=float)
    return EdgeGrid("p", len(vp), dx, cfl, vp, vm)


def bisect_friction(d_star, a, tol=1e-13):
    """Bisection oracle for d + a|d|d = d_star."""
    f = lambda x: x + a * abs(x) * x - d_star
    lo, hi = (0.0, abs(d_star) + 1.0)
    if d_star < 0:
        lo, hi = -abs(d_star) - 1.0, 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) == 0.0:
            return mid
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# grids


def test_build_grids_exactly_divisible():
    g = NetworkGraph([PipeSpec("p", "a", "b", 3400.0, 0.5)])
    for mode in ("cfl-safe", "exact-advection"):
        grid = build_grids(g, 340.0, 1.0, mode=mode)["p"]
        assert grid.n_cells == 10
        assert grid.dx == 340.0
        assert grid.cfl == 1.0
        assert grid.length_perturbation == 0.0


def test_build_grids_cfl_safe_floor():
    g = NetworkGraph([PipeSpec("p", "a", "b", 3570.0, 0.5)])
    grid = build_grids(g, 340.0, 1.0, mode="cfl-safe")["p"]
    assert grid.n_cells == 10
    assert grid.dx == 357.0
    assert grid.cfl == pytest.approx(340.0 / 357.0, rel=1e-15)
    assert grid.cfl <= 1.0


def test_build_grids_exact_advection_half_up():
    g = NetworkGraph([PipeSpec("p", "a", "b", 3570.0, 0.5)])
    grid = build_grids(g, 340.0, 1.0, mode="exact-advection")["p"]
    assert grid.n_cells == 11
    assert grid.dx == 340.0
    assert grid.cfl == 1.0
    assert grid.length == 3740.0
    assert grid.length_perturbation == pytest.approx(170.0 / 3570.0, rel=1e-12)
    # the snap never exceeds half a cell plus rounding slack
    assert grid.length_perturbation <= grid.cfl * 340.0 / 2.0 / 3570.0 + 1e-12


def test_build_grids_rejects_large_dt():
    g = NetworkGraph([PipeSpec("p", "a", "b", 1000.0, 0.5)])
    with pytest.raises(ConfigurationError):
        build_grids(g, 340.0, 2.0)
    with pytest.raises(ConfigurationError):
        build_grids(g, 340.0, -1.0)


@pytest.mark.parametrize("c, dt", [(340.0, 1e-308), (1e-300, 1.0)],
                         ids=["inf-cells", "1e303-cells"])
def test_build_grids_rejects_more_cells_than_can_be_allocated(c, dt):
    g = NetworkGraph([PipeSpec("p", "a", "b", 1000.0, 0.5)])
    with pytest.raises(ConfigurationError, match="^pipe 'p' needs .* too many to allocate$"):
        build_grids(g, c, dt)


def test_grid_invariants():
    with pytest.raises(ValidationError):
        EdgeGrid("p", 1, 1.0, 1.0, np.zeros(1), np.zeros(1))
    with pytest.raises(ValidationError):
        EdgeGrid("p", 4, 1.0, 1.5, np.zeros(4), np.zeros(4))
    for plus, minus in ((np.zeros(3), np.zeros(4)), (np.zeros(4), np.zeros(5))):
        with pytest.raises(ValidationError, match="field size"):
            EdgeGrid("p", 4, 1.0, 1.0, plus, minus)


# ---------------------------------------------------------------------------
# advection


def test_advect_exact_shift():
    grid = make_grid([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    out = advect_step(grid, inflow_plus=9.0, inflow_minus=-9.0)
    assert out.r_plus.tolist() == [9.0, 1.0, 2.0]
    assert out.r_minus.tolist() == [5.0, 6.0, -9.0]


def test_advect_half_cfl_stencil():
    grid = make_grid([0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0], cfl=0.5)
    out = advect_step(grid, inflow_plus=0.0, inflow_minus=0.0)
    assert out.r_plus.tolist() == [0.0, 0.0, 0.5, 1.0]


def test_advect_constant_profile_is_fixed_point():
    grid = make_grid([2.5] * 6, [-1.5] * 6, cfl=0.7)
    out = advect_step(grid, inflow_plus=2.5, inflow_minus=-1.5)
    assert out.r_plus.tolist() == [2.5] * 6
    assert out.r_minus.tolist() == [-1.5] * 6


@given(
    st.lists(st.floats(-10, 10), min_size=2, max_size=12),
    st.floats(-10, 10),
    st.floats(0.05, 1.0),
)
def test_advect_convex_hull(cells, ghost, cfl):
    grid = make_grid(cells, [0.0] * len(cells), cfl=cfl)
    out = advect_step(grid, inflow_plus=ghost, inflow_minus=0.0)
    lo = min(min(cells), ghost) - 1e-12
    hi = max(max(cells), ghost) + 1e-12
    assert np.all(out.r_plus >= lo) and np.all(out.r_plus <= hi)


# ---------------------------------------------------------------------------
# friction


def test_friction_zero_nu_is_identity():
    rp = np.array([1.0, -2.0, 0.3])
    rm = np.array([0.5, 0.1, -0.3])
    op, om = friction_step(rp, rm, nu=0.0, dt=0.5)
    assert op is rp and om is rm


def test_friction_equilibrium():
    for nu in (0.0, 0.1, 10.0):
        op, om = friction_step(2.0, 2.0, nu=nu, dt=1.0)
        assert op == 2.0 and om == 2.0


def test_friction_golden_ratio_case():
    # a = 2 dt nu = 1, d* = 1  ->  d = (sqrt(5) - 1) / 2
    d = friction_root(1.0, 1.0)
    assert d == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, rel=1e-15)
    assert d == pytest.approx(bisect_friction(1.0, 1.0), abs=1e-12)


@given(st.floats(-50, 50), st.floats(min_value=0, max_value=100))
def test_friction_root_matches_bisection(d_star, a):
    d = friction_root(d_star, a)
    assert d == pytest.approx(bisect_friction(d_star, a), rel=1e-11, abs=1e-12)
    assert abs(d) <= abs(d_star) + 1e-300


@given(
    st.floats(-20, 20),
    st.floats(-20, 20),
    st.floats(0, 5),
    st.floats(1e-3, 10),
)
def test_friction_preserves_sum(rp, rm, nu, dt):
    op, om = friction_step(rp, rm, nu=nu, dt=dt)
    total = rp + rm
    assert op + om == pytest.approx(total, rel=1e-15, abs=1e-15)
    # max principle holds exactly for the root; the recombined pair may add
    # one rounding on each half
    assert abs(op - om) <= abs(rp - rm) * (1.0 + 4e-16) + 1e-300


@given(st.floats(-1e6, 1e6), st.floats(0, 1e6))
def test_friction_root_max_principle_exact(d_star, a):
    assert abs(friction_root(d_star, a)) <= abs(d_star)


def copysign_friction_root(d_star, a):
    """The root in its sign-and-magnitude form."""
    mag = np.abs(d_star)
    return np.copysign(2.0 * mag / (1.0 + np.sqrt(1.0 + 4.0 * a * mag)), d_star)


@given(
    st.one_of(
        st.builds(lambda m, neg: -m if neg else m, st.floats(1e-310, 1e308), st.booleans()),
        st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    ),
    st.floats(1e-12, 1e3),
)
def test_friction_root_equals_copysign_form(d_star, a):
    with np.errstate(over="ignore", invalid="ignore"):
        ref = copysign_friction_root(d_star, a)
        got = [friction_root(d_star, a), friction_root(np.array([d_star, 1.0]), a)[0]]
    for d in got:
        if math.isnan(ref):
            # inf/inf gives a NaN whose sign IEEE 754 leaves open
            assert math.isnan(d)
        else:
            assert d == ref and np.signbit(d) == np.signbit(ref)


def allocating_friction_root(d_star, a):
    """The root as first written, one new array per operation: the reference
    that the in-place kernel must match bit for bit."""
    return 2.0 * d_star / (1.0 + np.sqrt(1.0 + 4.0 * a * np.abs(d_star)))


def allocating_friction_root_shifted(d_star, d_frozen, a):
    rhs = d_star + d_frozen + a * np.abs(d_frozen) * d_frozen
    return allocating_friction_root(rhs, a) - d_frozen


def allocating_friction_step(r_plus, r_minus, nu, dt):
    a = 2.0 * dt * nu
    s = np.asarray(r_plus) + np.asarray(r_minus)
    d = allocating_friction_root(np.asarray(r_plus) - np.asarray(r_minus), a)
    return (s + d) / 2.0, (s - d) / 2.0


FRICTION_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
                     1e300, -1e300, 1e308, -1e308, math.inf, -math.inf, math.nan]
cell_values = st.one_of(st.sampled_from(FRICTION_SPECIALS), st.floats())


@st.composite
def friction_operands(draw):
    """Two operands of one kind: Python floats, 0-d arrays or 1-800 cells."""
    kind = draw(st.sampled_from(["float", "0-d", "cells"]))
    if kind == "cells":
        n = draw(st.integers(1, 800))
        return [draw(arrays(np.float64, n, elements=cell_values)) for _ in range(2)]
    pair = [draw(cell_values) for _ in range(2)]
    return [np.array(x) for x in pair] if kind == "0-d" else pair


def assert_same_bits(got, ref):
    """Equal type, shape, values and signs; a NaN only has to stay a NaN."""
    assert type(got) is type(ref)
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan], ref[~nan])
    assert np.array_equal(np.signbit(got[~nan]), np.signbit(ref[~nan]))


@given(friction_operands(), st.floats(1e-12, 1e3))
def test_in_place_friction_has_the_bits_and_warnings_of_the_allocating_form(pair, a):
    x, y = pair
    kept = [np.array(v) for v in pair]
    results = []
    for root, shifted, step in (
        (allocating_friction_root, allocating_friction_root_shifted, allocating_friction_step),
        (friction_root, friction_root_shifted, friction_step),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # dt = 0.5 makes a = 2 dt nu equal nu exactly
            out = [root(x, a), shifted(x, y, a), *step(x, y, a, 0.5)]
        # numpy names an operation on numpy scalars "scalar add"; the kernel
        # works on arrays, so only the operation and the category must agree
        out.append({(w.category, str(w.message).replace("scalar ", "")) for w in caught})
        results.append(out)
        for before, now in zip(kept, pair):
            assert_same_bits(np.asarray(now), before)
    (*ref, ref_warnings), (*got, got_warnings) = results
    for g, r in zip(got, ref):
        assert_same_bits(g, r)
    assert got_warnings == ref_warnings


def three_array_friction_step(r_plus, r_minus, nu, dt):
    """`friction_step` in its three-array form: a new sum, difference and
    work array per call, the result in the work array and the sum."""
    a = 2.0 * dt * nu
    if a == 0.0:
        return r_plus, r_minus
    s = np.add(r_plus, r_minus, out=...)
    d = np.subtract(r_plus, r_minus, out=...)
    w = np.abs(d, out=...)
    w *= 4.0 * a
    w += 1.0
    np.sqrt(w, w)
    w += 1.0
    d *= 2.0
    d /= w
    np.add(s, d, w)
    w *= 0.5
    np.subtract(s, d, s)
    s *= 0.5
    return (w, s) if w.ndim else (w[()], s[()])


def caught_warnings(call):
    """`call()` and the (category, message) of each warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, {(w.category, str(w.message).replace("scalar ", "")) for w in caught}


@given(friction_operands(), st.sampled_from([0.0, 1e-12, 0.003, 1.0, 1e3]),
       st.sampled_from(["none", "inputs", "swapped", "disjoint"]))
def test_friction_step_gives_the_three_array_bits_under_every_supported_out(pair, nu, mode):
    """With no `out`, with the inputs as `out` in either order, and with an
    `out` that shares no memory with them (which leaves them as they were),
    `friction_step` gives the three-array form's bits and warnings, and
    returns `(out[0], out[1])` whenever `out` is given; with no `out`,
    scalars give numpy scalars for nu > 0 and the inputs for nu = 0."""
    if mode in ("inputs", "swapped") and isinstance(pair[0], float):
        pair = [np.array(x) for x in pair]  # a Python float cannot be written to
    kept = [np.array(x) for x in pair]
    x, y = pair
    (ref_plus, ref_minus), ref_warnings = caught_warnings(lambda: three_array_friction_step(
        *[v if isinstance(v, float) else v.copy() for v in pair], nu, 0.5))
    out = {"none": None, "inputs": (x, y), "swapped": (y, x),
           "disjoint": (np.empty_like(kept[0]), np.empty_like(kept[1]))}[mode]
    (plus, minus), got_warnings = caught_warnings(lambda: friction_step(x, y, nu, 0.5, out))
    assert got_warnings == ref_warnings
    if out is None:
        assert_same_bits(plus, ref_plus)
        assert_same_bits(minus, ref_minus)
        if nu == 0.0:
            assert plus is x and minus is y
    else:
        assert_same_bits(out[0].copy(), np.asarray(ref_plus))
        assert_same_bits(out[1].copy(), np.asarray(ref_minus))
        assert plus is out[0] and minus is out[1]
    if mode in ("none", "disjoint"):
        for before, now in zip(kept, pair):
            assert_same_bits(np.asarray(now), before)


@pytest.mark.parametrize("nu, dt", [(-1.0, 1.0), (math.nan, 1.0), (1.0, 0.0), (1.0, math.nan)])
def test_friction_step_rejects_a_bad_coefficient_or_step(nu, dt):
    with pytest.raises(ValidationError):
        friction_step(1.0, 0.0, nu, dt)


@pytest.mark.parametrize("nu", [0.0, 0.003, 1e3])
def test_the_shared_friction_constants_stay_read_only_and_unchanged(nu):
    """Every friction call shares the constant operands 1, 2 and 1/2, so a
    write to one would silently change every later step: they reject it."""
    def assert_intact():
        for c, value in zip((solver._ONE, solver._TWO, solver._HALF), (1.0, 2.0, 0.5)):
            assert (type(c), c.dtype, c.shape, c.flags.writeable) == (np.ndarray, np.float64,
                                                                      (), False)
            assert c.tobytes() == np.float64(value).tobytes()

    assert_intact()
    for x, y in [(np.array([1.5, -2.0, 0.0, 7e3]), np.array([0.5, 3.0, -0.0, -9e3])),
                 (np.array(1.5), np.array(-2.0)), (1.5, -2.0)]:
        friction_step(x, y, nu, 0.5)
        friction_root(x, nu)
        friction_root_shifted(x, y, nu)
        if not isinstance(x, float):
            friction_step(x, y, nu, 0.5, (x, y))
    assert_intact()
    for out in [(solver._ONE, np.empty(())), (np.empty(()), solver._HALF),
                (solver._TWO, solver._TWO)]:
        with pytest.raises(ValueError):
            friction_step(np.array(1.5), np.array(-2.0), nu, 0.5, out)
    assert_intact()


# ---------------------------------------------------------------------------
# full steps


def test_step_single_pipe_boundary_fill():
    # cfl = 1, frictionless, mu = 0: after n steps the grid holds the pure
    # boundary data, cell i fed at step n-1-i.
    net = NetworkGraph([PipeSpec("p", "a", "b", 40.0, 0.5)])
    grids = build_grids(net, 1.0, 10.0)
    n = grids["p"].n_cells
    state = SimState(grids=grids, dt=10.0)
    u_a = lambda t: 100.0 + t
    u_b = lambda t: -100.0 - t
    controls = {"a": u_a, "b": u_b}
    gains = {"a": 0.0, "b": 0.0}
    for _ in range(n):
        state = step_system(state, net, controls, gains)
    expected_plus = [u_a((n - 1 - i) * 10.0) for i in range(n)]
    expected_minus = [u_b(i * 10.0) for i in range(n)]
    assert state.grids["p"].r_plus.tolist() == expected_plus
    assert state.grids["p"].r_minus.tolist() == expected_minus


def test_step_energy_conserved_per_step(five_pipe):
    # frictionless, mu = +1 at all boundary nodes, cfl = 1: the weighted
    # energy sum_e (D^2/2) dx sum(r+^2 + r-^2), i.e. L0 of the state, is
    # conserved each step.
    net = five_pipe
    grids = build_grids(net, 340.0, 0.5)
    rng = np.random.default_rng(3)
    for g in grids.values():
        g.r_plus[:] = rng.uniform(-2, 2, g.n_cells)
        g.r_minus[:] = rng.uniform(-2, 2, g.n_cells)
    state = SimState(grids=grids, dt=0.5)
    controls = {v: (lambda t: 1234.5) for v in net.boundary_nodes}
    gains = {v: 1.0 for v in net.boundary_nodes}
    e_prev = lyapunov_l0(state.grids, net)
    for _ in range(50):
        state = step_system(state, net, controls, gains)
        e_now = lyapunov_l0(state.grids, net)
        assert e_now == pytest.approx(e_prev, rel=1e-12)
        e_prev = e_now


def test_step_rest_state_is_fixed_point(five_pipe):
    # 60 bar at rest with matching boundary data and friction on
    net = five_pipe.with_theta(0.0137)
    law = IsothermalLaw(c=340.0)
    rho = float(law.density_from_pressure(60.0e5))
    rest, _ = riemann_from_state(law, rho, 0.0)
    grids = build_grids(net, 340.0, 0.5)
    for g in grids.values():
        g.r_plus[:] = g.r_minus[:] = rest
    state = SimState(grids=grids, dt=0.5)
    controls = {v: (lambda t: rest) for v in net.boundary_nodes}
    gains = {v: 0.0 for v in net.boundary_nodes}
    for _ in range(100):
        state = step_system(state, net, controls, gains)
    for g in state.grids.values():
        assert np.max(np.abs(g.r_plus - rest)) <= 1e-12 * abs(rest)
        assert np.max(np.abs(g.r_minus - rest)) <= 1e-12 * abs(rest)


def test_step_missing_control_raises(single_pipe):
    gains = {"a": 0.0, "b": 0.0}
    state = SimState(grids=build_grids(single_pipe, 340.0, 1.0), dt=1.0)
    with pytest.raises(ScheduleError):
        step_system(state, single_pipe, {}, gains)
    # the coupled stepper evaluates the controls through the same path
    other = SimState(grids=build_grids(single_pipe, 340.0, 1.0), dt=1.0)
    cs = CoupledState(state, other, ObserverConfig(mu=gains, controls={"a": lambda t: 0.0}))
    with pytest.raises(ScheduleError):
        step_coupled(cs, single_pipe)


def test_sharp_front_stays_sharp(single_pipe):
    # cfl = 1, no friction: a step profile moves without smearing
    grids = build_grids(single_pipe, 340.0, 0.375)
    g = grids["p"]
    g.r_plus[:] = 0.0
    g.r_plus[: g.n_cells // 2] = 1.0
    state = SimState(grids=grids, dt=0.375)
    controls = {v: (lambda t: 0.0) for v in single_pipe.boundary_nodes}
    gains = {v: 0.0 for v in single_pipe.boundary_nodes}
    for _ in range(2):
        state = step_system(state, single_pipe, controls, gains)
    vals = set(state.grids["p"].r_plus.tolist())
    assert vals == {0.0, 1.0}


@st.composite
def layout_cases(draw):
    """A 1-6-pipe tree or tree plus one cycle-closing pipe, ids in a drawn
    order, grids in either mode and random fields of many magnitudes."""
    n_pipes = draw(st.integers(1, 6))
    cyclic = n_pipes > 1 and draw(st.booleans())
    ends = [(draw(st.integers(0, i)), i + 1) for i in range(n_pipes - cyclic)]
    if cyclic:
        a = draw(st.integers(0, n_pipes - 1))
        ends.append((a, draw(st.integers(0, n_pipes - 1).filter(lambda b: b != a))))
    names = draw(st.permutations(range(n_pipes)))
    graph = NetworkGraph([
        PipeSpec(f"p{names[i]}", f"n{a}", f"n{b}", draw(st.floats(340.0, 5000.0)),
                 draw(st.floats(0.1, 1.5)))
        for i, (a, b) in enumerate(ends)
    ])
    grids = build_grids(graph, 340.0, draw(st.sampled_from([0.125, 0.375, 0.5])),
                        mode=draw(st.sampled_from([MODE_EXACT, MODE_CFL_SAFE])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for g in grids.values():
        g.r_plus[:] = rng.standard_normal(g.n_cells) * 10.0 ** rng.uniform(-3, 3)
        g.r_minus[:] = rng.standard_normal(g.n_cells) * 10.0 ** rng.uniform(-3, 3)
    return graph, grids


@given(layout_cases())
def test_layout_equals_the_per_grid_formulas_bit_for_bit(case):
    graph, grids = case
    layout = Layout.of(grids, graph)
    assert layout.pipes == tuple(p.id for p in graph.pipes)
    assert not layout.x.flags.writeable
    stop = 0
    for p, cells, w in zip(graph.pipes, layout.spans, layout.weights):
        g = grids[p.id]
        assert (cells.start, cells.stop, cells.step) == (stop, stop + g.n_cells, None)
        stop = cells.stop
        assert w == 0.5 * p.diameter ** 2 * g.dx
        assert layout.x[cells].tobytes() == g.cell_centers().tobytes()
    assert stop == len(layout.x)
    plus, minus = layout.pack(grids)
    gs = [grids[p.id] for p in graph.pipes]
    assert plus.tobytes() == np.concatenate([g.r_plus for g in gs]).tobytes()
    assert minus.tobytes() == np.concatenate([g.r_minus for g in gs]).tobytes()
    per_pipe = sum(0.5 * p.diameter ** 2 * g.dx
                   * float(np.dot(g.r_plus, g.r_plus) + np.dot(g.r_minus, g.r_minus))
                   for p, g in zip(graph.pipes, gs))
    views = layout.views(np.array([plus, minus]))
    assert quadrature(views, layout.weights) == per_pipe
    for g, (a, b) in zip(gs, views):
        assert a.tobytes() == g.r_plus.tobytes() and b.tobytes() == g.r_minus.tobytes()


@given(layout_cases())
def test_read_slots_follow_the_end_cell_rule(case):
    """Node by node and pipe end by pipe end, a read slot indexes R+ at x = L
    of a pipe the node ends and R- at x = 0 of any other, in the pipe order
    of `diameters_at`, which the node maps zip the reads with.  `ends[i]`
    gives the positions among them of pipe i's from_node and to_node reads."""
    graph, grids = case
    layout = Layout.of(grids, graph)
    ends = [(v, p) for v in graph.nodes for p in graph.incident_pipes(v)]
    assert [p.id for _, p in ends] == [e for v in graph.nodes for e in graph.diameters_at(v)]
    pair = np.array(layout.pack(grids))
    assert layout.read_slots.shape == (len(ends),) and not layout.read_slots.flags.writeable
    for slot, (v, p) in zip(layout.read_slots.tolist(), ends):
        g = grids[p.id]
        want = g.r_plus.item(-1) if v == p.to_node else g.r_minus.item(0)
        assert pair.take(slot) == want
        row, cell = divmod(slot, len(layout.x))
        cells = layout.spans[layout.pipes.index(p.id)]
        assert (row, cell) == ((0, cells.stop - 1) if v == p.to_node else (1, cells.start))
    assert len(layout.ends) == len(graph.pipes)
    for p, (a, b) in zip(graph.pipes, layout.ends):
        assert (ends[a], ends[b]) == ((p.from_node, p), (p.to_node, p))


def empty_grid_like(g):
    """A grid of `g`'s geometry over new fields, filled with NaN."""
    return EdgeGrid(g.pipe, g.n_cells, g.dx, g.cfl, np.full(g.n_cells, np.nan),
                    np.full(g.n_cells, np.nan), g.length_perturbation)


def assert_shift_views(g):
    """`g`'s shift views view its own fields, each at its offset: `plus_src`
    r_plus[:-1], `minus_src` r_minus[1:], `plus_dst` r_plus[1:] and
    `minus_dst` r_minus[:-1]."""
    for view, fld, first in ((g.plus_src, g.r_plus, 0), (g.minus_src, g.r_minus, 1),
                             (g.plus_dst, g.r_plus, 1), (g.minus_dst, g.r_minus, 0)):
        address = fld.__array_interface__["data"][0] + first * fld.strides[0]
        assert view.__array_interface__["data"][0] == address
        assert (view.shape, view.strides, view.dtype) == ((g.n_cells - 1,), fld.strides, fld.dtype)
        assert np.shares_memory(view, fld)


@given(layout_cases(), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.booleans())
def test_advected_grid_equals_a_checked_grid_field_by_field(case, inflow_plus, inflow_minus,
                                                            into_out):
    """`advect_step`'s grid, new or `out`, equals the one the checked
    constructor makes over its fields, field by field, shift views included."""
    _, grids = case
    for g in grids.values():
        out = empty_grid_like(g) if into_out else None
        new = advect_step(g, inflow_plus, inflow_minus, out)
        assert new is out if into_out else new is not g
        want = EdgeGrid(g.pipe, g.n_cells, g.dx, g.cfl, new.r_plus.copy(), new.r_minus.copy(),
                        g.length_perturbation)
        assert type(new) is EdgeGrid
        for f in fields(EdgeGrid):
            got, ref = getattr(new, f.name), getattr(want, f.name)
            assert type(got) is type(ref)
            if isinstance(ref, np.ndarray):
                assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())
            else:
                assert got == ref
        assert_shift_views(new)


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=12), st.floats(0.0, 1.0),
       st.floats(0.0, 0.01), st.booleans())
def test_kernel_writes_into_out_with_the_bits_of_new_arrays(cells, cfl, nu, onto_inputs):
    grid = make_grid(cells, cells[::-1], cfl=cfl)
    kept = grid.r_plus.copy(), grid.r_minus.copy()
    out = np.empty((2, len(cells)))
    into = EdgeGrid("p", len(cells), grid.dx, cfl, out[0], out[1])
    advected = advect_step(grid, 1.5, -2.5, into)
    want = advect_step(grid, 1.5, -2.5)
    assert advected is into
    assert np.shares_memory(advected.r_plus, out[0]) and np.shares_memory(advected.r_minus, out[1])
    assert out.tobytes() == np.array([want.r_plus, want.r_minus]).tobytes()
    assert (grid.r_plus.tobytes(), grid.r_minus.tobytes()) == tuple(a.tobytes() for a in kept)
    # friction_step into a second pair or over its own inputs; nu = 0 is the copy branch
    ref = np.array(friction_step(out[0], out[1], nu, 0.5))
    target = out if onto_inputs else np.empty_like(out)
    before = out.copy()
    friction_step(out[0], out[1], nu, 0.5, (target[0], target[1]))
    assert target.tobytes() == ref.tobytes()
    if not onto_inputs:
        assert out.tobytes() == before.tobytes()


# every sign of zero, the smallest subnormals and values up to 1e300
extreme_floats = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]),
                           st.floats(-1e300, 1e300))


@given(st.integers(2, 40).flatmap(lambda n: st.tuples(
           st.lists(extreme_floats, min_size=n, max_size=n),
           st.lists(extreme_floats, min_size=n, max_size=n))),
       st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_max=True)),
       extreme_floats, extreme_floats)
def test_advecting_into_a_grid_gives_the_bits_of_a_new_grid(cells, cfl, inflow_plus,
                                                            inflow_minus):
    """In both modes (cfl = 1, the copy, and cfl < 1, the blend), `advect_step`
    into a grid `out` holding other values writes the bits it writes into a
    new grid, returns `out` and leaves the input's bits as they were."""
    grid = make_grid(*cells, cfl=cfl)
    kept = grid.r_plus.tobytes(), grid.r_minus.tobytes()
    out = empty_grid_like(grid)
    want = advect_step(grid, inflow_plus, inflow_minus)
    assert advect_step(grid, inflow_plus, inflow_minus, out) is out
    assert (out.r_plus.tobytes(), out.r_minus.tobytes()) == \
        (want.r_plus.tobytes(), want.r_minus.tobytes())
    assert (grid.r_plus.tobytes(), grid.r_minus.tobytes()) == kept
    assert_shift_views(out)


@given(layout_cases())
def test_every_way_of_making_a_grid_makes_its_shift_views(case):
    """Grids made by the constructor, `dataclasses.replace`,
    `Layout.packed_state`, `SimState.empty_like` and `advect_step` without
    `out` each view their own fields through their shift views."""
    graph, grids = case
    packed = SimState(grids, dt=0.5).packed_on(graph)
    made = [*grids.values(), *packed.grids.values(), *packed.empty_like().grids.values()]
    for g in grids.values():
        made += [replace(g, r_plus=g.r_plus.copy()), replace(g, r_minus=g.r_minus.copy()),
                 empty_grid_like(g), advect_step(g, 1.0, -1.0)]
    for g in made:
        assert_shift_views(g)


@pytest.mark.parametrize("cells, size", [(2, 3), (2, 5), (5, 2), (5, 4), (5, 6), (40, 39),
                                         (40, 41)])
def test_advect_step_rejects_an_out_grid_of_another_size(cells, size):
    """One size rule at every size: an `out` grid of other than the input's
    n_cells raises ValidationError naming the pipe, before any write."""
    grid = make_grid(np.arange(cells, dtype=float), np.ones(cells))
    out = EdgeGrid("q", size, 10.0, 1.0, np.zeros(size), np.zeros(size))
    with pytest.raises(ValidationError, match="^advect_step on 'p': out is not of the grid's size$"):
        advect_step(grid, 1.0, 2.0, out)
    assert (out.r_plus.tolist(), out.r_minus.tolist()) == ([0.0] * size, [0.0] * size)
