"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from gasnetsim.bounds import (
    c0_constant,
    decay_certificates,
    upsilon0,
    wellposedness_constants,
)
from gasnetsim.diagnostics import fit_decay_rate, lyapunov_l0, nodal_energy_residual
from gasnetsim.fileio import (
    InitialCondition,
    ScenarioSpec,
    bundled_path,
    parse_network_file,
    parse_scenario_file,
)
from gasnetsim.network import NetworkGraph, PipeSpec, junction_outflow
from gasnetsim.observer import (
    CoupledState,
    difference_state,
    direct_diff_step,
    observer_node_update,
    step_coupled,
)
from gasnetsim.physics import (
    AgaLaw,
    IsentropicLaw,
    IsothermalLaw,
    riemann_from_state,
    state_from_riemann,
)
from gasnetsim.run import assemble, run_observer_pair
from gasnetsim.solver import (
    SimState,
    build_grids,
    friction_root,
    friction_step,
    step_system,
)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {num:2d}] {status}: {name}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def five_pipe_network(theta=0.0):
    return NetworkGraph(
        [
            PipeSpec("p0", "n0", "n2", 1700.0, 0.6, theta),
            PipeSpec("p1", "n1", "n2", 2040.0, 0.5, theta),
            PipeSpec("p2", "n2", "n3", 2380.0, 0.8, theta),
            PipeSpec("p3", "n3", "n4", 1360.0, 0.5, theta),
            PipeSpec("p4", "n3", "n5", 1020.0, 0.4, theta),
        ]
    )


def test_criterion_01_junction_algebra():
    rng = np.random.default_rng(20240401)
    start = time.perf_counter()
    worst_kirchhoff = worst_spread = worst_nodal = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        diam = {f"e{i}": float(d) for i, d in enumerate(rng.uniform(0.4, 1.0, k))}
        incoming = {e: float(x) for e, x in zip(diam, rng.uniform(-10, 10, k))}
        out = junction_outflow(incoming, diam)
        scale = max(abs(x) for x in incoming.values()) or 1.0
        kirchhoff = abs(sum(diam[e] ** 2 * (out[e] - incoming[e]) for e in out))
        sums = [out[e] + incoming[e] for e in out]
        spread = max(sums) - min(sums)
        worst_kirchhoff = max(worst_kirchhoff, kirchhoff / scale)
        worst_spread = max(worst_spread, spread / scale)

        mu = float(rng.uniform(-1, 1))
        r_in = {e: float(x) for e, x in zip(diam, rng.uniform(-10, 10, k))}
        r_out = observer_node_update(mu, diam, r_in, incoming, out)
        delta_in = {e: r_in[e] - incoming[e] for e in diam}
        delta_out = {e: r_out[e] - out[e] for e in diam}
        worst_nodal = max(
            worst_nodal, nodal_energy_residual(delta_in, delta_out, mu, diam)
        )
    elapsed = time.perf_counter() - start
    ok = (
        worst_kirchhoff <= 1e-12
        and worst_spread <= 1e-12
        and worst_nodal <= 1e-12
        and elapsed < 1.0
    )
    report(
        1,
        "junction algebra on random junctions",
        ok,
        f"kirchhoff={worst_kirchhoff:.2e}, spread={worst_spread:.2e}, "
        f"nodal={worst_nodal:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_friction_split():
    rng = np.random.default_rng(7070)
    n = 100_000
    d_star = rng.uniform(-50.0, 50.0, n)
    a = 10.0 ** rng.uniform(-8.0, 2.0, n)
    start = time.perf_counter()
    d = friction_root(d_star, a)

    lo = np.where(d_star < 0.0, d_star, 0.0)
    hi = np.where(d_star < 0.0, 0.0, d_star)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        below = mid + a * np.abs(mid) * mid < d_star
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    oracle = 0.5 * (lo + hi)
    root_err = float(np.max(np.abs(d - oracle) / np.maximum(1.0, np.abs(oracle))))

    rp = rng.uniform(-50.0, 50.0, n)
    rm = rng.uniform(-50.0, 50.0, n)
    nu, dt = 0.003425, 0.5
    op, om = friction_step(rp, rm, nu, dt)
    scale = np.maximum(np.abs(rp + rm), np.abs(rp - rm))
    scale = np.maximum(scale, 1e-300)
    sum_err = float(np.max(np.abs((op + om) - (rp + rm)) / scale))
    elapsed = time.perf_counter() - start
    ok = root_err <= 1e-12 and sum_err <= 1e-15 and elapsed < 1.0
    report(
        2,
        "implicit friction root vs bisection oracle",
        ok,
        f"root={root_err:.2e}, sum={sum_err:.2e}, {elapsed:.2f}s over {n} samples",
    )


def test_criterion_03_finite_time_sync():
    start = time.perf_counter()
    # single pipe: L/c = 3 s
    single = NetworkGraph([PipeSpec("p", "a", "b", 1020.0, 0.5)])
    scn = ScenarioSpec(
        theta=0.0,
        t_end=6.0,
        dt=0.375,
        mu_uniform=0.0,
        ic_s={"p": InitialCondition("half_step", 60.0, 2.0)},
        ic_r={"p": InitialCondition("half_step", 60.0, 1.5)},
    )
    res = run_observer_pair(single, scn, record_l1=False)
    s = res.series
    single_ok = (
        s.l0[0] > 0.0
        and all(v == 0.0 for t, v in zip(s.times, s.l0) if t > 3.0)
        and any(v > 0.0 for t, v in zip(s.times, s.l0) if t <= 3.0)
    )

    # 3-pipe star, unobserved hub (mu = 1), observed leaves: sync within
    # two traversals of the longest pipe (2 * 680 / 340 = 4 s)
    star = NetworkGraph(
        [
            PipeSpec("s0", "leaf0", "hub", 340.0, 0.5),
            PipeSpec("s1", "leaf1", "hub", 510.0, 0.6),
            PipeSpec("s2", "hub", "leaf2", 680.0, 0.8),
        ]
    )
    scn_star = ScenarioSpec(
        theta=0.0,
        t_end=8.0,
        dt=0.25,
        mu_uniform=0.0,
        mu_overrides={"hub": 1.0},
        ic_s={
            "s0": InitialCondition("half_step", 60.0, 2.0),
            "s2": InitialCondition("sinusoidal", 60.0, 1.0, 2),
        },
    )
    res_star = run_observer_pair(star, scn_star, record_l1=False)
    ss = res_star.series
    star_ok = (
        ss.l0[0] > 0.0
        and all(v == 0.0 for t, v in zip(ss.times, ss.l0) if t > 4.0)
    )
    elapsed = time.perf_counter() - start
    ok = single_ok and star_ok and elapsed < 1.0
    report(
        3,
        "finite-time synchronization without friction",
        ok,
        f"single sync at {s.sync_time()}s, star sync at {ss.sync_time()}s, {elapsed:.2f}s",
    )


def test_criterion_04_conservation_without_injection():
    start = time.perf_counter()
    net = five_pipe_network(theta=0.0)
    mu = {"n0": 1.0, "n1": -1.0, "n2": 1.0, "n3": -1.0, "n4": 1.0, "n5": -1.0}
    grids = build_grids(net, 340.0, 0.5)  # cfl = 1 on every pipe
    rng = np.random.default_rng(99)
    for g in grids.values():
        g.r_plus[:] = rng.normal(size=g.n_cells)
        g.r_minus[:] = rng.normal(size=g.n_cells)
    d = SimState(grids=grids, dt=0.5)
    l0_0 = lyapunov_l0(d.grids, net)
    drift = 0.0
    for _ in range(1000):
        d = direct_diff_step(d, net, mu)
        drift = max(drift, abs(lyapunov_l0(d.grids, net) - l0_0))
    elapsed = time.perf_counter() - start
    ok = drift <= 1e-12 * l0_0 and elapsed < 1.0
    report(
        4,
        "discrete L0 conserved at |mu| = 1 without friction",
        ok,
        f"relative drift {drift / l0_0:.2e} over 1000 steps, {elapsed:.2f}s",
    )


def _half_step_scenario(**overrides):
    base = dict(
        theta=0.0137,
        t_end=60.0,
        dt=0.5,
        mu_uniform=0.0,
        ic_s={
            "p2": InitialCondition("half_step", 60.0, 2.0),
            "p0": InitialCondition("half_step", 60.0, 2.0),
            "p4": InitialCondition("half_step", 60.0, 1.0),
        },
        ic_r={
            "p2": InitialCondition("half_step", 60.0, 1.5),
            "p0": InitialCondition("half_step", 60.0, 1.5),
            "p4": InitialCondition("half_step", 60.0, 0.75),
        },
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def test_criterion_05_monotone_decay():
    start = time.perf_counter()
    net = five_pipe_network()
    scn = _half_step_scenario(
        t_end=120.0,
        mu_uniform=0.3,
        mu_overrides={"n2": -0.7, "n4": 1.0, "n5": 0.9, "n1": -1.0},
    )
    res = run_observer_pair(net, scn, record_l1=False)
    l0 = res.series.l0
    increase = float(np.max(np.diff(l0)))
    elapsed = time.perf_counter() - start
    ok = increase <= 1e-10 * l0[0] and elapsed < 5.0
    report(
        5,
        "L0 non-increasing for |mu| <= 1",
        ok,
        f"worst step increase {increase / l0[0]:.2e} of L0(0), {elapsed:.2f}s",
    )


def test_criterion_06_window_contraction_certificate():
    start = time.perf_counter()
    net = five_pipe_network()
    t0 = 2380.0 / 340.0  # longest pipe travel time, 7 s
    scn = _half_step_scenario(t_end=4.0 * t0, mu_uniform=0.0)
    res = run_observer_pair(net, scn, record_l1=False)
    m_tilde, b_tilde = res.m_tilde, res.b_tilde
    eff = res.graph
    mu = {v: 0.0 for v in eff.nodes}
    cert = decay_certificates(eff, mu, m_tilde, b_tilde, 340.0)
    factor = cert.l0_window_factor
    l0 = res.series.l0
    k = math.ceil(t0 / 0.5)
    violations = 0
    worst_ratio = 0.0
    for i in range(k, len(l0) - k):
        lhs, rhs = l0[i + k], factor * l0[i - k]
        if lhs > rhs:
            violations += 1
        if l0[i - k] > 0:
            worst_ratio = max(worst_ratio, l0[i + k] / l0[i - k])
    elapsed = time.perf_counter() - start
    ok = violations == 0 and 0.0 < factor <= 1.0 and elapsed < 10.0
    report(
        6,
        "simulated series satisfies the window-contraction certificate",
        ok,
        f"factor={factor:.4f}, worst simulated ratio={worst_ratio:.2e}, "
        f"m_tilde={m_tilde:.2f}, b_tilde={b_tilde:.2f}, {elapsed:.2f}s",
    )


def test_criterion_07_benchmark_scale_reproduction():
    start = time.perf_counter()
    net = parse_network_file(bundled_path("gaslib40_like.net"))
    scn = parse_scenario_file(bundled_path("step_friction.scn"))
    window = (150.0, 580.0)

    slopes = {}
    for label, preset in (
        ("0", dict(mu_preset="uniform", mu_uniform=0.0)),
        ("0.5", dict(mu_preset="uniform", mu_uniform=0.5)),
        ("-0.5", dict(mu_preset="uniform", mu_uniform=-0.5)),
        ("1", dict(mu_preset="uniform", mu_uniform=1.0)),
        ("mixed", dict(mu_preset="mixed")),
    ):
        run = run_observer_pair(
            net, dataclasses.replace(scn, **preset), record_l1=False
        )
        rate, _ = fit_decay_rate(run.series, window)
        slopes[label] = -rate  # ln-slope: negative means decay

    decaying = all(slopes[k] < 0.0 for k in ("0", "0.5", "-0.5", "mixed"))
    ordering = abs(slopes["0"]) > abs(slopes["0.5"])
    weak_unit_gain = abs(slopes["1"]) < 0.1 * abs(slopes["0"])

    sync_scn = dataclasses.replace(
        scn, theta=0.0, mu_preset="uniform", mu_uniform=0.0, t_end=280.0
    )
    sync_run = run_observer_pair(net, sync_scn, record_l1=False)
    sync = sync_run.series.sync_time()
    t0 = max(p.length for p in net.pipes) / 340.0
    sync_ok = sync is not None and abs(sync - t0) <= 0.05 * t0
    elapsed = time.perf_counter() - start
    ok = decaying and ordering and weak_unit_gain and sync_ok and elapsed < 60.0
    report(
        7,
        "benchmark-scale qualitative reproduction",
        ok,
        "ln-slopes "
        + ", ".join(f"mu={k}: {v:.5f}" for k, v in slopes.items())
        + f"; sync {sync:.1f}s vs T0 {t0:.1f}s; {elapsed:.1f}s",
    )


def test_criterion_08_direct_diff_oracle_equivalence():
    start = time.perf_counter()
    net = five_pipe_network()
    # base pressure chosen so the invariants are O(10): the pairwise
    # subtraction oracle then sits far above its own rounding floor
    scn = ScenarioSpec(
        theta=0.0137,
        t_end=250.0,
        dt=0.5,
        mu_uniform=0.9,
        rest_pressure_bar=1.25,
        ic_s={"p2": InitialCondition("half_step", 1.25, 0.08)},
        ic_r={
            "p2": InitialCondition("half_step", 1.25, 0.05),
            "p0": InitialCondition("sinusoidal", 1.25, 0.03, 2),
        },
    )
    asm = assemble(net, scn)
    cs = CoupledState(asm.s_state, asm.r_state, asm.config)
    d_state = difference_state(asm.r_state, asm.s_state)
    s_state = asm.s_state
    worst = 0.0
    assert asm.n_steps == 500
    for _ in range(asm.n_steps):
        cs, _ = step_coupled(cs, asm.graph)
        s_state = step_system(s_state, asm.graph, asm.config.controls, asm.mu)
        d_state = direct_diff_step(d_state, asm.graph, asm.mu, s_new=s_state)
        sub = difference_state(cs.r_state, cs.s_state)
        for pid in sub.grids:
            worst = max(
                worst,
                float(np.max(np.abs(sub.grids[pid].r_plus - d_state.grids[pid].r_plus))),
                float(np.max(np.abs(sub.grids[pid].r_minus - d_state.grids[pid].r_minus))),
            )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    report(
        8,
        "direct error system equals pairwise subtraction",
        ok,
        f"max deviation {worst:.2e} over 500 steps, {elapsed:.2f}s",
    )


def test_criterion_09_closed_form_constants():
    c = 340.0
    c0_ok = (
        c0_constant(0.0, 86690.0, 0.003425, c) == 4.0 * c
        and c0_constant(0.0, 1.0, 0.0, c) == 4.0 * c
    )
    net = NetworkGraph([PipeSpec("p", "a", "b", 100.0, 0.5, 0.0137)])
    cert = decay_certificates(net, {"a": 0.4, "b": 0.2}, m_tilde=0.5, b_tilde=0.0, c=c)
    delta_ok = cert.delta_nu_t0 == 1.0

    ups_ok = (
        abs(upsilon0(net, {"a": 0.0, "b": 0.0}) - 2.0) <= 1e-15
        and abs(upsilon0(net, {"a": 1.0, "b": 1.0})) <= 1e-15
        and abs(upsilon0(net, {"a": 0.0, "b": 1.0}) - 1.0) <= 1e-15
        and abs(upsilon0(net, {"a": 0.5, "b": 1.0}) - 0.6) <= 1e-15
    )

    at = wellposedness_constants(1.0, 1.0, 0.0625)  # l_kontr = 1 exactly
    below = wellposedness_constants(math.nextafter(1.0, 0.0), 1.0, 0.0625)
    flag_ok = (
        at.l_kontr == 1.0
        and not at.epsilon_valid
        and at.epsilon is None
        and below.epsilon_valid
        and below.l_kontr < 1.0
    )
    ok = c0_ok and delta_ok and ups_ok and flag_ok
    report(
        9,
        "closed-form constants and validity flags",
        ok,
        f"c0(0)=4c {c0_ok}, delta(0)=1 {delta_ok}, upsilon0 {ups_ok}, flag {flag_ok}",
    )


def test_criterion_10_physics_round_trips():
    laws = [
        IsothermalLaw(c=340.0),
        IsentropicLaw(a=1.0, gamma=2.0),
        AgaLaw(rs_t=115600.0, alpha=-0.01),
    ]

    def simpson(f, a, b, tol=1e-12):
        n, prev = 16, None
        for _ in range(24):
            xs = np.linspace(a, b, n + 1)
            ys = f(xs)
            val = (b - a) / (3 * n) * (
                ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum()
            )
            if prev is not None and abs(val - prev) <= tol * max(1.0, abs(val)):
                return val
            prev, n = val, n * 2
        raise AssertionError("oracle quadrature did not converge")

    worst_round = 0.0
    worst_oracle = 0.0
    rng = np.random.default_rng(31)
    for law in laws:
        rhos = np.exp(rng.uniform(np.log(0.1), np.log(20.0), 40))
        vels = rng.uniform(-15.0, 15.0, 40)
        for rho, v in zip(rhos, vels):
            rho, v = float(rho), float(v)
            rp, rm = riemann_from_state(law, rho, rho * v)
            back = state_from_riemann(law, rp, rm)
            scale = max(1.0, abs(rp), abs(rm))
            worst_round = max(
                worst_round,
                abs(back.rho - rho) / rho,
                abs(back.velocity - v) / scale,
            )
        if not isinstance(law, IsothermalLaw):
            for rho in (0.3, 0.9, 2.5, 8.0):
                oracle = simpson(
                    lambda r: np.sqrt(np.asarray(law.dpressure(r), dtype=float)) / r,
                    1.0,
                    rho,
                ) if rho >= 1.0 else -simpson(
                    lambda r: np.sqrt(np.asarray(law.dpressure(r), dtype=float)) / r,
                    rho,
                    1.0,
                )
                err = abs(float(law.rtilde(rho)) - oracle) / max(1.0, abs(oracle))
                worst_oracle = max(worst_oracle, err)
    ok = worst_round <= 1e-12 and worst_oracle <= 1e-9
    report(
        10,
        "invariant round trips and quadrature cross-check",
        ok,
        f"round-trip {worst_round:.2e}, oracle agreement {worst_oracle:.2e}",
    )
