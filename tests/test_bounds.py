import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gasnetsim.bounds import (
    BoundInputs,
    c0_constant,
    c1_constant,
    decay_certificates,
    upsilon0,
    upsilon_factor,
    wellposedness_constants,
)
from gasnetsim.errors import ValidationError
from gasnetsim.network import NetworkGraph, PipeSpec


def one_pipe(length=100.0, theta=4e-4, diameter=0.5):
    return NetworkGraph([PipeSpec("p", "a", "b", length, diameter, theta)])


def test_wellposedness_half_contraction():
    # T nu_max m = 1/32  ->  l_kontr = 1/2, epsilon = m/6
    wp = wellposedness_constants(t_horizon=1.0, m=1.0, nu_max=1.0 / 32.0)
    assert wp.l_kontr == 0.5
    assert wp.epsilon_valid
    assert wp.epsilon == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert wp.t_threshold == 2.0


def test_wellposedness_small_horizon_limit():
    wp = wellposedness_constants(t_horizon=1e-280, m=2.0, nu_max=0.1)
    assert wp.gronwall_factor == 1.0


def test_wellposedness_benchmark_friction():
    wp = wellposedness_constants(t_horizon=1.0, m=1.0, nu_max=0.003425)
    assert wp.l_kontr == pytest.approx(0.0548, rel=1e-12)
    assert wp.gronwall_factor == pytest.approx(math.exp(0.0548), rel=1e-12)


def test_wellposedness_flag_flips_exactly_at_one():
    # 16 * 0.0625 = 1 exactly in binary floating point
    at = wellposedness_constants(t_horizon=1.0, m=1.0, nu_max=0.0625)
    assert at.l_kontr == 1.0
    assert not at.epsilon_valid
    assert at.epsilon is None
    below = wellposedness_constants(
        t_horizon=math.nextafter(1.0, 0.0), m=1.0, nu_max=0.0625
    )
    assert below.epsilon_valid
    assert below.epsilon is not None and below.epsilon > 0


def test_wellposedness_frictionless():
    wp = wellposedness_constants(t_horizon=5.0, m=1.0, nu_max=0.0)
    assert wp.l_kontr == 0.0
    assert wp.t_threshold == math.inf
    assert wp.gronwall_factor == 1.0
    assert wp.epsilon == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_c0_friction_free_is_4c():
    assert c0_constant(0.0, 86690.0, 0.003425, 340.0) == 4.0 * 340.0
    assert c0_constant(0.5, 1000.0, 0.0, 340.0) == 4.0 * 340.0


def test_c0_benchmark_value_two_paths():
    c, length, nu, mt = 340.0, 86690.0, 0.003425, 0.01
    val = c0_constant(mt, length, nu, c)
    # second arithmetic path, factored differently
    z = nu * mt * length * 4.0
    other = 4.0 * c + 2.0 * z * math.exp(z / c)
    assert val == pytest.approx(other, rel=1e-12)
    assert val == pytest.approx(1384.60, abs=0.01)


@given(st.floats(0, 5), st.floats(0, 5))
def test_c0_monotone_in_m_tilde(a, b):
    lo, hi = sorted((a, b))
    assert c0_constant(lo, 5000.0, 0.003, 340.0) <= c0_constant(hi, 5000.0, 0.003, 340.0)


def test_upsilon_factor():
    assert upsilon_factor(0.0, 0.0) == 0.0
    assert upsilon_factor(1.0, 1.0) == 0.5
    assert upsilon_factor(0.0, 2.0) == 2.0
    with pytest.raises(ValidationError):
        upsilon_factor(-1.0, 0.0)


def test_upsilon_factor_beyond_the_float_range_of_its_squares():
    # max^2 / (m + b) = max / (1 + min / max), without an inf / inf
    assert upsilon_factor(1e308, 1e308) == 5e307
    assert upsilon_factor(1e200, 0.0) == 1e200
    assert upsilon_factor(3e200, 1e200) == 3e200 / (1.0 + 1e200 / 3e200)


def test_exponentials_beyond_the_float_range_give_inf():
    # one 50 km pipe with the benchmark friction: exponents in the thousands
    net, nu, c = one_pipe(length=5.0e4, theta=0.0137), 0.0137 / 4.0, 340.0
    assert wellposedness_constants(600.0, 1.0e3, nu).gronwall_factor == math.inf
    assert c0_constant(1.0e3, 5.0e4, nu, c) == math.inf
    assert c1_constant(10.0, 1.0e3, net, c) == math.inf  # finite C0, overflowing third term
    cert = decay_certificates(net, {"a": 0.0, "b": 0.0}, 10.0, 1.0e3, c)
    assert cert.delta_nu_t0 == cert.h1_condition_lhs == cert.c1 == math.inf
    assert cert.h1_condition_rhs == 0.0 and not cert.h1_holds
    cert = decay_certificates(net, {"a": 0.0, "b": 0.0}, 1.0e3, 0.0, c)
    assert cert.c0 == math.inf and cert.l0_window_factor == 1.0


def test_c1_frictionless_pipe_adds_nothing_for_any_bounds():
    # 0 * exp(0 * inf) would be nan once m_tilde + b_tilde overflows
    assert c1_constant(1e308, 1e308, one_pipe(theta=0.0), 340.0) == 6.0 * 340.0


def test_c1_degenerate_is_6c():
    net = one_pipe()
    assert c1_constant(0.0, 0.0, net, 340.0) == 6.0 * 340.0


def test_c1_two_evaluation_orders():
    net = NetworkGraph(
        [
            PipeSpec("p", "a", "b", 86690.0, 1.0, 0.0137),
            PipeSpec("q", "b", "c", 3068.0, 0.4, 0.0137),
        ]
    )
    mt = bt = 0.01
    c = 340.0
    val = c1_constant(mt, bt, net, c)
    ups = max(mt * mt, bt * bt) / (mt + bt)
    per_edge_c0 = [
        2.0 * (2.0 * c + 4.0 * p.length * p.nu * mt * math.exp(4.0 * p.length * p.nu * mt / c))
        for p in net.pipes
    ]
    per_edge_third = [
        16.0 * p.nu * p.length * ups * math.exp(4.0 * p.nu * (mt + bt) * p.length / c)
        for p in net.pipes
    ]
    other = max(per_edge_c0) + 2.0 * c + max(per_edge_third)
    assert val == pytest.approx(other, rel=1e-12)
    assert math.isfinite(val)


def test_upsilon0_examples(five_pipe):
    net = one_pipe()
    assert upsilon0(net, {"a": 0.0, "b": 0.0}) == 2.0
    assert upsilon0(net, {"a": 1.0, "b": 1.0}) == 0.0
    assert upsilon0(net, {"a": 0.0, "b": 1.0}) == 1.0
    assert upsilon0(net, {"a": 0.5, "b": 1.0}) == pytest.approx(0.6, abs=1e-15)
    mu = {v: 0.0 for v in five_pipe.nodes}
    assert upsilon0(five_pipe, mu) == 2.0
    with pytest.raises(ValidationError):
        upsilon0(net, {"a": 2.0, "b": 0.0})


def test_certificate_delta_is_one_without_b():
    net = one_pipe(theta=0.0137)
    cert = decay_certificates(net, {"a": 0.0, "b": 0.0}, m_tilde=0.3, b_tilde=0.0, c=340.0)
    assert cert.delta_nu_t0 == 1.0


def test_certificate_no_contraction_at_unit_gain():
    net = one_pipe(theta=0.0137)
    cert = decay_certificates(net, {"a": 1.0, "b": 1.0}, m_tilde=0.3, b_tilde=0.1, c=340.0)
    assert cert.ups0 == 0.0
    assert cert.l0_window_factor == 1.0


def test_certificate_window_factor_range(five_pipe):
    net = five_pipe.with_theta(0.0137)
    for val in (0.0, 0.3, 0.9):
        mu = {v: val for v in net.nodes}
        cert = decay_certificates(net, mu, 0.5, 0.2, 340.0)
        assert 0.0 < cert.l0_window_factor < 1.0
        assert cert.l0_window_factor == 1.0 / (1.0 + 340.0 / cert.c0 * cert.ups0)


def test_h1_condition_flips_with_length():
    small = one_pipe(length=100.0, theta=4e-4)
    cert_small = decay_certificates(
        small, {"a": 0.0, "b": 0.0}, m_tilde=0.01, b_tilde=0.01, c=340.0
    )
    assert cert_small.h1_holds
    big = one_pipe(length=1.0e6, theta=4e-4)
    cert_big = decay_certificates(
        big, {"a": 0.0, "b": 0.0}, m_tilde=0.01, b_tilde=0.01, c=340.0
    )
    assert not cert_big.h1_holds
    # monotone in between: the lhs grows and the rhs shrinks with length
    assert cert_big.h1_condition_lhs > cert_small.h1_condition_lhs
    assert cert_big.h1_condition_rhs < cert_small.h1_condition_rhs


@given(st.floats(0, 2), st.floats(0, 2))
def test_certificate_monotone_in_regularity(mt, bt):
    net = one_pipe(length=5.0e4, theta=0.0137)
    mu = {"a": 0.2, "b": 0.4}
    base = decay_certificates(net, mu, mt, bt, 340.0)
    bumped = decay_certificates(net, mu, mt + 0.1, bt + 0.1, 340.0)
    assert bumped.c0 >= base.c0
    assert bumped.c1 >= base.c1
    assert bumped.delta_nu_t0 >= base.delta_nu_t0
    assert bumped.l0_window_factor >= base.l0_window_factor


def test_bound_inputs_from_graph(five_pipe):
    net = five_pipe.with_theta(0.0137)
    bi = BoundInputs.from_graph(net, c=340.0, t_horizon=60.0, m=1.0, m_tilde=0.1)
    assert bi.t0_min == pytest.approx(1020.0 / 340.0)
    assert bi.t0_max == pytest.approx(2380.0 / 340.0)
    assert bi.nu_max == pytest.approx(0.0137 / 4.0)
    with pytest.raises(ValidationError):
        BoundInputs.from_graph(net, c=340.0, t_horizon=60.0, m=-1.0)


@pytest.mark.parametrize(
    "bounds",
    [{"m": math.nan}, {"m": math.inf}, {"m_tilde": math.nan}, {"m_tilde": math.inf},
     {"b_tilde": math.nan}, {"b_tilde": math.inf}],
)
def test_bound_inputs_reject_non_finite(five_pipe, bounds):
    with pytest.raises(ValidationError):
        BoundInputs.from_graph(five_pipe, c=340.0, t_horizon=60.0, **{"m": 1.0, **bounds})
