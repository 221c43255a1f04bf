import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gasnetsim.errors import DomainError, ValidationError
from gasnetsim.physics import (
    AgaLaw,
    GasState,
    IsentropicLaw,
    IsothermalLaw,
    mach_number,
    pressure_from_riemann,
    riemann_from_state,
    state_from_riemann,
)

LAWS = [
    IsothermalLaw(c=340.0),
    IsentropicLaw(a=1.0, gamma=2.0),
    IsentropicLaw(a=40000.0, gamma=1.4),
    AgaLaw(rs_t=115600.0, alpha=-0.01),
]


def simpson_integral(f, a, b, tol=1e-11):
    """Adaptive composite Simpson rule, used as an independent quadrature oracle."""
    n = 16
    prev = None
    for _ in range(22):
        xs = np.linspace(a, b, n + 1)
        ys = f(xs)
        val = (b - a) / (3 * n) * (
            ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum()
        )
        if prev is not None and abs(val - prev) <= tol * max(1.0, abs(val)):
            return val
        prev = val
        n *= 2
    raise AssertionError("oracle quadrature did not converge")


def oracle_rtilde(law, rho):
    sign = 1.0 if rho >= 1.0 else -1.0
    lo, hi = (1.0, rho) if rho >= 1.0 else (rho, 1.0)
    return sign * simpson_integral(
        lambda r: np.sqrt(np.asarray(law.dpressure(r), dtype=float)) / r, lo, hi
    )


def test_rtilde_isothermal_anchor():
    law = IsothermalLaw(c=340.0)
    assert law.rtilde(1.0) == 0.0


def test_rtilde_isothermal_closed_form():
    law = IsothermalLaw(c=2.0)
    assert law.rtilde(math.e) == pytest.approx(2.0, rel=1e-14)


def test_rtilde_isentropic_against_quadrature_oracle():
    law = IsentropicLaw(a=1.0, gamma=2.0)
    expected = simpson_integral(lambda r: np.sqrt(2.0 * r) / r, 1.0, 4.0)
    assert law.rtilde(4.0) == pytest.approx(expected, rel=1e-10)
    assert expected == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-10)


@pytest.mark.parametrize("law", LAWS, ids=lambda l: type(l).__name__ + "_" + repr(l)[:24])
def test_rtilde_matches_oracle_at_samples(law):
    for rho in (0.2, 0.8, 1.5, 7.0):
        assert float(law.rtilde(rho)) == pytest.approx(oracle_rtilde(law, rho), rel=1e-9)


@pytest.mark.parametrize("law", LAWS, ids=lambda l: type(l).__name__ + "_" + repr(l)[:24])
def test_rtilde_strictly_increasing(law):
    rhos = np.logspace(-2, 2, 41)
    vals = np.array([float(law.rtilde(r)) for r in rhos])
    assert np.all(np.diff(vals) > 0)


@pytest.mark.parametrize("law", LAWS, ids=lambda l: type(l).__name__ + "_" + repr(l)[:24])
def test_rtilde_round_trip(law):
    rng = np.random.default_rng(7)
    rhos = np.exp(rng.uniform(np.log(0.05), np.log(50.0), 40))
    for rho in rhos:
        back = float(law.rtilde_inverse(law.rtilde(float(rho))))
        assert back == pytest.approx(float(rho), rel=1e-10)


def test_rtilde_domain_error():
    law = IsothermalLaw(c=340.0)
    with pytest.raises(DomainError):
        law.rtilde(0.0)
    with pytest.raises(DomainError):
        law.rtilde(-3.0)


def test_isentropic_inverse_vacuum_bound():
    law = IsentropicLaw(a=1.0, gamma=2.0)
    # invariant midpoints below -2*sqrt(a*gamma)/(gamma-1) have no density
    with pytest.raises(DomainError):
        law.rtilde_inverse(-2.0 * math.sqrt(2.0) - 1e-9)
    assert float(law.rtilde_inverse(-2.0 * math.sqrt(2.0) + 1e-6)) > 0.0


def test_aga_inverse_above_supremum():
    # for alpha < 0, Rt is bounded by sqrt(Rs*T) ln((1 - alpha) / -alpha) = 1803.1
    law = AgaLaw(rs_t=115600.0, alpha=-0.005)
    with pytest.raises(DomainError):
        law.rtilde_inverse(2000.0)


def test_riemann_reference_state_is_zero():
    for law in LAWS:
        rp, rm = riemann_from_state(law, 1.0, 0.0)
        assert rp == 0.0 and rm == 0.0


def test_riemann_zero_flow_symmetric():
    law = IsothermalLaw(c=340.0)
    for rho in (0.3, 1.0, 52.0):
        rp, rm = riemann_from_state(law, rho, 0.0)
        assert rp == rm


def test_riemann_backward_example():
    # invert c ln(rho) = 2 analytically: rho = e, v = 1, q = e
    law = IsothermalLaw(c=2.0)
    state = state_from_riemann(law, 3.0, 1.0)
    assert state.rho == pytest.approx(math.e, rel=1e-14)
    assert state.velocity == pytest.approx(1.0, rel=1e-14)
    assert state.q == pytest.approx(math.e, rel=1e-14)


@pytest.mark.parametrize("law", LAWS, ids=lambda l: type(l).__name__ + "_" + repr(l)[:24])
def test_riemann_round_trip_random_states(law):
    # The velocity lives in the spread of the invariant pair, so its
    # round-trip error scales with the invariant magnitude, not with v.
    rng = np.random.default_rng(11)
    n = 1000
    rhos = np.exp(rng.uniform(np.log(0.1), np.log(30.0), n))
    vels = rng.uniform(-20.0, 20.0, n)
    for rho, v in zip(rhos, vels):
        rho, v = float(rho), float(v)
        rp, rm = riemann_from_state(law, rho, rho * v)
        back = state_from_riemann(law, rp, rm)
        scale = max(1.0, abs(rp), abs(rm))
        assert back.rho == pytest.approx(rho, rel=1e-12)
        assert abs(back.velocity - v) <= 1e-12 * scale
        assert abs(back.q - rho * v) <= 1e-12 * rho * scale


def test_pressure_from_riemann_isothermal_reference():
    law = IsothermalLaw(c=340.0, rho_ref=1.0)
    assert pressure_from_riemann(law, 0.0, 0.0) == pytest.approx(340.0**2, rel=1e-14)


def test_pressure_from_riemann_isentropic_normalized():
    law = IsentropicLaw(a=1.0, gamma=2.0)
    assert pressure_from_riemann(law, 1.3, -1.3) == pytest.approx(1.0, rel=1e-13)


@given(st.floats(-500, 500), st.floats(-500, 500))
def test_pressure_positive(rp, rm):
    law = IsothermalLaw(c=340.0)
    assert pressure_from_riemann(law, rp, rm) > 0.0


def test_mach_number_isothermal():
    law = IsothermalLaw(c=340.0)
    assert mach_number(law, 10.0, 4.0) == pytest.approx(3.0 / 340.0, rel=1e-14)


def test_gas_state_validation():
    with pytest.raises(DomainError):
        GasState(rho=-1.0, q=0.0)
    with pytest.raises(DomainError):
        GasState(rho=1.0, q=math.inf)


def test_law_parameter_validation():
    with pytest.raises(ValidationError):
        IsentropicLaw(a=-1.0, gamma=2.0)
    with pytest.raises(ValidationError):
        IsentropicLaw(a=1.0, gamma=1.0)
    with pytest.raises(ValidationError):
        AgaLaw(rs_t=100.0, alpha=0.5)


def test_aga_density_pressure_inverse():
    # alpha < 0 caps the attainable pressure at rs_t/|alpha| = 5.78e6 Pa
    law = AgaLaw(rs_t=115600.0, alpha=-0.02)
    for p in (1e5, 2e6, 5e6):
        rho = float(law.density_from_pressure(p))
        assert float(law.pressure(rho)) == pytest.approx(p, rel=1e-14)
    with pytest.raises(DomainError):
        law.density_from_pressure(6e6)


def test_sound_speed_definition():
    for law in LAWS:
        assert law.sound_speed() == pytest.approx(
            math.sqrt(float(law.dpressure(law.rho_ref))), rel=1e-15
        )


def rtilde_rejected_before(rho):
    arr = np.asarray(rho, dtype=float)
    return bool(not np.all(np.isfinite(arr)) or np.any(arr <= 0.0))


def density_rejected_before(law, p):
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0):
        return True
    return isinstance(law, AgaLaw) and bool(np.any(p / (law.rs_t + law.alpha * p) <= 0))


@pytest.mark.parametrize("law", LAWS, ids=["isothermal", "isentropic-2", "isentropic-1.4", "aga"])
@pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 2.0e5])
@pytest.mark.parametrize("shape", ["float", "0-d", "1-d"])
def test_domain_checks_reject_the_same_inputs(law, bad, shape):
    x = {"float": bad, "0-d": np.asarray(bad), "1-d": np.array([3.0e5, bad, 4.0e5])}[shape]
    with np.errstate(all="ignore"):
        for method, rejected in ((law.rtilde, rtilde_rejected_before(x)),
                                 (law.density_from_pressure, density_rejected_before(law, x))):
            if rejected:
                with pytest.raises(DomainError):
                    method(x)
            else:
                method(x)
    if bad != 2.0e5:
        assert rtilde_rejected_before(x)
    empty = np.array([])
    assert law.rtilde(empty).shape == law.density_from_pressure(empty).shape == (0,)


@pytest.mark.parametrize("law", LAWS, ids=["isothermal", "isentropic-2", "isentropic-1.4", "aga"])
def test_density_error_is_one_line_naming_the_first_bad_density(law):
    rho = np.full(400, 50.0)
    rho[[7, 9]] = math.inf, -1.0
    with pytest.raises(DomainError, match=r"^density must be positive and finite, got inf$"):
        law.rtilde(rho)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("law", LAWS, ids=["isothermal", "isentropic-2", "isentropic-1.4", "aga"])
def test_float_path_equals_0d_bit_for_bit(law):
    # A Python float takes the law's float path; np.asarray(x) the array path.
    rng = np.random.default_rng(11)
    rhos = (law.rho_ref * 10.0 ** rng.uniform(-3, 3, 10_000)).tolist()
    pressures = [float(law.pressure(rho)) for rho in rhos]
    for method, xs in ((law.rtilde, rhos), (law.density_from_pressure, pressures)):
        on_floats = [method(x) for x in xs]
        on_0d = [method(np.asarray(x)) for x in xs]
        assert np.array_equal(_bits(on_floats), _bits(on_0d))


@pytest.mark.parametrize("law", LAWS, ids=["isothermal", "isentropic-2", "isentropic-1.4", "aga"])
def test_boundary_control_equals_0d_schedule(law):
    from gasnetsim.fileio import BAR, BoundaryPoint, make_boundary_control
    from gasnetsim.network import PipeSpec

    rng = np.random.default_rng(12)
    pipe = PipeSpec("p", "a", "b", 1000.0, 0.7)
    # Breakpoint pressures in bar whose densities lie in rho_ref * [0.01, 100].
    rho_bar = [float(law.pressure(law.rho_ref * 10.0 ** x)) / BAR for x in (-2.0, 2.0)]
    for _ in range(20):
        n = int(rng.integers(1, 6))
        ts = np.cumsum(rng.uniform(0.1, 50.0, n)) - 0.1
        ps = rng.uniform(*rho_bar, n)
        ms = rng.uniform(-300.0, 300.0, n)
        control = make_boundary_control(
            [BoundaryPoint(*map(float, row)) for row in zip(ts, ps, ms)], pipe, law)
        times = rng.uniform(0.0, 1.2 * ts[-1], 500).tolist()
        got = [control(t) for t in times]
        want = []
        for t in times:
            rho = float(law.density_from_pressure(np.asarray(float(np.interp(t, ts, ps)) * BAR)))
            m = float(np.interp(t, ts, ms))
            want.append(float(law.rtilde(np.asarray(rho))) + m / (rho * pipe.area))
        assert np.array_equal(_bits(got), _bits(want))


def test_aga_density_at_the_pole_is_inf_on_both_paths():
    law = AgaLaw(rs_t=1.0e5, alpha=-0.5)  # rs_t + alpha p is exactly 0 at p = 2e5 Pa
    with np.errstate(divide="ignore"):
        assert law.density_from_pressure(2.0e5) == math.inf
        assert law.density_from_pressure(np.asarray(2.0e5)) == math.inf
