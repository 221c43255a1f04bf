"""Closed-form stability and observability constants.

Everything here is a pure evaluation of the constants that certify
well-posedness, observability and the exponential decay of the observer
error; no simulation data is touched except through the supplied regularity
bounds m_tilde and b_tilde.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import ValidationError
from .network import NetworkGraph, NodeId, check_gain


def _exp(x: float) -> float:
    """math.exp, with inf where the result leaves the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _prod(*factors: float) -> float:
    """The product of `factors` in order, 0 when one of them is 0: the limit,
    where the others overflowing to inf would give 0 * inf = nan."""
    return 0.0 if 0.0 in factors else math.prod(factors)


def check_amplitude_bound(m: float) -> None:
    """Reject an amplitude bound M that is not finite and positive."""
    if not (math.isfinite(m) and m > 0):
        raise ValidationError(f"amplitude bound m must be finite and positive, got {m}")


@dataclass(frozen=True)
class BoundInputs:
    """Scalar inputs consumed by the certificate calculators.

    t0_min and t0_max are the two travel-time conventions min_e L/c and
    max_e L/c; the short-horizon machinery uses the former, the decay window
    the latter.
    """

    m: float
    m_tilde: float
    b_tilde: float
    t_horizon: float
    t0_min: float
    t0_max: float
    nu_max: float
    c: float

    def __post_init__(self) -> None:
        check_amplitude_bound(self.m)
        if not all(math.isfinite(x) and x >= 0 for x in (self.m_tilde, self.b_tilde)):
            raise ValidationError("m_tilde and b_tilde must be finite and nonnegative")
        if self.t0_min > self.t0_max:
            raise ValidationError("t0_min cannot exceed t0_max")
        if self.c <= 0 or self.t_horizon <= 0 or self.nu_max < 0:
            raise ValidationError("need c > 0, t_horizon > 0, nu_max >= 0")

    @classmethod
    def from_graph(
        cls,
        graph: NetworkGraph,
        c: float,
        t_horizon: float,
        m: float,
        m_tilde: float = 0.0,
        b_tilde: float = 0.0,
    ) -> "BoundInputs":
        lengths = [p.length for p in graph.pipes]
        return cls(
            m=m,
            m_tilde=m_tilde,
            b_tilde=b_tilde,
            t_horizon=t_horizon,
            t0_min=min(lengths) / c,
            t0_max=max(lengths) / c,
            nu_max=max(p.nu for p in graph.pipes),
            c=c,
        )


@dataclass(frozen=True)
class WellposednessConstants:
    """Short-horizon fixed-point constants for a given amplitude bound m."""

    l_kontr: float
    t_threshold: float
    epsilon: Optional[float]
    epsilon_valid: bool
    gronwall_factor: float


def wellposedness_constants(
    t_horizon: float, m: float, nu_max: float
) -> WellposednessConstants:
    """Contraction constant, admissible-horizon threshold, initial-data
    radius and the a-priori growth factor.

    l_kontr = 16 T nu_max m; the iteration contracts only for l_kontr < 1,
    i.e. T below t_threshold = 1/(16 nu_max m).  In that regime
    epsilon = (m/3)(1 - l_kontr); otherwise the radius is flagged invalid
    rather than raised.  gronwall_factor = exp(16 nu_max m T).
    """
    if t_horizon <= 0 or m <= 0 or nu_max < 0:
        raise ValidationError("need t_horizon > 0, m > 0, nu_max >= 0")
    l_kontr = _prod(16.0, t_horizon, nu_max, m)
    t_threshold = math.inf if nu_max * m == 0.0 else 1.0 / (16.0 * nu_max * m)
    valid = l_kontr < 1.0
    epsilon = (m / 3.0) * (1.0 - l_kontr) if valid else None
    gronwall = _exp(16.0 * nu_max * m * t_horizon)
    return WellposednessConstants(l_kontr, t_threshold, epsilon, valid, gronwall)


def c0_constant(m_tilde: float, length: float, nu: float, c: float) -> float:
    """One-edge L2 observability constant.

    C0 = 2 [2c + 4 L nu m_tilde exp(4 L nu m_tilde / c)]; reduces to 4c in
    the friction-free or zero-amplitude case.
    """
    if m_tilde < 0 or length < 0 or nu < 0 or c <= 0:
        raise ValidationError("c0_constant needs nonnegative inputs and c > 0")
    z = _prod(4.0, length, nu, m_tilde)
    return 2.0 * (2.0 * c + z * _exp(z / c))


def c0_network(m_tilde: float, graph: NetworkGraph, c: float) -> float:
    """Worst-edge (largest) C0 over the network."""
    return max(c0_constant(m_tilde, p.length, p.nu, c) for p in graph.pipes)


def upsilon_factor(m_tilde: float, b_tilde: float) -> float:
    """max(m_tilde^2, b_tilde^2) / (m_tilde + b_tilde), with 0 at the origin.

    The origin value is the limit along m_tilde = b_tilde -> 0, so the
    removable singularity is filled with 0.
    """
    if m_tilde < 0 or b_tilde < 0:
        raise ValidationError("upsilon_factor needs nonnegative inputs")
    s = m_tilde + b_tilde
    if s == 0.0:
        return 0.0
    square = max(m_tilde * m_tilde, b_tilde * b_tilde)
    if square == math.inf:  # the same ratio, as max / (1 + min / max), never overflows
        big = max(m_tilde, b_tilde)
        return big / (1.0 + min(m_tilde, b_tilde) / big)
    return square / s


def c1_constant(m_tilde: float, b_tilde: float, graph: NetworkGraph, c: float) -> float:
    """Time-derivative-augmented observability constant.

    C1 = max_e C0_e(m_tilde) + 2c
         + max_e [16 nu_e L_e] Upsilon exp(4 nu_e (m_tilde + b_tilde) L_e / c).
    """
    ups = upsilon_factor(m_tilde, b_tilde)
    c0 = c0_network(m_tilde, graph, c)
    third = max(
        _prod(16.0, p.nu, p.length, ups, _exp(_prod(4.0, p.nu, m_tilde + b_tilde, p.length) / c))
        for p in graph.pipes
    )
    return c0 + 2.0 * c + third


def upsilon0(graph: NetworkGraph, mu: Mapping[NodeId, float]) -> float:
    """min over edges of sum over the edge's endpoints of (1-mu^2)/(1+mu^2).

    Zero exactly when some pipe has |mu| = 1 at both endpoints, in which
    case no decay certificate is available.
    """
    worst = math.inf
    for p in graph.pipes:
        s = 0.0
        for v in (p.from_node, p.to_node):
            m = mu[v]
            check_gain(m, v)
            s += (1.0 - m * m) / (1.0 + m * m)
        worst = min(worst, s)
    return worst


@dataclass(frozen=True)
class DecayCertificate:
    """Window-contraction and H1-decay conditions evaluated on one network."""

    t0: float
    nu_max: float
    ups0: float
    c0: float
    c1: float
    delta_nu_t0: float
    l0_window_factor: float
    h1_condition_lhs: float
    h1_condition_rhs: float
    h1_holds: bool


def decay_certificates(
    graph: NetworkGraph,
    mu: Mapping[NodeId, float],
    m_tilde: float,
    b_tilde: float,
    c: float,
) -> DecayCertificate:
    """Evaluate the decay conditions.

    With T0 = max_e L_e / c the L2 functional obeys
        L0(t + T0) <= l0_window_factor * L0(t - T0),
        l0_window_factor = 1 / (1 + (c / C0) ups0),
    and the time-derivative norm decays when
        8 T0 Delta(nu T0)^2 nu_max <= (c / C1) ups0,
    with Delta(nu T0) = exp(8 nu_max b_tilde T0).
    """
    t0 = max(p.length for p in graph.pipes) / c
    nu_max = max(p.nu for p in graph.pipes)
    ups0 = upsilon0(graph, mu)
    c0 = c0_network(m_tilde, graph, c)
    c1 = c1_constant(m_tilde, b_tilde, graph, c)
    delta = _exp(_prod(8.0, nu_max, b_tilde, t0))
    factor = 1.0 / (1.0 + (c / c0) * ups0)
    lhs = 8.0 * t0 * delta * delta * nu_max
    rhs = (c / c1) * ups0
    return DecayCertificate(
        t0=t0,
        nu_max=nu_max,
        ups0=ups0,
        c0=c0,
        c1=c1,
        delta_nu_t0=delta,
        l0_window_factor=factor,
        h1_condition_lhs=lhs,
        h1_condition_rhs=rhs,
        h1_holds=lhs <= rhs,
    )
