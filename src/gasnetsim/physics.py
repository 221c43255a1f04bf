"""Pressure laws and the Riemann-invariant change of variables.

The invariants are R_pm = Rt(rho) +- q/rho with Rt(rho) = int_1^rho
sqrt(p'(r))/r dr.  Every law here has a closed form for Rt and its inverse,
vectorised over numpy arrays.  `rtilde` and `density_from_pressure` take a
Python float without making an array of it, with the bits of the 0-d call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np
from .errors import DomainError, ValidationError

ArrayLike = Union[float, np.ndarray]


def _values(x: ArrayLike) -> ArrayLike:
    """A Python float as it is, anything else as a float array."""
    return x if type(x) is float else np.asarray(x, dtype=float)


def _any(mask) -> bool:
    return mask if type(mask) is bool else bool(mask.any())


@dataclass(frozen=True)
class GasState:
    """Density rho (kg/m^3) and mass flux density q = rho*v (kg/(m^2 s))."""

    rho: float
    q: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise DomainError(f"density must be positive and finite, got {self.rho}")
        if not math.isfinite(self.q):
            raise DomainError(f"mass flux must be finite, got {self.q}")

    @property
    def velocity(self) -> float:
        return self.q / self.rho


class PressureLaw:
    """Base class: a strictly increasing pressure function p(rho).

    Subclasses implement pressure/dpressure/density_from_pressure and the
    closed forms rtilde/rtilde_inverse.
    """

    rho_ref: float

    def pressure(self, rho: ArrayLike) -> ArrayLike:
        raise NotImplementedError

    def dpressure(self, rho: ArrayLike) -> ArrayLike:
        raise NotImplementedError

    def density_from_pressure(self, p: ArrayLike) -> ArrayLike:
        raise NotImplementedError

    def sound_speed(self) -> float:
        """c = sqrt(p'(rho_ref))."""
        return math.sqrt(float(self.dpressure(self.rho_ref)))

    def _check_rho(self, rho: ArrayLike) -> None:
        if type(rho) is float:
            ok = 0.0 < rho < math.inf  # False for NaN, as on arrays
        else:
            ok = np.isfinite(arr := np.asarray(rho, dtype=float)).all() and (arr > 0.0).all()
        if not ok:
            bad = rho if type(rho) is float else arr[~((arr > 0.0) & (arr < math.inf))][0]
            raise DomainError(f"density must be positive and finite, got {bad}")

    def _validate_monotone(self) -> None:
        # Sampled strict monotonicity over a wide admissible range.
        rhos = self.rho_ref * np.logspace(-3, 3, 61)
        try:
            ps = np.asarray(self.pressure(rhos), dtype=float)
        except OverflowError:  # a parameter whose Python float power leaves the range
            ps = np.array([math.inf])
        if not np.all(np.isfinite(ps)) or np.any(np.diff(ps) <= 0.0):
            raise ValidationError("pressure law is not strictly increasing on the sampled range")

    def rtilde(self, rho: ArrayLike) -> ArrayLike:
        raise NotImplementedError

    def rtilde_inverse(self, r: ArrayLike) -> ArrayLike:
        raise NotImplementedError


@dataclass(frozen=True)
class IsothermalLaw(PressureLaw):
    """p(rho) = c^2 rho."""

    c: float = 340.0
    rho_ref: float = 1.0

    def __post_init__(self) -> None:
        if not self.c > 0 or not self.rho_ref > 0:
            raise ValidationError("isothermal law needs c > 0 and rho_ref > 0")
        self._validate_monotone()

    def pressure(self, rho: ArrayLike) -> ArrayLike:
        return self.c ** 2 * np.asarray(rho, dtype=float)

    def dpressure(self, rho: ArrayLike) -> ArrayLike:
        return np.full_like(np.asarray(rho, dtype=float), self.c ** 2)

    def density_from_pressure(self, p: ArrayLike) -> ArrayLike:
        p = _values(p)
        if _any(p <= 0):
            raise DomainError("isothermal density needs positive pressure")
        return p / self.c ** 2

    def rtilde(self, rho: ArrayLike) -> ArrayLike:
        self._check_rho(rho)
        return self.c * np.log(rho)

    def rtilde_inverse(self, r: ArrayLike) -> ArrayLike:
        return np.exp(np.asarray(r, dtype=float) / self.c)


@dataclass(frozen=True)
class IsentropicLaw(PressureLaw):
    """p(rho) = a rho^gamma with a > 0, gamma > 1."""

    a: float
    gamma: float
    rho_ref: float = 1.0

    def __post_init__(self) -> None:
        if not self.a > 0 or not self.gamma > 1 or not self.rho_ref > 0:
            raise ValidationError("isentropic law needs a > 0 and gamma > 1")
        self._validate_monotone()

    @property
    def _k(self) -> float:
        # rtilde(rho) = k * (rho^((gamma-1)/2) - 1)
        return 2.0 * math.sqrt(self.a * self.gamma) / (self.gamma - 1.0)

    def pressure(self, rho: ArrayLike) -> ArrayLike:
        return self.a * np.asarray(rho, dtype=float) ** self.gamma

    def dpressure(self, rho: ArrayLike) -> ArrayLike:
        return self.a * self.gamma * np.asarray(rho, dtype=float) ** (self.gamma - 1.0)

    def density_from_pressure(self, p: ArrayLike) -> ArrayLike:
        p = _values(p)
        if _any(p <= 0):
            raise DomainError("isentropic density needs positive pressure")
        # A 0-d p / a is a numpy scalar, whose ** is libm's pow, as a float's
        # is; an array's ** runs numpy's loop.
        return (p / self.a) ** (1.0 / self.gamma)

    def rtilde(self, rho: ArrayLike) -> ArrayLike:
        self._check_rho(rho)
        # np.power runs numpy's loop on a float too, as ** does on an array.
        return self._k * (np.power(_values(rho), (self.gamma - 1.0) / 2.0) - 1.0)

    def rtilde_inverse(self, r: ArrayLike) -> ArrayLike:
        r = np.asarray(r, dtype=float)
        base = 1.0 + r / self._k
        if (base <= 0.0).any():
            raise DomainError(
                f"invariant midpoint {r[base <= 0.0][0]} below the isentropic vacuum bound")
        # ** on a numpy scalar calls libm's pow, which can differ in the last
        # bit from np.power's array loop; np.power gives both the same value.
        return np.power(base, 2.0 / (self.gamma - 1.0))


@dataclass(frozen=True)
class AgaLaw(PressureLaw):
    """American Gas Association model p(rho) = Rs*T rho / (1 - alpha rho), alpha <= 0."""

    rs_t: float
    alpha: float = 0.0
    rho_ref: float = 1.0

    def __post_init__(self) -> None:
        if not self.rs_t > 0:
            raise ValidationError("AGA law needs Rs*T > 0")
        if self.alpha > 0:
            raise ValidationError("AGA law needs alpha <= 0")
        if not self.rho_ref > 0:
            raise ValidationError("AGA law needs rho_ref > 0")
        self._validate_monotone()

    def pressure(self, rho: ArrayLike) -> ArrayLike:
        rho = np.asarray(rho, dtype=float)
        denom = 1.0 - self.alpha * rho
        if np.any(denom <= 0.0):
            raise DomainError("AGA pressure undefined: 1 - alpha*rho <= 0")
        return self.rs_t * rho / denom

    def dpressure(self, rho: ArrayLike) -> ArrayLike:
        rho = np.asarray(rho, dtype=float)
        denom = 1.0 - self.alpha * rho
        if np.any(denom <= 0.0):
            raise DomainError("AGA pressure undefined: 1 - alpha*rho <= 0")
        return self.rs_t / denom ** 2

    def density_from_pressure(self, p: ArrayLike) -> ArrayLike:
        p = _values(p)
        if _any(p <= 0):
            raise DomainError("AGA density needs positive pressure")
        try:
            rho = p / (self.rs_t + self.alpha * p)
        except ZeroDivisionError:  # a float p at the pole: inf, as an array gets
            rho = math.inf
        if _any(rho <= 0):
            raise DomainError("pressure outside the AGA admissible range")
        return rho

    def rtilde(self, rho: ArrayLike) -> ArrayLike:
        # sqrt(Rs*T) * ln(rho (1 - alpha) / (1 - alpha rho))
        self._check_rho(rho)
        rho = _values(rho)
        return math.sqrt(self.rs_t) * (
            np.log(rho) + math.log1p(-self.alpha) - np.log1p(-self.alpha * rho)
        )

    def rtilde_inverse(self, r: ArrayLike) -> ArrayLike:
        # rho = y / ((1 - alpha) + alpha y) with y = exp(r / sqrt(Rs*T)); for
        # alpha < 0 the denominator vanishes at the supremum of Rt.
        r = np.asarray(r, dtype=float)
        y = np.exp(r / math.sqrt(self.rs_t))
        denom = (1.0 - self.alpha) + self.alpha * y
        if not (denom > 0.0).all():
            raise DomainError(f"invariant midpoint {r[~(denom > 0.0)][0]} has no AGA density")
        return y / denom


def riemann_from_state(law: PressureLaw, rho: float, q: float) -> Tuple[float, float]:
    """(R+, R-) = (Rt(rho) + q/rho, Rt(rho) - q/rho)."""
    rt = float(law.rtilde(rho))
    v = q / rho
    return rt + v, rt - v


def state_from_riemann(law: PressureLaw, r_plus: float, r_minus: float) -> GasState:
    """Invert the invariant map: rho = Rt^-1((R+ + R-)/2), q = rho (R+ - R-)/2."""
    mid = (r_plus + r_minus) / 2.0
    rho = float(law.rtilde_inverse(mid))
    v = (r_plus - r_minus) / 2.0
    return GasState(rho=rho, q=rho * v)


def pressure_from_riemann(law: PressureLaw, r_plus: float, r_minus: float) -> float:
    """p evaluated at the density encoded by the invariant midpoint; always > 0."""
    mid = (r_plus + r_minus) / 2.0
    return float(law.pressure(law.rtilde_inverse(mid)))


def mach_number(law: PressureLaw, r_plus: float, r_minus: float) -> float:
    """v / c with v from the invariants and c the reference sound speed."""
    return (r_plus - r_minus) / 2.0 / law.sound_speed()
