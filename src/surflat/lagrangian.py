"""Interaction values, angular derivatives, and the field equation check.

The interaction between two lattice points lives on a five-site stencil of
base offsets. The center offset carries the self coupling lambda_a and a
quartic angular well; the two time neighbors carry the coupling lambda_i and
the signed angular pattern -1; the two space neighbors carry the signed
angular pattern +1. The angular well is V(phi) = 1 - cos(phi), so V and V^2
have vanishing first derivative at phi = 0 and every formula below evaluates
to an exact float zero there when it should.
"""

from __future__ import annotations

import functools
import math
import types
from dataclasses import dataclass

import numpy as np

from .errors import RangeError, UnsupportedOrderError
from .space import LatticePoint, STENCIL_OFFSETS, Window

# Truncation order of the perturbation family: the highest order of the
# field-equation variations, the hierarchy and the family integrals.
MAX_ORDER = 4


def require_order(n: int, what: str):
    """Reject an order outside 1..MAX_ORDER; what names it in the message."""
    if not 1 <= n <= MAX_ORDER:
        raise UnsupportedOrderError(f"{what} {n} outside 1..{MAX_ORDER}")


DEFAULT_PHI_SAMPLES = (0.0, math.pi / 4, -math.pi / 4,
                       math.pi / 2, -math.pi / 2, math.pi)


@dataclass(frozen=True)
class ModelParams:
    """Couplings of the interaction.

    Every coupling is finite, nu included. The invariants lambda_i >= 2
    and lambda_a >= 2 * lambda_i + epsilon keep the interaction
    nonnegative and the scalar symbol bounded away from zero. nu defaults
    to the balanced value 2 * lambda_a + 4 * lambda_i, for which the field
    equation holds on the base configuration.
    """

    lambda_a: float = 5.0
    lambda_i: float = 2.0
    delta: float = 1.0
    epsilon: float = 0.2
    nu: float | None = None

    def __post_init__(self):
        if not 0.0 < self.epsilon < 0.25:
            raise ValueError(f"epsilon must lie in (0, 1/4), got {self.epsilon}")
        if self.lambda_i < 2.0:
            raise ValueError(f"lambda_i must be >= 2, got {self.lambda_i}")
        if self.lambda_a < 2.0 * self.lambda_i + self.epsilon:
            raise ValueError(
                "lambda_a must be >= 2 * lambda_i + epsilon, got "
                f"lambda_a={self.lambda_a}, lambda_i={self.lambda_i}")
        if self.nu is None:
            object.__setattr__(self, "nu", self.balanced_nu)
        # after the default, so a balanced nu that overflows is caught too;
        # the comparisons above let a NaN through
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    @property
    def balanced_nu(self) -> float:
        return 2.0 * self.lambda_a + 4.0 * self.lambda_i


def angular_well(phi: float) -> float:
    """V(phi) = 1 - cos(phi)."""
    return 1.0 - math.cos(phi)


def _dcos(n: int, phi: float, freq: float = 1.0) -> float:
    # n-th derivative of cos(freq * phi), with exact zeros at phi = 0 for the
    # sine branches (never evaluates cos at shifted arguments).
    k = n % 4
    scale = freq ** n
    if k == 0:
        return scale * math.cos(freq * phi)
    if k == 1:
        return -scale * math.sin(freq * phi)
    if k == 2:
        return -scale * math.cos(freq * phi)
    return scale * math.sin(freq * phi)


def well_deriv(n: int, phi: float) -> float:
    """n-th derivative of the angular well V at phi."""
    if n == 0:
        return angular_well(phi)
    return -_dcos(n, phi)


def well_sq_deriv(n: int, phi: float) -> float:
    """n-th derivative of V^2 at phi, via V^2 = 3/2 - 2 cos(phi) + cos(2 phi)/2."""
    if n == 0:
        v = angular_well(phi)
        return v * v
    return -2.0 * _dcos(n, phi) + 0.5 * _dcos(n, phi, 2.0)


def stencil_weights(dt: int, dx: int) -> tuple[bool, bool, float]:
    """(center, timelike, signed pattern) at integer base offset (dt, dx)."""
    center = dt == 0 and dx == 0
    timelike = abs(dt) == 1 and dx == 0
    if timelike:
        pattern = -1.0
    elif dt == 0 and abs(dx) == 1:
        pattern = 1.0
    else:
        pattern = 0.0
    return center, timelike, pattern


def lag_value(p: ModelParams, x: LatticePoint, y: LatticePoint) -> float:
    """Interaction of two lattice points."""
    center, timelike, pattern = stencil_weights(x.t - y.t, x.x - y.x)
    phi = x.phi - y.phi
    val = 0.0
    if center:
        v = angular_well(phi)
        val += p.lambda_a + p.delta * v * v
    if timelike:
        val += p.lambda_i
    if pattern != 0.0:
        val += pattern * angular_well(phi)
    return val


def lag_phi_deriv(p: ModelParams, x: LatticePoint, y: LatticePoint,
                  kx: int, ky: int) -> float:
    """Mixed angular derivative of the interaction.

    Parameters
    ----------
    kx, ky : int
        Nonnegative orders of the derivatives in the angles of x and y. The
        closed form holds at every order.

    Returns
    -------
    float
        d^kx/d(x.phi)^kx d^ky/d(y.phi)^ky of the interaction at (x, y).
    """
    if kx < 0 or ky < 0:
        raise UnsupportedOrderError(f"negative derivative order ({kx}, {ky})")
    n = kx + ky
    if n == 0:
        return lag_value(p, x, y)
    center, _, pattern = stencil_weights(x.t - y.t, x.x - y.x)
    phi = x.phi - y.phi
    val = pattern * well_deriv(n, phi)
    if center:
        val += p.delta * well_sq_deriv(n, phi)
    return val if ky % 2 == 0 else -val


@functools.lru_cache(maxsize=32)
def stencil_deriv_table(p: ModelParams):
    """On-lattice derivative table, built once per p.

    Returns a read-only mapping from (kx, ky) with kx + ky <= MAX_ORDER + 1
    to a read-only length-5 float array over STENCIL_OFFSETS, holding the
    angular derivative of the interaction at base offset (dt, dx) with both
    angles at zero. The extra order is the angular component of an order
    MAX_ORDER variation. The result is cached and shared by every caller.
    """
    origin = LatticePoint(0, 0)
    top = MAX_ORDER + 1
    table = {}
    for kx in range(top + 1):
        for ky in range(top + 1 - kx):
            row = np.array([
                lag_phi_deriv(p, LatticePoint(dt, dx), origin, kx, ky)
                for (dt, dx) in STENCIL_OFFSETS])
            row.flags.writeable = False
            table[(kx, ky)] = row
    return types.MappingProxyType(table)


def ell(p: ModelParams, x: LatticePoint, window: Window) -> float:
    """Field equation functional at x against the windowed configuration.

    Sums the interaction of x with every configuration point of the window
    (only the stencil contributes) and subtracts nu / 2. x must sit at least
    one site inside the window so the stencil is complete.
    """
    window.require_interior(x.t, x.x)
    total = 0.0
    for (dt, dx) in STENCIL_OFFSETS:
        y = LatticePoint(x.t - dt, x.x - dx)
        total += lag_value(p, x, y)
    return total - 0.5 * p.nu


@dataclass(frozen=True)
class ELReport:
    """Result of el_check: field equation values over the window interior."""

    max_abs_base: float
    sampled: dict[float, float]
    reference: dict[float, float]

    @property
    def min_sampled(self) -> float:
        return min(self.sampled.values())


def _ell_value(p: ModelParams, phi: float) -> float:
    # ell at a site with angle phi amid the base configuration: the
    # per-offset interaction values are summed in STENCIL_OFFSETS order, as
    # ell does, so the value is bitwise ell at every interior site
    center = LatticePoint(0, 0, phi)
    total = 0.0
    for (dt, dx) in STENCIL_OFFSETS:
        total += lag_value(p, center, LatticePoint(-dt, -dx))
    return total - 0.5 * p.nu


def el_check(p: ModelParams, window: Window,
             phi_samples=DEFAULT_PHI_SAMPLES) -> ELReport:
    """Check the field equation on the window interior.

    Evaluates the functional at every interior site of the base configuration
    (expected zero at balanced nu) and, for each sampled angle, the minimum
    over interior sites of the functional at that angle, together with its
    closed-form reference delta * V(phi)^2 + (balanced_nu - nu) / 2. The
    base configuration has angle 0 everywhere and every interior site sees
    the full stencil, so the functional is translation invariant there: one
    value per angle stands for the interior. The pointwise ell is its oracle.
    """
    n_t, n_x = window.shape
    if n_t < 3 or n_x < 3:
        raise RangeError(f"window {window} has no interior sites")
    max_abs_base = abs(_ell_value(p, 0.0))
    sampled = {}
    reference = {}
    offset = 0.5 * (p.balanced_nu - p.nu)
    for phi in phi_samples:
        sampled[phi] = _ell_value(p, phi)
        v = angular_well(phi)
        reference[phi] = p.delta * v * v + offset
    return ELReport(max_abs_base, sampled, reference)
