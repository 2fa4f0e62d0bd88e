"""Linearized solutions and Green's operators on a window.

The linearized field equation decouples: the scalar weight satisfies a
three-term recursion in time, column by column, and the angle satisfies the
discrete wave equation. Solutions are represented exactly: scalar modes as
geometric profiles in time and waves in d'Alembert form from two diagonal
profiles. Green's operators invert the windowed equation with a sign so that
applying the linearized operator to the output returns minus the input.

Two scalar back-ends are provided. The banded solve inverts the windowed
three-term operator directly (zero values outside the window, which selects
one particular inverse; any two inverses differ by a solution, and the kernel
decays geometrically, so the choice washes out away from the time boundary).
The frequency back-end divides by the symbol on the circle, i.e. inverts the
periodized operator; it agrees with the banded solve up to a homogeneous
correction carried in from the time boundary. The wave part is integrated as
a retarded or advanced stepping scheme with zero data on the inflow rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import InvalidJetError, RangeError, TruncationError
from .jets import DualJet, Jet, delta_op_field
from .lagrangian import ModelParams
from .space import Region, Window

RESIDUAL_TOLERANCE = 1e-10
EDGE_TOLERANCE = 1e-12


def scalar_roots(p: ModelParams) -> tuple[float, float]:
    """Roots (decaying, growing) of the scalar symbol's quadratic.

    The recursion lambda_i z^2 + lambda_a z + lambda_i = 0 has two real
    negative roots with product 1; the first decays toward the future, the
    second (its reciprocal) toward the past.
    """
    disc = math.sqrt(p.lambda_a ** 2 - 4.0 * p.lambda_i ** 2)
    future = (-p.lambda_a + disc) / (2.0 * p.lambda_i)
    past = (-p.lambda_a - disc) / (2.0 * p.lambda_i)
    return future, past


def scalar_solution(z_amplitude: float, p: ModelParams, window: Window,
                    decay: str = "future", profile: dict | None = None
                    ) -> Jet:
    """Exact scalar-mode solution b(t, x) = amplitude * beta(x) * z^t.

    decay selects which root of the scalar quadratic is used: "future" takes
    the root inside the unit circle (the mode decays toward the future),
    "past" its reciprocal. profile optionally gives a spatial weight beta as
    a dict x -> value (default 1 everywhere); the equation is columnwise in
    time, so any spatial profile still solves it.
    """
    future, past = scalar_roots(p)
    if decay == "future":
        z = future
    elif decay == "past":
        z = past
    else:
        raise InvalidJetError(f"decay must be 'future' or 'past', got {decay!r}")
    beta = np.ones(window.shape[1])
    if profile is not None:
        beta = np.zeros(window.shape[1])
        for x, val in profile.items():
            if not window.x_min <= x <= window.x_max:
                raise RangeError(f"profile site {x} outside window {window}")
            beta[x - window.x_min] = val
    powers = z ** window.t_coords().astype(float)
    return Jet(window, z_amplitude * np.outer(powers, beta), window.zeros())


def wave_solution(g_profile: dict, h_profile: dict, window: Window) -> Jet:
    """Exact wave solution u_phi(t, x) = g(t + x) + h(t - x).

    The profiles are finite dicts over the diagonal coordinates. Each must
    meet the window's diagonal range and be narrower than the window's
    spatial extent; cones clipping the window corners are fine (the formula
    is evaluated pointwise), but a profile wider than the window can never
    separate from the spatial boundary.
    """
    u_phi = window.zeros()
    n_x = window.shape[1]
    for name, prof, sign in (("g", g_profile, +1), ("h", h_profile, -1)):
        if not prof:
            continue
        keys = sorted(prof)
        if keys[-1] - keys[0] > n_x - 2:
            raise RangeError(
                f"{name} profile spans {keys[-1] - keys[0] + 1} sites, too "
                f"wide for the window's {n_x} columns")
        lo = window.t_min + (window.x_min if sign > 0 else -window.x_max)
        hi = window.t_max + (window.x_max if sign > 0 else -window.x_min)
        if keys[-1] < lo or keys[0] > hi:
            raise RangeError(
                f"{name} profile support [{keys[0]}, {keys[-1]}] misses the "
                f"window's diagonal range [{lo}, {hi}]")
        for s, val in prof.items():
            for t in range(max(window.t_min, s - (window.x_max if sign > 0
                                                  else -window.x_min)),
                           min(window.t_max,
                               s - (window.x_min if sign > 0
                                    else -window.x_max)) + 1):
                x = sign * (s - t)
                if window.contains(t, x):
                    u_phi[window.index(t, x)] += val
    return Jet(window, window.zeros(), u_phi)


def linear_residual(v: Jet, region: Region, p: ModelParams,
                    window: Window) -> float:
    """Largest componentwise value of the linearized operator over a region.

    The region must keep margin 1 to the window so every site sees the full
    stencil. Zero (up to rounding) certifies v as a solution there.
    """
    if v.window != window or region.window != window:
        raise RangeError("jet, region, and window must share the same window")
    if (region.mask & ~window.interior_mask()).any():
        raise RangeError("region must stay one site inside the window")
    dual = delta_op_field(v, p, window)
    if not region.mask.any():
        return 0.0
    return max(float(np.abs(dual.b[region.mask]).max()),
               float(np.abs(dual.w_phi[region.mask]).max()))


@dataclass(frozen=True, eq=False)
class RankOneModifier:
    """A rank-one change of the Green's operator.

    Pairs the input against a fixed probe and adds that multiple of a fixed
    direction jet. The direction must solve the linearized equation, so the
    defining property of the Green's operator is untouched.
    """

    probe: DualJet
    direction: Jet

    def pairing(self, w: DualJet) -> float:
        if w.window != self.probe.window:
            raise RangeError("dual jet window does not match the probe")
        return float(np.sum(self.probe.b * w.b)
                     + np.sum(self.probe.w_phi * w.w_phi))

    def apply(self, w: DualJet) -> Jet:
        return self.pairing(w) * self.direction


@dataclass(frozen=True)
class GreensChoice:
    """Which Green's operator to use for each component."""

    vector_kind: str = "retarded"
    scalar_kind: str = "banded_solve"
    kernel_modifier: RankOneModifier | None = None

    def __post_init__(self):
        if self.vector_kind not in ("retarded", "advanced"):
            raise InvalidJetError(
                f"vector_kind must be retarded or advanced, got "
                f"{self.vector_kind!r}")
        if self.scalar_kind not in ("banded_solve", "frequency"):
            raise InvalidJetError(
                f"scalar_kind must be banded_solve or frequency, got "
                f"{self.scalar_kind!r}")


def scalar_diag(p: ModelParams) -> float:
    """Interior diagonal of the linearized scalar operator.

    The counterterm shifts it away from lambda_a whenever nu is unbalanced.
    The scalar symbol scalar_diag + 2 lambda_i cos(omega) vanishes at some
    frequency exactly when |scalar_diag| <= 2 lambda_i.
    """
    return p.lambda_a + 0.5 * (p.balanced_nu - p.nu)


def _scalar_green_banded(b: np.ndarray, p: ModelParams) -> np.ndarray:
    n_t = b.shape[0]
    bands = np.zeros((3, n_t))
    bands[0, 1:] = p.lambda_i
    bands[1, :] = scalar_diag(p)
    bands[2, :-1] = p.lambda_i
    return solve_banded((1, 1), bands, -b)


def _scalar_green_frequency(b: np.ndarray, p: ModelParams) -> np.ndarray:
    n_t = b.shape[0]
    omega = 2.0 * np.pi * np.arange(n_t // 2 + 1) / n_t
    symbol = scalar_diag(p) + 2.0 * p.lambda_i * np.cos(omega)
    if np.any(np.abs(symbol) < 1e-12):
        raise InvalidJetError("scalar symbol vanishes at a lattice frequency")
    hat = np.fft.rfft(b, axis=0)
    return np.fft.irfft(-hat / symbol[:, None], n=n_t, axis=0)


def _vector_green(w_phi: np.ndarray, kind: str) -> np.ndarray:
    n_t = w_phi.shape[0]
    if n_t < 3:
        raise RangeError("window too short in time for the wave stepping")
    sv = np.zeros_like(w_phi)

    def side_sum(row):
        out = np.zeros_like(row)
        out[:-1] += row[1:]
        out[1:] += row[:-1]
        return out

    if kind == "retarded":
        for t in range(1, n_t - 1):
            sv[t + 1] = side_sum(sv[t]) - sv[t - 1] - w_phi[t]
    else:
        for t in range(n_t - 2, 0, -1):
            sv[t - 1] = side_sum(sv[t]) - sv[t + 1] - w_phi[t]
    return sv


def greens_apply(choice: GreensChoice, w: DualJet, p: ModelParams,
                 window: Window, *, edge_check: bool = True) -> Jet:
    """Apply the chosen Green's operator to a dual jet.

    The output jet satisfies: linearized operator applied to it equals minus
    the input, exactly on the window interior. The scalar part is solved
    columnwise; the wave part is stepped from two zero inflow rows (the first
    two rows for the retarded kind, the last two for the advanced kind).

    With edge_check enabled, the scalar output must vanish on the full window
    frame (its kernel decays, so a hot frame means the source sits too close
    to the boundary for the window to stand in for the infinite lattice), and
    the wave source must vanish on its inflow rows (a source there cannot be
    represented, as its response starts outside the window). Hierarchy
    builders disable the check: their fields legitimately fill the light
    cone out to the boundary, and the experiment geometry keeps the
    extraction slices clear instead.
    """
    if w.window != window:
        raise RangeError("dual jet window does not match the given window")
    if choice.scalar_kind == "banded_solve":
        sb = _scalar_green_banded(w.b, p)
    else:
        sb = _scalar_green_frequency(w.b, p)
    sv = _vector_green(w.w_phi, choice.vector_kind)

    if edge_check:
        frame = np.ones(window.shape, dtype=bool)
        frame[1:-1, 1:-1] = False
        hot = float(np.abs(sb[frame]).max()) if frame.any() else 0.0
        if hot > EDGE_TOLERANCE:
            raise TruncationError(
                f"scalar Green output reaches {hot:.3e} on the window frame "
                f"(tolerance {EDGE_TOLERANCE:.1e})")
        inflow = w.w_phi[:2] if choice.vector_kind == "retarded" \
            else w.w_phi[-2:]
        src = float(np.abs(inflow).max())
        if src > EDGE_TOLERANCE:
            raise TruncationError(
                f"wave source reaches {src:.3e} on the {choice.vector_kind} "
                f"inflow rows (tolerance {EDGE_TOLERANCE:.1e})")

    result = Jet(window, sb, sv)
    if choice.kernel_modifier is not None:
        result = result + choice.kernel_modifier.apply(w)
    return result


def greens_residual(out: Jet, w: DualJet, p: ModelParams,
                    window: Window) -> float:
    """Largest interior residual of the defining Green's property.

    out is the Green's operator already applied to w; the residual is how
    far the linearized operator applied to out is from minus w.
    """
    if w.window != window:
        raise RangeError("dual jet window does not match the given window")
    dual = delta_op_field(out, p, window)
    res = []
    for field, source in ((dual.b, w.b), (dual.w_phi, w.w_phi)):
        # in place: the operator output is a fresh array of this call
        np.abs(np.add(field, source, out=field), out=field)
        res.append(float(field[1:-1, 1:-1].max()))
    return max(res)
