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
It is a numpy elimination of the constant tridiagonal matrix, vectorised
over columns. Strict diagonal dominance makes pivoting unnecessary, and the
sweep repeats LAPACK's dgtsv operation for operation, so it matches that
routine bitwise.
The frequency back-end divides by the symbol on the circle, i.e. inverts the
periodized operator; it agrees with the banded solve up to a homogeneous
correction carried in from the time boundary. The wave part is integrated as
a retarded or advanced stepping scheme with zero data on the inflow rows.

Green's operators work where the source lives. Both scalar back-ends treat
each column on its own, with the same operations whatever the other
columns hold, so equal columns give equal outputs, bit for bit: each
column holding a set bit (-0.0 and NaN included) is solved, and the output
of one all-(+0.0) column, solved once per kind, row count and parameters
and cached, stands in for every other. The wave stepping leaves every
row +0.0 until it meets the first source row with a set bit, so it starts
there, and an all-zero source is not stepped at all. Both rules are exact:
every output is bitwise that of the full-window solve, sign of zero
included.

Many fields share one scalar solve (ScalarStack): their live columns sit
side by side and the backend is called once, or not at all when no column
is live. greens_apply is a stack of one plus the wave stepping, and the
only place where the edge check is applied.
greens_defects checks the Green's property on the whole window; box_defect
and cone_defect read its defects, bit for bit, on the support framed by one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
# numpy 2 loads numpy.fft on first use; load it with the package instead
import numpy.fft  # noqa: F401

from .errors import InvalidJetError, RangeError, TruncationError
from .jets import DualJet, Jet, delta_ell_field
from .lagrangian import ModelParams
from .space import Window, common_window

RESIDUAL_TOLERANCE = 1e-10
EDGE_TOLERANCE = 1e-12
# cone_defect splits a wave output's cone into this many row bands
CONE_BANDS = 3


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
    is evaluated on each key's diagonal inside the window), but a profile
    wider than the window can never separate from the spatial boundary.
    """
    u_phi = window.zeros()
    n_x = window.shape[1]
    t = window.t_coords()
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
        # x along each key's diagonal; a site lies on one diagonal of each
        # profile, so one indexed add per profile adds each value once
        diag = np.array(list(prof))
        values = np.array(list(prof.values()), dtype=float)
        x = sign * (diag[:, None] - t)
        key, row = np.nonzero((x >= window.x_min) & (x <= window.x_max))
        u_phi[row, x[key, row] - window.x_min] += values[key]
    return Jet(window, window.zeros(), u_phi)


def linear_residual(v: Jet, p: ModelParams) -> float:
    """Largest componentwise value of the linearized operator on v's window
    interior, the sites that see the full stencil; 0.0 when it is empty,
    NaN when either component holds a NaN there.

    Zero (up to rounding) certifies v as a solution there.
    """
    dual = delta_ell_field(1, [v], p)
    inner = (slice(1, -1), slice(1, -1))
    if not dual.b[inner].size:
        return 0.0
    return float(np.maximum(np.abs(dual.b[inner]).max(),
                            np.abs(dual.w_phi[inner]).max()))


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
        common_window(self.probe, w)
        return float(np.sum(self.probe.b * w.b)
                     + np.sum(self.probe.w_phi * w.w_phi))

    def apply(self, w: DualJet) -> Jet:
        return self.pairing(w) * self.direction


@dataclass(frozen=True)
class GreensChoice:
    """Which Green's operator to use for each component."""

    vector_kind: str = "retarded"
    scalar_kind: str = "banded_solve"

    def __post_init__(self):
        _kind(WAVE_STEPS, self.vector_kind, "vector_kind")
        _kind(SCALAR_GREENS, self.scalar_kind, "scalar_kind")


def _kind(table: dict, kind, what: str):
    # the entry of a Green's kind table (SCALAR_GREENS or WAVE_STEPS); the
    # names are compared as a tuple, which also takes an unhashable kind
    if kind not in tuple(table):
        raise InvalidJetError(
            f"{what} must be {' or '.join(table)}, got {kind!r}")
    return table[kind]


def scalar_diag(p: ModelParams) -> float:
    """Interior diagonal of the linearized scalar operator.

    The counterterm shifts it away from lambda_a whenever nu is unbalanced.
    The scalar symbol scalar_diag + 2 lambda_i cos(omega) vanishes at some
    frequency exactly when |scalar_diag| <= 2 lambda_i.
    """
    return p.lambda_a + 0.5 * (p.balanced_nu - p.nu)


def check_scalar_symbol(p: ModelParams):
    """Require a scalar symbol that vanishes at no frequency.

    That is strict diagonal dominance of the scalar operator, which also
    lets the banded solve run without pivoting.
    """
    lam, diag = p.lambda_i, scalar_diag(p)
    if not abs(diag) > 2.0 * lam:  # also true for NaN
        raise InvalidJetError(
            f"scalar operator ({lam}, {diag}, {lam}) is not diagonally "
            f"dominant, so the scalar symbol {diag} + {2.0 * lam} "
            f"cos(omega) vanishes at some frequency")


def _scalar_green_banded(b: np.ndarray, p: ModelParams) -> np.ndarray:
    check_scalar_symbol(p)
    lam, diag = p.lambda_i, scalar_diag(p)
    n_t = b.shape[0]
    x = np.negative(b)
    # row views made once, outputs passed positionally: each row step is
    # just its ufunc calls, with no temporary but the one scratch row
    rows = list(x)
    tmp = np.empty_like(rows[0])
    # multipliers mult = lam / d_t and pivots d_{t+1} = diag - mult * lam of
    # the matrix (lam, diag, lam), in dgtsv's order; no row is interchanged
    # because dominance keeps every |d_t| above lam
    pivots = [diag]
    for t in range(n_t - 1):
        mult = lam / pivots[t]
        pivots.append(diag - mult * lam)
        np.multiply(rows[t], mult, tmp)
        np.subtract(rows[t + 1], tmp, rows[t + 1])
    np.divide(rows[-1], pivots[-1], rows[-1])
    for t in range(n_t - 2, -1, -1):
        row = rows[t]
        np.multiply(rows[t + 1], lam, tmp)
        np.subtract(row, tmp, row)
        if t + 2 < n_t:
            # dgtsv subtracts its zero fill-in as well; that term decides
            # the sign of zeros
            np.multiply(rows[t + 2], 0.0, tmp)
            np.subtract(row, tmp, row)
        np.divide(row, pivots[t], row)
    return x


def _scalar_green_frequency(b: np.ndarray, p: ModelParams) -> np.ndarray:
    n_t = b.shape[0]
    omega = 2.0 * np.pi * np.arange(n_t // 2 + 1) / n_t
    symbol = scalar_diag(p) + 2.0 * p.lambda_i * np.cos(omega)
    if np.any(np.abs(symbol) < 1e-12):
        raise InvalidJetError("scalar symbol vanishes at a lattice frequency")
    hat = np.fft.rfft(b, axis=0)
    return np.fft.irfft(-hat / symbol[:, None], n=n_t, axis=0)


# the scalar Green's backends by name, in the order greens-verify runs them
SCALAR_GREENS = {"banded_solve": _scalar_green_banded,
                 "frequency": _scalar_green_frequency}
# the wave kinds by name, with the direction each steps in time
WAVE_STEPS = {"retarded": 1, "advanced": -1}


def _set_bits(a: np.ndarray, axis: int) -> np.ndarray:
    # which lines along the axis hold a value other than +0.0 (-0.0 and NaN
    # count as set)
    return a.view(np.uint64).any(axis=axis)


def wave_green(w_phi: np.ndarray, kind: str) -> np.ndarray:
    """The wave part of the chosen Green's operator: retarded or advanced.

    Steps the discrete wave equation from two zero inflow rows (the first
    two for the retarded kind, the last two for the advanced kind) and
    starts at the first source row with a set bit that the stepping reads.
    """
    step = _kind(WAVE_STEPS, kind, "vector_kind")
    n_t = w_phi.shape[0]
    if n_t < 3:
        raise RangeError("window too short in time for the wave stepping")
    sv = np.zeros_like(w_phi)
    # rows stay +0.0 up to the first source row with a set bit among the
    # rows 1..n_t-2 (in stepping order) that the stepping reads
    live = np.flatnonzero(_set_bits(w_phi, axis=1)[::step][1:-1])
    if live.size == 0:
        return sv
    # the rows the stepping touches, in stepping order from the row before
    # the first live source row, with their views made once
    first = live[0]
    rows, src = list(sv[::step][first:]), list(w_phi[::step][first:])
    heads = [row[:-1] for row in rows]
    tails = [row[1:] for row in rows]
    for t in range(1, n_t - 1 - first):
        # the new row starts at +0.0: (0 + right) + left - old - source
        new = rows[t + 1]
        np.add(heads[t + 1], tails[t], heads[t + 1])
        np.add(tails[t + 1], heads[t], tails[t + 1])
        np.subtract(new, rows[t - 1], new)
        np.subtract(new, src[t], new)
    return sv


@functools.lru_cache(maxsize=8)
def _stand_in(kind: str, n_t: int, p: ModelParams) -> np.ndarray:
    # the output of one all-(+0.0) column of n_t rows, solved once for each
    # kind, row count and parameters; every stack shares it, so read-only
    out = SCALAR_GREENS[kind](np.zeros((n_t, 1)), p)
    out.flags.writeable = False
    return out


class ScalarStack:
    """The scalar Green's part of many fields, solved in one backend call.

    Reads the fields once and keeps none of them: each field's columns
    with a set bit go side by side, and only their solution is kept. Every
    other column of every field shares the output of one all-(+0.0) column,
    which is solved once per kind, row count and parameters and cached
    (_stand_in). A stack with no live column calls no backend. The backend
    treats columns independently, so field(k) is bitwise the full-window
    solve of field k. An all-(+0.0) column's output is +-0 under either
    backend, so two stacks of the same fields differ only on live columns:
    the largest gap between their framed(k), or their field(k), is the
    gap over the whole window.
    """

    def __init__(self, kind: str, bs, p: ModelParams):
        solve = _kind(SCALAR_GREENS, kind, "scalar_kind")
        self.kind, self.p = kind, p
        self.shape, self.columns, pieces = None, [], []
        for b in bs:
            if self.shape not in (None, b.shape):
                raise RangeError("the fields of a stack must share a shape")
            self.shape = b.shape
            cols = np.flatnonzero(_set_bits(b, axis=0))
            self.columns.append(cols)
            pieces.append(b[:, cols])
        if self.shape is None:
            raise RangeError("a stack needs at least one field")
        self.starts = np.cumsum([0] + [c.size for c in self.columns])
        self.scalar = (solve(np.concatenate(pieces, axis=1), p)
                       if self.starts[-1] else np.empty((self.shape[0], 0)))

    def field(self, k: int) -> np.ndarray:
        """The scalar Green's output of field k over the full window."""
        return self._on(k, slice(0, self.shape[1]))

    def framed(self, k: int):
        """Field k's output on the span of its live columns framed by one.

        Returns (cols, values): the span as a slice of the window's
        columns, clipped to it, and the output there. None when field k has
        no live column.
        """
        live = self.columns[k]
        if live.size == 0:
            return None
        cols = slice(max(int(live[0]) - 1, 0),
                     min(int(live[-1]) + 2, self.shape[1]))
        return cols, self._on(k, cols)

    def _on(self, k: int, cols: slice) -> np.ndarray:
        # field k's output on the columns cols, which hold all its live
        # ones: the stand-in's column everywhere else, row-major as a full
        # solve is
        live = self.columns[k] - cols.start
        out = np.empty((self.shape[0], cols.stop - cols.start))
        if live.size < out.shape[1]:
            out[...] = _stand_in(self.kind, self.shape[0], self.p)
        out[:, live] = self.scalar[:, self.starts[k]:self.starts[k + 1]]
        return out


def greens_apply(choice: GreensChoice, w: DualJet, p: ModelParams, *,
                 edge_check: bool = True) -> Jet:
    """Apply the chosen Green's operator to a dual jet.

    The output lives on w's window and satisfies: the linearized operator
    applied to it equals minus w, exactly on the window interior. The
    scalar part is a stack of one (ScalarStack), the wave part wave_green,
    and the output is bitwise that of the full-window solve.

    With edge_check enabled, the scalar output must vanish on the window
    frame, the sites outside its interior_mask (its kernel decays, so a hot
    frame means the source sits too close to the boundary for the window to
    stand in for the infinite lattice), and the wave source must vanish on
    its inflow rows (a source there cannot be represented, as its response
    starts outside the window). Hierarchy builders disable the check:
    their fields legitimately fill the light cone out to the boundary, and
    the experiment geometry keeps the extraction slices clear instead.
    """
    sb = ScalarStack(choice.scalar_kind, (w.b,), p).field(0)
    sv = wave_green(w.w_phi, choice.vector_kind)

    if edge_check:
        hot = float(np.abs(sb[~w.window.interior_mask()]).max())
        if not hot <= EDGE_TOLERANCE:  # also true for NaN
            raise TruncationError(
                f"scalar Green output reaches {hot:.3e} on the window "
                f"frame (tolerance {EDGE_TOLERANCE:.1e})")
        inflow = w.w_phi[::WAVE_STEPS[choice.vector_kind]][:2]
        src = float(np.abs(inflow).max())
        if not src <= EDGE_TOLERANCE:  # also true for NaN
            raise TruncationError(
                f"wave source reaches {src:.3e} on the "
                f"{choice.vector_kind} inflow rows (tolerance "
                f"{EDGE_TOLERANCE:.1e})")

    return Jet(w.window, sb, sv)


def greens_defects(out: Jet, w: DualJet, p: ModelParams
                   ) -> tuple[float, float]:
    """Largest interior defects (scalar, angular) of the Green's property.

    out is the Green's operator applied to w; both live on one window. The
    components decouple on the base configuration: the scalar defect reads
    out.a only, the angular one out.u_phi only, because the odd angular
    derivative vanishes there. The operator runs once, on the whole window:
    the reference that box_defect and cone_defect equal bit for bit.
    """
    window = common_window(w, out)
    dual = delta_ell_field(1, [out], p)
    whole = (slice(0, window.shape[0]), slice(0, window.shape[1]))
    return (_largest(window, dual.b, w.b, whole),
            _largest(window, dual.w_phi, w.w_phi, whole))


def box_defect(window: Window, k: int, field: np.ndarray,
               source: np.ndarray, box, p: ModelParams,
               read: slice | None = None) -> float:
    """Largest defect of one component of the Green's property on a box.

    k is 0 for the scalar component, 1 for the angle; field and source are
    that component of the output and of its source on the box, a pair of
    slices (rows, cols) of the window. The operator runs on the box as a
    sub-window, with the other component zero, and the defect
    |operator + source| is read on the box sites in the window interior and
    in the window rows read (all rows when None); with no such site it is
    0.0.

    This is the whole window's value, bit for bit, when the box holds the
    component's support framed by one site on the rows read and their
    neighbours: outside the frame every stencil partner of a site holds
    +-0 and the source is 0, so the operator there is +0.0 (the live-pairs
    argument of jets.stencil_contraction) and the defect 0 cannot raise the
    maximum; inside it the engine runs the same operations in the same
    order, and a partner cut off by the sub-window's edge would only have
    added +-0. Rows of the box outside read and its neighbours are
    evaluated with a clipped stencil and not read.
    """
    rows, cols = box
    sub = Window(window.t_min + rows.start, window.t_min + rows.stop - 1,
                 window.x_min + cols.start, window.x_min + cols.stop - 1)
    zeros = sub.zeros()
    op = delta_ell_field(1, [Jet(sub, field, zeros) if k == 0
                             else Jet(sub, zeros, field)], p)
    return _largest(window, op.w_phi if k else op.b, source, box, read)


def _largest(window: Window, op: np.ndarray, source: np.ndarray, box,
             read: slice | None = None) -> float:
    # max |op + source| over the box sites in the window interior and in
    # the window rows read (all when None), 0.0 when there are none
    rows, cols = box
    n_t, n_x = window.shape
    lo, hi = (1, n_t - 1) if read is None else (max(read.start, 1),
                                                min(read.stop, n_t - 1))
    inner = (slice(max(lo - rows.start, 0), max(hi - rows.start, 0)),
             slice(max(1 - cols.start, 0), n_x - 1 - cols.start))
    defect = np.add(op[inner], source[inner])
    if not defect.size:
        return 0.0
    return float(np.abs(defect, out=defect).max())


def cone_defect(window: Window, sv: np.ndarray, w_phi: np.ndarray,
                kind: str, box, p: ModelParams) -> float:
    """Largest interior angular defect of a wave Green's output on its cone.

    sv is wave_green(w_phi, kind) and w_phi vanishes off box, a pair of
    slices (rows, cols) of the window. The output is +-0 on and before the
    first source row in stepping order, and the stepping widens it by one
    column per row; so the rows from the one before the source box in
    stepping order to the window's end, on the columns of that cone framed
    by one, hold the support framed by one. Those rows are split into
    CONE_BANDS row bands, each evaluated by box_defect on the columns of its
    widest row, with one extra row on each side, and read on its own rows
    only. Bit for bit the angular value of greens_defects, with about two
    thirds of the sites of the cone's one framed box.
    """
    step = _kind(WAVE_STEPS, kind, "vector_kind")
    n_t, n_x = window.shape
    rows, cols = box
    # the row before the source in stepping order, the rows [lo, hi) from
    # it on, and how far the cone reaches past the box's columns at row t
    first = rows.start - 1 if step > 0 else rows.stop
    lo, hi = (max(first, 0), n_t) if step > 0 else (0, min(first + 1, n_t))

    def excess(t):
        return max(0, step * (t - first) - 2)

    edges = [lo + (hi - lo) * i // CONE_BANDS for i in range(CONE_BANDS + 1)]
    defects = [0.0]
    for top, end in zip(edges, edges[1:]):
        if top == end:
            continue
        m = max(excess(top), excess(end - 1)) + 1
        band = (slice(max(top - 1, 0), min(end + 1, n_t)),
                slice(max(cols.start - m, 0), min(cols.stop + m, n_x)))
        defects.append(box_defect(window, 1, sv[band], w_phi[band], band, p,
                                  read=slice(top, end)))
    # numpy's max, which keeps a NaN as the single box's maximum does
    return float(np.max(defects))


def greens_residual(out: Jet, w: DualJet, p: ModelParams) -> float:
    """Largest interior residual of the defining Green's property; NaN
    when either defect is."""
    return float(np.maximum(*greens_defects(out, w, p)))
