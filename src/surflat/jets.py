"""Jet spaces and the linearized operators built from slot derivatives.

A Jet is a linearized variation of the configuration: a scalar weight field a
and an angle field u_phi over a window. A DualJet pairs a scalar density b
with an angular density w_phi; operator outputs live there.

The derivative del_{slot, jet} acts on the interaction as multiplication by
the jet's scalar weight at the slot's point plus the jet's angle value times
the angular partial at that slot. Slot derivatives commute, and a jet sitting
inside another derivative is never differentiated, so a product of slot
derivatives expands into a finite sum of angular derivatives weighted by
field values.

The interaction depends on the two angles only through their difference
phi_x - phi_y, so the angular partial at slot 1 is the derivative D in that
difference and the one at slot 2 is -D. A signed factor s1 del_1 + s2 del_2
with a jet therefore acts as base + slope D, with base = s1 a(x) + s2 a(y)
and slope = s1 phi(x) - s2 phi(y), and a product of factors is a polynomial
in D: truncated Taylor arithmetic in one variable (Griewank and Walther,
Evaluating Derivatives, 2nd ed., ch. 13). Its coefficient fields c_0..c_ell
contract against the derivatives g_n = D^n of the interaction on the base
configuration, one stencil offset at a time. stencil_contraction evaluates
the series on the block of sites whose offset partner lies in the window, or
on the live pairs only, and delta_ell_field contracts one series against
both g_n (scalar part) and g_(n+1) (angular part); pair_product_sum
evaluates it at the interface sites of a region only. The pointwise nabla_L
and delta_ell keep the (kx, ky) expansion in the two angles as an
independent check of this engine.

Live pairs. A pair (x, y) contributes nothing when some factor's jet
vanishes at both of its used slots: its base and slope are +-0, so is every
coefficient, and adding +-0 to a sum that starts at +0.0 changes no bit
(stencil_contraction has the argument). The hierarchy's variations always
carry a seed factor, and the default seeds are wave bands on 2.2% of the
W=160 window, so at most 2.41% of a variation's pairs are live, and 8 of
the 13 variations of an order-3 build have under 0.1%. stencil_contraction
then gathers the live pairs (live_pairs) and runs the series on those
sites. The guard keeps whole blocks when a field holds inf or NaN or the
factors' product could overflow, since inf or NaN times zero is NaN, not
zero. Two constants pick the path. They follow the crossovers measured per
call (2-vCPU x86-64, numpy 2.4.6, medians of 21, wave bands 7 diagonals
wide, blocks -> live pairs):

- GATHER_MIN_SITES = 20,000. Order 1 takes 0.27 -> 0.40 ms at W=40
  (6,561 sites), 0.29 -> 0.34 ms at W=60 (14,641) and 0.81 -> 0.63 ms at
  W=80 (25,921). Orders 2 and 3 gain a little already at W=40 (order 3:
  0.92 -> 0.68 ms), but the limit follows order 1 and keeps every call of
  the W=40 suites on the blocks.
- GATHER_MAX_SHARE = 1/10, the share of the window on which the sparsest
  jet is nonzero. At W=160 order 1 takes 2.79 -> 1.31 ms at 2.2%,
  3.45 -> 3.34 ms at 10.0% and 2.95 -> 3.66 ms at 12.1%; orders 2 and 3
  still gain at 20% (order 3: 16.7 -> 9.7 ms). greens-verify's Green's
  images, whose pairs are 28% live, keep the blocks.

Each call works in one workspace (series_workspace): the rows c_0..c_ell
plus the scratch rows its order needs, viewed per block as contiguous
arrays and written with numpy's out= arguments, so the series allocates
nothing per operation. Every operation keeps the operands and the order of
the allocate-per-op form, so each field is bitwise unchanged, sign of zero
included. The block path runs band by band, each band about BAND_SITES
sites of whole rows, and within a band offset by offset; every output site
still receives its offsets in STENCIL_OFFSETS order, so the bands change no
bit either. The workspace covers one band: at W=160 that is 51 of the 321
rows, 0.52 MB for a dense order-1 call instead of 3.3 MB.

Page faults rest on the allocator. A 321 x 321 field is 824 KB. Left to
its defaults, glibc serves blocks that large from fresh mappings and
unmaps them on free, raising that threshold only after the process has
freed a larger mapped block, so each new field came back as newly zeroed
pages: 15.4k minor faults per hierarchy-w160 benchmark pass and 6.3k per
greens-sweep-w160 pass. cli.main pins the thresholds once (cli._pin_heap),
after which freed fields are reused and a warm pass takes 0 to 30 faults.
Whatever a call frees then stays in the heap, and the largest block it
ever held sets the heap's size; that is why the workspace covers one band
and not the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidJetError, RangeError, UnsupportedOrderError
from .lagrangian import (MAX_ORDER, ModelParams, lag_phi_deriv,
                         stencil_deriv_table)
from .space import LatticePoint, Region, STENCIL_OFFSETS, Window


def _as_field(window: Window, values) -> np.ndarray:
    if values is None:
        return window.zeros()
    arr = np.asarray(values, dtype=float)
    if arr.shape != window.shape:
        raise RangeError(
            f"field shape {arr.shape} does not match window {window.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class Jet:
    """A linearized variation (a, u_phi) over a window."""

    window: Window
    a: np.ndarray
    u_phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _as_field(self.window, self.a))
        object.__setattr__(self, "u_phi", _as_field(self.window, self.u_phi))

    @classmethod
    def zero(cls, window: Window) -> "Jet":
        return cls(window, window.zeros(), window.zeros())

    def a_at(self, point: LatticePoint) -> float:
        return float(self.a[self.window.index(point.t, point.x)])

    def phi_at(self, point: LatticePoint) -> float:
        return float(self.u_phi[self.window.index(point.t, point.x)])

    def has_zero_scalar(self) -> bool:
        return not self.a.any()

    def __add__(self, other: "Jet") -> "Jet":
        if other.window != self.window:
            raise RangeError("jet windows differ")
        return Jet(self.window, self.a + other.a, self.u_phi + other.u_phi)

    def __sub__(self, other: "Jet") -> "Jet":
        return self + (-1.0) * other

    def __rmul__(self, c: float) -> "Jet":
        return Jet(self.window, c * self.a, c * self.u_phi)


@dataclass(frozen=True, eq=False)
class DualJet:
    """A dual pairing (b, w_phi) over a window."""

    window: Window
    b: np.ndarray
    w_phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", _as_field(self.window, self.b))
        object.__setattr__(self, "w_phi", _as_field(self.window, self.w_phi))

    @classmethod
    def zero(cls, window: Window) -> "DualJet":
        return cls(window, window.zeros(), window.zeros())

    def __add__(self, other: "DualJet") -> "DualJet":
        if other.window != self.window:
            raise RangeError("dual jet windows differ")
        return DualJet(self.window, self.b + other.b,
                       self.w_phi + other.w_phi)

    def __rmul__(self, c: float) -> "DualJet":
        return DualJet(self.window, c * self.b, c * self.w_phi)


class DualValue(NamedTuple):
    """Value of a dual jet at a single point."""

    scalar: float
    phi: float


@dataclass(frozen=True)
class PointDeriv:
    """A slot derivative: slot 1 acts at the first interaction argument,
    slot 2 at the second."""

    slot: int
    jet: Jet

    def __post_init__(self):
        if self.slot not in (1, 2):
            raise InvalidJetError(f"slot must be 1 or 2, got {self.slot}")


def nabla_L(derivs: Sequence[PointDeriv], x: LatticePoint, y: LatticePoint,
            p: ModelParams) -> float:
    """Product of slot derivatives applied to the interaction at (x, y).

    Expands every derivative into its multiplication and angular parts and
    contracts against the mixed angular derivatives of the interaction.
    """
    terms = {(0, 0): 1.0}
    for d in derivs:
        point = x if d.slot == 1 else y
        weight = d.jet.a_at(point)
        angle = d.jet.phi_at(point)
        new: dict[tuple[int, int], float] = {}
        for (kx, ky), c in terms.items():
            new[(kx, ky)] = new.get((kx, ky), 0.0) + c * weight
            key = (kx + 1, ky) if d.slot == 1 else (kx, ky + 1)
            new[key] = new.get(key, 0.0) + c * angle
        terms = new
    total = 0.0
    for (kx, ky), c in sorted(terms.items()):
        if c != 0.0:
            total += c * lag_phi_deriv(p, x, y, kx, ky)
    return total


# --- the D-series engine ---

# stencil_contraction evaluates whole blocks on windows of fewer sites, where
# finding the live pairs costs more than it saves (see the module notes)
GATHER_MIN_SITES = 20_000
# ... and unless some factor's jet is nonzero, in a or u_phi, on at most this
# share of the window
GATHER_MAX_SHARE = 1 / 10
# the block path runs over bands of whole rows of about this many sites,
# at least one row, so its workspace covers one band, not the window (see
# the module notes). A W=40 window (81 x 81) stays one band, W=80 takes two
# and W=160 seven. Dense delta_ell_field calls, medians of 21 with the
# allocator pinned as cli.main pins it (2-vCPU x86-64, numpy 2.4.6), whole
# window -> 16,384-site bands, orders 1 to 4: at W=160 3.8 -> 3.2,
# 10.1 -> 8.1, 18.7 -> 13.1 and 29.9 -> 19.6 ms, about what 32,768-site
# bands give; 8,192 gives 3.3, 7.8, 14.5 and 21.8 ms and 4,096 is slower
# than the whole window at orders 1 and 2. At W=40 two bands (4,096 sites)
# cost more than one: order 2 0.65 -> 0.82 ms.
BAND_SITES = 16_384
# the guard: live pairs are used only while every partial product of the
# factors is bounded by this, far below the largest double
PRODUCT_BOUND = 1e300


def series_workspace(n_factors: int, n_sites: int) -> np.ndarray:
    """Flat workspace for the D-series of n_factors factors on n_sites sites.

    Rows 0..n_factors hold the coefficients c_0..c_ell, and scratch rows
    follow. While the series grows they hold a later factor's base and
    slope and one partial product; the first factor's base and slope are
    c_0 and c_1 themselves. While it is contracted the first two hold the
    running sum and one term. One factor thus needs two scratch rows, more
    factors three.
    """
    n_scratch = 2 if n_factors == 1 else 3
    return np.empty((n_factors + 1 + n_scratch, n_sites))


def workspace_rows(ws: np.ndarray, shape) -> list[np.ndarray]:
    """The workspace's rows viewed as contiguous blocks of the given shape.

    A list of views, made once per block: the series update indexes rows
    often, and a list hands out the same view each time.
    """
    return list(ws[:, :math.prod(shape)].reshape(len(ws), *shape))


def slot_factor_maps(factors, x_sites, y_sites, rows):
    """D-series of a product of signed slot derivatives.

    factors is a non-empty sequence of (jet, s1, s2) triples, each standing
    for the operator s1 * del_1 + s2 * del_2 applied with that jet. Slot 1
    sits at the sites x_sites selects from the jets' fields, slot 2 at the
    partner sites y_sites selects; both are numpy indices of equal shape
    (slices of a block or arrays of site indices). Each factor acts on the
    interaction as base + slope * D, where D is the derivative in the angle
    difference phi_x - phi_y, base = s1 a(x) + s2 a(y) and
    slope = s1 phi(x) - s2 phi(y). rows are the workspace_rows of a
    series_workspace for len(factors) factors, shaped like the selected
    sites; the return value is the list of its leading rows c_0..c_ell, the
    coefficient fields of D^0..D^ell in the product. The product grows from
    the top coefficient down, so each update reads coefficients not yet
    overwritten.
    """
    n_coeffs = len(factors) + 1
    scratch = rows[n_coeffs:]
    for k, (jet, s1, s2) in enumerate(factors):
        base, slope = (rows[0], rows[1]) if k == 0 else scratch[:2]
        _signed_sum(s1, jet.a[x_sites], s2, jet.a[y_sites], base)
        _signed_sum(s1, jet.u_phi[x_sites], -s2, jet.u_phi[y_sites], slope)
        if k == 0:
            continue
        part = scratch[2]
        np.multiply(rows[k], slope, out=rows[k + 1])
        for n in range(k, 0, -1):
            np.multiply(rows[n], base, out=rows[n])
            np.multiply(rows[n - 1], slope, out=part)
            np.add(rows[n], part, out=rows[n])
        np.multiply(rows[0], base, out=rows[0])
    return rows[:n_coeffs]


def _signed_sum(s1: float, x: np.ndarray, s2: float, y: np.ndarray,
                out: np.ndarray):
    # an unused slot is skipped, so its partner sites are never read; equal
    # or opposite signs, the only ones in use, take one add or subtract, and
    # a unit scale no multiply, since 1.0 * x is bitwise x, -0.0 included
    if s1 == 0.0 or s2 == 0.0:
        scale, total = (s1, x) if s2 == 0.0 else (s2, y)
    elif s2 == s1 or s2 == -s1:
        scale, total = s1, (np.add if s2 == s1 else np.subtract)(x, y, out=out)
    else:
        np.add(s1 * x, s2 * y, out=out)
        return
    if scale != 1.0:
        np.multiply(scale, total, out=out)
    elif total is not out:
        np.copyto(out, total)


def _contract(coeffs, table, offset, shift: int, total, term):
    """Sum of c_n times the (n + shift)-th angular derivative at offset.

    The sum is built in the row total, each product in the row term; both
    are scratch rows of the coefficients' workspace. The interaction enters
    at base offset x - y = -offset (the stencil data is even, so this only
    matters for bookkeeping). Vanishing derivatives, such as every odd order
    on the base configuration, are skipped; None is returned if all vanish.
    """
    idx = STENCIL_OFFSETS.index((-offset[0], -offset[1]))
    started = False
    for n, coeff in enumerate(coeffs):
        d = table[(n + shift, 0)][idx]
        if d != 0.0:
            if started:
                np.add(total, np.multiply(coeff, d, out=term), out=total)
            else:
                np.multiply(coeff, d, out=total)
                started = True
    return total if started else None


def live_pairs(window: Window, factors):
    """Flat site indices of the live pairs per offset, or None for blocks.

    A pair (x, y = x + offset) is live when every factor's jet is nonzero at
    x or at y, counting only the slots whose sign is nonzero. Returns a dict
    mapping each offset in STENCIL_OFFSETS order to (ix, iy), the row-major
    indices of the live x and of their partners, or None when the call
    should evaluate whole blocks: on a window under GATHER_MIN_SITES sites,
    when no jet is nonzero on at most GATHER_MAX_SHARE of the window, or
    when the guard fails. The checks run cheapest first: the size, then the
    supports and their counts, then the guard, then the pair masks.
    """
    n_t, n_x = window.shape
    if n_t * n_x < GATHER_MIN_SITES:
        return None
    distinct = {id(jet): jet for jet, _, _ in factors}
    support = {key: (jet.a != 0.0) | (jet.u_phi != 0.0)
               for key, jet in distinct.items()}
    if min(map(np.count_nonzero, support.values())) \
            > GATHER_MAX_SHARE * n_t * n_x:
        return None
    # the guard: finite fields, and every partial product of the factors
    # within PRODUCT_BOUND. Each factor's bound is taken at least 1, so that
    # a subset's product is within the whole product's and a zero jet
    # cannot cancel an overflow
    sizes = {}
    for key, jet in distinct.items():
        extremes = (jet.a.max(), -jet.a.min(),
                    jet.u_phi.max(), -jet.u_phi.min())
        if not all(map(math.isfinite, extremes)):
            return None
        sizes[key] = float(max(extremes))
    bound = 1.0
    for jet, s1, s2 in factors:
        bound *= max(1.0, 2.0 * (abs(s1) + abs(s2)) * sizes[id(jet)])
    if bound > PRODUCT_BOUND:
        return None
    # factors repeating a jet and its used slots repeat the same mask
    needs = {(id(jet), s1 != 0.0, s2 != 0.0) for jet, s1, s2 in factors}
    pairs = {}
    for dt, dx in STENCIL_OFFSETS:
        x_block, y_block = window.shift_blocks(dt, dx)
        live = None
        for key, at_x, at_y in needs:
            mask = support[key]
            if at_x and at_y:
                part = mask[x_block] | mask[y_block]
            elif at_x or at_y:
                part = mask[x_block if at_x else y_block]
            else:
                part = np.zeros(mask[x_block].shape, dtype=bool)
            live = part if live is None else live & part
        # flat indices within the block, then within the window
        i, j = np.divmod(np.flatnonzero(live), live.shape[1])
        ix = (i + x_block[0].start) * n_x + (j + x_block[1].start)
        pairs[(dt, dx)] = (ix, ix + (dt * n_x + dx))
    return pairs


def stencil_contraction(p: ModelParams, window: Window, factors):
    """Scalar and angular fields of the stencil-summed slot-derivative product.

    Returns (scalar, angular). scalar is the sum over y in the windowed
    configuration of the product of the signed slot derivatives applied to
    the interaction, as a field over x; angular is the same sum with one
    more angular derivative at slot 1, the angular component of dual-jet
    valued operators. Both contract one D-series per offset, in one
    workspace shared by the five offsets.

    Sparse factors are evaluated on their live pairs only (live_pairs): the
    series runs on the gathered sites and is added into the outputs there.
    Otherwise, and on windows under GATHER_MIN_SITES sites, it runs on the
    block of sites whose partner lies in the window, one band of about
    BAND_SITES sites of whole rows at a time, all five offsets per band, so
    the workspace covers one band. Each output site still receives its
    offsets in STENCIL_OFFSETS order. Both paths give the same bits, sign
    of zero included. The outputs start at +0.0. At a pair
    where some factor's base and slope are both +-0, every coefficient is
    +-0, provided the values are finite and no partial product overflows,
    which the guard in live_pairs ensures (inf or NaN would turn a product
    with zero into NaN). Under round-to-nearest +0.0 + (+-0) = +0.0 and
    v + (+-0) = v, so a sum that starts at +0.0 never becomes -0.0, and
    skipping those contributions changes no bit. Every other pair goes
    through the same operations in the same order on both paths.
    """
    table = stencil_deriv_table(p)
    scalar = window.zeros()
    angular = window.zeros()
    pairs = live_pairs(window, factors)
    if pairs is not None:
        _gathered_contraction(table, factors, pairs, scalar, angular)
        return scalar, angular
    n_t, n_x = window.shape
    band = min(n_t, max(1, BAND_SITES // n_x))
    ws = series_workspace(len(factors), band * n_x)
    blocks = [(offset, *window.shift_blocks(*offset))
              for offset in STENCIL_OFFSETS]
    for first in range(0, n_t, band):
        for offset, (x_rows, x_cols), (_, y_cols) in blocks:
            # the block's x rows within the band, and their partners
            lo = max(first, x_rows.start)
            hi = min(first + band, x_rows.stop)
            if lo >= hi:
                continue
            x_block = (slice(lo, hi), x_cols)
            y_block = (slice(lo + offset[0], hi + offset[0]), y_cols)
            rows = workspace_rows(ws, (hi - lo, x_cols.stop - x_cols.start))
            coeffs = slot_factor_maps(factors, x_block, y_block, rows)
            for out, shift in ((scalar, 0), (angular, 1)):
                contrib = _contract(coeffs, table, offset, shift,
                                    rows[len(coeffs)], rows[len(coeffs) + 1])
                if contrib is not None:
                    out[x_block] += contrib
    return scalar, angular


class _FlatJet(NamedTuple):
    # a jet's fields as flat views, read by slot_factor_maps at flat indices
    a: np.ndarray
    u_phi: np.ndarray


def _gathered_contraction(table, factors, pairs, scalar, angular):
    # stencil_contraction on the live pairs: the series of each offset on
    # its gathered sites, added into the flat outputs at those sites
    flat = {id(jet): _FlatJet(jet.a.ravel(), jet.u_phi.ravel())
            for jet, _, _ in factors}
    flat_factors = [(flat[id(jet)], s1, s2) for jet, s1, s2 in factors]
    outputs = ((scalar.ravel(), 0), (angular.ravel(), 1))
    ws = series_workspace(len(factors),
                          max(ix.size for ix, _ in pairs.values()))
    for offset, (ix, iy) in pairs.items():
        if ix.size == 0:
            continue
        rows = workspace_rows(ws, ix.shape)
        coeffs = slot_factor_maps(flat_factors, ix, iy, rows)
        for out, shift in outputs:
            contrib = _contract(coeffs, table, offset, shift,
                                rows[len(coeffs)], rows[len(coeffs) + 1])
            if contrib is not None:
                out[ix] += contrib


def pair_product_sum(p: ModelParams, omega: Region, factors) -> float:
    """Sum of a signed slot-derivative product over the interface pairs.

    factors is a sequence of (jet, s1, s2) triples as in slot_factor_maps;
    the product is applied to the interaction and summed over the pairs
    enumerated by stencil_pairs(omega). The D-series is evaluated at the
    region's interface sites only, in one workspace sized for the largest
    offset. The sites come from omega.interface_sites, found once per
    region: its mask is read-only, so repeated sums over one region (a
    surface-layer sweep makes six per cut) never scan the window again.
    """
    table = stencil_deriv_table(p)
    sites = omega.interface_sites
    ws = series_workspace(len(factors),
                          max(x[0].size for x, _ in sites.values()))
    total = 0.0
    for offset, (x_sites, y_sites) in sites.items():
        if x_sites[0].size == 0:
            continue
        rows = workspace_rows(ws, x_sites[0].shape)
        coeffs = slot_factor_maps(factors, x_sites, y_sites, rows)
        acc = _contract(coeffs, table, offset, 0, rows[len(coeffs)],
                        rows[len(coeffs) + 1])
        if acc is not None:
            total += float(acc.sum())
    return total


def region_product_sum(omega: Region, jets: Sequence[Jet]) -> float:
    """Sum over the region's sites of the product of the jets' weights."""
    mask = omega.mask
    prod = np.ones(np.count_nonzero(mask))
    for jet in jets:
        np.multiply(prod, jet.a[mask], out=prod)
    return float(prod.sum())


def _check_variation_inputs(ell_order: int, jets: Sequence[Jet],
                            window: Window):
    if ell_order < 1 or ell_order > MAX_ORDER:
        raise UnsupportedOrderError(
            f"variation order {ell_order} outside 1..{MAX_ORDER}")
    if len(jets) != ell_order:
        raise InvalidJetError(
            f"expected {ell_order} jets, got {len(jets)}")
    for jet in jets:
        if jet.window != window:
            raise RangeError("jet window does not match the given window")


def delta_ell_field(ell_order: int, jets: Sequence[Jet], p: ModelParams,
                    window: Window) -> DualJet:
    """Multilinear variation of the field equation functional, as fields.

    Computes (1 / ell_order!) times the stencil sum of the product of
    del_1 + del_2 over the given jets applied to the interaction, minus the
    volume counterterm (nu / 2) times the product of the scalar weights,
    which enters the scalar component only. Sites near the window edge use
    the clipped stencil of the windowed configuration.
    """
    _check_variation_inputs(ell_order, jets, window)
    factors = [(jet, 1.0, 1.0) for jet in jets]
    scalar, phi = stencil_contraction(p, window, factors)
    # in place on fresh arrays, in the order of
    # scale * (scalar - 0.5 * nu * prod(a)); 1.0 * a is a, so the product
    # starts from a copy of the first weight, and scale 1 is skipped
    weights = jets[0].a.copy()
    for jet in jets[1:]:
        np.multiply(weights, jet.a, out=weights)
    np.multiply(0.5 * p.nu, weights, out=weights)
    np.subtract(scalar, weights, out=scalar)
    if ell_order > 1:
        scale = 1.0 / math.factorial(ell_order)
        np.multiply(scale, scalar, out=scalar)
        np.multiply(scale, phi, out=phi)
    return DualJet(window, scalar, phi)


def delta_ell(ell_order: int, jets: Sequence[Jet], x: LatticePoint,
              p: ModelParams, window: Window) -> DualValue:
    """Multilinear variation of the field equation functional at one point.

    x must sit at least one site inside the window so the stencil sum is the
    full one. Returns the scalar and angular components of the dual jet.
    """
    _check_variation_inputs(ell_order, jets, window)
    if not (window.t_min < x.t < window.t_max
            and window.x_min < x.x < window.x_max):
        raise RangeError(
            f"point ({x.t}, {x.x}) needs margin 1 inside window {window}")
    scalar = 0.0
    phi = 0.0
    for (dt, dx) in STENCIL_OFFSETS:
        y = LatticePoint(x.t + dt, x.x + dx)
        terms = {(0, 0): 1.0}
        for jet in jets:
            a_sum = jet.a_at(x) + jet.a_at(y)
            new: dict[tuple[int, int], float] = {}
            for key, c in terms.items():
                kx, ky = key
                new[key] = new.get(key, 0.0) + c * a_sum
                new[(kx + 1, ky)] = new.get((kx + 1, ky), 0.0) \
                    + c * jet.phi_at(x)
                new[(kx, ky + 1)] = new.get((kx, ky + 1), 0.0) \
                    + c * jet.phi_at(y)
            terms = new
        base = LatticePoint(-dt, -dx, x.phi)
        origin = LatticePoint(0, 0)
        for (kx, ky), c in sorted(terms.items()):
            if c != 0.0:
                scalar += c * lag_phi_deriv(p, base, origin, kx, ky)
                phi += c * lag_phi_deriv(p, base, origin, kx + 1, ky)
    counter = 0.5 * p.nu
    for jet in jets:
        counter *= jet.a_at(x)
    scale = 1.0 / math.factorial(ell_order)
    return DualValue(scale * (scalar - counter), scale * phi)


def delta_op(v: Jet, x: LatticePoint, p: ModelParams,
             window: Window) -> DualValue:
    """Linearized field operator at a point; equals delta_ell of order one."""
    return delta_ell(1, [v], x, p, window)


def delta_op_field(v: Jet, p: ModelParams, window: Window) -> DualJet:
    """Linearized field operator over the whole window."""
    return delta_ell_field(1, [v], p, window)
