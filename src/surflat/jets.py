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
evaluates it, for any signs, at the interface sites of a region only. The
pointwise nabla_L and delta_ell keep the (kx, ky) expansion in the two
angles as an independent check of this engine.

Each pair once. The factors of delta_ell_field are del_1 + del_2, and
seen from its other end a neighbour pair {x, y} keeps each base
a(x) + a(y) and negates each slope phi(x) - phi(y), so its coefficients
become (-1)^n c_n, exactly: IEEE negation commutes with rounding, and only
the sign of an exact zero can differ, which no output sees (see below). The
derivative table is even in the offset, bitwise, and its odd orders are
exact zeros (tests/test_lagrangian.py::
test_stencil_deriv_table_even_with_vanishing_odd_orders), so the scalar
part S reads even coefficients only and the angular part A odd ones only.
The far end of the pair therefore receives S and -A. stencil_contraction
evaluates the classes of PAIR_CLASSES: (-1, 0) also serves (1, 0), (0, -1)
also serves (0, 1), and (0, 0) serves itself, about half the series of
five offsets.

Live pairs. A pair (x, y) contributes nothing when some factor's jet
vanishes at both of its used slots: its base and slope are +-0, so is every
coefficient, and adding +-0 to a sum that starts at +0.0 changes no bit
(stencil_contraction has the argument). The hierarchy's variations always
carry a seed factor, and the default seeds are wave bands on 2.2% of the
W=160 window, so at most 2.5% of a variation's pairs are live, and 4 of
the 5 variations of an order-3 build have under 0.1%. stencil_contraction
then gathers the live pairs (live_pairs) and runs the series on those
sites. The guard keeps whole blocks when a field holds inf or NaN or the
factors' product could overflow, since inf or NaN times zero is NaN, not
zero. Two constants pick the path, GATHER_MIN_SITES and GATHER_MAX_SHARE,
set on the blocks' side of the crossovers that README's "live pairs only"
note gives. A jet's fields are read-only, so what live_pairs and the guard
read of a jet (its support and its facts) is computed once per jet and
kept.

Dead coefficients. Some factors lack a part at every site: a factor whose
jet's a holds only +-0 has base +-0 (pure slope), one whose u_phi does has
slope +-0 (pure base), and on the self class (0, 0) every factor is pure
base, since phi(x) - phi(x) = +0 for finite phi. With k pure-slope and j
pure-base factors, every term of c_n for n < k takes a +-0 base and every
term for n > ell - j a +-0 slope, so those c_n are +-0 at every site, and
so is the counterterm when k > 0. slot_factor_maps computes no such row
(it returns None there) and _contract and delta_ell_field skip it. That
leaves one coefficient of a wave jet's order-1 series on its two neighbour
classes and none on the self class, c_0 of a scalar one, and c_2 of the
wave pairs of the symplectic and symmetric forms. A live coefficient may
then differ from the full expansion in the sign of a zero only, and every
output is a sum that starts at +0.0, where adding +-0 changes no bit (the
live-pairs argument). This holds under the same guard, finite fields and
every partial product within PRODUCT_BOUND, since +-0 times inf or NaN is
NaN; when it fails every coefficient is computed.

Temporaries. Each operation of the series returns its own array, and a
call updates in place (*=, +=) only arrays it created itself, never a jet's
read-only field. The operands and the order of operations are those of the
plain one-array-per-operation form, so each field is bitwise that form's,
sign of zero included. The block path runs band by band, each band about
BAND_SITES sites of whole rows, and within a band class by class; every
output site still receives its terms in STENCIL_OFFSETS order, so neither
the bands nor the held terms (each neighbour class's S and A) change a bit.
A class's coefficients and a factor's base and slope are released before
the next ones are built, so besides its two outputs a call holds about
ell + 6 arrays of one band: at W=160 a band is 31 of the 321 rows.

Page faults rest on the allocator. A 321 x 321 field is 824 KB. Left to
its defaults, glibc serves blocks that large from fresh mappings and
unmaps them on free, raising that threshold only after the process has
freed a larger mapped block, so each new field came back as newly zeroed
pages. cli.main pins the thresholds once (cli._pin_heap), after which
freed arrays are reused (README's "recycled memory" note). Whatever a call
frees then stays in the heap, and the largest block it ever held sets the
heap's size; that is why the bands bound the temporaries and the held
terms, and not the window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidJetError, RangeError
from .lagrangian import (ModelParams, lag_phi_deriv, require_order,
                         stencil_deriv_table)
from .space import (LatticePoint, Region, STENCIL_OFFSETS, Window,
                    common_window)


def _as_field(window: Window, values) -> np.ndarray:
    # a read-only view, so that what a jet caches about its fields stays
    # valid for its lifetime
    if values is None:
        values = window.zeros()
    arr = np.asarray(values, dtype=float).view()
    if arr.shape != window.shape:
        raise RangeError(
            f"field shape {arr.shape} does not match window {window.shape}")
    arr.flags.writeable = False
    return arr


class JetFacts(NamedTuple):
    """What a jet's extremes tell: its size, the largest |value| (inf when
    a value is not finite), and whether a and u_phi hold anything but +-0
    (NaN counts)."""

    size: float
    has_scalar: bool
    has_angle: bool


@dataclass(frozen=True, eq=False)
class Jet:
    """A linearized variation (a, u_phi) over a window.

    Its fields are read-only views, and what is known about them is
    computed on first use and kept, cheapest first: facts (from the four
    extremes), then support.
    """

    window: Window
    a: np.ndarray
    u_phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _as_field(self.window, self.a))
        object.__setattr__(self, "u_phi", _as_field(self.window, self.u_phi))

    @functools.cached_property
    def facts(self) -> JetFacts:
        """What the extremes of a and u_phi tell, computed once."""
        extremes = (float(self.a.max()), -float(self.a.min()),
                    float(self.u_phi.max()), -float(self.u_phi.min()))
        finite = all(map(math.isfinite, extremes))
        return JetFacts(max(extremes) if finite else math.inf,
                        extremes[0] != 0.0 or extremes[1] != 0.0,
                        extremes[2] != 0.0 or extremes[3] != 0.0)

    @functools.cached_property
    def support(self) -> tuple[np.ndarray, int]:
        """The read-only mask of sites where a or u_phi is not +-0, and
        its count."""
        mask = (self.a != 0.0) | (self.u_phi != 0.0)
        mask.flags.writeable = False
        return mask, int(np.count_nonzero(mask))

    @classmethod
    def zero(cls, window: Window) -> "Jet":
        return cls(window, window.zeros(), window.zeros())

    def a_at(self, point: LatticePoint) -> float:
        return float(self.a[self.window.index(point.t, point.x)])

    def phi_at(self, point: LatticePoint) -> float:
        return float(self.u_phi[self.window.index(point.t, point.x)])

    def __add__(self, other: "Jet") -> "Jet":
        return Jet(common_window(self, other), self.a + other.a,
                   self.u_phi + other.u_phi)

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

# stencil_contraction evaluates whole blocks on windows of fewer sites. A
# sparse order-1 call gathers faster from between W=50 and W=60 on; the limit
# sits above that, where no workload call is sparse, and keeps every call of
# the W=40 suites on the blocks (README, "live pairs only")
GATHER_MIN_SITES = 20_000
# ... and unless some factor's jet is nonzero, in a or u_phi, on at most this
# share of the window; order 1 at W=160 gathers faster at 13.5% and slower at
# 19.2%, orders 2 and 3 faster at both
GATHER_MAX_SHARE = 1 / 10
# the block path runs over bands of whole rows of about this many sites, at
# least one row, so its temporaries and held terms cover one band, not the
# window (README, "each pair once, one sweep for all draws")
BAND_SITES = 10_240
# the guard: live pairs are used only while every partial product of the
# factors is bounded by this, far below the largest double
PRODUCT_BOUND = 1e300
# stencil_contraction evaluates each neighbour pair once, from its end x
# with y = x + offset, and each site's own term: the (1, 0) and (0, 1)
# offsets are served by their opposites
PAIR_CLASSES = ((-1, 0), (0, -1), (0, 0))


def slot_factor_maps(factors, x_sites, y_sites):
    """D-series of a product of signed slot derivatives.

    factors is a non-empty sequence of (jet, s1, s2) triples, each standing
    for the operator s1 * del_1 + s2 * del_2 applied with that jet. Slot 1
    sits at the sites x_sites selects from the jets' fields, slot 2 at the
    partner sites y_sites selects; both are numpy indices of equal shape
    (slices of a block or arrays of site indices), and passing one object
    as both marks the self pairs (x, x). Each factor acts on the
    interaction as base + slope * D, where D is the derivative in the angle
    difference phi_x - phi_y, base = s1 a(x) + s2 a(y) and
    slope = s1 phi(x) - s2 phi(y). Returns the list c_0..c_ell of the
    coefficient fields of D^0..D^ell in the product, shaped like the
    selected sites, with None for each dead coefficient (see the module
    notes), which is never computed. The first factor's base and slope are
    c_0 and c_1; each later factor updates the coefficients in place, from
    the top one down, so each update reads coefficients not yet updated.
    """
    coeffs = [None] * (len(factors) + 1)
    parts = _factor_parts(factors, x_sites is y_sites)
    # the coefficients lo..hi of the product so far may be nonzero; the
    # empty product is c_0 = 1
    lo, hi = 0, 0
    for k, ((jet, s1, s2), (has_base, has_slope)) in enumerate(
            zip(factors, parts)):
        if not (has_base or has_slope):
            hi = -1
        if lo > hi:
            break
        # the previous factor's are released before this one's are built
        base = slope = None
        if has_base:
            base = _signed_sum(s1, jet.a[x_sites], s2, jet.a[y_sites])
        if has_slope:
            slope = _signed_sum(s1, jet.u_phi[x_sites], -s2,
                                jet.u_phi[y_sites])
        if k == 0:
            coeffs[:2] = base, slope
        else:
            for n in range(hi + has_slope, lo + (not has_base) - 1, -1):
                # c_n = c_n base + c_(n-1) slope, each term only where its
                # coefficient and its part of the factor are live; the
                # slope term is live wherever the base term is not
                if has_base and n <= hi:
                    coeffs[n] *= base
                    if has_slope and n > lo:
                        coeffs[n] += coeffs[n - 1] * slope
                else:
                    coeffs[n] = coeffs[n - 1] * slope
        lo, hi = lo + (not has_base), hi + has_slope
    return [c if lo <= n <= hi else None for n, c in enumerate(coeffs)]


def _guarded(factors) -> bool:
    """The live-pairs guard: finite fields, and every partial product of the
    factors within PRODUCT_BOUND.

    Each factor's bound is taken at least 1, so that a subset's product is
    within the whole product's and a zero jet cannot cancel an overflow.
    """
    bound = 1.0
    for jet, s1, s2 in factors:
        # base s1 a(x) + s2 a(y) and slope s1 phi(x) - s2 phi(y) are each
        # at most (|s1| + |s2|) times the jet's size, which is inf unless
        # the fields are finite
        bound *= max(1.0, 2.0 * (abs(s1) + abs(s2)) * jet.facts.size)
    return bound <= PRODUCT_BOUND


def _factor_parts(factors, self_pairs: bool) -> list[tuple[bool, bool]]:
    """(has_base, has_slope) of each factor: False where that part is +-0.

    A factor's base is +-0 when its jet's a holds only +-0 (pure slope),
    its slope when its u_phi does (pure base) or, on self pairs, when
    s1 == s2, since phi(x) - phi(x) = +0. Every part is kept when the guard
    fails.
    """
    if not _guarded(factors):
        return [(True, True)] * len(factors)
    return [(jet.facts.has_scalar,
             jet.facts.has_angle and not (self_pairs and s1 == s2))
            for jet, s1, s2 in factors]


def _signed_sum(s1: float, x: np.ndarray, s2: float, y: np.ndarray):
    # a new array, which the caller may update in place. An unused slot is
    # skipped, so its partner sites are never read; equal or opposite
    # signs, the only ones in use, take one add or subtract; a unit scale
    # takes a copy, not a multiply, since 1.0 * x is bitwise x, -0.0
    # included, and x may be a view of a jet's read-only field
    if s1 == 0.0 or s2 == 0.0:
        scale, total = (s1, x) if s2 == 0.0 else (s2, y)
        return total.copy() if scale == 1.0 else scale * total
    if s2 != s1 and s2 != -s1:
        return s1 * x + s2 * y
    total = x + y if s2 == s1 else x - y
    if s1 != 1.0:
        total *= s1
    return total


def _contract(coeffs, table, offset, shift: int):
    """Sum of c_n times the (n + shift)-th angular derivative at offset.

    The interaction enters at base offset x - y = -offset (the stencil data
    is even, so this only matters for bookkeeping). Dead coefficients (None)
    and vanishing derivatives, such as every odd order on the base
    configuration, are skipped; None is returned if nothing is left.
    """
    idx = STENCIL_OFFSETS.index((-offset[0], -offset[1]))
    total = None
    for n, coeff in enumerate(coeffs):
        if coeff is None:
            continue
        d = table[(n + shift, 0)][idx]
        if d != 0.0:
            if total is None:
                total = coeff * d
            else:
                total += coeff * d
    return total


def live_pairs(jets: Sequence[Jet]):
    """Flat site indices of the live pairs per class, or None for blocks.

    A pair (x, y = x + offset) is live when every jet is nonzero at x or at
    y, so it is live for an offset exactly when it is live for the opposite
    one. Returns a dict mapping each offset of PAIR_CLASSES, in that order,
    to (ix, iy), the row-major indices of the live x and of their partners,
    or None when the call should evaluate whole blocks: on a window under
    GATHER_MIN_SITES sites, when no jet is nonzero on at most
    GATHER_MAX_SHARE of the window, or when the guard (_guarded) fails. The
    checks run cheapest first: the size, then the supports and their counts,
    then the guard, then the pair masks; each jet's support and facts are
    computed once and kept by the jet.
    """
    window = jets[0].window
    n_t, n_x = window.shape
    if n_t * n_x < GATHER_MIN_SITES:
        return None
    distinct = list({id(jet): jet for jet in jets}.values())
    if (min(jet.support[1] for jet in distinct)
            > GATHER_MAX_SHARE * n_t * n_x):
        return None
    if not _guarded([(jet, 1.0, 1.0) for jet in jets]):
        return None
    pairs = {}
    for dt, dx in PAIR_CLASSES:
        x_block, y_block = window.shift_blocks(dt, dx)
        live = None
        for jet in distinct:
            mask = jet.support[0]
            part = mask[x_block] | mask[y_block]
            live = part if live is None else live & part
        # flat indices within the block, then within the window
        i, j = np.divmod(np.flatnonzero(live), live.shape[1])
        ix = (i + x_block[0].start) * n_x + (j + x_block[1].start)
        pairs[(dt, dx)] = (ix, ix + (dt * n_x + dx))
    return pairs


def stencil_contraction(p: ModelParams, jets: Sequence[Jet]):
    """Scalar and angular fields of the stencil-summed slot-derivative product.

    Returns (scalar, angular). scalar is the sum over y in the windowed
    configuration of the product of del_1 + del_2 over the jets applied to
    the interaction, as a field over x; angular is the same sum with one
    more angular derivative at slot 1, the angular component of dual-jet
    valued operators.

    Each neighbour pair is expanded once (see the module notes): one
    D-series per class of PAIR_CLASSES, from the end x of each pair. Its
    scalar part S and angular part A are added at x; the partner
    y = x + offset, which sees the pair at the opposite offset, gets S added
    and A subtracted. Every output site still receives its terms in
    STENCIL_OFFSETS order: its (-1, 0) and (0, -1) terms as an end x, its
    (0, 0) term, then its (0, 1) and (1, 0) terms as a partner, which are
    held until then.

    Sparse jets are evaluated on their live pairs only (live_pairs): the
    series runs on the gathered sites and is added into the outputs there.
    Otherwise, and on windows under GATHER_MIN_SITES sites, it runs on the
    block of sites whose partner lies in the window, one band of about
    BAND_SITES sites of whole rows at a time, so the temporaries and the
    held terms cover one band. A (1, 0) partner lies one row before its
    end x, so a band's last row receives its (1, 0) terms from the next
    band, still last. Both paths give the same bits, sign of zero included. The
    outputs start at +0.0. At a pair where some jet is +-0 at both ends,
    every coefficient is +-0, provided the values are finite and no partial
    product overflows, which the guard in live_pairs ensures (inf or NaN
    would turn a product with zero into NaN). Under round-to-nearest
    +0.0 + (+-0) = +0.0 and v + (+-0) = v, so a sum that starts at +0.0
    never becomes -0.0, and skipping those contributions changes no bit.
    Every other pair goes through the same operations in the same order on
    both paths.
    """
    window = jets[0].window
    table = stencil_deriv_table(p)
    scalar = window.zeros()
    angular = window.zeros()
    pairs = live_pairs(jets)
    if pairs is not None:
        _contract_classes(table, [_FlatJet.of(jet) for jet in jets],
                          pairs.items(), (scalar.ravel(), angular.ravel()))
        return scalar, angular
    n_t, n_x = window.shape
    band = min(n_t, max(1, BAND_SITES // n_x))
    blocks = [(offset, *window.shift_blocks(*offset))
              for offset in PAIR_CLASSES]
    for first in range(0, n_t, band):
        classes = []
        for offset, (x_rows, x_cols), (_, y_cols) in blocks:
            # the block's x rows within the band, and their partners
            lo = max(first, x_rows.start)
            hi = min(first + band, x_rows.stop)
            if lo < hi:
                classes.append((offset, ((slice(lo, hi), x_cols),
                                         (slice(lo + offset[0],
                                                hi + offset[0]), y_cols))))
        _contract_classes(table, jets, classes, (scalar, angular))
    return scalar, angular


class _FlatJet(NamedTuple):
    # a jet's fields as flat views, read by slot_factor_maps at flat indices,
    # and the jet's facts
    a: np.ndarray
    u_phi: np.ndarray
    facts: JetFacts

    @classmethod
    def of(cls, jet: Jet) -> "_FlatJet":
        return cls(jet.a.ravel(), jet.u_phi.ravel(), jet.facts)


def _contract_classes(table, jets, classes, outputs):
    # the terms of one band's (or the gathered sites') pair classes, in
    # STENCIL_OFFSETS order per site: classes yields (offset, (x_sites,
    # y_sites)) in PAIR_CLASSES order, the sites as numpy indices into the
    # outputs (scalar, angular)
    factors = [(jet, 1.0, 1.0) for jet in jets]
    held = []
    for offset, (x_sites, y_sites) in classes:
        if offset == (0, 0):
            # one object for both ends marks the self pairs
            y_sites = x_sites
        coeffs = slot_factor_maps(factors, x_sites, y_sites)
        # S and A; the coefficients are released before the next class's
        # are built
        parts = [_contract(coeffs, table, offset, shift) for shift in (0, 1)]
        del coeffs
        for out, part in zip(outputs, parts):
            if part is not None:
                out[x_sites] += part
        if offset != (0, 0):
            held.append((y_sites, parts))
    # then the partner ends, the (0, -1) class first: S added, A subtracted
    for y_sites, (s, a) in reversed(held):
        if s is not None:
            outputs[0][y_sites] += s
        if a is not None:
            outputs[1][y_sites] -= a


def pair_product_sum(p: ModelParams, omega: Region, factors) -> float:
    """Sum of a signed slot-derivative product over the interface pairs.

    factors is a sequence of (jet, s1, s2) triples as in slot_factor_maps;
    the product is applied to the interaction and summed over the pairs
    enumerated by stencil_pairs(omega). The D-series is evaluated at the
    region's interface sites only, one offset at a time, reading the jets'
    fields through flat views (_FlatJet) at the sites' flat indices, as the
    live-pairs path does. The sites come from omega.interface_sites, found
    once per region: its mask is read-only, so repeated sums over one region
    (a surface-layer sweep makes six per cut) never scan the window again.
    The jets must live on the region's window.
    """
    common_window(omega, *(jet for jet, _, _ in factors))
    table = stencil_deriv_table(p)
    sites = omega.interface_sites
    flat = [(_FlatJet.of(jet), s1, s2) for jet, s1, s2 in factors]
    total = 0.0
    for offset, (ix, iy) in sites.items():
        if ix.size == 0:
            continue
        acc = _contract(slot_factor_maps(flat, ix, iy), table, offset, 0)
        if acc is not None:
            total += float(acc.sum())
    return total


def region_product_sum(omega: Region, jets: Sequence[Jet]) -> float:
    """Sum over the region's sites of the product of the jets' weights.

    The sites are read through omega.flat, a view for a past region. The
    jets must live on the region's window.
    """
    common_window(omega, *jets)
    prod = np.ones(omega.site_count())
    for jet in jets:
        np.multiply(prod, jet.a.ravel()[omega.flat], out=prod)
    return float(prod.sum())


def _check_variation_inputs(ell_order: int, jets: Sequence[Jet]) -> Window:
    # the jets' common window, once their number matches the order
    require_order(ell_order, "variation order")
    if len(jets) != ell_order:
        raise InvalidJetError(
            f"expected {ell_order} jets, got {len(jets)}")
    return common_window(*jets)


def delta_ell_field(ell_order: int, jets: Sequence[Jet],
                    p: ModelParams) -> DualJet:
    """Multilinear variation of the field equation functional, as fields.

    Computes (1 / ell_order!) times the stencil sum of the product of
    del_1 + del_2 over the given jets applied to the interaction, minus the
    volume counterterm (nu / 2) times the product of the scalar weights,
    which enters the scalar component only. The jets must share a window,
    which the result lives on; sites near its edge use the clipped stencil
    of the windowed configuration.
    """
    window = _check_variation_inputs(ell_order, jets)
    scalar, phi = stencil_contraction(p, jets)
    # in place on fresh arrays, in the order of
    # scale * (scalar - 0.5 * nu * prod(a)); 1.0 * a is a, so the product
    # starts from a copy of the first weight, and scale 1 is skipped. The
    # counterterm is +-0 when some jet's a is, and scalar never holds -0.0,
    # so then it is skipped (the module's dead coefficients)
    factors = [(jet, 1.0, 1.0) for jet in jets]
    if all(has_base for has_base, _ in _factor_parts(factors, False)):
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
              p: ModelParams) -> DualValue:
    """Multilinear variation of the field equation functional at one point.

    x must sit at least one site inside the jets' window so the stencil sum
    is the full one. Returns the scalar and angular components of the dual jet.
    """
    _check_variation_inputs(ell_order, jets).require_interior(x.t, x.x)
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

