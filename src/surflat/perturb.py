"""Perturbative hierarchy and the two routes to the family integrals.

A two-parameter family of nonlinear perturbations is represented by its
coefficient jets: the jet multiplying s^i t^j is stored under the key (i, j).
The hierarchy is graded, every stored coefficient of total degree p belongs
to the order-p correction, which is the Green's image of the lower-order
source: the source at degree (i, j) collects all multilinear variations of
order at least two of lower coefficients whose degrees add up to (i, j), and
the correction solves the linearized equation against minus that source.

Two independent evaluations of the mixed family derivatives are provided.
family_taylor_I expands the derivative into its combinatorial sum over
compositions, with one signed slot factor and the counterterm volume.
taylor_oracle_I never writes that combinatorics down: it builds, per
interface pair, the full truncated generating polynomial in four slot-tagged
parameters (s and t at each interaction slot), exponentiates the scalar
weights, multiplies by the angular expansion of the interaction, and reads
the answer off as polynomial coefficients. By the grading, a mixed derivative
of bidegree (1, m-1) only sees contributions of total order m, so both
routes vanish identically when the requested order does not match.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (InvalidJetError, RangeError, UnsupportedOrderError)
from .jets import (DualJet, Jet, delta_ell_field, pair_product_sum,
                   region_product_sum)
from .lagrangian import MAX_ORDER, ModelParams, stencil_deriv_table
from .linear import (GreensChoice, RESIDUAL_TOLERANCE, greens_apply,
                     linear_residual)
from .polyseries import PolyRing
from .space import Region, STENCIL_OFFSETS, Window, pair_masks


def compositions(total: int, parts: int, minimum: int = 0):
    """Ordered tuples of `parts` integers >= minimum summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in compositions(total - first, parts - 1, minimum):
            yield (first, *rest)


@dataclass(frozen=True, eq=False)
class Hierarchy:
    """Coefficient jets of the two-parameter perturbation family."""

    window: Window
    params: ModelParams
    choices: GreensChoice
    order: int
    coeffs: dict = field(default_factory=dict)

    def coeff(self, i: int, j: int) -> Jet:
        """Coefficient jet of s^i t^j; exact zero jet where nothing is stored."""
        got = self.coeffs.get((i, j))
        return got if got is not None else Jet.zero(self.window)


def build_hierarchy(u: Jet, v: Jet, order: int, choices: GreensChoice,
                    p: ModelParams, window: Window) -> Hierarchy:
    """Construct the perturbation hierarchy seeded by two solutions.

    u enters at s^1, v at t^1. Both must share the window and solve the
    linearized equation on the window interior to within the residual
    tolerance. For each total degree up to `order`, the source of a
    coefficient is assembled from multilinear variations of the lower
    coefficients and pushed through the chosen Green's operator. The
    Green's applications run with the boundary check disabled: hierarchy
    fields legitimately fill light cones out to the window boundary, and the
    surface-layer regularity of the constructed family is a consequence of
    the finite interaction stencil rather than of decay at the boundary.
    """
    if not 1 <= order <= MAX_ORDER:
        raise UnsupportedOrderError(
            f"hierarchy order {order} outside 1..{MAX_ORDER}")
    for name, jet in (("u", u), ("v", v)):
        if jet.window != window:
            raise RangeError(f"jet {name} lives on a different window")
        interior = Region(window, window.interior_mask())
        res = linear_residual(jet, interior, p, window)
        if res > RESIDUAL_TOLERANCE:
            raise InvalidJetError(
                f"jet {name} is not a solution: interior residual {res:.3e}")
    coeffs = {(1, 0): u, (0, 1): v}
    for degree in range(2, order + 1):
        for i in range(degree + 1):
            j = degree - i
            source = DualJet.zero(window)
            for ell in range(2, degree + 1):
                for parts in _index_tuples(i, j, ell):
                    jets = [coeffs[key] for key in parts]
                    term = delta_ell_field(ell, jets, p, window)
                    np.add(source.b, term.b, out=source.b)
                    np.add(source.w_phi, term.w_phi, out=source.w_phi)
            coeffs[(i, j)] = greens_apply(choices, source, p, window,
                                          edge_check=False)
    return Hierarchy(window, p, choices, order, coeffs)


def _index_tuples(i: int, j: int, ell: int):
    """Ordered ell-tuples of stored degrees summing to (i, j)."""
    singles = [(a, b)
               for a in range(i + 1) for b in range(j + 1)
               if 1 <= a + b < i + j]
    for combo in itertools.product(singles, repeat=ell):
        if (sum(a for a, _ in combo), sum(b for _, b in combo)) == (i, j):
            yield combo


def family_taylor_I(hier: Hierarchy, omega: Region, m: int,
                    p_order: int) -> float:
    """Mixed family derivative of the surface-layer balance, combinatorially.

    Computes the bidegree (1, m-1) derivative of the windowed surface-layer
    functional along the family, restricted to the contributions of total
    grading p_order. Each term pairs one signed slot factor, taken from a
    coefficient of bidegree (1, k), with unsigned slot factors from pure-t
    coefficients, minus the counterterm volume. The factorials of the
    coefficient extraction cancel against the multinomial weights of the
    Leibniz expansion, leaving (m-1)! / (ell-1)! on the raw coefficients.
    By the grading, only p_order = m admits any terms.
    """
    _check_family_args(hier, omega, m, p_order)
    p = hier.params
    total = 0.0
    for ell in range(1, p_order + 1):
        weight = math.factorial(m - 1) / math.factorial(ell - 1)
        for ks in compositions(m - 1, ell):
            qs = (ks[0] + 1, *ks[1:])
            if sum(qs) != p_order or any(q < 1 for q in qs):
                continue
            first = hier.coeff(1, ks[0])
            rest = [hier.coeff(0, k) for k in ks[1:]]
            factors = [(first, 1.0, -1.0)] + [(jet, 1.0, 1.0) for jet in rest]
            surface = pair_product_sum(p, omega, factors)
            volume = 0.5 * p.nu * region_product_sum(omega, [first] + rest)
            total += weight * (surface - volume)
    return total


def taylor_oracle_I(hier: Hierarchy, omega: Region, m: int,
                    p_order: int) -> float:
    """Mixed family derivative via truncated generating polynomials.

    Builds, per interface pair, the polynomial in the four slot-tagged
    parameters (s, t at the first slot, s, t at the second) obtained by
    exponentiating the scalar coefficient fields and expanding the
    interaction in the angular coefficient fields, then extracts the
    bidegree (1, m-1) coefficients directly. The counterterm volume is the
    corresponding extraction of the exponentiated scalar field over the
    region. Grading makes any p_order other than m vanish identically.
    """
    _check_family_args(hier, omega, m, p_order)
    if p_order != m:
        return 0.0
    window = hier.window
    p = hier.params
    cap = hier.order
    n_sites = window.shape[0] * window.shape[1]
    ring2 = PolyRing.create(2, cap)
    ring4 = PolyRing.create(4, cap)

    c2 = ring2.zeros(n_sites)
    phi2 = ring2.zeros(n_sites)
    for (i, j), jet in hier.coeffs.items():
        c2[ring2.index[(i, j)]] = jet.a.ravel()
        phi2[ring2.index[(i, j)]] = jet.u_phi.ravel()

    mfact = float(math.factorial(m - 1))
    # the volume reads the exponential on the region's sites only
    exp_c = ring2.exp(c2[:, omega.mask.ravel()])
    vol_coeff = exp_c[ring2.index[(1, m - 1)]]
    volume = 0.5 * p.nu * mfact * float(vol_coeff.sum())

    # embeddings of the per-slot 2-variable polynomials into the 4-variable ring
    slot_x = np.array([ring4.index[(a, b, 0, 0)] for (a, b) in ring2.monomials])
    slot_y = np.array([ring4.index[(0, 0, a, b)] for (a, b) in ring2.monomials])

    table = stencil_deriv_table(p)
    masks = pair_masks(omega)
    n_x = window.shape[1]
    surface = 0.0
    for (dt, dx), mask in masks.items():
        ix = np.flatnonzero(mask.ravel())
        if ix.size == 0:
            continue
        iy = ix + dt * n_x + dx
        width = ix.size

        def embed(poly2, cols, rows):
            out = ring4.zeros(width)
            out[rows] = poly2[:, cols]
            return out

        cx = embed(c2, ix, slot_x)
        cy = embed(c2, iy, slot_y)
        phix = embed(phi2, ix, slot_x)
        phiy = embed(phi2, iy, slot_y)

        f_pair = ring4.exp(cx + cy)
        idx = STENCIL_OFFSETS.index((-dt, -dx))
        expansion = ring4.zeros(width)
        phix_pow = [ring4.constant(1.0, width)]
        phiy_pow = [ring4.constant(1.0, width)]
        for k in range(1, cap + 1):
            phix_pow.append(ring4.mul(phix_pow[-1], phix))
            phiy_pow.append(ring4.mul(phiy_pow[-1], phiy))
        for kx in range(cap + 1):
            for ky in range(cap + 1 - kx):
                d = table[(kx, ky)][idx]
                if d == 0.0:
                    continue
                scale = d / (math.factorial(kx) * math.factorial(ky))
                expansion = expansion + scale * ring4.mul(
                    phix_pow[kx], phiy_pow[ky])
        f_pair = ring4.mul(f_pair, expansion)

        for b in range(m):
            d_deg = m - 1 - b
            plus = f_pair[ring4.index[(1, b, 0, d_deg)]]
            minus = f_pair[ring4.index[(0, b, 1, d_deg)]]
            surface += mfact * float(plus.sum() - minus.sum())
    return surface - volume


def _check_family_args(hier: Hierarchy, omega: Region, m: int, p_order: int):
    if omega.window != hier.window:
        raise RangeError("region window does not match the hierarchy window")
    if m < 1:
        raise UnsupportedOrderError(f"family order m={m} must be >= 1")
    if p_order < 1:
        raise UnsupportedOrderError(f"grading order {p_order} must be >= 1")
    if max(m, p_order) > hier.order:
        raise UnsupportedOrderError(
            f"orders (m={m}, p={p_order}) exceed the built hierarchy order "
            f"{hier.order}")
