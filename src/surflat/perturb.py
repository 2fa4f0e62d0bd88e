"""Perturbative hierarchy and the two routes to the family integrals.

A two-parameter family of nonlinear perturbations is represented by its
coefficient jets: the jet multiplying s^i t^j is stored under the key (i, j).
The hierarchy is graded, every stored coefficient of total degree p belongs
to the order-p correction, which is the Green's image of the lower-order
source: the source at degree (i, j) collects all multilinear variations of
order at least two of lower coefficients whose degrees add up to (i, j), and
the correction solves the linearized equation against minus that source.
A variation is symmetric in its jets, so the sum over ordered tuples of
degrees is taken as one variation per multiset, times its count.

The family is kept to first order in s. The conserved integrals are its
(1, m-1) derivatives, and both routes read only the coefficients (1, j)
and (0, j) with j < order, so a build stores those 2 * order - 1 keys.
That loses nothing a route reads: the source of (i, j) draws on stored
degrees of first component at most i, so the sources of those keys need no
other key, and a t^order coefficient could reach an s-linear row of the
oracle only at total degree order + 1, past its cap. Two cuts in the oracle
stay. Its rings are linear in s because the products of s-linear factors
have s^2 terms, which nothing reads; and _gather skips keys with i >= 2,
which a hierarchy put together by hand may hold.

Two independent evaluations of the mixed family derivatives are provided.
family_taylor_I expands the derivative into its combinatorial sum over
compositions, with one signed slot factor and the counterterm volume.
taylor_oracle_I never writes that combinatorics down: it builds, per
interface pair, the full truncated generating polynomial in four slot-tagged
parameters (s and t at each interaction slot), exponentiates the scalar
weights, multiplies by the angular expansion of the interaction, and reads
the answer off as polynomial coefficients, every order from one polynomial.
By the grading, a mixed derivative of bidegree (1, m-1) only sees
contributions of total order m, so family_taylor_I vanishes identically off
that grading and the oracle reports grading m only.
"""

from __future__ import annotations

import collections
import itertools
import math
import types
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import InvalidJetError, UnsupportedOrderError
from .jets import (DualJet, Jet, delta_ell_field, pair_product_sum,
                   region_product_sum)
from .lagrangian import ModelParams, require_order, stencil_deriv_table
from .linear import (GreensChoice, RESIDUAL_TOLERANCE, greens_apply,
                     linear_residual)
from .polyseries import PolyRing
from .space import (Region, STENCIL_OFFSETS, Window, common_window,
                    pair_masks)

# taylor_oracle_I exponentiates the volume series this many region sites at
# a time (see _oracle_volume and README, "recycled memory")
VOLUME_BLOCK_SITES = 8_192


def compositions(total: int, parts: int):
    """Ordered tuples of `parts` nonnegative integers summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first, *rest)


@dataclass(frozen=True, eq=False)
class Hierarchy:
    """Coefficient jets of the two-parameter perturbation family.

    coeffs, a read-only mapping, holds at least the seed coefficient
    (1, 0), and every jet lives on the seed's window, the hierarchy's
    window. The order is read from
    the coefficients, so it cannot disagree with them. A build stores the
    keys linear in s that the family routes read (see the module notes);
    a hierarchy put together by hand may hold any others.
    """

    params: ModelParams
    coeffs: Mapping

    def __post_init__(self):
        # a read-only copy, so the checks below hold for its lifetime
        object.__setattr__(self, "coeffs",
                           types.MappingProxyType(dict(self.coeffs)))
        if (1, 0) not in self.coeffs:
            raise InvalidJetError("a hierarchy needs its seed (1, 0)")
        require_order(self.order, "hierarchy order")
        common_window(self.coeffs[(1, 0)], *self.coeffs.values())

    @property
    def order(self) -> int:
        """The top total degree i + j of the stored coefficients."""
        return max(i + j for i, j in self.coeffs)

    @property
    def window(self) -> Window:
        return self.coeffs[(1, 0)].window

    def coeff(self, i: int, j: int) -> Jet:
        """Coefficient jet of s^i t^j; exact zero jet where nothing is stored."""
        got = self.coeffs.get((i, j))
        return got if got is not None else Jet.zero(self.window)


def build_hierarchy(u: Jet, v: Jet, order: int, choices: GreensChoice,
                    p: ModelParams) -> Hierarchy:
    """Construct the perturbation hierarchy seeded by two solutions.

    u enters at s^1, v at t^1. Both must share a window and solve the
    linearized equation on the window interior to within the residual
    tolerance, scaled by the seed's largest value when that exceeds 1. For
    each total degree d up to `order`, the coefficients the family routes
    read are built, (1, d - 1) and, below the top degree, (0, d): the
    source of each is assembled from multilinear variations of the lower
    coefficients and pushed through the chosen Green's operator. An order-1
    build stores u alone. The Green's applications run with the boundary
    check disabled: hierarchy fields legitimately fill light cones out to
    the window boundary, and the surface-layer regularity of the constructed
    family is a consequence of the finite interaction stencil rather than of
    decay at the boundary.
    """
    require_order(order, "hierarchy order")
    common_window(u, v)
    for name, jet in (("u", u), ("v", v)):
        res = linear_residual(jet, p)
        # rounding grows with the seed's values; a seed that is not finite
        # has no size to scale by and fails
        tol = RESIDUAL_TOLERANCE * max(1.0, jet.facts.size)
        if not res <= tol < math.inf:
            raise InvalidJetError(
                f"jet {name} is not a solution: interior residual {res:.3e}")
    coeffs = {(1, 0): u} | ({(0, 1): v} if order > 1 else {})
    for degree in range(2, order + 1):
        keys = [(1, degree - 1)] + ([(0, degree)] if degree < order else [])
        for key, source in _degree_sources(coeffs, keys, p):
            coeffs[key] = greens_apply(choices, source, p, edge_check=False)
    return Hierarchy(p, coeffs)


def _degree_sources(coeffs: dict, keys: list, p: ModelParams):
    """Yield ((i, j), source) for the given coefficient keys, in order.

    The sources, independent of the Green's operator, are built from the
    stored lower degrees one at a time, when asked for: one variation per
    multiset of degrees, times its count. They live on the window of the
    seed coeffs[(1, 0)].
    """
    window = coeffs[(1, 0)].window
    for i, j in keys:
        # summed in place on fresh arrays, wrapped (read-only) at the end
        source = (window.zeros(), window.zeros())
        for ell in range(2, i + j + 1):
            for parts, count in _multisets(i, j, ell):
                jets = [coeffs[key] for key in parts]
                term = delta_ell_field(ell, jets, p)
                for total, field in zip(source, (term.b, term.w_phi)):
                    np.add(total, field if count == 1 else field * count,
                           out=total)
        yield (i, j), DualJet(window, *source)


def _multisets(i: int, j: int, ell: int):
    """Multisets of ell stored degrees summing to (i, j), each with its
    number of orderings ell! / prod(m!) over the multiplicities m."""
    singles = [(a, b)
               for a in range(i + 1) for b in range(j + 1)
               if 1 <= a + b < i + j]
    for parts in itertools.combinations_with_replacement(singles, ell):
        if (sum(a for a, _ in parts), sum(b for _, b in parts)) == (i, j):
            yield parts, math.factorial(ell) // math.prod(
                map(math.factorial, collections.Counter(parts).values()))


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


def taylor_oracle_I(hier: Hierarchy, omega: Region) -> tuple[float, ...]:
    """Mixed family derivatives via truncated generating polynomials.

    Builds, per interface pair, the polynomial in the four slot-tagged
    parameters (s, t at the first slot, s, t at the second) obtained by
    exponentiating the scalar coefficient fields and expanding the
    interaction in the angular coefficient fields. Nothing in it depends on
    the family order m, so it is built once and the bidegree (1, m-1)
    coefficients of every m = 1..hier.order are read off it, entry m-1 of
    the result; the counterterm volume is the same extraction of the
    exponentiated scalar field over the region. Other gradings vanish.

    Those coefficients are linear in s, so the rings stop at degree 1 in s
    (in s_x + s_y for the pair ring) and the coefficients s^i t^j with
    i >= 2 are never read. Dropping that ideal is exact (polyseries): the
    kept coefficients are bitwise those of the full rings.
    """
    _check_family_args(hier, omega)
    window, p, cap = hier.window, hier.params, hier.order
    mfacts = {m: float(math.factorial(m - 1)) for m in range(1, cap + 1)}
    ring2 = PolyRing.create(2, cap, linear=(0,))
    ring4 = PolyRing.create(4, cap, linear=(0, 2))

    volume = _oracle_volume(hier, omega, ring2)

    # embeddings of the per-slot 2-variable polynomials into the 4-variable ring
    slot_x = np.array([ring4.index[(a, b, 0, 0)] for (a, b) in ring2.monomials])
    slot_y = np.array([ring4.index[(0, 0, a, b)] for (a, b) in ring2.monomials])

    table = stencil_deriv_table(p)
    masks = pair_masks(omega)
    n_x = window.shape[1]
    surface = [0.0] * cap
    for (dt, dx), mask in masks.items():
        ix = np.flatnonzero(mask.ravel())
        if ix.size == 0:
            continue
        iy = ix + dt * n_x + dx
        width = ix.size

        def embed(name, cols, rows):
            out = ring4.zeros(width)
            out[rows] = _gather(hier, ring2, name, cols)
            return out

        cx = embed("a", ix, slot_x)
        cy = embed("a", iy, slot_y)
        phix = embed("u_phi", ix, slot_x)
        phiy = embed("u_phi", iy, slot_y)

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

        for m, mfact in mfacts.items():
            for b in range(m):
                d_deg = m - 1 - b
                plus = f_pair[ring4.index[(1, b, 0, d_deg)]]
                minus = f_pair[ring4.index[(0, b, 1, d_deg)]]
                surface[m - 1] += mfact * float(plus.sum() - minus.sum())
    return tuple(s - v for s, v in zip(surface, volume))


def _gather(hier: Hierarchy, ring2: PolyRing, name: str,
            cols: np.ndarray) -> np.ndarray:
    # the series of one component ("a" or "u_phi") on the given flat sites,
    # in a ring linear in s: coefficients of s^2 and up are not read
    out = ring2.zeros(cols.size)
    for (i, j), jet in hier.coeffs.items():
        if i < 2:
            out[ring2.index[(i, j)]] = getattr(jet, name).ravel()[cols]
    return out


def _oracle_volume(hier: Hierarchy, omega: Region,
                   ring2: PolyRing) -> list[float]:
    """The oracle's counterterm volumes, entry m-1 for m = 1..hier.order.

    The exponential of the scalar series is evaluated on the region's
    sites, VOLUME_BLOCK_SITES at a time, and only its (1, m-1) rows are
    kept; each row is summed once complete. Every column goes through the
    same operations as in one full-width exponential, and each sum through
    the same pairwise tree, so the volumes are bitwise those of that form,
    at a fraction of its peak memory.
    """
    sites = np.flatnonzero(omega.mask)
    keep = [ring2.index[(1, m - 1)] for m in range(1, hier.order + 1)]
    rows = np.empty((len(keep), sites.size))
    for start in range(0, sites.size, VOLUME_BLOCK_SITES):
        block = slice(start, start + VOLUME_BLOCK_SITES)
        rows[:, block] = ring2.exp(_gather(hier, ring2, "a",
                                           sites[block]))[keep]
    return [0.5 * hier.params.nu * float(math.factorial(m - 1))
            * float(row.sum()) for m, row in enumerate(rows, start=1)]


def _check_family_args(hier: Hierarchy, omega: Region, m: int = 1,
                       p_order: int = 1):
    common_window(omega, hier)
    require_order(m, "family order")
    require_order(p_order, "grading order")
    if max(m, p_order) > hier.order:
        raise UnsupportedOrderError(
            f"orders (m={m}, p={p_order}) exceed the built hierarchy order "
            f"{hier.order}")
