"""Surface-layer functionals over window regions.

All quantities here are double sums over interface pairs: a site inside the
region and a stencil neighbor outside it. The first-order balance pairs a
single signed slot factor with the counterterm volume; the symplectic form
antisymmetrizes a cross-slot second derivative; the symmetric bilinear form
carries a Green-constructed scalar field whose region sum gives the volume
identity. The closed forms for past regions, a single row of products at the
cut, are derived directly from the interface sums with the base interaction
table; they are what the conservation sweeps check against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InvalidJetError, RangeError
from .jets import Jet, delta_ell_field, pair_product_sum, region_product_sum
from .lagrangian import ModelParams
from .linear import GreensChoice, RankOneModifier, greens_apply
from .perturb import (Hierarchy, _degree_sources, build_hierarchy,
                      family_taylor_I)
from .space import Region, common_window, past_region


def i1(u: Jet, omega: Region, p: ModelParams) -> tuple[float, float]:
    """First-order surface balance: (interface sum, counterterm volume).

    The conservation statement is surface = volume for solutions. For jets
    with vanishing scalar component every pair term is individually zero,
    because the first angular derivative of the interaction vanishes on the
    base configuration.
    """
    surface = pair_product_sum(p, omega, [(u, 1.0, -1.0)])
    volume = 0.5 * p.nu * region_product_sum(omega, [u])
    return surface, volume


def sigma(u: Jet, v: Jet, omega: Region, p: ModelParams) -> float:
    """Symplectic form: antisymmetrized cross-slot interface sum."""
    return (pair_product_sum(p, omega, [(u, 1.0, 0.0), (v, 0.0, 1.0)])
            - pair_product_sum(p, omega, [(v, 1.0, 0.0), (u, 0.0, 1.0)]))


def sympl_closed_form(u: Jet, v: Jet, t: int, p: ModelParams) -> float:
    """Symplectic form across the cut between rows t and t + 1.

    One row of cross products: the scalar parts couple through the timelike
    interaction weight, the angular parts through the mixed second
    derivative, which is +1 at the timelike offsets. u and v must share a
    window.
    """
    row = common_window(u, v).cut_row(t)
    au, av = u.a[row], v.a[row]
    au1, av1 = u.a[row + 1], v.a[row + 1]
    fu, fv = u.u_phi[row], v.u_phi[row]
    fu1, fv1 = u.u_phi[row + 1], v.u_phi[row + 1]
    scalar = p.lambda_i * float(au @ av1 - au1 @ av)
    angular = float(fu @ fv1 - fu1 @ fv)
    return scalar + angular


def symm_bilinear(u: Jet, v: Jet, omega: Region, greens: GreensChoice,
                  p: ModelParams, *, edge_check: bool = True
                  ) -> tuple[float, float, np.ndarray]:
    """Symmetric bilinear form: (surface, volume, scalar Green field).

    Restricted to jets with vanishing scalar components, for which the
    second variation has an exactly vanishing angular part. Its scalar part
    is pushed through the chosen scalar Green's operator to produce the
    field s; the surface sum carries u, v and s on both slots, and the
    volume identity states surface = nu * sum of s over the region.
    """
    common_window(omega, u, v)
    for name, jet in (("u", u), ("v", v)):
        if jet.facts.has_scalar:
            raise InvalidJetError(
                f"jet {name} has a scalar component; the closed-form route "
                f"assumes it vanishes (use the hierarchy path instead)")
    d2 = delta_ell_field(2, [u, v], p)
    s = greens_apply(greens, d2, p, edge_check=edge_check).a
    s_jet = Jet(omega.window, s, np.zeros(omega.window.shape))
    surface, volume = _symm_surface_volume(u, v, s_jet, omega, p)
    return surface, volume, s


def _symm_surface_volume(u: Jet, v: Jet, s_jet: Jet, omega: Region,
                         p: ModelParams) -> tuple[float, float]:
    # the two sides of the symmetric form's volume identity, given its
    # Green field s as the jet (s, 0)
    surface = (pair_product_sum(p, omega, [(u, 1.0, 0.0), (v, 1.0, 0.0)])
               - pair_product_sum(p, omega, [(u, 0.0, 1.0), (v, 0.0, 1.0)])
               + 2.0 * pair_product_sum(p, omega, [(s_jet, 1.0, -1.0)]))
    volume = p.nu * float(s_jet.a.ravel()[omega.flat].sum())
    return surface, volume


def symm_closed_form(u: Jet, v: Jet, s: np.ndarray, t: int,
                     p: ModelParams) -> float:
    """Symmetric-form surface across the cut between rows t and t + 1.

    Difference of the same one-row expression on the two sides of the cut:
    angular products minus twice the timelike weight times the Green field.
    u and v must share a window, and s must have its shape.
    """
    window = common_window(u, v)
    if s.shape != window.shape:
        raise RangeError(f"Green field shape {s.shape} is not {window.shape}")
    row = window.cut_row(t)

    def layer(r):
        return float(u.u_phi[r] @ v.u_phi[r] - 2.0 * p.lambda_i * s[r].sum())

    return layer(row + 1) - layer(row)


def i_m(u: Jet, v: Jet, omega: Region, m: int, choices: GreensChoice,
        p: ModelParams) -> float:
    """Full order-m family derivative of the surface-layer balance.

    Builds the perturbation hierarchy seeded by (u, v) up to order m and
    evaluates the combinatorial route at matching grading. The conservation
    theorem says the value vanishes for genuine solutions, up to window
    truncation effects. The hierarchy build rejects m outside 1..MAX_ORDER.
    """
    hier = build_hierarchy(u, v, m, choices, p)
    return family_taylor_I(hier, omega, m, m)


def greens_dependence_check(u: Jet, v: Jet, omega: Region,
                            kernels: Iterable[RankOneModifier],
                            p: ModelParams,
                            choices: GreensChoice | None = None
                            ) -> list[tuple[float, float]]:
    """How the second-order balance shifts under Green's-kernel changes.

    Returns one (lhs, rhs) pair per kernel. lhs evaluates the order-2 family
    derivative under the modified Green's operator, the plain one plus the
    kernel's rank-one term, minus the plain evaluation; rhs is the
    first-order balance of the kernel's term applied to the source of the
    mixed coefficient, which is twice the second variation of (u, v). The
    two agree exactly: only the mixed second-order coefficient feels the
    modified kernel, and the first-order balance is linear. The order-2
    balance reads the degree-2 coefficient (1, 1) only, so the seeds, that
    one source and its plain Green's image are built once. Each kernel's
    term shift = kernel.apply(source), the pairing of the source times the
    kernel's direction, is computed once: added to the image it is the
    modified operator's output, and it is the jet whose first-order balance
    gives rhs. The kernels are read once, in order, and none is held after
    its pair is computed.
    """
    base = choices if choices is not None else GreensChoice()
    # an order-1 build checks the seeds and stores u alone
    seeds = build_hierarchy(u, v, 1, base, p).coeffs | {(0, 1): v}
    [(key, source)] = _degree_sources(seeds, [(1, 1)], p)
    image = greens_apply(base, source, p, edge_check=False)

    def order_two(mixed):
        hier = Hierarchy(p, seeds | {key: mixed})
        return family_taylor_I(hier, omega, 2, 2)

    plain = order_two(image)
    out = []
    for kernel in kernels:
        shift = kernel.apply(source)
        surface, volume = i1(shift, omega, p)
        out.append((order_two(image + shift) - plain, surface - volume))
    return out


@dataclass(frozen=True)
class SliceValues:
    """Surface-layer quantities at one past-region cut."""

    slice_t: int
    i1_surface: float
    i1_volume: float
    sympl: float
    sympl_closed: float
    symm_surface: float
    symm_surface_closed: float
    symm_volume: float


@dataclass(frozen=True)
class SlayerReport:
    slices: tuple[SliceValues, ...]

    def values(self, name: str) -> np.ndarray:
        return np.array([getattr(s, name) for s in self.slices])

    def relative_spread(self, name: str) -> float:
        """Spread of a per-slice quantity relative to its largest size."""
        vals = self.values(name)
        scale = np.abs(vals).max()
        if scale == 0.0:
            return 0.0
        return float((vals.max() - vals.min()) / scale)


def slayer_sweep(u: Jet, v: Jet, slices, greens: GreensChoice,
                 p: ModelParams, scalar_probe: Jet | None = None
                 ) -> SlayerReport:
    """Evaluate all surface-layer quantities over a range of past regions.

    The regions are cut from the jets' common window. u and v must have
    vanishing scalar components (they feed the symplectic and symmetric
    forms); the first-order balance row uses scalar_probe when given,
    falling back to u. The Green field of the symmetric form does not
    depend on the cut, so it and its jet are built once.
    """
    probe = scalar_probe if scalar_probe is not None else u
    window = common_window(u, v, probe)
    s = None
    rows = []
    for t in slices:
        omega = past_region(window, t)
        if s is None:
            surf, vol, s = symm_bilinear(u, v, omega, greens, p)
            s_jet = Jet(window, s, np.zeros(window.shape))
        else:
            surf, vol = _symm_surface_volume(u, v, s_jet, omega, p)
        i1_s, i1_v = i1(probe, omega, p)
        rows.append(SliceValues(
            slice_t=t,
            i1_surface=i1_s,
            i1_volume=i1_v,
            sympl=sigma(u, v, omega, p),
            sympl_closed=sympl_closed_form(u, v, t, p),
            symm_surface=surf,
            symm_surface_closed=symm_closed_form(u, v, s, t, p),
            symm_volume=vol))
    return SlayerReport(tuple(rows))
