"""Conserved surface-layer integrals for a causal variational principle
on the 2D lattice with a circle fiber."""

from .errors import (ConfigError, InvalidJetError, RangeError,
                     TruncationError, UnsupportedOrderError)
from .space import (LatticePoint, NEIGHBOR_OFFSETS, Region, STENCIL_OFFSETS,
                    Window, past_region, stencil_pairs)
from .lagrangian import (MAX_ORDER, ELReport, ModelParams, angular_well,
                         el_check, ell, lag_phi_deriv, lag_value,
                         stencil_deriv_table)
from .jets import (DualJet, Jet, delta_ell, delta_ell_field, pair_product_sum,
                   region_product_sum)
from .linear import (EDGE_TOLERANCE, GreensChoice, RESIDUAL_TOLERANCE,
                     RankOneModifier, greens_apply, greens_defects,
                     greens_residual, linear_residual, scalar_roots,
                     scalar_solution, wave_solution)
from .perturb import (Hierarchy, build_hierarchy, compositions,
                      family_taylor_I, taylor_oracle_I)
from .slayer import (SlayerReport, SliceValues, greens_dependence_check, i1,
                     i_m, sigma, slayer_sweep, symm_bilinear,
                     symm_closed_form, sympl_closed_form)

__all__ = [
    "ConfigError", "InvalidJetError", "RangeError", "TruncationError",
    "UnsupportedOrderError",
    "LatticePoint", "NEIGHBOR_OFFSETS", "Region", "STENCIL_OFFSETS",
    "Window", "past_region", "stencil_pairs",
    "MAX_ORDER", "ELReport", "ModelParams", "angular_well",
    "el_check", "ell", "lag_phi_deriv", "lag_value", "stencil_deriv_table",
    "DualJet", "Jet", "delta_ell", "delta_ell_field", "pair_product_sum",
    "region_product_sum",
    "EDGE_TOLERANCE", "GreensChoice", "RESIDUAL_TOLERANCE",
    "RankOneModifier", "greens_apply", "greens_defects", "greens_residual",
    "linear_residual", "scalar_roots", "scalar_solution", "wave_solution",
    "Hierarchy", "build_hierarchy", "compositions", "family_taylor_I",
    "taylor_oracle_I",
    "SlayerReport", "SliceValues", "greens_dependence_check", "i1", "i_m",
    "sigma", "slayer_sweep", "symm_bilinear", "symm_closed_form",
    "sympl_closed_form",
]
