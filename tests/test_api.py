"""The public API takes a window only where the window is itself the input.

Jets, dual jets, regions and hierarchies carry the window they live on, so
a function that receives one of them reads the window from it, and a
second window argument could only disagree with it. A function that takes
several of them raises RangeError unless they share one window, even one
of the same shape.
"""

import functools
import inspect

import numpy as np
import pytest

import surflat
from surflat import (DualJet, GreensChoice, LatticePoint, ModelParams,
                     RangeError, RankOneModifier, TruncationError, Window,
                     build_hierarchy, delta_ell, delta_ell_field,
                     family_taylor_I, greens_apply, greens_defects,
                     greens_dependence_check, greens_residual, i1, i_m,
                     pair_product_sum, past_region, region_product_sum,
                     scalar_solution, sigma, slayer_sweep, symm_bilinear,
                     symm_closed_form, sympl_closed_form, taylor_oracle_I,
                     wave_solution)

WINDOW_INPUTS = {"past_region", "el_check", "ell", "scalar_solution",
                 "wave_solution"}


def test_public_functions_take_a_window_only_as_their_input():
    takes = {name for name in surflat.__all__
             if inspect.isfunction(obj := getattr(surflat, name))
             and "window" in inspect.signature(obj).parameters}
    assert takes == WINDOW_INPUTS


# --- one window per call ---

HOME = Window(-10, 10, -10, 10)
# a window of the same shape five rows later, and a larger one
AWAY = {"same-shape": Window(-5, 15, -10, 10),
        "other-shape": Window(-12, 12, -12, 12)}
P = ModelParams()
PLAIN = GreensChoice()


@functools.cache
def fields_on(window):
    """Valid inputs of every row below, all on one window."""
    u = wave_solution({0: 0.2, 1: 0.1}, {}, window)
    v = wave_solution({}, {0: 0.25, 1: 0.1}, window)
    rng = np.random.default_rng(3)
    w = DualJet(window, *(0.1 * rng.standard_normal((2, *window.shape))))
    return {"u": u, "v": v, "probe": scalar_solution(0.01, P, window),
            "omega": past_region(window, 0),
            "w": w, "out": greens_apply(PLAIN, w, P, edge_check=False),
            "hier": build_hierarchy(u, v, 2, PLAIN, P),
            "kernel": RankOneModifier(w, u)}


class Inputs:
    """The inputs on HOME, except the one named moved, on another window."""

    def __init__(self, moved=None, away=None):
        self.moved, self.away = moved, away

    def __getattr__(self, name):
        window = self.away if name == self.moved else HOME
        return fields_on(window)[name]


# each function of __all__ that takes two or more jets, dual jets, regions
# or hierarchies: the inputs that must share a window, and a call
WINDOW_RULE = {
    "delta_ell": ("u v", lambda f: delta_ell(2, [f.u, f.v],
                                             LatticePoint(0, 0), P)),
    "delta_ell_field": ("u v", lambda f: delta_ell_field(2, [f.u, f.v], P)),
    "pair_product_sum": ("omega u v", lambda f: pair_product_sum(
        P, f.omega, [(f.u, 1.0, 0.0), (f.v, 0.0, 1.0)])),
    "region_product_sum": ("omega u v",
                           lambda f: region_product_sum(f.omega, [f.u, f.v])),
    "greens_defects": ("out w", lambda f: greens_defects(f.out, f.w, P)),
    "greens_residual": ("out w", lambda f: greens_residual(f.out, f.w, P)),
    "build_hierarchy": ("u v",
                        lambda f: build_hierarchy(f.u, f.v, 2, PLAIN, P)),
    "family_taylor_I": ("hier omega",
                        lambda f: family_taylor_I(f.hier, f.omega, 2, 2)),
    "taylor_oracle_I": ("hier omega",
                        lambda f: taylor_oracle_I(f.hier, f.omega)),
    "i1": ("u omega", lambda f: i1(f.u, f.omega, P)),
    "sigma": ("u v omega", lambda f: sigma(f.u, f.v, f.omega, P)),
    "sympl_closed_form": ("u v",
                          lambda f: sympl_closed_form(f.u, f.v, 0, P)),
    "symm_bilinear": ("u v omega", lambda f: symm_bilinear(
        f.u, f.v, f.omega, PLAIN, P, edge_check=False)),
    "symm_closed_form": ("u v", lambda f: symm_closed_form(
        f.u, f.v, HOME.zeros(), 0, P)),
    "i_m": ("u v omega", lambda f: i_m(f.u, f.v, f.omega, 2, PLAIN, P)),
    "greens_dependence_check": ("u v omega kernel",
                                lambda f: greens_dependence_check(
                                    f.u, f.v, f.omega, [f.kernel], P)),
    "slayer_sweep": ("u v probe", lambda f: slayer_sweep(
        f.u, f.v, range(-1, 2), PLAIN, P, scalar_probe=f.probe)),
}
FIELD_TYPES = ("Jet", "Region", "Hierarchy")


def _field_inputs(fn):
    # parameters holding fields, and whether one holds several
    params = [(name, str(param.annotation)) for name, param
              in inspect.signature(fn).parameters.items()]
    fields = [(name, note) for name, note in params
              if name == "factors" or any(t in note for t in FIELD_TYPES)]
    return len(fields), any(name == "factors" or "Sequence" in note
                            for name, note in fields)


def test_window_rule_table_covers_every_multi_field_function():
    multi = set()
    for name in surflat.__all__:
        obj = getattr(surflat, name)
        if inspect.isfunction(obj):
            count, sequence = _field_inputs(obj)
            if count >= 2 or sequence:
                multi.add(name)
    assert multi == set(WINDOW_RULE)


@pytest.mark.parametrize("name", WINDOW_RULE)
def test_window_rule_inputs_pass_on_one_window(name):
    # the rows below raise for the moved input alone; slayer_sweep's Green
    # field reaches the frame of so small a window, which its edge check
    # reports after the window rule has passed
    try:
        WINDOW_RULE[name][1](Inputs())
    except TruncationError:
        assert name == "slayer_sweep"


@pytest.mark.parametrize("away", AWAY.values(), ids=AWAY)
@pytest.mark.parametrize("name, moved", [
    (name, moved) for name, (inputs, _) in WINDOW_RULE.items()
    for moved in inputs.split()])
def test_inputs_on_another_window_raise(name, moved, away):
    with pytest.raises(RangeError, match="different windows"):
        WINDOW_RULE[name][1](Inputs(moved, away))
