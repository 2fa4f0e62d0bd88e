import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surflat import (MAX_ORDER, LatticePoint, ModelParams, RangeError,
                     UnsupportedOrderError, Window, el_check, ell,
                     lag_phi_deriv, lag_value)
from surflat.lagrangian import stencil_deriv_table
from surflat.space import STENCIL_OFFSETS

P = ModelParams()


def pt(t, x, phi=0.0):
    return LatticePoint(t, x, phi)


# --- frozen interaction values, worked out from the stencil by hand ---

def test_self_interaction():
    assert lag_value(P, pt(0, 0), pt(0, 0)) == 5.0


def test_time_neighbor_on_base():
    assert lag_value(P, pt(1, 0), pt(0, 0)) == 2.0
    assert lag_value(P, pt(-1, 0), pt(0, 0)) == 2.0


def test_space_neighbor_on_base_vanishes():
    assert lag_value(P, pt(0, 1), pt(0, 0)) == 0.0
    assert lag_value(P, pt(0, -1), pt(0, 0)) == 0.0


def test_beyond_stencil_vanishes():
    assert lag_value(P, pt(1, 1), pt(0, 0)) == 0.0
    assert lag_value(P, pt(2, 0), pt(0, 0)) == 0.0
    assert lag_value(P, pt(0, 2, 1.0), pt(0, 0)) == 0.0


def test_angle_on_space_neighbor():
    # V(pi) = 2 with pattern +1
    assert lag_value(P, pt(0, 0, math.pi), pt(0, 1)) == pytest.approx(2.0)


def test_angle_on_time_neighbor_cancels_coupling():
    # lambda_i - V(pi) = 0 at the default couplings
    assert lag_value(P, pt(0, 0, math.pi), pt(1, 0)) == pytest.approx(0.0)


def test_angle_on_center():
    # lambda_a + delta * V(pi)^2
    assert lag_value(P, pt(0, 0, math.pi), pt(0, 0)) == pytest.approx(9.0)


def test_custom_params_reject_bad_couplings():
    with pytest.raises(ValueError):
        ModelParams(lambda_a=3.0, lambda_i=2.0)
    with pytest.raises(ValueError):
        ModelParams(lambda_i=1.0)
    with pytest.raises(ValueError):
        ModelParams(epsilon=0.3)


@pytest.mark.parametrize("name, value", [
    ("lambda_a", math.nan), ("lambda_i", math.nan), ("delta", math.nan),
    ("nu", math.nan), ("lambda_a", math.inf), ("delta", -math.inf),
    ("nu", math.inf),
    # a finite coupling whose balanced nu overflows
    ("lambda_a", 1e308)])
def test_custom_params_reject_non_finite_couplings(name, value):
    with pytest.raises(ValueError, match="must be finite"):
        ModelParams(**{name: value})


def test_nu_defaults_to_balanced():
    assert P.nu == 18.0
    assert ModelParams(nu=0.0).nu == 0.0


@given(st.integers(-2, 2), st.integers(-2, 2),
       st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
@settings(max_examples=200, deadline=None)
def test_interaction_symmetric(dt, dx, phix, phiy):
    x, y = pt(dt, dx, phix), pt(0, 0, phiy)
    assert lag_value(P, x, y) == pytest.approx(lag_value(P, y, x), abs=1e-14)


# --- angular derivatives against a symbolic oracle ---

def symbolic_deriv(offset, kx, ky, phix_val, phiy_val):
    import sympy as sp

    phix, phiy = sp.symbols("phix phiy")
    v = 1 - sp.cos(phix - phiy)
    _, _, pattern = {(0, 0): (1, 0, 0.0), (1, 0): (0, 1, -1.0),
                     (-1, 0): (0, 1, -1.0), (0, 1): (0, 0, 1.0),
                     (0, -1): (0, 0, 1.0)}[offset]
    expr = pattern * v
    if offset == (0, 0):
        expr = expr + P.delta * v ** 2
    d = sp.diff(expr, phix, kx, phiy, ky)
    return float(d.subs({phix: phix_val, phiy: phiy_val}))


@pytest.mark.parametrize("offset", [(0, 0), (1, 0), (0, 1)])
@pytest.mark.parametrize("kx,ky", [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                                   (2, 1), (2, 2), (3, 1), (4, 0),
                                   (5, 0), (3, 2), (1, 4)])
def test_phi_deriv_matches_symbolic(offset, kx, ky):
    dt, dx = offset
    for (phix, phiy) in [(0.37, 0.0), (1.1, -0.4), (0.0, 0.0)]:
        got = lag_phi_deriv(P, pt(dt, dx, phix), pt(0, 0, phiy), kx, ky)
        want = symbolic_deriv(offset, kx, ky, phix, phiy)
        assert got == pytest.approx(want, abs=1e-12)


def test_phi_deriv_sign_flip_in_y():
    # one derivative in y equals minus one derivative in x
    for offset in [(0, 1), (1, 0)]:
        a = lag_phi_deriv(P, pt(*offset, 0.4), pt(0, 0), 1, 0)
        b = lag_phi_deriv(P, pt(*offset, 0.4), pt(0, 0), 0, 1)
        assert a == pytest.approx(-b, abs=1e-15)


def test_phi_deriv_exact_zeros_on_base():
    # odd total order vanishes identically at phi = 0, as exact floats
    for offset in [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)]:
        for (kx, ky) in [(1, 0), (0, 1), (2, 1), (1, 2), (3, 0)]:
            assert lag_phi_deriv(P, pt(*offset), pt(0, 0), kx, ky) == 0.0


def test_phi_deriv_table_is_cached_and_read_only():
    table = stencil_deriv_table(P)
    assert stencil_deriv_table(P) is table
    assert stencil_deriv_table(ModelParams()) is table
    for row in table.values():
        assert not row.flags.writeable
    with pytest.raises(ValueError):
        table[(2, 0)][0] = 7.0
    with pytest.raises(TypeError):
        table[(2, 0)] = np.zeros(5)
    assert stencil_deriv_table(ModelParams(delta=2.0)) is not table


def test_phi_deriv_table_on_base():
    table = stencil_deriv_table(P)
    offsets = list(STENCIL_OFFSETS)
    f = np.array([-1.0, 1.0, 0.0, 1.0, -1.0])  # signed pattern per offset
    chi_b = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    # second derivative reproduces the pattern
    np.testing.assert_array_equal(table[(2, 0)], f)
    np.testing.assert_array_equal(table[(0, 2)], f)
    np.testing.assert_array_equal(table[(1, 1)], -f)
    # third derivative vanishes on the base configuration
    np.testing.assert_array_equal(table[(3, 0)], np.zeros(5))
    np.testing.assert_array_equal(table[(2, 1)], np.zeros(5))
    # fourth derivative picks up the quartic well at the center
    np.testing.assert_array_equal(table[(4, 0)], -f + 6.0 * P.delta * chi_b)
    np.testing.assert_array_equal(table[(2, 2)], -f + 6.0 * P.delta * chi_b)
    np.testing.assert_array_equal(table[(3, 1)], f - 6.0 * P.delta * chi_b)
    assert offsets[2] == (0, 0)
    # rows reach MAX_ORDER + 1, the angular component of the top variation
    top = MAX_ORDER + 1
    assert set(table) == {(kx, ky) for kx in range(top + 1)
                          for ky in range(top + 1 - kx)}
    np.testing.assert_array_equal(table[(5, 0)], np.zeros(5))
    np.testing.assert_array_equal(table[(3, 2)], np.zeros(5))


def test_phi_deriv_order_cap():
    # the closed form holds at every order; only negative orders are refused
    with pytest.raises(UnsupportedOrderError):
        lag_phi_deriv(P, pt(0, 0), pt(0, 0), -1, 0)


# --- the field equation functional ---

def test_ell_vanishes_on_base_interior():
    w = Window(-5, 5, -5, 5)
    for (t, x) in [(0, 0), (-4, 4), (3, -2)]:
        assert ell(P, pt(t, x), w) == 0.0


def test_ell_off_base_is_quartic_well():
    w = Window(-5, 5, -5, 5)
    assert ell(P, pt(0, 0, math.pi), w) == pytest.approx(4.0)
    phi = 0.8
    v = 1.0 - math.cos(phi)
    assert ell(P, pt(1, 2, phi), w) == pytest.approx(v * v)


def test_ell_brute_force_window_sum():
    # oracle: sum lag_value against every window site explicitly
    w = Window(-3, 3, -3, 3)
    x = pt(1, -1, 0.6)
    total = sum(lag_value(P, x, pt(t, xx))
                for t in range(w.t_min, w.t_max + 1)
                for xx in range(w.x_min, w.x_max + 1))
    assert ell(P, x, w) == pytest.approx(total - P.nu / 2, abs=1e-12)


def test_ell_with_unbalanced_nu():
    w = Window(-2, 2, -2, 2)
    p0 = ModelParams(nu=0.0)
    assert ell(p0, pt(0, 0), w) == 9.0


def test_ell_requires_margin():
    w = Window(0, 4, 0, 4)
    with pytest.raises(RangeError):
        ell(P, pt(0, 2), w)
    with pytest.raises(RangeError):
        ell(P, pt(2, 4), w)


def test_el_check_report():
    w = Window(-4, 4, -4, 4)
    report = el_check(P, w)
    assert report.max_abs_base == 0.0
    assert report.min_sampled >= 0.0
    assert max(abs(report.sampled[phi] - report.reference[phi])
               for phi in report.sampled) <= 1e-12
    assert report.reference[math.pi] == pytest.approx(4.0)


def pointwise_el(p, w, phis):
    # oracle: the pointwise ell at every interior site, one call per site
    sites = [(t, x) for t in range(w.t_min + 1, w.t_max)
             for x in range(w.x_min + 1, w.x_max)]
    max_abs_base = max(abs(ell(p, pt(t, x), w)) for t, x in sites)
    sampled = {phi: min(ell(p, pt(t, x, phi), w) for t, x in sites)
               for phi in phis}
    return max_abs_base, sampled


@pytest.mark.parametrize("p, w", [
    (P, Window(-40, 40, -40, 40)),
    (P, Window(-3, 7, -12, 5)),
    (P, Window(0, 2, 0, 2)),
    (ModelParams(nu=0.0), Window(-6, 6, -4, 9)),
    # couplings for which summing the five offsets in another order changes
    # the last bit at some of the sampled angles
    (ModelParams(lambda_a=7.5, lambda_i=3.1, delta=1.55, nu=11.0),
     Window(-2, 5, -1, 1)),
], ids=["default-81x81", "off-centre", "minimal-3x3", "nu-0", "coupled"])
def test_el_check_equals_pointwise_oracle(p, w):
    phis = (0.0, 0.3, -1.1, math.pi / 4, -math.pi / 2, math.pi, 2.5)
    report = el_check(p, w, phi_samples=phis)
    max_abs_base, sampled = pointwise_el(p, w, phis)
    # bitwise, not approximate: the whole-interior sum runs in the same
    # order as ell
    assert report.max_abs_base == max_abs_base
    assert type(report.max_abs_base) is float
    assert list(report.sampled) == list(phis)
    for phi in phis:
        assert report.sampled[phi] == sampled[phi]
        assert type(report.sampled[phi]) is float


def test_el_check_needs_an_interior():
    for w in (Window(0, 1, -5, 5), Window(-5, 5, 3, 4)):
        with pytest.raises(RangeError):
            el_check(P, w)


# --- the parity of the stencil derivative table ---

@st.composite
def model_params(draw):
    """Any valid ModelParams: the invariants hold, nu balanced or not."""
    lambda_i = draw(st.floats(2.0, 50.0))
    epsilon = draw(st.floats(1e-3, 0.249))
    lambda_a = draw(st.floats(2.0 * lambda_i + epsilon, 200.0))
    delta = draw(st.floats(-10.0, 10.0))
    nu = draw(st.none() | st.floats(-500.0, 500.0))
    return ModelParams(lambda_a=lambda_a, lambda_i=lambda_i, delta=delta,
                       epsilon=epsilon, nu=nu)


@given(model_params())
@settings(max_examples=100, deadline=None)
def test_stencil_deriv_table_even_with_vanishing_odd_orders(p):
    # the pair-symmetric D-series of jets.stencil_contraction rests on this:
    # the interaction at offset -u is bitwise the one at u, and every odd
    # angular derivative is an exact zero on the base configuration
    n = len(STENCIL_OFFSETS)
    assert all(STENCIL_OFFSETS[n - 1 - i] == (-dt, -dx)
               for i, (dt, dx) in enumerate(STENCIL_OFFSETS))
    for (kx, ky), row in stencil_deriv_table(p).items():
        bits = row.view(np.uint64)
        assert np.array_equal(bits, bits[::-1])
        if (kx + ky) % 2:
            assert not row.any()
