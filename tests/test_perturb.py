import math

import numpy as np
import pytest

from surflat.errors import InvalidJetError, RangeError, UnsupportedOrderError
from surflat.jets import (Jet, delta_ell_field, delta_op_field,
                          pair_product_sum, region_product_sum)
from surflat.lagrangian import ModelParams
from surflat.linear import (GreensChoice, greens_apply, scalar_solution,
                            wave_solution)
from surflat.perturb import (Hierarchy, build_hierarchy, compositions,
                             family_taylor_I, taylor_oracle_I)
from surflat.space import Region, Window, past_region

PARAMS = ModelParams()
CHOICE = GreensChoice()
WIN = Window(-10, 10, -10, 10)


def right_mover(window, center, amp):
    prof = {center + k: amp * (1.0 - (k / 3.0) ** 2) ** 2 for k in (-2, -1, 0, 1, 2)}
    return wave_solution({}, prof, window)


def left_mover(window, center, amp):
    prof = {center + k: amp * (1.0 - (k / 3.0) ** 2) ** 2 for k in (-2, -1, 0, 1, 2)}
    return wave_solution(prof, {}, window)


@pytest.fixture(scope="module")
def seeds():
    return right_mover(WIN, 2, 0.15), left_mover(WIN, -2, 0.2)


@pytest.fixture(scope="module")
def hier(seeds):
    u, v = seeds
    return build_hierarchy(u, v, 3, CHOICE, PARAMS, WIN)


def test_compositions():
    assert list(compositions(3, 2)) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert list(compositions(3, 2, minimum=1)) == [(1, 2), (2, 1)]
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(2, 0)) == []


def test_hierarchy_keys(hier):
    expect = {(1, 0), (0, 1)}
    expect |= {(i, d - i) for d in (2, 3) for i in range(d + 1)}
    assert set(hier.coeffs) == expect
    absent = hier.coeff(4, 4)
    assert not absent.a.any() and not absent.u_phi.any()


def test_hierarchy_equation_holds(hier, seeds):
    # Every stored coefficient of degree >= 2 must solve the linearized
    # equation against minus its source, with the sources spelled out by
    # hand rather than recycled from the builder.
    u, v = seeds
    d2 = lambda a, b: delta_ell_field(2, [a, b], PARAMS, WIN)
    d3 = lambda a, b, c: delta_ell_field(3, [a, b, c], PARAMS, WIN)
    w = hier.coeff
    sources = {
        (2, 0): d2(u, u),
        (1, 1): 2.0 * d2(u, v),
        (0, 2): d2(v, v),
        (3, 0): 2.0 * d2(u, w(2, 0)) + d3(u, u, u),
        (2, 1): 2.0 * d2(u, w(1, 1)) + 2.0 * d2(v, w(2, 0)) + 3.0 * d3(u, u, v),
        (1, 2): 2.0 * d2(u, w(0, 2)) + 2.0 * d2(v, w(1, 1)) + 3.0 * d3(u, v, v),
        (0, 3): 2.0 * d2(v, w(0, 2)) + d3(v, v, v),
    }
    inner = WIN.interior_mask(2)
    for key, src in sources.items():
        lhs = delta_op_field(w(*key), PARAMS, WIN)
        res_b = np.abs(lhs.b + src.b)[inner].max()
        res_phi = np.abs(lhs.w_phi + src.w_phi)[inner].max()
        assert res_b <= 1e-10, key
        assert res_phi <= 1e-10, key


def test_pure_t_sector_ignores_u(seeds):
    u, v = seeds
    full = build_hierarchy(u, v, 3, CHOICE, PARAMS, WIN)
    solo = build_hierarchy(Jet.zero(WIN), v, 3, CHOICE, PARAMS, WIN)
    for k in (1, 2, 3):
        a, b = full.coeff(0, k), solo.coeff(0, k)
        assert np.array_equal(a.a, b.a)
        assert np.array_equal(a.u_phi, b.u_phi)


@pytest.mark.parametrize("m,p_order", [(1, 2), (1, 3), (2, 1), (2, 3),
                                       (3, 1), (3, 2)])
def test_off_grading_orders_vanish_exactly(hier, m, p_order):
    omega = past_region(WIN, 0)
    assert family_taylor_I(hier, omega, m, p_order) == 0.0
    assert taylor_oracle_I(hier, omega, m, p_order) == 0.0


def test_first_order_is_the_plain_balance(hier, seeds):
    u, _ = seeds
    omega = past_region(WIN, 0)
    surface = pair_product_sum(PARAMS, omega, [(u, 1.0, -1.0)])
    volume = 0.5 * PARAMS.nu * region_product_sum(omega, [u])
    assert family_taylor_I(hier, omega, 1, 1) == surface - volume


@pytest.mark.parametrize("omega_builder", [
    lambda: past_region(WIN, 0),
    lambda: Region.from_box(WIN, -4, 3, -5, 2),
    lambda: Region.from_box(WIN, WIN.t_min, WIN.t_max, WIN.x_min, WIN.x_max),
])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_routes_agree(hier, omega_builder, m):
    omega = omega_builder()
    a = family_taylor_I(hier, omega, m, m)
    b = taylor_oracle_I(hier, omega, m, m)
    assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


@pytest.fixture(scope="module")
def hier_mixed(seeds):
    # Scalar modes mixed into both seeds so every degree-one coefficient
    # carries a nonzero scalar part; pure waves would leave the first-order
    # balance and the cross term of the counterterm identically zero.
    u, v = seeds
    u = u + scalar_solution(1e-3, PARAMS, WIN, decay="future")
    v = v + scalar_solution(2e-3, PARAMS, WIN, decay="past")
    return build_hierarchy(u, v, 2, CHOICE, PARAMS, WIN)


def test_routes_agree_with_nonzero_scalar_seed(hier_mixed):
    omega = Region.from_box(WIN, -4, 3, -5, 2)
    for m in (1, 2):
        a = family_taylor_I(hier_mixed, omega, m, m)
        b = taylor_oracle_I(hier_mixed, omega, m, m)
        assert a != 0.0
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_second_coefficient_is_greens_image(hier, seeds):
    u, v = seeds
    src = delta_ell_field(2, [u, v], PARAMS, WIN)
    direct = greens_apply(CHOICE, 2.0 * src, PARAMS, WIN, edge_check=False)
    got = hier.coeff(1, 1)
    assert np.allclose(got.a, direct.a, atol=1e-13)
    assert np.allclose(got.u_phi, direct.u_phi, atol=1e-13)


def test_build_rejects_bad_inputs(seeds):
    u, v = seeds
    with pytest.raises(UnsupportedOrderError):
        build_hierarchy(u, v, 5, CHOICE, PARAMS, WIN)
    with pytest.raises(UnsupportedOrderError):
        build_hierarchy(u, v, 0, CHOICE, PARAMS, WIN)
    bump = Jet(WIN, np.zeros(WIN.shape), np.zeros(WIN.shape))
    bump.u_phi[10, 10] = 1.0
    with pytest.raises(InvalidJetError):
        build_hierarchy(bump, v, 2, CHOICE, PARAMS, WIN)
    other = Window(-9, 9, -9, 9)
    with pytest.raises(RangeError):
        build_hierarchy(Jet.zero(other), v, 2, CHOICE, PARAMS, WIN)


def test_family_arg_validation(hier):
    omega = past_region(WIN, 0)
    with pytest.raises(UnsupportedOrderError):
        family_taylor_I(hier, omega, 0, 1)
    with pytest.raises(UnsupportedOrderError):
        family_taylor_I(hier, omega, 4, 4)
    with pytest.raises(UnsupportedOrderError):
        taylor_oracle_I(hier, omega, 2, 4)
    stranger = past_region(Window(-9, 9, -9, 9), 0)
    with pytest.raises(RangeError):
        taylor_oracle_I(hier, stranger, 2, 2)


def test_full_window_region_sees_volume_only(hier_mixed):
    # The whole window has no in-window complement, so both routes reduce
    # to the counterterm volume and must agree through entirely different
    # bookkeeping (composition weights vs exponential coefficients).
    omega = Region.from_box(WIN, WIN.t_min, WIN.t_max, WIN.x_min, WIN.x_max)
    m = 2
    w11 = hier_mixed.coeff(1, 1)
    u, v = hier_mixed.coeff(1, 0), hier_mixed.coeff(0, 1)
    expect = -0.5 * PARAMS.nu * (w11.a.sum() + (u.a * v.a).sum())
    assert expect != 0.0
    got = family_taylor_I(hier_mixed, omega, m, m)
    assert math.isclose(got, expect, rel_tol=1e-12, abs_tol=1e-15)
    assert math.isclose(taylor_oracle_I(hier_mixed, omega, m, m), expect,
                        rel_tol=1e-12, abs_tol=1e-15)


def test_hierarchy_and_oracle_leave_inputs_unchanged(seeds, hier_mixed):
    def snapshot(jets):
        return [(jet.a.tobytes(), jet.u_phi.tobytes()) for jet in jets]

    before = snapshot(seeds)
    built = build_hierarchy(*seeds, 3, CHOICE, PARAMS, WIN)
    assert snapshot(seeds) == before
    assert built.coeffs[(1, 0)] is seeds[0]
    assert built.coeffs[(0, 1)] is seeds[1]
    stored = snapshot(hier_mixed.coeffs.values())
    for m in range(1, hier_mixed.order + 1):
        taylor_oracle_I(hier_mixed, past_region(WIN, 0), m, m)
    assert snapshot(hier_mixed.coeffs.values()) == stored
