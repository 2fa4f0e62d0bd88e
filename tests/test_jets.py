import itertools
import math

import numpy as np
import pytest

from surflat import (InvalidJetError, LatticePoint, ModelParams, RangeError,
                     Region, UnsupportedOrderError, Window, past_region,
                     stencil_pairs)
from surflat.jets import (DualValue, Jet, PointDeriv, delta_ell,
                          delta_ell_field, delta_op, delta_op_field, nabla_L,
                          pair_product_sum)

P = ModelParams()
W = Window(-4, 4, -4, 4)


def pt(t, x, phi=0.0):
    return LatticePoint(t, x, phi)


def random_jet(seed, window=W, zero_scalar=False):
    rng = np.random.default_rng(seed)
    a = np.zeros(window.shape) if zero_scalar else rng.normal(size=window.shape)
    return Jet(window, a, rng.normal(size=window.shape))


def brute_delta_ell(ell_order, jets, x, p, window):
    """Oracle: expand the slot products through nabla_L point by point.

    Partners outside the window are dropped, as in the windowed
    configuration; the angular component takes one more slot-1 derivative
    along a unit angle.
    """
    unit_angle = Jet(window, window.zeros(), np.ones(window.shape))
    scalar = 0.0
    phi = 0.0
    for (dt, dx) in [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]:
        if not window.contains(x.t + dt, x.x + dx):
            continue
        y = pt(x.t + dt, x.x + dx)
        for slots in itertools.product((1, 2), repeat=ell_order):
            derivs = [PointDeriv(s, jet) for s, jet in zip(slots, jets)]
            scalar += nabla_L(derivs, x, y, p)
            phi += nabla_L(derivs + [PointDeriv(1, unit_angle)], x, y, p)
    counter = 0.5 * p.nu
    for jet in jets:
        counter *= jet.a_at(x)
    scale = 1.0 / math.factorial(ell_order)
    return DualValue(scale * (scalar - counter), scale * phi)


def edge_sites(window, margin):
    """Corners and edge midpoints of the frame `margin` sites inside."""
    ts = (window.t_min + margin, (window.t_min + window.t_max) // 2,
          window.t_max - margin)
    xs = (window.x_min + margin, (window.x_min + window.x_max) // 2,
          window.x_max - margin)
    return [(t, x) for t in ts for x in xs if t != ts[1] or x != xs[1]]


# --- nabla_L ---

def test_nabla_single_slot_value():
    a = W.zeros()
    a[W.index(0, 0)] = 2.0
    u = Jet(W, a, W.zeros())
    # pure weight part: a(x) * L(x, y)
    assert nabla_L([PointDeriv(1, u)], pt(0, 0), pt(0, 0), P) == 10.0
    assert nabla_L([PointDeriv(1, u)], pt(0, 0), pt(1, 0), P) == 4.0
    assert nabla_L([PointDeriv(2, u)], pt(1, 0), pt(0, 0), P) == 4.0


def test_nabla_angle_part_vanishes_on_base():
    u = Jet(W, W.zeros(), np.ones(W.shape))
    # first angular derivative of the interaction vanishes on the base
    assert nabla_L([PointDeriv(1, u)], pt(0, 0), pt(0, 1), P) == 0.0


def test_nabla_two_slots_mixed_angle():
    u = Jet(W, W.zeros(), np.ones(W.shape))
    v = Jet(W, W.zeros(), np.ones(W.shape))
    # mixed second derivative is minus the signed pattern
    val = nabla_L([PointDeriv(1, u), PointDeriv(2, v)], pt(0, 0), pt(0, 1), P)
    assert val == -1.0
    val = nabla_L([PointDeriv(1, u), PointDeriv(2, v)], pt(0, 0), pt(1, 0), P)
    assert val == 1.0


def test_nabla_derivs_commute():
    u, v = random_jet(1), random_jet(2)
    for (x, y) in [(pt(0, 0), pt(0, 1)), (pt(1, -1), pt(0, -1))]:
        ab = nabla_L([PointDeriv(1, u), PointDeriv(2, v)], x, y, P)
        ba = nabla_L([PointDeriv(2, v), PointDeriv(1, u)], x, y, P)
        assert ab == pytest.approx(ba, rel=1e-14)


def test_nabla_rejects_bad_slot():
    with pytest.raises(InvalidJetError):
        PointDeriv(3, random_jet(0))


# --- delta_ell and delta_op ---

def test_delta_op_on_unit_weight():
    ones = Jet(W, np.ones(W.shape), W.zeros())
    val = delta_op(ones, pt(0, 0), P, W)
    # nu/2 * b + sum_y b(y) L(x, y) = 9 + ... with the counterterm netting to
    # lambda_a + 2 lambda_i = 9 at the balanced nu
    assert val.scalar == pytest.approx(9.0, abs=1e-12)
    assert val.phi == 0.0


def test_delta_ell_order_one_matches_delta_op():
    v = random_jet(3)
    for (t, x) in [(0, 0), (-2, 3), (1, -1)]:
        dl = delta_ell(1, [v], pt(t, x), P, W)
        dop = delta_op(v, pt(t, x), P, W)
        assert dl.scalar == pytest.approx(dop.scalar, abs=1e-12)
        assert dl.phi == pytest.approx(dop.phi, abs=1e-12)


def test_delta_op_closed_form_stencil():
    v = random_jet(4)
    for (t, x) in [(0, 0), (2, 2), (-1, 3)]:
        got = delta_op(v, pt(t, x), P, W)
        b = v.a_at(pt(t, x))
        expect_scalar = P.lambda_a * b + P.lambda_i * (
            v.a_at(pt(t + 1, x)) + v.a_at(pt(t - 1, x)))
        expect_phi = (v.phi_at(pt(t - 1, x)) + v.phi_at(pt(t + 1, x))
                      - v.phi_at(pt(t, x - 1)) - v.phi_at(pt(t, x + 1)))
        assert got.scalar == pytest.approx(expect_scalar, abs=1e-12)
        assert got.phi == pytest.approx(expect_phi, abs=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_delta_ell_matches_brute_force(order):
    jets = [random_jet(10 + k) for k in range(order)]
    for (t, x) in [(0, 0), (-1, 2)]:
        got = delta_ell(order, jets, pt(t, x), P, W)
        want = brute_delta_ell(order, jets, pt(t, x), P, W)
        assert got.scalar == pytest.approx(want.scalar, rel=1e-12, abs=1e-12)
        assert got.phi == pytest.approx(want.phi, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_delta_ell_field_matches_point(order):
    jets = [random_jet(20 + k) for k in range(order)]
    dual = delta_ell_field(order, jets, P, W)
    for (t, x) in [(0, 0), (2, -3), (-3, 3)]:
        point = delta_ell(order, jets, pt(t, x), P, W)
        i, j = W.index(t, x)
        assert dual.b[i, j] == pytest.approx(point.scalar, rel=1e-12, abs=1e-13)
        assert dual.w_phi[i, j] == pytest.approx(point.phi, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_delta_ell_field_matches_oracles_on_wide_window(order):
    # a non-square window: sites next to every edge against the pointwise
    # variation, and sites on the frame, whose stencil the window clips,
    # against the nabla_L expansion over the in-window partners
    wide = Window(-7, 7, -10, 16)
    jets = [random_jet(80 + k, wide) for k in range(order)]
    dual = delta_ell_field(order, jets, P, wide)
    for (t, x) in edge_sites(wide, 1):
        point = delta_ell(order, jets, pt(t, x), P, wide)
        i, j = wide.index(t, x)
        assert dual.b[i, j] == pytest.approx(point.scalar, rel=1e-12,
                                             abs=1e-12)
        assert dual.w_phi[i, j] == pytest.approx(point.phi, rel=1e-12,
                                                 abs=1e-12)
    for (t, x) in edge_sites(wide, 0):
        want = brute_delta_ell(order, jets, pt(t, x), P, wide)
        i, j = wide.index(t, x)
        assert dual.b[i, j] == pytest.approx(want.scalar, rel=1e-12,
                                             abs=1e-12)
        assert dual.w_phi[i, j] == pytest.approx(want.phi, rel=1e-12,
                                                 abs=1e-12)


SIGNS = ((1.0, -1.0), (1.0, 0.0), (0.0, 1.0))


def brute_pair_sum(omega, factors, p):
    """Oracle: expand each signed factor into slot derivatives per pair."""
    total = 0.0
    for (x, y) in stencil_pairs(omega):
        for slots in itertools.product((1, 2), repeat=len(factors)):
            weight = 1.0
            for s, (_, s1, s2) in zip(slots, factors):
                weight *= s1 if s == 1 else s2
            if weight == 0.0:
                continue
            derivs = [PointDeriv(s, jet)
                      for s, (jet, _, _) in zip(slots, factors)]
            total += weight * nabla_L(derivs, x, y, p)
    return total


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("first", range(len(SIGNS)))
def test_pair_product_sum_matches_nabla_sum(order, first):
    # the first factor carries SIGNS[first]; later ones cycle through the
    # other sign pairs so that mixed products are covered too
    wide = Window(-7, 7, -10, 16)
    regions = [past_region(wide, 1),
               Region.from_box(wide, -7, -3, 2, 8)]  # touches the bottom
    jets = [random_jet(90 + k, wide) for k in range(order)]
    factors = [(jet, *SIGNS[(first + k) % len(SIGNS)])
               for k, jet in enumerate(jets)]
    for omega in regions:
        got = pair_product_sum(P, omega, factors)
        want = brute_pair_sum(omega, factors, P)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_delta_ell_symmetric_in_jets():
    jets = [random_jet(30 + k) for k in range(3)]
    base = delta_ell(3, jets, pt(0, 1), P, W)
    for perm in itertools.permutations(jets):
        val = delta_ell(3, list(perm), pt(0, 1), P, W)
        assert val.scalar == pytest.approx(base.scalar, rel=1e-12)
        assert val.phi == pytest.approx(base.phi, rel=1e-12, abs=1e-13)


def test_delta_ell_multilinear():
    u, v, w = random_jet(40), random_jet(41), random_jet(42)
    c = 1.7
    left = delta_ell(2, [u + c * w, v], pt(1, 1), P, W)
    a1 = delta_ell(2, [u, v], pt(1, 1), P, W)
    a2 = delta_ell(2, [w, v], pt(1, 1), P, W)
    assert left.scalar == pytest.approx(a1.scalar + c * a2.scalar, rel=1e-12)
    assert left.phi == pytest.approx(a1.phi + c * a2.phi, rel=1e-12, abs=1e-13)


def test_delta_ell_validation():
    u = random_jet(60)
    with pytest.raises(UnsupportedOrderError):
        delta_ell(5, [u] * 5, pt(0, 0), P, W)
    with pytest.raises(InvalidJetError):
        delta_ell(2, [u], pt(0, 0), P, W)
    with pytest.raises(RangeError):
        delta_ell(1, [u], pt(-4, 0), P, W)
    other = random_jet(61, Window(0, 3, 0, 3))
    with pytest.raises(RangeError):
        delta_ell(1, [other], pt(1, 1), P, W)


def test_delta_two_angular_component_exactly_zero():
    # for variations with vanishing scalar weight the angular output needs a
    # third angular derivative of the interaction, which vanishes on the base
    u = random_jet(70, zero_scalar=True)
    v = random_jet(71, zero_scalar=True)
    dual = delta_ell_field(2, [u, v], P, W)
    assert np.all(dual.w_phi == 0.0)


def test_delta_two_closed_form_for_wave_pairs():
    # oracle: for solutions of the discrete wave equation the quadratic
    # variation reduces to the signed stencil sum of the pointwise product
    rng = np.random.default_rng(8)
    t_coords = W.t_coords()[:, None]
    x_coords = W.x_coords()[None, :]

    def wave(seed):
        r = np.random.default_rng(seed)
        g = {int(k): float(r.normal()) for k in range(-8, 9)}
        h = {int(k): float(r.normal()) for k in range(-8, 9)}
        left = np.vectorize(lambda s: g.get(int(s), 0.0))(t_coords + x_coords)
        right = np.vectorize(lambda s: h.get(int(s), 0.0))(t_coords - x_coords)
        return Jet(W, W.zeros(), left + right)

    for seed in range(3):
        u, v = wave(100 + seed), wave(200 + seed)
        dual = delta_ell_field(2, [u, v], P, W)
        prod = u.u_phi * v.u_phi
        expect = 0.5 * (W.shifted(prod, 0, -1) + W.shifted(prod, 0, 1)
                        - W.shifted(prod, -1, 0) - W.shifted(prod, 1, 0))
        inner = W.interior_mask()
        np.testing.assert_allclose(dual.b[inner], expect[inner], atol=1e-12)


def test_delta_op_field_time_edges_use_clipped_stencil():
    ones = Jet(W, np.ones(W.shape), W.zeros())
    dual = delta_op_field(ones, P, W)
    # interior value: lambda_a + 2 lambda_i; the edge rows lose one neighbor
    # both in the operator and in the windowed interaction sum
    assert dual.b[4, 4] == pytest.approx(9.0)
    assert dual.b[0, 4] == pytest.approx(P.lambda_a + 2 * P.lambda_i
                                         - 2 * P.lambda_i)


def test_dual_value_named_fields():
    val = DualValue(1.0, 2.0)
    assert val.scalar == 1.0 and val.phi == 2.0
