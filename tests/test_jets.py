import itertools
import math
import tracemalloc

import numpy as np
import pytest

from surflat import (MAX_ORDER, InvalidJetError, LatticePoint, ModelParams,
                     RangeError, Region, UnsupportedOrderError, Window, jets,
                     past_region, stencil_pairs)
from surflat.jets import (PAIR_CLASSES, DualJet, DualValue, Jet, PointDeriv,
                          delta_ell, delta_ell_field, live_pairs, nabla_L,
                          pair_product_sum,
                          region_product_sum, series_workspace,
                          slot_factor_maps, stencil_contraction,
                          workspace_rows)
from surflat.lagrangian import stencil_deriv_table
from surflat.linear import wave_solution
from surflat.space import STENCIL_OFFSETS, pair_masks

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


# --- jets: read-only fields and their cached facts ---

def test_jet_fields_are_read_only():
    # the fields are read-only views; the caller's arrays stay writable
    a, u_phi = np.ones(W.shape), np.zeros(W.shape)
    for jet in (Jet(W, a, u_phi), DualJet(W, a, u_phi)):
        for field in vars(jet).values():
            if isinstance(field, np.ndarray):
                with pytest.raises(ValueError, match="read-only"):
                    field[0, 0] = 2.0
                with pytest.raises(ValueError, match="read-only"):
                    np.add(field, 1.0, out=field)
    assert a.flags.writeable and u_phi.flags.writeable


def test_jet_facts_are_computed_once():
    # facts, then support, each on first use and kept by the jet
    rng = np.random.default_rng(3)
    a = np.where(rng.random(W.shape) < 0.3, rng.normal(size=W.shape), -0.0)
    jet = Jet(W, a, np.zeros(W.shape))
    assert "facts" not in vars(jet) and "support" not in vars(jet)
    assert jet.facts.has_scalar
    assert jet.facts == (np.abs(a).max(), True, False)
    assert vars(jet)["facts"] is jet.facts and "support" not in vars(jet)
    mask, count = jet.support
    assert jet.support[0] is mask and not mask.flags.writeable
    assert np.array_equal(mask, a != 0.0) and count == np.count_nonzero(a)
    assert not Jet(W, np.full(W.shape, -0.0), a).facts.has_scalar
    for bad in (np.nan, -np.inf):
        field = a.copy()
        field[2, 3] = bad
        assert Jet(W, field, field).facts == (math.inf, True, True)
    assert Jet(W, np.full(W.shape, np.nan), a).facts.has_scalar


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


# --- delta_ell, and at order one the linearized operator ---

def test_delta_op_on_unit_weight():
    ones = Jet(W, np.ones(W.shape), W.zeros())
    val = delta_ell(1, [ones], pt(0, 0), P)
    # nu/2 * b + sum_y b(y) L(x, y) = 9 + ... with the counterterm netting to
    # lambda_a + 2 lambda_i = 9 at the balanced nu
    assert val.scalar == pytest.approx(9.0, abs=1e-12)
    assert val.phi == 0.0


def test_delta_op_closed_form_stencil():
    v = random_jet(4)
    for (t, x) in [(0, 0), (2, 2), (-1, 3)]:
        got = delta_ell(1, [v], pt(t, x), P)
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
        got = delta_ell(order, jets, pt(t, x), P)
        want = brute_delta_ell(order, jets, pt(t, x), P, W)
        assert got.scalar == pytest.approx(want.scalar, rel=1e-12, abs=1e-12)
        assert got.phi == pytest.approx(want.phi, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_delta_ell_field_matches_point(order):
    jets = [random_jet(20 + k) for k in range(order)]
    dual = delta_ell_field(order, jets, P)
    for (t, x) in [(0, 0), (2, -3), (-3, 3)]:
        point = delta_ell(order, jets, pt(t, x), P)
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
    dual = delta_ell_field(order, jets, P)
    for (t, x) in edge_sites(wide, 1):
        point = delta_ell(order, jets, pt(t, x), P)
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
    base = delta_ell(3, jets, pt(0, 1), P)
    for perm in itertools.permutations(jets):
        val = delta_ell(3, list(perm), pt(0, 1), P)
        assert val.scalar == pytest.approx(base.scalar, rel=1e-12)
        assert val.phi == pytest.approx(base.phi, rel=1e-12, abs=1e-13)


def test_delta_ell_multilinear():
    u, v, w = random_jet(40), random_jet(41), random_jet(42)
    c = 1.7
    left = delta_ell(2, [u + c * w, v], pt(1, 1), P)
    a1 = delta_ell(2, [u, v], pt(1, 1), P)
    a2 = delta_ell(2, [w, v], pt(1, 1), P)
    assert left.scalar == pytest.approx(a1.scalar + c * a2.scalar, rel=1e-12)
    assert left.phi == pytest.approx(a1.phi + c * a2.phi, rel=1e-12, abs=1e-13)


def test_delta_ell_validation():
    u = random_jet(60)
    with pytest.raises(UnsupportedOrderError):
        delta_ell(MAX_ORDER + 1, [u] * (MAX_ORDER + 1), pt(0, 0), P)
    with pytest.raises(InvalidJetError):
        delta_ell(2, [u], pt(0, 0), P)
    with pytest.raises(RangeError):
        delta_ell(1, [u], pt(-4, 0), P)
    other = random_jet(61, Window(0, 3, 0, 3))
    with pytest.raises(RangeError):
        delta_ell(2, [u, other], pt(1, 1), P)


def test_delta_two_angular_component_exactly_zero():
    # for variations with vanishing scalar weight the angular output needs a
    # third angular derivative of the interaction, which vanishes on the base
    u = random_jet(70, zero_scalar=True)
    v = random_jet(71, zero_scalar=True)
    dual = delta_ell_field(2, [u, v], P)
    assert np.all(dual.w_phi == 0.0)


def test_delta_two_closed_form_for_wave_pairs():
    # oracle: for solutions of the discrete wave equation the quadratic
    # variation reduces to the signed stencil sum of the pointwise product
    rng = np.random.default_rng(8)
    t_coords = W.t_coords()[:, None]
    x_coords = np.arange(W.x_min, W.x_max + 1)[None, :]

    def wave(seed):
        r = np.random.default_rng(seed)
        g = {int(k): float(r.normal()) for k in range(-8, 9)}
        h = {int(k): float(r.normal()) for k in range(-8, 9)}
        left = np.vectorize(lambda s: g.get(int(s), 0.0))(t_coords + x_coords)
        right = np.vectorize(lambda s: h.get(int(s), 0.0))(t_coords - x_coords)
        return Jet(W, W.zeros(), left + right)

    for seed in range(3):
        u, v = wave(100 + seed), wave(200 + seed)
        dual = delta_ell_field(2, [u, v], P)
        prod = u.u_phi * v.u_phi
        expect = 0.5 * (W.shifted(prod, 0, -1) + W.shifted(prod, 0, 1)
                        - W.shifted(prod, -1, 0) - W.shifted(prod, 1, 0))
        inner = W.interior_mask()
        np.testing.assert_allclose(dual.b[inner], expect[inner], atol=1e-12)


def test_delta_op_field_time_edges_use_clipped_stencil():
    ones = Jet(W, np.ones(W.shape), W.zeros())
    dual = delta_ell_field(1, [ones], P)
    # interior value: lambda_a + 2 lambda_i; the edge rows lose one neighbor
    # both in the operator and in the windowed interaction sum
    assert dual.b[4, 4] == pytest.approx(9.0)
    assert dual.b[0, 4] == pytest.approx(P.lambda_a + 2 * P.lambda_i
                                         - 2 * P.lambda_i)


def test_dual_value_named_fields():
    val = DualValue(1.0, 2.0)
    assert val.scalar == 1.0 and val.phi == 2.0


# --- the workspace engine against the allocate-per-op engine ---
#
# The reference below is the engine as it was before the kernels got one
# workspace per call: every numpy operation returns a fresh array. The
# workspace engine performs the same operations on the same operands in the
# same order, so every field must agree bit for bit, sign of zero included.

def ref_signed_sum(s1, x, s2, y):
    if s2 == 0.0:
        return s1 * x
    if s1 == 0.0:
        return s2 * y
    if s2 == s1:
        return s1 * (x + y)
    if s2 == -s1:
        return s1 * (x - y)
    return s1 * x + s2 * y


def ref_slot_factor_maps(factors, x_sites, y_sites):
    coeffs = []
    for (jet, s1, s2) in factors:
        base = ref_signed_sum(s1, jet.a[x_sites], s2, jet.a[y_sites])
        slope = ref_signed_sum(s1, jet.u_phi[x_sites], -s2,
                               jet.u_phi[y_sites])
        if not coeffs:
            coeffs = [base, slope]
            continue
        grown = [coeffs[0] * base]
        for n in range(1, len(coeffs)):
            grown.append(coeffs[n] * base + coeffs[n - 1] * slope)
        grown.append(coeffs[-1] * slope)
        coeffs = grown
    return coeffs


def ref_contract(coeffs, table, offset, shift):
    idx = STENCIL_OFFSETS.index((-offset[0], -offset[1]))
    total = None
    for n, coeff in enumerate(coeffs):
        d = table[(n + shift, 0)][idx]
        if d != 0.0:
            term = coeff * d
            total = term if total is None else total + term
    return total


def ref_stencil_contraction(p, window, jets):
    # every offset from each end, the pair's partner included
    table = stencil_deriv_table(p)
    factors = [(jet, 1.0, 1.0) for jet in jets]
    scalar = window.zeros()
    angular = window.zeros()
    for offset in STENCIL_OFFSETS:
        x_block, y_block = window.shift_blocks(*offset)
        coeffs = ref_slot_factor_maps(factors, x_block, y_block)
        for out, shift in ((scalar, 0), (angular, 1)):
            contrib = ref_contract(coeffs, table, offset, shift)
            if contrib is not None:
                out[x_block] += contrib
    return scalar, angular


def ref_delta_ell_field(ell_order, jets, p, window):
    scalar, phi = ref_stencil_contraction(p, window, jets)
    weights = np.ones(window.shape)
    for jet in jets:
        weights = weights * jet.a
    scale = 1.0 / math.factorial(ell_order)
    return scale * (scalar - 0.5 * p.nu * weights), scale * phi


def ref_pair_product_sum(p, omega, factors):
    table = stencil_deriv_table(p)
    total = 0.0
    for (dt, dx), mask in pair_masks(omega).items():
        ix, jx = np.unravel_index(np.flatnonzero(mask), mask.shape)
        if ix.size == 0:
            continue
        coeffs = ref_slot_factor_maps(factors, (ix, jx), (ix + dt, jx + dx))
        acc = ref_contract(coeffs, table, (dt, dx), 0)
        if acc is not None:
            total += float(acc.sum())
    return total


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def signed_zero_jet(seed, window):
    """Random jet with planted -0.0 and +0.0 entries in both fields."""
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(2):
        f = rng.normal(size=window.shape)
        f[rng.random(window.shape) < 0.25] = -0.0
        f[rng.random(window.shape) < 0.25] = 0.0
        fields.append(f)
    return Jet(window, *fields)


PIN_WINDOWS = {"3x3": Window(-1, 1, -1, 1), "15x27": Window(-7, 7, -13, 13),
               "41x41": Window(-20, 20, -20, 20)}
# the four signs in use, then three whose sums and differences are scaled by
# a factor other than 1, so the signed sum still multiplies
PIN_SIGNS = ((1.0, 1.0), (1.0, -1.0), (1.0, 0.0), (0.0, 1.0),
             (-1.0, -1.0), (-1.0, 1.0), (2.0, 2.0))


@pytest.mark.parametrize("window", PIN_WINDOWS.values(), ids=PIN_WINDOWS)
@pytest.mark.parametrize("signs", PIN_SIGNS, ids=str)
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_slot_factor_maps_bitwise_pin(order, signs, window):
    # the coefficient fields of signed factors, where signed zeros survive,
    # per offset. The first factor carries the sign pattern; later ones
    # cycle through all four, so mixed products are pinned as well
    first = PIN_SIGNS.index(signs)
    factors = [(signed_zero_jet(300 + k, window),
                *PIN_SIGNS[(first + k) % len(PIN_SIGNS)])
               for k in range(order)]
    ws = series_workspace(order, window.shape[0] * window.shape[1])
    planted = False
    for offset in STENCIL_OFFSETS:
        x_block, y_block = window.shift_blocks(*offset)
        rows = workspace_rows(ws, window.zeros()[x_block].shape)
        got = slot_factor_maps(factors, x_block, y_block, rows)
        want = ref_slot_factor_maps(factors, x_block, y_block)
        assert len(got) == len(want) == order + 1
        for g, w in zip(got, want):
            assert_bitwise(g, w)
            planted |= bool(np.any((w == 0.0) & np.signbit(w)))
    assert planted


def tied_jet(seed, window):
    """Random jet of five values, -0.0 and +0.0 among them.

    Neighbours often hold equal values, so many slopes vanish, with a sign
    of zero that depends on which end the pair is seen from.
    """
    rng = np.random.default_rng(seed)
    values = np.array([-1.5, -0.0, 0.0, 0.5, 2.0])
    return Jet(window, *(rng.choice(values, size=window.shape)
                         for _ in range(2)))


# the jets of the symmetric pins: distinct random jets, the same jet in
# every slot (inputs that alias one another), and tied jets
PIN_JETS = {
    "distinct": lambda order, window: [signed_zero_jet(300 + k, window)
                                       for k in range(order)],
    "aliased": lambda order, window: [signed_zero_jet(300, window)] * order,
    "tied": lambda order, window: [tied_jet(320 + k, window)
                                   for k in range(order)],
}

# band sizes, in sites, that split the pin windows into bands of 1 row
# (3x3), of 7, 7 and 1 rows (15x27) and of 10, 10, 10, 10 and 1 rows
# (41x41); the last two are not whole rows, so the band rounds down. Then
# the series runs once per band and pair class, but not for the (-1, 0)
# class on a first band of one row, whose partners would lie before the
# window
SPLIT_BANDS = {PIN_WINDOWS["3x3"]: (3, 3 * 3 - 1),
               PIN_WINDOWS["15x27"]: (7 * 27 + 20, 3 * 3),
               PIN_WINDOWS["41x41"]: (10 * 41 + 40, 5 * 3)}


@pytest.mark.parametrize("bands", ["one", "split"])
@pytest.mark.parametrize("window", PIN_WINDOWS.values(), ids=PIN_WINDOWS)
@pytest.mark.parametrize("case", PIN_JETS)
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_stencil_contraction_bitwise_pin(monkeypatch, order, case, window,
                                         bands):
    # each pair evaluated once against every offset from each end
    band_sites, calls = SPLIT_BANDS[window] if bands == "split" else (
        jets.BAND_SITES, len(PAIR_CLASSES))
    monkeypatch.setattr(jets, "BAND_SITES", band_sites)
    seen = []

    def counting(*args):
        seen.append(args)
        return slot_factor_maps(*args)

    monkeypatch.setattr(jets, "slot_factor_maps", counting)
    pool = PIN_JETS[case](order, window)
    for got, want in zip(stencil_contraction(P, pool),
                         ref_stencil_contraction(P, window, pool)):
        assert_bitwise(got, want)
    assert len(seen) == calls


@pytest.mark.parametrize("bands", ["one", "split"])
@pytest.mark.parametrize("window", PIN_WINDOWS.values(), ids=PIN_WINDOWS)
@pytest.mark.parametrize("case", PIN_JETS)
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_delta_ell_field_bitwise_pin(monkeypatch, order, case, window, bands):
    if bands == "split":
        monkeypatch.setattr(jets, "BAND_SITES", SPLIT_BANDS[window][0])
    pool = PIN_JETS[case](order, window)
    dual = delta_ell_field(order, pool, P)
    want_b, want_phi = ref_delta_ell_field(order, pool, P, window)
    assert_bitwise(dual.b, want_b)
    assert_bitwise(dual.w_phi, want_phi)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_pair_product_sum_bitwise_pin(order):
    wide = PIN_WINDOWS["15x27"]
    factors = [(signed_zero_jet(500 + k, wide), *PIN_SIGNS[k])
               for k in range(order)]
    for omega in (past_region(wide, 0), Region.from_box(wide, -7, -3, 2, 8)):
        got = pair_product_sum(P, omega, factors)
        want = ref_pair_product_sum(P, omega, factors)
        assert got == want and math.copysign(1.0, got) == \
            math.copysign(1.0, want)


def edge_region(window, edge):
    """A two-site stripe along one edge of the window, or a random mask."""
    mask = np.zeros(window.shape, dtype=bool)
    if edge == "random":
        mask = np.random.default_rng(41).random(window.shape) < 0.5
    else:
        rows, cols = {"t_min": (slice(0, 2), slice(None)),
                      "t_max": (slice(-2, None), slice(None)),
                      "x_min": (slice(None), slice(0, 2)),
                      "x_max": (slice(None), slice(-2, None))}[edge]
        mask[rows, cols] = True
    return Region(window, mask)


@pytest.mark.parametrize("edge", ["t_min", "t_max", "x_min", "x_max",
                                  "random"])
def test_pair_product_sum_on_the_window_edges_bitwise(edge):
    # flat site indices step across a row end as ix + 1 does; a region on
    # each edge, and one with sites on every edge, sums exactly the pairs
    # of the row and column reference, with no partner wrapped to the
    # other side of the window; order 1 is left out, as its spatial pairs
    # sum to zero at the base configuration
    wide = PIN_WINDOWS["15x27"]
    omega = edge_region(wide, edge)
    for order in (2, 3):
        factors = [(signed_zero_jet(600 + k, wide), *PIN_SIGNS[k])
                   for k in range(order)]
        got = pair_product_sum(P, omega, factors)
        want = ref_pair_product_sum(P, omega, factors)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert got != 0.0


def ref_region_product_sum(omega, jets):
    # the whole-window product, masked afterwards
    prod = np.ones(omega.window.shape)
    for jet in jets:
        prod = prod * jet.a
    return float(prod[omega.mask].sum())


def test_region_product_sum_bitwise_pin():
    # the jets carry -0.0 entries (signed_zero_jet) and one NaN, on row
    # t = 4, which only the cuts at and above it see
    wide = PIN_WINDOWS["15x27"]
    jets = [signed_zero_jet(600 + k, wide) for k in range(4)]
    a = jets[1].a.copy()
    a[wide.index(4, 2)] = np.nan
    jets[1] = Jet(wide, a, jets[1].u_phi)
    seen_nan = False
    for n in range(5):
        for cut in (-7, -3, 0, 3, 4, 6):
            omega = past_region(wide, cut)
            got = region_product_sum(omega, jets[:n])
            want = ref_region_product_sum(omega, jets[:n])
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            seen_nan |= math.isnan(want)
    assert seen_nan


# --- the live pairs against the whole blocks ---
#
# stencil_contraction evaluates sparse factors on their live pairs only.
# The gathered fixture lifts the size and share limits, which only pick the
# faster path, so every window here takes the gathered path whenever the
# guard allows it; the block reference above must come out bit for bit.

@pytest.fixture
def gathered(monkeypatch):
    monkeypatch.setattr(jets, "GATHER_MIN_SITES", 0)
    monkeypatch.setattr(jets, "GATHER_MAX_SHARE", 1.0)


def sparse_jets(kind, window, seed, count):
    """count jets of one sparse kind, with -0.0 planted.

    bands are wave solutions, alternately right and left movers; box fills
    a random sub-box of both fields; mask1 and mask10 fill 1% and 10% of the
    sites at random. Except for the bands, -0.0 is planted inside the
    support (one field of a live site) and outside it (both fields).
    """
    rng = np.random.default_rng(seed)
    n_t, n_x = window.shape
    out = []
    for k in range(count):
        if kind == "bands":
            width = min(7, n_x - 1)
            center = int(rng.integers(-2, 3))
            profile = {center + q: float(rng.normal()) for q in range(width)}
            out.append(wave_solution(*((profile, {}), ({}, profile))[k % 2],
                                     window))
            continue
        if kind == "box":
            support = np.zeros(window.shape, dtype=bool)
            i, j = rng.integers(0, n_t), rng.integers(0, n_x)
            support[i:i + 1 + n_t // 4, j:j + 1 + n_x // 4] = True
        else:
            share = {"mask1": 0.01, "mask10": 0.1}[kind]
            support = rng.random(window.shape) < share
            support.flat[rng.integers(0, support.size)] = True
        fields = [np.where(support, rng.normal(size=window.shape), 0.0)
                  for _ in range(2)]
        inside = support & (rng.random(window.shape) < 0.3)
        fields[k % 2][inside] = -0.0
        outside = ~support & (rng.random(window.shape) < 0.3)
        for f in fields:
            f[outside] = -0.0
        out.append(Jet(window, *fields))
    return out


SPARSE_KINDS = ("bands", "box", "mask1", "mask10")


@pytest.mark.parametrize("window", PIN_WINDOWS.values(), ids=PIN_WINDOWS)
@pytest.mark.parametrize("kind", SPARSE_KINDS)
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_gathered_stencil_contraction_bitwise(gathered, order, kind, window):
    # distinct jets, then the same jet in every slot
    pool = sparse_jets(kind, window, 800 + 10 * order
                       + SPARSE_KINDS.index(kind), order)
    for case in (pool, [pool[0]] * order):
        assert live_pairs(case) is not None
        for got, want in zip(stencil_contraction(P, case),
                             ref_stencil_contraction(P, window, case)):
            assert_bitwise(got, want)


@pytest.mark.parametrize("window", PIN_WINDOWS.values(), ids=PIN_WINDOWS)
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_gathered_delta_ell_field_bitwise(gathered, order, window):
    for n, kind in enumerate(SPARSE_KINDS):
        pool = sparse_jets(kind, window, 900 + 10 * order + n, order)
        for case in (pool, [pool[0]] * order):
            dual = delta_ell_field(order, case, P)
            want_b, want_phi = ref_delta_ell_field(order, case, P, window)
            assert_bitwise(dual.b, want_b)
            assert_bitwise(dual.w_phi, want_phi)


def guard_case(name, window):
    """Factors for which skipping the dead pairs would change the outputs.

    u is nonzero on one 3 x 3 box only, so every pair away from it is dead;
    the other factors are dense. nan and inf plant one non-finite value far
    from the box; huge puts two 1e200-scale factors before u, whose product
    overflows; zero does the same with u zero everywhere, whose bound of 0
    must not cancel the overflow.
    """
    rng = np.random.default_rng(17)
    box = np.zeros(window.shape, dtype=bool)
    if name != "zero":
        box[6:9, 4:7] = True
    u = Jet(window, *(np.where(box, rng.normal(size=window.shape), 0.0)
                      for _ in range(2)))
    a, u_phi = (rng.normal(size=window.shape) for _ in range(2))
    if name in ("nan", "inf"):
        a[1, -2] = math.nan if name == "nan" else math.inf
        return box, [Jet(window, a, u_phi), u]
    w = Jet(window, a, u_phi)
    big = Jet(window, 1e200 * w.a, 1e200 * w.u_phi)
    return box, [big, big, u]


@pytest.mark.parametrize("name", ["nan", "inf", "huge", "zero"])
def test_gathered_guard_keeps_the_blocks(gathered, name):
    window = PIN_WINDOWS["15x27"]
    box, pool = guard_case(name, window)
    assert live_pairs(pool) is None
    # the sites whose pairs all miss the box: NaN there shows that the dead
    # pairs do contribute, so the guard is what keeps the outputs equal
    near = box.copy()
    for offset in STENCIL_OFFSETS:
        near |= window.shifted(box, *offset)
    with np.errstate(over="ignore", invalid="ignore"):
        outputs = zip(stencil_contraction(P, pool),
                      ref_stencil_contraction(P, window, pool))
    for got, want in outputs:
        assert got.tobytes() == want.tobytes()
        assert np.isnan(want[~near]).any()


# --- dead coefficients ---
#
# A factor whose jet's a holds only +-0 has base +-0 (pure slope), one whose
# u_phi does has slope +-0 (pure base); with k of the first and j of the
# second, c_n is never computed for n < k or n > ell - j. The outputs are
# pinned bit for bit against the full expansion of the references above.

# the kinds of jet: both fields live; a +0.0 or -0.0; u_phi +0.0 or -0.0;
# both +0.0
PART_KINDS = ("full", "slope", "slope-", "base", "base-", "null")


def part_jet(kind, window, seed, sparse):
    """A jet of one PART_KINDS kind, with -0.0 planted in its live fields.

    sparse puts the live values on a box of about a quarter of each side,
    so that the gathered path has dead pairs to skip.
    """
    rng = np.random.default_rng(seed)
    n_t, n_x = window.shape
    support = np.ones(window.shape, dtype=bool)
    if sparse:
        support[:] = False
        i, j = rng.integers(0, n_t), rng.integers(0, n_x)
        support[i:i + 1 + n_t // 4, j:j + 1 + n_x // 4] = True
    fields = []
    for live in (kind not in ("slope", "slope-", "null"),
                 kind not in ("base", "base-", "null")):
        if live:
            f = np.where(support, rng.normal(size=window.shape), 0.0)
            f[rng.random(window.shape) < 0.25] = -0.0
        else:
            f = np.full(window.shape, -0.0 if kind.endswith("-") else 0.0)
        fields.append(f)
    return Jet(window, *fields)


def part_pools(order, window, sparse):
    # every kind in every slot, then runs through the kinds that mix them
    n = len(PART_KINDS)
    combos = [[kind] * order for kind in PART_KINDS]
    combos += [[PART_KINDS[(first + k) % n] for k in range(order)]
               for first in range(n)]
    combos += [[PART_KINDS[(first + 2 * k) % n] for k in range(order)]
               for first in range(n)]
    return [[part_jet(kind, window, 1000 * order + 10 * c + k, sparse)
             for k, kind in enumerate(combo)]
            for c, combo in enumerate(combos)]


@pytest.mark.parametrize("path", ["blocks", "gathered"])
@pytest.mark.parametrize("window", PIN_WINDOWS.values(), ids=PIN_WINDOWS)
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_dead_coefficients_stencil_contraction_bitwise(monkeypatch, order,
                                                       window, path):
    if path == "gathered":
        monkeypatch.setattr(jets, "GATHER_MIN_SITES", 0)
        monkeypatch.setattr(jets, "GATHER_MAX_SHARE", 1.0)
    for pool in part_pools(order, window, sparse=path == "gathered"):
        assert (live_pairs(pool) is not None) == (path == "gathered")
        for got, want in zip(stencil_contraction(P, pool),
                             ref_stencil_contraction(P, window, pool)):
            assert_bitwise(got, want)
        dual = delta_ell_field(order, pool, P)
        want_b, want_phi = ref_delta_ell_field(order, pool, P, window)
        assert_bitwise(dual.b, want_b)
        assert_bitwise(dual.w_phi, want_phi)


@pytest.mark.parametrize("signs", PIN_SIGNS, ids=str)
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_dead_coefficients_pair_product_sum_bitwise(order, signs):
    wide = PIN_WINDOWS["15x27"]
    first = PIN_SIGNS.index(signs)
    regions = (past_region(wide, 0), Region.from_box(wide, -7, -3, 2, 8))
    for pool in part_pools(order, wide, sparse=False):
        factors = [(jet, *PIN_SIGNS[(first + k) % len(PIN_SIGNS)])
                   for k, jet in enumerate(pool)]
        for omega in regions:
            got = pair_product_sum(P, omega, factors)
            want = ref_pair_product_sum(P, omega, factors)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_dead_coefficients_are_skipped(order):
    # the rule itself: c_n is None exactly for n < k and n > ell - j, and
    # for every n when some factor is +-0 in both parts; the full expansion
    # holds +-0 there, and a live coefficient equals it up to the sign of a
    # zero. On the self pairs (one index object for both ends) every factor
    # with s1 == s2 is pure base
    window = PIN_WINDOWS["15x27"]
    ws = series_workspace(order, window.shape[0] * window.shape[1])
    for pool in part_pools(order, window, sparse=False):
        factors = [(jet, 1.0, 1.0) for jet in pool]
        slope_only = sum(kind_of(jet) in ("slope", "null") for jet in pool)
        base_only = sum(kind_of(jet) in ("base", "null") for jet in pool)
        for offset in STENCIL_OFFSETS:
            x_block, y_block = window.shift_blocks(*offset)
            if offset == (0, 0):
                y_block, base_only_here = x_block, order
            else:
                base_only_here = base_only
            rows = workspace_rows(ws, window.zeros()[x_block].shape)
            got = slot_factor_maps(factors, x_block, y_block, rows)
            want = ref_slot_factor_maps(factors, x_block, y_block)
            for n, (g, w) in enumerate(zip(got, want)):
                dead = (n < slope_only or n > order - base_only_here
                        or any(kind_of(jet) == "null" for jet in pool))
                assert (g is None) == dead
                if dead:
                    assert not w.any()
                else:
                    assert np.array_equal(g, w)
    # on the self pairs a factor with s1 != s2 keeps its slope s1 phi(x)
    jet = part_jet("full", window, 7, sparse=False)
    block = window.shift_blocks(0, 0)[0]
    rows = workspace_rows(ws, window.zeros()[block].shape)
    got = slot_factor_maps([(jet, 1.0, 0.0)], block, block, rows)
    want = ref_slot_factor_maps([(jet, 1.0, 0.0)], block, block)
    assert got[1] is not None and np.array_equal(got[1], want[1])
    assert want[1].any()


def kind_of(jet):
    # "slope", "base", "null" or "full" by the fields' values
    has_a, has_phi = jet.a.any(), jet.u_phi.any()
    return {(False, True): "slope", (True, False): "base",
            (False, False): "null"}.get((has_a, has_phi), "full")


@pytest.mark.parametrize("name", ["nan", "inf", "huge"])
@pytest.mark.parametrize("path", ["blocks", "gathered"])
def test_dead_coefficients_need_the_guard(monkeypatch, path, name):
    # a pure slope factor next to a non-finite field, or behind two factors
    # whose product overflows: its +-0 base times inf or NaN is NaN, so the
    # full expansion must run, and does, on every path
    if path == "gathered":
        monkeypatch.setattr(jets, "GATHER_MIN_SITES", 0)
        monkeypatch.setattr(jets, "GATHER_MAX_SHARE", 1.0)
    window = PIN_WINDOWS["15x27"]
    slope = part_jet("slope", window, 41, sparse=True)
    dense = part_jet("full", window, 42, sparse=False)
    if name == "huge":
        big = Jet(window, 1e200 * dense.a, 1e200 * dense.u_phi)
        pool = [big, big, slope]
    else:
        a = dense.a.copy()
        a[1, -2] = math.nan if name == "nan" else math.inf
        pool = [Jet(window, a, dense.u_phi), slope]
    assert live_pairs(pool) is None
    factors = [(jet, 1.0, 1.0) for jet in pool]
    x_block, y_block = window.shift_blocks(-1, 0)
    ws = series_workspace(len(pool), window.shape[0] * window.shape[1])
    rows = workspace_rows(ws, window.zeros()[x_block].shape)
    with np.errstate(over="ignore", invalid="ignore"):
        assert all(c is not None
                   for c in slot_factor_maps(factors, x_block, y_block, rows))
        for got, want in zip(stencil_contraction(P, pool),
                             ref_stencil_contraction(P, window, pool)):
            assert got.tobytes() == want.tobytes()
            assert np.isnan(want).any()
        dual = delta_ell_field(len(pool), pool, P)
        want_b, _ = ref_delta_ell_field(len(pool), pool, P, window)
        assert dual.b.tobytes() == want_b.tobytes()
        omega = past_region(window, 0)
        factors = [(jet, 1.0, -1.0) for jet in pool]
        got = pair_product_sum(P, omega, factors)
        want = ref_pair_product_sum(P, omega, factors)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


# --- inputs stay untouched, outputs own their memory ---

def snapshot(jets):
    return [(jet.a.tobytes(), jet.u_phi.tobytes()) for jet in jets]


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_field_kernels_leave_inputs_unchanged(order):
    wide = PIN_WINDOWS["15x27"]
    jets = [signed_zero_jet(600 + k, wide) for k in range(order)]
    before = snapshot(jets)
    dual = delta_ell_field(order, jets, P)
    assert snapshot(jets) == before
    scalar, angular = stencil_contraction(P, jets)
    assert snapshot(jets) == before
    outputs = (dual.b, dual.w_phi, scalar, angular)
    for out in outputs:
        for jet in jets:
            assert not np.shares_memory(out, jet.a)
            assert not np.shares_memory(out, jet.u_phi)
    for one, other in itertools.combinations(outputs, 2):
        assert not np.shares_memory(one, other)


def test_delta_ell_field_memory_budget():
    # tracemalloc sees numpy's array buffers; at W=160 one field is 824 KB,
    # so the peak counts fields: the two outputs, then the counterterm's
    # weights or a workspace of ell + 3 rows (ell + 4 beyond one factor)
    # and 4 held rows over one band of 31 of the 321 rows. That is 3.00 to
    # 3.32 fields at orders 1 to 4 (3.43 to 4.07 over bands of 51 rows,
    # 6.16 to 10.16 with a workspace over the whole window). Sparse wave
    # bands, which take the live pairs, stay within the same budget
    wide = Window(-160, 160, -160, 160)
    field = wide.zeros().nbytes
    dense = [random_jet(700 + k, wide) for k in range(4)]
    sparse = sparse_jets("bands", wide, 710, 4)
    delta_ell_field(1, dense[:1], P)  # builds the cached table
    for order in range(1, 5):
        for pool, gathers in ((dense, False), (sparse, True)):
            assert (live_pairs(pool[:order]) is not None) == gathers
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                delta_ell_field(order, pool[:order], P)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (peak - start) / field <= 3.5
