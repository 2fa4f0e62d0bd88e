import collections
import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from surflat import perturb
from surflat.errors import InvalidJetError, RangeError, UnsupportedOrderError
from surflat.jets import (DualJet, Jet, delta_ell_field, delta_op_field,
                          pair_product_sum, region_product_sum)
from surflat.lagrangian import MAX_ORDER, ModelParams, stencil_deriv_table
from surflat.linear import (GreensChoice, greens_apply, scalar_roots,
                            scalar_solution, wave_solution)
from surflat.perturb import (Hierarchy, _multisets, build_hierarchy,
                             compositions, family_taylor_I, taylor_oracle_I)
from surflat.polyseries import PolyRing
from surflat.space import (Region, STENCIL_OFFSETS, Window, pair_masks,
                           past_region)

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
    # the oracle reports grading m only; its off-grading zeros are the
    # literal oracle[m,p] report rows (tests/test_cli.py, acceptance 9)
    omega = past_region(WIN, 0)
    assert family_taylor_I(hier, omega, m, p_order) == 0.0


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
    b = taylor_oracle_I(hier, omega)[m - 1]
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


def routes_agree_on_mixed_box(hier_mixed):
    omega = Region.from_box(WIN, -4, 3, -5, 2)
    oracle = taylor_oracle_I(hier_mixed, omega)
    agree = []
    for m in (1, 2):
        a = family_taylor_I(hier_mixed, omega, m, m)
        assert a != 0.0
        agree.append(abs(a - oracle[m - 1]) <= 1e-10 * max(1.0, abs(a)))
    return agree


def test_routes_agree_with_nonzero_scalar_seed(hier_mixed):
    assert routes_agree_on_mixed_box(hier_mixed) == [True, True]


def test_truncated_exp_breaks_route_agreement(hier_mixed, monkeypatch):
    # a planted defect: the exponential stops one step early, so the
    # degree-cap part of the scalar weights goes missing
    def exp_one_step_short(ring, a):
        out = ring.constant(1.0, a.shape[1])
        term = ring.constant(1.0, a.shape[1])
        for n in range(1, ring.cap):
            term = ring.mul(term, a)
            term /= n
            out += term
        return out

    monkeypatch.setattr(PolyRing, "exp", exp_one_step_short)
    assert routes_agree_on_mixed_box(hier_mixed) == [True, False]


def test_short_product_table_breaks_route_agreement(hier_mixed, monkeypatch):
    # a planted defect: every monomial's product table loses its last pair
    create = PolyRing.create.__func__

    def create_short(cls, n_vars, cap):
        ring = create(cls, n_vars, cap)
        return dataclasses.replace(ring, terms=tuple(
            pairs[:-1] if len(pairs) > 1 else pairs for pairs in ring.terms))

    monkeypatch.setattr(PolyRing, "create", classmethod(create_short))
    assert routes_agree_on_mixed_box(hier_mixed) == [False, False]


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
    stranger = past_region(Window(-9, 9, -9, 9), 0)
    with pytest.raises(RangeError):
        taylor_oracle_I(hier, stranger)


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
    assert math.isclose(taylor_oracle_I(hier_mixed, omega)[m - 1], expect,
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
    taylor_oracle_I(hier_mixed, past_region(WIN, 0))
    assert snapshot(hier_mixed.coeffs.values()) == stored


def reference_oracle(hier, omega, m):
    """The series oracle for one order m at grading m, built afresh per m.

    This is the per-order evaluation that taylor_oracle_I replaced by one
    pass over all orders, kept verbatim as the bitwise reference. It runs
    on the production PolyRing, whose mul and exp tests/test_polyseries.py
    pins bitwise to the round-by-round reference.
    """
    window = hier.window
    p = hier.params
    cap = hier.order
    ring2 = PolyRing.create(2, cap)
    ring4 = PolyRing.create(4, cap)

    def gather(name, cols):
        out = ring2.zeros(cols.size)
        for (i, j), jet in hier.coeffs.items():
            out[ring2.index[(i, j)]] = getattr(jet, name).ravel()[cols]
        return out

    mfact = float(math.factorial(m - 1))
    exp_c = ring2.exp(gather("a", np.flatnonzero(omega.mask)))
    vol_coeff = exp_c[ring2.index[(1, m - 1)]]
    volume = 0.5 * p.nu * mfact * float(vol_coeff.sum())

    slot_x = np.array([ring4.index[(a, b, 0, 0)] for (a, b) in ring2.monomials])
    slot_y = np.array([ring4.index[(0, 0, a, b)] for (a, b) in ring2.monomials])

    table = stencil_deriv_table(p)
    n_x = window.shape[1]
    surface = 0.0
    for (dt, dx), mask in pair_masks(omega).items():
        ix = np.flatnonzero(mask.ravel())
        if ix.size == 0:
            continue
        iy = ix + dt * n_x + dx
        width = ix.size

        def embed(name, cols, rows):
            out = ring4.zeros(width)
            out[rows] = gather(name, cols)
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

        for b in range(m):
            d_deg = m - 1 - b
            plus = f_pair[ring4.index[(1, b, 0, d_deg)]]
            minus = f_pair[ring4.index[(0, b, 1, d_deg)]]
            surface += mfact * float(plus.sum() - minus.sum())
    return surface - volume


@functools.cache
def mixed_hierarchy(window, order):
    u = right_mover(window, 2, 0.15) + scalar_solution(
        1e-3, PARAMS, window, decay="future")
    v = left_mover(window, -2, 0.2) + scalar_solution(
        2e-3, PARAMS, window, decay="past")
    return build_hierarchy(u, v, order, CHOICE, PARAMS, window)


@pytest.mark.parametrize("window", [WIN, Window(-11, 10, -11, 11)],
                         ids=["21x21", "22x23"])
@pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
@pytest.mark.parametrize("region", ["past", "box", "full"])
def test_oracle_matches_per_order_reference_bitwise(window, order, region):
    hier = mixed_hierarchy(window, order)
    omega = {
        "past": lambda: past_region(window, 0),
        "box": lambda: Region.from_box(window, -4, 3, -5, 2),
        "full": lambda: Region.from_box(window, window.t_min, window.t_max,
                                        window.x_min, window.x_max),
    }[region]()
    expect = tuple(reference_oracle(hier, omega, m)
                   for m in range(1, order + 1))
    got = taylor_oracle_I(hier, omega)
    assert got == expect
    assert any(value != 0.0 for value in got)


# --- hierarchy sources: one variation per multiset of degrees ---

def ordered_tuples(i, j, ell):
    """Ordered ell-tuples of stored degrees summing to (i, j).

    The sum over these is what a hierarchy source stands for; the builder
    folds it into one variation per multiset, and this enumeration stays
    here as the reference.
    """
    singles = [(a, b)
               for a in range(i + 1) for b in range(j + 1)
               if 1 <= a + b < i + j]
    for combo in itertools.product(singles, repeat=ell):
        if (sum(a for a, _ in combo), sum(b for _, b in combo)) == (i, j):
            yield combo


DEGREE_CASES = [(i, degree - i, ell)
                for degree in range(2, MAX_ORDER + 1)
                for i in range(degree + 1)
                for ell in range(2, degree + 1)]


@pytest.mark.parametrize("i,j,ell", DEGREE_CASES)
def test_multisets_fold_the_ordered_tuples(i, j, ell):
    ordered = list(ordered_tuples(i, j, ell))
    folded = list(_multisets(i, j, ell))
    assert ordered and folded
    assert sum(count for _, count in folded) == len(ordered)
    assert {parts for parts, _ in folded} == {tuple(sorted(t))
                                              for t in ordered}
    assert len({parts for parts, _ in folded}) == len(folded)
    for parts, count in folded:
        assert count == len(set(itertools.permutations(parts)))


@pytest.mark.parametrize("order,per_ell", [(2, {2: 3}), (3, {2: 9, 3: 4}),
                                          (4, {2: 23, 3: 13, 4: 5})])
def test_hierarchy_varies_once_per_multiset(seeds, monkeypatch, order,
                                            per_ell):
    # 3, 13 and 41 variations against 4, 24 and 101 ordered tuples
    orders = []

    def counting(ell, *args, **kwargs):
        orders.append(ell)
        return delta_ell_field(ell, *args, **kwargs)

    monkeypatch.setattr(perturb, "delta_ell_field", counting)
    build_hierarchy(*seeds, order, CHOICE, PARAMS, WIN)
    assert collections.Counter(orders) == per_ell


def ordered_hierarchy(u, v, order, choice, window):
    """Hierarchy coefficients with each source summed over ordered tuples."""
    coeffs = {(1, 0): u, (0, 1): v}
    for degree in range(2, order + 1):
        for i in range(degree + 1):
            source = DualJet.zero(window)
            for ell in range(2, degree + 1):
                for parts in ordered_tuples(i, degree - i, ell):
                    source = source + delta_ell_field(
                        ell, [coeffs[key] for key in parts], PARAMS, window)
            coeffs[(i, degree - i)] = greens_apply(
                choice, source, PARAMS, window, edge_check=False)
    return coeffs


# Largest field-wise deviation from the ordered sum, relative to the field's
# largest entry, was 1.95e-15 over these cases (W=80, retarded/banded); the
# bound leaves about twice that.
MULTISET_REL_BOUND = 4e-15
SUM_CHOICES = {"retarded-banded": GreensChoice(),
               "advanced-frequency": GreensChoice("advanced", "frequency")}


@functools.cache
def coupled_seeds(half):
    # a right mover against a left and right mover plus a small scalar mode
    # that decays toward the future, so every product couples
    window = Window(-half, half, -half, half)
    u = right_mover(window, 3, 0.2)
    v = (wave_solution(
        {-3 + k: 0.25 * (1.0 - (k / 3.0) ** 2) ** 2 for k in range(-2, 3)},
        {-1 + k: 0.15 * (1.0 - (k / 3.0) ** 2) ** 2 for k in range(-2, 3)},
        window)
        + scalar_solution(0.01 * 2.0 ** -half, PARAMS, window,
                          decay="future"))
    return window, u, v


@pytest.mark.parametrize("half", [40, 80])
@pytest.mark.parametrize("choice", SUM_CHOICES.values(), ids=SUM_CHOICES)
def test_multiset_sources_match_ordered_sum(half, choice):
    window, u, v = coupled_seeds(half)
    want = ordered_hierarchy(u, v, MAX_ORDER, choice, window)
    for order in range(2, MAX_ORDER + 1):
        got = build_hierarchy(u, v, order, choice, PARAMS, window).coeffs
        assert set(got) == {key for key in want if sum(key) <= order}
        for key, jet in got.items():
            for name in ("a", "u_phi"):
                ref = getattr(want[key], name)
                gap = np.abs(getattr(jet, name) - ref).max()
                assert gap <= MULTISET_REL_BOUND * np.abs(ref).max(), (
                    order, key, name)


# --- the oracle's volume series in site blocks ---

@functools.cache
def block_seeds(half, kind):
    # coupled waves, a right mover against a left and a right mover; or
    # scalar modes with a bump profile, one decaying toward each end, scaled
    # to 0.01 at the window's far end
    window = Window(-half, half, -half, half)
    if kind == "waves":
        return window, right_mover(window, 3, 0.2), (
            left_mover(window, -3, 0.25) + right_mover(window, -1, 0.15))
    amplitude = 0.01 * abs(scalar_roots(PARAMS)[0]) ** half
    profile = {x: 1.0 - (x / 4.0) ** 2 for x in range(-3, 4)}
    return window, *(scalar_solution(amplitude, PARAMS, window, decay=decay,
                                     profile=profile)
                     for decay in ("future", "past"))


# Block sizes and the regions they run on. One-site blocks cost about 1 ms
# per site at order 4, so they run on a 5 x 9 box and seven-site blocks on
# an 11 x 20 box; the 1,000-site blocks split the past region (3,321 sites
# at W=40, 13,041 at W=80). Except for the one-site blocks, the last block
# is short.
BLOCK_REGIONS = {1: lambda w: Region.from_box(w, -2, 2, -4, 4),
                 7: lambda w: Region.from_box(w, -5, 5, -10, 9),
                 1000: lambda w: past_region(w, 0)}


def full_width_volume(hier, omega, ring2):
    """The oracle's volumes from one exponential over all region sites.

    taylor_oracle_I evaluated its counterterm volumes this way before it
    worked in site blocks; kept here as their bitwise reference.
    """
    cols = np.flatnonzero(omega.mask)
    series = ring2.zeros(cols.size)
    for (i, j), jet in hier.coeffs.items():
        series[ring2.index[(i, j)]] = jet.a.ravel()[cols]
    exp_c = ring2.exp(series)
    return [0.5 * hier.params.nu * float(math.factorial(m - 1))
            * float(exp_c[ring2.index[(1, m - 1)]].sum())
            for m in range(1, hier.order + 1)]


@pytest.mark.parametrize("half", [40, 80])
@pytest.mark.parametrize("choice", SUM_CHOICES.values(), ids=SUM_CHOICES)
@pytest.mark.parametrize("kind", ["waves", "scalar"])
def test_oracle_volume_blocks_bitwise(monkeypatch, half, choice, kind):
    window, u, v = block_seeds(half, kind)
    full = build_hierarchy(u, v, MAX_ORDER, choice, PARAMS, window)
    for order in range(1, MAX_ORDER + 1):
        # a build stops at its order, so lower orders are truncations
        hier = Hierarchy(window, PARAMS, choice, order,
                         {key: jet for key, jet in full.coeffs.items()
                          if sum(key) <= order})
        for block, region in BLOCK_REGIONS.items():
            omega = region(window)
            with monkeypatch.context() as patch:
                patch.setattr(perturb, "_oracle_volume", full_width_volume)
                expect = taylor_oracle_I(hier, omega)
            with monkeypatch.context() as patch:
                patch.setattr(perturb, "VOLUME_BLOCK_SITES", block)
                assert taylor_oracle_I(hier, omega) == expect, (order, block)
    # the blocks carry weight: the volumes themselves are not all zero
    ring2 = PolyRing.create(2, MAX_ORDER)
    for region in BLOCK_REGIONS.values():
        assert any(full_width_volume(full, region(window), ring2))
