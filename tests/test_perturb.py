import collections
import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from surflat import perturb
from surflat.errors import InvalidJetError, RangeError, UnsupportedOrderError
from surflat.jets import (DualJet, Jet, delta_ell_field, pair_product_sum,
                          region_product_sum)
from surflat.lagrangian import MAX_ORDER, ModelParams, stencil_deriv_table
from surflat.linear import (GreensChoice, greens_apply, linear_residual,
                            scalar_roots, scalar_solution, wave_solution)
from surflat.perturb import (Hierarchy, _degree_sources, _multisets,
                             build_hierarchy, compositions, family_taylor_I,
                             taylor_oracle_I)
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
    return build_hierarchy(u, v, 3, CHOICE, PARAMS)


def read_keys(order):
    """The keys an order-n build stores: (1, j) and (0, j) with j < n."""
    return {(1, j) for j in range(order)} | {(0, j) for j in range(1, order)}


def full_hierarchy(u, v, order, choice):
    """Every coefficient of total degree up to the order, the whole
    two-parameter hierarchy, from the builder's own sources and Green's
    operator. build_hierarchy keeps the keys the family routes read."""
    coeffs = {(1, 0): u, (0, 1): v}
    for degree in range(2, order + 1):
        keys = [(i, degree - i) for i in range(degree + 1)]
        for key, source in _degree_sources(coeffs, keys, PARAMS):
            coeffs[key] = greens_apply(choice, source, PARAMS,
                                       edge_check=False)
    return Hierarchy(PARAMS, coeffs)


@pytest.fixture(scope="module")
def full_hier(seeds):
    return full_hierarchy(*seeds, 3, CHOICE)


def lexicographic_compositions(total, parts):
    """Every tuple of `parts` nonnegative integers summing to total, in
    lexicographic order, by brute force."""
    return [ks for ks in itertools.product(range(total + 1), repeat=parts)
            if sum(ks) == total]


def test_compositions():
    assert list(compositions(3, 2)) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(2, 0)) == []
    for total, parts in itertools.product(range(5), range(5)):
        assert (list(compositions(total, parts))
                == lexicographic_compositions(total, parts))


def test_hierarchy_keys(hier):
    assert set(hier.coeffs) == {(1, 0), (0, 1), (1, 1), (0, 2), (1, 2)}
    absent = hier.coeff(4, 4)
    assert not absent.a.any() and not absent.u_phi.any()


def test_hierarchy_equation_holds(hier, full_hier, seeds):
    # Every coefficient of degree >= 2 must solve the linearized equation
    # against minus its source, with the sources spelled out by hand rather
    # than recycled from the builder. The build stores the keys linear in
    # s; the others come from the full two-parameter hierarchy.
    u, v = seeds

    def d(*jets):
        # the variation's components (b, w_phi) as one array, so that the
        # sources are sums of fields
        out = delta_ell_field(len(jets), list(jets), PARAMS)
        return np.stack([out.b, out.w_phi])

    def w(i, j):
        return hier.coeffs.get((i, j), full_hier.coeff(i, j))

    sources = {
        (2, 0): d(u, u),
        (1, 1): 2.0 * d(u, v),
        (0, 2): d(v, v),
        (3, 0): 2.0 * d(u, w(2, 0)) + d(u, u, u),
        (2, 1): 2.0 * d(u, w(1, 1)) + 2.0 * d(v, w(2, 0)) + 3.0 * d(u, u, v),
        (1, 2): 2.0 * d(u, w(0, 2)) + 2.0 * d(v, w(1, 1)) + 3.0 * d(u, v, v),
        (0, 3): 2.0 * d(v, w(0, 2)) + d(v, v, v),
    }
    assert set(hier.coeffs) - {(1, 0), (0, 1)} < set(sources)
    inner = (slice(None), slice(2, -2), slice(2, -2))
    for key, src in sources.items():
        res_b, res_phi = np.abs(d(w(*key)) + src)[inner].max(axis=(1, 2))
        assert res_b <= 1e-10, key
        assert res_phi <= 1e-10, key


def test_pure_t_sector_ignores_u(seeds):
    u, v = seeds
    full = build_hierarchy(u, v, 3, CHOICE, PARAMS)
    solo = build_hierarchy(Jet.zero(WIN), v, 3, CHOICE, PARAMS)
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
    return build_hierarchy(u, v, 2, CHOICE, PARAMS)


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

    def create_short(cls, n_vars, cap, **kwargs):
        ring = create(cls, n_vars, cap, **kwargs)
        return dataclasses.replace(ring, terms=tuple(
            pairs[:-1] if len(pairs) > 1 else pairs for pairs in ring.terms))

    monkeypatch.setattr(PolyRing, "create", classmethod(create_short))
    assert routes_agree_on_mixed_box(hier_mixed) == [False, False]


# --- the two family routes on a generic hierarchy ---

GENERIC_WIN = Window(-12, 12, -12, 12)
GENERIC_REGIONS = {
    "past": lambda: past_region(GENERIC_WIN, 0),
    "box": lambda: Region.from_box(GENERIC_WIN, -4, 3, -5, 2),
    "ragged": lambda: Region(GENERIC_WIN, np.random.default_rng(5).random(
        GENERIC_WIN.shape) < 0.5),
}


def generic_routes_agree(order, region):
    """Per m = 1..order, whether the two family routes agree to 1e-13
    relative on random coefficient fields of scale 0.3 on the keys an
    order-n build stores. The fields solve nothing, so only the
    combinatorics the two routes share in meaning, not in code, can make
    them agree."""
    rng = np.random.default_rng(order)
    hier = Hierarchy(PARAMS, {
        key: Jet(GENERIC_WIN,
                 *0.3 * rng.standard_normal((2, *GENERIC_WIN.shape)))
        for key in sorted(read_keys(order))})
    omega = GENERIC_REGIONS[region]()
    oracle = taylor_oracle_I(hier, omega)
    agree = []
    for m in range(1, order + 1):
        value = family_taylor_I(hier, omega, m, m)
        assert oracle[m - 1] != 0.0
        agree.append(abs(value - oracle[m - 1]) <= 1e-13 * abs(oracle[m - 1]))
    return agree


def test_generic_regions_cover_every_offset():
    # the past region's interface is one offset; the box and the ragged
    # region pair across all four
    offsets = {name: sum(mask.any() for mask in pair_masks(build()).values())
               for name, build in GENERIC_REGIONS.items()}
    assert offsets == {"past": 1, "box": 4, "ragged": 4}


@pytest.mark.parametrize("region", GENERIC_REGIONS)
@pytest.mark.parametrize("order", [2, 3, 4])
def test_routes_agree_on_a_generic_hierarchy(order, region):
    assert generic_routes_agree(order, region) == [True] * order


@pytest.mark.parametrize("region", GENERIC_REGIONS)
def test_a_dropped_composition_breaks_generic_route_agreement(monkeypatch,
                                                              region):
    # a planted defect: the family route loses the first composition,
    # (0, ..., 0, total), of every slot count
    def all_but_the_first(total, parts):
        return lexicographic_compositions(total, parts)[1:]

    monkeypatch.setattr(perturb, "compositions", all_but_the_first)
    assert generic_routes_agree(4, region) == [False] * 4


def test_second_coefficient_is_greens_image(hier, seeds):
    u, v = seeds
    src = delta_ell_field(2, [u, v], PARAMS)
    twice = DualJet(src.window, 2.0 * src.b, 2.0 * src.w_phi)
    direct = greens_apply(CHOICE, twice, PARAMS, edge_check=False)
    got = hier.coeff(1, 1)
    assert np.allclose(got.a, direct.a, atol=1e-13)
    assert np.allclose(got.u_phi, direct.u_phi, atol=1e-13)


def test_build_rejects_bad_inputs(seeds):
    u, v = seeds
    with pytest.raises(UnsupportedOrderError):
        build_hierarchy(u, v, MAX_ORDER + 1, CHOICE, PARAMS)
    with pytest.raises(UnsupportedOrderError):
        build_hierarchy(u, v, 0, CHOICE, PARAMS)
    u_phi = np.zeros(WIN.shape)
    u_phi[10, 10] = 1.0
    bump = Jet(WIN, np.zeros(WIN.shape), u_phi)
    with pytest.raises(InvalidJetError):
        build_hierarchy(bump, v, 2, CHOICE, PARAMS)
    other = Window(-9, 9, -9, 9)
    with pytest.raises(RangeError):
        build_hierarchy(Jet.zero(other), v, 2, CHOICE, PARAMS)


def test_hierarchy_window_is_its_seeds(hier, seeds):
    # the window is read from the coefficients, which must share it
    assert hier.window is seeds[0].window
    shifted = Window(-5, 15, -10, 10)  # same shape, five rows later
    with pytest.raises(RangeError, match="different windows"):
        Hierarchy(PARAMS, hier.coeffs | {(2, 0): Jet.zero(shifted)})


def test_hierarchy_coefficients_are_read_only(hier):
    # a stored coefficient added would raise the order past the build, and
    # one removed would leave no window; the hierarchy keeps its own copy.
    # A read-only mapping has no pop at all
    with pytest.raises(TypeError):
        hier.coeffs[(0, 5)] = hier.coeffs[(0, 2)]
    with pytest.raises(TypeError):
        del hier.coeffs[(1, 0)]
    with pytest.raises(AttributeError):
        hier.coeffs.pop((1, 0))
    assert hier.order == 3 and hier.window == WIN
    coeffs = dict(hier.coeffs)
    copy = Hierarchy(PARAMS, coeffs)
    coeffs[(0, 4)] = coeffs[(1, 2)]
    assert copy.order == 3
    merged = Hierarchy(PARAMS, copy.coeffs | {(0, 4): coeffs[(1, 2)]})
    assert merged.order == 4


def test_hierarchy_order_is_its_top_degree(seeds):
    # the order is read from the coefficients: those of an order-2 build
    # make an order-2 hierarchy, which has no fourth-order integral
    u, v = seeds
    hier = Hierarchy(PARAMS, build_hierarchy(u, v, 2, CHOICE, PARAMS).coeffs)
    assert hier.order == 2
    omega = past_region(WIN, 0)
    with pytest.raises(UnsupportedOrderError):
        family_taylor_I(hier, omega, 4, 4)
    assert len(taylor_oracle_I(hier, omega)) == 2


def test_hierarchy_rejects_malformed_coefficients(hier):
    # a package error, not a KeyError in the routes that read the hierarchy
    top = (0, MAX_ORDER + 1)
    with pytest.raises(UnsupportedOrderError, match="hierarchy order"):
        Hierarchy(PARAMS, hier.coeffs | {top: Jet.zero(WIN)})
    unseeded = {key: jet for key, jet in hier.coeffs.items() if key != (1, 0)}
    with pytest.raises(InvalidJetError, match="seed"):
        Hierarchy(PARAMS, unseeded)


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
    built = build_hierarchy(*seeds, 3, CHOICE, PARAMS)
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
    return build_hierarchy(u, v, order, CHOICE, PARAMS)


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


@pytest.mark.parametrize("order,per_ell", [(2, {2: 1}), (3, {2: 4, 3: 1}),
                                          (4, {2: 8, 3: 4, 4: 1}), (1, {})])
def test_hierarchy_varies_once_per_multiset(seeds, monkeypatch, order,
                                            per_ell):
    # 0, 1, 5 and 13 variations against 0, 2, 10 and 32 ordered tuples for
    # the keys linear in s; all keys would take 3, 13 and 41 at orders 2-4
    orders = []

    def counting(ell, *args, **kwargs):
        orders.append(ell)
        return delta_ell_field(ell, *args, **kwargs)

    monkeypatch.setattr(perturb, "delta_ell_field", counting)
    build_hierarchy(*seeds, order, CHOICE, PARAMS)
    assert collections.Counter(orders) == per_ell


def ordered_hierarchy(u, v, order, choice, window):
    """Hierarchy coefficients with each source summed over ordered tuples.

    It builds the keys an order-n build stores; an ordered tuple summing to
    (i, j) has parts of first degree <= i, so those sources need no other.
    """
    coeffs = {(1, 0): u, (0, 1): v}
    for i, j in sorted(read_keys(order) - set(coeffs), key=sum):
        b, w_phi = window.zeros(), window.zeros()
        for ell in range(2, i + j + 1):
            for parts in ordered_tuples(i, j, ell):
                term = delta_ell_field(
                    ell, [coeffs[key] for key in parts], PARAMS)
                b, w_phi = b + term.b, w_phi + term.w_phi
        coeffs[(i, j)] = greens_apply(choice, DualJet(window, b, w_phi),
                                      PARAMS, edge_check=False)
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
        got = build_hierarchy(u, v, order, choice, PARAMS).coeffs
        assert set(got) == read_keys(order) <= set(want)
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


def full_width_volume(hier, omega, ring2=None):
    """The oracle's volumes from one exponential over all region sites.

    taylor_oracle_I evaluated its counterterm volumes this way before it
    worked in site blocks and in a ring linear in s; kept here as their
    bitwise reference. It builds its own full ring and ignores the one the
    oracle passes.
    """
    ring2 = PolyRing.create(2, hier.order)
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
    full = build_hierarchy(u, v, MAX_ORDER, choice, PARAMS)
    for order in range(1, MAX_ORDER + 1):
        # a build stops at its order, so lower orders are truncations
        hier = Hierarchy(PARAMS, {key: jet for key, jet in full.coeffs.items()
                                  if sum(key) <= order})
        assert hier.order == order
        for block, region in BLOCK_REGIONS.items():
            omega = region(window)
            with monkeypatch.context() as patch:
                patch.setattr(perturb, "_oracle_volume", full_width_volume)
                expect = taylor_oracle_I(hier, omega)
            with monkeypatch.context() as patch:
                patch.setattr(perturb, "VOLUME_BLOCK_SITES", block)
                assert taylor_oracle_I(hier, omega) == expect, (order, block)
    # the blocks carry weight: the volumes themselves are not all zero
    for region in BLOCK_REGIONS.values():
        assert any(full_width_volume(full, region(window)))


def full_ring_gather(hier, ring2, name, cols):
    """_gather before the rings were cut: every stored coefficient."""
    out = ring2.zeros(cols.size)
    for (i, j), jet in hier.coeffs.items():
        out[ring2.index[(i, j)]] = getattr(jet, name).ravel()[cols]
    return out


@pytest.mark.parametrize("choice", SUM_CHOICES.values(), ids=SUM_CHOICES)
@pytest.mark.parametrize("kind", ["waves", "scalar"])
def test_oracle_on_cut_rings_is_the_full_ring_oracle_bitwise(monkeypatch,
                                                             choice, kind):
    # the rings linear in s drop the s^2-and-up ideal; the full rings,
    # filled with every coefficient, give the same values bit for bit
    window, u, v = block_seeds(40, kind)
    full = full_hierarchy(u, v, MAX_ORDER, choice)
    # the dropped coefficients are live, so dropping them is tested
    assert full.coeff(2, 0).a.any() or full.coeff(2, 0).u_phi.any()
    create = PolyRing.create.__func__

    def create_full(cls, n_vars, cap, linear=()):
        return create(cls, n_vars, cap)

    nonzero = False
    for order in range(1, MAX_ORDER + 1):
        hier = Hierarchy(PARAMS, {key: jet for key, jet in full.coeffs.items()
                                  if sum(key) <= order})
        for omega in (past_region(window, 0), BLOCK_REGIONS[7](window)):
            got = taylor_oracle_I(hier, omega)
            with monkeypatch.context() as patch:
                patch.setattr(PolyRing, "create", classmethod(create_full))
                patch.setattr(perturb, "_gather", full_ring_gather)
                want = taylor_oracle_I(hier, omega)
            assert np.array(got).tobytes() == np.array(want).tobytes(), (
                order, omega.site_count())
            nonzero |= any(want)
    assert nonzero


# --- the build keeps the keys linear in s ---

@functools.cache
def coupled_full_hierarchy(half, choice):
    _, u, v = coupled_seeds(half)
    return full_hierarchy(u, v, MAX_ORDER, choice)


@pytest.mark.parametrize("half", [40, 80])
@pytest.mark.parametrize("choice", SUM_CHOICES.values(), ids=SUM_CHOICES)
@pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
def test_linear_build_is_the_full_hierarchy_bitwise(half, choice, order):
    # an order-n build stores the 2n - 1 keys (1, j) and (0, j), j < n; each
    # is the full hierarchy's coefficient bit for bit, and both family
    # routes read the same bytes off either hierarchy
    window, u, v = coupled_seeds(half)
    full = coupled_full_hierarchy(half, choice)
    full = Hierarchy(PARAMS, {key: jet for key, jet in full.coeffs.items()
                              if sum(key) <= order})
    built = build_hierarchy(u, v, order, choice, PARAMS)
    assert set(built.coeffs) == read_keys(order)
    assert len(built.coeffs) == 2 * order - 1
    for key, jet in built.coeffs.items():
        for name in ("a", "u_phi"):
            assert (getattr(jet, name).tobytes()
                    == getattr(full.coeffs[key], name).tobytes()), (key, name)
    values = []
    for omega in (past_region(window, 0), BLOCK_REGIONS[7](window)):
        for hier in (built, full):
            values.append(np.array(
                [family_taylor_I(hier, omega, m, q)
                 for m in range(1, order + 1) for q in range(1, order + 1)]
                + list(taylor_oracle_I(hier, omega))))
        assert values[-2].tobytes() == values[-1].tobytes(), omega
    # the first-order balance of the wave seed u is zero; from order 2 on
    # the compared values are not all zero
    assert any(value.any() for value in values) == (order > 1)


def test_seed_check_is_relative_to_the_seed_size():
    # an exact scalar mode growing to 2.2e11 on the default W=40 window
    # rounds to an interior residual of 1.2e-4, 5e-16 of its size; a
    # non-solution is still refused at any size, and so is a defect above
    # the relative tolerance in such a mode
    window = Window(-40, 40, -40, 40)
    wave = right_mover(window, 3, 0.2)
    mode = scalar_solution(0.2, PARAMS, window, decay="past")
    assert linear_residual(mode, PARAMS) > 1e-4
    built = build_hierarchy(mode, wave, 2, CHOICE, PARAMS)
    assert built.coeffs[(1, 0)] is mode

    def spike(value):
        u_phi = window.zeros()
        u_phi[window.index(0, 0)] = value
        return Jet(window, window.zeros(), u_phi)

    for seed in (spike(1e6), mode + spike(1e-9 * mode.facts.size)):
        with pytest.raises(InvalidJetError, match="not a solution"):
            build_hierarchy(seed, wave, 2, CHOICE, PARAMS)
    # a seed that is not finite has no size to scale by
    with np.errstate(invalid="ignore"), pytest.raises(
            InvalidJetError, match="not a solution"):
        build_hierarchy(wave, spike(math.inf), 2, CHOICE, PARAMS)
