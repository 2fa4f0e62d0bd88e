import math

import numpy as np
import pytest

from surflat import perturb, slayer
from surflat.errors import InvalidJetError, RangeError, UnsupportedOrderError
from surflat.jets import DualJet, Jet, delta_ell_field
from surflat.lagrangian import MAX_ORDER, ModelParams
from surflat.linear import (GreensChoice, RankOneModifier, scalar_solution,
                            wave_solution)
from surflat.slayer import (SlayerReport, SliceValues, greens_dependence_check,
                            i1, i_m, sigma, slayer_sweep, symm_bilinear,
                            symm_closed_form, sympl_closed_form)
from surflat.space import Region, Window, past_region

PARAMS = ModelParams()
CHOICE = GreensChoice()
# tall in time so the Green field decays below the checking thresholds
# before it reaches the top and bottom frames
TALL = Window(-45, 45, -12, 12)
SQUARE = Window(-20, 20, -20, 20)


def bump_profile(center, width, amp):
    half = (width + 1) / 2.0
    reach = (width - 1) // 2
    return {center + k: amp * (1.0 - (k / half) ** 2) ** 2
            for k in range(-reach, reach + 1)}


def right_mover(window, center, width, amp):
    return wave_solution({}, bump_profile(center, width, amp), window)


def left_mover(window, center, width, amp):
    return wave_solution(bump_profile(center, width, amp), {}, window)


def random_phi_jet(window, rng, scale=0.3):
    return Jet(window, np.zeros(window.shape),
               scale * rng.standard_normal(window.shape))


@pytest.fixture(scope="module")
def movers():
    u = right_mover(TALL, 3, 7, 0.15)
    v = left_mover(TALL, -3, 7, 0.2)
    return u, v


# --- first-order balance ---

def test_i1_zero_jet():
    omega = past_region(TALL, 0)
    assert i1(Jet.zero(TALL), omega, PARAMS) == (0.0, 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_i1_surface_exactly_zero_without_scalar(seed):
    # the first angular derivative of the interaction vanishes on the base
    # configuration, so every pair term is zero, not merely their sum
    rng = np.random.default_rng(seed)
    u = random_phi_jet(SQUARE, rng)
    for omega in (past_region(SQUARE, 0),
                  Region.from_box(SQUARE, -3, 2, -4, 5),
                  Region.from_box(SQUARE, 0, 0, 0, 0)):
        surface, volume = i1(u, omega, PARAMS)
        assert surface == 0.0
        assert volume == 0.0


def test_i1_scalar_solution_balance():
    # past-decaying mode: the volume sum converges toward the lower frame,
    # so the window truncation sits far below the tolerance
    window = Window(-40, 8, -8, 8)
    profile = {x: 0.5 * (1.0 - (x / 4.0) ** 2) ** 2 for x in range(-3, 4)}
    u = scalar_solution(0.01, PARAMS, window, decay="past", profile=profile)
    for t in range(-5, 6):
        surface, volume = i1(u, past_region(window, t), PARAMS)
        assert abs(surface - volume) <= 1e-10
    assert abs(i1(u, past_region(window, 0), PARAMS)[0]) > 1e-6


def test_i1_window_mismatch():
    with pytest.raises(RangeError):
        i1(Jet.zero(TALL), past_region(SQUARE, 0), PARAMS)


# --- symplectic form ---

def test_sigma_self_is_exactly_zero(movers):
    u, _ = movers
    assert sigma(u, u, past_region(TALL, 0), PARAMS) == 0.0


def test_sigma_antisymmetric(movers):
    u, v = movers
    omega = past_region(TALL, 2)
    assert sigma(u, v, omega, PARAMS) == -sigma(v, u, omega, PARAMS)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_sigma_matches_closed_form_for_arbitrary_jets(seed):
    # the cut only sees two rows, so the closed form is an algebraic identity
    # for any fields, scalar parts included
    rng = np.random.default_rng(seed)
    u = Jet(SQUARE, rng.standard_normal(SQUARE.shape),
            rng.standard_normal(SQUARE.shape))
    v = Jet(SQUARE, rng.standard_normal(SQUARE.shape),
            rng.standard_normal(SQUARE.shape))
    for t in (-5, 0, 4):
        full = sigma(u, v, past_region(SQUARE, t), PARAMS)
        closed = sympl_closed_form(u, v, t, PARAMS)
        assert abs(full - closed) <= 1e-12 * max(1.0, abs(full))


def test_sigma_bilinear(movers):
    u, v = movers
    w = right_mover(TALL, 1, 5, 0.1)
    omega = past_region(TALL, 1)
    lhs = sigma(u + 2.0 * w, v, omega, PARAMS)
    rhs = sigma(u, v, omega, PARAMS) + 2.0 * sigma(w, v, omega, PARAMS)
    assert math.isclose(lhs, rhs, rel_tol=0.0, abs_tol=1e-12)


def test_sigma_conserved_with_nonzero_flux():
    # co-moving overlap gives a nonzero conserved value; the sweep must
    # reproduce it on every slice
    g1 = bump_profile(0, 7, 0.2)
    h1 = bump_profile(1, 5, 0.15)
    g2 = bump_profile(-1, 7, 0.25)
    h2 = bump_profile(2, 5, 0.1)
    u = wave_solution(g1, h1, SQUARE)
    v = wave_solution(g2, h2, SQUARE)
    vals = [sigma(u, v, past_region(SQUARE, t), PARAMS)
            for t in range(-5, 6)]
    scale = max(abs(x) for x in vals)
    assert scale > 1e-3
    assert (max(vals) - min(vals)) / scale <= 1e-10


def test_sigma_zero_flux_for_separating_movers(movers):
    u, v = movers
    vals = [sigma(u, v, past_region(TALL, t), PARAMS)
            for t in range(-5, 6)]
    assert max(abs(x) for x in vals) <= 1e-12


def test_sympl_closed_form_range():
    u = Jet.zero(SQUARE)
    with pytest.raises(RangeError):
        sympl_closed_form(u, u, SQUARE.t_max, PARAMS)


# the closed forms read rows by index, so inputs of one shape on different
# windows would pair rows of different times
CUT = Window(-10, 10, -10, 10)
SHIFTED = Window(-5, 15, -10, 10)


def test_closed_forms_reject_jets_on_different_windows():
    rng = np.random.default_rng(21)
    u = random_phi_jet(CUT, rng)
    v = random_phi_jet(SHIFTED, rng)
    s = rng.standard_normal(CUT.shape)
    with pytest.raises(RangeError, match="different windows"):
        sympl_closed_form(u, v, 0, PARAMS)
    with pytest.raises(RangeError, match="different windows"):
        symm_closed_form(u, v, s, 0, PARAMS)


def test_symm_closed_form_rejects_a_green_field_of_another_shape():
    rng = np.random.default_rng(22)
    u = random_phi_jet(CUT, rng)
    v = random_phi_jet(CUT, rng)
    s = rng.standard_normal((25, 21))
    assert symm_closed_form(u, v, s[2:23], 0, PARAMS) != 0.0
    with pytest.raises(RangeError, match="Green field shape"):
        symm_closed_form(u, v, s, 0, PARAMS)


# --- symmetric bilinear form ---

def test_symm_zero_second_argument(movers):
    u, _ = movers
    surface, volume, s = symm_bilinear(u, Jet.zero(TALL), past_region(TALL, 0),
                                       CHOICE, PARAMS)
    assert surface == 0.0
    assert volume == 0.0
    assert not s.any()


def test_symm_rejects_scalar_components(movers):
    u, v = movers
    tainted = u + scalar_solution(1e-3, PARAMS, TALL)
    with pytest.raises(InvalidJetError):
        symm_bilinear(tainted, v, past_region(TALL, 0), CHOICE, PARAMS)


def test_symm_symmetric(movers):
    u, v = movers
    omega = past_region(TALL, 1)
    s_uv = symm_bilinear(u, v, omega, CHOICE, PARAMS)
    s_vu = symm_bilinear(v, u, omega, CHOICE, PARAMS)
    assert math.isclose(s_uv[0], s_vu[0], rel_tol=0.0, abs_tol=1e-13)
    assert math.isclose(s_uv[1], s_vu[1], rel_tol=0.0, abs_tol=1e-13)
    np.testing.assert_allclose(s_uv[2], s_vu[2], atol=1e-15)


@pytest.mark.parametrize("seed", [6, 7])
def test_symm_surface_matches_closed_form_for_arbitrary_phi_jets(seed):
    # again algebraic at the cut; random fields do not decay, so the
    # boundary check on the Green field is switched off
    rng = np.random.default_rng(seed)
    u = random_phi_jet(SQUARE, rng)
    v = random_phi_jet(SQUARE, rng)
    for t in (-4, 0, 3):
        surface, _, s = symm_bilinear(u, v, past_region(SQUARE, t), CHOICE,
                                      PARAMS, edge_check=False)
        closed = symm_closed_form(u, v, s, t, PARAMS)
        assert abs(surface - closed) <= 1e-12 * max(1.0, abs(surface))


@pytest.mark.parametrize("scalar_kind", ["banded_solve", "frequency"])
def test_symm_volume_identity_on_slices(movers, scalar_kind):
    u, v = movers
    greens = GreensChoice(scalar_kind=scalar_kind)
    for t in range(-5, 6):
        surface, volume, _ = symm_bilinear(u, v, past_region(TALL, t), greens,
                                           PARAMS)
        assert abs(surface - volume) <= 1e-10
    surface, volume, s = symm_bilinear(u, v, past_region(TALL, 0), greens,
                                       PARAMS)
    assert abs(surface) > 1e-6  # the identity is not vacuous


# --- full family orders ---

def test_i_m_order_bounds(movers):
    u, v = movers
    omega = past_region(TALL, 0)
    with pytest.raises(UnsupportedOrderError):
        i_m(u, v, omega, 0, CHOICE, PARAMS)
    with pytest.raises(UnsupportedOrderError):
        i_m(u, v, omega, MAX_ORDER + 1, CHOICE, PARAMS)


def test_i_m_first_order_reduces_to_i1(movers):
    u, v = movers
    omega = past_region(TALL, 0)
    surface, volume = i1(u, omega, PARAMS)
    assert i_m(u, v, omega, 1, CHOICE, PARAMS) == surface - volume


def test_i2_antisymmetric_part_is_sigma():
    u = right_mover(SQUARE, 2, 5, 0.2)
    v = left_mover(SQUARE, -2, 5, 0.25)
    omega = past_region(SQUARE, 0)
    i2_uv = i_m(u, v, omega, 2, CHOICE, PARAMS)
    i2_vu = i_m(v, u, omega, 2, CHOICE, PARAMS)
    anti = 0.5 * (i2_uv - i2_vu)
    assert math.isclose(anti, sigma(u, v, omega, PARAMS),
                        rel_tol=0.0, abs_tol=1e-12)


def test_i2_symmetric_part_is_symm_bilinear():
    u = right_mover(SQUARE, 2, 5, 0.2)
    v = left_mover(SQUARE, -2, 5, 0.25)
    omega = past_region(SQUARE, 0)
    i2_uv = i_m(u, v, omega, 2, CHOICE, PARAMS)
    i2_vu = i_m(v, u, omega, 2, CHOICE, PARAMS)
    sym = 0.5 * (i2_uv + i2_vu)
    surface, volume, _ = symm_bilinear(u, v, omega, CHOICE, PARAMS,
                                       edge_check=False)
    assert math.isclose(sym, surface - volume, rel_tol=0.0, abs_tol=1e-12)


def test_i_m_small_for_solution_pairs(movers):
    # the theorem says exact zero on the infinite lattice; the window
    # truncation leaves the Green-kernel tails, far below the amplitudes
    u, v = movers
    for m in (1, 2, 3):
        val = i_m(u, v, past_region(TALL, 0), m, CHOICE, PARAMS)
        assert abs(val) <= 1e-9, m


# --- Green's-kernel dependence ---

def test_greens_dependence_zero_kernel(movers):
    u, v = movers
    kernel = RankOneModifier(DualJet.zero(TALL), right_mover(TALL, 0, 5, 0.1))
    [(lhs, rhs)] = greens_dependence_check(u, v, past_region(TALL, 0),
                                           [kernel], PARAMS)
    assert lhs == 0.0
    assert rhs == 0.0


def test_greens_dependence_wave_direction_drops_out(movers):
    # a zero-scalar direction shifts only angular components, which the
    # first-order balance cannot see; both sides are exact zeros
    u, v = movers
    rng = np.random.default_rng(12)
    probe = DualJet(TALL, rng.standard_normal(TALL.shape),
                    rng.standard_normal(TALL.shape))
    kernel = RankOneModifier(probe, right_mover(TALL, 1, 5, 0.3))
    [(lhs, rhs)] = greens_dependence_check(u, v, past_region(TALL, 0),
                                           [kernel], PARAMS)
    assert lhs == 0.0
    assert rhs == 0.0


@pytest.mark.parametrize("seed", [8, 9, 10])
def test_greens_dependence_identity(movers, seed):
    # direction on the future-decay scalar root: its windowed first-order
    # balance is the conserved boundary layer at the bottom frame, so the
    # kernel genuinely moves the second-order value
    u, v = movers
    rng = np.random.default_rng(seed)
    probe = DualJet(TALL, 0.05 * rng.standard_normal(TALL.shape),
                    0.05 * rng.standard_normal(TALL.shape))
    direction = scalar_solution(2.0 ** TALL.t_min, PARAMS, TALL,
                                decay="future")
    kernel = RankOneModifier(probe, direction)
    omega = past_region(TALL, 0)
    [(lhs, rhs)] = greens_dependence_check(u, v, omega, [kernel], PARAMS)
    assert abs(lhs - rhs) <= 1e-10
    assert abs(lhs) > 1e-6  # the modifier actually moves the value


def test_greens_dependence_builds_the_plain_hierarchy_once(movers):
    # the seeds are checked once, the one degree-2 source the order-2
    # balance reads, (1, 1), is built once (one order-2 variation, whatever
    # the number of kernels; rhs reads it too), and the plain
    # Green's operator is applied once, to that source; a kernel only adds
    # its rank-one term to the image. Each kernel's pair equals what a call
    # with that kernel alone returns, and its lhs is bitwise the difference
    # of two full order-2 builds
    u, v = movers
    rng = np.random.default_rng(13)
    direction = scalar_solution(2.0 ** TALL.t_min, PARAMS, TALL,
                                decay="future")
    kernels = [RankOneModifier(
        DualJet(TALL, 0.05 * rng.standard_normal(TALL.shape),
                0.05 * rng.standard_normal(TALL.shape)), direction)
        for _ in range(3)]
    omega = past_region(TALL, 0)
    real_variation = delta_ell_field
    real_apply = perturb.greens_apply
    real_residual = perturb.linear_residual
    for some in (kernels[:1], kernels):
        variations, applications, residuals = [], [], []

        def counting_variation(order, *args, **kwargs):
            variations.append(order)
            return real_variation(order, *args, **kwargs)

        def counting_apply(choice, source, *args, **kwargs):
            applications.append(source)
            return real_apply(choice, source, *args, **kwargs)

        def counting_residual(*args, **kwargs):
            residuals.append(args[0])
            return real_residual(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            for module in (perturb, slayer):
                mp.setattr(module, "delta_ell_field", counting_variation)
            for module in (perturb, slayer):
                mp.setattr(module, "greens_apply", counting_apply)
            mp.setattr(perturb, "linear_residual", counting_residual)
            # the kernels are read once, so a one-pass iterator will do
            pairs = greens_dependence_check(u, v, omega, iter(some), PARAMS)
        assert variations == [2]
        assert residuals == [u, v]
        assert len(applications) == 1
    plain = i_m(u, v, omega, 2, CHOICE, PARAMS)
    for kernel, (lhs, _) in zip(kernels, pairs):
        # the modified operator built on its own: each Green's image of the
        # build plus the kernel's term on its source
        def modified_apply(choice, w, *args, kernel=kernel, **kwargs):
            return real_apply(choice, w, *args, **kwargs) + kernel.apply(w)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(perturb, "greens_apply", modified_apply)
            full = i_m(u, v, omega, 2, CHOICE, PARAMS)
        assert lhs == full - plain
    for kernel, pair in zip(kernels, pairs):
        assert greens_dependence_check(u, v, omega, [kernel], PARAMS) == [pair]


def test_greens_dependence_rhs_equals_the_second_variation_bitwise(movers):
    # rhs is the balance of the kernel's term on the (1, 1) source,
    # +0.0 + 2 d2: the bytes of twice its balance on d2, also for kernels
    # whose pairing is a zero of either sign
    u, v = movers
    rng = np.random.default_rng(17)
    omega = past_region(TALL, 0)
    direction = scalar_solution(2.0 ** TALL.t_min, PARAMS, TALL,
                                decay="future")
    d2 = delta_ell_field(2, [u, v], PARAMS)
    dense = rng.standard_normal(TALL.shape)
    off_source = np.where(d2.b == 0.0, dense, 0.0)
    probes = [DualJet(TALL, dense, rng.standard_normal(TALL.shape)),
              DualJet.zero(TALL),
              DualJet(TALL, np.full(TALL.shape, -0.0),
                      np.full(TALL.shape, -0.0)),
              DualJet(TALL, off_source, np.where(d2.w_phi == 0.0, -dense,
                                                 0.0))]
    kernels = [RankOneModifier(probe, mover)
               for probe in probes
               for mover in (direction, right_mover(TALL, 1, 5, 0.3))]
    pairs = greens_dependence_check(u, v, omega, kernels, PARAMS)
    for kernel, (_, rhs) in zip(kernels, pairs):
        surface, volume = i1(kernel.apply(d2), omega, PARAMS)
        want = 2.0 * (surface - volume)
        assert np.float64(rhs).tobytes() == np.float64(want).tobytes()


def test_greens_dependence_pairs_each_kernel_once(movers, monkeypatch):
    # one kernel term per kernel serves both sides: one pairing with the
    # source, in kernel order
    u, v = movers
    rng = np.random.default_rng(19)
    direction = scalar_solution(2.0 ** TALL.t_min, PARAMS, TALL,
                                decay="future")
    kernels = [RankOneModifier(
        DualJet(TALL, 0.05 * rng.standard_normal(TALL.shape),
                0.05 * rng.standard_normal(TALL.shape)), direction)
        for _ in range(3)]
    paired, real = [], RankOneModifier.pairing

    def counting_pairing(kernel, w):
        paired.append(kernel)
        return real(kernel, w)

    monkeypatch.setattr(RankOneModifier, "pairing", counting_pairing)
    greens_dependence_check(u, v, past_region(TALL, 0), kernels, PARAMS)
    assert [id(k) for k in paired] == [id(k) for k in kernels]


def test_greens_dependence_rejects_a_non_solution_seed(movers):
    # the seeds are checked once, before any source is built
    u, v = movers
    u_phi = v.u_phi.copy()
    u_phi[45, 12] += 1e-3
    bump = Jet(TALL, np.zeros(TALL.shape), u_phi)
    kernel = RankOneModifier(DualJet.zero(TALL), right_mover(TALL, 0, 5, 0.1))
    for seeds in ((u, bump), (bump, v)):
        with pytest.raises(InvalidJetError, match="not a solution"):
            greens_dependence_check(*seeds, past_region(TALL, 0), [kernel],
                                    PARAMS)


def test_greens_dependence_zero_scalar_direction_has_no_volume(movers):
    u, v = movers
    rng = np.random.default_rng(11)
    probe = DualJet(TALL, rng.standard_normal(TALL.shape),
                    rng.standard_normal(TALL.shape))
    kernel = RankOneModifier(probe, right_mover(TALL, 1, 5, 0.3))
    moved = kernel.apply(delta_ell_field(2, [u, v], PARAMS))
    _, volume = i1(moved, past_region(TALL, 0), PARAMS)
    assert volume == 0.0


# --- sweep report ---

def largest_residual(report):
    # the largest |a - b| over the cuts of the sweep's four identities
    pairs = (("i1_surface", "i1_volume"), ("sympl", "sympl_closed"),
             ("symm_surface", "symm_surface_closed"),
             ("symm_surface", "symm_volume"))
    return max(float(np.abs(report.values(a) - report.values(b)).max())
               for a, b in pairs)


def test_slayer_sweep_report(movers):
    u, v = movers
    probe_tall = scalar_solution(0.01, PARAMS, TALL, decay="past",
                                 profile={0: 1.0, 1: 0.5, -1: 0.5})
    report = slayer_sweep(u, v, range(-5, 6), CHOICE, PARAMS,
                          scalar_probe=probe_tall)
    assert [s.slice_t for s in report.slices] == list(range(-5, 6))
    assert largest_residual(report) <= 1e-10
    # separating movers carry zero symplectic flux
    assert np.abs(report.values("sympl")).max() <= 1e-12
    assert report.relative_spread("symm_volume") > 0.0


def test_slayer_sweep_default_probe(movers):
    u, v = movers
    report = slayer_sweep(u, v, [0, 1], CHOICE, PARAMS)
    assert largest_residual(report) <= 1e-10


def test_report_relative_spread_handles_zero():
    row = SliceValues(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    report = SlayerReport((row,))
    assert report.relative_spread("sympl") == 0.0
