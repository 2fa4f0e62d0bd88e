import numpy as np
import pytest

from surflat import (InvalidJetError, LatticePoint, ModelParams, RangeError,
                     Region, TruncationError, Window)
from surflat.jets import DualJet, Jet, delta_op, delta_op_field
from surflat.linear import (GreensChoice, RankOneModifier, greens_apply,
                            greens_residual, linear_residual, scalar_roots,
                            scalar_solution, wave_solution)

P = ModelParams()


def central_region(window, margin=2):
    return Region.from_box(window, window.t_min + margin,
                           window.t_max - margin,
                           window.x_min + margin, window.x_max - margin)


def random_dual(window, seed, half_width=2, amplitude=1.0):
    """Dual jet supported on a centered box of the given half width."""
    rng = np.random.default_rng(seed)
    b = window.zeros()
    w_phi = window.zeros()
    tc = (window.t_min + window.t_max) // 2
    xc = (window.x_min + window.x_max) // 2
    for t in range(tc - half_width, tc + half_width + 1):
        for x in range(xc - half_width, xc + half_width + 1):
            b[window.index(t, x)] = amplitude * rng.normal()
            w_phi[window.index(t, x)] = amplitude * rng.normal()
    return DualJet(window, b, w_phi)


# --- exact solutions ---

def test_scalar_roots_frozen():
    future, past = scalar_roots(P)
    assert future == -0.5
    assert past == -2.0
    assert future * past == 1.0


def test_scalar_solution_values_and_residual():
    w = Window(-8, 8, -4, 4)
    jet = scalar_solution(1.0, P, w)
    assert jet.a[w.index(0, 0)] == 1.0
    assert jet.a[w.index(1, 0)] == -0.5
    assert jet.a[w.index(2, 3)] == 0.25
    assert jet.a[w.index(-1, 0)] == -2.0
    assert linear_residual(jet, central_region(w, 1), P, w) == 0.0


def test_scalar_solution_pointwise_operator_zero():
    w = Window(-6, 6, -3, 3)
    jet = scalar_solution(0.7, P, w)
    for (t, x) in [(0, 0), (3, -2), (-4, 1)]:
        val = delta_op(jet, LatticePoint(t, x), P, w)
        assert val.scalar == 0.0
        assert val.phi == 0.0


def test_scalar_solution_past_decay():
    w = Window(-8, 8, -2, 2)
    jet = scalar_solution(1.0, P, w, decay="past")
    assert jet.a[w.index(-1, 0)] == -0.5
    assert jet.a[w.index(1, 0)] == -2.0
    assert linear_residual(jet, central_region(w, 1), P, w) == 0.0


def test_scalar_solution_with_spatial_profile():
    w = Window(-6, 6, -6, 6)
    jet = scalar_solution(2.0, P, w, decay="past", profile={0: 1.0, 1: 0.5})
    assert jet.a[w.index(0, 0)] == 2.0
    assert jet.a[w.index(0, 1)] == 1.0
    assert jet.a[w.index(0, 2)] == 0.0
    # columnwise equation: any profile still solves it
    assert linear_residual(jet, central_region(w, 1), P, w) == 0.0
    with pytest.raises(RangeError):
        scalar_solution(1.0, P, w, profile={99: 1.0})


def test_scalar_solution_rejects_bad_decay():
    with pytest.raises(InvalidJetError):
        scalar_solution(1.0, P, Window(-2, 2, -2, 2), decay="sideways")


def test_wave_solution_dalembert_form():
    w = Window(-6, 6, -6, 6)
    jet = wave_solution({0: 1.0}, {2: -0.5}, w)
    # g(t + x) puts the left mover on the antidiagonal t + x = 0
    assert jet.u_phi[w.index(0, 0)] == 1.0
    assert jet.u_phi[w.index(3, -3)] == 1.0
    assert jet.u_phi[w.index(3, 1)] == -0.5
    assert jet.u_phi[w.index(1, -1)] == 0.5  # both movers overlap here
    assert jet.u_phi[w.index(-1, 3)] == 0.0
    assert linear_residual(jet, central_region(w, 1), P, w) <= 1e-14
    assert jet.has_zero_scalar()


def test_wave_solution_random_profiles_solve():
    w = Window(-10, 10, -10, 10)
    rng = np.random.default_rng(5)
    g = {int(k): float(rng.normal()) for k in range(-4, 5)}
    h = {int(k): float(rng.normal()) for k in range(-4, 5)}
    jet = wave_solution(g, h, w)
    assert linear_residual(jet, central_region(w, 1), P, w) <= 1e-13


def test_wave_solution_range_errors():
    w = Window(-4, 4, -4, 4)
    with pytest.raises(RangeError):
        wave_solution({k: 1.0 for k in range(-5, 6)}, {}, w)  # too wide
    with pytest.raises(RangeError):
        wave_solution({50: 1.0}, {}, w)  # misses the window


def test_linear_residual_flags_non_solutions():
    w = Window(-5, 5, -5, 5)
    bump = w.zeros()
    bump[w.index(0, 0)] = 1.0
    jet = Jet(w, w.zeros(), bump)
    assert linear_residual(jet, central_region(w, 1), P, w) >= 1.0


def test_linear_residual_region_margin():
    w = Window(-5, 5, -5, 5)
    jet = Jet.zero(w)
    full = Region.from_box(w, -5, 5, -5, 5)
    with pytest.raises(RangeError):
        linear_residual(jet, full, P, w)


# --- Green's operators ---

def test_vector_green_afterglow_pattern():
    w = Window(0, 6, -6, 6)
    src = w.zeros()
    src[w.index(1, 0)] = 1.0
    jet = greens_apply(GreensChoice(), DualJet(w, w.zeros(), src), P, w,
                       edge_check=False)
    sv = jet.u_phi
    # unit source at t=1: response is -1 inside the cone on alternating sites
    for t in range(2, 7):
        for x in range(-6, 7):
            inside = abs(x) <= t - 2 and (x - (t - 2)) % 2 == 0
            assert sv[w.index(t, x)] == (-1.0 if inside else 0.0)
    assert np.all(sv[:2] == 0.0)


def test_advanced_green_mirrors_retarded():
    w = Window(-6, 6, -6, 6)
    src = w.zeros()
    src[w.index(0, 1)] = -2.0
    dual = DualJet(w, w.zeros(), src)
    ret = greens_apply(GreensChoice("retarded"), dual, P, w, edge_check=False)
    adv = greens_apply(GreensChoice("advanced"), dual, P, w, edge_check=False)
    np.testing.assert_array_equal(adv.u_phi, ret.u_phi[::-1])


def test_frequency_green_constant_source():
    w = Window(-10, 10, -5, 5)
    dual = DualJet(w, np.ones(w.shape), w.zeros())
    jet = greens_apply(GreensChoice(scalar_kind="frequency"), dual, P, w,
                       edge_check=False)
    np.testing.assert_allclose(jet.a, -1.0 / 9.0, atol=1e-14)


def test_banded_green_constant_source_center():
    # the windowed inverse differs from -1/9 only by a boundary correction
    # decaying like 2^-distance
    w = Window(-30, 30, -2, 2)
    dual = DualJet(w, np.ones(w.shape), w.zeros())
    jet = greens_apply(GreensChoice(), dual, P, w, edge_check=False)
    assert jet.a[w.index(0, 0)] == pytest.approx(-1.0 / 9.0, abs=1e-8)


@pytest.mark.parametrize("vector_kind", ["retarded", "advanced"])
@pytest.mark.parametrize("scalar_kind", ["banded_solve", "frequency"])
def test_green_defining_residual(vector_kind, scalar_kind):
    w = Window(-12, 12, -12, 12)
    choice = GreensChoice(vector_kind, scalar_kind)
    for seed in range(3):
        dual = random_dual(w, seed)
        out = greens_apply(choice, dual, P, w, edge_check=False)
        res = greens_residual(out, dual, P, w)
        assert res <= 1e-10


def test_green_residual_reads_inputs_only():
    # the residual is formed in place in the operator's fresh output: both
    # inputs keep their bytes, and the value is the masked maximum
    w = Window(-10, 10, -10, 10)
    dual = random_dual(w, 6)
    out = greens_apply(GreensChoice(), dual, P, w, edge_check=False)
    arrays = (out.a, out.u_phi, dual.b, dual.w_phi)
    before = [arr.tobytes() for arr in arrays]
    res = greens_residual(out, dual, P, w)
    assert [arr.tobytes() for arr in arrays] == before
    op = delta_op_field(out, P, w)
    inner = w.interior_mask()
    assert res == max(float(np.abs(op.b + dual.b)[inner].max()),
                      float(np.abs(op.w_phi + dual.w_phi)[inner].max()))


def test_green_residual_with_unbalanced_nu():
    p = ModelParams(nu=10.0)
    w = Window(-10, 10, -10, 10)
    dual = random_dual(w, 9)
    out = greens_apply(GreensChoice(), dual, p, w, edge_check=False)
    assert greens_residual(out, dual, p, w) <= 1e-10


def test_scalar_backends_agree_given_clearance():
    w = Window(-20, 20, -4, 4)
    dual = random_dual(w, 3, half_width=1)
    a = greens_apply(GreensChoice(), dual, P, w, edge_check=False)
    b = greens_apply(GreensChoice(scalar_kind="frequency"), dual, P, w,
                     edge_check=False)
    # clearance 19 sites: homogeneous correction of order 2^-19
    assert np.abs(a.a - b.a).max() <= 2.0 ** -19 * 50
    assert np.abs(a.a - b.a).max() > 0.0


def test_edge_check_flags_hot_scalar_frame():
    w = Window(-4, 4, -4, 4)
    b = w.zeros()
    b[w.index(-4, 0)] = 1.0  # source on the time edge
    with pytest.raises(TruncationError):
        greens_apply(GreensChoice(), DualJet(w, b, w.zeros()), P, w)


def test_edge_check_flags_inflow_wave_source():
    w = Window(-4, 4, -4, 4)
    src = w.zeros()
    src[w.index(-4, 0)] = 1.0
    with pytest.raises(TruncationError):
        greens_apply(GreensChoice(), DualJet(w, w.zeros(), src), P, w)
    # the same source is fine for the advanced kind
    greens_apply(GreensChoice("advanced"), DualJet(w, w.zeros(), src), P, w)


def test_edge_check_passes_for_clear_sources():
    # the scalar kernel decays like 2^-distance, so ~45 sites of clearance
    # push the frame values below the check tolerance
    w = Window(-46, 46, -4, 4)
    dual = random_dual(w, 11, half_width=1, amplitude=0.1)
    greens_apply(GreensChoice(), dual, P, w)  # should not raise


def test_greens_choice_validation():
    with pytest.raises(InvalidJetError):
        GreensChoice(vector_kind="sideways")
    with pytest.raises(InvalidJetError):
        GreensChoice(scalar_kind="dense")


def test_rank_one_modifier():
    w = Window(-8, 8, -8, 8)
    probe = random_dual(w, 21)
    direction = wave_solution({0: 1.0, 1: 0.5}, {}, w)
    mod = RankOneModifier(probe, direction)
    dual = random_dual(w, 22)
    weight = mod.pairing(dual)
    assert weight == pytest.approx(
        float(np.sum(probe.b * dual.b) + np.sum(probe.w_phi * dual.w_phi)))
    jet = mod.apply(dual)
    np.testing.assert_allclose(jet.u_phi, weight * direction.u_phi)
    # a modified Green's operator still inverts the linearized equation,
    # because the direction is a solution
    choice = GreensChoice(kernel_modifier=mod)
    out = greens_apply(choice, dual, P, w, edge_check=False)
    assert greens_residual(out, dual, P, w) <= 1e-10


def test_greens_window_mismatch():
    w = Window(-4, 4, -4, 4)
    other = Window(-5, 5, -4, 4)
    dual = DualJet(other, other.zeros(), other.zeros())
    with pytest.raises(RangeError):
        greens_apply(GreensChoice(), dual, P, w)
