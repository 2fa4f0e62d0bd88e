import math
import os
import pathlib
import subprocess
import sys
import weakref

import numpy as np
import pytest

from surflat import (InvalidJetError, LatticePoint, ModelParams, RangeError,
                     Region, TruncationError, Window, linear)
from surflat.jets import DualJet, Jet, delta_ell, delta_ell_field
from surflat.linear import (GreensChoice, RankOneModifier, ScalarStack,
                            _scalar_green_banded, _scalar_green_frequency,
                            box_defect, cone_defect, greens_apply,
                            greens_defects, greens_residual,
                            linear_residual, scalar_diag, scalar_roots,
                            scalar_solution, wave_green, wave_solution)

P = ModelParams()


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
    assert linear_residual(jet, P) == 0.0


def test_scalar_solution_pointwise_operator_zero():
    w = Window(-6, 6, -3, 3)
    jet = scalar_solution(0.7, P, w)
    for (t, x) in [(0, 0), (3, -2), (-4, 1)]:
        val = delta_ell(1, [jet], LatticePoint(t, x), P)
        assert val.scalar == 0.0
        assert val.phi == 0.0


def test_scalar_solution_past_decay():
    w = Window(-8, 8, -2, 2)
    jet = scalar_solution(1.0, P, w, decay="past")
    assert jet.a[w.index(-1, 0)] == -0.5
    assert jet.a[w.index(1, 0)] == -2.0
    assert linear_residual(jet, P) == 0.0


def test_scalar_solution_with_spatial_profile():
    w = Window(-6, 6, -6, 6)
    jet = scalar_solution(2.0, P, w, decay="past", profile={0: 1.0, 1: 0.5})
    assert jet.a[w.index(0, 0)] == 2.0
    assert jet.a[w.index(0, 1)] == 1.0
    assert jet.a[w.index(0, 2)] == 0.0
    # columnwise equation: any profile still solves it
    assert linear_residual(jet, P) == 0.0
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
    assert linear_residual(jet, P) <= 1e-14
    assert not jet.facts.has_scalar


def test_wave_solution_random_profiles_solve():
    w = Window(-10, 10, -10, 10)
    rng = np.random.default_rng(5)
    g = {int(k): float(rng.normal()) for k in range(-4, 5)}
    h = {int(k): float(rng.normal()) for k in range(-4, 5)}
    jet = wave_solution(g, h, w)
    assert linear_residual(jet, P) <= 1e-13


def test_wave_solution_range_errors():
    w = Window(-4, 4, -4, 4)
    with pytest.raises(RangeError):
        wave_solution({k: 1.0 for k in range(-5, 6)}, {}, w)  # too wide
    with pytest.raises(RangeError):
        wave_solution({50: 1.0}, {}, w)  # misses the window
    with pytest.raises(RangeError):
        wave_solution({}, {k: 1.0 for k in range(-5, 6)}, w)
    with pytest.raises(RangeError):
        wave_solution({0: 1.0}, {-50: 1.0}, w)


def wave_solution_reference(g_profile, h_profile, window):
    # the per-site loop wave_solution used to run, as a pin for its
    # diagonal indexing; the range checks are left to wave_solution
    u_phi = window.zeros()
    for prof, sign in ((g_profile, +1), (h_profile, -1)):
        for s, val in prof.items():
            for t in range(max(window.t_min, s - (window.x_max if sign > 0
                                                  else -window.x_min)),
                           min(window.t_max,
                               s - (window.x_min if sign > 0
                                    else -window.x_max)) + 1):
                x = sign * (s - t)
                if window.contains(t, x):
                    u_phi[window.index(t, x)] += val
    return u_phi


def random_profile(rng, lo, hi, width):
    """Up to width keys in [lo, hi] with values, signed zeros among them."""
    start = int(rng.integers(lo - width, hi + 1))
    keys = [k for k in range(start, start + width) if rng.random() < 0.7]
    values = rng.choice([0.0, -0.0, 1.0, -2.5, 1e-300], size=len(keys))
    values = np.where(rng.random(len(keys)) < 0.5, values,
                      rng.standard_normal(len(keys)))
    return {k: float(v) for k, v in zip(keys, values)}


def test_wave_solution_matches_site_loop_bitwise():
    rng = np.random.default_rng(31)
    windows = [Window(-6, 6, -6, 6), Window(-3, 20, -9, 2),
               Window(0, 1, -1, 1), Window(-160, 160, -160, 160)]
    for case in range(300):
        w = windows[case % len(windows)]
        n_x = w.shape[1]
        width = int(rng.integers(1, n_x))
        g = random_profile(rng, w.t_min + w.x_min, w.t_max + w.x_max, width)
        h = random_profile(rng, w.t_min - w.x_max, w.t_max - w.x_min, width)
        try:
            got = wave_solution(g, h, w)
        except RangeError:
            # the profile missed the window, which the reference never
            # checks; a miss adds nothing
            continue
        assert same_bits(got.u_phi, wave_solution_reference(g, h, w)), case
        assert same_bits(got.a, w.zeros())


def test_linear_residual_flags_non_solutions():
    w = Window(-5, 5, -5, 5)
    bump = w.zeros()
    bump[w.index(0, 0)] = 1.0
    jet = Jet(w, w.zeros(), bump)
    assert linear_residual(jet, P) >= 1.0


def test_linear_residual_reads_the_window_interior():
    # a corner bump is seen only on the frame, so it is not read; NaN in
    # either component is, and a window without interior sites has
    # residual 0.0
    w = Window(-5, 5, -5, 5)
    a = w.zeros()
    a[0, 0] = 1.0
    assert linear_residual(Jet(w, a, w.zeros()), P) == 0.0
    a[1, 1] = 1.0
    assert linear_residual(Jet(w, a, w.zeros()), P) >= 1.0
    for k in (0, 1):
        fields = [w.zeros(), w.zeros()]
        fields[k][5, 5] = np.nan
        assert math.isnan(linear_residual(Jet(w, *fields), P))
    for thin in (Window(0, 1, -5, 5), Window(-5, 5, 0, 1)):
        bump = thin.zeros()
        bump[0, 0] = 1.0
        assert linear_residual(Jet(thin, bump, bump), P) == 0.0


# --- Green's operators ---

def test_vector_green_afterglow_pattern():
    w = Window(0, 6, -6, 6)
    src = w.zeros()
    src[w.index(1, 0)] = 1.0
    jet = greens_apply(GreensChoice(), DualJet(w, w.zeros(), src), P,
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
    ret = greens_apply(GreensChoice("retarded"), dual, P, edge_check=False)
    adv = greens_apply(GreensChoice("advanced"), dual, P, edge_check=False)
    np.testing.assert_array_equal(adv.u_phi, ret.u_phi[::-1])


def test_frequency_green_constant_source():
    w = Window(-10, 10, -5, 5)
    dual = DualJet(w, np.ones(w.shape), w.zeros())
    jet = greens_apply(GreensChoice(scalar_kind="frequency"), dual, P,
                       edge_check=False)
    np.testing.assert_allclose(jet.a, -1.0 / 9.0, atol=1e-14)


def test_banded_green_constant_source_center():
    # the windowed inverse differs from -1/9 only by a boundary correction
    # decaying like 2^-distance
    w = Window(-30, 30, -2, 2)
    dual = DualJet(w, np.ones(w.shape), w.zeros())
    jet = greens_apply(GreensChoice(), dual, P, edge_check=False)
    assert jet.a[w.index(0, 0)] == pytest.approx(-1.0 / 9.0, abs=1e-8)


@pytest.mark.parametrize("vector_kind", ["retarded", "advanced"])
@pytest.mark.parametrize("scalar_kind", ["banded_solve", "frequency"])
def test_green_defining_residual(vector_kind, scalar_kind):
    w = Window(-12, 12, -12, 12)
    choice = GreensChoice(vector_kind, scalar_kind)
    for seed in range(3):
        dual = random_dual(w, seed)
        out = greens_apply(choice, dual, P, edge_check=False)
        res = greens_residual(out, dual, P)
        assert res <= 1e-10


def test_green_residual_keeps_a_nan_in_either_defect():
    # the two defects are combined with np.maximum: Python's max would keep
    # the scalar defect, 0.0, ahead of a NaN angular one
    w = Window(-5, 5, -5, 5)
    zero = DualJet.zero(w)
    for k in (0, 1):
        fields = [w.zeros(), w.zeros()]
        fields[k][5, 5] = np.nan
        out = Jet(w, *fields)
        assert [math.isnan(d) for d in greens_defects(out, zero, P)] == \
            [k == 0, k == 1]
        res = greens_residual(out, zero, P)
        assert type(res) is float and math.isnan(res)


def test_green_residual_reads_inputs_only():
    # the residual is formed in place in the operator's fresh output: both
    # inputs keep their bytes, and the value is the masked maximum
    w = Window(-10, 10, -10, 10)
    dual = random_dual(w, 6)
    out = greens_apply(GreensChoice(), dual, P, edge_check=False)
    arrays = (out.a, out.u_phi, dual.b, dual.w_phi)
    before = [arr.tobytes() for arr in arrays]
    res = greens_residual(out, dual, P)
    assert [arr.tobytes() for arr in arrays] == before
    op = delta_ell_field(1, [out], P)
    inner = w.interior_mask()
    assert res == max(float(np.abs(op.b + dual.b)[inner].max()),
                      float(np.abs(op.w_phi + dual.w_phi)[inner].max()))


def test_green_residual_with_unbalanced_nu():
    p = ModelParams(nu=10.0)
    w = Window(-10, 10, -10, 10)
    dual = random_dual(w, 9)
    out = greens_apply(GreensChoice(), dual, p, edge_check=False)
    assert greens_residual(out, dual, p) <= 1e-10


@pytest.mark.parametrize("p", [P, ModelParams(nu=10.0)], ids=["balanced",
                                                              "nu=10"])
@pytest.mark.parametrize("w", [Window(-40, 40, -40, 40),
                               Window(-9, 30, -17, 5)], ids=["81x81", "40x23"])
def test_green_components_decouple(w, p):
    # the scalar backend and the wave kind never mix: the scalar field and
    # the scalar defect depend on the backend only, the angle field and the
    # angular defect on the wave kind only, bitwise; greens-verify relies on
    # this to apply two of the four choices per draw
    dual = random_dual(w, 21, half_width=3, amplitude=0.05)
    outs, defects = {}, {}
    for vk in ("retarded", "advanced"):
        for sk in ("banded_solve", "frequency"):
            out = greens_apply(GreensChoice(vk, sk), dual, p,
                               edge_check=False)
            outs[vk, sk] = out
            defects[vk, sk] = greens_defects(out, dual, p)
            assert greens_residual(out, dual, p) == max(defects[vk, sk])
    for sk in ("banded_solve", "frequency"):
        one, other = outs["retarded", sk].a, outs["advanced", sk].a
        assert np.array_equal(one, other)
        assert np.array_equal(np.signbit(one), np.signbit(other))
        assert defects["retarded", sk][0] == defects["advanced", sk][0]
    for vk in ("retarded", "advanced"):
        one = outs[vk, "banded_solve"].u_phi
        other = outs[vk, "frequency"].u_phi
        assert np.array_equal(one, other)
        assert np.array_equal(np.signbit(one), np.signbit(other))
        assert defects[vk, "banded_solve"][1] == defects[vk, "frequency"][1]


def test_scalar_backends_agree_given_clearance():
    w = Window(-20, 20, -4, 4)
    dual = random_dual(w, 3, half_width=1)
    a = greens_apply(GreensChoice(), dual, P, edge_check=False)
    b = greens_apply(GreensChoice(scalar_kind="frequency"), dual, P,
                     edge_check=False)
    # clearance 19 sites: homogeneous correction of order 2^-19
    assert np.abs(a.a - b.a).max() <= 2.0 ** -19 * 50
    assert np.abs(a.a - b.a).max() > 0.0


def test_edge_check_flags_hot_scalar_frame():
    w = Window(-4, 4, -4, 4)
    b = w.zeros()
    b[w.index(-4, 0)] = 1.0  # source on the time edge
    with pytest.raises(TruncationError):
        greens_apply(GreensChoice(), DualJet(w, b, w.zeros()), P)


def test_edge_check_flags_inflow_wave_source():
    w = Window(-4, 4, -4, 4)
    src = w.zeros()
    src[w.index(-4, 0)] = 1.0
    with pytest.raises(TruncationError):
        greens_apply(GreensChoice(), DualJet(w, w.zeros(), src), P)
    # the same source is fine for the advanced kind
    greens_apply(GreensChoice("advanced"), DualJet(w, w.zeros(), src), P)


@pytest.mark.parametrize("component, site", [("b", (10, 10)),
                                             ("w_phi", (0, 5))],
                         ids=["nan-scalar-source", "nan-inflow-source"])
def test_edge_check_flags_a_nan(component, site):
    # a NaN source spreads NaN onto the scalar frame, or sits on an inflow
    # row; the check fails on it as on any value above the tolerance
    w = Window(-10, 10, -10, 10)
    fields = {"b": w.zeros(), "w_phi": w.zeros()}
    fields[component][site] = math.nan
    with pytest.raises(TruncationError):
        greens_apply(GreensChoice(), DualJet(w, **fields), P)


def test_check_scalar_symbol_rejects_a_nan_symbol():
    # ModelParams takes finite couplings only, so the NaN is planted past it
    p = ModelParams()
    object.__setattr__(p, "nu", math.nan)
    assert math.isnan(scalar_diag(p))
    with pytest.raises(InvalidJetError, match="not diagonally dominant"):
        linear.check_scalar_symbol(p)


def test_edge_check_passes_for_clear_sources():
    # the scalar kernel decays like 2^-distance, so ~45 sites of clearance
    # push the frame values below the check tolerance
    w = Window(-46, 46, -4, 4)
    dual = random_dual(w, 11, half_width=1, amplitude=0.1)
    greens_apply(GreensChoice(), dual, P)  # should not raise


def test_greens_choice_validation():
    with pytest.raises(InvalidJetError,
                       match="vector_kind must be retarded or advanced"):
        GreensChoice(vector_kind="sideways")
    with pytest.raises(InvalidJetError):
        GreensChoice(scalar_kind="dense")
    with pytest.raises(InvalidJetError):
        GreensChoice(scalar_kind=["frequency"])
    # the operators themselves reject an unknown kind, rather than running
    # another kind in its place
    w = Window(-6, 6, -3, 3)
    with pytest.raises(InvalidJetError, match="scalar_kind"):
        ScalarStack("fft", [w.zeros()], P)
    with pytest.raises(InvalidJetError, match="vector_kind"):
        wave_green(w.zeros(), "sideways")


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
    out = greens_apply(GreensChoice(), dual, P, edge_check=False) + jet
    assert greens_residual(out, dual, P) <= 1e-10


# --- the banded sweep and the in-place wave stepping ---

def planted_source(n_t, n_x, seed):
    """Random source with zero columns and planted signed zeros."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n_t, n_x))
    b[:, 1::4] = 0.0
    b[:, 2::4] = -0.0
    b[:, 3::4] = np.where(rng.random((n_t, 1)) < 0.5, 0.0, -0.0)
    b[rng.random((n_t, n_x)) < 0.1] = -0.0
    return b


def same_bits(x, y):
    return np.array_equal(x, y) and np.array_equal(np.signbit(x),
                                                   np.signbit(y))


# nu = 18 is balanced (diagonal 5), nu = 38 flips the diagonal to -5
SIGNED_DIAGONALS = [ModelParams(), ModelParams(nu=38.0)]


@pytest.mark.parametrize("n_t", [3, 81, 321])
@pytest.mark.parametrize("p", SIGNED_DIAGONALS, ids=["diag+", "diag-"])
def test_banded_sweep_matches_lapack_bitwise(n_t, p):
    linalg = pytest.importorskip("scipy.linalg")
    b = planted_source(n_t, 9, n_t)
    bands = np.zeros((3, n_t))
    bands[0, 1:] = p.lambda_i
    bands[1, :] = scalar_diag(p)
    bands[2, :-1] = p.lambda_i
    expected = linalg.solve_banded((1, 1), bands, -b)
    assert same_bits(_scalar_green_banded(b, p), expected)


@pytest.mark.parametrize("n_t", [1, 2, 3, 81, 321])
@pytest.mark.parametrize("p", SIGNED_DIAGONALS + [ModelParams(nu=10.0)],
                         ids=["diag+", "diag-", "diag9"])
def test_banded_sweep_matches_dense_solve(n_t, p):
    b = planted_source(n_t, 9, n_t + 1)
    diag = scalar_diag(p)
    dense = (np.diag(np.full(n_t, diag))
             + np.diag(np.full(n_t - 1, p.lambda_i), 1)
             + np.diag(np.full(n_t - 1, p.lambda_i), -1))
    expected = np.linalg.solve(dense, -b)
    np.testing.assert_allclose(_scalar_green_banded(b, p), expected,
                               rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("nu", [20.0, 30.0, 36.0])
def test_non_dominant_symbol_raises(nu):
    # diagonals 4, -1 and -4 against 2 lambda_i = 4: the elimination would
    # need pivoting, and the symbol vanishes at some frequency
    p = ModelParams(nu=nu)
    assert abs(scalar_diag(p)) <= 2.0 * p.lambda_i
    w = Window(-6, 6, -3, 3)
    with pytest.raises(InvalidJetError, match="not diagonally dominant"):
        greens_apply(GreensChoice(), random_dual(w, 1), p,
                     edge_check=False)


def vector_green_reference(w_phi, kind):
    # the stepping with a fresh row per step, as a pin for the in-place one
    n_t = w_phi.shape[0]
    sv = np.zeros_like(w_phi)

    def side_sum(row):
        out = np.zeros_like(row)
        out[:-1] += row[1:]
        out[1:] += row[:-1]
        return out

    if kind == "retarded":
        for t in range(1, n_t - 1):
            sv[t + 1] = side_sum(sv[t]) - sv[t - 1] - w_phi[t]
    else:
        for t in range(n_t - 2, 0, -1):
            sv[t - 1] = side_sum(sv[t]) - sv[t + 1] - w_phi[t]
    return sv


@pytest.mark.parametrize("shape", [(3, 1), (4, 2), (81, 81), (321, 41)])
@pytest.mark.parametrize("kind", ["retarded", "advanced"])
def test_vector_green_matches_reference_bitwise(shape, kind):
    w_phi = planted_source(*shape, seed=sum(shape))
    assert same_bits(wave_green(w_phi, kind),
                     vector_green_reference(w_phi, kind))


# --- Green's operators on the source's support ---

def support_source(shape, name, kind, seed):
    """(b, w_phi) of one named kind of source on a window of this shape."""
    n_t, n_x = shape
    rng = np.random.default_rng(seed)
    b, w_phi = planted_source(n_t, n_x, seed), planted_source(n_t, n_x,
                                                              seed + 1)
    zero = np.zeros(shape)
    if name == "zero_b":
        b = zero.copy()
    elif name == "zero_w_phi":
        w_phi = zero.copy()
    elif name == "negative_zero_column":
        b, w_phi = zero.copy(), zero.copy()
        b[:, n_x // 2] = -0.0
        w_phi[:, n_x // 2] = -0.0
    elif name == "nan_column":
        b[:, n_x // 2] = np.nan
    elif name == "single_column":
        b, w_phi = zero.copy(), zero.copy()
        b[:, n_x // 3] = rng.standard_normal(n_t)
        w_phi[:, n_x // 3] = rng.standard_normal(n_t)
    elif name == "leading_zero_rows":
        # zero over the first half of the rows in the kind's stepping order
        lead = slice(0, n_t // 2) if kind == "retarded" \
            else slice(n_t - n_t // 2, n_t)
        b[lead] = 0.0
        w_phi[lead] = 0.0
    elif name == "box":
        # the centred 7 x 7 box of greens-verify, clipped to the window
        box = (slice(max(0, n_t // 2 - 3), n_t // 2 + 4),
               slice(max(0, n_x // 2 - 3), n_x // 2 + 4))
        b, w_phi = zero.copy(), zero.copy()
        b[box] = 0.05 * rng.standard_normal(b[box].shape)
        w_phi[box] = 0.05 * rng.standard_normal(w_phi[box].shape)
    return b, w_phi


SUPPORT_SOURCES = ["planted", "zero_b", "zero_w_phi", "negative_zero_column",
                   "single_column", "leading_zero_rows", "box"]


@pytest.mark.parametrize("source", SUPPORT_SOURCES)
@pytest.mark.parametrize("shape", [(3, 1), (4, 2), (81, 81), (321, 41),
                                   (321, 321)], ids=lambda s: "x".join(
                                       map(str, s)))
@pytest.mark.parametrize("p", SIGNED_DIAGONALS, ids=["diag+", "diag-"])
@pytest.mark.parametrize("scalar_kind", ["banded_solve", "frequency"])
@pytest.mark.parametrize("vector_kind", ["retarded", "advanced"])
def test_greens_apply_equals_full_window_solve_bitwise(vector_kind,
                                                       scalar_kind, p, shape,
                                                       source):
    n_t, n_x = shape
    w = Window(0, n_t - 1, 0, n_x - 1)
    b, w_phi = support_source(shape, source, vector_kind, n_t + n_x)
    out = greens_apply(GreensChoice(vector_kind, scalar_kind),
                       DualJet(w, b, w_phi), p, edge_check=False)
    full = _scalar_green_banded if scalar_kind == "banded_solve" \
        else _scalar_green_frequency
    assert same_bits(out.a, full(b, p))
    assert same_bits(out.u_phi, vector_green_reference(w_phi, vector_kind))
    # row-major like the full solve: later sums and ravels see one layout
    assert out.a.flags.c_contiguous


@pytest.mark.parametrize("scalar_kind", ["banded_solve", "frequency"])
@pytest.mark.parametrize("vector_kind", ["retarded", "advanced"])
def test_greens_apply_counts_nan_as_live(vector_kind, scalar_kind):
    # a NaN column is solved and a NaN row stepped, as in the full solve,
    # rather than taking the all-zero stand-in's output
    w = Window(0, 8, 0, 4)
    b, w_phi = w.zeros(), w.zeros()
    b[3, 2] = np.nan
    w_phi[4, 1] = np.nan
    out = greens_apply(GreensChoice(vector_kind, scalar_kind),
                       DualJet(w, b, w_phi), P, edge_check=False)
    full = _scalar_green_banded if scalar_kind == "banded_solve" \
        else _scalar_green_frequency
    for got, want in ((out.a, full(b, P)),
                      (out.u_phi, vector_green_reference(w_phi,
                                                         vector_kind))):
        assert np.isnan(want).any()
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# --- many fields, one scalar solve ---

class ReadOnce:
    """Scalar fields handed out as copies when iterated, each read recorded.

    The copies are tracked by weak reference, so a test can see whether a
    reader still holds one.
    """

    def __init__(self, fields):
        self.fields, self.reads, self.built = fields, [], []

    def __iter__(self):
        for k, b in enumerate(self.fields):
            self.reads.append(k)
            copy = b.copy()
            self.built.append(weakref.ref(copy))
            yield copy


# the first source has a NaN column, the second no live scalar column and
# the third a -0.0 column; twenty sources repeat every kind
BATCH_SOURCES = ["nan_column", "zero_b", "negative_zero_column", "box",
                 "planted", "single_column", "leading_zero_rows",
                 "zero_w_phi"]


def batch_fields(shape, count, kind, seed):
    return [support_source(shape, BATCH_SOURCES[k % len(BATCH_SOURCES)],
                           kind, seed + k) for k in range(count)]


def full_scalar(scalar_kind, b):
    full = _scalar_green_banded if scalar_kind == "banded_solve" \
        else _scalar_green_frequency
    return full(b, P)


def bitwise(got, want):
    return np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("count", [1, 2, 20])
@pytest.mark.parametrize("shape", [(4, 2), (81, 81)],
                         ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("scalar_kind", ["banded_solve", "frequency"])
@pytest.mark.parametrize("vector_kind", ["retarded", "advanced"])
def test_scalar_stack_equals_full_window_solves_bitwise(vector_kind,
                                                        scalar_kind, shape,
                                                        count):
    fields = batch_fields(shape, count, vector_kind, sum(shape))
    reader = ReadOnce([b for b, _ in fields])
    stack = ScalarStack(scalar_kind, reader, P)
    # each field is read exactly once, for the solve, and not held
    assert reader.reads == list(range(count))
    assert all(ref() is None for ref in reader.built)
    for k, (b, w_phi) in enumerate(fields):
        want = full_scalar(scalar_kind, b)
        got = stack.field(k)
        assert bitwise(got, want)
        assert got.flags.c_contiguous
        assert_framed(stack, k, want)
        assert bitwise(wave_green(w_phi, vector_kind),
                       vector_green_reference(w_phi, vector_kind))


def columns(a):
    return {a[:, j].tobytes() for j in range(a.shape[1])}


def assert_framed(stack, k, want):
    # framed(k) is the full solve want on the span of field k's live
    # columns framed by one, and every column of want is one of its columns
    framed = stack.framed(k)
    live = stack.columns[k]
    if framed is None:
        assert live.size == 0
        assert len(columns(want)) == 1
        return
    cols, values = framed
    assert cols == slice(max(live[0] - 1, 0), min(live[-1] + 2, want.shape[1]))
    assert bitwise(values, want[:, cols])
    assert columns(want) <= columns(values)


@pytest.mark.parametrize("shape", [(4, 2), (81, 81)],
                         ids=lambda s: "x".join(map(str, s)))
def test_scalar_stack_backend_gap_is_the_full_window_gap(shape):
    # the backend agreement of greens-verify: the largest gap between the
    # backends' framed(k), 0.0 when field k has no live column, and the one
    # between their field(k) are bitwise the full window's; the fields hold
    # no live column, one, and many with -0.0 and NaN planted
    n_t, n_x = shape
    fields = [columns_source(n_t, n_x, live, 11 + live)
              for live in sorted({0, 1, n_x // 2, n_x})]
    assert any(np.isnan(b).any() for b in fields)
    banded, frequency = (ScalarStack(kind, fields, P)
                         for kind in ("banded_solve", "frequency"))
    for k, b in enumerate(fields):
        full = np.abs(_scalar_green_banded(b, P)
                      - _scalar_green_frequency(b, P)).max()
        whole = np.abs(banded.field(k) - frequency.field(k)).max()
        framed = banded.framed(k), frequency.framed(k)
        if framed[0] is None:
            assert framed[1] is None
            gap = np.float64(0.0)
        else:
            (cols, x), (other, y) = framed
            assert cols == other
            gap = np.abs(x - y).max()
        assert gap.tobytes() == full.tobytes()
        assert whole.tobytes() == full.tobytes()


def test_scalar_stack_rejects_no_fields_and_mixed_shapes():
    with pytest.raises(RangeError, match="at least one"):
        ScalarStack("banded_solve", iter(()), P)
    with pytest.raises(RangeError, match="share a shape"):
        ScalarStack("banded_solve", [np.ones((5, 3)), np.ones((5, 4))], P)


# --- the cached stand-in column ---

def recorded_backends(monkeypatch):
    """Per scalar kind, the widths of the backend calls made from now on.

    The stacks call the backends through linear.SCALAR_GREENS, so they
    are wrapped there.
    """
    widths = {kind: [] for kind in linear.SCALAR_GREENS}
    for kind, solve in list(linear.SCALAR_GREENS.items()):
        def wrapper(b, p, kind=kind, solve=solve):
            widths[kind].append(b.shape[1])
            return solve(b, p)
        monkeypatch.setitem(linear.SCALAR_GREENS, kind, wrapper)
    return widths


@pytest.mark.parametrize("scalar_kind", ["banded_solve", "frequency"])
def test_scalar_stack_without_live_columns_calls_no_backend(monkeypatch,
                                                            scalar_kind):
    linear._stand_in.cache_clear()
    widths = recorded_backends(monkeypatch)
    fields = [np.zeros((81, 81)), np.zeros((81, 81))]
    stack = ScalarStack(scalar_kind, fields, P)
    assert widths[scalar_kind] == []
    # the first output that needs the stand-in solves one column, once
    outs = [stack.field(k) for k in range(2)]
    ScalarStack(scalar_kind, fields, P).field(0)
    assert widths[scalar_kind] == [1]
    for out in outs:
        assert bitwise(out, full_scalar(scalar_kind, fields[0]))


def columns_source(n_t, n_x, live, seed):
    """A scalar source on `live` random columns: values, -0.0 and a NaN."""
    rng = np.random.default_rng(seed)
    b = np.zeros((n_t, n_x))
    cols = np.sort(rng.choice(n_x, size=live, replace=False))
    b[:, cols] = rng.standard_normal((n_t, live))
    b[rng.random(b.shape) < 0.3] = 0.0
    if live > 1:
        b[:, cols[0]] = -0.0
        b[n_t // 2, cols[-1]] = np.nan
    return b


@pytest.mark.parametrize("lives", [(0,), (1,), (40,), (81,), (0, 1, 40)],
                         ids=lambda lives: "-".join(map(str, lives)))
@pytest.mark.parametrize("scalar_kind", ["banded_solve", "frequency"])
def test_scalar_stack_field_is_the_full_solve_bitwise(scalar_kind, lives):
    # 0, 1 and many live columns, each field on its own and stacked; the
    # stand-in may come from the cache or be solved here
    fields = [columns_source(31, 81, live, 7 + k)
              for k, live in enumerate(lives)]
    for cleared in (True, False):
        if cleared:
            linear._stand_in.cache_clear()
        stack = ScalarStack(scalar_kind, fields, P)
        for k, b in enumerate(fields):
            assert stack.columns[k].size == lives[k]
            want = full_scalar(scalar_kind, b)
            got = stack.field(k)
            assert bitwise(got, want)
            assert got.flags.c_contiguous and got.flags.writeable
            assert_framed(stack, k, want)


@pytest.mark.parametrize("scalar_kind", ["banded_solve", "frequency"])
def test_stand_in_is_read_only(scalar_kind):
    stand_in = linear._stand_in(scalar_kind, 21, P)
    assert stand_in.shape == (21, 1)
    assert not stand_in.flags.writeable
    with pytest.raises(ValueError):
        stand_in[0, 0] = 1.0
    # the outputs are fresh arrays: writing one leaves the cache alone
    before = stand_in.tobytes()
    out = ScalarStack(scalar_kind, [np.zeros((21, 5))], P).field(0)
    out[...] = 1.0
    assert linear._stand_in(scalar_kind, 21, P).tobytes() == before


# --- defects on the support box ---

def centred_window(n_t, n_x):
    return Window(-(n_t // 2), n_t - 1 - n_t // 2,
                  -(n_x // 2), n_x - 1 - n_x // 2)


def greens_verify_source(window, seed):
    # the greens-verify draw: both components on the centred 7 x 7 box
    rng = np.random.default_rng(seed)
    box = Region.from_box(window, -3, 3, -3, 3).mask
    b, w_phi = window.zeros(), window.zeros()
    b[box] = 0.05 * rng.standard_normal(49)
    w_phi[box] = 0.05 * rng.standard_normal(49)
    return DualJet(window, b, w_phi)


def defect_case(window, name, seed):
    """(out, w) of one named greens_defects input on this window."""
    n_t, n_x = window.shape
    rng = np.random.default_rng(seed)
    zero = window.zeros()
    if name.startswith("green"):
        _, vk, sk = name.split(":")
        w = greens_verify_source(window, seed)
        return greens_apply(GreensChoice(vk, sk), w, P,
                            edge_check=False), w
    a, u_phi, b, w_phi = (zero.copy() for _ in range(4))
    if name == "corner_and_frame":
        # the scalar parts at the first corner, the angular ones on the last
        # row (the window frame) and the opposite corner: boxes clipped by
        # the window edge
        b[0, 0], a[1, 1] = rng.standard_normal(2)
        w_phi[-1, n_x // 2:-1] = rng.standard_normal(n_x - 1 - n_x // 2)
        u_phi[-1, -1] = rng.standard_normal()
    elif name == "single_site":
        site = (n_t // 3, n_x // 4)
        a[site], u_phi[site] = rng.standard_normal(2)
    elif name == "negative_zero_scalar":
        # a set bit on every site, yet no nonzero: the scalar box is empty
        a, b = np.full(window.shape, -0.0), np.full(window.shape, -0.0)
        u_phi[n_t // 2, n_x // 2] = 1.0
    elif name in ("nan_scalar", "inf_angle"):
        out, w = defect_case(window, "green:retarded:banded_solve", seed)
        a, u_phi, b, w_phi = out.a.copy(), out.u_phi.copy(), w.b, w.w_phi
        if name == "nan_scalar":
            a[2, n_x // 2 + 6] = np.nan
        else:
            u_phi[n_t // 2, -2] = np.inf
    elif name == "dense":
        a, u_phi = rng.standard_normal((2, *window.shape))
        b[:] = rng.standard_normal(window.shape)
    elif name == "overlapping_boxes":
        # boxes of 3/5 of the window each
        a[:3 * n_t // 5] = rng.standard_normal((3 * n_t // 5, n_x))
        u_phi[2 * n_t // 5:] = rng.standard_normal((n_t - 2 * n_t // 5, n_x))
    elif name == "one_row":
        a[n_t // 4, 5:25], u_phi[n_t // 4, 5:25] = rng.standard_normal((2, 20))
        w_phi[n_t // 4, n_x // 2] = 1.0
    return Jet(window, a, u_phi), DualJet(window, b, w_phi)


DEFECT_CASES = [f"green:{vk}:{sk}" for vk in ("retarded", "advanced")
                for sk in ("banded_solve", "frequency")] + [
    "corner_and_frame", "single_site", "zero", "negative_zero_scalar",
    "nan_scalar", "inf_angle", "dense", "overlapping_boxes", "one_row"]


def framed_support_box(field, source):
    # the rows and columns holding every nonzero of field and source (NaN
    # and inf count, -0.0 does not), framed by one site and clipped to the
    # array, as a pair of slices; None when both vanish
    live = (field != 0.0) | (source != 0.0)
    rows = np.flatnonzero(live.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(live.any(axis=0))
    n_t, n_x = field.shape
    return (slice(max(int(rows[0]) - 1, 0), min(int(rows[-1]) + 2, n_t)),
            slice(max(int(cols[0]) - 1, 0), min(int(cols[-1]) + 2, n_x)))


@pytest.mark.parametrize("name", DEFECT_CASES)
@pytest.mark.parametrize("shape", [(161, 161), (321, 321), (200, 120)],
                         ids=lambda s: "x".join(map(str, s)))
def test_box_defect_on_support_boxes_equals_greens_defects_bitwise(shape,
                                                                   name):
    # each component on the box of its support framed by one site, where
    # the operator is +0.0 outside, against the whole-window reference; a
    # component with no nonzero gives 0.0
    window = centred_window(*shape)
    out, w = defect_case(window, name, sum(shape))
    arrays = (out.a, out.u_phi, w.b, w.w_phi)
    before = [arr.tobytes() for arr in arrays]
    got = []
    with np.errstate(invalid="ignore"):  # inf - inf in the inf case
        want = greens_defects(out, w, P)
        for k, (field, source) in enumerate(((out.a, w.b),
                                             (out.u_phi, w.w_phi))):
            box = framed_support_box(field, source)
            got.append(0.0 if box is None else
                       box_defect(window, k, field[box], source[box], box, P))
    assert [arr.tobytes() for arr in arrays] == before
    assert np.array(got).tobytes() == np.array(want).tobytes()
    if name in ("nan_scalar", "inf_angle"):
        # the other component stays finite: nothing leaks across
        assert [np.isnan(v) for v in got] == [name == "nan_scalar",
                                              name == "inf_angle"]


def box_source(window, rows, cols, seed, draw="normal"):
    # both components random on the box (rows, cols) of the window; draw
    # "nan" puts one NaN in each, "negative_zero" makes the box's first
    # column of b and its first and last rows of w_phi -0.0, live by the
    # sign bit alone
    rng = np.random.default_rng(seed)
    b, w_phi = window.zeros(), window.zeros()
    shape = (rows.stop - rows.start, cols.stop - cols.start)
    b[rows, cols], w_phi[rows, cols] = 0.05 * rng.standard_normal((2, *shape))
    if draw == "nan":
        b[rows.start + 1, cols.start + 2] = np.nan
        w_phi[rows.start + 4, cols.start + 5] = np.nan
    elif draw == "negative_zero":
        b[rows, cols.start] = -0.0
        w_phi[rows.start, cols] = -0.0
        w_phi[rows.stop - 1, cols] = -0.0
    return DualJet(window, b, w_phi)


def source_boxes(window):
    """Named 7 x 7 source boxes: centred, and one site from each corner."""
    n_t, n_x = window.shape
    t0, x0 = window.index(-3, -3)
    return {"centred": (slice(t0, t0 + 7), slice(x0, x0 + 7)),
            "first_corner": (slice(1, 8), slice(1, 8)),
            "last_corner": (slice(n_t - 8, n_t - 1), slice(n_x - 8, n_x - 1))}


@pytest.mark.parametrize("draw", ["normal", "nan", "negative_zero"])
@pytest.mark.parametrize("where", ["centred", "first_corner", "last_corner"])
@pytest.mark.parametrize("kind", ["retarded", "advanced"])
@pytest.mark.parametrize("shape", [(161, 161), (321, 321), (200, 120)],
                         ids=lambda s: "x".join(map(str, s)))
def test_support_defects_equal_greens_defects_bitwise(shape, kind, where,
                                                      draw):
    # greens-verify's checks on the support: the scalar output on the
    # stack's framed live columns, the angle on its cone's row bands, each
    # bitwise the whole-window value of greens_defects
    window = centred_window(*shape)
    n_t = window.shape[0]
    box = source_boxes(window)[where]
    w = box_source(window, *box, sum(shape), draw)
    sk = "banded_solve" if kind == "retarded" else "frequency"
    stack = ScalarStack(sk, (w.b,), P)
    sv = wave_green(w.w_phi, kind)
    out = Jet(window, stack.field(0), sv)
    want = greens_defects(out, w, P)
    cols, framed = stack.framed(0)
    got = (box_defect(window, 0, framed, w.b[:, cols], (slice(0, n_t), cols),
                      P),
           cone_defect(window, sv, w.w_phi, kind, box, P))
    assert np.array(got).tobytes() == np.array(want).tobytes()
    if draw == "nan":
        assert np.isnan(got).all()
    else:
        assert got[1] > 0.0


@pytest.mark.parametrize("kind", ["retarded", "advanced"])
def test_cone_defect_reads_three_bands(monkeypatch, kind):
    # the rows from the one before the source box in stepping order, in
    # three bands, each framed by one column beyond its widest cone row and
    # evaluated with one extra row on each side: about two thirds of the
    # sites of the cone's one framed box (165 x 321)
    window = Window(-160, 160, -160, 160)
    box = source_boxes(window)["centred"]
    w = box_source(window, *box, 9)
    sv = wave_green(w.w_phi, kind)
    windows = count_operator_windows(monkeypatch)
    cone_defect(window, sv, w.w_phi, kind, box, P)
    bands = [Window(-5, 51, -56, 56), Window(50, 106, -111, 111),
             Window(105, 160, -160, 160)]
    if kind == "advanced":
        bands = [Window(-w.t_max, -w.t_min, w.x_min, w.x_max)
                 for w in reversed(bands)]
    assert windows == bands
    sites = sum(w.shape[0] * w.shape[1] for w in windows)
    assert sites < 0.72 * 165 * 321


def test_greens_defects_output_on_the_source_window():
    window = Window(-5, 5, -5, 5)
    shifted = Window(-4, 6, -5, 5)
    with pytest.raises(RangeError, match="different windows"):
        greens_defects(Jet.zero(shifted), DualJet.zero(window), P)


def count_operator_windows(monkeypatch):
    # the window of each linearized operator call made in linear
    windows = []
    real = delta_ell_field

    def counted(order, jets, p):
        windows.append(jets[0].window)
        return real(order, jets, p)
    monkeypatch.setattr("surflat.linear.delta_ell_field", counted)
    return windows


def test_greens_defects_without_window_interior():
    # no interior site, so no defect: 0.0
    for window in (Window(0, 4, 0, 1), Window(0, 10_000, 0, 1)):
        out = Jet(window, np.ones(window.shape), np.ones(window.shape))
        assert greens_defects(out, DualJet.zero(window), P) == \
            (0.0, 0.0)


def test_cli_import_loads_no_scipy():
    code = ("import sys, surflat.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
