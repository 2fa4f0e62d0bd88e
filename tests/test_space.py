import numpy as np
import pytest

from surflat import LatticePoint, RangeError, Region, Window, past_region, stencil_pairs
from surflat.jets import DualJet, Jet, region_product_sum
from surflat.lagrangian import ModelParams
from surflat.slayer import _symm_surface_volume
from surflat.space import NEIGHBOR_OFFSETS, common_window, pair_masks


def test_window_shape_and_contains():
    w = Window(-2, 3, -1, 1)
    assert w.shape == (6, 3)
    assert w.contains(0, 0)
    assert w.contains(-2, -1)
    assert not w.contains(4, 0)
    assert w.index(-2, -1) == (0, 0)
    assert w.index(3, 1) == (5, 2)


def test_window_rejects_empty():
    with pytest.raises(RangeError):
        Window(1, 0, 0, 5)


def test_index_out_of_window():
    w = Window(0, 4, 0, 4)
    with pytest.raises(RangeError):
        w.index(5, 0)


@pytest.mark.parametrize("dt,dx", [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (2, -3)])
def test_shifted_matches_pointwise(dt, dx):
    w = Window(0, 5, 0, 4)
    rng = np.random.default_rng(7)
    arr = rng.normal(size=w.shape)
    out = w.shifted(arr, dt, dx)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            si, sj = i + dt, j + dx
            expect = arr[si, sj] if 0 <= si < w.shape[0] and 0 <= sj < w.shape[1] else 0.0
            assert out[i, j] == expect


def test_interior_mask_margin():
    w = Window(0, 4, 0, 4)
    m = w.interior_mask()
    assert m.sum() == 9
    assert not m[0].any() and not m[-1].any()
    assert not m[:, 0].any() and not m[:, -1].any()


def test_common_window_of_fields_and_regions():
    w = Window(-3, 3, 0, 2)
    items = (Jet.zero(w), DualJet.zero(w), past_region(w, 0))
    assert common_window(*items) is w
    assert common_window(Jet.zero(w)) is w
    # a window of the same shape elsewhere is another window
    for other in (Window(-2, 4, 0, 2), Window(-3, 3, 0, 3)):
        for k in range(len(items)):
            moved = list(items)
            moved[k] = Jet.zero(other)
            with pytest.raises(RangeError, match="different windows"):
                common_window(*moved)
        with pytest.raises(RangeError, match="different windows"):
            Jet.zero(w) + Jet.zero(other)
        with pytest.raises(RangeError, match="different windows"):
            common_window(DualJet.zero(w), DualJet.zero(other))


def test_require_interior_and_cut_row():
    w = Window(-3, 3, 0, 4)
    for t, x in ((-2, 1), (2, 3), (0, 2)):
        w.require_interior(t, x)
    for t, x in ((-3, 2), (3, 2), (0, 0), (0, 4), (9, 9)):
        with pytest.raises(RangeError, match="margin 1"):
            w.require_interior(t, x)
    assert [w.cut_row(t) for t in range(-3, 3)] == list(range(6))
    for t in (-4, 3):
        with pytest.raises(RangeError, match="slice time"):
            w.cut_row(t)


def test_past_region_mask_and_bounds():
    w = Window(-3, 3, 0, 2)
    r = past_region(w, 0)
    assert r.site_count() == 4 * 3
    assert not r.mask[w.t_coords() > 0].any()
    with pytest.raises(RangeError):
        past_region(w, 3)  # complement would be empty
    with pytest.raises(RangeError):
        past_region(w, -4)


def test_single_site_pairs_sorted():
    w = Window(-2, 2, -2, 2)
    omega = Region.from_box(w, 0, 0, 0, 0)
    pairs = stencil_pairs(omega)
    assert [(p.t, p.x, q.t, q.x) for (p, q) in pairs] == [
        (0, 0, -1, 0), (0, 0, 0, -1), (0, 0, 0, 1), (0, 0, 1, 0)]


def test_past_region_pairs_are_vertical_interface():
    w = Window(-3, 3, -2, 2)
    omega = past_region(w, 1)
    pairs = stencil_pairs(omega)
    # every pair goes from the top row of the region straight up
    assert len(pairs) == w.shape[1]
    for (x, y) in pairs:
        assert x.t == 1 and y.t == 2 and y.x == x.x
    xs = [p.x for (p, _) in pairs]
    assert xs == sorted(xs)


def test_pairs_lexicographic_for_box():
    w = Window(0, 6, 0, 6)
    omega = Region.from_box(w, 2, 4, 2, 4)
    pairs = stencil_pairs(omega)
    keys = [(x.t, x.x, y.t, y.x) for (x, y) in pairs]
    assert keys == sorted(keys)
    # 3x3 box: each side exposes 3 sites
    assert len(pairs) == 12
    for (x, y) in pairs:
        assert omega.mask[w.index(x.t, x.x)]
        assert not omega.mask[w.index(y.t, y.x)]
        assert (x.t - y.t, x.x - y.x) in NEIGHBOR_OFFSETS


def test_pair_masks_clip_at_window_edge():
    w = Window(0, 2, 0, 2)
    omega = Region.from_box(w, 0, 0, 0, 0)
    masks = pair_masks(omega)
    # corner site: only the in-window neighbors (0,1) and (1,0) pair up
    assert masks[(0, 1)][0, 0]
    assert masks[(1, 0)][0, 0]
    assert not masks[(0, -1)][0, 0]
    assert not masks[(-1, 0)][0, 0]


def test_region_from_box_validates():
    w = Window(0, 3, 0, 3)
    with pytest.raises(RangeError):
        Region.from_box(w, 0, 5, 0, 1)


def test_lattice_point_ordering():
    assert LatticePoint(0, 1) < LatticePoint(1, 0)
    assert LatticePoint(1, -1) < LatticePoint(1, 0)


@pytest.mark.parametrize("dtype", [bool, int])
def test_region_keeps_a_read_only_copy_of_its_mask(dtype):
    w = Window(0, 4, 0, 4)
    given = np.zeros(w.shape, dtype=dtype)
    given[1:3, 1:3] = 1
    omega = Region(w, given)
    given[0, 0] = 1  # the caller's array stays writable and apart
    assert omega.mask.dtype == np.bool_
    assert omega.site_count() == 4
    with pytest.raises(ValueError):
        omega.mask[0, 0] = True


@pytest.mark.parametrize("box", [(2, 4, 3, 6), (0, 0, 0, 0), (0, 6, 0, 8)])
def test_interface_sites_are_the_pair_masks(box):
    # flat row-major indices on a window that is not square, so a row step
    # and a column step differ
    w = Window(0, 6, 0, 8)
    n_x = w.shape[1]
    omega = Region.from_box(w, *box)
    sites = omega.interface_sites
    assert omega.interface_sites is sites
    masks = pair_masks(omega)
    assert list(sites) == list(masks)
    for (dt, dx), (ix, iy) in sites.items():
        assert np.array_equal(ix, np.flatnonzero(masks[(dt, dx)]))
        assert np.array_equal(iy, ix + dt * n_x + dx)
        i, j = np.divmod(iy, n_x)
        assert np.array_equal(i, ix // n_x + dt)
        assert np.array_equal(j, ix % n_x + dx)


# --- the flat index of a region ---

FLAT_WINDOW = Window(-5, 6, -4, 7)
P = ModelParams()


def flat_regions(window):
    """Regions of every shape, by name, with the type of their flat index."""
    rng = np.random.default_rng(3)
    ragged = rng.random(window.shape) < 0.4
    # contiguous in row-major order, but not a box: a row's tail and the
    # next row's head
    n_x = window.shape[1]
    tail_head = np.zeros(window.shape, dtype=bool)
    tail_head.ravel()[n_x - 3:n_x + 5] = True
    regions = {f"past[{t}]": (past_region(window, t), slice)
               for t in range(window.t_min, window.t_max)}
    regions.update({
        "full_width_box": (Region.from_box(window, -2, 3, window.x_min,
                                           window.x_max), slice),
        "one_row_box": (Region.from_box(window, 1, 1, -2, 3), slice),
        "single_site": (Region.from_box(window, 0, 0, 0, 0), slice),
        "tail_head": (Region(window, tail_head), slice),
        "partial_box": (Region.from_box(window, -2, 3, -2, 3), np.ndarray),
        "ragged": (Region(window, ragged), np.ndarray),
        "empty": (Region(window, np.zeros(window.shape, dtype=bool)),
                  np.ndarray),
    })
    return regions


@pytest.mark.parametrize("name", list(flat_regions(FLAT_WINDOW)))
def test_region_flat_reads_the_mask_sites(name):
    omega, kind = flat_regions(FLAT_WINDOW)[name]
    flat = omega.flat
    assert isinstance(flat, kind)
    assert omega.flat is flat  # computed once
    a = np.random.default_rng(4).standard_normal(FLAT_WINDOW.shape)
    a[0, :3] = (np.nan, -0.0, np.inf)
    got, want = a.ravel()[flat], a[omega.mask]
    assert got.tobytes() == want.tobytes()
    assert omega.site_count() == want.size
    if kind is slice:
        assert np.shares_memory(got, a)


def signed_field(window, seed):
    """Random weights with planted -0.0, +0.0 and one NaN."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(window.shape)
    a[rng.random(window.shape) < 0.2] = -0.0
    a[rng.random(window.shape) < 0.1] = 0.0
    a[window.index(2, 1)] = np.nan
    return a


@pytest.mark.parametrize("name", list(flat_regions(FLAT_WINDOW)))
def test_region_sums_by_flat_index_are_the_mask_sums_bitwise(name):
    # region_product_sum and the symmetric form's volume read the sites
    # through Region.flat; both equal the boolean-mask form by bytes
    omega, _ = flat_regions(FLAT_WINDOW)[name]
    jets = [Jet(FLAT_WINDOW, signed_field(FLAT_WINDOW, 10 + k),
                FLAT_WINDOW.zeros()) for k in range(3)]
    for n in range(4):
        prod = np.ones(np.count_nonzero(omega.mask))
        for jet in jets[:n]:
            prod = prod * jet.a[omega.mask]
        want = float(prod.sum())
        got = region_product_sum(omega, jets[:n])
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    s_jet = jets[0]
    u = v = Jet(FLAT_WINDOW, FLAT_WINDOW.zeros(), FLAT_WINDOW.zeros())
    want = P.nu * float(s_jet.a[omega.mask].sum())
    got = _symm_surface_volume(u, v, s_jet, omega, P)[1]
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
