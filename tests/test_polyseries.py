import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surflat.lagrangian import MAX_ORDER
from surflat.polyseries import PolyRing


def test_monomial_count_four_vars_cap_four():
    ring = PolyRing.create(4, 4)
    # C(4 + 4, 4) monomials of degree <= 4 in 4 variables
    assert len(ring.monomials) == 70
    assert ring.monomials[0] == (0, 0, 0, 0)


def test_mul_matches_dense_polynomial():
    ring = PolyRing.create(2, 3)
    rng = np.random.default_rng(0)
    a = rng.normal(size=(len(ring.monomials), 1))
    b = rng.normal(size=(len(ring.monomials), 1))
    got = ring.mul(a, b)

    # oracle: multiply coefficient dicts directly, dropping degree > cap
    def to_dict(arr):
        return {m: float(arr[i, 0]) for i, m in enumerate(ring.monomials)}

    da, db = to_dict(a), to_dict(b)
    expect = {}
    for ma, ca in da.items():
        for mb, cb in db.items():
            mk = tuple(x + y for x, y in zip(ma, mb))
            if sum(mk) <= ring.cap:
                expect[mk] = expect.get(mk, 0.0) + ca * cb
    for m, c in expect.items():
        assert got[ring.index[m], 0] == pytest.approx(c, rel=1e-13, abs=1e-13)


def test_mul_batched_columns_independent():
    ring = PolyRing.create(3, 2)
    rng = np.random.default_rng(1)
    a = rng.normal(size=(len(ring.monomials), 5))
    b = rng.normal(size=(len(ring.monomials), 5))
    full = ring.mul(a, b)
    for col in range(5):
        single = ring.mul(a[:, [col]], b[:, [col]])
        np.testing.assert_allclose(full[:, [col]], single)


def test_exp_of_single_variable():
    ring = PolyRing.create(2, 4)
    x = ring.zeros(1)
    x[ring.index[(1, 0)], 0] = 1.0
    e = ring.exp(x)
    for n in range(5):
        assert e[ring.index[(n, 0)], 0] == pytest.approx(1.0 / math.factorial(n))


def test_exp_is_multiplicative():
    ring = PolyRing.create(2, 4)
    rng = np.random.default_rng(2)
    a = rng.normal(size=(len(ring.monomials), 3)) * 0.3
    b = rng.normal(size=(len(ring.monomials), 3)) * 0.3
    a[0] = 0.0
    b[0] = 0.0
    left = ring.exp(a + b)
    right = ring.mul(ring.exp(a), ring.exp(b))
    np.testing.assert_allclose(left, right, atol=1e-12)


def test_exp_rejects_constant_term():
    ring = PolyRing.create(1, 3)
    a = ring.constant(1.0, 1)
    with pytest.raises(ValueError):
        ring.exp(a)


@given(st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_mul_commutes(seed):
    ring = PolyRing.create(3, 3)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(len(ring.monomials), 2))
    b = rng.normal(size=(len(ring.monomials), 2))
    np.testing.assert_allclose(ring.mul(a, b), ring.mul(b, a), atol=1e-12)


def mul_by_rounds(ring, a, b):
    """The round-by-round product, kept as the bitwise reference for mul.

    Round r holds the r-th (i, j, k) triple of every output monomial k
    that has one; the first round covers every k, as 1 times k, in order.
    """
    rounds = []
    for r in range(max(len(pairs) for pairs in ring.terms)):
        rounds.append(tuple(np.array(
            [(i, j, k) for k, pairs in enumerate(ring.terms)
             if len(pairs) > r for i, j in [pairs[r]]], dtype=np.intp).T))
    i, j, _ = rounds[0]
    out = 0.0 + a[i] * b[j]
    for i, j, k in rounds[1:]:
        out[k] += a[i] * b[j]
    return out


def exp_by_rounds(ring, a):
    out = ring.constant(1.0, a.shape[1])
    term = ring.constant(1.0, a.shape[1])
    for n in range(1, ring.cap + 1):
        term = mul_by_rounds(ring, term, a) / n
        out = out + term
    return out


def planted_batch(ring, width, rng):
    """Random coefficients with exact zeros of both signs planted in.

    The constant term is -0.0.
    """
    a = rng.normal(size=(len(ring.monomials), width))
    a[rng.random(a.shape) < 0.2] = -0.0
    a[rng.random(a.shape) < 0.1] = 0.0
    a[0] = -0.0
    a[-1] = -0.0
    return a


def assert_bitwise(got, expect):
    assert np.array_equal(got, expect)
    assert np.array_equal(np.signbit(got), np.signbit(expect))


@pytest.mark.parametrize("n_vars", [2, 4])
@pytest.mark.parametrize("cap", [1, 2, 3, 4])
@pytest.mark.parametrize("width", [1, 81, 3321])
def test_mul_and_exp_match_rounds_bitwise(n_vars, cap, width):
    ring = PolyRing.create(n_vars, cap)
    rng = np.random.default_rng(100 * n_vars + 10 * cap + width)
    a = planted_batch(ring, width, rng)
    b = planted_batch(ring, width, rng)
    # -0.0 times 0.0 makes the constant term's only product a -0.0, which
    # the sum must turn into the 0.0 of a zeroed start
    b[0] = 0.0
    product = ring.mul(a, b)
    assert (product == 0.0).any()
    assert_bitwise(product, mul_by_rounds(ring, a, b))
    assert_bitwise(ring.exp(a), exp_by_rounds(ring, a))



# --- rings cut to degree 1 in some variables ---
#
# The oracle's rings are linear in s (2 variables) and in s_x + s_y (4
# variables). The dropped monomials form an ideal, so the cut ring's rows
# are the full ring's kept rows, bit for bit.

LINEAR = {2: (0,), 4: (0, 2)}


def kept_rows(full, cut):
    return np.array([full.index[m] for m in cut.monomials])


SPECIALS = (5e-324, -2.2e-310, np.nan, np.inf, -np.inf)


def special_batch(ring, width, rng):
    """planted_batch with subnormals, NaN and both infinities mixed in.

    Each special value sits in a non-constant row of the first columns,
    one per column, and in about 2% of the other entries.
    """
    a = planted_batch(ring, width, rng)
    for value in SPECIALS:
        a[rng.random(a.shape) < 0.02] = value
    for col, value in enumerate(SPECIALS):
        a[1 + col % (len(ring.monomials) - 1), col] = value
    a[0] = -0.0
    return a


def assert_bytes(got, expect):
    assert got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("n_vars", [2, 4])
@pytest.mark.parametrize("cap", range(1, MAX_ORDER + 1))
def test_cut_ring_keeps_the_full_rings_pairs(n_vars, cap):
    full = PolyRing.create(n_vars, cap)
    cut = PolyRing.create(n_vars, cap, linear=LINEAR[n_vars])
    kept = kept_rows(full, cut)
    assert all(sum(m[v] for v in LINEAR[n_vars]) <= 1 for m in cut.monomials)
    assert cut.monomials[0] == full.monomials[0]
    # every kept row's pairs are the full ring's, renumbered, in order
    for k, pairs in enumerate(cut.terms):
        assert [(kept[i], kept[j]) for i, j in pairs] == list(
            full.terms[kept[k]])


@pytest.mark.parametrize("n_vars,cap,monomials,pairs",
                         [(4, 3, (35, 22), (165, 95)),
                          (4, 4, (70, 35), (495, 210))])
def test_cut_ring_sizes(n_vars, cap, monomials, pairs):
    rings = (PolyRing.create(n_vars, cap),
             PolyRing.create(n_vars, cap, linear=LINEAR[n_vars]))
    assert tuple(len(r.monomials) for r in rings) == monomials
    assert tuple(sum(map(len, r.terms)) for r in rings) == pairs


@pytest.mark.parametrize("n_vars", [2, 4])
@pytest.mark.parametrize("cap", range(1, MAX_ORDER + 1))
@pytest.mark.parametrize("width", [len(SPECIALS), 81])
def test_cut_ring_mul_and_exp_are_the_full_rings_kept_rows(n_vars, cap,
                                                           width):
    full = PolyRing.create(n_vars, cap)
    cut = PolyRing.create(n_vars, cap, linear=LINEAR[n_vars])
    kept = kept_rows(full, cut)
    rng = np.random.default_rng(1000 * n_vars + 10 * cap + width)
    a = special_batch(full, width, rng)
    b = special_batch(full, width, rng)
    assert np.isnan(a).any() and np.isinf(a).any()
    assert (np.abs(a[np.isfinite(a)]) < 2.3e-308).any()
    with np.errstate(invalid="ignore", over="ignore"):
        assert_bytes(cut.mul(a[kept], b[kept]), full.mul(a, b)[kept])
        assert_bytes(cut.exp(a[kept]), full.exp(a)[kept])
