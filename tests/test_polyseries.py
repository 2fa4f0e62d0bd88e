import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
