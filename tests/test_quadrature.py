import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stokesheat import quadrature
from stokesheat.quadrature import (
    COS,
    SIN,
    gauss_legendre,
    trig_pair_integral,
    trig_pair_matrix,
)


def test_reference_rule_is_read_only():
    x, w = quadrature._reference_rule(32)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_gauss_legendre_returns_fresh_arrays():
    ref_x, ref_w = np.polynomial.legendre.leggauss(24)
    x, w = gauss_legendre(24, 0.25, 0.75)
    assert np.array_equal(x, 0.5 + 0.25 * ref_x)
    assert np.array_equal(w, 0.25 * ref_w)
    x[:] = 0.0
    w *= 2.0
    x2, w2 = gauss_legendre(24, 0.25, 0.75)
    assert np.array_equal(x2, 0.5 + 0.25 * ref_x)
    assert np.array_equal(w2, 0.25 * ref_w)
    # the identity map on [-1, 1] must not hand out the cached rule either
    x3, w3 = gauss_legendre(24, -1.0, 1.0)
    x3[0] = 5.0
    w3[0] = 5.0
    x4, w4 = gauss_legendre(24, -1.0, 1.0)
    assert np.array_equal(x4, ref_x) and np.array_equal(w4, ref_w)


waves = st.one_of(st.integers(0, 6).map(float),
                  st.floats(0.0, 40.0, allow_nan=False))
descriptors = st.lists(st.tuples(st.sampled_from((COS, SIN)), waves),
                       min_size=1, max_size=40)
endpoint = st.floats(-10.0, 10.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(descriptors, endpoint, endpoint)
def test_trig_pair_matrix_matches_broadcast(desc, a, b):
    kinds = np.array([d[0] for d in desc])
    wav = np.array([d[1] for d in desc])
    want = trig_pair_integral(kinds[:, None], wav[:, None],
                              kinds[None, :], wav[None, :], a, b)
    assert np.array_equal(trig_pair_matrix(kinds, wav, a, b), want)
