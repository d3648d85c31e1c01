import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stokesheat import quadrature
from stokesheat.control import _window_time_nodes
from stokesheat.quadrature import (
    COS,
    SIN,
    gauss_legendre,
    trig_pair_integral,
    trig_pair_table,
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
def test_trig_pair_table_matches_broadcast(desc, a, b):
    kinds = np.array([d[0] for d in desc])
    wav = np.array([d[1] for d in desc])
    want = trig_pair_integral(kinds[:, None], wav[:, None],
                              kinds[None, :], wav[None, :], a, b)
    table, index = trig_pair_table(kinds, wav, a, b)
    assert len(table) == len(set(desc))
    assert np.array_equal(table[np.ix_(index, index)], want)


def _composite(n, edges):
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        x, w = gauss_legendre(n, lo, hi)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def window_loop(window, depth, n=16):
    """Reference: the control window rule as a loop over its panels."""
    edges = {0.0, window}
    for j in range(1, depth + 1):
        edges.add(window * 2.0 ** -j)
        edges.add(window * (1.0 - 2.0 ** -j))
    return _composite(n, sorted(edges))


def panel_loop(a, b, n, depth):
    """Reference: the kernel quadrature rule as a loop over its panels."""
    edges = {a, b}
    for j in range(1, depth + 1):
        edges.add(a + (b - a) * 2.0 ** -j)
        edges.add(b - (b - a) * 2.0 ** -j)
    return _composite(n, sorted(edges))


depths = st.sampled_from((0, 4, 40))


@settings(max_examples=300, deadline=None)
@given(st.floats(6e-5, 10.0), depths)
def test_graded_rule_equals_window_loop(window, depth):
    x, w = gauss_legendre(16, 0.0, window, depth)
    ref_x, ref_w = window_loop(window, depth)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)


@settings(max_examples=300, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(6e-5, 10.0), st.integers(1, 72),
       depths)
def test_graded_rule_equals_panel_loop(a, length, n, depth):
    b = a + length
    x, w = gauss_legendre(n, a, b, depth)
    ref_x, ref_w = panel_loop(a, b, n, depth)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)


@settings(max_examples=300, deadline=None)
@given(st.floats(6e-5, 1.0), st.floats(0.0, 4.0))
def test_window_rule_integrates_boundary_layer(window, log_lw):
    lam = 10.0 ** log_lw / window
    t, wt = _window_time_nodes(window, lam)
    exact = -math.expm1(-lam * window) / lam
    assert abs(np.dot(wt, np.exp(-lam * t)) / exact - 1.0) <= 1e-14


def test_graded_rule_returns_fresh_arrays():
    ref_x, ref_w = panel_loop(0.25, 0.75, 24, 6)
    x, w = gauss_legendre(24, 0.25, 0.75, 6)
    x[:] = 0.0
    w *= 2.0
    x2, w2 = gauss_legendre(24, 0.25, 0.75, 6)
    assert np.array_equal(x2, ref_x) and np.array_equal(w2, ref_w)
