"""Quadrature rules and closed-form trigonometric integrals.

The strip geometry makes every x1 integral a product of sines/cosines over
an interval, which has a closed form; x2 integrals of the (entire) mode
profiles use Gauss-Legendre nodes.  Keeping the x1 direction exact removes
the dominant quadrature error from the exponentially ill-conditioned
Gramian solves downstream.
"""

import functools

import numpy as np

# trig kind codes used for the x1 factor of a field component
COS = 0
SIN = 1

GAUSS_NODES_X2 = 64


@functools.lru_cache(maxsize=None)
def _reference_rule(n):
    """Read-only n-point Gauss-Legendre rule on [-1, 1], built once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(n, a, b, depth=0):
    """Gauss-Legendre nodes and weights on [a, b] (fresh arrays per call).

    At ``depth`` > 0 the rule is composite, n nodes per panel, with cuts at
    a + (b - a) 2**-j and b - (b - a) 2**-j for j = 1..depth: graded
    dyadically toward both ends to resolve boundary layers there.
    """
    x, w = _reference_rule(n)
    edges = np.array([a, b], dtype=float)
    if depth:
        cuts = (b - a) * np.ldexp(1.0, -np.arange(1, depth + 1))
        edges = np.unique(np.concatenate((edges, a + cuts, b - cuts)))
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def _int_cos(m, a, b):
    """Integral of cos(m*x) over [a, b], elementwise in m (m == 0 allowed)."""
    m = np.asarray(m, dtype=float)
    nz = m != 0
    mn = np.where(nz, m, 1.0)
    return np.where(nz, (np.sin(mn * b) - np.sin(mn * a)) / mn, b - a)


def _int_sin(m, a, b):
    """Integral of sin(m*x) over [a, b], elementwise in m."""
    m = np.asarray(m, dtype=float)
    nz = m != 0
    mn = np.where(nz, m, 1.0)
    return np.where(nz, (np.cos(mn * a) - np.cos(mn * b)) / mn, 0.0)


def trig_pair_integral(kind1, k1, kind2, k2, a, b):
    """Closed-form integral of T1(x)*T2(x) over [a, b].

    T(x) is cos(k*x) for kind COS or sin(k*x) for kind SIN; inputs broadcast,
    so passing column/row vectors yields the full pairwise matrix.  sin(0*x)
    is the zero function and cos(0*x) the constant 1, so k = 0 entries need
    no special casing by the caller.
    """
    kind1 = np.asarray(kind1)
    kind2 = np.asarray(kind2)
    k1 = np.asarray(k1, dtype=float)
    k2 = np.asarray(k2, dtype=float)
    cos_d, cos_s = _int_cos(k1 - k2, a, b), _int_cos(k1 + k2, a, b)
    sin_d, sin_s = _int_sin(k1 - k2, a, b), _int_sin(k1 + k2, a, b)
    cc = 0.5 * (cos_d + cos_s)
    ss = 0.5 * (cos_d - cos_s)
    sc = 0.5 * (sin_s + sin_d)   # sin(k1 x) cos(k2 x)
    cs = 0.5 * (sin_s - sin_d)   # cos(k1 x) sin(k2 x)
    out = np.where(
        (kind1 == SIN) & (kind2 == SIN), ss,
        np.where((kind1 == COS) & (kind2 == COS), cc,
                 np.where((kind1 == SIN) & (kind2 == COS), sc, cs)))
    return out


def trig_pair_table(kinds, waves, a, b):
    """:func:`trig_pair_integral` on the distinct pairs of a descriptor list.

    Returns (table, index), ``table[index[i], index[j]]`` the integral of
    T_i T_j over [a, b], T_i given by ``kinds[i]`` and ``waves[i]``.  A basis
    repeats each (kind, wave) pair many times; every gathered entry is
    bit-identical to the broadcast call.
    """
    desc = np.column_stack((np.asarray(kinds), np.asarray(waves, dtype=float)))
    uniq, index = np.unique(desc, axis=0, return_inverse=True)
    ukind, uwave = uniq[:, 0].astype(int), uniq[:, 1]
    table = trig_pair_integral(ukind[:, None], uwave[:, None],
                               ukind[None, :], uwave[None, :], a, b)
    return table, index.reshape(-1)


def trig_eval(kind, k, x, deriv=0):
    """Evaluate d^deriv/dx^deriv of cos(kx) or sin(kx), elementwise."""
    kind = np.asarray(kind)
    k = np.asarray(k, dtype=float)
    x = np.asarray(x, dtype=float)
    phase = np.where(kind == COS, 0.5 * np.pi, 0.0)  # sin(kx + phase)
    return k ** deriv * np.sin(k * x + phase + deriv * 0.5 * np.pi)
