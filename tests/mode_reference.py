"""Per-mode reference evaluator of eigenmode fields, for the tests.

The package evaluates modes only through ``EigenBasis.table`` (a
:class:`stokesheat.spectral.ModeTable`).  These functions evaluate one mode
at a time with the single-mode arithmetic the table must reproduce bit for
bit (the stream coefficients contracted by ``tensordot``), and back the
brute-force quadratures the Gramian tests compare against.
:func:`ref_sampled_velocity_factor` is the sample-matrix QR that
``hilbert.sampled_velocity_factor`` replaced, the reference for its factor
and for the full-stack checks of the specineq and observe values.

:func:`_fundamental` is the generic per-point evaluator of the fundamental
system that ``spectral`` used before its boundary matrix and mode norm were
written out.  :func:`ref_boundary_matrix` and :func:`ref_stream_norm` are
those two builders on top of it, which ``spectral._boundary_matrix`` and
``spectral._stream_norm`` must match bit for bit, and :func:`ref_build_mode`
assembles a mode from them as ``spectral.build_mode`` does.  It keeps the
evanescent branch lam < k^2 that ``spectral`` no longer evaluates, so that
the tests can show no sector eigenvalue lies there;
:func:`ref_boundary_matrices` is the same boundary matrix over an array of
lams on both branches, bit for bit, for scans of that branch.
"""

import math

import numpy as np

from stokesheat.errors import InvalidArgumentError
from stokesheat.hilbert import StateVector
from stokesheat.quadrature import (COS, GAUSS_NODES_X2, SIN, gauss_legendre,
                                   trig_eval)
from stokesheat.spectral import COSINE, TWO_PI, EigenMode


def _fundamental(k, lam, x, deriv):
    """Values of d^deriv/dx^deriv of the four fundamental solutions at x.

    Returns an array of shape (4,) + shape(x).
    """
    x = np.asarray(x, dtype=float)
    kk = float(k)
    rows = np.empty((4,) + x.shape)
    rows[0] = (-kk) ** deriv * np.exp(-kk * x)
    rows[1] = kk ** deriv * np.exp(kk * (x - 1.0))
    if lam > kk * kk:
        b = math.sqrt(lam - kk * kk)
        rows[2] = b ** deriv * np.cos(b * x + deriv * 0.5 * np.pi)
        rows[3] = b ** deriv * np.sin(b * x + deriv * 0.5 * np.pi)
    else:
        mu = math.sqrt(kk * kk - lam)
        rows[2] = (-mu) ** deriv * np.exp(-mu * x)
        rows[3] = mu ** deriv * np.exp(mu * (x - 1.0))
    return rows


def ref_boundary_matrix(k, lam):
    """Row-normalized 4x4 boundary condition matrix of the stream ODE."""
    rows = np.empty((4, 4))
    rows[0] = _fundamental(k, lam, 0.0, 0)
    rows[1] = _fundamental(k, lam, 0.0, 1)
    rows[2] = _fundamental(k, lam, 1.0, 1)
    rows[3] = (k * k * (k * k - lam) * _fundamental(k, lam, 1.0, 0)
               - _fundamental(k, lam, 1.0, 3))
    scale = np.abs(rows).max(axis=1, keepdims=True)
    return rows / scale


def _py_powers(values, deriv):
    """``v ** deriv`` per entry on Python floats, the C ``pow`` that
    :func:`_fundamental` takes on a scalar (numpy's power may round the
    last bit differently)."""
    return np.array([v ** deriv for v in np.asarray(values, float).tolist()])


def _fundamental_at(k, lams, x, deriv):
    """:func:`_fundamental` at one point x for many lam, shape (len(lams), 4):
    each row repeats the scalar arithmetic elementwise on its own branch."""
    lams = np.asarray(lams, dtype=float)
    x = np.asarray(x, dtype=float)
    kk = float(k)
    rows = np.empty((len(lams), 4))
    rows[:, 0] = (-kk) ** deriv * np.exp(-kk * x)
    rows[:, 1] = kk ** deriv * np.exp(kk * (x - 1.0))
    osc = lams > kk * kk
    b = np.sqrt(lams[osc] - kk * kk)
    b_pow = _py_powers(b, deriv)
    rows[osc, 2] = b_pow * np.cos(b * x + deriv * 0.5 * np.pi)
    rows[osc, 3] = b_pow * np.sin(b * x + deriv * 0.5 * np.pi)
    mu = np.sqrt(kk * kk - lams[~osc])
    rows[~osc, 2] = _py_powers(-mu, deriv) * np.exp(-mu * x)
    rows[~osc, 3] = _py_powers(mu, deriv) * np.exp(mu * (x - 1.0))
    return rows


def ref_boundary_matrices(k, lams):
    """Stack of :func:`ref_boundary_matrix` over an array of lams, (N, 4, 4),
    on both branches, bit for bit."""
    lams = np.asarray(lams, dtype=float)
    mats = np.empty((len(lams), 4, 4))
    mats[:, 0] = _fundamental_at(k, lams, 0.0, 0)
    mats[:, 1] = _fundamental_at(k, lams, 0.0, 1)
    mats[:, 2] = _fundamental_at(k, lams, 1.0, 1)
    mats[:, 3] = ((k * k * (k * k - lams))[:, None] * _fundamental_at(k, lams, 1.0, 0)
                  - _fundamental_at(k, lams, 1.0, 3))
    return mats / np.abs(mats).max(axis=2, keepdims=True)


def ref_stream_norm(k, lam, c):
    """H-norm of the unnormalized mode pair built from stream coefficients."""
    x, w = gauss_legendre(GAUSS_NODES_X2, 0.0, 1.0)
    phi = c @ _fundamental(k, lam, x, 0)
    dphi = c @ _fundamental(k, lam, x, 1)
    phi1 = float(c @ _fundamental(k, lam, 1.0, 0))
    return math.sqrt(np.pi * (np.dot(w, (dphi / k) ** 2 + phi ** 2) + phi1 ** 2))


def ref_build_mode(k, lam, phase, n=0):
    """``spectral.build_mode`` at a root, from the reference boundary matrix
    and mode norm: the smallest singular direction, its largest entry made
    positive, scaled to unit norm."""
    _, _, vt = np.linalg.svd(ref_boundary_matrix(k, lam))
    c = vt[3]
    if c[int(np.argmax(np.abs(c)))] < 0:
        c = -c
    nf = 1.0 / ref_stream_norm(k, lam, c)
    phi1 = float(np.asarray(c) @ _fundamental(k, lam, 1.0, 0))
    return EigenMode(k=int(k), n=int(n), lam=float(lam), phase=phase,
                     c=tuple(float(v) for v in c), norm_factor=nf,
                     amplitude=0.0, eta_trace=phi1 * nf)


def stream_eval(mode, x2, deriv=0):
    """d^deriv phi / dx2^deriv of a k >= 1 mode from its stored coefficients,
    normalized."""
    c = np.asarray(mode.c)
    rows = _fundamental(mode.k, mode.lam, np.asarray(x2, float), deriv)
    return np.tensordot(c, rows, axes=(0, 0)) * mode.norm_factor


def mode_x1_trig(mode, component):
    """(kind, wavenumber) of the x1 factor of a field component.

    ``component`` is one of "u1", "u2", "p", "eta".  For k = 0 the u1 factor
    is the constant 1 and the others vanish identically (their profile
    factor is zero).
    """
    if mode.k == 0:
        return (COS, 0)
    if component == "u1":
        return (SIN, mode.k) if mode.phase == COSINE else (COS, mode.k)
    return (COS, mode.k) if mode.phase == COSINE else (SIN, mode.k)


def mode_profile(mode, x2, component, deriv=0):
    """x2-dependent factor of a field component, derivative order ``deriv``.

    The factor includes the mode's normalization and phase sign, so a field
    value is  profile(x2) * trig(x1)  with the trig factor from
    :func:`mode_x1_trig`.
    """
    x2 = np.asarray(x2, dtype=float)
    if mode.k == 0:
        if component == "u1":
            npi = mode.n * np.pi
            return mode.amplitude * npi ** deriv * np.sin(npi * x2 + deriv * 0.5 * np.pi)
        return np.zeros(x2.shape)
    k = mode.k
    if component == "u1":
        sign = -1.0 if mode.phase == COSINE else 1.0
        return sign / k * stream_eval(mode, x2, deriv + 1)
    if component == "u2":
        return stream_eval(mode, x2, deriv)
    if component == "p":
        return (stream_eval(mode, x2, deriv + 3)
                + (mode.lam - k * k) * stream_eval(mode, x2, deriv + 1)) / k ** 2
    raise InvalidArgumentError(f"unknown component {component!r}")


def eval_mode(mode, x1, x2):
    """Pointwise field values (u1, u2, p, eta) of a mode.

    Exact analytic evaluation; accepts scalars or broadcastable arrays with
    x1 in [0, 2pi) and x2 in [0, 1].
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if np.any(x1 < 0) or np.any(x1 >= TWO_PI):
        raise InvalidArgumentError("x1 must lie in [0, 2*pi)")
    if np.any(x2 < 0) or np.any(x2 > 1):
        raise InvalidArgumentError("x2 must lie in [0, 1]")
    t1 = trig_eval(*mode_x1_trig(mode, "u1"), x1)
    t2 = trig_eval(*mode_x1_trig(mode, "u2"), x1)
    u1 = mode_profile(mode, x2, "u1") * t1
    u2 = mode_profile(mode, x2, "u2") * t2
    p = mode_profile(mode, x2, "p") * t2
    eta = mode.eta_trace * t2
    return u1, u2, p, eta


def basis_state(basis, j):
    """The unit state of mode j."""
    a = np.zeros(len(basis))
    a[j] = 1.0
    return StateVector(basis, a)


def ref_sampled_velocity_factor(basis, indices, region):
    """Upper-triangular R with R^T R = M on ``indices``: the QR of the dense
    matrix of velocity samples times square-root weights at the tensor
    Gauss points of ``region``, 2 * nodes_x1 * GAUSS_NODES_X2 rows."""
    a1, b1 = region.x1
    k_max = max((basis.modes[j].k for j in indices), default=1)
    nodes_x1 = max(64, int(math.ceil(0.75 * k_max * (b1 - a1))) + 32)
    x1, w1 = gauss_legendre(nodes_x1, a1, b1)
    x2, w2 = gauss_legendre(GAUSS_NODES_X2, *region.x2)
    sqw = np.sqrt(np.outer(w1, w2))
    rows = []
    for comp in ("u1", "u2"):
        tab = np.empty((len(indices), nodes_x1, GAUSS_NODES_X2))
        for col, j in enumerate(indices):
            mode = basis.modes[j]
            kind, wav = mode_x1_trig(mode, comp)
            tab[col] = np.outer(trig_eval(kind, wav, x1),
                                mode_profile(mode, x2, comp))
        tab *= sqw[None, :, :]
        rows.append(tab.reshape(len(indices), -1).T)
    return np.linalg.qr(np.vstack(rows), mode="r")
