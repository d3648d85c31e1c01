"""Modal operators on states that only the tests call.

No command, demo or solver of the package needs them as functions.  The
tests use them to check the modal calculus directly: the Parseval inner
product against a field quadrature, the projection onto the low modes, and
the forcing of a modal control through the observation Gramian.
"""

import numpy as np

from stokesheat.errors import InvalidArgumentError
from stokesheat.hilbert import StateVector


def _check_same_basis(x, y):
    if x.basis.basis_id != y.basis.basis_id:
        raise InvalidArgumentError("states live on different bases")


def inner(x, y):
    """H inner product; Parseval over the orthonormal basis."""
    _check_same_basis(x, y)
    return float(np.dot(x.coeffs, y.coeffs))


def project(x, lam_cap):
    """Orthogonal projection onto the span of modes with lambda <= lam_cap."""
    idx = x.basis.low_indices(lam_cap)
    a = np.zeros_like(x.coeffs)
    a[idx] = x.coeffs[idx]
    return StateVector(x.basis, a)


def apply_B(gramian, g, indices):
    """Forcing coefficients of a modal control supported on ``indices``.

    With f = sum_j g_j u_j restricted to the region, mode l is forced by
    (M g)_l; linear in g and extended over the full basis.
    """
    m = gramian.matrix
    g = np.asarray(g, dtype=float)
    idx = np.asarray(indices, dtype=int)
    if g.shape != idx.shape:
        raise InvalidArgumentError("control coefficients and index set differ in length")
    if len(idx) and (idx.min() < 0 or idx.max() >= m.shape[0]):
        raise InvalidArgumentError("control index outside the basis")
    return m[:, idx] @ g
