"""Reference window kernels of the control loop, for the tests.

``control.stage_gramian``, ``control.advance_window`` and
``control.window_observation`` run their exp chains in place over one
buffer.  The functions here are the plain expressions those kernels
replaced, with every intermediate a fresh array.  The package kernels keep
the same operations in the same order, and the memory order of each array
that feeds a GEMM or GEMV (gamma of ``window_observation`` is F-ordered at
every size, whatever order numpy's temporary elision would give it), so
their results must equal these bit for bit.
"""

import numpy as np

from stokesheat.control import _window_time_nodes
from stokesheat.hilbert import StateVector, check_gramian


def ref_exp_integral(lams_out, lams_in, w):
    """(1 - exp(-(a + b) w)) / (a + b) over the outer sum of rates."""
    s = np.add.outer(lams_out, lams_in)
    return -np.expm1(-s * w) / s


def ref_stage_gramian(basis, lam_cap, gramian, window):
    check_gramian(basis, gramian)
    idx = basis.low_indices(lam_cap)
    lams = basis.lambdas[idx]
    g = gramian.matrix[np.ix_(idx, idx)] * ref_exp_integral(lams, lams, window)
    return 0.5 * (g + g.T)


def ref_advance_window(state, segment, gramian):
    basis = state.basis
    check_gramian(basis, gramian)
    lams = basis.lambdas
    w = segment.window
    cols = gramian.matrix[:, segment.indices]
    forced = (cols * ref_exp_integral(lams, lams[segment.indices], w)) @ segment.amplitudes
    return StateVector(basis, state.coeffs * np.exp(-lams * w) - forced)


def ref_window_observation(state, segment, gramian):
    basis = state.basis
    m = check_gramian(basis, gramian).matrix
    lams = basis.lambdas
    w = segment.window
    t, wt = _window_time_nodes(w, float(lams.max()) if len(lams) else 1.0)
    lam_in = lams[segment.indices]
    # F order at every size, as the kernel builds it
    gamma = np.asfortranarray(
        (m[:, segment.indices] * segment.amplitudes) / np.add.outer(lams, lam_in))
    alpha = state.coeffs + gamma @ np.exp(-lam_in * w)
    traj = (np.exp(-np.outer(lams, t)) * alpha[:, None]
            - gamma @ np.exp(-np.outer(lam_in, w - t)))
    q = np.einsum("lt,lt->t", traj, m @ traj)
    return float(np.dot(wt, q))


REFERENCE_KERNELS = {
    "stage_gramian": ref_stage_gramian,
    "advance_window": ref_advance_window,
    "window_observation": ref_window_observation,
}
