"""Semi-analytic eigensolver for the coupled Stokes--heat operator on the
periodic strip Omega = (R/2piZ) x (0, 1).

For Fourier wavenumber k >= 1 the vertical velocity profile phi(x2) of an
eigenmode with eigenvalue lam solves the fourth-order ODE

    (D^2 - k^2)(D^2 - (k^2 - lam)) phi = 0

subject to

    phi(0) = 0,  phi'(0) = 0,  phi'(1) = 0,
    k^2 (k^2 - lam) phi(1) - phi'''(1) = 0,

where the last line is the heat/Ventcel balance on the top wall.  The
horizontal velocity profile is phi'/k (up to phase) by incompressibility and
the pressure profile is

    p(x2) = (phi''' + (lam - k^2) phi') / k^2

from the horizontal momentum balance.  The vanishing of the 4x4 boundary
determinant over the ODE's fundamental system is the sector's dispersion
relation; its roots are the sector eigenvalues.  This reduction was
validated against the independent finite-difference oracle in
``stokesheat.oracle`` (see tests), which is the trust anchor for all of it.

The operator is self-adjoint with the form int_Omega |grad u|^2 +
int_I |d eta/dx1|^2, so a unit-norm sector-k mode has
lam = k^2 + int_Omega |du/dx2|^2 > k^2.  Every k >= 1 evaluation therefore
lives on the oscillatory side lam > k^2 + guard (beta = sqrt(lam - k^2));
a lam at or below it raises DegenerateBranchError.

The k = 0 sector decouples: the vertical velocity and the boundary unknown
vanish and the horizontal velocity solves a Dirichlet Laplacian in x2, so
its modes are sin(n pi x2) with eigenvalue (n pi)^2.

The fundamental system is stored in the exponentially scaled form
{exp(-k x2), exp(k (x2-1)), cos(beta x2), sin(beta x2)} rather than
{cosh, sinh, ...}:
for k beyond ~18 the cosh/sinh representation loses all precision to
cancellation when the profile is evaluated near x2 = 1.
"""

import functools
import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .errors import (
    DegenerateBranchError,
    InvalidArgumentError,
    InvalidBracketError,
    MultiplicityError,
    NotAnEigenvalueError,
)
from .quadrature import COS, SIN, GAUSS_NODES_X2, gauss_legendre

TWO_PI = 2.0 * np.pi

OSCILLATORY = "oscillatory"
COSINE = "cosine"
SINE = "sine"

SCHEMA_VERSION = 1

# gates used by build_mode (ratios of singular values of the boundary matrix)
RESIDUAL_GATE = 1e-6
MULTIPLICITY_GATE = 1e-8

# origin of the sqrt(lambda) scan grid; only its points above k^2 + guard are
# evaluated, and the origin is kept so that every bracket stays the same
SCAN_SQRT_FLOOR = 1e-2

_PHASE_RANK = {COSINE: 0, SINE: 1, None: 0}


def degeneracy_tolerance(k):
    """Half-width of the guard interval around lam = k**2."""
    return 1e-8 * max(1.0, float(k) ** 2)


@dataclass(frozen=True)
class EigenMode:
    """One eigenmode, flat: the columns of :class:`ModeTable`.

    For k >= 1, ``c`` holds the four stream coefficients in the scaled
    fundamental system {exp(-k x2), exp(k (x2-1)), cos(beta x2), sin(beta x2)},
    beta = sqrt(lam - k^2) (every sector eigenvalue lies above k^2), and
    ``norm_factor`` scales them to unit norm.  A k = 0 mode is
    u = amplitude*(sin(n pi x2), 0).  A field that does not apply is zero.
    """

    k: int
    n: int
    lam: float
    phase: str          # "cosine" | "sine" for k >= 1, None for k = 0
    c: tuple
    norm_factor: float
    amplitude: float
    eta_trace: float    # amplitude of the boundary heat unknown


def sector_limit(cutoff):
    """max(1, ceil(sqrt(cutoff))): the least wavenumber whose sector has no
    eigenvalue <= cutoff, since every sector-k eigenvalue exceeds k**2."""
    return max(1, math.ceil(math.sqrt(cutoff)))


@dataclass
class EigenBasis:
    """Ordered orthonormal eigenmode collection up to a cutoff."""

    cutoff: float
    modes: tuple
    metadata: dict

    def __len__(self):
        return len(self.modes)

    @property
    def k_range(self):
        """The first wavenumber with no mode: :func:`sector_limit` of the
        cutoff."""
        return sector_limit(self.cutoff)

    @functools.cached_property
    def table(self):
        """The modes as a :class:`ModeTable`, built on first use."""
        return ModeTable(self.modes)

    @property
    def lambdas(self):
        return self.table.lam

    @functools.cached_property
    def basis_id(self):
        h = hashlib.sha256()
        h.update(repr((self.cutoff, self.k_range)).encode())
        for m in self.modes:
            h.update(repr(m).encode())
        return h.hexdigest()

    def low_indices(self, lam_cap):
        """Indices of the modes with lambda <= lam_cap.  A cap above the
        cutoff is rejected: the modes past it are missing, so any result for
        it would silently be the cutoff's."""
        if lam_cap > self.cutoff:
            raise InvalidArgumentError(
                f"lam_cap {lam_cap!r} exceeds the basis cutoff {self.cutoff!r}")
        return np.nonzero(self.lambdas <= lam_cap)[0]


def require_oscillatory(k, lam):
    """Raise DegenerateBranchError unless lam > k**2 + guard, the only side
    of k**2 a sector-k eigenvalue lies on."""
    if not lam > k * k + degeneracy_tolerance(k):
        raise DegenerateBranchError(
            f"lambda={lam!r} is not above k^2={k * k} and its degeneracy guard")


def _boundary_matrix(k, lam):
    """Row-normalized 4x4 boundary condition matrix of the stream ODE.

    The fundamental system's values at x2 = 0 and 1 are written out from
    one numpy exp of -k (math.exp may round differently), one cos and one
    sin of the four trig arguments, and powers on Python floats (C pow).
    Each entry repeats the arithmetic of the per-point reference evaluator,
    so the matrix is bit for bit ``ref_boundary_matrix`` of
    ``tests/mode_reference.py``.  lam must lie above k**2.
    """
    kk = float(k)
    b = math.sqrt(lam - kk * kk)
    (ek,) = np.exp([-kk]).tolist()
    args = np.array([b * 0.0 + 1 * 0.5 * np.pi, b * 1.0 + 1 * 0.5 * np.pi,
                     b * 1.0 + 0 * 0.5 * np.pi, b * 1.0 + 3 * 0.5 * np.pi])
    c01, c11, c10, c13 = np.cos(args).tolist()
    s01, s11, s10, s13 = np.sin(args).tolist()
    # v00, d01, d11, v10, d13: solutions 3 and 4 at (x2, derivative order)
    # (0, 0), (0, 1), (1, 1), (1, 0) and (1, 3)
    v00, d01, d11, v10, d13 = ((1.0, 0.0), (b * c01, b * s01),
                               (b * c11, b * s11), (c10, s10),
                               (b ** 3 * c13, b ** 3 * s13))
    coef = k * k * (k * k - lam)
    rows = np.array([
        (1.0, ek) + v00,
        (-kk, kk * ek) + d01,
        (-kk * ek, kk) + d11,
        (coef * ek - (-kk) ** 3 * ek, coef - kk ** 3,
         coef * v10[0] - d13[0], coef * v10[1] - d13[1]),
    ])
    scale = np.abs(rows).max(axis=1, keepdims=True)
    return rows / scale


def dispersion(k, lam):
    """Scaled boundary determinant whose zeros in lam are the sector's
    eigenvalues.

    Row normalization keeps the value in a floating-friendly range for
    k <= 64, lam <= 1e6.  Only k >= 1 is accepted; the -k sector carries the
    same eigenvalues and is represented by the sine phase of the real basis.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise InvalidArgumentError(f"wavenumber k must be an integer >= 1, got {k!r}")
    if not lam > 0:
        raise InvalidArgumentError(f"lambda must be positive, got {lam!r}")
    require_oscillatory(k, lam)
    return float(np.linalg.det(_boundary_matrix(k, lam)))


def _powers(values, deriv):
    """``values ** deriv`` on Python floats (C ``pow``), which numpy's power
    may round differently in the last bit; powers 0 and 1 are exact."""
    values = np.asarray(values, dtype=float)
    if deriv <= 1:
        return values if deriv == 1 else np.ones(values.shape)
    return np.array([v ** deriv for v in values.ravel().tolist()]).reshape(values.shape)


def _fundamental_rows(k, beta, x, deriv):
    """The fundamental system at many (k, lam), shape (len(beta), 4, len(x)),
    bit for bit the per-point reference ``_fundamental`` of
    ``tests/mode_reference.py`` (which also holds the reference
    ``ref_boundary_matrix`` and ``ref_stream_norm``): row i has
    ``beta[i]`` = sqrt(lam - k**2) and integer wavenumber ``k[i]``, or
    ``k[0]`` if ``k`` has one entry."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    kk, b_col = np.asarray(k, dtype=float)[:, None], beta[:, None]
    rows = np.empty((len(beta), 4, len(x)))
    rows[:, 0] = _powers(-kk, deriv) * np.exp(-kk * x)
    rows[:, 1] = _powers(kk, deriv) * np.exp(kk * (x - 1.0))
    b_pow = _powers(b_col, deriv)
    rows[:, 2] = b_pow * np.cos(b_col * x + deriv * 0.5 * np.pi)
    rows[:, 3] = b_pow * np.sin(b_col * x + deriv * 0.5 * np.pi)
    return rows


def _boundary_matrices(k, lams):
    """Stack of ``_boundary_matrix(k, lam)`` over an array of lams, (N,4,4).

    Every lam must lie above k**2, where the sector's spectrum lies; the
    entries repeat the scalar builder's arithmetic elementwise, so the scan
    sees the same determinants bit for bit.
    """
    lams = np.asarray(lams, dtype=float)
    beta = np.sqrt(lams - float(k) * float(k))

    def fund(x, deriv):
        return _fundamental_rows([k], beta, x, deriv)[:, :, 0]

    mats = np.empty((len(lams), 4, 4))
    mats[:, 0] = fund(0.0, 0)
    mats[:, 1] = fund(0.0, 1)
    mats[:, 2] = fund(1.0, 1)
    mats[:, 3] = (k * k * (k * k - lams))[:, None] * fund(1.0, 0) - fund(1.0, 3)
    return mats / np.abs(mats).max(axis=2, keepdims=True)


def _dispersion_grid(k, lams):
    return np.linalg.det(_boundary_matrices(k, lams))


def bracket_roots(k, lam_max, density=16):
    """Sign-change brackets of the dispersion relation in (0, lam_max].

    The scan grid is uniform in sqrt(lambda) (sector eigenvalue spacing is
    asymptotically uniform there) with ``density`` samples per unit from
    ``SCAN_SQRT_FLOOR``.  Only its points above k**2 and the guard interval
    around it are evaluated: every sector-k eigenvalue exceeds k**2 (module
    docstring), so no bracket lies below.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise InvalidArgumentError(f"wavenumber k must be an integer >= 1, got {k!r}")
    if not lam_max > 0:
        raise InvalidArgumentError("lam_max must be positive")
    if density < 4:
        raise InvalidArgumentError("density must be >= 4")
    s_hi = math.sqrt(lam_max)
    if s_hi <= SCAN_SQRT_FLOOR:
        return []
    step = 1.0 / density
    grid = np.arange(SCAN_SQRT_FLOOR, s_hi, step)
    if len(grid) == 0 or grid[-1] < s_hi:
        grid = np.append(grid, s_hi)
    lams = grid[grid * grid > k * k + degeneracy_tolerance(k)] ** 2
    if len(lams) < 2:
        return []
    vals = _dispersion_grid(k, lams)
    # nudge exact zeros off the grid so sign logic stays two-valued
    for i in np.nonzero(vals == 0.0)[0]:
        lams[i] *= 1.0 + 1e-9
        vals[i] = np.linalg.det(_boundary_matrix(k, lams[i]))
    flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    return [(lams[i], lams[i + 1]) for i in flips]


def _negative(value):
    """C's ``signbit``: True for negative numbers and for -0.0."""
    return math.copysign(1.0, value) < 0


def _brentq(f, xa, xb, xtol, rtol, maxiter=100):
    """A root of ``f`` in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of scipy's ``Zeros/brentq.c``: the same steps in
    the same floating-point operations, so the root and the points ``f`` is
    called at are bit for bit those of ``scipy.optimize.brentq(f, xa, xb,
    xtol, rtol, maxiter)``.  xpre is the previous iterate, xcur the current
    one, and xblk the contrapoint on the other side of the sign change.
    """
    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise InvalidBracketError(f"the function is NaN at {x!r}")
        return fx

    xpre, xcur = xa, xb
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _negative(fpre) == _negative(fcur):
        raise InvalidBracketError(f"no sign change over ({xa!r}, {xb!r})")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _negative(fpre) != _negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                try:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
                except ZeroDivisionError:  # C's step is inf or NaN: bisect
                    stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise NotAnEigenvalueError(
        f"no root of ({xa!r}, {xb!r}) resolved after {maxiter} iterations; "
        f"last iterate {xcur!r}")


def refine_root(k, bracket, tol=1e-12):
    """Refine a dispersion bracket to relative enclosure width <= tol.

    The root, and every lam ``dispersion`` is called at, are bit for bit
    those of ``scipy.optimize.brentq`` with ``xtol = tol*lo`` and
    ``rtol = max(tol, 4*eps)``.  A bracket without a sign change, or a NaN
    dispersion value, raises InvalidBracketError; a refinement that does not
    close within 100 iterations raises NotAnEigenvalueError.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0 < lo < hi:
        raise InvalidBracketError(f"bad bracket ({lo!r}, {hi!r})")
    if not tol > 0:
        raise InvalidArgumentError(f"tol must be positive, got {tol!r}")
    rtol = max(tol, 4 * np.finfo(float).eps)
    # the endpoint evaluations are the sign check; the lambda looks up
    # dispersion at call time, so a rebound dispersion sees every call
    return _brentq(lambda lam: dispersion(k, lam), lo, hi, tol * lo, rtol)


# _stream_norm's read-only x2 Gauss rule: the nodes, then the top wall x2 = 1
_NORM_X, _NORM_W = gauss_legendre(GAUSS_NODES_X2, 0.0, 1.0)
_NORM_X = np.append(_NORM_X, 1.0)
_NORM_X.flags.writeable = _NORM_W.flags.writeable = False


def _stream_norm(k, lam, c):
    """H-norm of the unnormalized mode pair built from stream coefficients,
    and phi(1).

    phi and phi' at the x2 Gauss nodes and phi at x2 = 1 come from one set
    of exponentials, cosines and sines.  Each value repeats the arithmetic
    of the per-point reference evaluator, so both results are bit for bit
    ``ref_stream_norm`` and phi(1) of ``tests/mode_reference.py``.  lam must
    lie above k**2.
    """
    x, w = _NORM_X, _NORM_W
    kk = float(k)
    val, der = np.empty((4, len(x))), np.empty((4, len(x)))
    val[0] = np.exp(-kk * x)
    val[1] = np.exp(kk * (x - 1.0))
    der[0], der[1] = -kk * val[0], kk * val[1]
    b = math.sqrt(lam - kk * kk)
    args = b * x + np.array([[0 * 0.5 * np.pi], [1 * 0.5 * np.pi]])
    (val[2], c1), (val[3], s1) = np.cos(args), np.sin(args)
    der[2], der[3] = b * c1, b * s1
    phi, dphi = c @ val[:, :-1], c @ der[:, :-1]
    # a contiguous copy: a strided dot may add the four terms in another order
    phi1 = float(c @ val[:, -1].copy())
    return math.sqrt(np.pi * (np.dot(w, (dphi / k) ** 2 + phi ** 2) + phi1 ** 2)), phi1


def build_mode(k, lam, phase, n=0):
    """Assemble a unit-norm eigenmode at a refined dispersion root.

    The stream coefficients are the smallest singular direction of the
    boundary matrix; the smallest singular value acts as the residual gate
    and the second smallest as the multiplicity gate.
    """
    if phase not in (COSINE, SINE):
        raise InvalidArgumentError(f"phase must be 'cosine' or 'sine', got {phase!r}")
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise InvalidArgumentError(f"wavenumber k must be an integer >= 1, got {k!r}")
    require_oscillatory(k, lam)
    mat = _boundary_matrix(k, lam)
    _, sing, vt = np.linalg.svd(mat)
    if sing[3] > RESIDUAL_GATE * sing[0]:
        raise NotAnEigenvalueError(
            f"boundary matrix residual {sing[3] / sing[0]:.3e} exceeds gate at "
            f"(k={k}, lambda={lam!r})")
    if sing[2] <= MULTIPLICITY_GATE * sing[0]:
        raise MultiplicityError(
            f"nullspace dimension >= 2 at (k={k}, lambda={lam!r}); "
            "no splitting convention is defined")
    c = vt[3]
    pivot = int(np.argmax(np.abs(c)))
    if c[pivot] < 0:
        c = -c
    norm, phi1 = _stream_norm(k, lam, c)
    nf = 1.0 / norm
    return EigenMode(k=int(k), n=int(n), lam=float(lam), phase=phase,
                     c=tuple(float(v) for v in c), norm_factor=nf,
                     amplitude=0.0, eta_trace=phi1 * nf)


def zero_mode(n):
    """The k = 0 mode u = (sin(n pi x2), 0)/sqrt(pi), eta = 0, p = 0."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise InvalidArgumentError(f"n must be a positive integer, got {n!r}")
    lam = float(n * np.pi) ** 2
    amp = 1.0 / math.sqrt(np.pi)
    return EigenMode(k=0, n=int(n), lam=lam, phase=None, c=(0.0,) * 4,
                     norm_factor=0.0, amplitude=amp, eta_trace=0.0)


class ModeTable:
    """The modes of a basis as read-only arrays, evaluated all at once.

    Row j holds ``modes[j]``'s k, n, lam, phase (``sine``), stream ``c``
    and ``norm_factor``, k = 0 ``amplitude`` and ``eta_trace`` (zero where a
    field does not apply).
    This is the only evaluator of mode fields.
    """

    def __init__(self, modes):
        def col(get, dtype=float):
            arr = np.array([get(m) for m in modes], dtype=dtype)
            arr.setflags(write=False)
            return arr

        self.k = col(lambda m: m.k, int)
        self.n = col(lambda m: m.n, int)
        self.lam = col(lambda m: m.lam)
        self.sine = col(lambda m: m.phase == SINE, bool)
        self.c = col(lambda m: m.c).reshape(-1, 4)
        self.norm_factor = col(lambda m: m.norm_factor)
        self.amplitude = col(lambda m: m.amplitude)
        self.eta_trace = col(lambda m: m.eta_trace)

    def x1_trig(self, component):
        """(kinds, waves) of every mode's x1 factor for ``component`` ("u1",
        "u2", "p" or "eta"); a k = 0 mode's factor is the constant cos(0)."""
        cos_phase = self.sine if component == "u1" else ~self.sine
        return np.where(cos_phase | (self.k == 0), COS, SIN), self.k.astype(float)

    def _stream(self, x2, deriv):
        """d^deriv phi / dx2^deriv of the k >= 1 rows, normalized."""
        st = self.k > 0
        k = self.k[st]
        rows = _fundamental_rows(k, np.sqrt(self.lam[st] - k.astype(float) * k),
                                 x2, deriv)
        # the stacked matmul reproduces a single mode's tensordot bit for bit,
        # einsum does not
        vals = np.matmul(self.c[st][:, None, :], rows)[:, 0, :]
        return vals * self.norm_factor[st][:, None]

    def profiles(self, x2, component, deriv=0):
        """x2 factors of ``component`` for every mode at the points ``x2``,
        shape (n_modes, len(x2)), normalization and phase sign included."""
        x2 = np.atleast_1d(np.asarray(x2, dtype=float))
        out = np.zeros((len(self.k), len(x2)))
        zero, st = self.k == 0, self.k > 0
        k = self.k[st]
        if component == "u1":
            npi = self.n[zero] * np.pi
            out[zero] = ((self.amplitude[zero] * _powers(npi, deriv))[:, None]
                         * np.sin(npi[:, None] * x2 + deriv * 0.5 * np.pi))
            sign = np.where(self.sine[st], 1.0, -1.0) / k
            out[st] = sign[:, None] * self._stream(x2, deriv + 1)
        elif component == "u2":
            out[st] = self._stream(x2, deriv)
        elif component == "p":
            out[st] = ((self._stream(x2, deriv + 3)
                        + (self.lam[st] - k * k)[:, None] * self._stream(x2, deriv + 1))
                       / (k * k)[:, None])
        else:
            raise InvalidArgumentError(f"unknown component {component!r}")
        return out


def sector_eigenvalues(k, lam_max, density=16, tol=1e-12):
    """All eigenvalues of sector k in (0, lam_max], refined and sorted."""
    return sorted(refine_root(k, br, tol) for br in bracket_roots(k, lam_max, density))


def _sector_modes(k, lam_max, density, tol):
    modes = []
    for n, lam in enumerate(sector_eigenvalues(k, lam_max, density, tol), start=1):
        modes.append(build_mode(k, lam, COSINE, n=n))
        modes.append(build_mode(k, lam, SINE, n=n))
    return modes


def build_settings(lam_max, density, tol):
    """The build settings :func:`assemble_basis` records in a basis's
    metadata; a cache is reusable only where they match."""
    return {
        "schema_version": SCHEMA_VERSION,
        "lambda_max": float(lam_max),
        "scan_density": int(density),
        "refine_tol": float(tol),
        "residual_gate": RESIDUAL_GATE,
        "multiplicity_gate": MULTIPLICITY_GATE,
        "gauss_nodes_x2": GAUSS_NODES_X2,
    }


def assemble_basis(lam_max, *, density=16, tol=1e-12, threads=1):
    """Gather every eigenmode with lambda <= lam_max into an ordered basis.

    The cutoff alone fixes the sectors: k = 1 .. sector_limit(lam_max) - 1
    are scanned, and no later sector has an eigenvalue <= lam_max, because
    every sector-k eigenvalue exceeds k**2 (a bound the tests check against
    the oracle).  Sector scans may run on ``threads`` workers; the merge is
    a deterministic sort, so the result is independent of the parallelism.
    """
    if not lam_max > 0:
        raise InvalidArgumentError("lam_max must be positive")
    modes = []
    n = 1
    while (n * np.pi) ** 2 <= lam_max:
        modes.append(zero_mode(n))
        n += 1
    sectors = range(1, sector_limit(lam_max))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(
                lambda k: _sector_modes(k, lam_max, density, tol), sectors))
    else:
        results = [_sector_modes(k, lam_max, density, tol) for k in sectors]
    for sector in results:
        modes.extend(sector)
    modes.sort(key=lambda m: (m.lam, m.k, _PHASE_RANK[m.phase]))
    metadata = {**build_settings(lam_max, density, tol),
                "built_utc": datetime.now(timezone.utc).isoformat()}
    return EigenBasis(cutoff=float(lam_max), modes=tuple(modes),
                      metadata=metadata)
