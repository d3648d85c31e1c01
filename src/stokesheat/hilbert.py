"""Modal representation of states, the semigroup, observation Gramians and
their square-root factors, and eigenbasis persistence.

All evolution and all inner products are modal: a state is a coefficient
vector over an orthonormal eigenbasis, the semigroup is a diagonal
exponential, and observation quantities reduce to the modal Gramian
M[j, l] = integral over the observation rectangle of u_j . u_l, assembled
with closed-form x1 integrals and Gauss-Legendre quadrature in x2.
"""

import contextlib
import ctypes
import functools
import glob
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    BasisFormatError,
    BasisVersionError,
    DegenerateBranchError,
    InvalidArgumentError,
)
from .quadrature import (
    COS,
    GAUSS_NODES_X2,
    SIN,
    gauss_legendre,
    trig_eval,
    trig_pair_matrix,
)
from .spectral import (
    COSINE,
    OSCILLATORY,
    SCHEMA_VERSION,
    SINE,
    EigenBasis,
    EigenMode,
    TWO_PI,
    require_oscillatory,
    zero_mode,
)


@dataclass(frozen=True)
class ObservationRegion:
    """Axis-aligned observation/control rectangle omega.

    Proper observation regions are strictly inside the strip in x2; the
    closed endpoints are accepted so the full strip can be used for the
    Parseval-split identity M(Omega) + N = I, where the quadrature is still
    exact.
    """

    x1: tuple
    x2: tuple

    def __post_init__(self):
        a1, b1 = self.x1
        a2, b2 = self.x2
        if not (0.0 <= a1 < b1 <= TWO_PI):
            raise InvalidArgumentError(
                f"x1 interval must satisfy 0 <= a < b <= 2*pi, got {self.x1!r}")
        if not (0.0 <= a2 < b2 <= 1.0):
            raise InvalidArgumentError(
                f"x2 interval must satisfy 0 <= a < b <= 1, got {self.x2!r}")

    @property
    def area(self):
        return (self.x1[1] - self.x1[0]) * (self.x2[1] - self.x2[0])


FULL_REGION = ObservationRegion(x1=(0.0, TWO_PI), x2=(0.0, 1.0))


@dataclass(frozen=True)
class StateVector:
    """Element of the state space as coefficients over an eigenbasis."""

    basis: EigenBasis
    coeffs: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.coeffs, dtype=float)
        if a.shape != (len(self.basis),):
            raise InvalidArgumentError(
                f"coefficient length {a.shape} does not match basis size "
                f"{len(self.basis)}")
        object.__setattr__(self, "coeffs", a)


@dataclass(frozen=True)
class ModalGramian:
    basis_id: str
    matrix: np.ndarray


def check_gramian(basis, gramian):
    """Reject a Gramian that was assembled on a different basis."""
    if gramian.basis_id != basis.basis_id:
        raise InvalidArgumentError(
            "observation Gramian was assembled on a different basis")
    return gramian


def norm(x):
    return float(np.linalg.norm(x.coeffs))


def semigroup(x, t):
    """Heat semigroup: coefficient j decays by exp(-lambda_j t)."""
    if t < 0:
        raise InvalidArgumentError(f"time must be nonnegative, got {t!r}")
    return StateVector(x.basis, x.coeffs * np.exp(-x.basis.lambdas * t))


def obs_gramian(basis, region):
    """Velocity observation Gramian M[j, l] = int_omega u_j . u_l dx."""
    x2, w2 = gauss_legendre(GAUSS_NODES_X2, *region.x2)
    tab = basis.table
    m = np.zeros((len(basis), len(basis)))
    for comp in ("u1", "u2"):
        vals = tab.profiles(x2, comp)
        m += trig_pair_matrix(*tab.x1_trig(comp), *region.x1) * ((vals * w2) @ vals.T)
    m = 0.5 * (m + m.T)
    m.setflags(write=False)
    return ModalGramian(basis_id=basis.basis_id, matrix=m)


def sampled_velocity_factor(basis, indices, region):
    """Upper-triangular factor R with R^T R = M on the given index set.

    R is the QR compression of the cancellation-free matrix of velocity
    samples at tensor quadrature points of the region (entries are plain
    function values times square-root weights).  Its small singular values
    resolve near-dependences of the restricted modes far below what an
    eigendecomposition of the assembled Gramian can see, which is what the
    spectral-inequality and observability solvers need.

    The sample matrix is never formed: per component, column l is
    kron(sqrt(w1) trig_l(x1), sqrt(w2) profile_l(x2)), so the x1 factor is
    cut to its eps-rank rows and :func:`stacked_factor_r` stacks them over
    the x2 nodes (at most 868 rows in the README runs, not 8192).
    """
    idx = np.asarray(indices, dtype=int)
    tab = basis.table
    a1, b1 = region.x1
    nodes_x1 = max(64, math.ceil(0.75 * tab.k[idx].max(initial=1) * (b1 - a1)) + 32)
    x1, w1 = gauss_legendre(nodes_x1, a1, b1)
    x2, w2 = gauss_legendre(GAUSS_NODES_X2, *region.x2)
    rows = []
    for comp in ("u1", "u2"):
        kinds, waves = tab.x1_trig(comp)
        trig = trig_eval(kinds[idx, None], waves[idx, None], x1)
        trig_rows = _eps_rank_rows(np.sqrt(w1)[:, None] * trig.T)
        rows.append(stacked_factor_r(trig_rows, np.sqrt(w2),
                                     tab.profiles(x2, comp)[idx].T))
    return np.linalg.qr(np.vstack(rows), mode="r")


def _eps_rank_rows(a):
    """Rows S_k V_k^T D whose Gram matrix is a^T a to eps relative per column:
    D the column norms of a, a D^-1 = U S V^T (taken from R_a D^-1, R_a the
    QR factor of a, which has the same S and V), s_k > eps * s_1."""
    d = np.linalg.norm(a, axis=0)
    d[d == 0.0] = 1.0     # a zero column stays zero
    _, sv, vt = np.linalg.svd(np.linalg.qr(a, mode="r") / d, full_matrices=False)
    keep = sv > np.finfo(float).eps * sv[0]
    return sv[keep, None] * vt[keep] * d


@functools.cache
def _openblas_threads_api():
    """(get, set) of the thread count of the OpenBLAS numpy is linked to, or
    None where that library or either symbol is missing (another BLAS,
    another wheel).  numpy's wheels bundle it as
    ``numpy.libs/libscipy_openblas64_*.so``; RTLD_NOLOAD binds the copy numpy
    already loaded and never loads a second one."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        set_.argtypes, set_.restype = (ctypes.c_int,), None
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with numpy's OpenBLAS at one thread and restore the count
    read on entry, also when the body raises, so nested use is safe; a no-op
    where :func:`_openblas_threads_api` finds nothing.  The QRs and SVDs of
    the square-root factors (96 to 220 columns) run faster on one thread
    than on the default pool, and their results then do not depend on the
    host's thread count."""
    api = _openblas_threads_api()
    if api is None:
        yield
        return
    get, set_ = api
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


# rows per incremental-QR chunk of stacked_factor_r (R included), which
# bounds its working memory to O(_STACK_ROWS * n)
_STACK_ROWS = 8192


def stacked_factor_r(r_g, row_weights, col_scales):
    """Upper-triangular R of the stack [row_weights[j] r_g diag(col_scales[j])]_j.

    The stack is the column-wise Kronecker (Khatri-Rao) product of r_g and
    A[j, l] = row_weights[j] col_scales[j, l], so its Gram matrix is
    (r_g^T r_g) o (A^T A).  A is first replaced by its k eps-rank rows
    S_k V_k^T D (:func:`_eps_rank_rows`), which keep A^T A to eps relative
    per column.  The dropped rows move each column of the stack by at most
    eps * s_1 <= eps sqrt(n) relative, the column-wise backward error the
    Householder QR of the stack makes anyway, so R keeps the eps * kappa
    accuracy of the uncompressed stack.
    A's rows sample exponentials (cosh(s sqrt(lam)), exp(-lam t)), whose
    singular values decay geometrically, so k is small: 12 of 512 kernel
    nodes for the 194 modes at Lambda = 400 in the README specineq run.
    The stack becomes the k blocks r_g diag((S_k V_k^T D)[p]), k * m rows.

    The blocks are streamed through an incremental QR, R <- qr([R; chunk])
    (TSQR), in chunks of about ``_STACK_ROWS`` rows, R included, so the
    working memory is O(rows * n) whatever the number of blocks.  R has the
    shape of the uncompressed stack's factor, min(n_s * m, n) x n, with zero
    rows below the compressed stack's own (all of R when A is zero).
    """
    m, n = r_g.shape
    factor = _eps_rank_rows(row_weights[:, None] * col_scales)
    per = max(1, (_STACK_ROWS - n) // m)
    r = np.empty((0, n))
    for start in range(0, len(factor), per):
        chunk = r_g * factor[start:start + per, None, :]
        r = np.linalg.qr(np.vstack((r, chunk.reshape(-1, n))), mode="r")
    out = np.zeros((min(len(row_weights) * m, n), n))
    out[:len(r)] = r
    return out


def trace_gramian(basis):
    """Closed-form boundary-trace Gramian N[j, l] = int_I eta_j eta_l dx1."""
    tab = basis.table
    x1_ints = trig_pair_matrix(*tab.x1_trig("eta"), 0.0, TWO_PI)
    mat = np.outer(tab.eta_trace, tab.eta_trace) * x1_ints
    return 0.5 * (mat + mat.T)


def rayleigh_matrix(basis):
    """Operator quadratic form <A0 w_i, w_j> through the Dirichlet integrals.

    Computed as -(int_Omega grad u_i : grad u_j + int_I eta_i' eta_j'),
    which for exact eigenfunctions is -lambda_i times the identity; the
    deviation from that is a direct measure of mode quality independent of
    the orthonormality check.
    """
    x2, w2 = gauss_legendre(GAUSS_NODES_X2, 0.0, 1.0)
    tab = basis.table
    total = np.zeros((len(basis), len(basis)))
    for comp in ("u1", "u2", "eta"):
        kinds, waves = tab.x1_trig(comp)
        # d/dx1 of sin(kx) is +k cos(kx); of cos(kx) is -k sin(kx)
        dkinds = np.where(kinds == SIN, COS, SIN)
        dsign = np.where(kinds == SIN, 1.0, -1.0) * waves
        x1_deriv = trig_pair_matrix(dkinds, waves, 0.0, TWO_PI)
        if comp == "eta":
            deta = tab.eta_trace * dsign
            total += x1_deriv * np.outer(deta, deta)
            continue
        v0s = tab.profiles(x2, comp) * dsign[:, None]
        v1 = tab.profiles(x2, comp, deriv=1)
        total += x1_deriv * ((v0s * w2) @ v0s.T)      # d/dx1 part
        total += (trig_pair_matrix(kinds, waves, 0.0, TWO_PI)
                  * ((v1 * w2) @ v1.T))               # d/dx2 part
    return -0.5 * (total + total.T)


# ---------------------------------------------------------------------------
# persistence

def _mode_record(mode):
    rec = {"k": mode.k, "n": mode.n, "phase": mode.phase,
           "lambda": mode.lam, "eta_trace": mode.eta_trace}
    if mode.k == 0:
        rec["amplitude"] = mode.amplitude
    else:
        rec.update(branch=OSCILLATORY, c=list(mode.c),
                   norm_factor=mode.norm_factor)
    return rec


def _json_int(value, name):
    """``value`` if it is a JSON integer; a float, string or bool is rejected."""
    if type(value) is not int:
        raise BasisFormatError(f"{name} {value!r} is not an integer")
    return value


def _json_float(value, name):
    """``value`` if it is a JSON float, as the writer emits every float
    field; an integer, string or bool is rejected."""
    if type(value) is not float:
        raise BasisFormatError(f"{name} {value!r} is not a JSON float")
    return value


def _mode_from_record(rec):
    """The mode of a cache record.  A k = 0 record must be ``zero_mode(n)``
    field for field.  A k >= 1 record's ``branch`` must be ``oscillatory``,
    its lambda above k**2 and the guard interval, where every sector
    eigenvalue lies, and its phase cosine or sine."""
    try:
        k, n = _json_int(rec["k"], "k"), _json_int(rec["n"], "n")
        lam = _json_float(rec["lambda"], "lambda")
        eta_trace = _json_float(rec["eta_trace"], "eta_trace")
        if k == 0:
            want = zero_mode(n)
            read = (lam, rec["phase"], _json_float(rec["amplitude"], "amplitude"),
                    eta_trace)
            if read != (want.lam, want.phase, want.amplitude, want.eta_trace):
                raise BasisFormatError(f"(lambda, phase, amplitude, eta_trace) "
                                       f"{read!r} is not zero_mode({n})'s")
            return want
        if k < 0:
            raise BasisFormatError(f"k {k} is negative")
        c = tuple(_json_float(v, "c") for v in rec["c"])
        if len(c) != 4:
            raise BasisFormatError("c must carry 4 coefficients")
        if rec["branch"] != OSCILLATORY:
            raise BasisFormatError(
                f"branch {rec['branch']!r} is not {OSCILLATORY!r} at k={k}")
        require_oscillatory(k, lam)
        phase = rec["phase"]
        if phase not in (COSINE, SINE):
            raise BasisFormatError(f"phase {phase!r} is not valid at k={k}")
        return EigenMode(k=k, n=n, lam=lam, phase=phase, c=c,
                         norm_factor=_json_float(rec["norm_factor"], "norm_factor"),
                         amplitude=0.0, eta_trace=eta_trace)
    except (KeyError, TypeError, ValueError, DegenerateBranchError) as exc:
        raise BasisFormatError(f"malformed mode record: {exc}") from exc


def basis_document(basis):
    """Canonical text serialization of a basis (deterministic bytes)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "cutoff": basis.cutoff,
        "k_range": basis.k_range,
        "metadata": basis.metadata,
        "modes": [_mode_record(m) for m in basis.modes],
    }
    return json.dumps(doc, sort_keys=True, indent=1, allow_nan=False) + "\n"


def atomic_write(path, text):
    """Write ``text`` to ``path`` as UTF-8 with untranslated newlines, through
    a temporary file and ``os.replace``; the temporary file is removed if
    either step fails."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_basis(basis, path):
    """Write the basis cache atomically; floats round-trip losslessly."""
    atomic_write(path, basis_document(basis))


def _finite_number(text):
    """A JSON number or constant as a float; the writer emits only finite
    ones, so NaN, an infinity or a literal that overflows is rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _basis_from_document(doc):
    """The basis of a parsed cache document; a rejected mode record is named
    by its index."""
    if not isinstance(doc, dict):
        raise BasisFormatError("the root must be an object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise BasisVersionError(
            f"schema {version!r} unsupported (want {SCHEMA_VERSION})")
    modes = []
    for i, rec in enumerate(doc["modes"]):
        try:
            modes.append(_mode_from_record(rec))
        except BasisFormatError as exc:
            raise BasisFormatError(f"modes[{i}]: {exc}") from exc
    basis = EigenBasis(cutoff=_json_float(doc["cutoff"], "cutoff"),
                       modes=tuple(modes), metadata=dict(doc["metadata"]))
    built_for = basis.metadata.get("lambda_max")
    if basis.cutoff != built_for:
        raise BasisFormatError(f"cutoff {basis.cutoff!r} is not the "
                               f"lambda_max {built_for!r} it was built for")
    k_range = _json_int(doc["k_range"], "k_range")
    if k_range != basis.k_range:
        raise BasisFormatError(f"k_range {k_range!r} is not {basis.k_range!r}, "
                               "the first wavenumber past the cutoff")
    lams = basis.lambdas
    if np.any(np.diff(lams) < 0):
        raise BasisFormatError("lambda is not nondecreasing")
    if np.any(lams > basis.cutoff):
        raise BasisFormatError(f"lambda {float(lams.max())!r} "
                               f"is above the cutoff {basis.cutoff!r}")
    return basis


def load_basis(path):
    """Reload a basis cache; rejects version mismatch, malformed files, any
    non-finite number, a k, n or k_range that is not a JSON integer, a float
    field that is not a JSON float, a k = 0 mode other than ``zero_mode(n)``,
    and a k_range, cutoff or lambda order that contradicts the build.  Every
    rejection is a BasisFormatError (BasisVersionError for the schema) that
    names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_finite_number,
                            parse_constant=_finite_number)
        return _basis_from_document(doc)
    # ValueError covers JSONDecodeError and UnicodeDecodeError too
    except (KeyError, TypeError, ValueError) as exc:
        raise BasisFormatError(f"basis cache {path!r} is malformed: {exc}") from exc
    except BasisFormatError as exc:
        raise type(exc)(f"basis cache {path!r}: {exc}") from exc
