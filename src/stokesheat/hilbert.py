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
import operator
import os
from dataclasses import dataclass, fields

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
    trig_pair_table,
)
from .spectral import (
    COSINE,
    OSCILLATORY,
    SCHEMA_VERSION,
    SINE,
    EigenBasis,
    EigenMode,
    TWO_PI,
    _boundary_matrices,
    require_oscillatory,
    zero_mode,
    zero_modes,
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


def _obs_terms(basis, region):
    """The u1 and u2 terms of the velocity Gramian for :func:`_gramian`."""
    x2, w2 = gauss_legendre(GAUSS_NODES_X2, *region.x2)
    tab = basis.table
    return [(np.matmul, v * w2, v.T, *tab.x1_trig(comp), *region.x1)
            for comp in ("u1", "u2") for v in [tab.profiles(x2, comp)]]


def obs_gramian(basis, region):
    """Velocity observation Gramian M[j, l] = int_omega u_j . u_l dx, one
    n x n array filled from 64-row panels (:func:`_gramian`)."""
    m = _gramian(_obs_terms(basis, region), 0.5)
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


# rows per incremental-QR chunk of stacked_factor_r (R included), 4 n for
# n > 256 columns, and its working memory about two chunks: the chunk and the
# copy np.linalg.qr takes of it
_STACK_ROWS = 1024
# rows per upper-triangular panel of every modal Gramian and of the Parseval
# check (temporaries _PANEL_ROWS x n)
_PANEL_ROWS = 64


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
    (TSQR), in chunks of about max(``_STACK_ROWS``, 4 n) rows, R included, so
    the working memory is O(rows * n) whatever the number of blocks, and a
    chunk holds at least three blocks of m <= n rows.  Each chunk is written
    once, into one buffer: R on top, the blocks below it.
    R has the shape of the uncompressed stack's factor, min(n_s * m, n) x n,
    with zero rows below the compressed stack's own (all of R when A is
    zero).
    """
    m, n = r_g.shape
    factor = _eps_rank_rows(row_weights[:, None] * col_scales)
    per = max(1, (max(_STACK_ROWS, 4 * n) - n) // m)
    buf = np.empty((n + min(per, len(factor)) * m, n))
    top = 0
    for start in range(0, len(factor), per):
        blocks = factor[start:start + per]
        end = top + len(blocks) * m
        np.multiply(r_g, blocks[:, None, :],
                    out=buf[top:end].reshape(len(blocks), m, n))
        top = min(end, n)
        buf[:top] = np.linalg.qr(buf[:end], mode="r")
    out = np.zeros((min(len(row_weights) * m, n), n))
    out[:top] = buf[:top]
    return out


def _gather(table, rows, cols):
    """table[np.ix_(rows, cols)], bit for bit, by two np.take calls, the
    shorter index first, so the one intermediate holds that many lines of
    the table; fancy indexing by np.ix_ takes about three times as long."""
    if len(rows) <= len(cols):
        return np.take(np.take(table, rows, axis=0), cols, axis=1)
    return np.take(np.take(table, cols, axis=1), rows, axis=0)


def _upper_panels(terms, scale, from_zeros):
    """(rows, P) per panel of ``_PANEL_ROWS`` rows, P = rows ``rows`` and
    columns rows.start: of scale * (S + S^T), S = sum over the terms (op,
    left, right, kinds, waves, a, b) of op(left, right) o [int_a^b T_i T_j].
    Its row-panel GEMMs may round an entry differently from the full GEMM in
    the last bit; ``from_zeros`` makes -0.0 sums +0.0 as np.zeros + S does."""
    terms = [(op, left, right, *trig_pair_table(kinds, waves, a, b))
             for op, left, right, kinds, waves, a, b in terms]

    def part(r, c):
        total = None
        for op, left, right, table, index in terms:
            out = op(left[r], right[:, c])
            out *= _gather(table, index[r], index[c])
            total = out if total is None else np.add(total, out, out=total)
        if from_zeros:
            total += 0.0
        return total

    def panel(rows, cols):
        upper, mirror = part(rows, cols), part(cols, rows).T
        # the diagonal block from one GEMM, so that it is exactly symmetric
        mirror[:, :len(upper)] = upper[:, :len(upper)].T
        upper += mirror
        upper *= scale
        return upper

    for i in range(0, len(terms[0][4]), _PANEL_ROWS):
        rows = slice(i, i + _PANEL_ROWS)
        # panel()'s temporaries are freed before the generator suspends
        yield rows, panel(rows, slice(i, None))


def _gramian(terms, scale, from_zeros=True):
    """scale * (S + S^T) (:func:`_upper_panels`) in one n x n array, each
    upper panel written together with its transpose."""
    total = np.empty((len(terms[0][1]),) * 2)
    for rows, panel in _upper_panels(terms, scale, from_zeros):
        total[rows, rows.start:] = panel
        total[rows.start:, rows] = panel.T
    return total


def _trace_terms(basis):
    """The one term of the boundary-trace Gramian for :func:`_gramian`."""
    tab, eta = basis.table, basis.table.eta_trace
    return [(np.multiply, eta[:, None], eta[None, :], *tab.x1_trig("eta"),
             0.0, TWO_PI)]


def trace_gramian(basis):
    """Closed-form boundary-trace Gramian N[j, l] = int_I eta_j eta_l dx1."""
    return _gramian(_trace_terms(basis), 0.5, from_zeros=False)


def parseval_deviation(basis):
    """max |M(Omega) + N - I| on the full strip, reduced over the upper
    panels the two Gramians are built from (:func:`_upper_panels`) on one
    BLAS thread, so no n x n array is formed and the result does not depend
    on the host's BLAS thread count.  Every entry is computed."""
    def deviation(n_panel, m_panel):
        (_, dev), (_, m) = n_panel, m_panel
        dev += m
        diag = np.arange(len(dev))
        dev[diag, diag] -= 1.0
        return np.abs(dev, out=dev).max()

    with _one_blas_thread():
        # map drops each pair of panels before it builds the next pair
        maxima = list(map(deviation,
                          _upper_panels(_trace_terms(basis), 0.5, False),
                          _upper_panels(_obs_terms(basis, FULL_REGION), 0.5,
                                        True)))
    return float(np.max(maxima, initial=0.0))


def rayleigh_matrix(basis):
    """Operator quadratic form <A0 w_i, w_j> through the Dirichlet integrals.

    Computed as -(int_Omega grad u_i : grad u_j + int_I eta_i' eta_j'),
    which for exact eigenfunctions is -lambda_i times the identity; the
    deviation from that is a direct measure of mode quality independent of
    the orthonormality check.
    """
    x2, w2 = gauss_legendre(GAUSS_NODES_X2, 0.0, 1.0)
    tab = basis.table

    def terms():
        for comp in ("u1", "u2", "eta"):
            kinds, waves = tab.x1_trig(comp)
            # d/dx1 of sin(kx) is +k cos(kx); of cos(kx) is -k sin(kx)
            dkinds = np.where(kinds == SIN, COS, SIN)
            dsign = np.where(kinds == SIN, 1.0, -1.0) * waves
            if comp == "eta":
                deta = (tab.eta_trace * dsign)[None, :]
                yield np.multiply, deta.T, deta, dkinds, waves, 0.0, TWO_PI
                continue
            v0s = tab.profiles(x2, comp) * dsign[:, None]
            v1 = tab.profiles(x2, comp, deriv=1)
            yield np.matmul, v0s * w2, v0s.T, dkinds, waves, 0.0, TWO_PI  # d/dx1
            yield np.matmul, v1 * w2, v1.T, kinds, waves, 0.0, TWO_PI     # d/dx2

    return _gramian(list(terms()), -0.5)


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


# every EigenMode field but the phase: a cosine/sine twin pair shares these
_twin_fields = operator.attrgetter(
    *(f.name for f in fields(EigenMode) if f.name != "phase"))


def _is_twin(mode, other, phase):
    """Whether ``other`` is ``mode`` apart from its phase, which is ``phase``."""
    return other.phase == phase and _twin_fields(other) == _twin_fields(mode)


def _check_mode_list(modes, cutoff):
    """Reject a mode list that no build writes, naming the record at fault:
    a (k, n, phase) given twice; a k >= 1 cosine mode not followed by its
    sine twin (the same mode apart from the phase), or a sine mode not
    preceded by its cosine twin; a sector whose n does not run 1, 2, ... with
    lambda strictly increasing; k = 0 modes other than n = 1, 2, ... up to
    the cutoff.  A sector's dropped last pair passes."""
    seen, last = set(), {}
    for i, mode in enumerate(modes):
        key = (mode.k, mode.n, mode.phase)
        if key in seen:
            raise BasisFormatError(f"modes[{i}]: (k, n, phase) {key!r} "
                                   "appears twice")
        seen.add(key)
        if mode.phase == SINE:
            if i == 0 or not _is_twin(mode, modes[i - 1], COSINE):
                raise BasisFormatError(f"modes[{i}]: the sine mode {key!r} is "
                                       "not preceded by its cosine twin")
        elif mode.phase == COSINE:
            if i + 1 == len(modes) or not _is_twin(mode, modes[i + 1], SINE):
                raise BasisFormatError(f"modes[{i}]: the cosine mode {key!r} "
                                       "is not followed by its sine twin")
            n_due, above = last.get(mode.k, (1, 0.0))
            if mode.n != n_due or not mode.lam > above:
                raise BasisFormatError(
                    f"modes[{i}]: sector {mode.k} has n {mode.n} at lambda "
                    f"{mode.lam!r} where n {n_due} above {above!r} is due")
            last[mode.k] = (mode.n + 1, mode.lam)
    zeros = [(i, mode) for i, mode in enumerate(modes) if mode.k == 0]
    want = zero_modes(cutoff)
    for (i, mode), due in zip(zeros, want):
        if mode != due:
            raise BasisFormatError(f"modes[{i}]: k = 0 mode n {mode.n} where "
                                   f"n {due.n} is due")
    if len(zeros) < len(want):
        raise BasisFormatError(f"no k = 0 mode n {len(zeros) + 1}, although "
                               f"its lambda is below the cutoff {cutoff!r}")


# largest boundary residual a cache record may read: 400 times a clean build's
# at Lambda = 6000 (2.4e-11); the build's gate of 1e-6 passes a lambda edited
# by up to about 5e-7 relative
LOAD_RESIDUAL_GATE = 1e-8


def _check_residuals(modes):
    """Reject a k >= 1 record whose (lambda, c) is not an eigenpair, naming
    it.  Its boundary residual |M(lambda) c| / (|c| sigma_max(M(lambda))),
    with M the row-normalized boundary matrix ``build_mode`` takes c from,
    must stay within ``LOAD_RESIDUAL_GATE``.  That is the ratio the build
    gates: for the c it writes, the smallest singular direction, the
    residual is sigma_min / sigma_max up to rounding.  One batched
    boundary-matrix build for all records."""
    rows = [i for i, mode in enumerate(modes) if mode.k >= 1]
    if not rows:
        return
    c = np.array([modes[i].c for i in rows])
    mats = _boundary_matrices(np.array([modes[i].k for i in rows]),
                              [modes[i].lam for i in rows])
    with np.errstate(invalid="ignore", divide="ignore"):
        res = (np.linalg.norm(np.einsum("nij,nj->ni", mats, c), axis=1)
               / (np.linalg.norm(c, axis=1)
                  * np.linalg.norm(mats, 2, axis=(1, 2))))
    bad = np.nonzero(~(res <= LOAD_RESIDUAL_GATE))[0]
    if len(bad):
        i = rows[bad[0]]
        mode = modes[i]
        raise BasisFormatError(
            f"modes[{i}]: boundary residual {res[bad[0]]:.3e} of (k, n, "
            f"phase) {(mode.k, mode.n, mode.phase)!r} at lambda {mode.lam!r} "
            f"exceeds the gate {LOAD_RESIDUAL_GATE!r}")


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
    _check_mode_list(modes, basis.cutoff)
    _check_residuals(modes)
    return basis


def load_basis(path):
    """Reload a basis cache; rejects version mismatch, malformed files, any
    non-finite number, a k, n or k_range that is not a JSON integer, a float
    field that is not a JSON float, a k = 0 mode other than ``zero_mode(n)``,
    a k_range, cutoff or lambda order that contradicts the build, a mode
    list that no build writes (:func:`_check_mode_list`), and a k >= 1 mode
    whose lambda and c fail the boundary conditions
    (:func:`_check_residuals`).  Every
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
