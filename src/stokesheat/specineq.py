"""Numerical verification of the spectral inequality and of the augmented
elliptic construction behind it.

The inequality bounds the energy of any low-mode combination by its
kernel-weighted observation over the region: with K[j, l] =
M[j, l] * int kappa(s)^2 cosh(s sqrt(lam_j)) cosh(s sqrt(lam_l)) ds over the
modes with lam <= Lambda, positivity of K is the finite-cutoff content and
its smallest eigenvalue should shrink like exp(-C sqrt(Lambda)).

The smallest eigenvalue of K spans a dynamic range far beyond what a dense
symmetric eigensolver can resolve in double precision (lambda_max(K) grows
like exp(2 s_max sqrt(Lambda))), so the report computes it as the squared
smallest singular value of an explicit square-root factor F of K built from
cancellation-free quadrature samples of the mode velocities; the singular
value decomposition is backward stable, which halves the exponent of the
resolvable range.  F stacks one weighted copy of the n x n velocity factor
per kernel node; as a Khatri-Rao product it compresses to n such copies
before its QR (:func:`stacked_factor_r`), and each min_eig is resolved to
about 2 eps kappa(F) relative, which the report records per cutoff.  The
dense K of :func:`weighted_gramian` is the small-cutoff reference the tests
compare it against.

The augmented field U(s, x) = sum a_j cosh(sqrt(lam_j) s) u_j(x) with its
companion pressure turns the spectral sum into a harmonic-pressure elliptic
system on (0, S0) x Omega; the residuals of that system collapse to the
eigen-equation residuals and are checked here analytically, with the
pressure gauge fixed by a zero mean over the observation region.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .fitting import linear_fit
from .hilbert import obs_gramian, sampled_velocity_factor, stacked_factor_r
from .quadrature import (COS, GAUSS_NODES_X2, gauss_legendre, trig_eval,
                         trig_pair_integral)

_QUAD_MAX_LEVEL = 9
# relative stability of the probe integrals that ends kernel_quadrature
_QUAD_RTOL = 1e-10


@dataclass(frozen=True)
class Kernel:
    """Smooth compactly supported bump kappa on (a, b) inside (0, s0).

    kappa(s) = exp(-1/((s-a)(b-s))) scaled so that max kappa = 1, extended
    by zero outside the support.
    """

    s0: float
    support: tuple

    def __post_init__(self):
        a, b = self.support
        if not (0.0 < a < b < self.s0):
            raise InvalidArgumentError(
                f"kernel support {self.support!r} must lie strictly inside "
                f"(0, {self.s0!r})")

    @classmethod
    def default(cls, s0=1.0):
        return cls(s0=s0, support=(0.25 * s0, 0.75 * s0))

    def kappa(self, s):
        s = np.asarray(s, dtype=float)
        a, b = self.support
        out = np.zeros(s.shape)
        inside = (s > a) & (s < b)
        si = s[inside]
        out[inside] = np.exp(4.0 / (b - a) ** 2 - 1.0 / ((si - a) * (b - si)))
        return out


def kernel_quadrature(kernel, m_max=0.0):
    """Adaptive quadrature rule resolving kappa^2 * cosh(m s) for m <= m_max.

    Panels are refined until the probe integrals (m = 0 and m = m_max,
    evaluated in log space) are stable to ``_QUAD_RTOL``.
    """
    a, b = kernel.support
    prev = None
    for level in range(3, _QUAD_MAX_LEVEL):
        s, w = gauss_legendre(8 * level, a, b, 2 * level)
        k2 = kernel.kappa(s) ** 2
        probe0 = float(np.dot(w, k2))
        scaled = 0.5 * (np.exp(m_max * (s - b)) + np.exp(-m_max * (s + b)))
        probe1 = math.log(float(np.dot(w, k2 * scaled))) + m_max * b
        if prev is not None:
            d0 = abs(probe0 - prev[0]) / abs(prev[0])
            d1 = abs(probe1 - prev[1]) / max(1.0, abs(prev[1]))
            if d0 <= _QUAD_RTOL and d1 <= _QUAD_RTOL:
                return s, w
        prev = (probe0, probe1)
    return s, w


def _log_cosh_moments(kernel, m, s, w):
    """log of int kappa^2 cosh(m s) ds, elementwise over m >= 0.

    Evaluated in log space: both exponentials are shifted by the support's
    upper end so no intermediate overflows, whatever the size of m.
    """
    m = np.atleast_1d(np.asarray(m, dtype=float))
    b = kernel.support[1]
    k2w = w * kernel.kappa(s) ** 2
    out = np.empty(m.shape)
    chunk = 4096
    for start in range(0, len(m), chunk):
        mm = m[start:start + chunk][:, None]
        scaled = 0.5 * (np.exp(mm * (s - b)) + np.exp(-mm * (s + b)))
        out[start:start + chunk] = np.log(scaled @ k2w) + mm[:, 0] * b
    return out


def cosh_pair_weights(kernel, sqrt_lams):
    """Matrix C[j, l] = int kappa^2 cosh(s q_j) cosh(s q_l) ds.

    Uses cosh q cosh r = (cosh(q + r) + cosh(q - r))/2 and log-space moment
    evaluation, recombined at the end.
    """
    q = np.asarray(sqrt_lams, dtype=float)
    s, w = kernel_quadrature(kernel, m_max=2.0 * q.max(initial=0.0))
    msum = q[:, None] + q[None, :]
    mdif = np.abs(q[:, None] - q[None, :])
    log_sum = _log_cosh_moments(kernel, msum.ravel(), s, w).reshape(msum.shape)
    log_dif = _log_cosh_moments(kernel, mdif.ravel(), s, w).reshape(mdif.shape)
    hi = np.maximum(log_sum, log_dif)
    c = 0.5 * np.exp(hi) * (np.exp(log_sum - hi) + np.exp(log_dif - hi))
    return 0.5 * (c + c.T)


def weighted_gramian(basis, lam_cap, region, kernel):
    """Dense kernel-weighted observation Gramian K on the modes with lam <=
    lam_cap: the small-cutoff reference for :func:`mineig_weighted_gramian`."""
    idx = basis.low_indices(lam_cap)
    if len(idx) == 0:
        return np.zeros((0, 0))
    m_sub = obs_gramian(basis, region).matrix[np.ix_(idx, idx)]
    c = cosh_pair_weights(kernel, np.sqrt(basis.lambdas[idx]))
    return m_sub * c


class MinEig(float):
    """A smallest eigenvalue of K that also carries ``kappa_f``, the condition
    number sigma_max / sigma_min of the square-root factor it was read from:
    the value is resolved to about 2 eps kappa_f relative."""

    def __new__(cls, value, kappa_f):
        self = super().__new__(cls, value)
        self.kappa_f = kappa_f
        return self


def mineig_weighted_gramian(basis, lam_cap, region, kernel):
    """Smallest eigenvalue of K as the squared smallest singular value of a
    square-root factor F; resolves values far below eps * lambda_max(K).

    F stacks r_g diag(cosh(s sqrt(lam))) over the kernel's quadrature nodes
    s, weighted by sqrt(w) kappa(s).  :func:`stacked_factor_r` never holds
    it whole and first compresses its node blocks (512 in the README run)
    to n, so the QR sees n * n rows.  The result is a :class:`MinEig`: a
    float that also carries kappa(F), and 2 eps kappa(F) bounds the value's
    relative error.
    """
    idx = basis.low_indices(lam_cap)
    if len(idx) == 0:
        raise InvalidArgumentError(f"no modes at or below lam_cap {lam_cap!r}")
    r_g = sampled_velocity_factor(basis, idx, region)
    q = np.sqrt(basis.lambdas[idx])
    s, w = kernel_quadrature(kernel, m_max=2.0 * q.max())
    r_f = stacked_factor_r(r_g, np.sqrt(w) * kernel.kappa(s),
                           np.cosh(np.outer(s, q)))
    svals = np.linalg.svd(r_f, compute_uv=False)
    kappa_f = svals[0] / svals[-1] if svals[-1] > 0 else math.inf
    return MinEig(svals[-1] ** 2, float(kappa_f))


@dataclass(frozen=True)
class SpectralRecord:
    lam_cutoff: float
    dim: int
    min_eig: float
    implied_constant: float
    violation: bool
    kappa_f: float


@dataclass(frozen=True)
class SpectralInequalityReport:
    """Per-cutoff minimum eigenvalues plus the fitted decay constant.

    The kernel is recorded alongside the fit because the fitted constant
    drifts mildly with the bump's support; a quoted slope only means
    something together with the kernel that produced it.
    """

    records: tuple
    slope: float
    intercept: float
    r_squared: float
    kernel: object

    @property
    def violations(self):
        return [r for r in self.records if r.violation]


def spec_ineq_report(basis, lam_list, region, kernel):
    """Per-cutoff minimum eigenvalues of K and the fitted decay constant.

    The fit regresses -log(min_eig) on sqrt(Lambda); the slope estimates the
    constant C in the exp(C sqrt(Lambda)) observability degradation.  A
    cutoff is flagged as a violation when its minimum eigenvalue is not
    positive (the inequality guarantees positivity and the factor SVD
    resolves it, so a flag points at a quadrature or basis defect).  Each
    record carries kappa_f = kappa(F) of its square-root factor (NaN where
    no factor was built): min_eig is resolved to about 2 eps kappa_f
    relative, so a large kappa_f marks a cutoff whose trailing digits are
    noise.
    """
    lam_list = [float(v) for v in lam_list]
    records = []
    for lam_cap in lam_list:
        idx = basis.low_indices(lam_cap)
        if len(idx) == 0:
            records.append(SpectralRecord(lam_cutoff=lam_cap, dim=0,
                                          min_eig=float("nan"),
                                          implied_constant=float("nan"),
                                          violation=False,
                                          kappa_f=float("nan")))
            continue
        min_eig = mineig_weighted_gramian(basis, lam_cap, region, kernel)
        implied = (-math.log(min_eig) / math.sqrt(lam_cap)
                   if min_eig > 0 else float("nan"))
        records.append(SpectralRecord(lam_cutoff=lam_cap, dim=len(idx),
                                      min_eig=float(min_eig),
                                      implied_constant=implied,
                                      violation=not min_eig > 0,
                                      kappa_f=min_eig.kappa_f))
    usable = [r for r in records if r.dim > 0 and r.min_eig > 0]
    if len(usable) < 3:
        raise InvalidArgumentError(
            "need at least 3 cutoffs with nonempty mode sets and positive "
            "minimum eigenvalues to fit the decay constant")
    fit = linear_fit(np.sqrt([r.lam_cutoff for r in usable]),
                     [-math.log(r.min_eig) for r in usable])
    return SpectralInequalityReport(records=tuple(records), slope=fit.slope,
                                    intercept=fit.intercept,
                                    r_squared=fit.r_squared, kernel=kernel)


# ---------------------------------------------------------------------------
# augmented elliptic field

@dataclass(frozen=True)
class AugmentedField:
    """Cosh-extended low-mode field on (0, s0) x Omega with gauged pressure.

    ``mean_pressures`` holds the per-mode pressure means over the gauge
    region; the gauge c_P(s) = -sum_j a_j cosh(sqrt(lam_j) s) mean_p_j makes
    the pressure integrate to zero over that region for every s.  Without a
    region the gauge is identically zero (the residual system only ever sees
    P through its gradient and through P minus its boundary mean).
    """

    basis: object
    coeffs: np.ndarray
    lam_cap: float
    mean_pressures: np.ndarray


def _region_pressure_means(basis, idx, region):
    """Per-mode mean of the pressure over the region (closed x1 form)."""
    tab = basis.table
    kinds, waves = tab.x1_trig("p")
    x1_ints = trig_pair_integral(kinds[idx], waves[idx], COS, 0.0, *region.x1)
    x2, w2 = gauss_legendre(GAUSS_NODES_X2, *region.x2)
    return x1_ints * (tab.profiles(x2, "p")[idx] @ w2) / region.area


def augmented_field(basis, coeffs, lam_cap, region=None):
    """Build the augmented field from low-mode coefficients.

    Coefficients must vanish on modes above ``lam_cap``.  The optional
    ``region`` fixes the pressure gauge by a zero regional mean.
    """
    a = np.asarray(coeffs, dtype=float)
    if a.shape != (len(basis),):
        raise InvalidArgumentError("coefficient length does not match basis size")
    high = basis.lambdas > lam_cap
    if np.any(a[high] != 0.0):
        raise InvalidArgumentError(
            f"coefficients must be supported on modes with lambda <= {lam_cap!r}")
    idx = basis.low_indices(lam_cap)
    if region is None:
        means = np.zeros(len(idx))
    else:
        means = _region_pressure_means(basis, idx, region)
    return AugmentedField(basis=basis, coeffs=a, lam_cap=lam_cap,
                          mean_pressures=means)


def _modal_sum(field, s, x1, x2, component, ds=0, dx1=0, dx2=0):
    """:func:`field_values` without the pressure gauge, on 1-d grids.  Only
    modes with a nonzero coefficient enter, so a cosh that overflows on a
    mode the field does not carry cannot turn the sum into NaN."""
    tab = field.basis.table
    idx = field.basis.low_indices(field.lam_cap)
    sel = idx[field.coeffs[idx] != 0.0]
    q = np.sqrt(tab.lam[sel])
    s_weights = (np.cosh if ds % 2 == 0 else np.sinh)(np.outer(s, q)) * q ** ds
    kinds, waves = tab.x1_trig(component)
    trig = trig_eval(kinds[sel, None], waves[sel, None], x1, deriv=dx1)
    prof = tab.profiles(x2, component, deriv=dx2)[sel]
    modes = (trig[:, :, None] * prof[:, None, :]).reshape(len(sel), len(x1) * len(x2))
    out = (s_weights * field.coeffs[sel]) @ modes
    return out.reshape(len(s), len(x1), len(x2))


def field_values(field, s, x1, x2, component, ds=0, dx1=0, dx2=0):
    """Derivative of one field component on the tensor grid s x x1 x x2.

    ``component`` is "u1", "u2" or "p"; the pressure gauge contributes only
    at ds = dx1 = dx2 = 0 and is included there.
    """
    s, x1, x2 = (np.atleast_1d(np.asarray(g, dtype=float)) for g in (s, x1, x2))
    out = _modal_sum(field, s, x1, x2, component, ds, dx1, dx2)
    if component == "p" and ds == 0 and dx1 == 0 and dx2 == 0:
        # the gauge c_P(s) of AugmentedField, summed like _modal_sum over
        # the modes with a coefficient
        idx = field.basis.low_indices(field.lam_cap)
        on = field.coeffs[idx] != 0.0
        cosh_tab = np.cosh(np.outer(s, np.sqrt(field.basis.lambdas[idx[on]])))
        gauge = -(cosh_tab * field.coeffs[idx[on]]) @ field.mean_pressures[on]
        out += gauge[:, None, None]
    return out


def residual_augmented(field, sample_grid):
    """Sup-norm residuals of the augmented elliptic system on a grid.

    ``sample_grid`` is a tuple (s, x1, x2) of 1-d arrays.  Returns the five
    equation residuals (two momentum balances, incompressibility, the
    boundary heat balance on the top wall against the gauge-free pressure,
    and harmonicity of the pressure), each normalized by the field's sup
    magnitude.  All derivatives are analytic, so the residuals measure mode
    correctness rather than discretization error.
    """
    s, x1, x2 = (np.asarray(g, dtype=float) for g in sample_grid)
    u1 = field_values(field, s, x1, x2, "u1")
    u2 = field_values(field, s, x1, x2, "u2")

    def lap(component):
        return (field_values(field, s, x1, x2, component, dx1=2)
                + field_values(field, s, x1, x2, component, dx2=2))

    dss_u1 = field_values(field, s, x1, x2, "u1", ds=2)
    dss_u2 = field_values(field, s, x1, x2, "u2", ds=2)
    dx1_p = field_values(field, s, x1, x2, "p", dx1=1)
    dx2_p = field_values(field, s, x1, x2, "p", dx2=1)
    r_mom1 = -dss_u1 - lap("u1") + dx1_p
    r_mom2 = -dss_u2 - lap("u2") + dx2_p
    r_div = (field_values(field, s, x1, x2, "u1", dx1=1)
             + field_values(field, s, x1, x2, "u2", dx2=1))
    r_lap_p = lap("p")

    top = np.array([1.0])
    # gauge-free boundary pressure: P - m_I(P) has no k = 0 content, so the
    # modal sum without the gauge term is exactly it
    p_top = _modal_sum(field, s, x1, top, "p")
    r_top = (-field_values(field, s, x1, top, "u2", ds=2)
             - field_values(field, s, x1, top, "u2", dx1=2)
             - p_top)

    scale = max(np.abs(u1).max(), np.abs(u2).max(), np.abs(p_top).max())
    residuals = {"momentum_x1": r_mom1, "momentum_x2": r_mom2,
                 "divergence": r_div, "ventcel": r_top,
                 "pressure_laplace": r_lap_p}
    return {name: float(np.abs(r).max() / scale) if scale != 0.0 else 0.0
            for name, r in residuals.items()}
