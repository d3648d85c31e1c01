import math
import tracemalloc

import numpy as np
import pytest

from stokesheat import (
    FULL_REGION,
    InvalidArgumentError,
    Kernel,
    augmented_field,
    obs_gramian,
    residual_augmented,
    spec_ineq_report,
    trace_gramian,
)
from stokesheat import specineq
from stokesheat.specineq import mineig_weighted_gramian, weighted_gramian
from stokesheat.hilbert import sampled_velocity_factor
from stokesheat.quadrature import gauss_legendre

from mode_reference import eval_mode


@pytest.fixture(scope="module")
def kernel():
    return Kernel.default()


def kappa_sq_integral(kernel):
    """int kappa^2 ds by kernel_quadrature's m = 0 rule."""
    s, w = specineq.kernel_quadrature(kernel)
    return float(np.dot(w, kernel.kappa(s) ** 2))


def test_kernel_validation():
    with pytest.raises(InvalidArgumentError):
        Kernel(s0=1.0, support=(0.0, 0.5))
    with pytest.raises(InvalidArgumentError):
        Kernel(s0=1.0, support=(0.6, 0.4))
    with pytest.raises(InvalidArgumentError):
        Kernel(s0=0.5, support=(0.2, 0.6))


def test_kernel_shape(kernel):
    s = np.linspace(-0.5, 1.5, 2001)
    k = kernel.kappa(s)
    assert np.all(k >= 0)
    a, b = kernel.support
    assert np.all(k[(s <= a) | (s >= b)] == 0.0)
    assert k.max() == pytest.approx(1.0, abs=1e-12)  # peak-normalized
    mid = kernel.kappa(np.array([0.5 * (a + b)]))
    assert mid[0] == pytest.approx(1.0, abs=1e-12)


def test_kappa_sq_integral_vs_trapezoid(kernel):
    a, b = kernel.support
    s = np.linspace(a, b, 1_000_001)
    ref = np.trapezoid(kernel.kappa(s) ** 2, s)
    got = kappa_sq_integral(kernel)
    assert got == pytest.approx(ref, rel=1e-9)


def test_log_cosh_moments_vs_mpmath(kernel):
    # the log-space path must stay accurate far beyond the overflow range of
    # a direct cosh evaluation
    import mpmath as mp

    mp.mp.dps = 40
    a, b = kernel.support
    s, w = specineq.kernel_quadrature(kernel, m_max=2000.0)
    for m in (0.0, 5.0, 50.0, 500.0, 2000.0):
        got = specineq._log_cosh_moments(kernel, np.array([m]), s, w)[0]
        ref = mp.quad(lambda t: mp.exp(8.0 / (b - a) ** 2
                                       - 2.0 / ((t - a) * (b - t)))
                      * mp.cosh(m * t), [a, 0.5 * (a + b), b])
        assert got == pytest.approx(float(mp.log(ref)), abs=1e-8)
        assert math.isfinite(got)


def test_weighted_gramian_empty(basis60, region_half, kernel):
    k = weighted_gramian(basis60, 1.0, region_half, kernel)
    assert k.shape == (0, 0)


def test_weighted_gramian_single_mode(basis60, region_half, kernel):
    lam1 = basis60.lambdas[0]
    k = weighted_gramian(basis60, lam1 + 1e-9, region_half, kernel)
    m = obs_gramian(basis60, region_half).matrix
    floor = m[0, 0] * kappa_sq_integral(kernel)
    assert k.shape == (2, 2)  # cosine/sine pair shares the lowest lambda
    assert k[0, 0] >= floor > 0


def test_weighted_gramian_exceeds_cutoff(basis60, region_half, kernel):
    with pytest.raises(InvalidArgumentError):
        weighted_gramian(basis60, basis60.cutoff * 2, region_half, kernel)


def test_weighted_gramian_vs_tensor_quadrature(basis60, region_small, kernel):
    lam_cap = 30.0
    k = weighted_gramian(basis60, lam_cap, region_small, kernel)
    idx = basis60.low_indices(lam_cap)
    s, ws = specineq.kernel_quadrature(kernel, 2.0 * math.sqrt(lam_cap))
    x1, w1 = gauss_legendre(96, *region_small.x1)
    x2, w2 = gauss_legendre(64, *region_small.x2)
    fields = []
    for j in idx:
        u1, u2, _, _ = eval_mode(basis60.modes[j], x1[:, None], x2[None, :])
        fields.append((u1, u2))
    kap2 = kernel.kappa(s) ** 2
    cosh_t = np.cosh(np.outer(s, np.sqrt(basis60.lambdas[idx])))
    m_ref = np.zeros((len(idx), len(idx)))
    for a in range(len(idx)):
        for b in range(len(idx)):
            m_ref[a, b] = (np.einsum("pq,p,q->", fields[a][0] * fields[b][0], w1, w2)
                           + np.einsum("pq,p,q->", fields[a][1] * fields[b][1], w1, w2))
    c_ref = np.einsum("s,sa,sb,s->ab", ws, cosh_t, cosh_t, kap2)
    ref = m_ref * c_ref
    assert np.abs(k - ref).max() <= 1e-7 * np.abs(ref).max()


def test_mineig_matches_eigh_when_resolvable(basis60, region_small, kernel):
    for lam_cap in (10.0, 30.0):
        k = weighted_gramian(basis60, lam_cap, region_small, kernel)
        dense = float(np.linalg.eigvalsh(k)[0])
        fac = mineig_weighted_gramian(basis60, lam_cap, region_small, kernel)
        assert fac == pytest.approx(dense, rel=1e-6)


def test_mineig_matches_dense_eigvalsh_on_readme_basis(basis500, region_small,
                                                      kernel):
    # the README specineq basis and region, at the cutoffs where a dense
    # eigvalsh still resolves min_eig, to about eps * lambda_max(K)
    for lam_cap in (25.0, 50.0):
        k_eigs = np.linalg.eigvalsh(
            weighted_gramian(basis500, lam_cap, region_small, kernel))
        got = mineig_weighted_gramian(basis500, lam_cap, region_small, kernel)
        cond_k = k_eigs[-1] / k_eigs[0]
        assert abs(got / k_eigs[0] - 1.0) <= 10.0 * np.finfo(float).eps * cond_k
        # kappa(F)^2 = cond(K): the carried condition number is the factor's
        assert got.kappa_f ** 2 == pytest.approx(cond_k, rel=1e-6)


def full_stack_mineig(basis, lam_cap, region, kernel):
    """The full-stack min-eig path the streamed one replaced: every weighted
    block materialized, then one QR.  The blocks are formed in place (the
    same products in the same order) to spare a stack-sized temporary.
    Returns min_eig and the condition number of the stacked factor."""
    idx = basis.low_indices(lam_cap)
    r_g = sampled_velocity_factor(basis, idx, region)
    s, w = specineq.kernel_quadrature(kernel)
    cosh_w = np.cosh(np.outer(s, np.sqrt(basis.lambdas[idx])))
    f = np.empty((len(s), len(idx), len(idx)))
    np.multiply(r_g[None, :, :], cosh_w[:, None, :], out=f)
    f *= (np.sqrt(w) * kernel.kappa(s))[:, None, None]
    r_f = np.linalg.qr(f.reshape(-1, len(idx)), mode="r")
    del f
    svals = np.linalg.svd(r_f, compute_uv=False)
    return float(svals[-1] ** 2), float(svals[0] / svals[-1])


def test_mineig_matches_full_stack_within_eps_kappa(basis500, region_small,
                                                    kernel):
    # README cutoffs; the streamed QR reorders the arithmetic, so each value
    # may move by the backward-error floor 2 eps kappa(F) of min_eig
    for lam_cap in (25.0, 50.0, 100.0, 200.0, 400.0):
        ref, kappa_f = full_stack_mineig(basis500, lam_cap, region_small, kernel)
        got = mineig_weighted_gramian(basis500, lam_cap, region_small, kernel)
        assert abs(got - ref) <= 2.0 * np.finfo(float).eps * kappa_f * ref


def test_mineig_memory_does_not_grow_with_the_stack(basis500, region_small,
                                                    kernel):
    # n = 96 modes at Lambda = 200 over 512 kernel nodes: the full stack of
    # 512 x 96 x 96 blocks alone is 38 MB
    mineig_weighted_gramian(basis500, 200.0, region_small, kernel)  # warm caches
    tracemalloc.start()
    try:
        mineig_weighted_gramian(basis500, 200.0, region_small, kernel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_mineig_refines_quadrature_for_the_cosh_growth(monkeypatch, basis60,
                                                       region_small, kernel):
    seen = []
    real = specineq.kernel_quadrature

    def spy(kern, m_max=0.0):
        seen.append(m_max)
        return real(kern, m_max)

    monkeypatch.setattr(specineq, "kernel_quadrature", spy)
    mineig_weighted_gramian(basis60, 30.0, region_small, kernel)
    q_max = math.sqrt(basis60.lambdas[basis60.low_indices(30.0)].max())
    assert seen == [2.0 * q_max]


def test_mineig_rejects_cutoff_above_basis(basis60, region_small, kernel):
    with pytest.raises(InvalidArgumentError, match="exceeds the basis cutoff"):
        mineig_weighted_gramian(basis60, 5000.0, region_small, kernel)


def test_mineig_cosh_floor(basis60, region_small, kernel):
    lam_cap = 40.0
    idx = basis60.low_indices(lam_cap)
    m = obs_gramian(basis60, region_small).matrix[np.ix_(idx, idx)]
    floor = float(np.linalg.eigvalsh(m)[0]) * kappa_sq_integral(kernel)
    got = mineig_weighted_gramian(basis60, lam_cap, region_small, kernel)
    assert got >= floor * (1 - 1e-8)


def test_full_region_lower_bound(basis120, kernel):
    lam_cap = 100.0
    idx = basis120.low_indices(lam_cap)
    n_mat = trace_gramian(basis120)
    bound = (1.0 - np.linalg.eigvalsh(n_mat)[-1]) * kappa_sq_integral(kernel)
    got = mineig_weighted_gramian(basis120, lam_cap, FULL_REGION, kernel)
    assert got >= bound * (1 - 1e-8) > 0


def test_report_positivity_monotone_fit(basis120, region_small, kernel):
    report = spec_ineq_report(basis120, [25.0, 50.0, 100.0], region_small, kernel)
    eigs = [r.min_eig for r in report.records]
    assert all(v > 0 for v in eigs)
    assert all(not r.violation for r in report.records)
    assert eigs == sorted(eigs, reverse=True)  # nonincreasing in the cutoff
    kappas = [r.kappa_f for r in report.records]
    assert all(1.0 <= k < np.inf for k in kappas) and kappas == sorted(kappas)
    assert report.r_squared >= 0.9
    assert report.slope > 0


def test_report_needs_three_cutoffs(basis60, region_small, kernel):
    with pytest.raises(InvalidArgumentError):
        spec_ineq_report(basis60, [10.0, 20.0], region_small, kernel)


def test_nonpositive_min_eig_is_flagged(monkeypatch, basis120, region_small,
                                        kernel):
    real = specineq.mineig_weighted_gramian

    def zero_at_50(basis, lam_cap, *args, **kwargs):
        if lam_cap == 50.0:
            return specineq.MinEig(0.0, float("nan"))
        return real(basis, lam_cap, *args, **kwargs)

    monkeypatch.setattr(specineq, "mineig_weighted_gramian", zero_at_50)
    report = spec_ineq_report(basis120, [25.0, 50.0, 75.0, 100.0],
                              region_small, kernel)
    assert [r.lam_cutoff for r in report.violations] == [50.0]


def test_augmented_field_unit_coefficient(basis60, region_half):
    j = 2
    a = np.zeros(len(basis60))
    a[j] = 1.0
    lam_cap = basis60.lambdas[j] + 1e-9
    fld = augmented_field(basis60, a, lam_cap)
    x1 = np.linspace(0.0, 2 * np.pi, 7, endpoint=False)
    x2 = np.linspace(0.0, 1.0, 7)
    u1_0 = specineq.field_values(fld, [0.0], x1, x2, "u1")[0]
    u2_0 = specineq.field_values(fld, [0.0], x1, x2, "u2")[0]
    m1, m2, _, _ = eval_mode(basis60.modes[j], x1[:, None], x2[None, :])
    assert np.abs(u1_0 - m1).max() <= 1e-12
    assert np.abs(u2_0 - m2).max() <= 1e-12
    ds_u2 = specineq.field_values(fld, [0.0], x1, x2, "u2", ds=1)
    assert np.abs(ds_u2).max() == 0.0  # sinh(0)


def test_augmented_field_support_validation(basis60):
    a = np.zeros(len(basis60))
    a[-1] = 1.0
    with pytest.raises(InvalidArgumentError):
        augmented_field(basis60, a, 10.0)


def test_augmented_field_rejects_cutoff_above_basis(basis60):
    a = np.zeros(len(basis60))
    a[0] = 1.0
    with pytest.raises(InvalidArgumentError, match="exceeds the basis cutoff"):
        augmented_field(basis60, a, 2.0 * basis60.cutoff)


def test_augmented_boundary_values(basis60, rng):
    n_low = 10
    a = np.zeros(len(basis60))
    a[:n_low] = rng.standard_normal(n_low)
    lam_cap = basis60.lambdas[n_low - 1] + 1e-9
    fld = augmented_field(basis60, a, lam_cap)
    s = np.linspace(0.05, 0.9, 6)
    x1 = np.linspace(0.0, 2 * np.pi, 9, endpoint=False)
    u1_bot = specineq.field_values(fld, s, x1, [0.0], "u1")
    u2_bot = specineq.field_values(fld, s, x1, [0.0], "u2")
    u1_top = specineq.field_values(fld, s, x1, [1.0], "u1")
    assert np.abs(u1_bot).max() <= 1e-10
    assert np.abs(u2_bot).max() <= 1e-10
    assert np.abs(u1_top).max() <= 1e-10


def test_augmented_residuals_random(basis120, region_half, rng):
    n_low = 30
    a = np.zeros(len(basis120))
    a[:n_low] = rng.standard_normal(n_low)
    lam_cap = basis120.lambdas[n_low - 1] + 1e-9
    fld = augmented_field(basis120, a, lam_cap, region=region_half)
    grid = (np.linspace(0.05, 0.95, 20),
            np.linspace(0.0, 2 * np.pi, 20, endpoint=False),
            np.linspace(0.0, 1.0, 20))
    res = residual_augmented(fld, grid)
    assert set(res) == {"momentum_x1", "momentum_x2", "divergence", "ventcel",
                        "pressure_laplace"}
    assert max(res.values()) <= 1e-7


def test_augmented_residuals_zero_coefficients(basis60):
    fld = augmented_field(basis60, np.zeros(len(basis60)), 10.0)
    res = residual_augmented(fld, (np.linspace(0.1, 0.9, 4),
                                   np.linspace(0, 6, 4),
                                   np.linspace(0, 1, 4)))
    assert all(v == 0.0 for v in res.values())


def test_gauge_invariance(basis60, region_half, rng):
    n_low = 8
    a = np.zeros(len(basis60))
    a[:n_low] = rng.standard_normal(n_low)
    lam_cap = basis60.lambdas[n_low - 1] + 1e-9
    grid = (np.linspace(0.1, 0.9, 6), np.linspace(0, 6, 6), np.linspace(0, 1, 6))
    with_gauge = residual_augmented(
        augmented_field(basis60, a, lam_cap, region=region_half), grid)
    without = residual_augmented(
        augmented_field(basis60, a, lam_cap), grid)
    for key in with_gauge:
        assert with_gauge[key] == pytest.approx(without[key], abs=1e-14)


def test_gauge_zero_region_mean(basis60, region_half, rng):
    n_low = 8
    a = np.zeros(len(basis60))
    a[:n_low] = rng.standard_normal(n_low)
    lam_cap = basis60.lambdas[n_low - 1] + 1e-9
    fld = augmented_field(basis60, a, lam_cap, region=region_half)
    x1, w1 = gauss_legendre(96, *region_half.x1)
    x2, w2 = gauss_legendre(64, *region_half.x2)
    p = specineq.field_values(fld, [0.37], x1, x2, "p")[0]
    mean = float(w1 @ p @ w2) / region_half.area
    assert abs(mean) <= 1e-10


def test_ds2_finite_difference_order(basis60, rng):
    n_low = 10
    a = np.zeros(len(basis60))
    a[:n_low] = rng.standard_normal(n_low)
    lam_cap = basis60.lambdas[n_low - 1] + 1e-9
    fld = augmented_field(basis60, a, lam_cap)
    s0 = 0.3
    x1 = np.linspace(0.0, 6.0, 5)
    x2 = np.linspace(0.1, 0.9, 5)
    exact = specineq.field_values(fld, [s0], x1, x2, "u2", ds=2)
    errs = []
    for h in (2e-3, 1e-3, 5e-4):
        fd = (specineq.field_values(fld, [s0 - h], x1, x2, "u2")
              - 2.0 * specineq.field_values(fld, [s0], x1, x2, "u2")
              + specineq.field_values(fld, [s0 + h], x1, x2, "u2")) / h ** 2
        errs.append(np.abs(fd - exact).max())
    rate1 = math.log2(errs[0] / errs[1])
    rate2 = math.log2(errs[1] / errs[2])
    assert rate1 == pytest.approx(2.0, abs=0.3)
    assert rate2 == pytest.approx(2.0, abs=0.3)
