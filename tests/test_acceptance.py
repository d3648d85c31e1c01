"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured figure (run with -s to see them).  Budgets from the criteria are
asserted as wall-clock bounds.
"""

import math
import time

import numpy as np
import pytest

from stokesheat import (
    Kernel,
    ObservationRegion,
    StateVector,
    assemble_basis,
    cost_and_constant_fit,
    load_basis,
    make_schedule,
    obs_constant,
    obs_gramian,
    rayleigh_matrix,
    run_lr,
    save_basis,
    sector_eigenvalues,
    stage_control,
    stage_gramian,
    trace_gramian,
    zero_mode,
)
from stokesheat import FULL_REGION
from stokesheat.control import advance_window
from stokesheat.oracle import oracle_eigs
from stokesheat.specineq import augmented_field, field_values, residual_augmented, spec_ineq_report
from stokesheat.cli import main as cli_main


def _report(num, detail):
    print(f"ACCEPTANCE {num:02d}: PASS - {detail}")


@pytest.fixture(scope="module")
def basis200():
    return assemble_basis(200.0)


@pytest.fixture(scope="module")
def basis500():
    return assemble_basis(500.0)


@pytest.fixture(scope="module")
def basis1200():
    return assemble_basis(1200.0)


@pytest.fixture(scope="module")
def region_default():
    return ObservationRegion(x1=(0.0, np.pi), x2=(0.3, 0.7))


@pytest.fixture(scope="module")
def z0_mix(basis1200):
    rng = np.random.default_rng(0)
    a = np.zeros(len(basis1200))
    a[:30] = rng.standard_normal(30)
    a /= np.linalg.norm(a)
    return StateVector(basis1200, a)


@pytest.fixture(scope="module")
def lr_run(region_default, z0_mix):
    sched = make_schedule(1.0, 1.5, 0.5, 1024.0)
    report, z_final = run_lr(z0_mix, sched, region_default, 1e-12)
    return sched, report, z_final


def test_criterion_01_k0_spectrum():
    start = time.monotonic()
    worst = 0.0
    for n in range(1, 21):
        worst = max(worst, abs(zero_mode(n).lam - (n * np.pi) ** 2))
    elapsed = time.monotonic() - start
    assert worst <= 1e-10
    assert elapsed < 1.0
    _report(1, f"max |lam_n - (n pi)^2| = {worst:.3e} in {elapsed:.2f}s")


def test_criterion_02_dispersion_vs_oracle():
    start = time.monotonic()
    worst = 0.0
    for k in (1, 2, 3, 4):
        oracle = oracle_eigs(k, 400, 10)
        roots = sector_eigenvalues(k, float(oracle.values[-1]) * 1.02)[:10]
        rel = np.abs(np.array(roots) - oracle.values) / oracle.values
        worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - start
    assert worst <= 1e-6
    assert elapsed < 30.0
    _report(2, f"k in 1..4, 10 smallest: max rel err {worst:.3e} in {elapsed:.1f}s")


def test_criterion_03_orthonormality_and_rayleigh(basis500):
    gram = obs_gramian(basis500, FULL_REGION).matrix + trace_gramian(basis500)
    dev = float(np.abs(gram - np.eye(len(basis500))).max())
    assert dev <= 1e-8
    ray = rayleigh_matrix(basis500)
    sym = float(np.abs(ray - ray.T).max())
    assert sym <= 1e-7
    rel = float((np.abs(ray + np.diag(basis500.lambdas))
                 / basis500.lambdas.max()).max())
    assert rel <= 1e-6
    _report(3, f"Lam=500 ({len(basis500)} modes): max|Gram-I|={dev:.2e}, "
               f"Rayleigh rel dev={rel:.2e}")


def test_criterion_04_parseval_split(basis200):
    m = obs_gramian(basis200, FULL_REGION).matrix
    n = trace_gramian(basis200)
    dev = float(np.abs(m + n - np.eye(len(basis200))).max())
    assert dev <= 1e-8
    _report(4, f"Lam=200: max|M+N-I| = {dev:.2e}")


def test_criterion_05_augmented_residuals():
    basis = assemble_basis(120.0)
    rng = np.random.default_rng(5)
    a = np.zeros(len(basis))
    a[:30] = rng.standard_normal(30)
    lam_cap = basis.lambdas[29] + 1e-9
    region = ObservationRegion((0.0, np.pi), (0.3, 0.7))
    fld = augmented_field(basis, a, lam_cap, region=region)
    grid = (np.linspace(0.05, 0.95, 20),
            np.linspace(0.0, 2 * np.pi, 20, endpoint=False),
            np.linspace(0.0, 1.0, 20))
    res = residual_augmented(fld, grid)
    worst = max(res.values())
    assert worst <= 1e-7
    # second-order convergence of the finite-difference s-curvature
    x1 = np.linspace(0.0, 6.0, 5)
    x2 = np.linspace(0.1, 0.9, 5)
    exact = field_values(fld, [0.3], x1, x2, "u2", ds=2)
    errs = []
    for h in (2e-3, 1e-3, 5e-4):
        fd = (field_values(fld, [0.3 - h], x1, x2, "u2")
              - 2 * field_values(fld, [0.3], x1, x2, "u2")
              + field_values(fld, [0.3 + h], x1, x2, "u2")) / h ** 2
        errs.append(np.abs(fd - exact).max())
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(abs(r - 2.0) <= 0.3 for r in rates)
    _report(5, f"worst residual {worst:.2e}; FD rates {rates[0]:.2f}, {rates[1]:.2f}")


def test_criterion_06_spectral_inequality(basis500):
    start = time.monotonic()
    region = ObservationRegion((0.0, 0.5 * np.pi), (0.4, 0.6))
    report = spec_ineq_report(basis500, [25.0, 50.0, 100.0, 200.0, 400.0],
                              region, Kernel.default())
    elapsed = time.monotonic() - start
    eigs = [r.min_eig for r in report.records]
    assert all(v > 0 for v in eigs)
    assert report.r_squared >= 0.9
    assert elapsed < 120.0
    _report(6, f"min-eigs all positive (smallest {min(eigs):.2e}), "
               f"R^2={report.r_squared:.3f}, slope={report.slope:.2f}, "
               f"{elapsed:.1f}s")


def test_criterion_07_observability_shape(basis500):
    region = ObservationRegion((0.0, np.pi / 8), (0.47, 0.53))
    t_list = (0.1, 0.2, 0.4, 0.8)
    values = [(t, obs_constant(basis500, 200.0, t, region).value)
              for t in t_list]
    assert all(math.isfinite(v) and v > 0 for _, v in values)
    assert all(values[i][1] >= values[i + 1][1] for i in range(len(values) - 1))
    fit = cost_and_constant_fit(values, sweep="T", gamma=1.5)
    assert fit.slope > 0
    assert fit.r_squared >= 0.9
    _report(7, f"C_obs nonincreasing in T; log C_obs vs 1/T^1.5: "
               f"slope={fit.slope:.3f}, R^2={fit.r_squared:.3f}")


def test_criterion_08_null_control(lr_run, z0_mix):
    start = time.monotonic()
    sched, report, _ = lr_run
    ratio = report.final_norm / report.initial_norm
    assert ratio <= 1e-4
    for rec in report.stages:
        conditioning_limited = rec.rank_kept < rec.dim
        if not conditioning_limited:
            assert rec.low_residual <= 1e-8 * report.initial_norm
        else:
            # pseudo-inverse threshold is the binding limit; still expect it
            assert rec.low_residual <= 1e-8 * report.initial_norm
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report(8, f"final/initial = {ratio:.2e}; max stage residual "
               f"{report.max_low_residual:.2e}; "
               f"{sum(1 for r in report.stages if r.clipped)} clipped stages")


def test_criterion_09_telescoping(lr_run, region_default, z0_mix):
    _, report_half, _ = lr_run
    c1 = {0.5: report_half.c1}
    for eps in (0.4, 0.6):
        sched = make_schedule(1.0, 1.5, eps, 1024.0)
        rep, _ = run_lr(z0_mix, sched, region_default, 1e-12)
        c1[eps] = rep.c1
    assert all(math.isfinite(v) and v > 0 for v in c1.values())
    ref = c1[0.5]
    devs = {eps: abs(v - ref) / ref for eps, v in c1.items()}
    assert max(devs.values()) <= 0.2
    _report(9, "C1 = " + ", ".join(f"{e}: {v:.4f}" for e, v in sorted(c1.items()))
               + f"; max deviation {max(devs.values()):.1%}")


def _rk4(rhs, y0, t1, h):
    y = y0.copy()
    t = 0.0
    n_steps = int(round(t1 / h))
    h = t1 / n_steps
    for _ in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


def test_criterion_10_propagation_exactness():
    basis = assemble_basis(120.0)
    region = ObservationRegion((0.0, np.pi), (0.3, 0.7))
    gram = obs_gramian(basis, region)
    lams = basis.lambdas
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(10):
        w = float(rng.uniform(0.02, 0.12))
        lam_cap = float(rng.uniform(20.0, 100.0))
        a = rng.standard_normal(len(basis))
        state = StateVector(basis, a / np.linalg.norm(a))
        seg, _ = stage_control(state, lam_cap, gram, w, 1e-12)
        exact = advance_window(state, seg, gram)
        cols = gram.matrix[:, seg.indices]
        lam_in = lams[seg.indices]

        def rhs(t, y):
            return -lams * y + cols @ (-seg.amplitudes * np.exp(-lam_in * (w - t)))

        approx = _rk4(rhs, state.coeffs, w, 1e-4)
        worst = max(worst, float(np.abs(approx - exact.coeffs).max()))
    assert worst <= 1e-8
    # Gramian closed form against a 10^4-node trapezoid rule
    idx = basis.low_indices(60.0)
    lam_i = lams[idx]
    w = 0.1
    g = stage_gramian(basis, 60.0, gram, w)
    ts = np.linspace(0.0, w, 10001)
    dec = np.exp(-np.outer(lam_i, ts))
    e_ref = np.einsum("it,jt->ij", dec, dec) * (ts[1] - ts[0])
    e_ref -= 0.5 * (ts[1] - ts[0]) * (np.outer(dec[:, 0], dec[:, 0])
                                      + np.outer(dec[:, -1], dec[:, -1]))
    gram_dev = float(np.abs(g - gram.matrix[np.ix_(idx, idx)] * e_ref).max())
    assert gram_dev <= 1e-8
    _report(10, f"advance vs RK4(h=1e-4): {worst:.2e}; Gramian vs trapezoid: "
                f"{gram_dev:.2e}")


def test_criterion_11_determinism(tmp_path, basis500):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_basis(basis500, p1)
    save_basis(load_basis(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    outputs = []
    for threads in (1, 2, 8):
        out = tmp_path / f"threads{threads}"
        code = cli_main(["eigens", "--lambda-max", "80",
                         "--threads", str(threads), "--out-dir", str(out)])
        assert code == 0
        outputs.append((out / "modes.csv").read_bytes()
                       + (out / "orthonormality.json").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    _report(11, "save-load-save byte-identical; outputs identical for "
                "1/2/8 threads")
