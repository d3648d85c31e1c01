import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import eigh

from stokesheat import (
    InvalidArgumentError,
    ObservabilityDefectError,
    ObservationRegion,
    StateVector,
    assemble_basis,
    cost_and_constant_fit,
    make_schedule,
    obs_constant,
    obs_gramian,
    run_lr,
    semigroup,
    stage_control,
    stage_gramian,
    trace_gramian,
    zero_mode,
)
from stokesheat import FULL_REGION, control
from stokesheat.control import (ControlSegment, _exp_integral,
                                _window_time_nodes, advance_window,
                                window_observation)
from stokesheat.spectral import EigenBasis

from mode_reference import basis_state, ref_sampled_velocity_factor


def unit_mix(basis, rng, n_low):
    a = np.zeros(len(basis))
    a[:n_low] = rng.standard_normal(n_low)
    a /= np.linalg.norm(a)
    return StateVector(basis, a)


def test_make_schedule_first_stages():
    sched = make_schedule(1.0, 2.0, 0.5, 1e6)
    assert sched.stages[0].tau == pytest.approx(0.5)
    assert sched.stages[0].lam_cap == pytest.approx(64.0)
    assert sched.stages[1].tau == pytest.approx(0.25)
    assert sched.stages[1].lam_cap == pytest.approx(512.0)
    assert not sched.stages[0].clipped


def test_make_schedule_geometry():
    sched = make_schedule(0.8, 1.5, 0.5, 1024.0)
    taus = [s.tau for s in sched.stages]
    for a, b in zip(taus[:-1], taus[1:]):
        assert b == pytest.approx(0.5 * a)
    assert sum(taus) <= 0.8
    assert sched.end == pytest.approx(0.8 * (1 - 2.0 ** -len(taus)))
    starts = [s.start for s in sched.stages]
    assert starts[0] == 0.0
    for s0, s1, tau in zip(starts[:-1], starts[1:], taus[:-1]):
        assert s1 == pytest.approx(s0 + tau)


def test_make_schedule_gamma_validation():
    with pytest.raises(InvalidArgumentError):
        make_schedule(1.0, 1.0, 0.5, 100.0)
    with pytest.raises(InvalidArgumentError):
        make_schedule(1.0, 0.9, 0.5, 100.0)


def test_make_schedule_clipping():
    sched = make_schedule(1.0, 1.5, 0.5, 100.0)
    caps = [s.lam_cap for s in sched.stages]
    assert caps[0] == pytest.approx(32.0)
    assert all(c <= 100.0 for c in caps)
    assert any(s.clipped for s in sched.stages)


def single_mode_basis():
    return EigenBasis(cutoff=20.0, modes=(zero_mode(1),), metadata={})


def test_stage_gramian_scalar_formula(region_half):
    basis = single_mode_basis()
    gram = obs_gramian(basis, region_half)
    w = 0.3
    g = stage_gramian(basis, 15.0, gram, w)
    lam = basis.lambdas[0]
    ref = gram.matrix[0, 0] * (1 - math.exp(-2 * lam * w)) / (2 * lam)
    assert g[0, 0] == pytest.approx(ref, rel=1e-14)


def test_stage_gramian_long_window_limit(basis60, region_half):
    gram = obs_gramian(basis60, region_half)
    idx = basis60.low_indices(30.0)
    lams = basis60.lambdas[idx]
    g = stage_gramian(basis60, 30.0, gram, 50.0)
    ref = gram.matrix[np.ix_(idx, idx)] / np.add.outer(lams, lams)
    assert np.abs(g - ref).max() <= 1e-12


def test_stage_gramian_vs_time_quadrature(basis60, region_half):
    gram = obs_gramian(basis60, region_half)
    idx = basis60.low_indices(40.0)
    lams = basis60.lambdas[idx]
    w = 0.125
    g = stage_gramian(basis60, 40.0, gram, w)
    ts = np.linspace(0.0, w, 10001)
    dec = np.exp(-np.outer(lams, ts))
    e_ref = np.einsum("it,jt->ij", dec, dec) * (ts[1] - ts[0])
    e_ref -= 0.5 * (ts[1] - ts[0]) * (np.outer(dec[:, 0], dec[:, 0])
                                      + np.outer(dec[:, -1], dec[:, -1]))
    ref = gram.matrix[np.ix_(idx, idx)] * e_ref
    assert np.abs(g - ref).max() <= 1e-8


def test_stage_control_zero_state(basis60, region_half):
    gram = obs_gramian(basis60, region_half)
    state = StateVector(basis60, np.zeros(len(basis60)))
    seg, info = stage_control(state, 30.0, gram, 0.2, 1e-12)
    assert np.abs(seg.amplitudes).max() == 0.0
    assert info.cost == 0.0
    assert info.residual == 0.0


def test_stage_control_scalar_solve(region_half):
    basis = single_mode_basis()
    gram = obs_gramian(basis, region_half)
    state = StateVector(basis, np.array([0.7]))
    w = 0.25
    seg, info = stage_control(state, 15.0, gram, w, 1e-12)
    lam = basis.lambdas[0]
    mu = 0.7 * math.exp(-lam * w)
    g11 = gram.matrix[0, 0] * (1 - math.exp(-2 * lam * w)) / (2 * lam)
    assert seg.amplitudes[0] == pytest.approx(mu / g11, rel=1e-12)
    assert info.cost == pytest.approx(mu ** 2 / g11, rel=1e-12)
    assert info.residual <= 1e-14
    after = advance_window(state, seg, gram)
    assert abs(after.coeffs[0]) <= 1e-14


def test_stage_control_conditioning_contract(basis120, region_half, rng):
    gram = obs_gramian(basis120, region_half)
    state = unit_mix(basis120, rng, len(basis120))
    w = 0.125
    lam_cap = 64.0
    g = stage_gramian(basis120, lam_cap, gram, w)
    d = np.linalg.eigvalsh(g)
    cond = d[-1] / d[0]
    seg, info = stage_control(state, lam_cap, gram, w, 1e-12)
    idx = basis120.low_indices(lam_cap)
    mu = np.exp(-basis120.lambdas[idx] * w) * state.coeffs[idx]
    if cond * np.finfo(float).eps <= 1e-8:
        assert info.residual <= 1e-8 * np.linalg.norm(mu)
    # high-precision oracle on the same linear system via mpmath
    import mpmath as mp

    mp.mp.dps = 50
    g_mp = mp.matrix(g.tolist())
    c_ref = mp.lu_solve(g_mp, mp.matrix(mu.tolist()))
    c_ref = np.array([float(v) for v in c_ref])
    rel = np.linalg.norm(seg.amplitudes - c_ref) / np.linalg.norm(c_ref)
    assert rel <= cond * np.finfo(float).eps * 1e3


def test_advance_zero_control_is_semigroup(basis60, region_half, rng):
    gram = obs_gramian(basis60, region_half)
    sched = make_schedule(1.0, 1.5, 0.5, 30.0)
    stage = sched.stages[0]
    state = unit_mix(basis60, rng, len(basis60))
    empty = ControlSegment(window=stage.window, indices=np.zeros(0, dtype=int),
                           amplitudes=np.zeros(0))
    out = advance_window(semigroup(state, stage.passive), empty, gram)
    ref = semigroup(state, stage.tau)
    assert np.abs(out.coeffs - ref.coeffs).max() <= 1e-15


def test_advance_low_block_matches_reported_residual(basis120, region_half, rng):
    gram = obs_gramian(basis120, region_half)
    state = unit_mix(basis120, rng, len(basis120))
    w = 0.125
    # full-rank stage: achieved and reported low-mode defects coincide
    seg, info = stage_control(state, 30.0, gram, w, 1e-12)
    after = advance_window(state, seg, gram)
    low = np.linalg.norm(after.coeffs[seg.indices])
    assert low == pytest.approx(info.residual, abs=1e-12)
    # rank-truncated stage: still consistent at the conditioning level
    seg, info = stage_control(state, 100.0, gram, w, 1e-12)
    after = advance_window(state, seg, gram)
    low = np.linalg.norm(after.coeffs[seg.indices])
    assert low == pytest.approx(info.residual, abs=1e-10)


def test_advance_matches_ode_integrator(basis120, region_half, rng):
    gram = obs_gramian(basis120, region_half)
    lams = basis120.lambdas
    w = 0.0625
    lam_cap = 100.0
    for _ in range(3):
        state = unit_mix(basis120, rng, len(basis120))
        seg, _ = stage_control(state, lam_cap, gram, w, 1e-12)
        exact = advance_window(state, seg, gram)
        cols = gram.matrix[:, seg.indices]
        lam_in = lams[seg.indices]

        def rhs(t, y):
            g = -seg.amplitudes * np.exp(-lam_in * (w - t))
            return -lams * y + cols @ g

        sol = solve_ivp(rhs, (0.0, w), state.coeffs, method="RK45",
                        rtol=1e-11, atol=1e-14)
        assert np.abs(sol.y[:, -1] - exact.coeffs).max() <= 1e-8


def test_window_observation_free_and_controlled(basis60, region_half, rng):
    gram = obs_gramian(basis60, region_half)
    state = unit_mix(basis60, rng, len(basis60))
    w = 0.2
    # free trajectory: closed form is a^T (M * E(w)) a
    seg0 = ControlSegment(window=w, indices=np.array([], dtype=int),
                          amplitudes=np.array([]))
    got = window_observation(state, seg0, gram)
    lams = basis60.lambdas
    ref = float(state.coeffs @ ((gram.matrix * _exp_integral(lams, lams, w))
                                @ state.coeffs))
    assert got == pytest.approx(ref, rel=1e-10)
    # controlled trajectory vs dense-time reference
    seg, _ = stage_control(state, 30.0, gram, w, 1e-12)
    got_c = window_observation(state, seg, gram)
    ts = np.linspace(0.0, w, 20001)
    lam_in = lams[seg.indices]
    gamma_m = (gram.matrix[:, seg.indices] * seg.amplitudes) / np.add.outer(lams, lam_in)
    alpha = state.coeffs + gamma_m @ np.exp(-lam_in * w)
    traj = (np.exp(-np.outer(lams, ts)) * alpha[:, None]
            - gamma_m @ np.exp(-np.outer(lam_in, w - ts)))
    q = np.einsum("lt,lt->t", traj, gram.matrix @ traj)
    ref_c = float(np.trapezoid(q, ts))
    assert got_c == pytest.approx(ref_c, rel=1e-5)


def test_run_lr_zero_state(basis120, region_half):
    sched = make_schedule(1.0, 1.5, 0.5, 100.0)
    z0 = StateVector(basis120, np.zeros(len(basis120)))
    report, zT = run_lr(z0, sched, region_half, 1e-12)
    assert report.final_norm == 0.0
    assert report.total_cost == 0.0
    assert np.abs(zT.coeffs).max() == 0.0


def test_run_lr_cutoff_validation(basis60, region_half, monkeypatch):
    import stokesheat.control as control

    calls = []
    for name in ("obs_gramian", "stage_control"):
        real = getattr(control, name)
        monkeypatch.setattr(control, name,
                            lambda *a, _real=real, _name=name, **k:
                            calls.append(_name) or _real(*a, **k))
    sched = make_schedule(1.0, 1.5, 0.5, 1024.0)
    z0 = StateVector(basis60, np.zeros(len(basis60)))
    # the largest stage cap is named, and no stage runs before the rejection
    with pytest.raises(InvalidArgumentError, match="lam_cap 1024"):
        run_lr(z0, sched, region_half, 1e-12)
    assert calls == []


def test_run_lr_segments_carry_the_stage_window(basis120, region_half, rng,
                                                monkeypatch):
    import stokesheat.control as control

    seen = {"advance_window": [], "window_observation": []}
    for name, segments in seen.items():
        real = getattr(control, name)
        monkeypatch.setattr(control, name,
                            lambda state, seg, gram, _real=real, _segs=segments:
                            _segs.append(seg) or _real(state, seg, gram))
    # epsilon 0.4: stage start + passive + window is not exactly start + tau
    sched = make_schedule(1.0, 1.5, 0.4, 100.0)
    run_lr(unit_mix(basis120, rng, 20), sched, region_half, 1e-12)
    for segments in seen.values():
        assert [s.window for s in segments] == [s.window for s in sched.stages]


def test_zero_control_segment_is_free_decay(basis60, region_half, rng):
    # the general propagation formulas reproduce free decay bit for bit when
    # the control vanishes, whether or not the segment names any modes
    gram = obs_gramian(basis60, region_half)
    lams = basis60.lambdas
    for n_idx in (0, 1, 7, len(basis60)):
        for w in (1e-4, 0.0375, 0.2, 0.7):
            state = unit_mix(basis60, rng, len(basis60))
            seg = ControlSegment(window=w, indices=np.arange(n_idx),
                                 amplitudes=np.zeros(n_idx))
            out = advance_window(state, seg, gram)
            assert np.array_equal(out.coeffs, state.coeffs * np.exp(-lams * w))
            t, wt = _window_time_nodes(w, float(lams.max()))
            traj = np.exp(-np.outer(lams, t)) * state.coeffs[:, None]
            free = float(np.dot(wt, np.einsum("lt,lt->t", traj,
                                              gram.matrix @ traj)))
            assert window_observation(state, seg, gram) == free


def test_window_observation_rejects_gramian_of_another_basis(basis60,
                                                             region_half, rng):
    other = assemble_basis(60.0, density=32)
    assert len(other) == len(basis60)
    assert other.basis_id != basis60.basis_id
    state = unit_mix(basis60, rng, 5)
    seg = ControlSegment(window=0.1, indices=np.zeros(0, dtype=int),
                         amplitudes=np.zeros(0))
    # same size: used silently with the wrong basis unless checked
    with pytest.raises(InvalidArgumentError, match="different basis"):
        window_observation(state, seg, obs_gramian(other, region_half))
    # another size: numpy's broadcast error unless checked
    with pytest.raises(InvalidArgumentError, match="different basis"):
        window_observation(state, seg,
                           obs_gramian(assemble_basis(30.0), region_half))


def test_run_lr_single_mode_stage_trace(basis120, region_half):
    # lowest mode, one-stage schedule: the low block is annihilated and the
    # final norm is the control spill into the uncontrolled modes
    sched = make_schedule(1.0, 1.5, 0.5, 32.0)
    one = type(sched)(t_horizon=sched.t_horizon, gamma=sched.gamma,
                      epsilon=sched.epsilon, lambda_cap=sched.lambda_cap,
                      stages=sched.stages[:1])
    a = np.zeros(len(basis120))
    a[0] = 1.0
    report, zT = run_lr(StateVector(basis120, a), one, region_half, 1e-12)
    rec = report.stages[0]
    assert rec.low_residual <= 1e-10
    idx = basis120.low_indices(32.0)
    spill = np.abs(zT.coeffs)
    spill[idx] = 0.0
    assert report.final_norm <= np.linalg.norm(spill) + 1e-12
    assert rec.cost > 0


def test_run_lr_monotone_improvement(basis120, region_half, rng):
    sched = make_schedule(1.0, 1.5, 0.5, 100.0)
    one = type(sched)(t_horizon=sched.t_horizon, gamma=sched.gamma,
                      epsilon=sched.epsilon, lambda_cap=sched.lambda_cap,
                      stages=sched.stages[:1])
    for _ in range(10):
        z0 = unit_mix(basis120, rng, 20)
        full, _ = run_lr(z0, sched, region_half, 1e-12)
        short, _ = run_lr(z0, one, region_half, 1e-12)
        assert full.final_norm <= short.final_norm * (1 + 1e-9)


def test_run_lr_energy_accounting(basis120, region_half, rng):
    sched = make_schedule(1.0, 1.5, 0.5, 100.0)
    gram = obs_gramian(basis120, region_half)
    m_norm = float(np.linalg.norm(gram.matrix, 2))
    z0 = unit_mix(basis120, rng, 25)
    report, _ = run_lr(z0, sched, region_half, 1e-12)
    for rec in report.stages:
        bound = rec.pre_norm + math.sqrt(max(rec.cost, 0.0)) * math.sqrt(m_norm)
        assert rec.post_norm <= bound * (1 + 1e-9)


def test_telescoping_constant_finite_and_zero_run(basis120, region_half, rng):
    sched = make_schedule(1.0, 1.5, 0.5, 100.0)
    z0 = unit_mix(basis120, rng, 20)
    report, _ = run_lr(z0, sched, region_half, 1e-12)
    assert math.isfinite(report.c1)
    assert report.c1 > 0
    z0 = StateVector(basis120, np.zeros(len(basis120)))
    report0, _ = run_lr(z0, sched, region_half, 1e-12)
    assert report0.c1 == pytest.approx(1e-12)  # every inequality is 0 <= 0


def test_obs_constant_scalar_formula(region_half):
    basis = single_mode_basis()
    t_hor = 0.4
    c = obs_constant(basis, 15.0, t_hor, region_half)
    lam = basis.lambdas[0]
    m11 = obs_gramian(basis, region_half).matrix[0, 0]
    ref = math.exp(-2 * lam * t_hor) * 2 * lam / (m11 * (1 - math.exp(-2 * lam * t_hor)))
    assert c.value == pytest.approx(ref, rel=1e-9)
    assert abs(np.linalg.norm(c.direction) - 1.0) <= 1e-12


def test_obs_constant_full_region_bound(basis60):
    t_hor = 0.5
    lam_cap = 30.0
    c = obs_constant(basis60, lam_cap, t_hor, FULL_REGION)
    idx = basis60.low_indices(lam_cap)
    lam_max = basis60.lambdas[idx][-1]
    n_max = float(np.linalg.eigvalsh(trace_gramian(basis60))[-1])
    bound = (math.exp(-2 * basis60.lambdas[0] * t_hor) * 2 * lam_max
             / ((1 - n_max) * (1 - math.exp(-2 * lam_max * t_hor))))
    assert c.value <= bound


def test_obs_constant_monotone_in_horizon(basis220, region_half):
    values = [obs_constant(basis220, 200.0, t, region_half).value
              for t in np.linspace(0.1, 1.0, 10)]
    for a, b in zip(values[:-1], values[1:]):
        assert a >= b * (1 - 1e-12)


def test_obs_constant_matches_dense_generalized_eigh(basis60):
    # README observe region; a dense generalized eigensolve of the pair
    # (diag(exp(-2 lam T)), O) resolves C_obs to about eps * cond(O)
    region = ObservationRegion((0.0, 0.392699081698724), (0.47, 0.53))
    gram = obs_gramian(basis60, region)
    for lam_cap in (30.0, 60.0):
        lams = basis60.lambdas[basis60.low_indices(lam_cap)]
        for t_hor in (0.1, 0.4, 0.8):
            o_mat = stage_gramian(basis60, lam_cap, gram, t_hor)
            ref = eigh(np.diag(np.exp(-2.0 * lams * t_hor)), o_mat,
                       eigvals_only=True)[-1]
            o_eigs = np.linalg.eigvalsh(o_mat)
            tol = 10.0 * np.finfo(float).eps * o_eigs[-1] / o_eigs[0]
            c = obs_constant(basis60, lam_cap, t_hor, region)
            assert abs(c.value / ref - 1.0) <= tol
            # the direction attains the value, lives on the low modes and
            # has its largest-magnitude entry positive
            z = c.direction[c.indices]
            ratio = (np.sum((np.exp(-lams * t_hor) * z) ** 2)
                     / (z @ o_mat @ z))
            assert abs(ratio / c.value - 1.0) <= tol
            assert not np.delete(c.direction, c.indices).any()
            assert c.direction[np.argmax(np.abs(c.direction))] > 0.0


def test_obs_constant_matches_full_stack_within_eps_kappa(basis220,
                                                         monkeypatch):
    # the README observe run: the compressed stack against every time-node
    # block of the sample-matrix velocity factor materialized and factored by
    # one QR, which the value may differ from by the backward-error floor
    # 2 eps kappa(R)
    region = ObservationRegion((0.0, 0.392699081698724), (0.47, 0.53))
    factors = []

    def full_stack_r(r_g, row_weights, col_scales):
        full = row_weights[:, None, None] * (r_g[None] * col_scales[:, None, :])
        factors.append(np.linalg.qr(full.reshape(-1, r_g.shape[1]), mode="r"))
        return factors[-1]

    for t_hor in (0.1, 0.2, 0.4, 0.8):
        got = obs_constant(basis220, 200.0, t_hor, region).value
        with monkeypatch.context() as patch:
            patch.setattr(control, "stacked_factor_r", full_stack_r)
            patch.setattr(control, "sampled_velocity_factor",
                          ref_sampled_velocity_factor)
            ref = obs_constant(basis220, 200.0, t_hor, region).value
        svals = np.linalg.svd(factors[-1], compute_uv=False)
        kappa_r = svals[0] / svals[-1]
        assert abs(got - ref) <= 2.0 * np.finfo(float).eps * kappa_r * ref


# the README observe region: caps 25 and 50 keep every stage-Gramian
# eigenvalue at each horizon, cap 100 drops 4 of 49 at T = 0.1
@pytest.mark.parametrize("lam_cap", [25.0, 50.0, 100.0])
def test_hum_duality_control_cost_meets_obs_constant(basis220, lam_cap):
    # HUM duality (Lions, SIAM Review 30, 1988): stage_control's minimal
    # cost of steering z0 to zero in a window T is (D z0)^T G^+ (D z0), with
    # G the stage Gramian and D = diag(exp(-lam T)).  Its maximum over unit
    # z0, lambda_max(D G^+ D), is obs_constant's C_obs(T) when G^+ keeps
    # every eigenvalue, and at most C_obs when the truncation drops some.
    # The eigh path resolves it to about n eps kappa of the kept spectrum,
    # far above obs_constant's 2 eps kappa(R) floor.
    region = ObservationRegion((0.0, 0.392699081698724), (0.47, 0.53))
    gram = obs_gramian(basis220, region)
    idx = basis220.low_indices(lam_cap)
    decay_rates = basis220.lambdas[idx]
    for t_hor in (0.1, 0.4, 0.8):
        # column j of G^+ D is the amplitude vector that steers mode j
        amps = [stage_control(basis_state(basis220, j), lam_cap, gram, t_hor,
                              1e-12)[0].amplitudes for j in idx]
        hum = np.exp(-decay_rates * t_hor)[:, None] * np.array(amps).T
        w, v = np.linalg.eigh(0.5 * (hum + hum.T))
        d = np.linalg.eigvalsh(stage_gramian(basis220, lam_cap, gram, t_hor))
        kept = d > 1e-12 * d[-1]
        floor = len(idx) * np.finfo(float).eps * d[-1] / d[kept].min()
        z0 = np.zeros(len(basis220))
        z0[idx] = v[:, -1]
        _, info = stage_control(StateVector(basis220, z0), lam_cap, gram,
                                t_hor, 1e-12)
        assert info.rank_kept == kept.sum()
        assert abs(info.cost / w[-1] - 1.0) <= floor
        c_obs = obs_constant(basis220, lam_cap, t_hor, region).value
        if kept.all():
            assert abs(w[-1] / c_obs - 1.0) <= floor
        else:
            assert w[-1] <= c_obs * (1.0 + floor)


def test_stage_control_with_eig_rejects_cutoff_above_basis(basis60,
                                                           region_half, rng):
    gram = obs_gramian(basis60, region_half)
    eig = np.linalg.eigh(stage_gramian(basis60, basis60.cutoff, gram, 0.1))
    with pytest.raises(InvalidArgumentError, match="exceeds the basis cutoff"):
        stage_control(unit_mix(basis60, rng, 5), 2.0 * basis60.cutoff, gram,
                      0.1, 1e-12, gram_eig=eig)


def test_obs_constant_rejects_cutoff_above_basis(basis60, region_half):
    with pytest.raises(InvalidArgumentError, match="exceeds the basis cutoff"):
        obs_constant(basis60, 5000.0, 0.5, region_half)


def test_obs_constant_defect_error(basis220, region_small):
    with pytest.raises(ObservabilityDefectError) as err:
        obs_constant(basis220, 200.0, 0.5, region_small, defect_threshold=1e-2)
    assert err.value.direction is not None
    assert np.linalg.norm(err.value.direction) == pytest.approx(1.0, abs=1e-10)


def test_fit_exact_synthetic():
    gamma = 1.5
    ts = [0.1, 0.2, 0.4, 0.8]
    pts = [(t, math.exp(3.0 + 5.0 * t ** -gamma)) for t in ts]
    fit = cost_and_constant_fit(pts, sweep="T", gamma=gamma)
    assert fit.slope == pytest.approx(5.0, rel=1e-12)
    assert fit.intercept == pytest.approx(3.0, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_constant_data():
    pts = [(lam, 2.5) for lam in (25, 50, 100, 200)]
    fit = cost_and_constant_fit(pts, sweep="Lambda")
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_validation():
    with pytest.raises(InvalidArgumentError):
        cost_and_constant_fit([(0.1, 1.0), (0.2, 2.0), (0.4, 3.0)], sweep="T",
                              gamma=1.5)
    with pytest.raises(InvalidArgumentError):
        cost_and_constant_fit([(0.1, 1.0)] * 4, sweep="T", gamma=1.5)
    with pytest.raises(InvalidArgumentError):
        cost_and_constant_fit([(0.1, 1.0), (0.2, 2.0), (0.4, 3.0), (0.8, 4.0)],
                              sweep="T")


def test_run_lr_runs_a_region_given_as_lists(basis60, region_half):
    sched = make_schedule(1.0, 1.5, 0.5, 50.0)
    z0 = StateVector(basis60, np.eye(len(basis60))[0])
    same = ObservationRegion(list(region_half.x1), list(region_half.x2))
    report, _ = run_lr(z0, sched, same, 1e-12)
    assert report.final_norm <= 1e-4


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="run_lr reuses one stage-Gramian factorization per "
                          "cutoff across windows (ROADMAP item 1)")
def test_run_lr_stage_records_match_fresh_stage_control(basis120, region_half,
                                                        gram120, rng):
    sched = make_schedule(1.0, 1.5, 0.5, 100.0)   # stages 1-12 share cap 100
    z0 = unit_mix(basis120, rng, 25)
    report, _ = run_lr(z0, sched, region_half, 1e-12)

    def close(a, b):
        return a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b))

    state = z0
    for stage, rec in zip(sched.stages, report.stages):
        pre = float(np.linalg.norm(state.coeffs))
        at_window = semigroup(state, stage.passive)
        seg, info = stage_control(at_window, stage.lam_cap, gram120,
                                  stage.window, 1e-12)
        obs = window_observation(at_window, seg, gram120)
        state = advance_window(at_window, seg, gram120)
        fresh = (pre, float(np.linalg.norm(state.coeffs)), info.cost,
                 info.cond_estimate, obs, info.rank_kept, info.dim)
        got = (rec.pre_norm, rec.post_norm, rec.cost, rec.cond_estimate,
               rec.obs_integral, rec.rank_kept, rec.dim)
        assert all(map(close, got, fresh)), (stage.index, got, fresh)


@settings(max_examples=200, deadline=None)
@given(t_horizon=st.floats(1e-3, 1.0), gamma=st.floats(1.01, 5.0),
       epsilon=st.floats(0.01, 0.99), lambda_cap=st.floats(1.0, 1e6))
def test_make_schedule_properties(t_horizon, gamma, epsilon, lambda_cap):
    sched = make_schedule(t_horizon, gamma, epsilon, lambda_cap)
    stages = sched.stages
    assert stages[0].start == 0.0
    for prev, cur in zip(stages, stages[1:]):
        assert cur.start == prev.start + prev.tau       # stages tile [0, end]
        assert cur.tau == 0.5 * prev.tau
        assert cur.window == 0.5 * prev.window
        assert prev.lam_cap <= cur.lam_cap
    assert sched.end == stages[-1].start + stages[-1].tau <= t_horizon
    for s in stages:
        raw = (epsilon * s.tau) ** -(1.0 + gamma)
        assert s.clipped == (raw > lambda_cap)
        assert s.lam_cap == min(raw, lambda_cap) <= lambda_cap
