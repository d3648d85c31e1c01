"""Dyadic null-control synthesis with exact modal propagation.

The horizon is split into stages of halving length; each stage dissipates
freely and then spends its final fraction steering every mode below the
stage cutoff to zero with the minimal-norm Gramian control.  Cutoffs grow
per stage like (eps*tau)**-(1+gamma), clipped at a configured ceiling so a
finite basis can serve as the truth model.  Propagation through windows is
by closed-form integration of the forced modal system, so the loop carries
no time-stepping error.  :func:`run_lr` factors a stage Gramian once per
distinct cutoff and reuses that factorization at the later, shorter-window
stages of the same cutoff, so their controls, costs, kept ranks and
condition estimates are those of the first window's Gramian, not their own.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, ObservabilityDefectError
from .fitting import linear_fit
from .hilbert import (StateVector, check_gramian, obs_gramian,
                      sampled_velocity_factor, semigroup, stacked_factor_r)
from .quadrature import gauss_legendre


@dataclass(frozen=True)
class Stage:
    index: int
    start: float
    tau: float
    passive: float
    window: float
    lam_cap: float
    clipped: bool


@dataclass(frozen=True)
class LRSchedule:
    t_horizon: float
    gamma: float
    epsilon: float
    lambda_cap: float
    stages: tuple

    @property
    def end(self):
        last = self.stages[-1]
        return last.start + last.tau


def make_schedule(t_horizon, gamma, epsilon, lambda_cap):
    """Dyadic stage plan: tau_k = T 2^-(k+1), cutoff (eps tau_k)^-(1+gamma).

    Stages are emitted until tau_k falls below 1e-4 T; cutoffs beyond
    ``lambda_cap`` are clipped and marked.
    """
    if not 0 < t_horizon <= 1:
        raise InvalidArgumentError(f"horizon must be in (0, 1], got {t_horizon!r}")
    if not gamma > 1:
        raise InvalidArgumentError(
            f"gamma must be > 1 (the dyadic scheme diverges otherwise), got {gamma!r}")
    if not 0 < epsilon < 1:
        raise InvalidArgumentError(f"epsilon must be in (0, 1), got {epsilon!r}")
    if not lambda_cap > 0:
        raise InvalidArgumentError(f"lambda_cap must be positive, got {lambda_cap!r}")
    stages = []
    start = 0.0
    k = 0
    while True:
        tau = t_horizon * 2.0 ** -(k + 1)
        if tau < 1e-4 * t_horizon:
            break
        raw = (epsilon * tau) ** -(1.0 + gamma)
        clipped = raw > lambda_cap
        stages.append(Stage(index=k, start=start, tau=tau,
                            passive=(1.0 - epsilon) * tau,
                            window=epsilon * tau,
                            lam_cap=min(raw, lambda_cap), clipped=clipped))
        start += tau
        k += 1
    return LRSchedule(t_horizon=t_horizon, gamma=gamma, epsilon=epsilon,
                      lambda_cap=lambda_cap, stages=tuple(stages))


def _exp_integral(lams_out, lams_in, w):
    """(1 - exp(-(a + b) w)) / (a + b) over the outer sum of rates."""
    s = np.add.outer(lams_out, lams_in)
    return -np.expm1(-s * w) / s


def stage_gramian(basis, lam_cap, gramian, window):
    """Window controllability Gramian on the modes with lambda <= lam_cap.

    G[j, l] = M[j, l] (1 - exp(-(lam_j + lam_l) w)) / (lam_j + lam_l) is the
    exact time integral of the windowed observation of the semigroup; M is
    ``gramian``, the observation Gramian of the region it carries.
    """
    if window <= 0:
        raise InvalidArgumentError("window length must be positive")
    check_gramian(basis, gramian)
    idx = basis.low_indices(lam_cap)
    lams = basis.lambdas[idx]
    g = gramian.matrix[np.ix_(idx, idx)] * _exp_integral(lams, lams, window)
    return 0.5 * (g + g.T)


@dataclass(frozen=True)
class ControlSegment:
    """One stage's control: f(t) = -sum_j c_j exp(-lam_j (w - t)) u_j|omega
    at time t in [0, w] from the start of a window of length w."""

    window: float
    indices: np.ndarray
    amplitudes: np.ndarray


@dataclass(frozen=True)
class StageSolveInfo:
    residual: float
    cost: float
    cond_estimate: float
    rank_kept: int
    dim: int


def stage_control(state, lam_cap, gramian, window, reg_threshold,
                  gram_eig=None):
    """Minimal-norm control steering the low-mode block to zero in ``window``.

    The target is mu = Pi_lam exp(-w A) z; amplitudes are c = G^+ mu with the
    pseudo-inverse truncated at ``reg_threshold`` relative to the largest
    Gramian eigenvalue.  The reported residual is the achieved low-mode
    defect |mu - G c|, and the cost mu^T G^+ mu is the exact squared L2 norm
    of the control on the window.
    """
    basis = state.basis
    idx = basis.low_indices(lam_cap)
    lams = basis.lambdas[idx]
    mu = np.exp(-lams * window) * state.coeffs[idx]
    if gram_eig is None:
        d, q = np.linalg.eigh(stage_gramian(basis, lam_cap, gramian, window))
    else:
        d, q = gram_eig
    if len(idx) == 0 or d[-1] <= 0:
        c = np.zeros(len(idx))
        info = StageSolveInfo(residual=float(np.linalg.norm(mu)), cost=0.0,
                              cond_estimate=float("inf"), rank_kept=0,
                              dim=len(idx))
        return ControlSegment(window=window, indices=idx, amplitudes=c), info
    keep = d > reg_threshold * d[-1]
    qk = q[:, keep]
    c = qk @ ((qk.T @ mu) / d[keep])
    resid = float(np.linalg.norm(mu - q @ (d * (q.T @ c))))
    cost = float(np.dot(mu, c))
    cond = float(d[-1] / d[0]) if d[0] > 0 else float("inf")
    info = StageSolveInfo(residual=resid, cost=max(cost, 0.0),
                          cond_estimate=cond, rank_kept=int(keep.sum()),
                          dim=len(idx))
    return ControlSegment(window=window, indices=idx, amplitudes=c), info


def advance_window(state, segment, gramian):
    """Exact closed-form propagation across a control window.

    Every basis mode receives forcing through the observation Gramian
    columns of the active low set; nothing is time-stepped.
    """
    basis = state.basis
    check_gramian(basis, gramian)
    lams = basis.lambdas
    w = segment.window
    cols = gramian.matrix[:, segment.indices]
    forced = (cols * _exp_integral(lams, lams[segment.indices], w)) @ segment.amplitudes
    return StateVector(basis, state.coeffs * np.exp(-lams * w) - forced)


def _window_time_nodes(window, lam_max):
    """Composite Gauss rule on [0, window], graded deep enough toward both
    endpoints to resolve the exp(-lam t) boundary layers."""
    depth = min(40, max(4, int(math.ceil(math.log2(max(window * lam_max, 2.0)))) + 2))
    return gauss_legendre(16, 0.0, window, depth)


def window_observation(state, segment, gramian):
    """Integral of |B* z(t)|^2 over a control window by a graded Gauss rule.

    The controlled trajectory inside the window is a finite combination of
    exponentials, evaluated in closed form at the nodes of a composite Gauss
    rule graded toward both window ends to resolve the fastest decay rate
    present.
    """
    basis = state.basis
    m = check_gramian(basis, gramian).matrix
    lams = basis.lambdas
    w = segment.window
    t, wt = _window_time_nodes(w, float(lams.max()) if len(lams) else 1.0)
    lam_in = lams[segment.indices]
    gamma = (m[:, segment.indices] * segment.amplitudes) / np.add.outer(lams, lam_in)
    alpha = state.coeffs + gamma @ np.exp(-lam_in * w)
    traj = (np.exp(-np.outer(lams, t)) * alpha[:, None]
            - gamma @ np.exp(-np.outer(lam_in, w - t)))
    q = np.einsum("lt,lt->t", traj, m @ traj)
    return float(np.dot(wt, q))


@dataclass(frozen=True)
class StageRecord:
    index: int
    tau: float
    lam_cap: float
    clipped: bool
    pre_norm: float
    post_norm: float
    low_residual: float
    cost: float
    cond_estimate: float
    obs_integral: float
    rank_kept: int
    dim: int


@dataclass(frozen=True)
class RunReport:
    schedule: LRSchedule
    reg_threshold: float
    initial_norm: float
    final_norm: float
    total_cost: float
    c1: float
    stages: tuple

    @property
    def max_low_residual(self):
        return max((s.low_residual for s in self.stages), default=0.0)


# Reference fraction inside the telescoping weight rho.  The dyadic chain's
# weight rho(tau) = exp(-3 c1 / (eps tau)^gamma) / (2 c1) carries an eps that
# is a proof constant chosen small once and for all; it is distinct from the
# schedule's control-window fraction.  Identifying the two would scale the
# fitted c1 by (window fraction)^gamma and destroy its meaning as a constant
# of the system, so the fit pins rho's eps here.
RHO_EPSILON = 0.5


def _rho(tau, c1, gamma):
    return math.exp(-3.0 * c1 / (RHO_EPSILON * tau) ** gamma) / (2.0 * c1)


def _stage_inequalities_hold(c1, gamma, records):
    for rec in records:
        lhs = _rho(rec.tau, c1, gamma) * rec.pre_norm ** 2
        rhs = (rec.obs_integral
               + _rho(0.5 * rec.tau, c1, gamma) * rec.post_norm ** 2)
        if lhs > rhs * (1.0 + 1e-12) + 1e-300:
            return False
    return True


def fit_telescoping_constant(schedule, records):
    """Smallest c1 >= 1e-12 making every dyadic stage inequality

        rho(tau_k) |z(start_k)|^2 <= int_window |B* z|^2
                                     + rho(tau_k / 2) |z(end_k)|^2

    hold along the realized trajectory.  Each stage bounds the state at the
    endpoint it shares with its longer neighbor by its own observation plus
    the halved-weight state at the endpoint shared with its shorter
    neighbor; chaining the inequalities telescopes the weights down the
    dyadic ladder.  The predicate fails for small c1 (the weights are then
    nearly equal and the start state dominates) and holds for large c1, so
    a grid-plus-bisection search returns the threshold; infinity when no c1
    in [1e-12, 1e12] works.
    """
    gamma = schedule.gamma
    grid = np.logspace(-12.0, 12.0, 97)
    first = None
    for i, c1 in enumerate(grid):
        if _stage_inequalities_hold(c1, gamma, records):
            first = i
            break
    if first is None:
        return float("inf")
    if first == 0:
        return float(grid[0])
    bad, good = grid[first - 1], grid[first]
    for _ in range(80):
        mid = math.sqrt(bad * good)
        if _stage_inequalities_hold(mid, gamma, records):
            good = mid
        else:
            bad = mid
    return float(good)


def run_lr(z0, schedule, region, reg_threshold):
    """Execute the dyadic control loop on ``z0``'s basis and audit it.

    Per stage: free decay, then a window control from the eigendecomposition
    of a stage Gramian.  That eigendecomposition is computed at the first
    stage of each distinct cutoff and reused by the later stages with the
    same cutoff, whose windows are shorter: their control is the first
    window's pseudo-inverse applied to their target, not their own minimal-
    norm control, and their recorded cost, ``rank_kept`` and
    ``cond_estimate`` are the first window's.  The modal trajectory is exact,
    so the recorded norms carry no time-stepping error.  The report also
    fits the smallest constant making the dyadic telescoping inequalities
    hold along the realized trajectory.  A schedule whose largest cutoff the
    basis cannot serve is rejected before any work; the stage Gramians are
    built on ``obs_gramian(z0.basis, region)``, assembled here.
    """
    basis = z0.basis
    basis.low_indices(max(stage.lam_cap for stage in schedule.stages))
    gramian = obs_gramian(basis, region)
    state = z0
    initial_norm = float(np.linalg.norm(z0.coeffs))
    eig_cache = {}
    records = []
    for stage in schedule.stages:
        pre = float(np.linalg.norm(state.coeffs))
        at_window = semigroup(state, stage.passive)
        if stage.lam_cap not in eig_cache:
            g = stage_gramian(basis, stage.lam_cap, gramian, stage.window)
            eig_cache[stage.lam_cap] = np.linalg.eigh(g)
        segment, info = stage_control(
            at_window, stage.lam_cap, gramian, stage.window, reg_threshold,
            gram_eig=eig_cache[stage.lam_cap])
        obs = window_observation(at_window, segment, gramian)
        state = advance_window(at_window, segment, gramian)
        post = float(np.linalg.norm(state.coeffs))
        low = float(np.linalg.norm(state.coeffs[segment.indices]))
        records.append(StageRecord(
            index=stage.index, tau=stage.tau, lam_cap=stage.lam_cap,
            clipped=stage.clipped, pre_norm=pre, post_norm=post,
            low_residual=low, cost=info.cost,
            cond_estimate=info.cond_estimate, obs_integral=obs,
            rank_kept=info.rank_kept, dim=info.dim))
    tail = schedule.t_horizon - schedule.end
    if tail > 0:
        state = semigroup(state, tail)
    c1 = fit_telescoping_constant(schedule, records)
    return RunReport(schedule=schedule, reg_threshold=reg_threshold,
                     initial_norm=initial_norm,
                     final_norm=float(np.linalg.norm(state.coeffs)),
                     total_cost=float(sum(r.cost for r in records)),
                     c1=c1, stages=tuple(records)), state


@dataclass(frozen=True)
class ObservabilityConstant:
    value: float
    indices: np.ndarray
    direction: np.ndarray


def obs_constant(basis, lam_cap, t_horizon, region, defect_threshold=1e-13):
    """Sharp finite-cutoff observability constant over the horizon.

    C_obs maximizes |exp(-T A) z|^2 / int_0^T |B* exp(-t A) z|^2 over the
    low-mode subspace: the top generalized eigenvalue of the pair
    (diag(exp(-2 lam T)), O) with O the horizon observation Gramian.  O is
    represented by a square-root factor R: one copy of the cancellation-free
    velocity factor per node of a time-graded quadrature, which
    :func:`stacked_factor_r` compresses (a Khatri-Rao product) to one copy
    per singular value of the column-equilibrated exp(-lam t) weights above
    eps, 18 to 27 of 224 to 320 in the README observe run, and QR-factors
    block by block.  With D = diag(exp(-lam T)) and the SVD R = U S V^T of
    the defect check, D R^-1 = (D V S^-1) U^T: C_obs = sigma_max(D V S^-1)^2,
    attained at ``direction`` = V S^-1 y_1 (y_1 the top right singular
    vector), unit-normed with its largest-magnitude entry positive.  This
    resolves constants across twice the dynamic range a dense eigensolve of
    the assembled O could, to about 2 eps kappa(R) relative.

    Raises ObservabilityDefectError, carrying the least visible coefficient
    direction, when O is singular below ``defect_threshold`` (relative
    smallest singular value of R).
    """
    if not t_horizon > 0:
        raise InvalidArgumentError("horizon must be positive")
    idx = basis.low_indices(lam_cap)
    if len(idx) == 0:
        raise InvalidArgumentError(f"no modes at or below lam_cap {lam_cap!r}")
    lams = basis.lambdas[idx]
    r_g = sampled_velocity_factor(basis, idx, region)
    t, wt = _window_time_nodes(t_horizon, float(lams.max()))
    r_fac = stacked_factor_r(r_g, np.sqrt(wt), np.exp(-np.outer(t, lams)))
    _, svals, vt = np.linalg.svd(r_fac)
    direction = np.zeros(len(basis.lambdas))
    if svals[-1] <= defect_threshold * svals[0]:
        direction[idx] = vt[-1]
        raise ObservabilityDefectError(
            f"observation Gramian numerically singular (relative smallest "
            f"singular value {svals[-1] / svals[0]:.3e})", direction=direction)
    y = np.exp(-lams * t_horizon)[:, None] * vt.T / svals
    _, s_y, vt_y = np.linalg.svd(y)
    best = vt.T @ (vt_y[0] / svals)
    best /= np.linalg.norm(best)
    if best[np.argmax(np.abs(best))] < 0:
        best = -best
    direction[idx] = best
    return ObservabilityConstant(value=float(s_y[0] ** 2), indices=idx,
                                 direction=direction)


def cost_and_constant_fit(points, sweep, gamma=None):
    """Exponent fit of observability constants or control costs.

    ``points`` are (abscissa, value) pairs: for a horizon sweep
    (``sweep="T"``) log(value) is regressed on 1/T**gamma, for a cutoff
    sweep (``sweep="Lambda"``) on sqrt(Lambda).
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 4:
        raise InvalidArgumentError("need at least 4 data points")
    if any(y <= 0 for _, y in pts):
        raise InvalidArgumentError("values must be positive to fit exponents")
    if sweep == "T":
        if gamma is None:
            raise InvalidArgumentError("horizon sweep needs gamma")
        x = np.array([t ** -gamma for t, _ in pts])
    elif sweep == "Lambda":
        x = np.array([math.sqrt(lam) for lam, _ in pts])
    else:
        raise InvalidArgumentError(f"unknown sweep kind {sweep!r}")
    y = np.log([y for _, y in pts])
    return linear_fit(x, y)
