import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from stokesheat import (
    DegenerateBranchError,
    InvalidArgumentError,
    InvalidBracketError,
    NotAnEigenvalueError,
    assemble_basis,
    oracle_eigs,
    sector_eigenvalues,
    zero_mode,
)
from stokesheat import spectral
from stokesheat.spectral import (bracket_roots, build_mode, dispersion,
                                 refine_root)
from stokesheat.quadrature import trig_pair_integral, COS

from mode_reference import (_fundamental, eval_mode, mode_profile, mode_x1_trig,
                            ref_boundary_matrices, ref_boundary_matrix,
                            ref_build_mode,
                            ref_stream_norm, stream_eval)


def test_zero_mode_values():
    m = zero_mode(1)
    assert m.lam == pytest.approx(np.pi ** 2, abs=1e-12)
    assert m.amplitude == pytest.approx(1.0 / np.sqrt(np.pi), rel=1e-14)
    assert zero_mode(3).lam == pytest.approx(9 * np.pi ** 2, rel=1e-14)
    assert m.eta_trace == 0.0


def test_zero_mode_pointwise_identities():
    m = zero_mode(2)
    x1 = np.linspace(0.0, 2 * np.pi, 20, endpoint=False)
    x2 = np.linspace(0.0, 1.0, 20)
    u1, u2, p, eta = eval_mode(m, x1[:, None], x2[None, :])
    amp = m.amplitude
    assert np.abs(u1 - amp * np.sin(2 * np.pi * x2)[None, :]).max() <= 1e-12
    assert np.abs(u2).max() == 0.0
    assert np.abs(p).max() == 0.0
    assert np.abs(eta).max() == 0.0
    # Dirichlet walls for the horizontal component
    assert abs(u1[:, 0]).max() <= 1e-12 and abs(u1[:, -1]).max() <= 1e-12


def test_zero_mode_invalid():
    with pytest.raises(InvalidArgumentError):
        zero_mode(0)
    with pytest.raises(InvalidArgumentError):
        zero_mode(-2)


def test_dispersion_preconditions():
    with pytest.raises(InvalidArgumentError):
        dispersion(0, 10.0)
    with pytest.raises(InvalidArgumentError):
        dispersion(1, -1.0)
    with pytest.raises(DegenerateBranchError):
        dispersion(2, 4.0)
    with pytest.raises(DegenerateBranchError):
        dispersion(2, 4.0 + 1e-9)


@pytest.mark.parametrize("k, lam", [(1, 0.5), (2, 3.9), (8, 1.0),
                                    (64, 4095.0), (3, 9.0 - 1e-6)])
def test_below_k_squared_is_a_degenerate_branch(k, lam):
    # no sector-k eigenvalue lies below k^2, so nothing is evaluated there
    with pytest.raises(DegenerateBranchError):
        dispersion(k, lam)
    for phase in ("cosine", "sine"):
        with pytest.raises(DegenerateBranchError):
            build_mode(k, lam, phase)


def test_oracle_spectra_lie_above_k_squared():
    # the bound lam > k^2 that confines every k >= 1 evaluation to the
    # oscillatory side, from the oracle, which shares no code with the
    # reduction
    for k in range(1, 9):
        assert oracle_eigs(k, 200, 4).values.min() > k * k, k


def test_lambda_minus_k_squared_is_the_x2_dirichlet_integral():
    # lam = int |grad u|^2 + int |d eta/dx1|^2 for a unit-norm mode, and the
    # x1 derivatives contribute k^2 * (norm 1), so lam - k^2 is the x2 part:
    # pi * int (|u1'|^2 + |u2'|^2) dx2, pi from the x1 integral of cos^2
    from stokesheat.quadrature import gauss_legendre

    basis = assemble_basis(400.0)
    tab = basis.table
    x2, w2 = gauss_legendre(64, 0.0, 1.0)
    dirichlet = np.pi * sum((tab.profiles(x2, comp, deriv=1) ** 2) @ w2
                            for comp in ("u1", "u2"))
    sector = tab.k > 0
    gap = tab.lam[sector] - tab.k[sector].astype(float) ** 2
    assert sector.sum() > 0
    assert np.all(np.abs(dirichlet[sector] - gap) <= 1e-10 * tab.lam[sector])


def test_no_dispersion_root_below_k_squared():
    # the scan evaluates only lam > k^2 + guard; the reference boundary
    # matrix, which keeps the evanescent branch, shows why nothing is lost:
    # its determinant keeps one sign on [1e-4, k^2 - 2 guard] over the
    # envelope k <= 64, lam <= 1e4, at four times the scan density
    for k in range(1, 65):
        guard = spectral.degeneracy_tolerance(k)
        top = min(k * k - 2 * guard, 1e4)
        grid = np.arange(math.sqrt(1e-4), math.sqrt(top), 1.0 / 64)
        lams = np.append(grid * grid, top)
        dets = np.linalg.det(ref_boundary_matrices(k, lams))
        assert np.all(np.sign(dets) == np.sign(dets[0])) and dets[0] != 0, k


def test_dispersion_sign_changes_bracket_oracle_eigs():
    # sign changes over (0.1, 400) isolate exactly the oracle's eigenvalues
    oracle = oracle_eigs(1, 200, 8)
    in_range = oracle.values[oracle.values <= 400.0]
    brackets = bracket_roots(1, 400.0, density=16)
    assert len(brackets) == len(in_range)
    for (lo, hi), lam_ref in zip(brackets, in_range):
        assert lo < lam_ref < hi


def test_dispersion_vanishes_at_oracle_roots():
    oracle = oracle_eigs(2, 300, 3)
    for lam in oracle.values:
        val = abs(dispersion(2, lam))
        local = max(abs(dispersion(2, lam * (1 + 2e-3))),
                    abs(dispersion(2, lam * (1 - 2e-3))))
        assert val <= 1e-4 * local  # oracle roots carry ~1e-8 relative error


def test_dispersion_scaling_envelope():
    # row normalization keeps the determinant finite and meaningful across
    # the whole advertised envelope k <= 64, lambda <= 1e6
    for k in (1, 8, 32, 64):
        guard = spectral.degeneracy_tolerance(k)
        for lam in (k * k + 2 * guard, 1.1 * k * k + 1.0, 1e4, 1e6):
            val = dispersion(k, lam)
            assert np.isfinite(val)
            assert abs(val) < 1e3


def test_bracket_roots_small_cutoff_empty():
    assert bracket_roots(1, 1e-8) == []
    assert bracket_roots(3, 5.0) == []  # spectrum of sector 3 sits above 9


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_bracket_density_stability(k):
    base = bracket_roots(k, 400.0, density=16)
    fine = bracket_roots(k, 400.0, density=32)
    assert len(base) == len(fine)


@st.composite
def branch_points(draw):
    """(k, lams): a wavenumber and points above k**2, the side every
    sector-k eigenvalue lies on, some of them just outside the degeneracy
    guard."""
    k = draw(st.integers(1, 64))
    guard = spectral.degeneracy_tolerance(k)
    near = st.floats(1.01, 10.0).map(lambda t: k * k + guard * t)
    far = st.floats(k * k + 2 * guard, 1e6)
    lams = draw(st.lists(st.one_of(near, far), min_size=1, max_size=8))
    return k, np.array(lams)


@settings(max_examples=300, deadline=None)
@given(branch_points())
def test_batched_boundary_determinants_match_scalar(point):
    k, lams = point
    batched = np.linalg.det(spectral._boundary_matrices(k, lams))
    scalar = np.array([np.linalg.det(spectral._boundary_matrix(k, lam))
                       for lam in lams])
    assert np.array_equal(np.sign(batched), np.sign(scalar))
    assert np.abs(batched - scalar).max() <= 1e-14


@settings(max_examples=300, deadline=None)
@given(branch_points())
def test_boundary_matrix_is_bit_equal_to_reference(point):
    # the batched-vs-scalar check above allows 1e-14 and cannot see a last
    # bit; every root refinement and mode build reads this matrix
    k, lams = point
    for lam in lams:
        assert (spectral._boundary_matrix(k, lam).tobytes()
                == ref_boundary_matrix(k, lam).tobytes()), (k, lam)


@st.composite
def two_branch_points(draw):
    """(k, lams): a wavenumber and points on both sides of k**2, some of
    them just outside the degeneracy guard."""
    k = draw(st.integers(1, 64))
    guard = spectral.degeneracy_tolerance(k)
    below = st.one_of(st.floats(1e-4, k * k - 2 * guard),
                      st.floats(2.0, 10.0).map(lambda t: k * k - guard * t))
    above = st.one_of(st.floats(1.01, 10.0).map(lambda t: k * k + guard * t),
                      st.floats(k * k + 2 * guard, 1e6))
    lams = draw(st.lists(st.one_of(below, above), min_size=1, max_size=16))
    return k, np.array(lams)


@settings(max_examples=100, deadline=None)
@given(two_branch_points())
def test_batched_reference_boundary_matrices_are_bit_equal_to_scalar(point):
    # the evanescent scan above reads the batched reference
    k, lams = point
    for lam, mat in zip(lams, ref_boundary_matrices(k, lams)):
        assert mat.tobytes() == ref_boundary_matrix(k, lam).tobytes(), (k, lam)


@settings(max_examples=200, deadline=None)
@given(branch_points(), st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_stream_norm_is_bit_equal_to_reference(point, c):
    k, lams = point
    c = np.array(c)
    for lam in lams:
        got = np.array(spectral._stream_norm(k, lam, c))
        want = np.array([ref_stream_norm(k, lam, c),
                         float(c @ _fundamental(k, lam, 1.0, 0))])
        assert got.tobytes() == want.tobytes(), (k, lam)


@functools.lru_cache(maxsize=None)
def _sector_roots(k):
    return np.array(sector_eigenvalues(k, k * k + 2000.0))


@settings(max_examples=150, deadline=None)
@given(branch_points(), st.sampled_from(["cosine", "sine"]))
def test_build_mode_is_bit_equal_to_reference(point, phase):
    # the roots of sector k nearest above the drawn points; the first one
    # lies just above k**2
    k, lams = point
    roots = _sector_roots(k)
    for i in np.unique(np.minimum(np.searchsorted(roots, lams), len(roots) - 1)):
        lam = float(roots[i])
        assert (repr(build_mode(k, lam, phase, n=int(i) + 1))
                == repr(ref_build_mode(k, lam, phase, n=int(i) + 1))), (k, lam)


def test_bracket_roots_match_scalar_scan(monkeypatch):
    batched = {k: bracket_roots(k, 3000.0) for k in range(1, 11)}

    def scalar_grid(k, lams):
        return np.array([np.linalg.det(spectral._boundary_matrix(k, lam))
                         for lam in lams])

    monkeypatch.setattr(spectral, "_dispersion_grid", scalar_grid)
    for k in range(1, 11):
        assert batched[k] == bracket_roots(k, 3000.0)


def test_refine_root_matches_oracle():
    oracle = oracle_eigs(1, 300, 5)
    roots = sector_eigenvalues(1, oracle.values[-1] * 1.01)
    rel = np.abs(np.array(roots[:5]) - oracle.values) / oracle.values
    assert rel.max() <= 1e-6


def test_refine_root_narrow_bracket_counts_calls(monkeypatch):
    lam = sector_eigenvalues(1, 10.0)[0]
    lo, hi = lam * (1 - 1e-14), lam * (1 + 1e-14)
    calls = []
    true_dispersion = spectral.dispersion

    def counting(k, lam_):
        calls.append(lam_)
        return true_dispersion(k, lam_)

    monkeypatch.setattr(spectral, "dispersion", counting)
    out = spectral.refine_root(1, (lo, hi), tol=1e-9)
    assert out == pytest.approx(0.5 * (lo + hi))
    assert len(calls) == 2  # endpoint verification only


def test_refine_root_calls_dispersion_as_often_as_brentq(monkeypatch):
    # brentq's own endpoint evaluations are the only bracket check
    from scipy.optimize import brentq

    lo, hi = bracket_roots(1, 50.0)[0]
    true_dispersion = spectral.dispersion
    _, info = brentq(lambda lam: true_dispersion(1, lam), lo, hi,
                     xtol=1e-12 * lo, rtol=1e-12, full_output=True)
    calls = []

    def counting(k, lam_):
        calls.append(lam_)
        return true_dispersion(k, lam_)

    monkeypatch.setattr(spectral, "dispersion", counting)
    assert spectral.refine_root(1, (lo, hi)) == info.root
    assert len(calls) == info.function_calls


def scipy_brentq(f, lo, hi, xtol, rtol, **kwargs):
    """scipy's brentq, the reference the in-repo port must reproduce."""
    from scipy.optimize import brentq

    return brentq(f, lo, hi, xtol=xtol, rtol=rtol, full_output=True, **kwargs)


def counted(f):
    """``f`` and the list of points it was called at."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


@functools.lru_cache(maxsize=None)
def brackets_3000(k):
    return tuple(bracket_roots(k, 3000.0))


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 54), pick=st.integers(0, 10 ** 6),
       log_tol=st.floats(-14.0, -6.0))
def test_refine_root_is_scipy_brentq_bit_for_bit(k, pick, log_tol):
    lo, hi = brackets_3000(k)[pick % len(brackets_3000(k))]
    tol = 10.0 ** log_tol
    true_dispersion = spectral.dispersion
    root, info = scipy_brentq(lambda lam: true_dispersion(k, lam), lo, hi,
                              xtol=tol * lo,
                              rtol=max(tol, 4 * np.finfo(float).eps))
    calls = []

    def counting(k_, lam):
        calls.append(lam)
        return true_dispersion(k_, lam)

    with mock.patch.object(spectral, "dispersion", counting):
        assert refine_root(k, (lo, hi), tol=tol) == root
    assert len(calls) == info.function_calls


def assert_port_is_scipy(f, lo, hi, xtol, rtol):
    # a multiple root can exhaust the iterations; then both stop at the same
    # last iterate, which scipy returns flagged as not converged
    root, info = scipy_brentq(f, lo, hi, xtol, rtol, disp=False)
    g, calls = counted(f)
    if info.converged:
        assert spectral._brentq(g, lo, hi, xtol, rtol) == root
    else:
        with pytest.raises(NotAnEigenvalueError):
            spectral._brentq(g, lo, hi, xtol, rtol)
        assert calls[-1] == root
    assert len(calls) == info.function_calls


TOLS = dict(log_xtol=st.floats(-15.0, -3.0),
            rtol=st.floats(4 * np.finfo(float).eps, 1e-3))


# at 1e-200 the extrapolation's denominator dblk*dpre*(fblk - fpre)
# underflows to zero: C divides by it and rejects the inf or NaN step, where
# Python raises ZeroDivisionError
@settings(max_examples=200, deadline=None)
@given(roots=st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3),
       scale=st.floats(0.1, 10.0), tiny=st.booleans(), negate=st.booleans(),
       lo=st.floats(-5.0, 5.0), width=st.floats(1e-3, 10.0), **TOLS)
def test_brent_port_is_scipy_on_cubics(roots, scale, tiny, negate, lo, width,
                                       log_xtol, rtol):
    r1, r2, r3 = roots
    a = (-scale if negate else scale) * (1e-200 if tiny else 1.0)

    def cubic(x):
        return a * (x - r1) * (x - r2) * (x - r3)

    hi = lo + width
    assume(min(cubic(lo), cubic(hi)) < 0 < max(cubic(lo), cubic(hi)))
    assert_port_is_scipy(cubic, lo, hi, 10.0 ** log_xtol, rtol)


@settings(max_examples=200, deadline=None)
@given(log_c=st.floats(-7.0, 7.0), below=st.floats(1e-6, 20.0),
       above=st.floats(1e-6, 20.0), **TOLS)
def test_brent_port_is_scipy_on_exp_minus_c(log_c, below, above, log_xtol,
                                            rtol):
    c = math.exp(log_c)

    def f(x):
        return math.exp(x) - c

    lo, hi = log_c - below, log_c + above
    assume(f(lo) < 0 < f(hi))
    assert_port_is_scipy(f, lo, hi, 10.0 ** log_xtol, rtol)


@pytest.mark.parametrize("end", [0, 1])
def test_brent_port_returns_an_exact_zero_endpoint(end):
    bracket = (1.0, 2.0)
    zero_at = bracket[end]
    f, calls = counted(lambda x: x - zero_at)
    assert spectral._brentq(f, *bracket, 1e-12, 1e-12) == zero_at
    assert calls == list(bracket)  # both ends, then no step
    root, _ = scipy_brentq(lambda x: x - zero_at, *bracket, 1e-12, 1e-12)
    assert root == zero_at


@pytest.mark.parametrize("nan_after", [0, 1, 4])
def test_refine_root_turns_a_nan_dispersion_into_a_bracket_error(monkeypatch,
                                                                 nan_after):
    lo, hi = bracket_roots(1, 50.0)[0]
    true_dispersion = spectral.dispersion
    calls = []

    def nan_later(k, lam):
        calls.append(lam)
        return math.nan if len(calls) > nan_after else true_dispersion(k, lam)

    monkeypatch.setattr(spectral, "dispersion", nan_later)
    with pytest.raises(InvalidBracketError, match="NaN"):
        refine_root(1, (lo, hi))
    assert len(calls) == nan_after + 1  # stops at the first NaN


def test_refine_root_out_of_iterations_is_a_package_error(monkeypatch):
    # a step function gives no usable secant, so every step is a bisection,
    # and halving (1, 1e300) down to a 1e-12 relative width takes ~1000
    def step(lam):
        return -1.0 if lam < 2.0 else 1.0

    monkeypatch.setattr(spectral, "dispersion", lambda k, lam: step(lam))
    with pytest.raises(NotAnEigenvalueError, match="100 iterations"):
        refine_root(1, (1.0, 1e300))
    _, info = scipy_brentq(step, 1.0, 1e300, 1e-12, 1e-12, disp=False)
    assert not info.converged and info.iterations == 100


def test_cli_exits_1_when_root_refinement_runs_out_of_iterations(
        monkeypatch, tmp_path, capsys):
    from stokesheat import cli

    monkeypatch.setattr(spectral, "_brentq",
                        functools.partial(spectral._brentq, maxiter=2))
    code = cli.main(["eigens", "--lambda-max", "60",
                     "--out-dir", str(tmp_path)])
    assert code == 1
    assert "error: no root of" in capsys.readouterr().err


def test_refine_root_rejects_a_nonpositive_tol():
    lo, hi = bracket_roots(1, 50.0)[0]
    for tol in (0.0, -1e-12, math.nan):
        with pytest.raises(InvalidArgumentError, match="tol"):
            refine_root(1, (lo, hi), tol=tol)


def test_refine_root_passes_invalid_arguments_through():
    with pytest.raises(InvalidArgumentError) as exc:
        refine_root(0, (2.0, 3.0))
    assert not isinstance(exc.value, InvalidBracketError)


def test_refine_root_enclosure_semantics():
    br = bracket_roots(1, 50.0)[0]
    coarse = refine_root(1, br, tol=1e-6)
    fine = refine_root(1, br, tol=1e-9)
    assert abs(coarse - fine) <= 1e-6 * coarse


def test_refine_root_same_sign_error():
    with pytest.raises(InvalidBracketError):
        refine_root(1, (2.0, 3.0))


def test_build_settings_are_the_recorded_metadata(basis60):
    meta = dict(basis60.metadata)
    meta.pop("built_utc")
    assert spectral.build_settings(60.0, 16, 1e-12) == meta


def test_eigen_mode_is_one_flat_record(basis60):
    # one record type for both sectors; the fields that do not apply are zero
    zero = next(m for m in basis60.modes if m.k == 0)
    stream = next(m for m in basis60.modes if m.k >= 1)
    assert type(zero) is type(stream) is spectral.EigenMode
    assert (zero.c, zero.norm_factor, zero.phase) == ((0.0,) * 4, 0.0, None)
    assert stream.amplitude == 0.0 and stream.norm_factor > 0
    assert not hasattr(spectral, "StreamProfile")
    assert not hasattr(spectral, "ZeroModeProfile")


def test_mode_table_is_the_only_mode_evaluator():
    # the per-mode evaluators live in tests/mode_reference.py
    from stokesheat import hilbert

    for name in ("stream_eval", "mode_x1_trig", "mode_profile", "eval_mode",
                 "boundary_residuals"):
        assert not hasattr(spectral, name), name
    assert not hasattr(hilbert, "basis_state")


def test_build_mode_unit_norm_and_residuals(basis120):
    # a single mode with coefficient 1 at s = 0 makes the augmented system
    # the eigen-system, since d^2/ds^2 cosh(sqrt(lam) s) = lam there
    from stokesheat import augmented_field, residual_augmented

    # 21 x1 points: sin(k x1) vanishes on all n points of a uniform grid
    # when n divides 2k, which hid the k = 10 sine modes from 20 points
    x1 = np.linspace(0.0, 2 * np.pi, 21, endpoint=False)
    x2 = np.linspace(0.0, 1.0, 20)
    for j in range(len(basis120)):
        a = np.zeros(len(basis120))
        a[j] = 1.0
        field = augmented_field(basis120, a, basis120.cutoff)
        res = residual_augmented(field, ([0.0], x1, x2))
        assert max(res.values()) <= 1e-7, (j, res)
    # no slip: u1 on both walls and u2 on the bottom wall
    tab = basis120.table
    grid = np.linspace(0.0, 1.0, 65)
    for comp, walls in (("u1", [0.0, 1.0]), ("u2", [0.0])):
        peak = np.abs(tab.profiles(grid, comp)).max(axis=1)
        wall = np.abs(tab.profiles(walls, comp)).max(axis=1)
        assert np.all(wall <= 1e-7 * peak), comp
    # H-norm: pi * (int (phi'/k)^2 + phi^2 + phi(1)^2) == 1
    from stokesheat.quadrature import gauss_legendre

    lam = sector_eigenvalues(1, 10.0)[0]
    mode = build_mode(1, lam, "cosine", n=1)
    x, w = gauss_legendre(64, 0.0, 1.0)
    phi = stream_eval(mode, x)
    dphi = stream_eval(mode, x, 1)
    phi1 = stream_eval(mode, np.array(1.0))
    total = np.pi * (np.dot(w, dphi ** 2 + phi ** 2) + phi1 ** 2)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_build_mode_rejects_non_eigenvalue():
    with pytest.raises(NotAnEigenvalueError):
        build_mode(1, 12.0, "cosine")


def test_build_mode_multiplicity_gate(monkeypatch):
    from stokesheat import MultiplicityError

    lam = sector_eigenvalues(1, 10.0)[0]
    true_matrix = spectral._boundary_matrix

    def rank_two_deficient(k, lam_):
        u, _, vt = np.linalg.svd(true_matrix(k, lam_))
        return (u * np.array([1.0, 1.0, 1e-12, 1e-13])) @ vt

    monkeypatch.setattr(spectral, "_boundary_matrix", rank_two_deficient)
    with pytest.raises(MultiplicityError):
        build_mode(1, lam, "cosine")


def test_eta_mean_vanishes():
    lam = sector_eigenvalues(2, 40.0)[0]
    mode = build_mode(2, lam, "cosine")
    kind, wav = mode_x1_trig(mode, "u2")
    mean = trig_pair_integral(kind, wav, COS, 0.0, 0.0, 2 * np.pi)
    assert abs(mean * mode.eta_trace) <= 1e-12


def test_top_wall_stress_reduces_to_pressure(basis60):
    # the vertical normal stress -2 du2/dx2 + p equals p on the top wall:
    # incompressibility plus the no-slip of u1 kills the velocity term
    top = np.array([1.0])
    for mode in basis60.modes:
        du2_dx2 = mode_profile(mode, top, "u2", deriv=1)[0]
        assert abs(du2_dx2) <= 1e-9


def test_boundary_pressure_mean_vanishes(basis60):
    # the pressure trace on the top wall integrates to zero around the
    # torus, so it is not free up to a constant
    top = np.array([1.0])
    for mode in basis60.modes:
        kind, wav = mode_x1_trig(mode, "p")
        x1_mean = float(trig_pair_integral(kind, wav, COS, 0.0, 0.0, 2 * np.pi))
        p_top = mode_profile(mode, top, "p")[0]
        assert abs(p_top * x1_mean) <= 1e-10


def test_cosine_sine_pair_orthogonal(basis60):
    from stokesheat import FULL_REGION, obs_gramian, trace_gramian

    gram = obs_gramian(basis60, FULL_REGION).matrix + trace_gramian(basis60)
    lams = basis60.lambdas
    for j in range(len(basis60) - 1):
        if lams[j] == lams[j + 1]:  # cosine/sine partners share lambda
            assert abs(gram[j, j + 1]) <= 1e-12


def test_eval_mode_domain_checks(basis60):
    mode = basis60.modes[0]
    with pytest.raises(InvalidArgumentError):
        eval_mode(mode, -0.1, 0.5)
    with pytest.raises(InvalidArgumentError):
        eval_mode(mode, 2 * np.pi, 0.5)
    with pytest.raises(InvalidArgumentError):
        eval_mode(mode, 1.0, 1.2)


def test_eval_mode_boundary_structure(basis60):
    x1 = np.linspace(0.0, 2 * np.pi, 13, endpoint=False)
    for mode in basis60.modes[:8]:
        u1b, u2b, _, _ = eval_mode(mode, x1, 0.0)
        assert np.abs(u1b).max() <= 1e-10 and np.abs(u2b).max() <= 1e-10
        u1t, u2t, _, eta = eval_mode(mode, x1, 1.0)
        assert np.abs(u1t).max() <= 1e-10
        assert np.abs(u2t - eta).max() <= 1e-10


def test_divergence_pointwise(basis60):
    x1 = np.linspace(0.0, 2 * np.pi, 11, endpoint=False)[:, None]
    x2 = np.linspace(0.0, 1.0, 11)[None, :]
    from stokesheat.quadrature import trig_eval

    for mode in basis60.modes:
        k1, w1 = mode_x1_trig(mode, "u1")
        k2, w2 = mode_x1_trig(mode, "u2")
        div = (mode_profile(mode, x2[0], "u1")[None, :]
               * trig_eval(k1, w1, x1, deriv=1)
               + mode_profile(mode, x2[0], "u2", deriv=1)[None, :]
               * trig_eval(k2, w2, x1))
        assert np.abs(div).max() <= 1e-10


def test_assemble_counts_match_oracle():
    basis = assemble_basis(50.0)
    count = 0
    n = 1
    while (n * np.pi) ** 2 <= 50.0:
        count += 1
        n += 1
    for k in range(1, basis.k_range + 1):
        vals = oracle_eigs(k, 120, 6).values
        count += 2 * int(np.sum(vals <= 50.0))
    assert len(basis) == count


def test_assemble_weyl_monotone():
    sizes = [len(assemble_basis(lam)) for lam in (20.0, 50.0, 80.0)]
    assert sizes == sorted(sizes)


def test_assemble_density_doubling_stable():
    b16 = assemble_basis(300.0, density=16)
    b32 = assemble_basis(300.0, density=32)
    assert len(b16) == len(b32)
    assert np.abs(b16.lambdas - b32.lambdas).max() <= 1e-9 * b32.lambdas.max()


@pytest.mark.parametrize("lam_max", [0.5, 1.0, 3.0, 60.0, 64.0, 65.0])
def test_k_range_is_the_first_empty_sector(lam_max):
    # the cutoff alone fixes the sectors: every sector-k eigenvalue exceeds
    # k**2, so the scan of sector k_range = ceil(sqrt(lam_max)) finds nothing
    basis = assemble_basis(lam_max)
    assert basis.k_range == max(1, math.ceil(math.sqrt(lam_max)))
    assert bracket_roots(basis.k_range, lam_max) == []
    assert all(m.k < basis.k_range for m in basis.modes)
    with pytest.raises(TypeError):
        assemble_basis(lam_max, k_max=basis.k_range)
    with pytest.raises(TypeError):
        spectral.EigenBasis(cutoff=lam_max, k_range=basis.k_range,
                            modes=basis.modes, metadata=basis.metadata)


def test_assemble_thread_invariance(basis60):
    alt = assemble_basis(60.0, threads=4)
    assert len(alt) == len(basis60)
    for a, b in zip(alt.modes, basis60.modes):
        assert a == b


def test_basis_ordering_and_cutoff(basis120):
    lams = basis120.lambdas
    assert np.all(lams <= basis120.cutoff)
    order = [(m.lam, m.k, {None: 0, "cosine": 0, "sine": 1}[m.phase])
             for m in basis120.modes]
    assert order == sorted(order)


def test_k0_exactness():
    for n in range(1, 21):
        assert abs(zero_mode(n).lam - (n * np.pi) ** 2) <= 1e-10 * (n * np.pi) ** 2
