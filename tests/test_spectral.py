import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stokesheat import (
    DegenerateBranchError,
    IncompleteBasisError,
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

from mode_reference import eval_mode, mode_profile, mode_x1_trig, stream_eval


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
        for lam in (0.5, 0.9 * k * k, 1.1 * k * k + 1.0, 1e4, 1e6):
            if abs(lam - k * k) <= 1e-8 * max(1, k * k):
                continue
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
    """(k, lams): a wavenumber and points on one side of k**2, some of them
    just outside the degeneracy guard."""
    k = draw(st.integers(1, 64))
    guard = spectral.degeneracy_tolerance(k)
    side = draw(st.sampled_from((-1.0, 1.0)))
    near = st.floats(1.01, 10.0).map(lambda t: k * k + side * guard * t)
    if side < 0:
        far = st.floats(1e-4, k * k - 2 * guard)
    else:
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
    assert spectral.build_settings(60.0, basis60.k_range, 16, 1e-12) == meta


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


def test_assemble_incomplete_basis_error():
    with pytest.raises(IncompleteBasisError):
        assemble_basis(50.0, k_max=3)


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
