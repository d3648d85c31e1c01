"""The vectorized mode table against the per-mode single-mode API.

The reference functions below are the per-mode loops that the table
replaced; every table-backed quantity must reproduce them bit for bit, except
the modal sums of the augmented field, which reassociate their sums, the
sampled velocity factor, a different factorization of the same samples that
is compared with ``mode_reference.ref_sampled_velocity_factor`` to eps
relative, and the velocity and Rayleigh Gramians, whose row-panel GEMMs
reproduce the loops' whole products bit for bit only when one panel covers
every row.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stokesheat import (
    FULL_REGION,
    InvalidArgumentError,
    ObservationRegion,
    assemble_basis,
    augmented_field,
    obs_gramian,
    rayleigh_matrix,
    trace_gramian,
)
from stokesheat import hilbert, specineq
from stokesheat.hilbert import sampled_velocity_factor
from stokesheat.quadrature import (
    COS,
    GAUSS_NODES_X2,
    SIN,
    gauss_legendre,
    trig_eval,
    trig_pair_integral,
)
from stokesheat.spectral import TWO_PI

from mode_reference import (mode_profile, mode_x1_trig,
                            ref_sampled_velocity_factor)

QUARTER = ObservationRegion(x1=(0.0, 0.5 * np.pi), x2=(0.4, 0.6))


@functools.lru_cache(maxsize=None)
def basis_at(lam_max):
    return assemble_basis(lam_max)


# ---------------------------------------------------------------------------
# per-mode reference loops

def pair_matrix(kinds, waves, a, b):
    """The full pairwise matrix of trig_pair_integral, one broadcast call."""
    return trig_pair_integral(kinds[:, None], waves[:, None],
                              kinds[None, :], waves[None, :], a, b)


def ref_obs_gramian(basis, region):
    x2, w2 = gauss_legendre(GAUSS_NODES_X2, *region.x2)
    n = len(basis)
    kinds = np.empty((2, n), dtype=int)
    waves = np.empty((2, n))
    vals = np.empty((2, n, len(x2)))
    for j, mode in enumerate(basis.modes):
        for c, comp in enumerate(("u1", "u2")):
            kinds[c, j], waves[c, j] = mode_x1_trig(mode, comp)
            vals[c, j] = mode_profile(mode, x2, comp)
    m = np.zeros((n, n))
    for c in range(2):
        x1_ints = pair_matrix(kinds[c], waves[c], *region.x1)
        m += x1_ints * ((vals[c] * w2) @ vals[c].T)
    return 0.5 * (m + m.T)


def ref_trace_gramian(basis):
    n = len(basis)
    kinds = np.empty(n, dtype=int)
    waves = np.empty(n)
    amps = np.empty(n)
    for j, mode in enumerate(basis.modes):
        kinds[j], waves[j] = mode_x1_trig(mode, "u2")
        amps[j] = mode.eta_trace
    mat = np.outer(amps, amps) * pair_matrix(kinds, waves, 0.0, TWO_PI)
    return 0.5 * (mat + mat.T)


def ref_rayleigh_matrix(basis):
    x2, w2 = gauss_legendre(GAUSS_NODES_X2, 0.0, 1.0)
    n = len(basis)
    total = np.zeros((n, n))
    for comp in ("u1", "u2"):
        kinds = np.empty(n, dtype=int)
        waves = np.empty(n)
        v0 = np.empty((n, len(x2)))
        v1 = np.empty((n, len(x2)))
        for j, mode in enumerate(basis.modes):
            kinds[j], waves[j] = mode_x1_trig(mode, comp)
            v0[j] = mode_profile(mode, x2, comp)
            v1[j] = mode_profile(mode, x2, comp, deriv=1)
        dkinds = np.where(kinds == SIN, COS, SIN)
        dsign = np.where(kinds == SIN, 1.0, -1.0) * waves
        x1_plain = pair_matrix(kinds, waves, 0.0, TWO_PI)
        x1_deriv = pair_matrix(dkinds, waves, 0.0, TWO_PI)
        v0s = v0 * dsign[:, None]
        total += x1_deriv * ((v0s * w2) @ v0s.T)
        total += x1_plain * ((v1 * w2) @ v1.T)
    kinds = np.empty(n, dtype=int)
    waves = np.empty(n)
    amps = np.empty(n)
    for j, mode in enumerate(basis.modes):
        kinds[j], waves[j] = mode_x1_trig(mode, "u2")
        amps[j] = mode.eta_trace
    dkinds = np.where(kinds == SIN, COS, SIN)
    dsign = np.where(kinds == SIN, 1.0, -1.0) * waves
    x1_deriv = pair_matrix(dkinds, waves, 0.0, TWO_PI)
    total += x1_deriv * np.outer(amps * dsign, amps * dsign)
    return -0.5 * (total + total.T)


def ref_region_pressure_means(basis, idx, region):
    a1, b1 = region.x1
    x2, w2 = gauss_legendre(GAUSS_NODES_X2, *region.x2)
    means = np.zeros(len(idx))
    for col, j in enumerate(idx):
        mode = basis.modes[j]
        kind, wav = mode_x1_trig(mode, "p")
        x1_int = float(trig_pair_integral(kind, wav, COS, 0.0, a1, b1))
        means[col] = x1_int * float(np.dot(w2, mode_profile(mode, x2, "p")))
    return means / region.area


def ref_field_values(field, s, x1, x2, component, ds=0, dx1=0, dx2=0):
    basis = field.basis
    idx = basis.low_indices(field.lam_cap)
    out = np.zeros((len(s), len(x1), len(x2)))
    for j in idx:
        aj = field.coeffs[j]
        if aj == 0.0:
            continue
        mode = basis.modes[j]
        q = math.sqrt(mode.lam)
        sw = q ** ds * (np.cosh(q * s) if ds % 2 == 0 else np.sinh(q * s))
        t = trig_eval(*mode_x1_trig(mode, component), x1, deriv=dx1)
        prof = mode_profile(mode, x2, component, deriv=dx2)
        out += aj * sw[:, None, None] * t[None, :, None] * prof[None, None, :]
    if component == "p" and ds == 0 and dx1 == 0 and dx2 == 0:
        cosh_tab = np.cosh(np.outer(s, np.sqrt(basis.lambdas[idx])))
        gauge = -(cosh_tab * field.coeffs[idx][None, :]) @ field.mean_pressures
        out += gauge[:, None, None]
    return out


# ---------------------------------------------------------------------------
# table rows against the single-mode API

@settings(max_examples=40, deadline=None)
@given(lam_max=st.sampled_from([60.0, 400.0]),
       component=st.sampled_from(["u1", "u2", "p"]),
       deriv=st.sampled_from([0, 1, 2]),
       x2=st.lists(st.floats(0.0, 1.0), max_size=20))
def test_table_rows_match_single_mode_api(lam_max, component, deriv, x2):
    basis = basis_at(lam_max)
    x2 = np.array([0.0, 1.0] + x2)
    got = basis.table.profiles(x2, component, deriv=deriv)
    want = np.array([mode_profile(m, x2, component, deriv=deriv)
                     for m in basis.modes])
    assert got.shape == (len(basis), len(x2))
    assert np.array_equal(got, want)
    kinds, waves = basis.table.x1_trig(component)
    ref = [mode_x1_trig(m, component) for m in basis.modes]
    assert np.array_equal(kinds, [kind for kind, _ in ref])
    assert np.array_equal(waves, [wave for _, wave in ref])


def test_table_is_read_only_and_backs_lambdas(basis60):
    tab = basis60.table
    assert basis60.table is tab
    assert np.array_equal(basis60.lambdas, [m.lam for m in basis60.modes])
    for arr in (tab.k, tab.lam, tab.c, tab.norm_factor, tab.eta_trace):
        assert not arr.flags.writeable
    kinds, waves = tab.x1_trig("eta")
    ref = [mode_x1_trig(m, "eta") for m in basis60.modes]
    assert np.array_equal(kinds, [kind for kind, _ in ref])
    assert np.array_equal(waves, [wave for _, wave in ref])
    with pytest.raises(InvalidArgumentError):
        tab.profiles([0.5], "eta")


@pytest.mark.parametrize("component", ["u1", "u2"])
def test_profiles_temporaries_stay_below_the_result(basis1200, component):
    # 589 modes in chunks: the result plus at most its own size again
    # above entry
    x2, _ = gauss_legendre(GAUSS_NODES_X2, 0.0, 1.0)
    basis1200.table     # built outside the measurement
    tracemalloc.start()
    try:
        entry, _ = tracemalloc.get_traced_memory()
        got = basis1200.table.profiles(x2, component)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - entry <= 2 * got.nbytes


# ---------------------------------------------------------------------------
# table-backed quantities against the per-mode loops

@pytest.fixture(scope="module")
def basis400():
    return basis_at(400.0)


def check_panel_gramian(monkeypatch, gramian, ref):
    """``gramian()`` against the per-mode loop's ``ref``: byte for byte (a
    flipped zero sign fails too) with one panel over every row, whose GEMMs
    are the loop's whole products, and within n eps max |ref| in the
    default 64-row panels."""
    n = len(ref)
    assert (np.abs(gramian() - ref).max()
            <= n * np.finfo(float).eps * np.abs(ref).max())
    with monkeypatch.context() as patch:
        patch.setattr(hilbert, "_PANEL_ROWS", n)
        assert gramian().tobytes() == ref.tobytes()


@pytest.mark.parametrize("region", [QUARTER, FULL_REGION],
                         ids=["quarter_strip", "full_strip"])
def test_obs_gramian_bit_equal_to_per_mode_loop(monkeypatch, basis400, region):
    check_panel_gramian(monkeypatch,
                        lambda: obs_gramian(basis400, region).matrix,
                        ref_obs_gramian(basis400, region))


def test_trace_and_rayleigh_bit_equal_to_per_mode_loop(monkeypatch, basis400):
    assert (trace_gramian(basis400).tobytes()
            == ref_trace_gramian(basis400).tobytes())
    check_panel_gramian(monkeypatch, lambda: rayleigh_matrix(basis400),
                        ref_rayleigh_matrix(basis400))


def test_sampled_velocity_factor_matches_sample_matrix_qr(basis400):
    # the Khatri-Rao factor against the QR of the whole sample matrix: the
    # Gram matrix to 1e-13 of its column norms, and the column-scaled
    # sigma_min within the eps * kappa(R D^-1) the sample-matrix QR makes too
    eps = np.finfo(float).eps
    for lam_cap in (25.0, 100.0, 400.0):
        idx = basis400.low_indices(lam_cap)
        got = sampled_velocity_factor(basis400, idx, QUARTER)
        ref = ref_sampled_velocity_factor(basis400, idx, QUARTER)
        assert got.shape == ref.shape
        gram_ref = ref.T @ ref
        col = np.sqrt(np.diag(gram_ref))
        assert np.all(np.abs(got.T @ got - gram_ref) <= 1e-13 * np.outer(col, col))
        s_ref = np.linalg.svd(ref / col, compute_uv=False)
        s_got = np.linalg.svd(got / col, compute_uv=False)
        kappa = s_ref[0] / s_ref[-1]
        assert abs(s_got[-1] - s_ref[-1]) <= eps * kappa * s_ref[-1]


def test_augmented_sums_match_per_mode_loop(basis400):
    rng = np.random.default_rng(11)
    lam_cap = 200.0
    a = np.zeros(len(basis400))
    low = basis400.low_indices(lam_cap)
    a[low] = rng.standard_normal(len(low))
    a[low[::3]] = 0.0
    fld = augmented_field(basis400, a, lam_cap, region=QUARTER)
    means = ref_region_pressure_means(basis400, low, QUARTER)
    assert (np.abs(fld.mean_pressures - means).max()
            <= 1e-14 * np.abs(means).max())
    s = np.linspace(0.05, 0.95, 5)
    x1 = np.linspace(0.0, 6.0, 7)
    x2 = np.linspace(0.0, 1.0, 6)
    for component, ds, dx1, dx2 in [("u1", 0, 0, 0), ("u2", 2, 0, 0),
                                    ("p", 0, 0, 0), ("p", 0, 1, 0),
                                    ("u1", 1, 2, 0), ("u2", 0, 0, 2),
                                    ("p", 0, 0, 1)]:
        got = specineq.field_values(fld, s, x1, x2, component, ds, dx1, dx2)
        want = ref_field_values(fld, s, x1, x2, component, ds, dx1, dx2)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_field_values_skip_modes_without_coefficient(basis400):
    # cosh(sqrt(lam) s) overflows for the upper modes at s = 40; they carry
    # no coefficient, so they must not enter a sum as 0 * inf
    a = np.zeros(len(basis400))
    a[:4] = [1.0, -0.5, 0.25, 0.125]
    s = np.array([40.0])
    fld = augmented_field(basis400, a, 400.0, region=QUARTER)
    x1 = np.linspace(0.0, 6.0, 5)
    x2 = np.linspace(0.0, 1.0, 5)
    for component in ("u1", "u2"):
        got = specineq.field_values(fld, s, x1, x2, component, ds=1, dx2=1)
        want = ref_field_values(fld, s, x1, x2, component, ds=1, dx2=1)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert np.all(np.isfinite(specineq.field_values(fld, s, x1, x2, "p")))
