import json
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stokesheat import (
    BasisFormatError,
    BasisVersionError,
    FULL_REGION,
    InvalidArgumentError,
    Kernel,
    ObservabilityDefectError,
    ObservationRegion,
    StateVector,
    load_basis,
    norm,
    obs_gramian,
    rayleigh_matrix,
    save_basis,
    semigroup,
    trace_gramian,
    zero_mode,
)
from stokesheat import control, hilbert, specineq
from stokesheat.quadrature import trig_pair_integral
from stokesheat.spectral import EigenBasis

from modal_ops import apply_B, inner, project
from mode_reference import basis_state, eval_mode


def random_state(basis, rng):
    a = rng.standard_normal(len(basis))
    return StateVector(basis, a / np.linalg.norm(a))


def field_of_state(state, x1, x2):
    """Velocity and trace of a modal state on a grid (test-side evaluator)."""
    u1 = np.zeros((len(x1), len(x2)))
    u2 = np.zeros_like(u1)
    eta = np.zeros(len(x1))
    for aj, mode in zip(state.coeffs, state.basis.modes):
        if aj == 0.0:
            continue
        m1, m2, _, me = eval_mode(mode, x1[:, None], x2[None, :])
        u1 += aj * m1
        u2 += aj * m2
        eta += aj * me[:, 0]
    return u1, u2, eta


def simpson_weights(n):
    # n odd node count
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def direct_quadrature_inner(x, y, n1=128, n2=257):
    """Independent oracle: periodic trapezoid in x1, Simpson in x2/trace."""
    x1 = np.linspace(0.0, 2 * np.pi, n1, endpoint=False)
    x2 = np.linspace(0.0, 1.0, n2)
    h1 = 2 * np.pi / n1
    h2 = 1.0 / (n2 - 1)
    u1x, u2x, etax = field_of_state(x, x1, x2)
    u1y, u2y, etay = field_of_state(y, x1, x2)
    w2 = simpson_weights(n2) * h2
    vol = h1 * np.einsum("ab,b->", u1x * u1y + u2x * u2y, w2)
    trace = h1 * np.dot(etax, etay)
    return vol + trace


def test_state_length_check(basis60):
    with pytest.raises(InvalidArgumentError):
        StateVector(basis60, np.zeros(len(basis60) + 1))


def test_inner_orthonormal_units(basis60):
    for j in (0, 3, 7):
        for l in (0, 3, 7):
            val = inner(basis_state(basis60, j), basis_state(basis60, l))
            assert val == pytest.approx(1.0 if j == l else 0.0, abs=1e-15)


def test_inner_positivity(basis60, rng):
    x = random_state(basis60, rng)
    assert inner(x, x) > 0
    zero = StateVector(basis60, np.zeros(len(basis60)))
    assert inner(zero, zero) == 0.0


def test_inner_basis_mismatch(basis60, basis120):
    x = basis_state(basis60, 0)
    y = basis_state(basis120, 0)
    with pytest.raises(InvalidArgumentError):
        inner(x, y)


def test_inner_matches_direct_quadrature(basis60, rng):
    for _ in range(10):
        x = random_state(basis60, rng)
        y = random_state(basis60, rng)
        ref = direct_quadrature_inner(x, y)
        got = inner(x, y)
        assert got == pytest.approx(ref, abs=2e-6 * norm(x) * norm(y))


def test_semigroup_properties(basis60, rng):
    with pytest.raises(InvalidArgumentError):
        semigroup(random_state(basis60, rng), -0.5)
    for _ in range(100):
        x = random_state(basis60, rng)
        assert np.array_equal(semigroup(x, 0.0).coeffs, x.coeffs)
        s, t = rng.uniform(0.0, 1.0, 2)
        a = semigroup(semigroup(x, s), t).coeffs
        b = semigroup(x, s + t).coeffs
        assert np.abs(a - b).max() <= 1e-12
        assert norm(semigroup(x, t)) <= np.exp(-basis60.lambdas[0] * t) * norm(x) * (1 + 1e-12)


def test_project_properties(basis60, rng):
    x = random_state(basis60, rng)
    lam = 30.0
    p = project(x, lam)
    assert np.array_equal(project(p, lam).coeffs, p.coeffs)
    assert np.array_equal(project(x, basis60.cutoff).coeffs, x.coeffs)
    tail = x.coeffs - p.coeffs
    assert norm(x) ** 2 == pytest.approx(norm(p) ** 2 + float(tail @ tail), rel=1e-12)


def test_project_checks_the_cutoff(basis60, rng):
    # a cap above the basis cutoff would return the whole state as if it
    # were that cap's projection; below it the result is the masked state
    a = random_state(basis60, rng).coeffs
    a[[1, -1]] = -0.0
    x = StateVector(basis60, a)
    for cap in (basis60.cutoff + 1, 1e9):
        with pytest.raises(InvalidArgumentError, match="exceeds the basis cutoff"):
            project(x, cap)
    for cap in (0.0, 30.0, float(basis60.lambdas[10]), basis60.cutoff):
        want = np.where(basis60.lambdas <= cap, a, 0.0)
        assert project(x, cap).coeffs.tobytes() == want.tobytes()


def test_obs_gramian_region_validation():
    with pytest.raises(InvalidArgumentError):
        ObservationRegion(x1=(1.0, 0.5), x2=(0.3, 0.7))
    with pytest.raises(InvalidArgumentError):
        ObservationRegion(x1=(0.0, 1.0), x2=(0.9, 0.2))
    with pytest.raises(InvalidArgumentError):
        ObservationRegion(x1=(0.0, 7.0), x2=(0.3, 0.7))


def test_parseval_split(basis120):
    m = obs_gramian(basis120, FULL_REGION).matrix
    n = trace_gramian(basis120)
    dev = np.abs(m + n - np.eye(len(basis120))).max()
    assert dev <= 1e-8


def test_k0_block_closed_form():
    modes = tuple(zero_mode(n) for n in range(1, 5))
    basis = EigenBasis(cutoff=200.0, modes=modes, metadata={})
    a2, b2 = 0.25, 0.85
    m = obs_gramian(basis, ObservationRegion((0.0, 2 * np.pi), (a2, b2))).matrix

    def sin_int(n, mm):
        # exact antiderivative of sin(n pi x) sin(m pi x) over [a2, b2]
        if n == mm:
            f = lambda x: 0.5 * x - np.sin(2 * n * np.pi * x) / (4 * n * np.pi)
        else:
            f = lambda x: (np.sin((n - mm) * np.pi * x) / (2 * (n - mm) * np.pi)
                           - np.sin((n + mm) * np.pi * x) / (2 * (n + mm) * np.pi))
        return f(b2) - f(a2)

    for i in range(4):
        for j in range(4):
            ref = 2.0 * sin_int(i + 1, j + 1)  # (1/pi)*(2 pi)*integral
            assert m[i, j] == pytest.approx(ref, abs=1e-12)


def test_obs_gramian_vs_tensor_quadrature(basis60, region_half):
    m = obs_gramian(basis60, region_half).matrix
    n1, n2 = 193, 257  # odd node counts for Simpson
    x1 = np.linspace(*region_half.x1, n1)
    x2 = np.linspace(*region_half.x2, n2)
    w1 = simpson_weights(n1) * (x1[1] - x1[0])
    w2 = simpson_weights(n2) * (x2[1] - x2[0])
    fields = []
    for mode in basis60.modes:
        u1, u2, _, _ = eval_mode(mode, x1[:, None], x2[None, :])
        fields.append((u1, u2))
    for i in (0, 5, 11, 17):
        for j in (0, 5, 11, 17):
            ref = (np.einsum("ab,a,b->", fields[i][0] * fields[j][0], w1, w2)
                   + np.einsum("ab,a,b->", fields[i][1] * fields[j][1], w1, w2))
            assert m[i, j] == pytest.approx(ref, abs=1e-7)


def test_obs_gramian_psd_and_monotone(basis60):
    prev_min = None
    for half in (0.3, 0.6, 1.0, 1.5, 2.2):
        region = ObservationRegion((1.0, 1.0 + half), (0.5 - 0.1 * half, 0.5 + 0.1 * half))
        m = obs_gramian(basis60, region).matrix
        ev = np.linalg.eigvalsh(m)
        assert ev[0] >= -1e-10 * np.trace(m)
        if prev_min is not None:
            assert ev[0] >= prev_min - 1e-12
        prev_min = ev[0]


def test_rayleigh_matrix(basis120):
    r = rayleigh_matrix(basis120)
    lams = basis120.lambdas
    assert np.abs(r - r.T).max() <= 1e-7
    dev = np.abs(r + np.diag(lams)) / lams.max()
    assert dev.max() <= 1e-6


def test_gramians_match_broadcast_pair_integrals(monkeypatch, basis120,
                                                region_half):
    fast = (obs_gramian(basis120, region_half).matrix,
            trace_gramian(basis120), rayleigh_matrix(basis120))

    def broadcast(kinds, waves, a, b):
        return trig_pair_integral(kinds[:, None], waves[:, None],
                                  kinds[None, :], waves[None, :], a, b)

    monkeypatch.setattr(hilbert, "trig_pair_matrix", broadcast)
    ref = (obs_gramian(basis120, region_half).matrix,
           trace_gramian(basis120), rayleigh_matrix(basis120))
    for got, want in zip(fast, ref):
        assert np.array_equal(got, want)


def test_apply_B_full_region_identity(basis60):
    gram = obs_gramian(basis60, FULL_REGION)
    n_mat = trace_gramian(basis60)
    idx = np.arange(len(basis60))
    for j in (0, 4, 9):
        g = np.zeros(len(basis60))
        g[j] = 1.0
        forced = apply_B(gram, g, idx)
        ref = (np.eye(len(basis60)) - n_mat)[:, j]
        assert np.abs(forced - ref).max() <= 1e-8


def test_apply_B_zero_and_duality(basis60, region_half, rng):
    gram = obs_gramian(basis60, region_half)
    idx = np.arange(10)
    assert np.abs(apply_B(gram, np.zeros(10), idx)).max() == 0.0
    g = rng.standard_normal(10)
    x = rng.standard_normal(len(basis60))
    lhs = float(apply_B(gram, g, idx) @ x)
    rhs = float(g @ (gram.matrix @ x)[idx])
    assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))


def test_apply_B_index_validation(basis60, region_half):
    gram = obs_gramian(basis60, region_half)
    with pytest.raises(InvalidArgumentError):
        apply_B(gram, np.ones(2), np.array([0, len(basis60)]))
    with pytest.raises(InvalidArgumentError):
        apply_B(gram, np.ones(3), np.array([0, 1]))


def test_save_load_roundtrip(tmp_path, basis60):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_basis(basis60, p1)
    loaded = load_basis(p1)
    save_basis(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.basis_id == basis60.basis_id
    m = obs_gramian(loaded, FULL_REGION).matrix + trace_gramian(loaded)
    assert np.abs(m - np.eye(len(loaded))).max() <= 1e-8


def test_atomic_write_failure_leaves_no_temp_file(tmp_path, monkeypatch,
                                                  basis60):
    from stokesheat import cli

    # a lone surrogate cannot be encoded, so the write itself fails
    with pytest.raises(UnicodeEncodeError):
        hilbert.atomic_write(str(tmp_path / "bad.txt"), "ok \ud800")
    assert list(tmp_path.iterdir()) == []

    def failing_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="replace failed"):
        save_basis(basis60, str(tmp_path / "basis.json"))
    with pytest.raises(OSError, match="replace failed"):
        cli._write_json(str(tmp_path / "report.json"), {"a": 1})
    assert list(tmp_path.iterdir()) == []


def test_load_truncated_file(tmp_path, basis60):
    path = tmp_path / "basis.json"
    save_basis(basis60, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(BasisFormatError):
        load_basis(path)


def test_load_version_mismatch(tmp_path, basis60):
    path = tmp_path / "basis.json"
    save_basis(basis60, path)
    doc = json.loads(path.read_text())
    doc["schema_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(BasisVersionError):
        load_basis(path)


def test_load_missing_field(tmp_path, basis60):
    path = tmp_path / "basis.json"
    save_basis(basis60, path)
    doc = json.loads(path.read_text())
    del doc["modes"][0]["lambda"]
    path.write_text(json.dumps(doc))
    with pytest.raises(BasisFormatError):
        load_basis(path)


def test_load_rejects_branch_that_disagrees_with_lambda(tmp_path, basis60):
    path = tmp_path / "basis.json"
    save_basis(basis60, path)
    doc = json.loads(path.read_text())
    rec = next(r for r in doc["modes"] if r["k"] >= 1)
    flip = {"oscillatory": "evanescent", "evanescent": "oscillatory"}
    rec["branch"] = flip[rec["branch"]]
    path.write_text(json.dumps(doc))
    with pytest.raises(BasisFormatError, match="branch"):
        load_basis(path)
    # a lambda inside the guard interval around k^2 has no branch at all
    rec["branch"] = flip[rec["branch"]]
    rec["lambda"] = float(rec["k"] ** 2)
    path.write_text(json.dumps(doc))
    with pytest.raises(BasisFormatError, match="degeneracy guard"):
        load_basis(path)


def test_evanescent_record_is_rejected_and_rebuilt(tmp_path, basis60, capsys):
    # no sector-k eigenvalue lies below k^2, so a record there is not one of
    # this basis's modes even when its branch field agrees with its lambda
    from stokesheat import cli

    cache = tmp_path / "basis.json"
    save_basis(basis60, cache)
    doc = json.loads(cache.read_text())
    assert doc["modes"][0]["k"] == 1
    doc["modes"][0].update({"lambda": 0.5, "branch": "evanescent"})
    cache.write_text(json.dumps(doc))
    with pytest.raises(BasisFormatError, match="modes\\[0\\]"):
        load_basis(cache)
    capsys.readouterr()
    assert cli.main(["control", "--lambda-max", "60", "--lambda-cap", "50",
                     "--z0-modes", "10", "--cache", str(cache),
                     "--out-dir", str(tmp_path / "control")]) == 0
    err = capsys.readouterr().err
    assert "evanescent" in err and "rebuilding" in err
    assert load_basis(cache).basis_id == basis60.basis_id


def test_load_rejects_phase_that_does_not_fit_k(tmp_path, basis60):
    path = tmp_path / "basis.json"
    save_basis(basis60, path)
    doc = json.loads(path.read_text())
    # a null phase on a k >= 1 record would load as the other phase's mode
    rec = next(r for r in doc["modes"] if r["k"] == 1 and r["phase"] == "cosine")
    rec["phase"] = None
    path.write_text(json.dumps(doc))
    with pytest.raises(BasisFormatError, match="phase"):
        load_basis(path)
    rec["phase"] = "cosine"
    rec = next(r for r in doc["modes"] if r["k"] == 0)
    rec["phase"] = "cosine"
    path.write_text(json.dumps(doc))
    with pytest.raises(BasisFormatError, match="phase"):
        load_basis(path)


FLIP_BRANCH = {"oscillatory": "evanescent", "evanescent": "oscillatory"}

# faults that _mode_from_record itself rejects, each made in one k >= 1 record
RECORD_FAULTS = {
    "k not an integer": lambda rec: rec.update(k=float(rec["k"])),
    "n not an integer": lambda rec: rec.update(n=float(rec["n"])),
    "wrong branch": lambda rec: rec.update(branch=FLIP_BRANCH[rec["branch"]]),
    "wrong phase": lambda rec: rec.update(phase=None),
    "c of 3 entries": lambda rec: rec.update(c=rec["c"][:3]),
    "negative k": lambda rec: rec.update(k=-rec["k"]),
}


@pytest.mark.parametrize("fault", list(RECORD_FAULTS))
def test_load_names_the_cache_and_the_record_at_fault(tmp_path, basis60,
                                                       fault):
    cache = tmp_path / "basis.json"
    save_basis(basis60, cache)
    doc = json.loads(cache.read_text())
    index = max(i for i, rec in enumerate(doc["modes"]) if rec["k"] >= 1)
    RECORD_FAULTS[fault](doc["modes"][index])
    cache.write_text(json.dumps(doc))
    path = str(cache)  # as the command line passes it
    with pytest.raises(BasisFormatError) as exc:
        load_basis(path)
    assert repr(path) in str(exc.value)
    assert f"modes[{index}]" in str(exc.value)


@pytest.mark.parametrize("doc, error", [([], BasisFormatError),
                                        ({"schema_version": 99},
                                         BasisVersionError)])
def test_load_names_the_cache_with_a_bad_root_or_schema(tmp_path, doc, error):
    cache = tmp_path / "basis.json"
    cache.write_text(json.dumps(doc))
    path = str(cache)
    with pytest.raises(error) as exc:
        load_basis(path)
    assert repr(path) in str(exc.value)


def _edited_cache(tmp_path, basis, edit):
    path = tmp_path / "basis.json"
    save_basis(basis, path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


def test_load_rejects_cutoff_other_than_lambda_max(tmp_path, basis60):
    path = _edited_cache(tmp_path, basis60,
                         lambda doc: doc.update(cutoff=5000.0))
    with pytest.raises(BasisFormatError, match="lambda_max"):
        load_basis(path)


def test_load_rejects_unsorted_lambdas(tmp_path, basis60):
    def swap(doc):
        modes = doc["modes"]
        modes[0], modes[-1] = modes[-1], modes[0]

    with pytest.raises(BasisFormatError, match="nondecreasing"):
        load_basis(_edited_cache(tmp_path, basis60, swap))


def test_load_rejects_lambda_above_cutoff(tmp_path, basis60):
    def lower_cutoff(doc):
        doc["cutoff"] = doc["metadata"]["lambda_max"] = 50.0

    assert basis60.lambdas.max() > 50.0
    with pytest.raises(BasisFormatError, match="above the cutoff"):
        load_basis(_edited_cache(tmp_path, basis60, lower_cutoff))


def _zero_record(doc):
    return next(r for r in doc["modes"] if r["k"] == 0)


def _stream_record(doc):
    return next(r for r in doc["modes"] if r["k"] >= 1)


# every number a cache holds: (container, key) of one occurrence
CACHE_NUMBERS = {
    "cutoff": lambda doc: (doc, "cutoff"),
    "k_range": lambda doc: (doc, "k_range"),
    "metadata.lambda_max": lambda doc: (doc["metadata"], "lambda_max"),
    "metadata.refine_tol": lambda doc: (doc["metadata"], "refine_tol"),
    "k0.k": lambda doc: (_zero_record(doc), "k"),
    "k0.n": lambda doc: (_zero_record(doc), "n"),
    "k0.lambda": lambda doc: (_zero_record(doc), "lambda"),
    "k0.amplitude": lambda doc: (_zero_record(doc), "amplitude"),
    "k0.eta_trace": lambda doc: (_zero_record(doc), "eta_trace"),
    "k1.k": lambda doc: (_stream_record(doc), "k"),
    "k1.lambda": lambda doc: (_stream_record(doc), "lambda"),
    "k1.c": lambda doc: (_stream_record(doc)["c"], 2),
    "k1.norm_factor": lambda doc: (_stream_record(doc), "norm_factor"),
    "k1.eta_trace": lambda doc: (_stream_record(doc), "eta_trace"),
}


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("field", list(CACHE_NUMBERS))
def test_load_rejects_non_finite_number(tmp_path, basis60, field, token):
    # the writer never emits these; json reads the first three as constants
    # and 1e999 overflows to inf
    path = tmp_path / "basis.json"
    save_basis(basis60, path)
    doc = json.loads(path.read_text())
    holder, key = CACHE_NUMBERS[field](doc)
    holder[key] = "@"
    path.write_text(json.dumps(doc).replace('"@"', token))
    with pytest.raises(BasisFormatError, match="non-finite"):
        load_basis(path)


def _record_with(doc, **fields):
    return next(r for r in doc["modes"]
                if all(r[key] == value for key, value in fields.items()))


# edits that int() once read as the original k, n or k_range, so the cache
# loaded with its original basis_id
NON_INTEGER_EDITS = {
    "k 2.9": lambda doc: _record_with(doc, k=2).update(k=2.9),
    "k true": lambda doc: _record_with(doc, k=1).update(k=True),
    "n string": lambda doc: _record_with(doc, n=1).update(n="1"),
    "n 1.0": lambda doc: _record_with(doc, n=1).update(n=1.0),
    "k_range 6.5": lambda doc: doc.update(k_range=6.5),
}


@pytest.mark.parametrize("edit", list(NON_INTEGER_EDITS))
def test_load_rejects_integer_field_that_is_not_a_json_integer(tmp_path,
                                                               basis60, edit):
    path = _edited_cache(tmp_path, basis60, NON_INTEGER_EDITS[edit])
    with pytest.raises(BasisFormatError, match="is not an integer"):
        load_basis(path)


# the float fields the loader reads; written as a string, a bool or an
# integer, float() once read each as the number, so the cache loaded
FLOAT_FIELDS = [field for field in CACHE_NUMBERS
                if not field.startswith("metadata.")
                and field.rpartition(".")[2] not in ("k", "n", "k_range")]
NON_FLOAT_VALUES = {"string": repr, "true": lambda value: True,
                    "integer": round}


@pytest.mark.parametrize("kind", list(NON_FLOAT_VALUES))
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_load_rejects_float_field_that_is_not_a_json_float(tmp_path, basis60,
                                                           field, kind):
    def edit(doc):
        holder, key = CACHE_NUMBERS[field](doc)
        holder[key] = NON_FLOAT_VALUES[kind](holder[key])

    with pytest.raises(BasisFormatError, match="is not a JSON float"):
        load_basis(_edited_cache(tmp_path, basis60, edit))


# k = 0 records of JSON-typed fields that are not zero_mode(n); each once
# loaded, the first two as a mode that is not an eigenmode or not unit-norm
ZERO_RECORD_EDITS = {
    "lambda 1e-9 off": lambda rec: rec.update({"lambda": rec["lambda"] * (1 + 1e-9)}),
    "amplitude 0.5": lambda rec: rec.update(amplitude=0.5),
    "eta_trace 1e-3": lambda rec: rec.update(eta_trace=1e-3),
    "n of another mode": lambda rec: rec.update(n=rec["n"] + 1),
}


@pytest.mark.parametrize("edit", list(ZERO_RECORD_EDITS))
def test_load_rejects_k0_record_other_than_zero_mode(tmp_path, basis60, edit):
    def apply(doc):
        ZERO_RECORD_EDITS[edit](_zero_record(doc))

    with pytest.raises(BasisFormatError, match=r"is not zero_mode\(\d+\)"):
        load_basis(_edited_cache(tmp_path, basis60, apply))


@pytest.mark.parametrize("k_range", [7, 9, 20])
def test_load_rejects_k_range_other_than_the_cutoffs(tmp_path, basis60,
                                                     k_range):
    # ceil(sqrt(60)) = 8 is the first wavenumber with no eigenvalue <= 60
    path = _edited_cache(tmp_path, basis60,
                         lambda doc: doc.update(k_range=k_range))
    with pytest.raises(BasisFormatError, match=f"k_range {k_range} is not 8"):
        load_basis(path)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 9),
       blocks=st.sampled_from(["fewer", "one", "one_plus_one", "n_over_rows"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_factor_r_matches_full_stack_qr(n, blocks, seed):
    # a 48-row buffer stands in for the default, so every way a stack can
    # split into chunks is reached on small matrices
    rows = 48 if blocks != "n_over_rows" else n - 1
    per = max(1, (rows - n) // n)
    n_blocks = {"fewer": max(1, per - 1), "one": per, "one_plus_one": per + 1,
                "n_over_rows": 3}[blocks]
    rng = np.random.default_rng(seed)
    r_g = np.triu(rng.standard_normal((n, n)))
    weights = rng.uniform(0.1, 2.0, n_blocks)
    scales = np.exp(rng.uniform(-3.0, 3.0, (n_blocks, n)))
    with mock.patch.object(hilbert, "_STACK_ROWS", rows):
        got = hilbert.stacked_factor_r(r_g, weights, scales)
    full = weights[:, None, None] * (r_g[None] * scales[:, None, :])
    ref = np.linalg.qr(full.reshape(-1, n), mode="r")
    assert got.shape == ref.shape
    gram_ref = ref.T @ ref
    assert (np.abs(got.T @ got - gram_ref).max()
            <= 1e-12 * np.abs(gram_ref).max())


def graded_scales(rng, n_blocks, n, decades, grading):
    """Scales graded like the exp(-t lam) and cosh(s q) columns of the
    observability and spectral-inequality stacks, over ``decades`` decades."""
    nodes = np.append(np.sort(rng.uniform(0.0, 1.0, n_blocks - 1)), 1.0)
    rates = np.append(np.sort(rng.uniform(0.0, decades, n - 1)), decades)
    rates *= math.log(10.0)
    if grading == "exp":
        return np.exp(-np.outer(nodes, rates))
    return np.cosh(np.outer(nodes, np.arccosh(np.exp(rates))))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 9),
       blocks=st.sampled_from(["fewer", "equal", "more"]),
       grading=st.sampled_from(["exp", "cosh"]),
       decades=st.floats(8.0, 14.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_factor_r_compression_keeps_smallest_singular_value(
        n, blocks, grading, decades, seed):
    # graded scales; the block count falls below, at and above the column
    # count
    rng = np.random.default_rng(seed)
    n_blocks = {"fewer": max(1, n - 1), "equal": n,
                "more": int(rng.integers(n + 1, 4 * n + 2))}[blocks]
    scales = graded_scales(rng, n_blocks, n, decades, grading)
    r_g = np.triu(rng.standard_normal((n, n)))
    weights = rng.uniform(0.1, 2.0, n_blocks)
    with mock.patch.object(hilbert, "_STACK_ROWS", 48):
        got = hilbert.stacked_factor_r(r_g, weights, scales)
    full = (weights[:, None, None] * (r_g[None] * scales[:, None, :])).reshape(-1, n)
    ref = np.linalg.qr(full, mode="r")
    assert got.shape == ref.shape
    gram_ref = ref.T @ ref
    assert (np.abs(got.T @ got - gram_ref).max()
            <= 1e-12 * np.abs(gram_ref).max())
    s_ref = np.linalg.svd(full, compute_uv=False)
    s_got = np.linalg.svd(got, compute_uv=False)
    kappa_f = s_ref[0] / s_ref[-1]
    assert (abs(s_got[-1] - s_ref[-1])
            <= 16.0 * np.finfo(float).eps * kappa_f * s_ref[-1])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(10, 13),
       rows=st.integers(1, 3),
       grading=st.sampled_from(["exp", "cosh"]),
       decades=st.floats(8.0, 14.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_factor_r_cut_keeps_column_scaled_smallest_singular_value(
        n, rows, grading, decades, seed):
    # sigma_min of the stack scaled by its column norms D, within
    # eps kappa(F D^-1) of the full stack's.  With a few rows in r_g, as the
    # cut trig factor in sampled_velocity_factor has, F D^-1 is about as
    # ill-conditioned as the weights, whose equilibrated singular values for
    # 10-13 graded columns reach 1e-9 to 1e-15: a cut coarser than eps drops
    # them, which the absolute bound eps kappa(F) sigma_min(F) cannot see
    rng = np.random.default_rng(seed)
    n_blocks = 4 * n
    scales = graded_scales(rng, n_blocks, n, decades, grading)
    r_g = np.triu(rng.standard_normal((rows, n)))
    weights = rng.uniform(0.1, 2.0, n_blocks)
    got = hilbert.stacked_factor_r(r_g, weights, scales)
    full = (weights[:, None, None] * (r_g[None] * scales[:, None, :])).reshape(-1, n)
    d = np.linalg.norm(full, axis=0)
    s_ref = np.linalg.svd(full / d, compute_uv=False)
    s_got = np.linalg.svd(got / d, compute_uv=False)
    kappa = s_ref[0] / s_ref[-1]
    assert (abs(s_got[-1] - s_ref[-1])
            <= 4.0 * np.finfo(float).eps * kappa * s_ref[-1])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 9),
       rows=st.integers(1, 9),
       deficiency=st.sampled_from(["repeated_nodes", "rank_one", "zero_row"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_factor_r_rank_deficient_weights(n, rows, deficiency, seed):
    # A = row_weights[:, None] * col_scales of rank well below min(n_s, n):
    # graded exponentials at a few nodes each taken many times, one column
    # profile times per-row factors, or graded rows with zero weights among
    # them; r_g may have fewer rows than columns
    rng = np.random.default_rng(seed)
    rows = min(rows, n)
    n_blocks = int(rng.integers(2, 4 * n + 3))
    rates = np.sort(rng.uniform(0.0, 10.0, n)) * math.log(10.0)
    weights = rng.uniform(0.1, 2.0, n_blocks)
    if deficiency == "rank_one":
        scales = np.outer(rng.uniform(0.5, 2.0, n_blocks), np.exp(-rates))
    else:
        if deficiency == "repeated_nodes":
            distinct = rng.uniform(0.0, 1.0, max(1, n_blocks // 3))
            nodes = rng.choice(distinct, n_blocks)
        else:
            nodes = rng.uniform(0.0, 1.0, n_blocks)
            weights[rng.choice(n_blocks, max(1, n_blocks // 2),
                               replace=False)] = 0.0
        scales = np.exp(-np.outer(nodes, rates))
    # column norms spread over 12 decades, as the cosh(s q) columns do
    scales *= 10.0 ** rng.uniform(-6.0, 6.0, n)
    r_g = np.triu(rng.standard_normal((rows, n)))
    with mock.patch.object(hilbert, "_STACK_ROWS", 48):
        got = hilbert.stacked_factor_r(r_g, weights, scales)
    full = (weights[:, None, None] * (r_g[None] * scales[:, None, :])).reshape(-1, n)
    ref = np.linalg.qr(full, mode="r")
    assert got.shape == ref.shape
    assert np.array_equal(got, np.triu(got))
    # to 1e-12 of each entry's column norms, so the smallest columns keep
    # their digits as well as the largest
    gram_ref = ref.T @ ref
    col = np.sqrt(np.diag(gram_ref))
    assert np.all(np.abs(got.T @ got - gram_ref)
                  <= 1e-12 * np.outer(col, col))


@pytest.mark.parametrize("n_blocks", [1, 5, 12])
def test_stacked_factor_r_all_zero_weights_is_zero_r(n_blocks):
    # a zero A keeps no block; R is still the uncompressed stack's n x n zero
    rng = np.random.default_rng(n_blocks)
    n = 4
    r_g = np.triu(rng.standard_normal((n, n)))
    got = hilbert.stacked_factor_r(r_g, np.zeros(n_blocks),
                                   rng.uniform(0.5, 2.0, (n_blocks, n)))
    assert got.shape == (n, n)
    assert not got.any()


# numpy's OpenBLAS thread limiter around the square-root-factor solvers

needs_openblas = pytest.mark.skipif(
    hilbert._openblas_threads_api() is None,
    reason="numpy is not linked to a bundled OpenBLAS with the thread API")


@pytest.fixture()
def blas_threads():
    """numpy's OpenBLAS thread count getter, with the pool at 2 threads for
    the test and back at its entry count afterwards."""
    get, set_ = hilbert._openblas_threads_api()
    entry = get()
    set_(2)
    yield get
    set_(entry)


def _factor_solvers(basis, region):
    """The two callers of the limiter: (module, call) pairs."""
    kernel = Kernel.default()
    return [
        (control, lambda: control.obs_constant(basis, 40.0, 0.5, region)),
        (specineq, lambda: specineq.mineig_weighted_gramian(basis, 40.0, region,
                                                            kernel)),
    ]


@needs_openblas
def test_factor_solvers_run_stacked_factor_r_at_one_blas_thread(
        monkeypatch, blas_threads, basis60, region_half):
    for module, call in _factor_solvers(basis60, region_half):
        seen = []

        def recording(*args, _real=module.stacked_factor_r):
            seen.append(blas_threads())
            return _real(*args)

        monkeypatch.setattr(module, "stacked_factor_r", recording)
        before = blas_threads()
        call()
        assert seen == [1], module.__name__
        assert blas_threads() == before, module.__name__


@needs_openblas
def test_blas_thread_count_is_restored_when_obs_constant_raises(
        blas_threads, basis60, region_half):
    before = blas_threads()
    with pytest.raises(ObservabilityDefectError):
        control.obs_constant(basis60, 40.0, 0.5, region_half,
                             defect_threshold=1.0)
    assert blas_threads() == before


@needs_openblas
def test_one_blas_thread_nests(blas_threads):
    with hilbert._one_blas_thread():
        with hilbert._one_blas_thread():
            assert blas_threads() == 1
        assert blas_threads() == 1
    assert blas_threads() == 2


def test_factor_solvers_without_the_thread_api(monkeypatch, basis60,
                                               region_half):
    # with the pool already at one thread, the no-op path computes the same
    # bits as the limiter
    api = hilbert._openblas_threads_api()
    entry = api[0]() if api else None
    if api:
        api[1](1)
    try:
        want = [call() for _, call in _factor_solvers(basis60, region_half)]
        monkeypatch.setattr(hilbert, "_openblas_threads_api", lambda: None)
        got = [call() for _, call in _factor_solvers(basis60, region_half)]
    finally:
        if api:
            api[1](entry)
    assert got[0].value == want[0].value
    assert np.array_equal(got[0].direction, want[0].direction)
    assert got[1] == want[1] and got[1].kappa_f == want[1].kappa_f


def _no_library(*args, **kwargs):
    raise OSError("not loaded")


class _NoSymbols:
    def __init__(self, *args, **kwargs):
        pass

    def __getattr__(self, name):
        raise AttributeError(name)


@pytest.mark.parametrize("target, stand_in", [
    ("glob.glob", lambda pattern: []),
    ("ctypes.CDLL", _no_library),
    ("ctypes.CDLL", _NoSymbols),
], ids=["no library file", "library not loaded", "symbols missing"])
def test_thread_api_lookup_reports_a_missing_library_or_symbol(
        monkeypatch, target, stand_in):
    monkeypatch.setattr(target, stand_in)
    assert hilbert._openblas_threads_api.__wrapped__() is None
