"""Command-line orchestration: eigens, specineq, observe, control, verify.

Exit codes: 0 all checks pass, 1 numerical/acceptance failure, 2 usage or
configuration error, an unreadable or unwritable file included.  Outputs are
UTF-8, LF-terminated, '.' decimal, floats with 17 significant digits (null for
a non-finite float in JSON), written atomically; identical configurations
produce byte-identical outputs whatever ``--threads`` is.  The ``specineq``
and ``observe`` outputs also do not depend on the BLAS thread count, since
their factorizations run at one thread; the ``control`` outputs do.
"""

import argparse
import dataclasses
import errno
import json
import math
import os
import sys

import numpy as np

from . import control as ct
from . import hilbert as hb
from . import specineq as si
from . import spectral as sc
from .config import add_flags, flag_overrides, load_config
from .errors import (
    BasisFormatError,
    ConfigError,
    InvalidArgumentError,
    ObservabilityDefectError,
    StokesHeatError,
)


def _fmt(x):
    return format(float(x), ".17g")


def _write_csv(path, header_cols, rows, preamble=()):
    lines = [f"# {line}" for line in preamble]
    lines.append(",".join(header_cols))
    for row in rows:
        lines.append(",".join(str(v) if isinstance(v, (str, int)) else _fmt(v)
                              for v in row))
    hb.atomic_write(path, "\n".join(lines) + "\n")


def _finite_or_null(obj):
    """``obj`` with every non-finite float replaced by None, JSON's null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def _write_json(path, obj):
    hb.atomic_write(path, json.dumps(_finite_or_null(obj), sort_keys=True,
                                     indent=1, allow_nan=False) + "\n")


def _write_table(out, name, cfg, header_cols, rows, preamble=()):
    """Tabular output in the configured encoding: CSV file or a structured
    document with explicit columns."""
    if cfg.io.format == "csv":
        _write_csv(os.path.join(out, f"{name}.csv"), header_cols, rows,
                   preamble=preamble)
    else:
        _write_json(os.path.join(out, f"{name}.json"),
                    {"columns": list(header_cols),
                     "notes": list(preamble),
                     "rows": [[v if isinstance(v, (str, int)) else float(v)
                               for v in row] for row in rows]})


def _stderr(msg):
    print(msg, file=sys.stderr)


def _region(cfg):
    return hb.ObservationRegion(cfg.region.x1, cfg.region.x2)


def _get_basis(cfg):
    """Build the eigenbasis, or reload a cache built with the same settings."""
    cache = cfg.io.cache_path
    want = cfg.basis
    if cache and not os.path.isdir(os.path.dirname(cache) or "."):
        # saving would find this only after the build, under a temporary name
        raise FileNotFoundError(errno.ENOENT, "no directory for the basis cache",
                                cache)
    if cache and os.path.exists(cache):
        try:
            basis = hb.load_basis(cache)
            settings = sc.build_settings(want.lambda_max, want.density,
                                         want.refine_tol)
            stale = [f"{key} {basis.metadata.get(key)!r}, want {value!r}"
                     for key, value in settings.items()
                     if basis.metadata.get(key) != value]
            if not stale:
                _stderr(f"loaded basis from cache {cache}")
                return basis
            _stderr(f"cache {cache} has {'; '.join(stale)}; rebuilding")
        except BasisFormatError as exc:
            _stderr(f"warning: {exc}; rebuilding")
    basis = sc.assemble_basis(want.lambda_max, density=want.density,
                              tol=want.refine_tol, threads=cfg.threads)
    if cache:
        hb.save_basis(basis, cache)
        _stderr(f"saved basis cache to {cache}")
    return basis


def cmd_eigens(cfg, out):
    basis = _get_basis(cfg)
    rows = [(m.k, m.n, m.phase if m.phase else "-", m.lam) for m in basis.modes]
    _write_table(out, "modes", cfg, ("k", "n", "phase", "lambda"), rows,
                 preamble=("stokesheat modes schema=1",))
    gram_full = hb.obs_gramian(basis, hb.FULL_REGION).matrix + hb.trace_gramian(basis)
    dev = float(np.abs(gram_full - np.eye(len(basis))).max(initial=0.0))
    lams = basis.lambdas
    report = {
        "modes": len(basis),
        "max_gram_deviation": dev,
        "within_cutoff": bool(np.all(lams <= basis.cutoff)),
        "ordered": bool(np.all(np.diff(lams) >= 0)),
        "pass": bool(dev <= 1e-8 and np.all(lams <= basis.cutoff)
                     and np.all(np.diff(lams) >= 0)),
    }
    _write_json(os.path.join(out, "orthonormality.json"), report)
    print(f"modes={report['modes']} max|Gram-I|={dev:.3e} pass={report['pass']}")
    return 0 if report["pass"] else 1


def cmd_specineq(cfg, out):
    if not cfg.sweeps.lambda_list:
        raise ConfigError("sweeps.lambda_list must not be empty")
    if max(cfg.sweeps.lambda_list) > cfg.basis.lambda_max:
        raise ConfigError("sweeps.lambda_list exceeds basis.lambda_max")
    basis = _get_basis(cfg)
    report = si.spec_ineq_report(basis, cfg.sweeps.lambda_list, _region(cfg),
                                 si.Kernel(cfg.kernel.s0, cfg.kernel.support))
    rows = [(r.lam_cutoff, r.dim, r.min_eig,
             (np.log(r.min_eig) if r.min_eig > 0 else float("nan")),
             np.sqrt(r.lam_cutoff), r.kappa_f)
            for r in report.records]
    fit_note = (f"fit: slope={_fmt(report.slope)} "
                f"intercept={_fmt(report.intercept)} "
                f"r_squared={_fmt(report.r_squared)}")
    _write_table(out, "specineq", cfg,
                 ("Lambda", "dim", "min_eig", "log_min_eig", "sqrt_Lambda",
                  "kappa_f"),
                 rows, preamble=("stokesheat specineq schema=1", fit_note))
    _write_json(os.path.join(out, "specineq_fit.json"),
                {"slope": report.slope, "intercept": report.intercept,
                 "r_squared": report.r_squared,
                 "kernel": dataclasses.asdict(report.kernel),
                 "violations": [r.lam_cutoff for r in report.violations]})
    print(fit_note)
    for r in report.records:
        print(f"Lambda={r.lam_cutoff:g} dim={r.dim} min_eig={r.min_eig:.6e}")
    return 1 if report.violations else 0


def cmd_observe(cfg, out):
    if not cfg.sweeps.lambda_list or not cfg.sweeps.t_list:
        raise ConfigError("sweeps.lambda_list and sweeps.t_list must not be empty")
    if max(cfg.sweeps.lambda_list) > cfg.basis.lambda_max:
        raise ConfigError("sweeps.lambda_list exceeds basis.lambda_max")
    basis = _get_basis(cfg)
    region = _region(cfg)
    gamma = cfg.schedule.gamma
    rows = []
    try:
        for lam in cfg.sweeps.lambda_list:
            for t in cfg.sweeps.t_list:
                c = ct.obs_constant(basis, lam, t, region)
                rows.append((lam, t, c.value))
    except ObservabilityDefectError as exc:
        _write_json(os.path.join(out, "observability_defect.json"),
                    {"message": str(exc),
                     "direction": [float(v) for v in exc.direction]})
        print(f"observability defect: {exc}", file=sys.stderr)
        return 1
    _write_table(out, "observe", cfg, ("Lambda", "T", "c_obs"), rows,
                 preamble=("stokesheat observe schema=1",))
    fits = {"t_sweeps": [], "lambda_sweeps": []}
    for lam in cfg.sweeps.lambda_list:
        pts = sorted((t, v) for (l, t, v) in rows if l == lam)
        entry = {"lambda": lam,
                 "monotone_nonincreasing_in_t":
                     all(pts[i][1] >= pts[i + 1][1] for i in range(len(pts) - 1))}
        if len(pts) >= 4:
            fit = ct.cost_and_constant_fit(pts, sweep="T", gamma=gamma)
            entry.update(slope=fit.slope, intercept=fit.intercept,
                         r_squared=fit.r_squared)
        fits["t_sweeps"].append(entry)
    for t in cfg.sweeps.t_list:
        pts = [(l, v) for (l, tt, v) in rows if tt == t]
        entry = {"t": t}
        if len(pts) >= 4:
            fit = ct.cost_and_constant_fit(pts, sweep="Lambda")
            entry.update(slope=fit.slope, intercept=fit.intercept,
                         r_squared=fit.r_squared)
        fits["lambda_sweeps"].append(entry)
    _write_json(os.path.join(out, "observe_fits.json"), fits)
    for lam, t, v in rows:
        print(f"Lambda={lam:g} T={t:g} C_obs={v:.6e}")
    return 0


def cmd_control(cfg, out):
    basis = _get_basis(cfg)
    sched = ct.make_schedule(cfg.schedule.t_horizon, cfg.schedule.gamma,
                             cfg.schedule.epsilon, cfg.schedule.lambda_cap)
    n_low = min(cfg.schedule.z0_modes, len(basis))
    rng = np.random.default_rng(cfg.schedule.seed)
    a = np.zeros(len(basis))
    if n_low:
        a[:n_low] = rng.standard_normal(n_low)
        a /= np.linalg.norm(a)
    z0 = hb.StateVector(basis, a)
    report, _ = ct.run_lr(z0, sched, _region(cfg), cfg.schedule.reg_threshold)
    rows = [(r.index, r.tau, r.lam_cap, r.pre_norm, r.post_norm,
             r.low_residual, r.cost, r.cond_estimate) for r in report.stages]
    _write_table(out, "control_stages", cfg,
                 ("stage", "tau", "Lambda", "pre_norm", "post_norm",
                  "low_residual", "cost", "cond_estimate"),
                 rows, preamble=("stokesheat control schema=1",))
    ratio = (report.final_norm / report.initial_norm
             if report.initial_norm > 0 else 0.0)
    doc = {
        "t_horizon": sched.t_horizon, "gamma": sched.gamma,
        "epsilon": sched.epsilon, "lambda_cap": sched.lambda_cap,
        "reg_threshold": report.reg_threshold,
        "initial_norm": report.initial_norm, "final_norm": report.final_norm,
        "final_ratio": ratio, "total_cost": report.total_cost,
        "telescoping_c1": report.c1,
        "stages": [{("lambda" if key == "lam_cap" else key): value
                    for key, value in dataclasses.asdict(r).items()}
                   for r in report.stages],
    }
    _write_json(os.path.join(out, "control_report.json"), doc)
    print(f"final/initial={ratio:.6e} total_cost={report.total_cost:.6e} "
          f"C1={report.c1:.6e}")
    return 0 if ratio <= cfg.schedule.final_tol else 1


def cmd_verify(cfg, out):
    """Run the cross-module invariant suite on a reduced problem size."""
    checks = []

    def check(name, fn):
        try:
            detail = fn()
            checks.append((name, True, detail))
            print(f"PASS {name} ({detail})")
        except AssertionError as exc:
            checks.append((name, False, str(exc)))
            print(f"FAIL {name}: {exc}")

    basis = sc.assemble_basis(120.0, threads=cfg.threads)
    region = _region(cfg)
    gram = hb.obs_gramian(basis, region)
    rng = np.random.default_rng(7)

    def c_k0():
        for n in range(1, 11):
            err = abs(sc.zero_mode(n).lam - (n * np.pi) ** 2)
            assert err <= 1e-10, f"n={n} err={err:.2e}"
        return "n<=10 exact"

    def c_gram():
        dev = np.abs(hb.obs_gramian(basis, hb.FULL_REGION).matrix
                     + hb.trace_gramian(basis) - np.eye(len(basis))).max()
        assert dev <= 1e-8, f"deviation {dev:.2e}"
        return f"max|M+N-I|={dev:.2e}"

    def c_semigroup():
        for _ in range(20):
            a = rng.standard_normal(len(basis))
            x = hb.StateVector(basis, a)
            s, t = rng.uniform(0, 1, 2)
            lhs = hb.semigroup(hb.semigroup(x, s), t).coeffs
            rhs = hb.semigroup(x, s + t).coeffs
            assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max() + 1e-300
            assert hb.norm(hb.semigroup(x, t)) <= np.exp(-basis.lambdas[0] * t) * hb.norm(x) * (1 + 1e-12)
        return "additivity and contraction on 20 random states"

    def c_oracle():
        from .oracle import oracle_eigs
        got = np.array(sc.sector_eigenvalues(1, 90.0))
        ref = oracle_eigs(1, 100, len(got)).values
        rel = np.abs(got - ref) / ref
        assert rel.max() <= 1e-5, f"max rel {rel.max():.2e}"
        return f"k=1 roots vs oracle, max rel err {rel.max():.2e}"

    def c_stage_gramian():
        idx = basis.low_indices(40.0)
        lams = basis.lambdas[idx]
        w = 0.2
        g = ct.stage_gramian(basis, 40.0, gram, w)
        ts = np.linspace(0, w, 4001)
        dec = np.exp(-np.outer(lams, ts))
        e_ref = np.einsum("it,jt->ij", dec, dec) * (ts[1] - ts[0])
        e_ref -= 0.5 * (ts[1] - ts[0]) * (np.outer(dec[:, 0], dec[:, 0])
                                          + np.outer(dec[:, -1], dec[:, -1]))
        dev = np.abs(g - gram.matrix[np.ix_(idx, idx)] * e_ref).max()
        assert dev <= 1e-8, f"dev {dev:.2e}"
        return f"closed form vs quadrature, dev {dev:.2e}"

    def c_roundtrip():
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            p1 = os.path.join(tmp, "a.json")
            p2 = os.path.join(tmp, "b.json")
            hb.save_basis(basis, p1)
            hb.save_basis(hb.load_basis(p1), p2)
            b1 = open(p1, "rb").read()
            b2 = open(p2, "rb").read()
            assert b1 == b2, "round trip not byte-identical"
        return "save-load-save byte-identical"

    def c_augmented():
        n_low = min(30, len(basis))
        lam_cap = basis.lambdas[n_low - 1] + 1e-9
        a = np.zeros(len(basis))
        a[:n_low] = rng.standard_normal(n_low)
        fld = si.augmented_field(basis, a, lam_cap, region=region)
        res = si.residual_augmented(fld, (np.linspace(0.05, 0.95, 8),
                                          np.linspace(0, 5.9, 8),
                                          np.linspace(0, 1, 8)))
        worst = max(res.values())
        assert worst <= 1e-7, f"worst residual {worst:.2e}"
        return f"worst residual {worst:.2e}"

    check("k0_spectrum_exact", c_k0)
    check("orthonormality_parseval", c_gram)
    check("semigroup_properties", c_semigroup)
    check("dispersion_vs_oracle", c_oracle)
    check("stage_gramian_closed_form", c_stage_gramian)
    check("basis_roundtrip", c_roundtrip)
    check("augmented_residuals", c_augmented)
    ok = all(passed for _, passed, _ in checks)
    _write_json(os.path.join(out, "verify.json"),
                {"checks": [{"name": n, "pass": p, "detail": d}
                            for n, p, d in checks], "pass": ok})
    return 0 if ok else 1


_COMMANDS = {
    "eigens": cmd_eigens,
    "specineq": cmd_specineq,
    "observe": cmd_observe,
    "control": cmd_control,
    "verify": cmd_verify,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stokesheat",
        description="Spectrum, observability and null control of the coupled "
                    "Stokes-heat system on the periodic strip.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("eigens", "build/load the eigenbasis and report orthonormality"),
            ("specineq", "verify the spectral inequality over a cutoff sweep"),
            ("observe", "observability constants over cutoff/horizon sweeps"),
            ("control", "run the dyadic null-control loop"),
            ("verify", "run the cross-module invariant suite")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON configuration file")
        add_flags(p)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, flag_overrides(args))
        out = cfg.io.out_dir
        os.makedirs(out, exist_ok=True)
        print("config: " + json.dumps(dataclasses.asdict(cfg), sort_keys=True))
        return _COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InvalidArgumentError as exc:
        print(f"invalid argument: {exc}", file=sys.stderr)
        return 2
    except StokesHeatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
