"""End-to-end benchmark of the stokesheat command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
``./src`` and nothing is installed.  Each iteration is a fresh child process
that imports ``stokesheat.cli`` and calls ``cli.main`` on the workload's
command sequence, because a user pays every per-process cost (imports, any
memoized rule) on each CLI run.  Iterations run one after another (a closed
loop with one client); BLAS keeps its default thread count and children
inherit the environment unchanged apart from PYTHONPATH.  Workloads whose
iterations are long add import-only children between iterations, so that
``import_s`` is a median over more fresh imports.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (spans recorded by
``tracer.py`` around every public layer function).  A full record (samples,
environment, failures, the first traced iteration's spans) is written under
``.perfbench_out/``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracer import TRACED, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 3
DEADLINE_S = 170.0          # every child is killed before the run passes this

# sha256 of modes.csv from `eigens --lambda-max 3000` at the seed commit;
# the roadmap requires modes.csv to stay byte-identical
MODES_3000_SHA256 = "05a1cfa0b311c72ed73280f522a4c04b7d91002f5a578168572530e7b940541e"
ORACLE_SECTORS = (1, 2, 3)
# sectors 1..3 each have 17 eigenvalues <= 3000; the 18th checks completeness,
# and grid 200 resolves all of them to < 4e-6 relative
ORACLE_COUNT = 18
ORACLE_GRID = 200
ORACLE_RTOL = 1e-5

_T0 = time.monotonic()


class ChildError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(kind, args, cwd):
    """Run child.py in a fresh interpreter; returns (result, wall_s)."""
    fd, path = tempfile.mkstemp(suffix=".json", dir=cwd)
    os.close(fd)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), kind, path, *args]
    timeout = max(5.0, DEADLINE_S - (time.monotonic() - _T0))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=_child_env(), timeout=timeout,
                              stdin=subprocess.DEVNULL, capture_output=True,
                              text=True)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{kind} child exceeded {timeout:.0f} s") from exc
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise ChildError(f"{kind} child exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    with open(path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(path)
    if kind == "iteration" and not result["package"].startswith(SRC + os.sep):
        raise ChildError(f"imported {result['package']}, not the checkout")
    return result, wall


def read_rows(path):
    """Data rows of a CSV output (comment lines and header skipped)."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def expect(failures, cond, message):
    if not cond:
        failures.append(message)


def _stamp(path):
    st = os.stat(path)
    return st.st_ino, st.st_mtime_ns, st.st_size


def cache_builds(work, rep, lams):
    """One set-up: a fresh CLI process writes a basis cache for each cutoff,
    as `stokesheat eigens --cache` does for a user."""
    d = os.path.join(work, f"setup{rep}")
    os.makedirs(d)
    caches = {lam: os.path.join(d, f"basis{lam}.json") for lam in lams}
    argv = [["eigens", "--lambda-max", str(lam), "--cache", caches[lam],
             "--out-dir", d] for lam in lams]
    result, wall = run_child("iteration", ["0", json.dumps(argv)], d)
    if result["rcs"] != [0] * len(lams):
        raise ChildError(f"cache build exited {result['rcs']}")
    return {lam: (path, _stamp(path)) for lam, path in caches.items()}, wall


def expect_warm(failures, caches):
    """A run that missed a warm cache rebuilds and rewrites it."""
    for lam, (path, stamp) in caches.items():
        expect(failures, _stamp(path) == stamp,
               f"the Lambda={lam} cache was rewritten, not read")


class Workload:
    """A CLI command sequence, its set-up and the checks on its outputs."""

    # import-only children after each untraced iteration, so that workloads
    # with few long iterations still take a median over enough imports
    import_probes = 0

    def check_once(self, ctx, it, failures):
        """Checks too costly for every iteration, run on the first one."""


class EigensCold(Workload):
    """eigens at Lambda=3000 on a missing cache: the only workload where the
    basis build and the cache writer dominate."""

    probe_lambda = 3000
    import_probes = 1

    def setup(self, work, rep):
        """Finite-difference reference eigenvalues for the sector check."""
        result, wall = run_child(
            "oracle", ["3000", ",".join(map(str, ORACLE_SECTORS)),
                       str(ORACLE_COUNT), str(ORACLE_GRID)], work)
        return result["sectors"], wall

    def argv(self, ctx, it, seed):
        return [["eigens", "--lambda-max", "3000",
                 "--cache", os.path.join(it, "basis.json"),
                 "--out-dir", os.path.join(it, "out")]]

    def check(self, ctx, it, result, failures):
        out = os.path.join(it, "out")
        expect(failures, result["rcs"] == [0], f"exit codes {result['rcs']}")
        expect(failures, read_json(os.path.join(out, "orthonormality.json"))["pass"],
               "orthonormality.json reports failure")
        digest = sha256_file(os.path.join(out, "modes.csv"))
        expect(failures, digest == MODES_3000_SHA256,
               f"modes.csv digest {digest} differs from the seed commit")

    def check_once(self, ctx, it, failures):
        rows = read_rows(os.path.join(it, "out", "modes.csv"))
        for k in ORACLE_SECTORS:
            got = sorted(float(r[3]) for r in rows
                         if int(r[0]) == k and r[2] == "cosine")
            ref = ctx[str(k)]
            worst = max(abs(g - r) / r for g, r in zip(got, ref))
            expect(failures, worst <= ORACLE_RTOL,
                   f"k={k} eigenvalues off the oracle by {worst:.2e} relative")
            expect(failures, len(got) < len(ref) and ref[len(got)] > 3000,
                   f"k={k}: oracle finds more eigenvalues below the cutoff")

    def selftest(self, layers, it, untraced_digest, failures):
        rows = read_rows(os.path.join(it, "out", "modes.csv"))
        n_sector = sum(1 for r in rows if int(r[0]) >= 1)
        expect(failures, layers["spectral.build_mode"]["calls"] == n_sector,
               "traced build_mode calls differ from modes.csv rows with k>=1")
        expect(failures, 2 * layers["spectral.refine_root"]["calls"] == n_sector,
               "traced refine_root calls differ from half the k>=1 rows")
        expect(failures,
               sha256_file(os.path.join(it, "out", "modes.csv")) == untraced_digest,
               "traced modes.csv differs from the untraced one")


class ControlWarm(Workload):
    """README flagship control run on a warm Lambda=1200 cache: the dyadic
    loop is nearly all the work and the basis is only read."""

    probe_lambda = 1200

    def setup(self, work, rep):
        return cache_builds(work, rep, (1200,))

    def argv(self, ctx, it, seed):
        return [["control", "--lambda-max", "1200", "--lambda-cap", "1024",
                 "--z0-modes", "30", "--seed", str(seed),
                 "--cache", ctx[1200][0], "--out-dir", it]]

    def check(self, ctx, it, result, failures):
        expect(failures, result["rcs"] == [0], f"exit codes {result['rcs']}")
        expect_warm(failures, ctx)
        rows = read_rows(os.path.join(it, "control_stages.csv"))
        expect(failures, len(rows) == 13, f"{len(rows)} stage rows, want 13")
        doc = read_json(os.path.join(it, "control_report.json"))
        expect(failures, doc["final_ratio"] <= 1e-4,
               f"final/initial {doc['final_ratio']:.3e} > 1e-4")
        expect(failures, math.isfinite(doc["telescoping_c1"]),
               "telescoping C1 is not finite")

    def selftest(self, layers, it, untraced_digest, failures):
        rows = read_rows(os.path.join(it, "control_stages.csv"))
        expect(failures, layers["control.stage_control"]["calls"] == len(rows),
               "traced stage_control calls differ from the stage rows")


class Observability(Workload):
    """README specineq (Lambda=400) and observe (Lambda=220) on warm caches,
    then verify: the only user of the square-root-factor QR/SVD, the dense K
    and the oracle."""

    probe_lambda = 400
    import_probes = 1

    def setup(self, work, rep):
        return cache_builds(work, rep, (400, 220))

    def argv(self, ctx, it, seed):
        return [["specineq", "--lambda-max", "400",
                 "--lambda-list", "25,50,100,200,400",
                 "--region", "0,1.5707963267948966,0.4,0.6",
                 "--cache", ctx[400][0], "--out-dir", it],
                ["observe", "--lambda-max", "220", "--lambda-list", "200",
                 "--t-list", "0.1,0.2,0.4,0.8",
                 "--region", "0,0.392699081698724,0.47,0.53",
                 "--cache", ctx[220][0], "--out-dir", it],
                ["verify", "--out-dir", it]]

    def check(self, ctx, it, result, failures):
        expect(failures, result["rcs"] == [0, 0, 0], f"exit codes {result['rcs']}")
        expect_warm(failures, ctx)
        rows = read_rows(os.path.join(it, "specineq.csv"))
        expect(failures, len(rows) == 5 and all(float(r[2]) > 0 for r in rows),
               "a specineq min_eig is not positive")
        r2 = read_json(os.path.join(it, "specineq_fit.json"))["r_squared"]
        expect(failures, r2 >= 0.9, f"specineq fit r^2 {r2:.3f} < 0.9")
        sweeps = read_json(os.path.join(it, "observe_fits.json"))["t_sweeps"]
        expect(failures, sweeps and all(s["monotone_nonincreasing_in_t"]
                                        for s in sweeps),
               "an observability constant is not monotone in T")
        checks = read_json(os.path.join(it, "verify.json"))["checks"]
        expect(failures, len(checks) == 7 and all(c["pass"] for c in checks),
               "verify.json does not pass 7/7 checks")

    def selftest(self, layers, it, untraced_digest, failures):
        n = (len(read_rows(os.path.join(it, "specineq.csv")))
             + len(read_rows(os.path.join(it, "observe.csv"))))
        expect(failures,
               layers["hilbert.sampled_velocity_factor"]["calls"] == n,
               "traced sampled_velocity_factor calls differ from the "
               "specineq + observe rows")


WORKLOADS = {
    "eigens-cold": EigensCold(),
    "control-warm": ControlWarm(),
    "observability": Observability(),
}

# names bound outside their defining module that the tracer must rebind
REBIND_EXPECTED = {
    "quadrature.gauss_legendre": ("spectral", "hilbert", "control", "specineq"),
    "hilbert.obs_gramian": ("control", "specineq"),
    "hilbert.sampled_velocity_factor": ("control", "specineq"),
}


def environment(seed):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        # the ceiling keeps git from reporting an enclosing repository
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
        if git.returncode == 0:
            commit = git.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "stokesheat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            src.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "git_commit": commit, "source_sha256": src.hexdigest(), "seed": seed,
    }


def layer_metrics(summaries, counters):
    """Median over traced iterations of calls / busy_s / self_s per layer."""
    metrics = {}
    for name in TRACED:
        stats = [s[name] for s in summaries]
        for key, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s")):
            metrics[f"{name}.{key}"] = {
                "value": statistics.median(st[key] for st in stats),
                "unit": unit}
    metrics["hilbert.save_basis.bytes"] = {
        "value": statistics.median(c.get("hilbert.save_basis.bytes", 0)
                                   for c in counters),
        "unit": "bytes"}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stokesheat", "cli.py")):
        print(f"no stokesheat sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return _run(args, wl, work)
    except ChildError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, wl, work):
    env = environment(args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))
    setup_s = []
    for rep in range(1 if args.trace else SETUP_REPEATS):
        ctx, wall = wl.setup(work, rep)
        setup_s.append(wall)

    samples, failures, summaries, counters, spans = [], [], [], [], None
    probe_import_s = []
    untraced_digest = None
    t_start = time.monotonic()
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        it = os.path.join(work, f"it{i}")
        os.makedirs(it)
        errs = []
        try:
            result, _ = run_child(
                "iteration", ["1" if traced else "0",
                              json.dumps(wl.argv(ctx, it, args.seed))], it)
        except ChildError as exc:
            result, errs = None, [str(exc)]
        if result is not None:
            try:
                wl.check(ctx, it, result, errs)
                if i == 0:
                    wl.check_once(ctx, it, errs)
                modes = os.path.join(it, "out", "modes.csv")
                if not traced and os.path.exists(modes):
                    untraced_digest = sha256_file(modes)
                if traced:
                    layers = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
                              for name in TRACED}
                    layers.update(summarize(result["spans"]))
                    summaries.append(layers)
                    spans = spans or result["spans"]
                    counters.append(result["counters"])
                    wl.selftest(layers, it, untraced_digest, errs)
                    for name, homes in REBIND_EXPECTED.items():
                        missing = [h for h in homes if f"stokesheat.{h}"
                                   not in result["rebound"][name]]
                        expect(errs, not missing,
                               f"tracer did not rebind {name} in {missing}")
            except (OSError, KeyError, IndexError, ValueError) as exc:
                errs.append(f"output missing or malformed: {exc!r}")
            samples.append({"traced": traced, "import_s": result["import_s"],
                            "solve_s": result["solve_s"],
                            "peak_rss_mb": result["maxrss_kb"] / 1024.0,
                            "ok": not errs})
        failures.extend(f"iteration {i}: {e}" for e in errs)
        shutil.rmtree(it, ignore_errors=True)
        for _ in range(0 if args.trace else wl.import_probes):
            probe, _ = run_child("iteration", ["0", "[]"], work)
            probe_import_s.append(probe["import_s"])
        i += 1
        if (time.monotonic() - t_start >= args.seconds
                and (not args.trace or i >= 2)):
            break

    attempted = i
    failed = attempted - sum(s["ok"] for s in samples)
    if not samples or (args.trace and not summaries):
        raise ChildError("no iteration completed: " + "; ".join(failures))
    plain = [s for s in samples if not s["traced"]] or samples
    record = {"workload": args.workload, "environment": env,
              "setup_s": setup_s, "samples": samples,
              "probe_import_s": probe_import_s, "failures": failures,
              "fail_frac": failed / attempted}

    if args.trace:
        probe, _ = run_child("threads", [str(wl.probe_lambda)], work)
        record["threads_probe"] = probe
        record["spans"] = spans     # (id, parent id, name, start, end)
        expect(failures, probe["threads1_basis_id"] == probe["threads2_basis_id"],
               "basis_id differs between threads=1 and threads=2")
        print(f"assemble_basis({wl.probe_lambda}): threads=1 "
              f"{probe['threads1_s']:.4f} s, threads=2 {probe['threads2_s']:.4f} s, "
              f"basis_id {probe['threads1_basis_id'][:12]} / "
              f"{probe['threads2_basis_id'][:12]}")
        metrics = layer_metrics(summaries, counters) if summaries else {}
        metrics["spectral.assemble_basis.threads2_ratio"] = {
            "value": probe["threads2_s"] / probe["threads1_s"], "unit": "ratio"}
        traced_solve = [s["solve_s"] for s in samples if s["traced"]]
        metrics["trace_overhead_frac"] = {
            "value": (statistics.median(traced_solve)
                      / statistics.median(s["solve_s"] for s in plain) - 1.0),
            "unit": "frac"}
    else:
        def med(key):
            return statistics.median(s[key] for s in plain)
        imports = [s["import_s"] for s in plain] + probe_import_s
        metrics = {
            "solve_s": {"value": med("solve_s"), "unit": "s"},
            "import_s": {"value": statistics.median(imports), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
            "ok_frac": {"value": (attempted - failed) / attempted,
                        "unit": "frac"},
        }
        print(f"{args.workload}: solve_s median {metrics['solve_s']['value']:.4f} "
              f"over n={len(plain)} iterations, import_s median "
              f"{metrics['import_s']['value']:.4f} over n={len(imports)}, "
              f"setup_s median "
              f"{metrics['setup_s']['value']:.4f} over n={len(setup_s)}, "
              f"fail_frac {failed / attempted:.3f} ({failed}/{attempted})")
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    record["metrics"] = metrics
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace"
                                f"{args.trace}-{stamp}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
