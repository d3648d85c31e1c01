"""One fresh process of the benchmark; writes its measurements as JSON.

    python3 child.py iteration OUT.json TRACE ARGV_LISTS_JSON
        import stokesheat.cli, then call cli.main on each argv in turn
        (traced when TRACE is 1)
    python3 child.py oracle OUT.json LAM_MAX SECTORS COUNT N_GRID
        finite-difference reference eigenvalues of the given sectors
    python3 child.py threads OUT.json LAM_MAX
        mean time of assemble_basis(LAM_MAX) at threads=1 and at threads=2
"""

import json
import resource
import sys
import time


def iteration(trace, argv_lists):
    t0 = time.perf_counter()
    import stokesheat.cli as cli
    import_s = time.perf_counter() - t0
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    rcs = []
    t0 = time.perf_counter()
    for argv in argv_lists:
        rcs.append(cli.main(argv))
    solve_s = time.perf_counter() - t0
    out = {"import_s": import_s, "solve_s": solve_s, "rcs": rcs,
           "package": cli.__file__}
    if tracer is not None:
        out.update(spans=tracer.spans, counters=tracer.counters,
                   rebound=tracer.rebound)
    return out


def oracle(lam_max, sectors, count, n_grid):
    from stokesheat.oracle import oracle_eigs
    return {"lam_max": lam_max,
            "sectors": {str(k): [float(v) for v in
                                 oracle_eigs(k, n_grid, count).values]
                        for k in sectors}}


def threads(lam_max):
    """Build order 1, 2, 2, 1 so a linear drift in machine speed cancels."""
    from stokesheat.spectral import assemble_basis
    out = {"threads1_s": 0.0, "threads2_s": 0.0}
    for n in (1, 2, 2, 1):
        t0 = time.perf_counter()
        basis = assemble_basis(lam_max, threads=n)
        out[f"threads{n}_s"] += (time.perf_counter() - t0) / 2
        out[f"threads{n}_basis_id"] = basis.basis_id
    return out


def main(argv):
    kind, path, rest = argv[0], argv[1], argv[2:]
    if kind == "iteration":
        result = iteration(rest[0] == "1", json.loads(rest[1]))
    elif kind == "oracle":
        result = oracle(float(rest[0]), [int(k) for k in rest[1].split(",")],
                        int(rest[2]), int(rest[3]))
    elif kind == "threads":
        result = threads(float(rest[0]))
    else:
        raise SystemExit(f"unknown child task {kind!r}")
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
