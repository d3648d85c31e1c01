"""In-memory span tracer for the stokesheat layers.

Each traced function is rebound in every ``stokesheat`` module namespace that
holds the same object.  Several names are imported directly into other
modules (``gauss_legendre`` into spectral, hilbert, control and specineq;
``obs_gramian`` and ``sampled_velocity_factor`` into control and specineq),
so patching only the defining module would silently miss most calls.

A span is ``(id, parent_id, name, start, end)``; spans stay in memory and are
handed back by ``Tracer.spans`` once the traced work has finished.
"""

import functools
import itertools
import os
import sys
import threading
from time import perf_counter

# layer module -> public functions wrapped in the traced run
LAYERS = {
    "spectral": ("assemble_basis", "bracket_roots", "refine_root",
                 "dispersion", "build_mode"),
    "quadrature": ("gauss_legendre", "trig_pair_integral"),
    "hilbert": ("obs_gramian", "trace_gramian", "sampled_velocity_factor",
                "save_basis", "load_basis"),
    "specineq": ("spec_ineq_report", "weighted_gramian",
                 "mineig_weighted_gramian", "residual_augmented"),
    "control": ("run_lr", "stage_gramian", "stage_control",
                "window_observation", "advance_window",
                "fit_telescoping_constant", "obs_constant"),
    "oracle": ("oracle_eigs",),
    "cli": ("main",),
}

TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def _saved_bytes(args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


# counters recorded at a span's boundary: name -> (counter, fn(args, kwargs))
COUNTERS = {"hilbert.save_basis": ("bytes", _saved_bytes)}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self.rebound = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end))
            if counter is not None:
                key = f"{name}.{counter[0]}"
                self.counters[key] = (self.counters.get(key, 0)
                                      + counter[1](args, kwargs))
            return result

        return traced

    def install(self):
        """Wrap every function in LAYERS wherever stokesheat binds it."""
        namespaces = {name: mod for name, mod in sys.modules.items()
                      if name == "stokesheat" or name.startswith("stokesheat.")}
        for mod_name, fns in LAYERS.items():
            home = namespaces[f"stokesheat.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapped = self._wrap(f"{mod_name}.{fn_name}", original)
                sites = []
                for ns_name, ns in sorted(namespaces.items()):
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapped)
                            sites.append(ns_name)
                self.rebound[f"{mod_name}.{fn_name}"] = sites


def summarize(spans):
    """Per-name calls, busy seconds and self seconds from a span list.

    Busy time sums the outermost spans of a name (a call nested inside a
    call of the same name is already covered).  Self time is busy time minus
    the part of each span's interval that its child spans cover.
    """
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append((s[3], s[4]))
    out = {}
    for sid, parent, name, start, end in spans:
        stats = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        stats["calls"] += 1
        outermost = True
        while parent is not None:
            if by_id[parent][2] == name:
                outermost = False
                break
            parent = by_id[parent][1]
        if outermost:
            stats["busy_s"] += end - start
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        stats["self_s"] += (end - start) - covered
    return out
