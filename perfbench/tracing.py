"""Spans around shadiv's public functions, recorded from outside the package.

`Tracer.install()` wraps each function in `TRACED` and rebinds its name in
every loaded shadiv module that holds it, so calls between modules are
seen as well: cohomology holds its own `kernel_basis`, divisibility its own
`frobenius_traces`, and the package namespace its own copy of each export.
Each span has a name, a start, an end and the span that was open when it
began.  Spans stay in memory; `write()` saves them when the round is over.
"""

import json
import statistics
import sys
import time
from contextlib import nullcontext
from functools import wraps

# module -> functions wrapped; a span is named "<module>.<function>"
TRACED = {
    "gl2": ("ambient", "closure", "embeds_in_s3", "invariant_line", "p_sylow", "normalizer_in"),
    "cohomology": (
        "h1",
        "h1_star",
        "composition_factors",
        "modules_isomorphic",
        "common_irreducible_factor",
        "sylow_hom_bound",
        "groupcrit_side_analytic",
        "groupcrit_side_structural",
        "make_standard_module",
        "make_adjoint_module",
    ),
    "fp_linalg": ("kernel_basis", "det_raw"),
    "elliptic": (
        "count_points",
        "frobenius_traces",
        "quadratic_twist",
        "has_full_rational_2torsion",
        "reduction_type",
    ),
    "galois_image": ("test_cyclotomic_pair",),
    "divisibility": ("verdict_over_Q", "twist_scan", "fundamental_discriminants"),
    "local_cubic": ("has_local_point", "selmer_example_report"),
}

# both module constructors report as one layer metric
SPAN_NAMES = {
    "cohomology.make_standard_module": "cohomology.make_module",
    "cohomology.make_adjoint_module": "cohomology.make_module",
}


class NullTracer:
    """Stands in for a Tracer in untraced rounds: records nothing."""

    def span(self, name):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start_ns, end_ns, parent id or -1)
        self.calls = {}
        self.self_ns = {}
        self.counters = {"elliptic.count_points.ell_sum": 0}
        self._stack = []  # [id, name, start_ns, child_ns, parent]
        self._installed = []  # (module, attribute, original)

    # -- recording

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        sid = len(self.spans) + len(self._stack)
        self._stack.append([sid, name, time.perf_counter_ns(), 0, parent])

    def _exit(self):
        end = time.perf_counter_ns()
        sid, name, start, child, parent = self._stack.pop()
        dur = end - start
        self.spans.append((sid, name, start, end, parent))
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - child
        if self._stack:
            self._stack[-1][3] += dur

    def span(self, name):
        return _Span(self, name)

    def _wrap(self, name, fn):
        tracer = self
        if name == "elliptic.count_points":
            counters = self.counters

            @wraps(fn)
            def traced(e, ell, *args, **kwargs):
                counters["elliptic.count_points.ell_sum"] += ell
                tracer._enter(name)
                try:
                    return fn(e, ell, *args, **kwargs)
                finally:
                    tracer._exit()

            return traced

        @wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        return traced

    # -- installation

    def install(self):
        """Rebind every traced function in all loaded shadiv modules."""
        loaded = [
            mod
            for mname, mod in list(sys.modules.items())
            if mname == "shadiv" or mname.startswith("shadiv.")
        ]
        for modname, functions in TRACED.items():
            home = sys.modules[f"shadiv.{modname}"]
            for fname in functions:
                original = getattr(home, fname)
                key = f"{modname}.{fname}"
                wrapper = self._wrap(SPAN_NAMES.get(key, key), original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._installed.append((mod, attr, original))
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed = []

    # -- results

    def layer_values(self):
        """Every measured quantity, keyed like the benchmark's per-layer metrics."""
        durations = {}
        for _, name, start, end, _ in self.spans:
            durations.setdefault(name, []).append(end - start)
        out = dict(self.counters)
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
            ns = sorted(durations[name])
            out[f"{name}.p50_ms"] = statistics.median(ns) / 1e6
            out[f"{name}.max_ms"] = ns[-1] / 1e6
        return out

    def write(self, path):
        names = sorted(set(n for _, n, _, _, _ in self.spans))
        index = {n: i for i, n in enumerate(names)}
        spans = sorted(self.spans)
        payload = {
            "names": names,
            "columns": ["id", "name", "start_ns", "end_ns", "parent"],
            "id": [s[0] for s in spans],
            "name": [index[s[1]] for s in spans],
            "start_ns": [s[2] for s in spans],
            "end_ns": [s[3] for s in spans],
            "parent": [s[4] for s in spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer._enter(self.name)

    def __exit__(self, *exc):
        self.tracer._exit()
        return False
