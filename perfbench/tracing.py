"""Spans around permchain's public functions, recorded from outside it.

`Tracer.install` wraps each function below in the module that defines it
and in every permchain module that imported it by name, and wraps the
methods on their classes.  A span is [name, start, end, parent, meta];
spans stay in a list until the run ends.  A span's self time is its
duration minus the durations of its direct children (one thread, so
children nest inside their parent and never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from time import perf_counter

from permchain import burnside, complexes, constructions, groups, invariants, linalg, literals, modules

FIELD_QS = (2, 3, 4, 8, 9)
CLI_SPANS = ("group-info", "burnside", "catalog-verify", "catalog-build")


def _rref_meta(M):
    return M.field.q, M.rows * M.cols


def _matmul_meta(A, B):
    return A.field.q, A.rows * A.cols * B.cols


# (owner, attribute, span name, meta); an owner that is a class gets its
# method wrapped, a module gets its function wrapped everywhere it is bound.
TARGETS = [
    (linalg, "rref", "linalg.rref", _rref_meta),
    (linalg.FqMatrix, "__matmul__", "linalg.matmul", _matmul_meta),
    (linalg, "solve_matrix", "linalg.solve_matrix", None),
    (modules, "brauer_quotient", "modules.brauer_quotient", None),
    (modules, "trace_map", "modules.trace_map", None),
    (modules.KgModule, "fixed_points", "modules.fixed_points", None),
    (modules, "tensor", "modules.tensor", None),
    (modules.ModuleMap, "__init__", "modules.module_map", None),
    (complexes.BrauerComplex, "__init__", "complexes.brauer_complex", None),
    (complexes, "homology_at", "complexes.homology_at", None),
    (complexes.BoundedComplex, "__init__", "complexes.bounded_complex", None),
    (complexes, "endotrivial_report", "complexes.endotrivial_report", "examined"),
    (complexes, "xi", "complexes.xi", "examined"),
    (constructions, "build_entries", "constructions.build", None),
    (constructions, "truncated_periodic_resolution", "constructions.build", None),
    (constructions, "gamma_dihedral", "constructions.build", None),
    (constructions, "gamma_semidihedral", "constructions.build", None),
    (constructions, "abelian_generators", "constructions.build", None),
    (invariants, "lefschetz", "invariants.lefschetz", None),
    (invariants, "beta_from_xi", "invariants.beta", None),
    (invariants, "beta_direct", "invariants.beta", None),
    (literals, "complex_to_obj", "literals.to_obj", None),
    (literals, "complex_from_obj", "literals.from_obj", None),
    (groups.SubgroupLattice, "__init__", "groups.lattice", None),
    (groups, "mobius_of_poset", "groups.mobius", None),
    (groups, "class_name", "groups.class_name", None),
    (burnside, "mark_table", "burnside.mark_table", None),
    (burnside, "idempotent", "burnside.idempotent", None),
    (burnside, "burnside_units", "burnside.units", None),
]

# Per-layer metrics: (name, unit, kind, span), where kind says how the value
# comes from the spans of that name.
METRICS = [
    ("linalg.rref.calls", "count", "calls", "linalg.rref"),
    ("linalg.rref.self_s", "s", "self", "linalg.rref"),
    ("linalg.rref.cells", "cells", "meta", "linalg.rref"),
    ("linalg.matmul.calls", "count", "calls", "linalg.matmul"),
    ("linalg.matmul.self_s", "s", "self", "linalg.matmul"),
    ("linalg.matmul.madds", "madds", "meta", "linalg.matmul"),
]
METRICS += [(f"linalg.rref.F{q}.self_s", "s", f"self@{q}", "linalg.rref") for q in FIELD_QS]
METRICS += [(f"linalg.matmul.F{q}.self_s", "s", f"self@{q}", "linalg.matmul") for q in FIELD_QS]
METRICS += [
    ("linalg.solve_matrix.calls", "count", "calls", "linalg.solve_matrix"),
    ("linalg.solve_matrix.self_s", "s", "self", "linalg.solve_matrix"),
    ("modules.brauer_quotient.calls", "count", "calls", "modules.brauer_quotient"),
    ("modules.brauer_quotient.self_s", "s", "self", "modules.brauer_quotient"),
    ("modules.trace_map.self_s", "s", "self", "modules.trace_map"),
    ("modules.fixed_points.self_s", "s", "self", "modules.fixed_points"),
    ("modules.tensor.self_s", "s", "self", "modules.tensor"),
    ("modules.module_map.calls", "count", "calls", "modules.module_map"),
    ("modules.module_map.self_s", "s", "self", "modules.module_map"),
    ("complexes.brauer_complex.builds", "count", "calls", "complexes.brauer_complex"),
    ("complexes.brauer_builds_per_class", "builds/class", "per_class", "complexes.brauer_complex"),
    ("complexes.homology_at.calls", "count", "calls", "complexes.homology_at"),
    ("complexes.homology_at.self_s", "s", "self", "complexes.homology_at"),
    ("complexes.bounded_complex.self_s", "s", "self", "complexes.bounded_complex"),
    ("complexes.endotrivial_report.s", "s", "total", "complexes.endotrivial_report"),
    ("complexes.xi.s", "s", "total", "complexes.xi"),
    ("constructions.build.s", "s", "total", "constructions.build"),
    ("invariants.lefschetz.s", "s", "total", "invariants.lefschetz"),
    ("invariants.beta.s", "s", "total", "invariants.beta"),
    ("literals.to_obj.s", "s", "total", "literals.to_obj"),
    ("literals.from_obj.s", "s", "total", "literals.from_obj"),
    ("groups.lattice.calls", "count", "calls", "groups.lattice"),
    ("groups.lattice.self_s", "s", "self", "groups.lattice"),
    ("groups.mobius.calls", "count", "calls", "groups.mobius"),
    ("groups.mobius.self_s", "s", "self", "groups.mobius"),
    ("groups.class_name.calls", "count", "calls", "groups.class_name"),
    ("groups.class_name.self_s", "s", "self", "groups.class_name"),
    ("burnside.mark_table.self_s", "s", "self", "burnside.mark_table"),
    ("burnside.idempotent.self_s", "s", "self", "burnside.idempotent"),
    ("burnside.units.self_s", "s", "self", "burnside.units"),
    ("burnside.rejected_s", "s", "total", "burnside.rejected"),
]
METRICS += [(f"cli.{c}.s", "s", "total", f"cli.{c}") for c in CLI_SPANS]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = False
        self.examined = {}  # id -> complex passed to endotrivial_report or xi

    @contextmanager
    def span(self, name):
        rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self.stack.pop()

    def _wrap(self, fn, name, meta):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if meta == "examined":
                tracer.examined[id(args[0])] = args[0]
                info = None
            else:
                info = meta(*args, **kwargs) if meta else None
            stack = tracer.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, info]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    def install(self):
        loaded = [m for n, m in sys.modules.items() if n == "permchain" or n.startswith("permchain.")]
        for owner, attr, name, meta in TARGETS:
            orig = owner.__dict__[attr]
            wrapper = self._wrap(orig, name, meta)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for mod in loaded:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
        self.active = True

    def span_cost(self, calls=20000, repeats=5) -> float:
        """Seconds one span adds to a call: a wrapped no-op against the bare
        no-op, each the fastest of `repeats` timings of `calls` calls."""

        def noop():
            return None

        wrapped = self._wrap(noop, "calibrate", None)
        keep = len(self.spans)
        best = {}
        self.active = True
        for fn in (noop, wrapped) * repeats:
            start = perf_counter()
            for _ in range(calls):
                fn()
            best[fn] = min(best.get(fn, float("inf")), perf_counter() - start)
        self.active = False
        del self.spans[keep:]
        return max(0.0, (best[wrapped] - best[noop]) / calls)

    def metrics(self, extra_spans=()):
        """Per-layer metrics from the recorded spans (plus spans made by the
        caller, such as burnside.rejected)."""
        spans = self.spans + list(extra_spans)
        n = len(self.spans)
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i in range(n):
            par = spans[i][3]
            if par >= 0:
                child[par] += dur[i]
        by_name = {}
        for i, s in enumerate(spans):
            by_name.setdefault(s[0], []).append(i)
        classes = sum(
            len(C.group.lattice().p_class_reps(C.field.p)) for C in self.examined.values()
        )
        out = {}
        for metric, unit, kind, name in METRICS:
            idx = by_name.get(name, [])
            if kind == "calls":
                v = len(idx)
            elif kind == "self":
                v = sum(dur[i] - child[i] for i in idx)
            elif kind.startswith("self@"):
                q = int(kind[5:])
                v = sum(dur[i] - child[i] for i in idx if spans[i][4][0] == q)
            elif kind == "meta":
                v = sum(spans[i][4][1] for i in idx)
            elif kind == "per_class":
                v = len(idx) / classes if classes else 0.0
            else:  # total: the union of the spans' intervals
                v, end = 0.0, float("-inf")
                for i in sorted(idx, key=lambda i: spans[i][1]):
                    if spans[i][1] >= end:
                        v += dur[i]
                        end = spans[i][2]
            out[metric] = {"value": v, "unit": unit}
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:4]) + "\n")
