"""Span tracer for the benchmark's traced runs.

`Tracer.install` wraps the public entry points of each groupoidal module
at every name the program calls them through (a function imported into
another module is replaced there too, methods on their class).  Each call
records a span [name, start, end, parent, job, tracer_s] in memory, where
tracer_s is the tracer's own time around the call, which the parent's
self time excludes.  Counts that explain the times (matrix cells and
nonzeros, ranks, multiply-adds, nerve sizes, entry bit lengths) are
taken at the same boundaries.  `layer_metrics` reduces the spans to
per-layer self times and counts; `write_spans` writes them out.

Nothing here changes what a wrapped call computes or prints.
"""

import functools
import json
import sys
from time import perf_counter

# span name -> layer metric its self time adds to (None: traced, not reported)
_LAYER_OF = {}
# (module, attribute path, span name, counter)
_TARGETS = []


def _target(module, attrs, span, layer, counter=None):
    for attr in attrs.split():
        _TARGETS.append((module, attr, span, counter))
    _LAYER_OF[span] = layer


# -- matrix statistics; tolerant of matrix types without dense rows ----------


def _cells(m):
    return getattr(m, "rows", 0) * getattr(m, "cols", 0)


def _rows(m):
    data = getattr(m, "data", None)
    return data if isinstance(data, list) else []


def _nnz(m):
    return sum(len(row) - row.count(0) for row in _rows(m))


def _bits(m):
    return max((max(max(r), -min(r)) for r in _rows(m) if r), default=0).bit_length()


def _key(m):
    return (getattr(m, "rows", 0), getattr(m, "cols", 0),
            hash(tuple(map(tuple, _rows(m)))))


# -- counters run after a successful call: (tracer, args, result) ------------


def _factor(t, m):
    t.add("zlinalg.factorizations", 1)
    t.add("zlinalg.factor_cells", _cells(m))
    t.add("zlinalg.factor_nnz", _nnz(m))
    t.distinct.add(_key(m))


def _rank_only(t, args, result):
    _factor(t, args[0])
    t.add("zlinalg.pivots", result if isinstance(result, int) else len(result))


def _readout(t, *mats):
    for m in mats:
        t.add("zlinalg.readout_cells", _cells(m))
        t.peak("zlinalg.max_entry_bits", _bits(m))


def _snf(t, args, dec):
    _factor(t, args[0])
    _readout(t, dec.U, dec.S, dec.V, dec.U_inv, dec.V_inv)


def _kernel_basis(t, args, basis):
    _factor(t, args[0])
    _readout(t, basis)


def _linear_system(t, args, _):
    _factor(t, args[1])


def _presentation(t, args, _):
    pres, d_out, d_in = args[:3]
    # two factorizations: d_out, and the boundary coordinates in the
    # cycle basis, which is fixed by the pair
    _factor(t, d_out)
    t.add("zlinalg.factorizations", 1)
    t.add("zlinalg.factor_cells", pres.cycle_basis.cols * getattr(d_in, "cols", 0))
    t.add("zlinalg.factor_nnz", _nnz(d_in))
    t.distinct.add(("relations", _key(d_out), _key(d_in)))
    bits = max((abs(v) for g in pres.generators for v in g), default=0).bit_length()
    _readout(t, pres.cycle_basis)
    t.peak("zlinalg.max_entry_bits", bits)


def _mul(t, args, _):
    a, b = args[:2]
    col_nnz = [len(c) - c.count(0) for c in zip(*_rows(a))]
    row_nnz = [len(r) - r.count(0) for r in _rows(b)]
    t.add("zlinalg.mul_ops", sum(x * y for x, y in zip(col_nnz, row_nnz)))


def _nerve(t, _, nerve):
    if id(nerve) not in t.nerves:
        t.nerves[id(nerve)] = nerve  # keep alive so the id stays unique
        t.add("groupoids.nerve_strings", len(nerve))
    t.peak("groupoids.top_strings", len(nerve))


def _boundary(t, _, m):
    t.add("groupoids.boundary_cells", _cells(m))
    t.add("groupoids.boundary_nnz", _nnz(m))


def _cochain_build(t, _, result):
    t.add("cohomology.build_cells", _cells(result))


_Z, _G, _C = "groupoidal.zlinalg", "groupoidal.groupoids", "groupoidal.cohomology"
_target(_Z, "rank invariant_factors", "zlinalg.rank_only", "zlinalg.rank_only", _rank_only)
_target(_Z, "snf", "zlinalg.snf", "zlinalg.transform", _snf)
_target(_Z, "kernel_basis", "zlinalg.kernel_basis", "zlinalg.transform", _kernel_basis)
_target(_Z, "LinearSystem.__init__", "zlinalg.LinearSystem", "zlinalg.transform",
        _linear_system)
_target(_Z, "ChainHomologyPresentation.__init__", "zlinalg.ChainHomologyPresentation",
        "zlinalg.transform", _presentation)
_target(_Z, "LinearSystem.solve", "zlinalg.solve", "zlinalg.solve")
_target(_Z, "ChainHomologyPresentation.coords induced_on_homology quotient_group "
            "kernel_group", "zlinalg.present", "zlinalg.present")
_target(_Z, "IntMatrix.__mul__", "zlinalg.mul", "zlinalg.mul", _mul)
_target(_Z, "homology_at", "zlinalg.homology_at", None)
_target(_G, "nerve", "groupoids.nerve", "groupoids.nerve", _nerve)
_target(_G, "boundary_matrix_d bar_boundary_matrix_b coinvariants_collapse",
        "groupoids.boundary", "groupoids.boundary", _boundary)
_target(_G, "validate_groupoid validate_module validate_functor",
        "groupoids.validate", "groupoids.validate")
_target(_C, "cocycle_coboundary_matrix hom_coboundary_matrix theta_matrix rho_matrix "
            "cochain_pullback_matrix", "cohomology.build", "cohomology.build",
        _cochain_build)
_target(_C, "cochain_space hom_space pullback_module", "cohomology.spaces",
        "cohomology.build")
_target(_C, "theta_rho_check", "cohomology.verify", "cohomology.verify_self")
_target(_C, "cocycle_cohomology hom_side_cohomology", "cohomology.groups", None)
_target("groupoidal.homology", "homology_groups homology_presentation_of "
        "induced_homology_map permutation_pushforward z_action_homology "
        "odometer_homology", "homology.self", "homology.self")
_target("groupoidal.homology", "chain_pushforward", "homology.pushforward",
        "homology.pushforward")
_target("groupoidal.skew", "les_verify", "skew.les_verify", "skew.self")
_target("groupoidal.limits", "dimension_group colimit_divisible colimit_equal "
        "af_cohomology_tower limit_and_lim1", "limits.self", "limits.self")
_target("groupoidal.models", "group_groupoid pair_groupoid_from_map action_groupoid "
        "bratteli_stationary constant_module odometer_system disjoint_union "
        "random_groupoid random_module", "models.build", "models.build")
_target("groupoidal.cli", "main", "cli.main", None)
_target("groupoidal.cli", "build_parser parse_input parse_module parse_cocycle",
        "cli.parse", "cli.parse")
_target("argparse", "ArgumentParser.parse_args", "cli.parse", "cli.parse")
_target("groupoidal.cli", "emit", "cli.emit", "cli.emit")

# reported per-layer metrics: name -> unit; self times end in _s
METRICS = {
    "zlinalg.rank_only_s": "s", "zlinalg.rank_only_calls": "count",
    "zlinalg.pivots": "count",
    "zlinalg.transform_s": "s", "zlinalg.transform_calls": "count",
    "zlinalg.readout_cells": "cells", "zlinalg.max_entry_bits": "bits",
    "zlinalg.factor_cells": "cells", "zlinalg.factor_nnz": "count",
    "zlinalg.distinct_factor_ratio": "ratio",
    "zlinalg.solve_s": "s", "zlinalg.solve_calls": "count",
    "zlinalg.present_s": "s", "zlinalg.present_calls": "count",
    "zlinalg.mul_s": "s", "zlinalg.mul_calls": "count", "zlinalg.mul_ops": "count",
    "zlinalg.dense_cells": "cells",
    "groupoids.nerve_s": "s", "groupoids.nerve_strings": "count",
    "groupoids.top_strings": "count", "groupoids.boundary_s": "s",
    "groupoids.boundary_cells": "cells", "groupoids.boundary_nnz": "count",
    "groupoids.validate_s": "s",
    "cohomology.build_s": "s", "cohomology.build_cells": "cells",
    "cohomology.verify_self_s": "s",
    "homology.self_s": "s", "homology.pushforward_s": "s",
    "skew.self_s": "s", "limits.self_s": "s", "models.build_s": "s",
    "cli.parse_s": "s", "cli.emit_s": "s", "cli.jobs": "count",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.counts = {}
        self.distinct = set()
        self.nerves = {}
        self._patched = []

    def add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name, n):
        self.counts[name] = max(self.counts.get(name, 0), n)

    def _wrap(self, fn, span_name, counter):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = perf_counter()
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0.0]
            stack.append(len(spans))
            spans.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span[1], span[2] = start, end
            if counter is not None:
                counter(self, args, result)
            span[5] = (start - enter) + (perf_counter() - end)
            return result

        return traced

    def _count_dense(self, init):
        @functools.wraps(init)
        def counted(m, *args, **kwargs):
            init(m, *args, **kwargs)
            self.add("zlinalg.dense_cells", _cells(m))

        return counted

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "groupoidal" or name.startswith("groupoidal.")]
        for module_name, attr, span_name, counter in _TARGETS:
            owner = sys.modules[module_name]
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
            wrapped = self._wrap(original, span_name, counter)
            if path:
                self._patch(owner, name, wrapped)
                continue
            for module in modules:  # every name the function is imported as
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        matrix = sys.modules[_Z].IntMatrix
        self._patch(matrix, "__init__", self._count_dense(matrix.__init__))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Per span name: total self time and call count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, tracer_s in self.spans:
            if parent >= 0:
                child[parent] += end - start + tracer_s
        out = {}
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + end - start - child[i], calls + 1)
        return out

    def layer_metrics(self):
        """Reported per-layer metrics as {name: [value, unit]}."""
        by_span = self.self_times()
        values = {name: 0 for name in METRICS}
        values.update({k: v for k, v in self.counts.items() if k in METRICS})
        for span_name, (self_s, calls) in by_span.items():
            layer = _LAYER_OF[span_name]
            if layer is not None:
                values[layer + "_s"] += self_s
            if f"{layer}_calls" in METRICS:
                values[f"{layer}_calls"] += calls
        values["cli.jobs"] = by_span.get("cli.main", (0, 0))[1]
        factorizations = self.counts.get("zlinalg.factorizations", 0)
        values["zlinalg.distinct_factor_ratio"] = (
            len(self.distinct) / factorizations if factorizations else 0.0)
        return {name: [values[name], unit] for name, unit in METRICS.items()}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "tracer_s"],
                       "spans": self.spans, "counts": self.counts}, fh)
