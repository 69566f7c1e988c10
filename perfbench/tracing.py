"""Outside-in layer tracing: span wrappers, counters and self-time sums.

The wrappers are installed from outside the program, in the job process,
before ``ellarr.cli.main`` runs (see ``traced_job.py``); nothing in the
package changes.  Each module of the package is one layer, and the entry
points listed in ``LAYERS`` are its boundaries.  Per-term helpers (wedge
products, merge signs, coframes, element arithmetic) are left unwrapped on
purpose: their cost is the self time of the layer function that calls them,
and wrapping them would multiply the span count by ten.

Spans are kept in memory in the job process and written out when the job
ends; the harness turns them into per-layer metrics with ``aggregate``.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

LAYERS = {
    "arrangement": ("build_poset", "independent_sets", "circuits", "nbc_sets",
                    "components_of", "is_essential", "is_unimodular",
                    "poset_isomorphic"),
    "model": ("BigradedDGA.__init__", "BigradedDGA.basis",
              "BigradedDGA.d_monomial", "BigradedDGA.d", "BigradedDGA.multiply",
              "BigradedDGA.multiply_monomials", "BigradedDGA.straighten",
              "BigradedDGA.verify_model_dimension"),
    "exactlin": ("sparse_rank", "rational_rank", "rref", "kernel_basis",
                 "solve_linear", "smith_normal_form", "elementary_divisors",
                 "hermite_row_basis", "saturation_row_basis", "solve_torsion",
                 "torsion_from_snf", "inv_unimodular", "det_int"),
    "cohomology": ("essentialize", "page2_table", "page3_table",
                   "betti_tables", "tensor_with_curve", "verify_vanishing",
                   "verify_first_column"),
    "braid": ("braid_arrangement", "braid_model", "cocycle_span_rank",
              "labelled_forest_counts", "tutte_polynomial", "expected_dims"),
    "reptheory": ("bidegree_decomposition", "weighted_partitions",
                  "sl2_isotypics", "decompose_class_function"),
    "formality": ("is_one_formal", "graphic_arrangement", "triangle_witness",
                  "verify_triangle_free_vanishing",
                  "resonance_membership_page2", "resonance_membership_page3",
                  "twisted_cohomology_h1", "GraphicModel.d_matrix",
                  "GraphicModel.twisted_matrix",
                  "GraphicModel.kernel_degree_one"),
    "cli": ("main", "parse_input", "render", "cmd_poset", "cmd_betti",
            "cmd_euler", "cmd_braid_table", "cmd_rep_decompose",
            "cmd_formality", "cmd_verify_all"),
}

# (name, unit, better) of every per-layer metric the traced run reports.
PER_LAYER = [
    ("exactlin.sparse_rank.calls", "count", "lower"),
    ("exactlin.sparse_rank.self_s", "s", "lower"),
    ("exactlin.sparse_rank.cols", "count", "lower"),
    ("exactlin.sparse_rank.nnz", "count", "lower"),
    ("exactlin.sparse_rank.max_cols", "count", "lower"),
    ("exactlin.sparse_rank.rank", "count", "lower"),
    ("exactlin.sparse_rank.full_rank_ratio", "ratio", "higher"),
    ("exactlin.sparse_rank.frac_blocks", "count", "lower"),
    ("model.BigradedDGA.d_monomial.calls", "count", "lower"),
    ("model.BigradedDGA.d_monomial.distinct", "count", "lower"),
    ("model.BigradedDGA.d_monomial.terms", "count", "lower"),
    ("model.BigradedDGA.d_monomial.self_s", "s", "lower"),
    ("arrangement.build_poset.calls", "count", "lower"),
    ("arrangement.build_poset.self_s", "s", "lower"),
    ("arrangement.build_poset.total_s", "s", "lower"),
    ("arrangement.layers", "count", "lower"),
    ("arrangement.containment_pairs", "count", "lower"),
    ("exactlin.smith_normal_form.calls", "count", "lower"),
    ("exactlin.smith_normal_form.self_s", "s", "lower"),
    ("exactlin.elementary_divisors.calls", "count", "lower"),
    ("exactlin.elementary_divisors.self_s", "s", "lower"),
    ("arrangement.nbc_sets.calls", "count", "lower"),
    ("arrangement.nbc_sets.sets", "count", "lower"),
    ("arrangement.nbc_sets.self_s", "s", "lower"),
    ("model.BigradedDGA.basis.monomials", "count", "lower"),
    ("model.BigradedDGA.basis.self_s", "s", "lower"),
    ("exactlin.rational_rank.calls", "count", "lower"),
    ("exactlin.rational_rank.self_s", "s", "lower"),
    ("model.BigradedDGA.instances", "count", "lower"),
    ("cohomology.page2_table.calls", "count", "lower"),
    ("cohomology.page2_table.self_s", "s", "lower"),
    ("cohomology.page3_table.calls", "count", "lower"),
    ("cohomology.page3_table.self_s", "s", "lower"),
    ("cohomology.betti_tables.calls", "count", "lower"),
    ("cohomology.betti_tables.self_s", "s", "lower"),
    ("cohomology.essentialize.self_s", "s", "lower"),
    ("reptheory.bidegree_decomposition.calls", "count", "lower"),
    ("reptheory.bidegree_decomposition.rows", "count", "lower"),
    ("reptheory.bidegree_decomposition.self_s", "s", "lower"),
    ("formality.is_one_formal.self_s", "s", "lower"),
    ("formality.GraphicModel.twisted_matrix.self_s", "s", "lower"),
    ("formality.GraphicModel.d_matrix.self_s", "s", "lower"),
    ("model.BigradedDGA.multiply_monomials.calls", "count", "lower"),
    ("model.BigradedDGA.multiply_monomials.self_s", "s", "lower"),
    ("model.BigradedDGA.straighten.calls", "count", "lower"),
    ("model.BigradedDGA.straighten.self_s", "s", "lower"),
    ("exactlin.rref.calls", "count", "lower"),
    ("exactlin.rref.self_s", "s", "lower"),
    ("braid.cocycle_span_rank.self_s", "s", "lower"),
    ("cli.parse_input.self_s", "s", "lower"),
    ("cli.render.self_s", "s", "lower"),
    ("cli.render.bytes", "bytes", "lower"),
] + [("%s.self_s" % layer, "s", "lower") for layer in LAYERS] + [
    ("trace.outside_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


# ----- job side: wrappers and the span recorder ------------------------------

def _sparse_rank_counts(c, args, kwargs, result):
    cols = [col for col in args[0] if col]
    rows = set()
    frac = False
    for col in cols:
        rows.update(col)
        frac = frac or any(getattr(v, "denominator", 1) != 1
                           for v in col.values())
    c["exactlin.sparse_rank.cols"] += len(cols)
    c["exactlin.sparse_rank.nnz"] += sum(len(col) for col in cols)
    c["exactlin.sparse_rank.max_cols"] = max(c["exactlin.sparse_rank.max_cols"],
                                             len(cols))
    c["exactlin.sparse_rank.rank"] += result
    c["exactlin.sparse_rank.min_dim"] += min(len(cols), len(rows))
    c["exactlin.sparse_rank.frac_blocks"] += frac


def _first_time(c, seen_name, key):
    seen = c.setdefault(seen_name, set())
    if key in seen:
        return False
    seen.add(key)
    return True


def _d_monomial_counts(c, args, kwargs, result):
    if _first_time(c, "_d_seen", (id(args[0]), args[1])):
        c["model.BigradedDGA.d_monomial.distinct"] += 1
        c["model.BigradedDGA.d_monomial.terms"] += len(result)


def _basis_counts(c, args, kwargs, result):
    if _first_time(c, "_basis_seen", (id(args[0]),) + tuple(args[1:])):
        c["model.BigradedDGA.basis.monomials"] += len(result)


def _init_counts(c, args, kwargs, result):
    c["model.BigradedDGA.instances"] += 1
    # Hold the instance so its id() is never reused by a later model.
    c.setdefault("_models", []).append(args[0])


def _poset_counts(c, args, kwargs, result):
    c["arrangement.layers"] += result.size
    c["arrangement.containment_pairs"] += result.size ** 2


def _count_len(metric):
    def hook(c, args, kwargs, result):
        c[metric] += len(result)
    return hook


HOOKS = {
    "exactlin.sparse_rank": _sparse_rank_counts,
    "model.BigradedDGA.d_monomial": _d_monomial_counts,
    "model.BigradedDGA.basis": _basis_counts,
    "model.BigradedDGA.__init__": _init_counts,
    "arrangement.build_poset": _poset_counts,
    "arrangement.nbc_sets": _count_len("arrangement.nbc_sets.sets"),
    "reptheory.bidegree_decomposition":
        _count_len("reptheory.bidegree_decomposition.rows"),
    "cli.render": _count_len("cli.render.bytes"),
}


class _Counters(dict):
    def __missing__(self, key):
        return 0


class Recorder:
    """Spans (name, start, end, parent) and counters of one job process."""

    def __init__(self):
        self.names: list = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters = _Counters()
        self._stack = [-1]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        # One stack gives each span its parent; the CLI runs its jobs on one
        # thread unless --jobs is above 1, which the benchmark never passes.
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def dump(self, job: str, path: str):
        record = {"job": job, "names": self.names,
                  "name": self.name.tolist(), "start": self.start.tolist(),
                  "end": self.end.tolist(), "parent": self.parent.tolist(),
                  "counters": {k: v for k, v in self.counters.items()
                               if not k.startswith("_")}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def package_namespaces():
    """Module namespaces of the package, and the dicts they hold."""
    import ellarr
    mods = [ellarr] + [importlib.import_module("ellarr." + name)
                       for name in LAYERS]
    spaces = [vars(m) for m in mods]
    spaces += [v for ns in list(spaces) for v in ns.values()
               if isinstance(v, dict) and v is not ns]
    return spaces


def install(recorder: Recorder) -> int:
    """Wrap every entry point in ``LAYERS`` where callers look it up.

    A module function is replaced in every package namespace that holds it
    (re-exports and dispatch tables included); a method is replaced on its
    class.  Returns the number of wrapped entry points.
    """
    spaces = package_namespaces()
    count = 0
    for layer, entries in LAYERS.items():
        module = importlib.import_module("ellarr." + layer)
        for entry in entries:
            owner_name, _, attr = entry.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[attr]
            if not callable(original) or isinstance(original, type):
                raise TypeError("%s.%s is not a function" % (layer, entry))
            traced = recorder.wrap("%s.%s" % (layer, entry), original)
            if owner_name:
                setattr(owner, attr, traced)
            else:
                for ns in spaces:
                    for key, value in list(ns.items()):
                        if value is original:
                            ns[key] = traced
            count += 1
    return count


# ----- harness side: self time and per-workload sums ----------------------------

def self_times(parent, start, end) -> list:
    """Each span's duration minus the part of it that its children cover."""
    out = [e - s for s, e in zip(start, end)]
    children: dict = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append((start[i], end[i]))
    for p, spans in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_s = cur_e = None
        for s, e in sorted(spans):
            s, e = max(s, lo), min(e, hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


def job_sums(rec: dict, job_wall: float) -> dict:
    """Per-name calls, self and total seconds, plus counters, of one job."""
    names = [rec["names"][i] for i in rec["name"]]
    parent, start, end = rec["parent"], rec["start"], rec["end"]
    selfs = self_times(parent, start, end)
    sums = _Counters(rec["counters"])
    root_time = 0.0
    for i, name in enumerate(names):
        sums[name + ".calls"] += 1
        sums[name + ".self_s"] += selfs[i]
        sums[name.split(".", 1)[0] + ".self_s"] += selfs[i]
        p = parent[i]
        while p >= 0 and names[p] != name:
            p = parent[p]
        if p < 0:
            sums[name + ".total_s"] += end[i] - start[i]
        if parent[i] < 0:
            root_time += end[i] - start[i]
    sums["trace.outside_s"] += job_wall - root_time
    sums["trace.spans"] += len(names)
    return sums


def aggregate(jobs: list) -> dict:
    """Per-workload sums over (record, job wall) pairs, as PER_LAYER metrics."""
    total = _Counters()
    for rec, wall in jobs:
        for key, value in job_sums(rec, wall).items():
            if key == "exactlin.sparse_rank.max_cols":
                total[key] = max(total[key], value)
            else:
                total[key] += value
    min_dim = total["exactlin.sparse_rank.min_dim"]
    total["exactlin.sparse_rank.full_rank_ratio"] = (
        total["exactlin.sparse_rank.rank"] / min_dim if min_dim else 0.0)
    return {name: total[name] for name, _, _ in PER_LAYER
            if name != "trace.overhead_s"}
