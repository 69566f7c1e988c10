"""Cohomology of the model: page-3 tables, Euler characteristic, audits.

The differential preserves the balance #x - #y of one-form symbols, so every
bidegree splits into weight blocks and ranks are computed blockwise.  The
weight-refined dimensions are exactly the torus-weight multiplicities used
for the representation-theoretic tables of the braid case.

Non-essential arrangements are handled by splitting off torus factors:
Betti data of the product is the core data convolved with the cohomology of
one curve, (1, 2, 1), once per factor.
"""

from __future__ import annotations

from math import comb

from . import arrangement as arr_mod
from . import exactlin
from .arrangement import Arrangement
from .model import BigradedDGA, TensorModel


class BettiTable:
    """Sparse bigraded dimension table, with torus-weight refinement."""

    def __init__(self, page: int, entries: dict | None = None,
                 weights: dict | None = None):
        self.page = page
        self.entries = {} if entries is None else entries   # (p,q) -> dim
        self.weights = {} if weights is None else weights   # (p,q) -> {a: dim}

    def dim(self, p: int, q: int) -> int:
        return self.entries.get((p, q), 0)

    def weight_dim(self, p: int, q: int, a: int) -> int:
        return self.weights.get((p, q), {}).get(a, 0)

    def sl2_multiplicity(self, p: int, q: int, k: int) -> int:
        """Multiplicity of the (k+1)-dimensional torus-graded block."""
        return self.weight_dim(p, q, k) - self.weight_dim(p, q, k + 2)

    def total_betti(self) -> list[int]:
        if not self.entries:
            return [0]
        top = max(p + q for p, q in self.entries)
        out = [0] * (top + 1)
        for (p, q), d in self.entries.items():
            out[p + q] += d
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return out

    def euler(self) -> int:
        return sum((-1) ** ((p + q) % 2) * d for (p, q), d in self.entries.items())


def essentialize(arr: Arrangement) -> tuple[Arrangement, list[list[int]], int]:
    """Split an arrangement as (essential core, row transform, torus factors).

    The transform U is unimodular with U*N zero below the first r rows; the
    core is the truncation, an essential arrangement of the same divisors in
    a rank-many-dimensional ambient.  Essential inputs are returned as-is.
    """
    n = arr.n
    mat = arr.matrix()
    r = exactlin.rational_rank(mat) if arr.size else 0
    if r == n:
        return arr, exactlin.identity(n), 0
    snf = exactlin.smith_normal_form(mat)
    un = exactlin.mat_mul(snf.u, mat)
    core_cols = tuple(tuple(un[i][j] for i in range(r)) for j in range(arr.size))
    core = Arrangement(r, core_cols, arr.offsets)
    return core, snf.u, n - r


def full_model(arr: Arrangement) -> TensorModel:
    """Tensor model of any arrangement: essential core times torus factors."""
    core_arr, transform, nbars = essentialize(arr)
    return TensorModel(BigradedDGA(core_arr), nbars, transform)


def page2_table(dga: BigradedDGA, max_degree: int | None = None
                ) -> BettiTable:
    """Basis dimensions per bidegree and torus weight, up to ``max_degree``.

    Counted, not enumerated: each (layer, NBC set) pair of rank q chooses
    i x-symbols and p - i y-symbols from its k = n - q coframe columns,
    which gives weight 2i - p.
    """
    entries = {}
    weights = {}
    for (p, q) in dga.bidegrees():
        if max_degree is not None and p + q > max_degree:
            continue
        pairs = sum(len(dga.nbc(lid)) for lid in dga.poset.by_rank[q])
        k = dga.n - q
        wd = {2 * i - p: pairs * comb(k, i) * comb(k, p - i)
              for i in range(max(0, p - k), min(p, k) + 1)}
        if pairs and wd:
            entries[(p, q)] = sum(wd.values())
            weights[(p, q)] = wd
    return BettiTable(page=2, entries=entries, weights=weights)


def page3_table(dga: BigradedDGA, max_degree: int | None = None
                ) -> BettiTable:
    """Cohomology of (page 2, d) computed by exact ranks, weight by weight.

    With ``max_degree`` only the bidegrees with p + q <= max_degree are
    computed; their entries are exact, since d raises p + q by one.
    """
    page2 = page2_table(dga, max_degree)
    entries = {}
    weights = {}
    for (p, q), wd in sorted(page2.weights.items()):
        out_r = dga.ranks(p, q)
        in_r = dga.ranks(p - 2, q + 1)
        wd3 = {}
        for a, d in wd.items():
            v = d - out_r.get(a, 0) - in_r.get(a, 0)
            if v:
                wd3[a] = v
        if wd3:
            weights[(p, q)] = wd3
            entries[(p, q)] = sum(wd3.values())
    return BettiTable(page=3, entries=entries, weights=weights)


def tensor_with_curve(table: BettiTable, nfactors: int) -> BettiTable:
    """Tensor a table with the cohomology of a curve, (1,2,1), per factor.

    The degree-1 part carries torus weights +1 and -1, the ends weight 0.
    """
    entries = dict(table.entries)
    weights = {k: dict(v) for k, v in table.weights.items()}
    for _ in range(nfactors):
        new_w: dict = {}
        for (p, q), wd in weights.items():
            for a, d in wd.items():
                for dp, da, mult in ((0, 0, 1), (1, 1, 1), (1, -1, 1), (2, 0, 1)):
                    tgt = new_w.setdefault((p + dp, q), {})
                    tgt[a + da] = tgt.get(a + da, 0) + d * mult
        weights = new_w
        entries = {k: sum(v.values()) for k, v in weights.items()}
    return BettiTable(page=table.page, entries=entries, weights=weights)


def betti_tables(model: TensorModel, max_degree: int | None = None
                 ) -> tuple[BettiTable, BettiTable]:
    """(page 2, page 3) tables of an arrangement's ``full_model``.

    ``max_degree`` limits both tables to total degrees p + q <= max_degree;
    the curve factors only raise p, so those entries stay exact.
    """
    t2 = tensor_with_curve(page2_table(model.core, max_degree), model.nbars)
    t3 = tensor_with_curve(page3_table(model.core, max_degree), model.nbars)
    if max_degree is not None:
        for t in (t2, t3):
            t.entries = {k: d for k, d in t.entries.items()
                         if sum(k) <= max_degree}
            t.weights = {k: w for k, w in t.weights.items()
                         if sum(k) <= max_degree}
    return t2, t3


def verify_vanishing(arr: Arrangement, page3_full: BettiTable,
                     page2_core: BettiTable | None = None,
                     page3_core: BettiTable | None = None) -> dict:
    """Check the vanishing bound and the support triangles.

    Total cohomology must vanish above 2n - r; the core tables must live in
    the page-2 triangle p + 2q <= 2r and the page-3 triangle p + q <= r.
    """
    n = arr.n
    r = arr_mod.arrangement_rank(arr)
    violations = []
    for (p, q), d in sorted(page3_full.entries.items()):
        if d and p + q > 2 * n - r:
            violations.append({"table": "page3", "p": p, "q": q, "dim": d,
                               "bound": "p+q <= 2n-r = %d" % (2 * n - r)})
    if page2_core is not None:
        for (p, q), d in sorted(page2_core.entries.items()):
            if d and p + 2 * q > 2 * r:
                violations.append({"table": "page2-core", "p": p, "q": q,
                                   "dim": d, "bound": "p+2q <= 2r = %d" % (2 * r)})
    if page3_core is not None:
        for (p, q), d in sorted(page3_core.entries.items()):
            if d and p + q > r:
                violations.append({"table": "page3-core", "p": p, "q": q,
                                   "dim": d, "bound": "p+q <= r = %d" % r})
    return {"ok": not violations, "violations": violations,
            "ambient_n": n, "rank": r}


def verify_first_column(dga: BigradedDGA) -> dict:
    """Injectivity of d on the first column: no page-3 classes at p = 0, q > 0."""
    failures = []
    for q in sorted(dga.poset.by_rank):
        if q == 0:
            continue
        dim = dga.dim(0, q)
        rank = sum(dga.ranks(0, q).values())
        if rank != dim:
            failures.append({"q": q, "dim": dim, "rank": rank})
    return {"ok": not failures, "failures": failures}
