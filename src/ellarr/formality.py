"""Graphic arrangements, twisted differentials, resonance, 1-formality.

The decision procedure is the triangle criterion; every verdict ships with
a certificate computed by exact linear algebra: a degree-one class that is
resonant for the cohomology algebra but not for the model when a triangle
exists, or the three vanishing cohomology groups when none does.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import cohomology, exactlin
from .arrangement import Arrangement, Frozen
from .model import add


class SimpleGraph(Frozen):
    """Loopless graph on vertices 1..n with a sorted edge tuple."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]):
        norm = []
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise ValueError("loops are not allowed")
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError("edge out of range")
            norm.append((min(a, b), max(a, b)))
        if len(set(norm)) != len(norm):
            raise ValueError("multiple edges are not allowed")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    def has_triangle(self) -> tuple[int, int, int] | None:
        es = set(self.edges)
        for i, j, k in itertools.combinations(range(1, self.n + 1), 3):
            if (i, j) in es and (j, k) in es and (i, k) in es:
                return (i, j, k)
        return None

    def components(self) -> int:
        parent = list(range(self.n + 1))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a, b in self.edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        return len({find(v) for v in range(1, self.n + 1)})


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, tuple((i, j) for i in range(1, n + 1)
                                for j in range(i + 1, n + 1)))


def graphic_arrangement(graph: SimpleGraph) -> Arrangement:
    """One diagonal divisor per edge, in lexicographic edge order."""
    cols = []
    for i, j in graph.edges:
        col = [0] * graph.n
        col[i - 1] = 1
        col[j - 1] = -1
        cols.append(tuple(col))
    return Arrangement(graph.n, tuple(cols))


class GraphicModel:
    """Degree-wise bases and differential columns of a graph's model.

    ``model`` is the ``TensorModel`` of a graphic arrangement, built by the
    caller.
    """

    def __init__(self, model):
        self.model = model
        self._deg_basis: dict[int, list] = {}
        self._deg_index: dict[int, dict] = {}
        self._d_cols: dict[int, list[dict[int, int | Fraction]]] = {}

    def degree_basis(self, k: int) -> list:
        got = self._deg_basis.get(k)
        if got is not None:
            return got
        out = []
        for q in range(0, k + 1):
            p = k - q
            out.extend(self.model.basis(p, q))
        self._deg_basis[k] = out
        self._deg_index[k] = {m: i for i, m in enumerate(out)}
        return out

    def degree_index(self, k: int) -> dict:
        self.degree_basis(k)
        return self._deg_index[k]

    def d_matrix(self, k: int) -> list[dict[int, int | Fraction]]:
        """Sparse columns {row: value} of d from total degree k to k+1."""
        got = self._d_cols.get(k)
        if got is None:
            tgt_index = self.degree_index(k + 1)
            got = [{tgt_index[m]: c
                    for m, c in self.model.d({mono: 1}).items()}
                   for mono in self.degree_basis(k)]
            self._d_cols[k] = got
        return got

    def twisted_matrix(self, z, k: int) -> list[dict[int, int | Fraction]]:
        """Sparse columns of e -> z e + d e from degree k to k+1.

        For z = {} this is ``d_matrix(k)`` itself, which callers must not
        modify.
        """
        cols = self.d_matrix(k)
        if not z:
            return cols
        tgt_index = self.degree_index(k + 1)
        return [add(dcol, {tgt_index[m]: c
                           for m, c in self.model.multiply(z, {mono: 1}).items()})
                for mono, dcol in zip(self.degree_basis(k), cols)]

    def kernel_degree_one(self) -> list:
        """Basis of the closed degree-1 elements, as model elements."""
        src = self.degree_basis(1)
        rows = len(self.degree_basis(2))
        if not rows:
            return [{m: 1} for m in src]
        cols = self.d_matrix(1)
        dense = [[col.get(r, 0) for col in cols] for r in range(rows)]
        return [{src[i]: v for i, v in enumerate(vec) if v}
                for vec in exactlin.kernel_basis(dense)]


def twisted_cohomology_h1(gm: GraphicModel, z) -> int:
    """dim H^1 of the model with the twisted differential z*(-) + d."""
    if gm.model.d(z):
        raise ValueError("twisting class must be closed of degree one")
    dim1 = len(gm.degree_basis(1))
    rank1 = exactlin.sparse_rank(gm.twisted_matrix(z, 1))
    rank0 = 1 if z else 0
    return dim1 - rank1 - rank0


def resonance_membership_page2(gm: GraphicModel, z) -> bool:
    """Is z in the degree-one resonance locus of the model itself?"""
    return twisted_cohomology_h1(gm, z) > 0


def resonance_closed_form_page2(graph: SimpleGraph, xcoeffs, ycoeffs) -> bool:
    """Union-of-edge-planes description of the page-2 resonance locus."""
    a = [Fraction(v) for v in xcoeffs]
    b = [Fraction(v) for v in ycoeffs]
    if not any(a) and not any(b):
        return True
    for i, j in graph.edges:
        edge = [Fraction(0)] * graph.n
        edge[i - 1] = Fraction(1)
        edge[j - 1] = Fraction(-1)
        if _parallel(a, edge) and _parallel(b, edge):
            return True
    return False


def _parallel(v, w) -> bool:
    """v in Q*w (w nonzero)."""
    if not any(v):
        return True
    pivot = next(k for k, x in enumerate(w) if x)
    if not v[pivot]:
        return False
    f = v[pivot] / w[pivot]
    return all(v[k] == f * w[k] for k in range(len(v)))


def resonance_membership_page3(gm: GraphicModel, z) -> bool:
    """Is z resonant for the cohomology algebra with zero differential?

    Since the degree-0 differential vanishes, this asks for a degree-one
    cocycle w, independent of z, with z*w exact in the model.
    """
    if gm.model.d(z):
        raise ValueError("twisting class must be closed of degree one")
    if not z:
        return True
    kernel = gm.kernel_degree_one()
    d1 = gm.d_matrix(1)
    idx2 = gm.degree_index(2)
    prods = []
    for w in kernel:
        zw = gm.model.multiply(z, w)
        prods.append({idx2[m]: c for m, c in zw.items()})
    rank_d = exactlin.sparse_rank(d1)
    rank_joint = exactlin.sparse_rank(prods + d1)
    solution_dim = len(kernel) - (rank_joint - rank_d)
    return solution_dim >= 2


def triangle_witness(graph: SimpleGraph) -> dict | None:
    """Resonance-gap certificate from the smallest triangle, if any."""
    tri = graph.has_triangle()
    if tri is None:
        return None
    i, j, k = tri
    xcoeffs = [0] * graph.n
    xcoeffs[i - 1] = 2
    xcoeffs[j - 1] = -1
    xcoeffs[k - 1] = -1
    return {"triangle": tri, "xcoeffs": xcoeffs, "ycoeffs": [0] * graph.n}


def verify_triangle_free_vanishing(model) -> dict:
    """The three low-degree obstruction spaces of a triangle-free graph.

    ``model`` is the ``TensorModel`` of its graphic arrangement.
    """
    _, t3 = cohomology.betti_tables(model, max_degree=2)
    values = {"e3_0_1": t3.dim(0, 1), "e3_0_2": t3.dim(0, 2),
              "e3_1_1": t3.dim(1, 1)}
    return {"ok": all(v == 0 for v in values.values()), "values": values}


def is_one_formal(graph: SimpleGraph, model) -> tuple[bool, dict]:
    """Triangle criterion plus an exact-linear-algebra certificate.

    ``model`` is the ``TensorModel`` of a graphic arrangement of ``graph``
    whose ambient coordinates are its vertices; its columns may come in any
    order and sign.
    """
    witness = triangle_witness(graph)
    if witness is None:
        report = verify_triangle_free_vanishing(model)
        return True, {"one_formal": True, "vanishing": report}
    gm = GraphicModel(model)
    z = model.one_form(witness["xcoeffs"], witness["ycoeffs"])
    in_page3 = resonance_membership_page3(gm, z)
    in_page2 = resonance_membership_page2(gm, z)
    cert = dict(witness)
    cert.update({"one_formal": False,
                 "witness_in_page3_resonance": in_page3,
                 "witness_in_page2_resonance": in_page2,
                 "gap_certified": in_page3 and not in_page2})
    return False, cert


def one_isomorphism_report(graph: SimpleGraph, model) -> dict:
    """Dimension comparison with the quotient algebra used for formality.

    The quotient keeps only the top row modulo the differential's image, an
    exterior algebra modulo one quadric per edge; its low-degree dimensions
    must match the model's cohomology in degrees 0 and 1 and bound it in
    degree 2.  ``model`` is the ``TensorModel`` of a graphic arrangement of
    ``graph``.
    """
    _, t3 = cohomology.betti_tables(model, max_degree=2)
    n2 = 2 * graph.n
    h0 = t3.dim(0, 0)
    h1 = sum(t3.dim(p, q) for p, q in ((1, 0), (0, 1)))
    h2 = sum(t3.dim(p, q) for p, q in ((2, 0), (1, 1), (0, 2)))
    q0, q1 = 1, n2
    q2 = n2 * (n2 - 1) // 2 - len(graph.edges)
    return {"h0": (h0, q0), "h1": (h1, q1), "h2_model": h2, "h2_quotient": q2,
            "ok": h0 == q0 and h1 == q1 and h2 <= q2}


def enumerate_graphs(max_vertices: int) -> list[SimpleGraph]:
    """All graphs with up to ``max_vertices`` vertices, one per isomorphism class."""
    out = []
    for n in range(1, max_vertices + 1):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        seen = set()
        for mask in range(1 << len(pairs)):
            edges = frozenset(p for k, p in enumerate(pairs) if mask >> k & 1)
            canon = None
            for perm in itertools.permutations(range(1, n + 1)):
                relab = frozenset(tuple(sorted((perm[a - 1], perm[b - 1])))
                                  for a, b in edges)
                key = tuple(sorted(relab))
                if canon is None or key < canon:
                    canon = key
            if canon not in seen:
                seen.add(canon)
                out.append(SimpleGraph(n, tuple(canon)))
    return out
