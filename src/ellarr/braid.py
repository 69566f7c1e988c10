"""Braid-specific combinatorics and closed-form dimension data.

Vertices are 1-based; the divisor for a pair (i, j), i < j, is the diagonal
P_i = P_j, and divisors are ordered lexicographically by (i, j).  The model
is ``cohomology.full_model`` of the diagonal arrangement: ``essentialize``
splits off the one curve factor of translations and leaves the core in the
consecutive differences, where the pair (i, j) becomes the 0/1 interval
vector supported on i..j-1, which keeps every computation integral.  The
circuit cocycles read their one-forms off the model's transform, so nothing
here depends on which core coordinates it chose.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from functools import lru_cache
from math import comb, factorial

from . import cohomology, exactlin
from .arrangement import Arrangement
from .model import BigradedDGA, Element, TensorModel, add, scale
from .reptheory import (LABEL_DEGREE, LABELS, conjugate_partition,
                        schur_dimension)


# ----- arrangements ------------------------------------------------------

def braid_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def pair_index(n: int, i: int, j: int) -> int:
    if i > j:
        i, j = j, i
    return braid_pairs(n).index((i, j))


def braid_arrangement(n: int) -> Arrangement:
    """Diagonal arrangement on n coordinates, one divisor per pair."""
    if n < 2:
        raise ValueError("need at least two points")
    cols = []
    for i, j in braid_pairs(n):
        col = [0] * n
        col[i - 1] = 1
        col[j - 1] = -1
        cols.append(tuple(col))
    return Arrangement(n, tuple(cols))


@lru_cache(maxsize=None)
def braid_full_model(n: int) -> TensorModel:
    return cohomology.full_model(braid_arrangement(n))


def braid_model(n: int) -> BigradedDGA:
    """Essential core of the braid model (the translation-reduced quotient)."""
    return braid_full_model(n).core


# ----- Stirling numbers ---------------------------------------------------

@lru_cache(maxsize=None)
def stirling_first(n: int, k: int) -> int:
    """Unsigned Stirling numbers of the first kind (cycle counts)."""
    if n == k:
        return 1
    if k < 1 or k > n:
        return 0
    return stirling_first(n - 1, k - 1) + (n - 1) * stirling_first(n - 1, k)


@lru_cache(maxsize=None)
def stirling_second(n: int, k: int) -> int:
    if n == k:
        return 1
    if k < 1 or k > n:
        return 0
    return stirling_second(n - 1, k - 1) + k * stirling_second(n - 1, k)


def bell_number(n: int) -> int:
    return sum(stirling_second(n, k) for k in range(1, n + 1))


# ----- decreasing forests -------------------------------------------------

class Forest:
    """Forest on vertices 1..n, stored as a sorted tuple of edges (i<j)."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        self.n = n
        self.edges = tuple(sorted(tuple(sorted(e)) for e in edges))

    def __eq__(self, other):
        return (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return "Forest(%d, %s)" % (self.n, list(self.edges))

    def components(self) -> list[frozenset[int]]:
        parent = {v: v for v in range(1, self.n + 1)}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a, b in self.edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        groups: dict[int, set[int]] = {}
        for v in range(1, self.n + 1):
            groups.setdefault(find(v), set()).add(v)
        return sorted((frozenset(g) for g in groups.values()), key=min)

    def roots(self) -> list[int]:
        return sorted(max(c) for c in self.components())

    def support(self) -> tuple[frozenset[int], ...]:
        return tuple(self.components())

    def shape(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.components()), reverse=True))

    def is_decreasing(self) -> bool:
        """Every path from a tree's maximal vertex has decreasing labels."""
        adj: dict[int, list[int]] = {}
        for a, b in self.edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        for comp in self.components():
            root = max(comp)
            stack = [root]
            seen = {root}
            while stack:
                v = stack.pop()
                for w in adj.get(v, ()):
                    if w in seen:
                        continue
                    if w > v:
                        return False
                    seen.add(w)
                    stack.append(w)
        return True

    def degrees(self) -> dict[int, int]:
        deg = {v: 0 for v in range(1, self.n + 1)}
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg

    def is_bamboo(self) -> bool:
        return all(d <= 2 for d in self.degrees().values())

    def is_standard_bamboo(self) -> bool:
        """Paths only, with each component's maximum vertex at an end."""
        if not self.is_bamboo():
            return False
        deg = self.degrees()
        for comp in self.components():
            if len(comp) > 1 and deg[max(comp)] != 1:
                return False
        return True


def decreasing_forests(n: int, k: int) -> list[Forest]:
    """All decreasing forests with k edges; counted by Stirling numbers.

    A forest is decreasing exactly when joining each non-maximal vertex to a
    strictly larger neighbour, so the enumeration picks an upward parent for
    a k-subset of 1..n-1.
    """
    if k < 0 or k > n - 1:
        return []
    out = []
    for subset in itertools.combinations(range(1, n), k):
        for parents in itertools.product(*(range(v + 1, n + 1) for v in subset)):
            out.append(Forest(n, zip(subset, parents)))
    return out


def labelled_forest_bidegree(forest: Forest, labels: dict[int, str]
                             ) -> tuple[int, int]:
    p = sum(LABEL_DEGREE[labels[r]] for r in forest.roots())
    return (p, len(forest.edges))


def labelled_forests(n: int) -> list[tuple[Forest, dict[int, str]]]:
    out = []
    for k in range(n):
        for forest in decreasing_forests(n, k):
            roots = forest.roots()
            for combo in itertools.product(LABELS, repeat=len(roots)):
                out.append((forest, dict(zip(roots, combo))))
    return out


def labelled_forest_counts(n: int) -> dict[tuple[int, int], int]:
    """Bidegree counts of `labelled_forests`, taken per forest.

    A forest with k edges has n - k roots, and its labellings of degree p
    number the (n - k)-fold convolution of LABEL_DEGREE at p.
    """
    by_roots = [{0: 1}]
    for _ in range(n):
        conv: dict[int, int] = {}
        for p, c in by_roots[-1].items():
            for deg in LABEL_DEGREE.values():
                conv[p + deg] = conv.get(p + deg, 0) + c
        by_roots.append(conv)
    counts: dict[tuple[int, int], int] = {}
    for k in range(n):
        forests = len(decreasing_forests(n, k))
        for p, c in by_roots[n - k].items():
            counts[(p, k)] = forests * c
    return counts


# ----- model elements attached to forests ----------------------------------

def omega_edge(model: BigradedDGA, n: int, i: int, j: int) -> Element:
    """Generator of the rank-1 layer of the diagonal P_i = P_j."""
    return model.omega_generators(pair_index(n, i, j))


def omega_of_edge_list(model: BigradedDGA, n: int,
                       edges: Sequence[tuple[int, int]]) -> Element:
    """Ordered product of edge generators (orientation is ignored)."""
    out = model.unit()
    for (a, b) in edges:
        out = model.multiply(out, omega_edge(model, n, a, b))
        if not out:
            break
    return out


def coordinate_form(full: TensorModel, n: int, vertex: int, kind: int):
    """Pullback of a curve one-form along the projection to one coordinate."""
    vec = [0] * n
    vec[vertex - 1] = 1
    if kind == 0:
        return full.one_form(vec, [0] * n)
    return full.one_form([0] * n, vec)


def forest_element(full: TensorModel, n: int, forest: Forest,
                   labels: dict[int, str]):
    """Basis element of the full braid model attached to a labelled forest.

    The label pullbacks multiply in increasing root order, x-side before
    y-side within one root, in front of the edge product.
    """
    if not forest.is_decreasing():
        raise ValueError("forest is not decreasing")
    factors = []
    for root in sorted(forest.roots()):
        lab = labels[root]
        if lab in ("x", "xy"):
            factors.append((root, 0))
        if lab in ("y", "xy"):
            factors.append((root, 1))
    out = full.include_core(omega_of_edge_list(full.core, n, forest.edges))
    for vert, kind in reversed(factors):
        out = full.multiply(coordinate_form(full, n, vert, kind), out)
    return out


def standard_bamboo_basis(n: int, k: int) -> list[Forest]:
    """Forests of paths whose maximal vertices sit at path ends."""
    out = []
    for forest in forests_with_edges(n, k):
        if forest.is_standard_bamboo():
            out.append(forest)
    return out


def forests_with_edges(n: int, k: int) -> list[Forest]:
    """All forests (not necessarily decreasing) with k edges on 1..n."""
    all_edges = braid_pairs(n)
    out = []

    def acyclic(edges):
        parent = {}

        def find(v):
            while parent.setdefault(v, v) != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a, b in edges:
            ra, rb = find(a), find(b)
            if ra == rb:
                return False
            parent[ra] = rb
        return True

    for combo in itertools.combinations(all_edges, k):
        if acyclic(combo):
            out.append(Forest(n, combo))
    return out


# ----- circuits and their cocycles -----------------------------------------

class Circuit:
    """Simple cycle with an orientation and a starting vertex.

    Stored as the ordered tuple of directed edges (s, t); consecutive edges
    chain and the start equals the final target.
    """

    __slots__ = ("edges",)

    def __init__(self, edges: Sequence[tuple[int, int]]):
        edges = tuple((int(s), int(t)) for s, t in edges)
        if len(edges) < 3:
            raise ValueError("a circuit needs at least 3 edges")
        starts = [s for s, _ in edges]
        for a, b in zip(edges, edges[1:]):
            if a[1] != b[0]:
                raise ValueError("edges do not chain")
        if edges[-1][1] != edges[0][0]:
            raise ValueError("circuit does not close")
        if len(set(starts)) != len(starts):
            raise ValueError("repeated vertex")
        self.edges = edges

    def __len__(self):
        return len(self.edges)

    def __repr__(self):
        return "Circuit(%s)" % (list(self.edges),)

    def vertices(self) -> list[int]:
        return [s for s, _ in self.edges]

    def reversed(self) -> "Circuit":
        rev = [(t, s) for s, t in reversed(self.edges)]
        return Circuit(rev)

    def is_standard(self) -> bool:
        vs = sorted(self.vertices(), reverse=True)
        a, b = vs[0], vs[1]
        return any((s, t) in ((a, b), (b, a)) for s, t in self.edges)


def all_circuits(n: int, k: int) -> list[Circuit]:
    """Every oriented, started circuit of length k on n vertices."""
    out = []
    for vs in itertools.permutations(range(1, n + 1), k):
        cyc = list(vs) + [vs[0]]
        out.append(Circuit(list(zip(cyc, cyc[1:]))))
    return out


def standard_circuits(n: int, k: int) -> list[Circuit]:
    """One canonical representative per cycle with the two top vertices adjacent.

    The representative starts at the greatest vertex and steps to the second
    greatest first; there are (k-2)! of them per vertex subset.
    """
    out = []
    for subset in itertools.combinations(range(1, n + 1), k):
        vs = sorted(subset)
        a, b = vs[-1], vs[-2]
        rest = vs[:-2]
        for perm in itertools.permutations(rest):
            cyc = [a, b] + list(perm) + [a]
            out.append(Circuit(list(zip(cyc, cyc[1:]))))
    return out


def circuit_cocycles(full: TensorModel, circuit: Circuit
                     ) -> tuple[Element, Element]:
    """The two closed degree-(1, k-2) core elements attached to a circuit.

    The one-form of x_t - x_s is read in core coordinates as the difference
    of columns t and s of the transform; it is a divisor column, so its
    image vanishes below the core rows.
    """
    core, u, n = full.core, full.transform, full.ambient_n
    k = len(circuit)
    lc: Element = {}
    lcp: Element = {}
    for i in range(k):
        s, t = circuit.edges[i]
        vec = [u[r][t - 1] - u[r][s - 1] for r in range(core.n)]
        fx, fy = core.one_form(vec, None), core.one_form(None, vec)
        for j in range(i + 1, k):
            rest = [circuit.edges[a] for a in range(k) if a not in (i, j)]
            om = omega_of_edge_list(core, n, rest)
            sign = -1 if (i + j) % 2 else 1
            lc = add(lc, scale(core.multiply(fx, om), sign))
            lcp = add(lcp, scale(core.multiply(fy, om), sign))
    return lc, lcp


def cocycle_span_rank(full: TensorModel, q: int) -> int:
    """Rank of the span of the standard-circuit cocycles in bidegree (1, q)."""
    index = full.core.index(1, q)
    vectors = []
    for circ in standard_circuits(full.ambient_n, q + 2):
        for elem in circuit_cocycles(full, circ):
            vectors.append({index[m]: c for m, c in elem.items()})
    return exactlin.sparse_rank(vectors)


def independence_check(n: int, q: int) -> dict:
    """Rank audit of the standard-circuit cocycles in bidegree (1, q).

    The span must have full rank twice the standard-circuit count, which is
    also the proven lower bound for the page-3 dimension there.
    """
    count = len(standard_circuits(n, q + 2))
    rank = cocycle_span_rank(braid_full_model(n), q)
    expected = 2 * comb(n, q + 2) * factorial(q)
    return {"vectors": 2 * count, "rank": rank, "expected": expected,
            "ok": rank == expected == 2 * count}


# ----- Tutte and Poincare polynomials ---------------------------------------

Poly2 = dict[tuple[int, int], int]


def _p2_add(a: Poly2, b: Poly2) -> Poly2:
    out = dict(a)
    for k, v in b.items():
        nv = out.get(k, 0) + v
        if nv:
            out[k] = nv
        elif k in out:
            del out[k]
    return out


def _p2_mul(a: Poly2, b: Poly2) -> Poly2:
    out: Poly2 = {}
    for (i, j), u in a.items():
        for (k, l), v in b.items():
            key = (i + k, j + l)
            nv = out.get(key, 0) + u * v
            if nv:
                out[key] = nv
            elif key in out:
                del out[key]
    return out


@lru_cache(maxsize=None)
def tutte_braid(n: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """Tutte polynomial of the complete graph on n vertices, as {(i,j): c}.

    Computed by the convolution recursion over the component of the first
    vertex; exact integer coefficients.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (((0, 0), 1),)
    total: Poly2 = {}
    for k in range(1, n):
        prefix = comb(n - 2, k - 1)
        bridge: Poly2 = {(1, 0): 1}
        for e in range(1, k):
            bridge = _p2_add(bridge, {(0, e): 1})
        tk = {key: c for key, c in tutte_braid(k)}
        # T_k(1, y): collapse the x-variable
        tk_at_1: Poly2 = {}
        for (i, j), c in tk.items():
            key = (0, j)
            tk_at_1[key] = tk_at_1.get(key, 0) + c
        tk_at_1 = {k2: v for k2, v in tk_at_1.items() if v}
        trest = {key: c for key, c in tutte_braid(n - k)}
        term = _p2_mul(_p2_mul(bridge, tk_at_1), trest)
        term = {key: prefix * c for key, c in term.items()}
        total = _p2_add(total, term)
    return tuple(sorted(total.items()))


def tutte_polynomial(n: int) -> Poly2:
    return {k: v for k, v in tutte_braid(n)}


def poincare_hyperplane(n: int) -> list[int]:
    """Coefficients of prod_{j=1}^{n-1} (j t + 1), low degree first."""
    coeffs = [1]
    for j in range(1, n):
        nxt = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d] += c
            nxt[d + 1] += c * j
        coeffs = nxt
    return coeffs


def tutte_specialization(n: int, corrected: bool = True) -> list[int]:
    """x^(n-1) T_n(s, 0) with s = (1+x)/x (corrected) or s = 1/x (printed).

    Returns polynomial coefficients in x, low degree first; with the
    corrected substitution this matches the hyperplane Poincare polynomial.
    """
    t = tutte_polynomial(n)
    ty0 = {}
    for (i, j), c in t.items():
        if j == 0:
            ty0[i] = ty0.get(i, 0) + c
    deg = n - 1
    out = [0] * (deg + 1)
    for i, c in ty0.items():
        # term c * s^i * x^(n-1):  s = (1+x)/x gives c (1+x)^i x^(n-1-i)
        if corrected:
            for a in range(i + 1):
                out[deg - i + a] += c * comb(i, a)
        else:
            out[deg - i] += c
    return out


# ----- predicted dimension tables -------------------------------------------

def e2_weight_multiplicity(n: int, p: int, q: int, k: int,
                           reduced: bool = False) -> int:
    """Closed form for the weight-k multiplicity on page 2 of the braid model.

    ``reduced`` selects the translation-reduced quotient (one curve factor
    removed).
    """
    if (p - k) % 2 or k < 0 or k > p:
        return 0
    lam = ((p + k) // 2, (p - k) // 2)
    m = n - q - (1 if reduced else 0)
    return stirling_first(n, n - q) * schur_dimension(conjugate_partition(lam), m)


def expected_first_row(n: int, p: int) -> int:
    """Predicted page-3 dimension in the first row of the reduced model."""
    return comb(n - 1, p) * (p + 1)


def expected_second_row_top_weight(n: int, p: int) -> int:
    """Predicted top-weight multiplicity at (p, 1) of the reduced model."""
    return comb(n, p + 2) * comb(p + 1, 2)


def expected_antidiagonal(n: int, k: int) -> int:
    """Predicted weight-k multiplicity at (k, n-1-k) of the reduced model."""
    return stirling_first(n - 1, k)


def expected_dims(n: int) -> dict:
    """Assembled prediction tables for cross-checks against computed pages."""
    first_row = {p: expected_first_row(n, p) for p in range(0, n)}
    second_row = {p: expected_second_row_top_weight(n, p)
                  for p in range(0, n - 1)}
    antidiag = {k: expected_antidiagonal(n, k) for k in range(0, n)}
    return {"first_row": first_row, "second_row_top_weight": second_row,
            "antidiagonal": antidiag}
