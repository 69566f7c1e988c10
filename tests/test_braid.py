import itertools
from fractions import Fraction
from math import comb, factorial

import pytest

from ellarr import braid, cohomology, exactlin
from ellarr.model import scale, sub
from ellarr.reptheory import LABEL_WEIGHT


class TestArrangement:
    def test_n2(self):
        arr = braid.braid_arrangement(2)
        assert arr.columns == ((1, -1),)

    def test_n3(self):
        arr = braid.braid_arrangement(3)
        assert arr.columns == ((1, -1, 0), (1, 0, -1), (0, 1, -1))

    def test_n4_count(self):
        assert braid.braid_arrangement(4).size == comb(4, 2)

    def test_quotient_intervals(self):
        # the essential core is the quotient in consecutive differences:
        # pair (i, j) becomes the interval i..j-1, one curve factor splits off
        for n in range(2, 8):
            core, transform, nbars = cohomology.essentialize(
                braid.braid_arrangement(n))
            assert core.columns == tuple(
                tuple(1 if i <= c < j else 0 for c in range(1, n))
                for i, j in braid.braid_pairs(n))
            assert transform == [[1 if c <= r else 0 for c in range(n)]
                                 for r in range(n)]
            assert exactlin.det_int(transform) in (1, -1)
            assert nbars == 1


class TestStirling:
    def test_small_values(self):
        assert braid.stirling_first(3, 2) == 3
        assert braid.stirling_first(4, 2) == 11
        assert braid.stirling_first(6, 1) == 120

    def test_row_sums(self):
        for n in range(1, 8):
            assert sum(braid.stirling_first(n, k)
                       for k in range(1, n + 1)) == factorial(n)

    def test_table_identity(self):
        # s(n,m) = sum_k (-1)^(m-k) s(n+1, k+1) C(k, m)
        for n in range(1, 11):
            for m in range(1, n + 1):
                rhs = sum((-1) ** ((m - k) % 2) * braid.stirling_first(n + 1, k + 1)
                          * comb(k, m) for k in range(m, n + 1))
                assert braid.stirling_first(n, m) == rhs


class TestForests:
    @pytest.mark.parametrize("n,k,count", [(3, 1, 3), (4, 2, 11), (5, 0, 1),
                                           (5, 4, 24), (6, 3, 225)])
    def test_counts(self, n, k, count):
        got = braid.decreasing_forests(n, k)
        assert len(got) == count == braid.stirling_first(n, n - k)
        assert len(set(got)) == len(got)
        assert all(f.is_decreasing() for f in got)

    def test_not_decreasing_detected(self):
        bad = braid.Forest(3, [(1, 3), (1, 2)])
        assert not bad.is_decreasing()

    def test_roots_are_maxima(self):
        for f in braid.decreasing_forests(5, 3):
            for comp in f.components():
                assert max(comp) in f.roots()

    def test_labelled_count_total(self):
        # 4 labels per root
        total = sum(4 ** (n_roots := len(f.roots()) * 0 + len(f.roots()))
                    for f in braid.decreasing_forests(4, 2))
        counts = braid.labelled_forest_counts(4)
        assert sum(v for (p, q), v in counts.items() if q == 2) == total

    @pytest.mark.parametrize("n", range(1, 7))
    def test_labelled_counts_match_enumeration(self, n):
        want = {}
        for forest, labels in braid.labelled_forests(n):
            key = braid.labelled_forest_bidegree(forest, labels)
            want[key] = want.get(key, 0) + 1
        assert braid.labelled_forest_counts(n) == want


class TestForestElements:
    @pytest.mark.parametrize("n", [3, 4])
    def test_basis_property(self, n):
        full = braid.braid_full_model(n)
        by_bidegree = {}
        for forest, labels in braid.labelled_forests(n):
            key = braid.labelled_forest_bidegree(forest, labels)
            by_bidegree.setdefault(key, []).append((forest, labels))
        for (p, q), items in by_bidegree.items():
            idx = full.index(p, q)
            cols = []
            for forest, labels in items:
                e = braid.forest_element(full, n, forest, labels)
                cols.append({idx[m]: c for m, c in e.items()})
            assert len(cols) == full.dim(p, q)
            assert exactlin.sparse_rank(cols) == full.dim(p, q)

    def test_empty_forest_unit(self):
        full = braid.braid_full_model(3)
        f = braid.Forest(3, [])
        elem = braid.forest_element(full, 3, f, {1: "1", 2: "1", 3: "1"})
        assert elem == full.unit()

    def test_figure_forest(self):
        # seven vertices, edges 13/23/45/57, roots labelled x,1,xy
        n = 7
        full = braid.braid_full_model(n)
        forest = braid.Forest(n, [(1, 3), (2, 3), (4, 5), (5, 7)])
        assert forest.is_decreasing()
        assert forest.roots() == [3, 6, 7]
        labels = {3: "x", 6: "1", 7: "xy"}
        elem = braid.forest_element(full, n, forest, labels)
        assert elem
        assert {full.bidegree_of(m) for m in elem} == {(3, 4)}
        # equals the ordered product x3 x7 y7 w13 w23 w45 w57
        direct = full.include_core(braid.omega_of_edge_list(
            full.core, n, [(1, 3), (2, 3), (4, 5), (5, 7)]))
        for vert, kind in [(7, 1), (7, 0), (3, 0)]:
            direct = full.multiply(braid.coordinate_form(full, n, vert, kind),
                                   direct)
        assert not sub(elem, direct)

    def test_support_and_shape(self):
        forest = braid.Forest(7, [(1, 3), (2, 3), (4, 5), (5, 7)])
        assert [sorted(c) for c in forest.support()] == [[1, 2, 3], [4, 5, 7], [6]]
        assert forest.shape() == (3, 3, 1)


class TestBamboo:
    def test_n3(self):
        got = braid.standard_bamboo_basis(3, 2)
        assert len(got) == 2 == braid.stirling_first(3, 1)

    def test_figure_pair(self):
        # the two standard bamboos behind the straightening at n=7
        b1 = braid.Forest(7, [(1, 2), (2, 3), (4, 5), (5, 7)])
        b2 = braid.Forest(7, [(1, 2), (1, 3), (4, 5), (5, 7)])
        assert b1.is_standard_bamboo() and b2.is_standard_bamboo()
        bad = braid.Forest(7, [(1, 3), (2, 3), (4, 5), (5, 7)])
        assert bad.is_bamboo() and not bad.is_standard_bamboo()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_counts_match_stirling(self, n):
        for k in range(n):
            assert (len(braid.standard_bamboo_basis(n, k))
                    == braid.stirling_first(n, n - k))

    def test_bamboo_straightening_identity(self):
        model = braid.braid_model(7)
        lhs = braid.omega_of_edge_list(model, 7, [(1, 3), (2, 3), (4, 5), (5, 7)])
        b1 = braid.omega_of_edge_list(model, 7, [(1, 2), (2, 3), (4, 5), (5, 7)])
        b2 = braid.omega_of_edge_list(model, 7, [(1, 2), (1, 3), (4, 5), (5, 7)])
        assert not sub(lhs, sub(b1, b2))


class TestCircuits:
    def test_count_all(self):
        assert len(braid.all_circuits(3, 3)) == comb(3, 3) * factorial(3)
        assert len(braid.all_circuits(5, 4)) == comb(5, 4) * factorial(4)

    def test_undirected_cycle_count(self):
        # each undirected cycle of length k carries 2k (orientation, start) pairs
        for n, k in [(4, 3), (5, 3), (5, 4), (6, 5)]:
            cycles = {frozenset(frozenset(e) for e in c.edges)
                      for c in braid.all_circuits(n, k)}
            assert len(cycles) == comb(n, k) * factorial(k - 1) // 2
            assert len(braid.all_circuits(n, k)) == len(cycles) * 2 * k

    def test_count_standard(self):
        assert len(braid.standard_circuits(4, 3)) == 4
        for n, k in [(5, 3), (5, 4), (6, 3), (6, 5)]:
            assert (len(braid.standard_circuits(n, k))
                    == comb(n, k) * factorial(k - 2))
        for c in braid.standard_circuits(6, 4):
            assert c.is_standard()

    def test_invalid_circuits(self):
        with pytest.raises(ValueError):
            braid.Circuit([(1, 2), (2, 3)])
        with pytest.raises(ValueError):
            braid.Circuit([(1, 2), (2, 3), (3, 2)])


class TestCocycles:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_closed_all_circuits(self, n):
        full = braid.braid_full_model(n)
        model = full.core
        for k in range(3, n + 1):
            for circ in braid.all_circuits(n, k):
                lc, lcp = braid.circuit_cocycles(full, circ)
                assert model.d(lc) == {}
                assert model.d(lcp) == {}

    def test_bidegree(self):
        full = braid.braid_full_model(4)
        model = full.core
        circ = braid.standard_circuits(4, 4)[0]
        lc, _ = braid.circuit_cocycles(full, circ)
        assert {model.bidegree_of(m) for m in lc} == {(1, 2)}

    def test_orientation_reversal_sign(self):
        # sign is (-1)^binom(k-2, 2)
        for n, k in [(4, 3), (4, 4), (5, 5)]:
            full = braid.braid_full_model(n)
            circ = braid.standard_circuits(n, k)[0]
            lc, _ = braid.circuit_cocycles(full, circ)
            lr, _ = braid.circuit_cocycles(full, circ.reversed())
            sign = -1 if comb(k - 2, 2) % 2 else 1
            assert not sub(lr, scale(lc, sign))

    @pytest.mark.parametrize("n,q", [(3, 1), (4, 1), (4, 2), (5, 1), (5, 2),
                                     (5, 3)])
    def test_rank_of_standard_span(self, n, q):
        assert (braid.cocycle_span_rank(braid.braid_full_model(n), q)
                == 2 * comb(n, q + 2) * factorial(q))

    def test_independence_report(self):
        report = braid.independence_check(4, 1)
        assert report == {"vectors": 8, "rank": 8, "expected": 8, "ok": True}

    def test_triangle_projects_to_bamboo(self):
        # expanding the triangle cocycle in the forest basis leaves exactly
        # the deleted-bamboo coefficient on its support
        n = 3
        full = braid.braid_full_model(n)
        circ = braid.Circuit([(3, 2), (2, 1), (1, 3)])
        lc, lcp = braid.circuit_cocycles(full, circ)
        lc_full = full.include_core(lc)
        idx = full.index(1, 1)
        mat = []
        basis_forests = [fl for fl in braid.labelled_forests(n)
                         if braid.labelled_forest_bidegree(*fl) == (1, 1)]
        for forest, labels in basis_forests:
            e = braid.forest_element(full, n, forest, labels)
            mat.append([e.get(m, Fraction(0)) for m in idx])
        rhs = [[lc_full.get(m, Fraction(0))] for m in idx]
        sol = exactlin.solve_linear([list(col) for col in zip(*mat)], rhs)
        assert sol is not None
        # the bamboo: delete the two edges at the top vertex, root label x
        target = braid.Forest(n, [(1, 2)])
        coeffs = {}
        for (forest, labels), val in zip(basis_forests, (row[0] for row in sol)):
            if val:
                coeffs[(forest.edges, tuple(sorted(labels.items())))] = val
        key = (target.edges, ((2, "1"), (3, "x")))
        assert key in coeffs and abs(coeffs[key]) == 1
        # the primed cocycle has no x-side support there
        lcp_full = full.include_core(lcp)
        rhs2 = [[lcp_full.get(m, Fraction(0))] for m in idx]
        sol2 = exactlin.solve_linear([list(col) for col in zip(*mat)], rhs2)
        for (forest, labels), val in zip(basis_forests,
                                         (row[0] for row in sol2)):
            if dict(labels)[3] == "x" and val:
                assert forest.edges != target.edges


class TestTutte:
    def test_base_cases(self):
        assert braid.tutte_polynomial(2) == {(1, 0): 1}
        assert braid.tutte_polynomial(3) == {(2, 0): 1, (1, 0): 1, (0, 1): 1}

    def test_poincare_product(self):
        assert braid.poincare_hyperplane(3) == [1, 3, 2]
        assert braid.poincare_hyperplane(4) == [1, 6, 11, 6]

    def test_poincare_matches_stirling(self):
        for n in range(2, 8):
            coeffs = braid.poincare_hyperplane(n)
            for q, c in enumerate(coeffs):
                assert c == braid.stirling_first(n, n - q)

    def test_specialization_corrected(self):
        for n in range(2, 7):
            assert (braid.tutte_specialization(n, corrected=True)
                    == braid.poincare_hyperplane(n))

    def test_specialization_printed_fails(self):
        assert (braid.tutte_specialization(3, corrected=False)
                != braid.poincare_hyperplane(3))

    def test_against_deletion_contraction(self):
        for n in range(2, 7):
            assert braid.tutte_polynomial(n) == tutte_oracle_complete(n)


def tutte_oracle_complete(n):
    """Deletion-contraction on explicit multigraphs, loops/bridges terminal."""
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return _tutte_multigraph(list(range(1, n + 1)), edges)


def _tutte_multigraph(vertices, edges):
    if not edges:
        return {(0, 0): 1}
    (a, b), rest = edges[0], edges[1:]
    if a == b:                                   # loop: factor y
        out = {}
        for (i, j), c in _tutte_multigraph(vertices, rest).items():
            out[(i, j + 1)] = out.get((i, j + 1), 0) + c
        return out
    if _is_bridge(vertices, edges, (a, b)):      # bridge: factor x, contract
        contracted = _contract(vertices, rest, a, b)
        out = {}
        for (i, j), c in _tutte_multigraph(*contracted).items():
            out[(i + 1, j)] = out.get((i + 1, j), 0) + c
        return out
    deletion = _tutte_multigraph(vertices, rest)
    contraction = _tutte_multigraph(*_contract(vertices, rest, a, b))
    out = dict(deletion)
    for k, c in contraction.items():
        out[k] = out.get(k, 0) + c
    return {k: v for k, v in out.items() if v}


def _contract(vertices, edges, a, b):
    new_edges = []
    for (u, v) in edges:
        u2 = a if u == b else u
        v2 = a if v == b else v
        new_edges.append((min(u2, v2), max(u2, v2)))
    return [v for v in vertices if v != b], new_edges


def _is_bridge(vertices, edges, edge):
    def comp_count(es):
        parent = {v: v for v in vertices}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for (u, v) in es:
            if u != v:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
        return len({find(v) for v in vertices})

    removed_one = list(edges)
    removed_one.remove(edge)          # exactly one copy: parallels stay
    return comp_count(edges) < comp_count(removed_one)


class TestExpectedDims:
    def test_first_row_values(self):
        assert [braid.expected_first_row(4, p) for p in range(4)] == [1, 6, 9, 4]

    def test_second_row_value(self):
        assert braid.expected_second_row_top_weight(3, 1) == 1

    def test_antidiagonal_value(self):
        assert braid.expected_antidiagonal(3, 1) == 1

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_first_row_against_model(self, n, braid_page3):
        t3 = braid_page3[n]
        for p in range(2 * (n - 1) + 1):
            assert t3.dim(p, 0) == braid.expected_first_row(n, p)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_second_row_against_model(self, n, braid_page3):
        t3 = braid_page3[n]
        for p in range(2 * (n - 1)):
            assert (t3.sl2_multiplicity(p, 1, p)
                    == braid.expected_second_row_top_weight(n, p))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_antidiagonal_against_model(self, n, braid_page3):
        t3 = braid_page3[n]
        for k in range(n):
            assert (t3.sl2_multiplicity(k, n - 1 - k, k)
                    == braid.expected_antidiagonal(n, k))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_e2_closed_form(self, n, braid_models):
        t2 = cohomology.page2_table(braid_models[n])
        for (p, q) in t2.entries:
            for k in range(p + 1):
                assert (t2.sl2_multiplicity(p, q, k)
                        == braid.e2_weight_multiplicity(n, p, q, k, reduced=True))

    def test_schur_dimension_examples(self):
        assert braid.schur_dimension((1, 1), 4) == comb(4, 2)
        assert braid.schur_dimension((2, 1), 3) == 8
        assert braid.schur_dimension((2, 1), 3) == count_ssyt((2, 1), 3)
        # zero parts are dropped wherever they stand
        assert braid.schur_dimension((0, 1), 1) == 1

    def test_schur_against_ssyt_oracle(self):
        for lam in [(1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2)]:
            for m in (2, 3, 4):
                assert braid.schur_dimension(lam, m) == count_ssyt(lam, m)


def count_ssyt(lam, m):
    """Semistandard tableaux of shape lam with entries <= m, by brute force."""
    cells = [(r, c) for r, row_len in enumerate(lam) for c in range(row_len)]
    total = 0
    for fill in itertools.product(range(1, m + 1), repeat=len(cells)):
        t = {cell: v for cell, v in zip(cells, fill)}
        ok = True
        for (r, c), v in t.items():
            if (r, c + 1) in t and t[(r, c + 1)] < v:
                ok = False
                break
            if (r + 1, c) in t and t[(r + 1, c)] <= v:
                ok = False
                break
        total += ok
    return total


class TestStirlingColumn:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_first_column_dims(self, n, braid_models):
        model = braid_models[n]
        for q in range(n):
            assert model.dim(0, q) == braid.stirling_first(n, n - q)

    def test_first_column_dims_seven(self):
        model = braid.braid_model(7)
        for q in range(7):
            assert model.dim(0, q) == braid.stirling_first(7, 7 - q)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_forest_counts_match_dims(self, n, braid_models):
        t2 = cohomology.tensor_with_curve(
            cohomology.page2_table(braid_models[n]), 1)
        assert braid.labelled_forest_counts(n) == dict(t2.entries)

    @pytest.mark.parametrize("n", [3, 4])
    def test_forest_counts_by_weight(self, n, braid_models):
        # root labels also predict the torus-weight refinement
        t2 = cohomology.tensor_with_curve(
            cohomology.page2_table(braid_models[n]), 1)
        counts = {}
        for forest, labels in braid.labelled_forests(n):
            key = braid.labelled_forest_bidegree(forest, labels)
            w = sum(LABEL_WEIGHT[l] for l in labels.values())
            counts.setdefault(key, {})
            counts[key][w] = counts[key].get(w, 0) + 1
        assert counts == t2.weights
