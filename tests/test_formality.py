import random
from fractions import Fraction

import pytest

from ellarr import braid, cohomology, exactlin, formality as fo
from ellarr.model import add


def full(graph):
    """The model the CLI builds for a graph input."""
    return cohomology.full_model(fo.graphic_arrangement(graph))


@pytest.fixture(scope="module")
def k3_model():
    return fo.GraphicModel(full(fo.complete_graph(3)))


class TestGraphs:
    def test_validation(self):
        with pytest.raises(ValueError):
            fo.SimpleGraph(3, ((1, 1),))
        with pytest.raises(ValueError):
            fo.SimpleGraph(2, ((1, 2), (2, 1)))

    def test_triangle_detection(self):
        assert fo.complete_graph(3).has_triangle() == (1, 2, 3)
        assert fo.SimpleGraph(4, ((1, 2), (2, 3), (3, 4), (1, 4))).has_triangle() is None

    def test_graphic_arrangement(self):
        g = fo.SimpleGraph(3, ((1, 2), (2, 3)))
        arr = fo.graphic_arrangement(g)
        assert arr.columns == ((1, -1, 0), (0, 1, -1))

    def test_complete_graph_is_braid(self):
        assert (fo.graphic_arrangement(fo.complete_graph(4)).columns
                == braid.braid_arrangement(4).columns)

    def test_four_cycle_circuit(self):
        from ellarr import arrangement as arr_mod
        g = fo.SimpleGraph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
        arr = fo.graphic_arrangement(g)
        assert arr_mod.circuits(arr) == [(0, 1, 2, 3)]

    def test_census(self):
        gs = fo.enumerate_graphs(5)
        per_n = {}
        for g in gs:
            per_n[g.n] = per_n.get(g.n, 0) + 1
        assert per_n == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}


class TestTwistedCohomology:
    def test_zero_twist_gives_h1_of_torus(self, k3_model):
        assert fo.twisted_cohomology_h1(k3_model, {}) == 6

    def test_edge_class_resonant(self, k3_model):
        z = k3_model.model.one_form([1, -1, 0], [0, 0, 0])
        assert fo.twisted_cohomology_h1(k3_model, z) >= 1
        assert fo.resonance_membership_page2(k3_model, z)

    def test_generic_class_not_resonant(self, k3_model):
        z = k3_model.model.one_form([1, -1, 0], [0, 0, 1])
        assert fo.twisted_cohomology_h1(k3_model, z) == 0
        assert not fo.resonance_membership_page2(k3_model, z)

    def test_one_differential_builder(self, k3_model):
        # twisting by zero is d itself; otherwise d's columns plus z*e
        gm = k3_model
        assert gm.twisted_matrix({}, 1) is gm.d_matrix(1)
        z = gm.model.one_form([2, -1, -1], [0, 1, -1])
        idx2 = gm.degree_index(2)
        for mono, col in zip(gm.degree_basis(1), gm.twisted_matrix(z, 1)):
            e = {mono: 1}
            image = add(gm.model.multiply(z, e), gm.model.d(e))
            assert col == {idx2[m]: c for m, c in image.items()}
        kernel = gm.kernel_degree_one()
        assert all(not gm.model.d(w) for w in kernel)
        assert len(kernel) == (len(gm.degree_basis(1))
                               - exactlin.sparse_rank(gm.d_matrix(1)))

    def test_non_closed_rejected(self, k3_model):
        w = k3_model.model.basis(0, 1)[0]
        with pytest.raises(ValueError):
            fo.twisted_cohomology_h1(k3_model, {w: Fraction(1)})

    def test_sampled_agreement_with_closed_form(self):
        rng = random.Random(271828)
        graphs = [fo.complete_graph(3),
                  fo.SimpleGraph(4, ((1, 2), (2, 3), (3, 4), (1, 4))),
                  fo.SimpleGraph(4, ((1, 2), (2, 3), (1, 3), (3, 4)))]
        for graph in graphs:
            gm = fo.GraphicModel(full(graph))
            n = graph.n
            for _ in range(25):
                if rng.random() < 0.5:
                    # random point of the union of edge planes
                    i, j = rng.choice(graph.edges)
                    a = Fraction(rng.randint(-3, 3))
                    b = Fraction(rng.randint(-3, 3))
                    xv = [0] * n
                    yv = [0] * n
                    xv[i - 1], xv[j - 1] = a, -a
                    yv[i - 1], yv[j - 1] = b, -b
                else:
                    xv = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
                    yv = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
                closed_form = fo.resonance_closed_form_page2(graph, xv, yv)
                z = gm.model.one_form(xv, yv)
                computed = fo.resonance_membership_page2(gm, z)
                assert computed == closed_form, (graph, xv, yv)

    def test_remaining_quarter_of_samples(self):
        # one hundred total sampled classes across the two routes
        rng = random.Random(314159)
        graph = fo.SimpleGraph(4, ((1, 2), (1, 3), (2, 3), (1, 4)))
        gm = fo.GraphicModel(full(graph))
        for _ in range(25):
            xv = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4)]
            yv = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4)]
            assert (fo.resonance_membership_page2(gm, gm.model.one_form(xv, yv))
                    == fo.resonance_closed_form_page2(graph, xv, yv))


class TestResonanceGap:
    def test_k3_witness(self, k3_model):
        z = k3_model.model.one_form([2, -1, -1], [0, 0, 0])
        assert fo.resonance_membership_page3(k3_model, z)
        assert not fo.resonance_membership_page2(k3_model, z)

    def test_k3_quadric_identity(self, k3_model):
        # the witness annihilates a matching one-form in the cohomology ring
        gm = k3_model
        z = gm.model.one_form([2, -1, -1], [0, 0, 0])
        w = gm.model.one_form([0, 0, 0], [2, -1, -1])
        zw = gm.model.multiply(z, w)
        # z*w is a coboundary: solve d1 * c = zw
        idx2 = gm.degree_index(2)
        mat = [[col.get(r, 0) for col in gm.d_matrix(1)]
               for r in range(len(idx2))]
        rhs = [[Fraction(0)] for _ in idx2]
        for m, c in zw.items():
            rhs[idx2[m]][0] = c
        assert exactlin.solve_linear(mat, rhs) is not None

    def test_edge_class_in_both(self, k3_model):
        z = k3_model.model.one_form([1, -1, 0], [0, 0, 0])
        assert fo.resonance_membership_page2(k3_model, z)
        assert fo.resonance_membership_page3(k3_model, z)


class TestTriangleFreeVanishing:
    @pytest.mark.parametrize("edges,n", [
        (((1, 2), (2, 3), (3, 4), (1, 4)), 4),      # four-cycle
        (((1, 2), (2, 3)), 3),                      # path
        (((1, 2), (2, 3), (3, 4), (4, 5)), 5),      # longer path
        (((1, 2), (1, 3), (1, 4), (1, 5)), 5),      # star
    ])
    def test_triangle_free_vanishing(self, edges, n):
        report = fo.verify_triangle_free_vanishing(
            full(fo.SimpleGraph(n, edges)))
        assert report["ok"], report

    def test_k3_kernel_dimension(self):
        report = fo.verify_triangle_free_vanishing(full(fo.complete_graph(3)))
        assert not report["ok"]
        assert report["values"]["e3_1_1"] == 2
        assert report["values"]["e3_0_1"] == 0
        assert report["values"]["e3_0_2"] == 0


class TestOneFormal:
    def test_k3(self):
        k3 = fo.complete_graph(3)
        formal, cert = fo.is_one_formal(k3, full(k3))
        assert not formal
        assert cert["gap_certified"]
        assert cert["xcoeffs"] == [2, -1, -1]

    def test_trees(self):
        for edges, n in [(((1, 2),), 2), (((1, 2), (2, 3)), 3),
                         (((1, 2), (1, 3), (1, 4)), 4)]:
            graph = fo.SimpleGraph(n, edges)
            formal, cert = fo.is_one_formal(graph, full(graph))
            assert formal and cert["vanishing"]["ok"]

    def test_four_cycle(self):
        graph = fo.SimpleGraph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
        formal, cert = fo.is_one_formal(graph, full(graph))
        assert formal

    def test_k4(self):
        k4 = fo.complete_graph(4)
        formal, cert = fo.is_one_formal(k4, full(k4))
        assert not formal and cert["gap_certified"]

    @pytest.mark.parametrize("graph", [
        fo.complete_graph(4),
        fo.SimpleGraph(4, ((1, 2), (1, 3), (2, 3), (3, 4)))], ids=["K4", "paw"])
    def test_ranks_leave_cached_d_matrix(self, graph, monkeypatch):
        # the rank kernel shares primitive int columns with its caller
        made = []

        class Recording(fo.GraphicModel):
            def __init__(self, model):
                super().__init__(model)
                made.append(self)

        monkeypatch.setattr(fo, "GraphicModel", Recording)
        model = full(graph)
        formal, cert = fo.is_one_formal(graph, model)
        assert not formal and cert["gap_certified"]
        (gm,) = made
        cols = gm.d_matrix(1)
        fresh = fo.GraphicModel(model).d_matrix(1)
        assert cols is gm._d_cols[1] and cols is not fresh
        assert [[(r, type(v), v) for r, v in col.items()] for col in cols] == [
            [(r, type(v), v) for r, v in col.items()] for col in fresh]

    @pytest.mark.parametrize("max_n", [4])
    def test_census_agreement(self, max_n):
        for graph in fo.enumerate_graphs(max_n):
            formal, cert = fo.is_one_formal(graph, full(graph))
            assert formal == (graph.has_triangle() is None)
            if not formal:
                assert cert["gap_certified"]


class TestQuotientComparison:
    @pytest.mark.parametrize("edges,n", [
        (((1, 2), (2, 3), (3, 4), (1, 4)), 4),
        (((1, 2), (2, 3)), 3),
        ((), 2),
    ])
    def test_one_isomorphism_dimensions(self, edges, n):
        graph = fo.SimpleGraph(n, edges)
        report = fo.one_isomorphism_report(graph, full(graph))
        assert report["ok"], report
