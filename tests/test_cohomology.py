import itertools
from fractions import Fraction
from math import gcd

import pytest

from ellarr import arrangement as arr_mod
from ellarr import braid, cohomology
from ellarr.arrangement import Arrangement


class TestEssentialize:
    def test_braid(self):
        arr = braid.braid_arrangement(4)
        core, transform, nbars = cohomology.essentialize(arr)
        assert core.n == 3 and nbars == 1
        assert arr_mod.is_essential(core)

    def test_essential_unchanged(self, example_arrangement):
        core, transform, nbars = cohomology.essentialize(example_arrangement)
        assert core is example_arrangement
        assert nbars == 0

    def test_one_divisor_in_e2(self):
        arr = Arrangement(2, ((2, 3),))
        core, transform, nbars = cohomology.essentialize(arr)
        assert core.n == 1 and nbars == 1
        assert arr_mod.is_essential(core)
        # transform is unimodular and kills the lower rows
        from ellarr import exactlin
        assert exactlin.det_int(transform) in (1, -1)
        un = exactlin.mat_mul(transform, arr.matrix())
        assert all(x == 0 for x in un[1])

    def test_offsets_survive_essentialization(self):
        # one translated divisor in the surface: (curve minus a point) x curve
        arr = Arrangement(2, ((1, 0),), ((Fraction(1, 3), Fraction(2, 3)),))
        core, _, nbars = cohomology.essentialize(arr)
        assert nbars == 1 and core.offsets == arr.offsets
        _, t3 = cohomology.betti_tables(cohomology.full_model(arr))
        assert t3.total_betti() == [1, 4, 5, 2]


class TestPageTables:
    def test_braid2(self):
        t3 = cohomology.page3_table(braid.braid_model(2))
        assert t3.total_betti() == [1, 2]

    def test_braid3_reduced(self, braid_page3):
        t3 = braid_page3[3]
        assert t3.dim(0, 0) == 1
        assert t3.dim(1, 0) == 4
        assert t3.dim(2, 0) == 3
        assert t3.dim(1, 1) == 2
        assert t3.total_betti() == [1, 4, 5]

    def test_braid3_full(self):
        _, t3 = cohomology.betti_tables(
            cohomology.full_model(braid.braid_arrangement(3)))
        assert t3.total_betti() == [1, 6, 14, 14, 5]

    def test_single_divisor_in_e1(self):
        t2, t3 = cohomology.betti_tables(
            cohomology.full_model(Arrangement(1, ((1,),))))
        assert t3.total_betti() == [1, 2]
        assert t2.euler() == t3.euler() == -1

    def test_empty_arrangement_e1(self):
        t2, t3 = cohomology.betti_tables(
            cohomology.full_model(Arrangement(1, ())))
        assert t3.total_betti() == [1, 2, 1]
        assert t2.euler() == 0

    def test_repeated_divisor_collapses(self):
        # listing the same divisor twice changes nothing
        t2, t3 = cohomology.betti_tables(
            cohomology.full_model(Arrangement(1, ((1,), (1,)))))
        assert t3.total_betti() == [1, 2]
        assert t2.euler() == -1

    def test_sign_flipped_equation_is_same_divisor(self):
        t2, t3 = cohomology.betti_tables(
            cohomology.full_model(Arrangement(1, ((1,), (-1,)))))
        assert t3.total_betti() == [1, 2]


class TestEuler:
    def test_braid3_essential_core(self, braid_models):
        assert cohomology.page2_table(braid_models[3]).euler() == 2

    def test_with_curve_factor_vanishes(self):
        t2, _ = cohomology.betti_tables(
            cohomology.full_model(braid.braid_arrangement(3)))
        assert t2.euler() == 0

    def test_empty(self):
        assert cohomology.betti_tables(
            cohomology.full_model(Arrangement(1, ())))[0].euler() == 0

    def test_page2_equals_page3(self, braid_models, braid_page3):
        for n in (3, 4, 5):
            t2 = cohomology.page2_table(braid_models[n])
            assert t2.euler() == braid_page3[n].euler()

    def test_example(self, example_model):
        t2 = cohomology.page2_table(example_model)
        t3 = cohomology.page3_table(example_model)
        assert t2.euler() == t3.euler()


class TestVanishing:
    def test_braid3_essentialized(self, braid_page3):
        t3 = braid_page3[3]
        assert all(p + q <= 2 for (p, q) in t3.entries)

    def test_example(self, example_model, example_arrangement):
        t2 = cohomology.page2_table(example_model)
        t3 = cohomology.page3_table(example_model)
        report = cohomology.verify_vanishing(example_arrangement, t3, t2, t3)
        assert report["ok"], report

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_braid_full(self, n, braid_models, braid_page3):
        arr = braid.braid_arrangement(n)
        t2c = cohomology.page2_table(braid_models[n])
        t3c = braid_page3[n]
        t3 = cohomology.tensor_with_curve(t3c, 1)
        report = cohomology.verify_vanishing(arr, t3, t2c, t3c)
        assert report["ok"], report

    def test_no_layers_above_rank(self, example_model):
        t2 = cohomology.page2_table(example_model)
        assert all(q <= 2 for (_, q) in t2.entries)


class TestFirstColumn:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_injective(self, n, braid_models):
        report = cohomology.verify_first_column(braid_models[n])
        assert report["ok"], report

    def test_bottom_is_one_dimensional(self, braid_models):
        for n, dga in braid_models.items():
            assert dga.dim(0, 0) == 1


class TestPosetInvariance:
    def test_example_pair_tables_identical(self, example_arrangement,
                                           example_prime_arrangement):
        tables_a = cohomology.betti_tables(
            cohomology.full_model(example_arrangement))
        tables_b = cohomology.betti_tables(
            cohomology.full_model(example_prime_arrangement))
        assert tables_a[0].entries == tables_b[0].entries
        assert tables_a[1].entries == tables_b[1].entries
        assert tables_a[1].weights == tables_b[1].weights


class TestPresentationInvariance:
    """The paper's theorem on random torsion inputs.

    A unimodular change of coordinates, a column permutation and column sign
    flips (each negating its divisor's offset, so the divisor stays the same
    set) present the same arrangement up to an automorphism of the ambient
    product.  The poset of layers is unchanged, so the tables must be too.
    """

    def test_presentations_agree(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        offset = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 3)])

        @st.composite
        def presented_pairs(draw):
            n = draw(st.integers(2, 3))
            m = draw(st.integers(3, 4))
            pool = [v for v in itertools.product(range(-2, 3), repeat=n)
                    if gcd(*v) == 1]
            cols = draw(st.lists(st.sampled_from(pool), min_size=m,
                                 max_size=m))
            offs = draw(st.lists(st.tuples(offset, offset), min_size=m,
                                 max_size=m))
            # unimodular U: a sign on the first row, then row additions
            u = [[int(i == j) for j in range(n)] for i in range(n)]
            if draw(st.booleans()):
                u[0] = [-x for x in u[0]]
            for i, j, k in draw(st.lists(st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1),
                    st.sampled_from([-1, 1])), max_size=3)):
                if i != j:
                    u[i] = [a + k * b for a, b in zip(u[i], u[j])]
            order = draw(st.permutations(range(m)))
            signs = draw(st.lists(st.sampled_from([1, -1]), min_size=m,
                                  max_size=m))
            new_cols, new_offs = [], []
            for j, s in zip(order, signs):
                new_cols.append(tuple(
                    s * sum(r * x for r, x in zip(row, cols[j])) for row in u))
                new_offs.append((s * offs[j][0], s * offs[j][1]))
            return (Arrangement(n, tuple(cols), tuple(offs)),
                    Arrangement(n, tuple(new_cols), tuple(new_offs)))

        @hyp.settings(max_examples=25, deadline=None, derandomize=True)
        @hyp.given(presented_pairs())
        def check(pair):
            (t2a, t3a), (t2b, t3b) = (
                cohomology.betti_tables(cohomology.full_model(arr))
                for arr in pair)
            assert t2a.entries == t2b.entries
            assert t3a.entries == t3b.entries
            assert t3a.weights == t3b.weights

        check()


class TestTranslatedDivisors:
    """Torsion offsets: the model of a curve minus several points."""

    def test_curve_minus_two_points(self):
        arr = Arrangement(1, ((1,), (1,)),
                          ((Fraction(0), Fraction(0)),
                           (Fraction(1, 2), Fraction(0))))
        t2, t3 = cohomology.betti_tables(cohomology.full_model(arr))
        assert t3.total_betti() == [1, 3]
        assert t2.euler() == -2

    def test_curve_minus_three_points(self):
        arr = Arrangement(1, ((1,), (1,), (1,)),
                          ((Fraction(0), Fraction(0)),
                           (Fraction(1, 2), Fraction(0)),
                           (Fraction(1, 3), Fraction(1, 3))))
        t2, t3 = cohomology.betti_tables(cohomology.full_model(arr))
        assert t3.total_betti() == [1, 4]
        assert t2.euler() == -3

    def test_product_with_translated_factor(self):
        # (curve minus 2 points) x curve via a rank-1 arrangement in E^2
        arr = Arrangement(2, ((1, 0), (1, 0)),
                          ((Fraction(0), Fraction(0)),
                           (Fraction(1, 2), Fraction(0))))
        _, t3 = cohomology.betti_tables(cohomology.full_model(arr))
        assert t3.total_betti() == [1, 5, 7, 3]


class TestSecondColumnLowerBound:
    """The standard-circuit cocycles force a page-3 lower bound at p = 1."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_proven_inequality(self, n, braid_page3):
        from math import comb, factorial
        t3 = braid_page3[n]
        for q in range(1, n - 1):
            assert t3.dim(1, q) >= 2 * comb(n, q + 2) * factorial(q)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_observed_values_reported(self, n, braid_page3):
        # observed equality is an open question: report, never assert
        from math import comb, factorial
        t3 = braid_page3[n]
        observed = {q: t3.dim(1, q) for q in range(1, n - 1)}
        bound = {q: 2 * comb(n, q + 2) * factorial(q) for q in range(1, n - 1)}
        print("n=%d observed e3(1,q): %s bound: %s" % (n, observed, bound))


class TestKuenneth:
    def test_tensor_with_curve(self):
        core = cohomology.page3_table(braid.braid_model(3))
        full = cohomology.tensor_with_curve(core, 1)
        for (p, q), v in full.entries.items():
            expect = (core.dim(p, q) + 2 * core.dim(p - 1, q)
                      + core.dim(p - 2, q))
            assert v == expect

    def test_direct_vs_kuenneth_betti(self):
        # two points on a curve: (punctured curve) x curve
        _, t3 = cohomology.betti_tables(
            cohomology.full_model(braid.braid_arrangement(2)))
        assert t3.total_betti() == [1, 4, 5, 2]


def _low_degree(table, top):
    return ({k: v for k, v in table.entries.items() if sum(k) <= top},
            {k: v for k, v in table.weights.items() if sum(k) <= top})


class TestMaxDegree:
    @pytest.mark.parametrize("name", ["C6", "K4", "example", "three-curves"])
    def test_restriction_is_exact(self, name, example_arrangement):
        from ellarr import formality
        from ellarr.model import BigradedDGA
        graphs = {
            "C6": (6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6))),
            "K4": (4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))),
            "three-curves": (5, ((1, 2), (3, 4))),
        }
        if name == "example":
            arr = example_arrangement
        else:
            arr = formality.graphic_arrangement(
                formality.SimpleGraph(*graphs[name]))
        model = cohomology.full_model(arr)
        full = cohomology.page3_table(model.core)
        low = cohomology.page3_table(BigradedDGA(model.core.arrangement),
                                     max_degree=2)
        assert (low.entries, low.weights) == _low_degree(full, 2)
        full_t = cohomology.tensor_with_curve(full, model.nbars)
        low_t = cohomology.tensor_with_curve(low, model.nbars)
        assert _low_degree(low_t, 2) == _low_degree(full_t, 2)
        t2, t3 = cohomology.betti_tables(
            cohomology.full_model(arr), max_degree=2)
        assert (t3.entries, t3.weights) == _low_degree(full_t, 2)
        full_t2, _ = cohomology.betti_tables(cohomology.full_model(arr))
        assert (t2.entries, t2.weights) == _low_degree(full_t2, 2)
