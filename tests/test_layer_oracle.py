"""Integer layer algebra against the rank- and Fraction-based rules it replaced.

NBC sets, fundamental circuits and coframe coordinates are read off integer
echelons and one fraction-free inverse per layer.  The oracles below are the
earlier rules: NBC sets by dense ranks of column subsets, circuits from the
support of a Fraction solve, and coordinates from a Fraction solve over
every flat column.
"""

from fractions import Fraction
from math import gcd

import pytest

from ellarr import arrangement as arr_mod
from ellarr import braid, cohomology, exactlin
from ellarr.arrangement import Arrangement

TORSION = Arrangement(2, ((1, 0), (1, 2), (0, 1)),
                      ((Fraction(1, 2), 0), (0, 0), (0, Fraction(1, 3))))


def worked_example(k):
    return Arrangement(2, ((1, 0), (1, k), (2, k)))


INPUTS = ([braid.braid_arrangement(n) for n in (3, 4, 5, 6)]
          + [worked_example(k) for k in (1, 3, 5, 9)] + [TORSION])
IDS = (["braid%d" % n for n in (3, 4, 5, 6)]
       + ["example-k%d" % k for k in (1, 3, 5, 9)] + ["torsion"])


def nbc_oracle(arr, layer):
    # prefix growth in increasing order, pruned by dense subset ranks
    def rank(idx):
        return exactlin.rational_rank(arr.submatrix_t(sorted(idx))) if idx else 0

    def in_closure(e, idx):
        return rank(set(idx) | {e}) == rank(idx)

    ground = sorted(layer.flat)
    out = []

    def extend(iset):
        if len(iset) == layer.rank:
            out.append(iset)
            return
        start = ground.index(iset[-1]) + 1 if iset else 0
        for j in ground[start:]:
            nxt = iset + (j,)
            if rank(nxt) < len(nxt):
                continue
            if any(e not in nxt and in_closure(e, [i for i in nxt if i > e])
                   for e in ground if e < j):
                continue
            extend(nxt)

    extend(())
    return out


def circuit_oracle(arr, e, independent):
    # the support of the Fraction solution of independent * x = column e,
    # or None when there is none
    cols = sorted(independent)
    mat = [[arr.columns[j][i] for j in cols] for i in range(arr.n)]
    sol = exactlin.solve_linear(mat, [[x] for x in arr.columns[e]])
    if sol is None:
        return None
    return tuple(sorted([e] + [cols[k] for k in range(len(cols)) if sol[k][0]]))


def coordinate_oracle_rows(dga, layer_id):
    # coframe rows of a Fraction particular solution over every flat column
    flat = sorted(dga.poset.layers[layer_id].flat)
    cols = flat + list(dga.coframe(layer_id))
    mat = [[dga.arrangement.columns[j][i] for j in cols] for i in range(dga.n)]
    return exactlin.solve_linear(mat, exactlin.identity(dga.n))[len(flat):]


def apply_rows(rows, vec):
    return tuple(sum(row[k] * vec[k] for k in range(len(vec))) for row in rows)


def assert_nbc_matches(arr):
    poset = arr_mod.build_poset(arr)
    for layer in poset.layers:
        assert arr_mod.nbc_sets(arr, layer) == nbc_oracle(arr, layer), layer.index


def assert_circuits_match(arr):
    want = set()
    for ind in arr_mod.independent_sets(arr):
        for e in range(arr.size):
            if e not in ind:
                circ = circuit_oracle(arr, e, ind)
                assert arr_mod.fundamental_circuit(arr, e, ind) == circ
                if circ is not None:
                    want.add(circ)
    assert arr_mod.circuits(arr) == sorted(want)


def assert_coordinates_match(arr):
    dga = cohomology.full_model(arr).core
    probe = [Fraction(k, 2) for k in range(1, dga.n + 1)]
    fractions = 0
    for lid in range(dga.poset.size):
        rows = coordinate_oracle_rows(dga, lid)
        for col, vec in enumerate(dga.arrangement.columns):
            got = dga.reduce_column(lid, col)
            assert got == apply_rows(rows, vec)
            # integral coordinates are ints, as the differential expects
            assert all(type(x) is (int if x.denominator == 1 else Fraction)
                       for x in got)
            fractions += any(type(x) is Fraction for x in got)
        assert dga.reduce_vector(lid, probe) == apply_rows(rows, probe)
    return fractions


def random_inputs():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    offset = st.sampled_from([Fraction(0), Fraction(1, 2),
                              Fraction(1, 3), Fraction(2, 3)])

    def arrangements(n):
        col = st.lists(st.integers(-2, 2), min_size=n,
                       max_size=n).filter(lambda v: gcd(*v) == 1)
        div = st.tuples(col, st.tuples(offset, offset))
        return st.lists(div, min_size=3, max_size=5).map(
            lambda ds: Arrangement(n, tuple(tuple(c) for c, _ in ds),
                                   tuple(o for _, o in ds)))

    def run(check):
        @hyp.settings(max_examples=30, deadline=None, derandomize=True)
        @hyp.given(st.integers(2, 3).flatmap(arrangements))
        def each(arr):
            check(arr)

        each()

    return run


class TestNbcOracle:
    @pytest.mark.parametrize("arr", INPUTS, ids=IDS)
    def test_fixed_inputs(self, arr):
        assert_nbc_matches(arr)

    def test_random_torsion_inputs(self):
        random_inputs()(assert_nbc_matches)


class TestCircuitOracle:
    @pytest.mark.parametrize("arr", INPUTS, ids=IDS)
    def test_fixed_inputs(self, arr):
        assert_circuits_match(arr)

    def test_random_torsion_inputs(self):
        random_inputs()(assert_circuits_match)

    def test_not_in_span(self):
        assert arr_mod.fundamental_circuit(braid.braid_arrangement(4), 5, (0,)) is None


class TestCoordinateOracle:
    @pytest.mark.parametrize("arr", INPUTS, ids=IDS)
    def test_fixed_inputs(self, arr):
        fractions = assert_coordinates_match(arr)
        if arr is TORSION:
            assert fractions == 3

    def test_random_torsion_inputs(self):
        random_inputs()(assert_coordinates_match)
