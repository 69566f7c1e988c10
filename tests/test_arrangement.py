import copy
import pickle
import random
from fractions import Fraction
from math import gcd, prod

import pytest

from ellarr import arrangement as arr_mod
from ellarr import braid, exactlin
from ellarr.arrangement import Arrangement, ArrangementError


def braid_cols(n):
    return braid.braid_arrangement(n)


def index_mask(indices):
    """An index set as the int mask the poset uses: bit i for column i."""
    return sum(1 << i for i in indices)


def index_tuple(mask):
    """The columns of an index set mask, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


class TestValidation:
    def test_gcd_rejected(self):
        with pytest.raises(ArrangementError, match="gcd"):
            Arrangement(1, ((5,),))

    def test_zero_column_rejected(self):
        with pytest.raises(ArrangementError):
            Arrangement(2, ((0, 0),))

    def test_length_mismatch(self):
        with pytest.raises(ArrangementError):
            Arrangement(2, ((1,),))

    def test_offsets_reduced(self):
        a = Arrangement(1, ((1,),), ((Fraction(7, 5), Fraction(-1, 5)),))
        assert a.offsets[0] == (Fraction(2, 5), Fraction(4, 5))

    def test_records_are_immutable_values(self):
        from ellarr.formality import SimpleGraph
        a = Arrangement(2, ((1, 0), (1, 5)), ((Fraction(3, 2), 0), (0, 0)))
        b = Arrangement(2, [[1, 0], [1, 5]], [("1/2", 0), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != Arrangement(2, ((1, 0), (1, 5)))
        layer = arr_mod.build_poset(a).layers[1]
        graph = SimpleGraph(3, ((2, 1), (3, 2)))
        for record, field in ((a, "n"), (layer, "index"), (graph, "edges")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
            again = pickle.loads(pickle.dumps(record))
            assert repr(again) == repr(copy.deepcopy(record)) == repr(record)
        assert pickle.loads(pickle.dumps(a)) == a


class TestMatroidData:
    def test_example_independent_sets(self, example_arrangement):
        got = arr_mod.independent_sets(example_arrangement)
        expected = [(), (0,), (0, 1), (0, 2), (1,), (1, 2), (2,)]
        assert got == expected

    def test_single_column(self):
        a = Arrangement(1, ((1,),))
        assert arr_mod.independent_sets(a) == [(), (0,)]

    def test_braid3_independents(self):
        got = arr_mod.independent_sets(braid_cols(3))
        assert all(len(i) <= 2 for i in got)
        assert len(got) == 1 + 3 + 3

    def test_example_circuits(self, example_arrangement):
        assert arr_mod.circuits(example_arrangement) == [(0, 1, 2)]

    def test_braid3_circuits(self):
        assert arr_mod.circuits(braid_cols(3)) == [(0, 1, 2)]

    def test_parallel_columns(self):
        a = Arrangement(1, ((1,), (1,)))
        assert arr_mod.circuits(a) == [(0, 1)]

    def test_braid4_circuits_are_cycles(self):
        got = arr_mod.circuits(braid_cols(4))
        # 4 triangles plus 3 four-cycles in the complete graph on 4 vertices
        assert len(got) == 7
        assert sorted(len(c) for c in got) == [3, 3, 3, 3, 4, 4, 4]


class TestComponents:
    def test_empty_set(self, example_arrangement):
        layers = arr_mod.components_of(example_arrangement, ())
        assert len(layers) == 1 and layers[0].rank == 0

    def test_example_pair_25(self, example_arrangement):
        layers = arr_mod.components_of(example_arrangement, (0, 1))
        assert len(layers) == 25
        assert all(l.rank == 2 for l in layers)

    def test_braid_unimodular_single(self):
        layers = arr_mod.components_of(braid_cols(3), (0,))
        assert len(layers) == 1

    def test_dependent_faults(self, example_arrangement):
        with pytest.raises(ArrangementError):
            arr_mod.components_of(example_arrangement, (0, 1, 2))


class TestPoset:
    def test_single_divisor(self):
        poset = arr_mod.build_poset(Arrangement(1, ((1,),)))
        assert poset.counts_by_rank() == {0: 1, 1: 1}

    def test_example_29_layers(self, example_poset):
        assert example_poset.counts_by_rank() == {0: 1, 1: 3, 2: 25}
        assert example_poset.size == 29

    def test_braid3_five_layers(self):
        poset = arr_mod.build_poset(braid_cols(3))
        assert poset.counts_by_rank() == {0: 1, 1: 3, 2: 1}

    def test_graded(self, example_poset):
        poset = example_poset
        for a in range(poset.size):
            for b in range(poset.size):
                if a != b and poset.leq(a, b):
                    diff = poset.rank(b) - poset.rank(a)
                    assert diff > 0
                    if diff >= 2:
                        mid = [c for c in range(poset.size)
                               if poset.leq(a, c) and poset.leq(c, b)
                               and poset.rank(c) == poset.rank(a) + 1]
                        assert mid

    def test_dedup_by_point_sets(self, example_arrangement, example_poset):
        # the three pairwise intersections give the same 25 points
        families = [example_poset.layers_associated(index_mask(pair))
                    for pair in ((0, 1), (0, 2), (1, 2))]
        assert all(len(f) == 25 for f in families)
        assert set(families[0]) == set(families[1]) == set(families[2])
        assert len(example_poset.by_rank[2]) == 25
        # and the witnesses really are the common torsion points
        for lid in families[0]:
            layer = example_poset.layers[lid]
            w1, w2 = layer.witness1, layer.witness2
            assert w1[0] == 0 and w2[0] == 0
            assert (5 * w1[1]).denominator == 1
            assert (5 * w2[1]).denominator == 1

    def test_exhaustive_membership_small(self):
        # dedup cross-checked against explicit torsion point sets
        a = Arrangement(1, ((1,), (1,)))
        poset = arr_mod.build_poset(a)
        assert poset.counts_by_rank() == {0: 1, 1: 1}

    def test_component_counts_squared_divisors(self, example_arrangement,
                                               example_poset):
        from ellarr import exactlin
        for ind in arr_mod.independent_sets(example_arrangement):
            if not ind:
                continue
            divisors = exactlin.elementary_divisors(
                example_arrangement.submatrix_t(ind))
            product = 1
            for d in divisors:
                product *= d
            assoc = example_poset.layers_associated(index_mask(ind))
            assert len(assoc) == product ** 2

    def test_translated_divisors_disjoint(self):
        # two translates of the same divisor never meet
        a = Arrangement(1, ((1,), (1,)),
                        ((Fraction(0), Fraction(0)),
                         (Fraction(1, 2), Fraction(0))))
        poset = arr_mod.build_poset(a)
        assert poset.counts_by_rank() == {0: 1, 1: 2}
        assert poset.layers_associated(index_mask((0, 1))) == ()


class TestEssentialUnimodular:
    def test_example(self, example_arrangement):
        assert arr_mod.is_essential(example_arrangement)
        assert not arr_mod.is_unimodular(example_arrangement)

    def test_braid(self):
        for n in (3, 4):
            a = braid_cols(n)
            assert not arr_mod.is_essential(a)
            assert arr_mod.is_unimodular(a)

    def test_empty(self):
        a = Arrangement(1, ())
        assert not arr_mod.is_essential(a)
        assert arr_mod.is_unimodular(a)


class TestNbc:
    def test_braid3_top(self):
        poset = arr_mod.build_poset(braid_cols(3))
        top = poset.layers[poset.by_rank[2][0]]
        assert arr_mod.nbc_sets(braid_cols(3), top) == [index_mask((0, 1)),
                                                         index_mask((0, 2))]

    def test_rank_one(self, example_arrangement, example_poset):
        for lid in example_poset.by_rank[1]:
            layer = example_poset.layers[lid]
            i = min(index_tuple(layer.flat))
            assert arr_mod.nbc_sets(example_arrangement, layer) == [index_mask((i,))]

    def test_example_points(self, example_arrangement, example_poset):
        for lid in example_poset.by_rank[2]:
            layer = example_poset.layers[lid]
            assert arr_mod.nbc_sets(example_arrangement, layer) == [
                index_mask((0, 1)), index_mask((0, 2))]


class TestPosetIsomorphism:
    def test_example_pair(self, example_poset, example_prime_arrangement):
        other = arr_mod.build_poset(example_prime_arrangement)
        mapping = arr_mod.poset_isomorphic(example_poset, other)
        assert mapping is not None
        for a in range(example_poset.size):
            assert example_poset.rank(a) == other.rank(mapping[a])
            for b in range(example_poset.size):
                assert example_poset.leq(a, b) == other.leq(mapping[a], mapping[b])

    def test_chain_vs_antichain(self):
        chain = arr_mod.build_poset(Arrangement(1, ((1,),)))
        anti = arr_mod.build_poset(
            Arrangement(1, ((1,), (1,)),
                        ((Fraction(0), Fraction(0)),
                         (Fraction(1, 2), Fraction(0)))))
        assert arr_mod.poset_isomorphic(chain, anti) is None

    def test_self(self, example_poset):
        mapping = arr_mod.poset_isomorphic(example_poset, example_poset)
        assert mapping is not None


class TestBraidPartitionLattice:
    """The diagonal arrangement's poset is the partition lattice."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_layers_match_partitions(self, n):
        arr = braid_cols(n)
        poset = arr_mod.build_poset(arr)
        pairs = braid.braid_pairs(n)

        def partition_of(layer):
            parent = list(range(n + 1))

            def find(v):
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                return v

            for k in index_tuple(layer.flat):
                i, j = pairs[k]
                parent[find(i)] = find(j)
            return frozenset(frozenset(v for v in range(1, n + 1)
                                       if find(v) == r)
                             for r in range(1, n + 1) if find(r) == r)

        seen = {}
        for layer in poset.layers:
            part = partition_of(layer)
            assert part not in seen
            seen[part] = layer.index
            assert layer.rank == n - len(part)
        assert len(seen) == poset.size == braid.bell_number(n)

        # a layer sits below another exactly when its partition is finer
        def refines(p1, p2):
            return all(any(b1 <= b2 for b2 in p2) for b1 in p1)

        inv = {v: k for k, v in seen.items()}
        for a in range(poset.size):
            for b in range(poset.size):
                assert poset.leq(a, b) == refines(inv[a], inv[b])

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_counts_by_rank_stirling2(self, n):
        poset = arr_mod.build_poset(braid_cols(n))
        for q, count in poset.counts_by_rank().items():
            assert count == braid.stirling_second(n, n - q)


def _flat_oracle(arr, lattice, w1, w2):
    # divisors through the layer: in the lattice's span, through a point
    flat = set()
    for i, col in enumerate(arr.columns):
        if exactlin.rational_rank(list(lattice) + [col]) > len(lattice):
            continue
        v1 = sum(Fraction(c) * w for c, w in zip(col, w1))
        v2 = sum(Fraction(c) * w for c, w in zip(col, w2))
        if (v1 - arr.offsets[i][0]) % 1 == 0 and (v2 - arr.offsets[i][1]) % 1 == 0:
            flat.add(i)
    return index_mask(flat)


def _pairing_oracle(lattice, point):
    return tuple(sum(Fraction(r) * x for r, x in zip(row, point)) % 1
                 for row in lattice)


def _contains_oracle(outer, inner, memo):
    # the pairwise containment test, run on all L^2 pairs; ``memo`` keeps
    # the pairings of inner's point per (outer lattice, inner index)
    if outer.rank > inner.rank or outer.flat & ~inner.flat:
        return False
    key = (outer.lattice, inner.index)
    if key not in memo:
        memo[key] = (_pairing_oracle(outer.lattice, inner.witness1),
                     _pairing_oracle(outer.lattice, inner.witness2))
    return memo[key] == (outer.t1, outer.t2)


def assert_poset_matches_oracle(arr):
    poset = arr_mod.build_poset(arr)
    layers = poset.layers
    memo = {}
    for lay in layers:
        assert lay.flat == _flat_oracle(arr, lay.lattice, lay.witness1,
                                        lay.witness2)
        assert lay.t1 == _pairing_oracle(lay.lattice, lay.witness1)
        assert lay.t2 == _pairing_oracle(lay.lattice, lay.witness2)
    for a in layers:
        want = sum(1 << b.index for b in layers
                   if _contains_oracle(a, b, memo))
        assert poset._above[a.index] == want, a.index
    # leq is a partial order with the whole space (layer 0) as minimum
    for a in range(poset.size):
        assert poset.leq(0, a) and poset.leq(a, a)
        for b in range(poset.size):
            if a != b and poset.leq(a, b):
                assert not poset.leq(b, a)
                assert poset._above[b] & ~poset._above[a] == 0
    for iset, lids in poset.assoc.items():
        assert all(poset.rank(lid) == iset.bit_count() for lid in lids)
    assert poset.covers() == [(a, b) for a in range(poset.size)
                              for b in range(poset.size)
                              if poset.rank(b) == poset.rank(a) + 1
                              and poset.leq(a, b)]
    return poset


def worked_example(k):
    return Arrangement(2, ((1, 0), (1, k), (2, k)))


class TestPosetOracle:
    """Lookup containment against the pairwise test it replaced."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_braid(self, n):
        assert_poset_matches_oracle(braid_cols(n))

    @pytest.mark.parametrize("k", [5, 9])
    def test_worked_example(self, k):
        poset = assert_poset_matches_oracle(worked_example(k))
        assert poset.counts_by_rank() == {0: 1, 1: 3, 2: k * k}

    def test_worked_example_k31_size(self):
        assert arr_mod.build_poset(worked_example(31)).size == 965

    def test_random_torsion_inputs(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        offset = st.sampled_from([Fraction(0), Fraction(1, 2),
                                  Fraction(1, 3), Fraction(2, 3)])

        def primitive(v):
            return gcd(*v) == 1

        def arrangements(n):
            col = st.lists(st.integers(-2, 2), min_size=n,
                           max_size=n).filter(primitive)
            div = st.tuples(col, st.tuples(offset, offset))
            return st.lists(div, min_size=3, max_size=5).map(
                lambda ds: Arrangement(n, tuple(tuple(c) for c, _ in ds),
                                       tuple(o for _, o in ds)))

        @hyp.settings(max_examples=40, deadline=None, derandomize=True)
        @hyp.given(st.integers(2, 3).flatmap(arrangements))
        def check(arr):
            assert_poset_matches_oracle(arr)

        check()


def assert_assoc_matches_oracle(arr):
    # every independent set is associated to the layers of its rank whose
    # flat holds it, keyed by its bitmask; equal tuples are one object
    poset = arr_mod.build_poset(arr)
    isets = arr_mod.independent_sets(arr)
    assert sorted(poset.assoc) == sorted(sum(1 << i for i in ind)
                                         for ind in isets)
    shared = {}
    for ind in isets:
        want = tuple(lay.index for lay in poset.layers
                     if lay.rank == len(ind) and not index_mask(ind) & ~lay.flat)
        got = poset.layers_associated(index_mask(ind))
        assert got == want, ind
        assert got is shared.setdefault(got, got)
        assert poset.layers_associated(index_mask(reversed(ind))) is got
    return len(isets)


class TestAssociationOracle:
    """`assoc` against the layers whose flats hold each independent set."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_braid(self, n):
        assert_assoc_matches_oracle(braid_cols(n))

    @pytest.mark.parametrize("k", [1, 3, 5, 9])
    def test_worked_example(self, k):
        assert_assoc_matches_oracle(worked_example(k))

    def test_mixed_denominators(self):
        assert_assoc_matches_oracle(TestMixedDenominators.MIXED)

    def test_dependent_sets_have_no_layers(self):
        poset = arr_mod.build_poset(braid_cols(4))
        assert poset.layers_associated(index_mask((0, 1, 3))) == ()   # x1-x2, x1-x3, x2-x3
        assert poset.layers_associated(index_mask(())) == (0,)

    def test_random_torsion_inputs(self):
        rng = random.Random(20181)
        offsets = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)]
        sets = 0
        for _ in range(200):
            n = rng.randint(2, 3)
            size, cols = rng.randint(3, 5), []
            while len(cols) < size:
                col = tuple(rng.randint(-2, 2) for _ in range(n))
                if gcd(*col) == 1:
                    cols.append(col)
            offs = [(rng.choice(offsets), rng.choice(offsets)) for _ in cols]
            sets += assert_assoc_matches_oracle(
                Arrangement(n, tuple(cols), tuple(offs)))
        assert sets > 2000


def assert_layer_order(poset):
    # layer indices follow the Fraction keys (rank, lattice, t1, t2)
    keys = [(lay.rank, lay.lattice, lay.t1, lay.t2) for lay in poset.layers]
    assert all(isinstance(x, Fraction) for k in keys for x in k[2] + k[3])
    assert keys == sorted(keys)
    assert [lay.index for lay in poset.layers] == list(range(poset.size))


class TestMixedDenominators:
    """Posets whose sets have different torsion denominators."""

    MIXED = Arrangement(2, ((1, 0), (1, 3), (2, 3)),
                        ((Fraction(1, 2), 0), (0, Fraction(2, 5)), (0, 0)))

    def test_fixed_input(self):
        poset = assert_poset_matches_oracle(self.MIXED)
        assert poset.counts_by_rank() == {0: 1, 1: 3, 2: 27}
        assert sorted({x.denominator for lay in poset.layers
                       for x in lay.witness1 + lay.witness2}) == [
                           1, 2, 3, 5, 6, 15]
        assert_layer_order(poset)

    def test_point_shared_across_denominators(self):
        # (1/2, 0) lies on all three divisors; the sets {0, 1} and {1, 2}
        # give it over denominator 2, the set {0, 2} (divisors 1, 2) over 4
        arr = Arrangement(2, ((1, 0), (0, 1), (1, 2)),
                          ((Fraction(1, 2), 0), (0, 0), (Fraction(1, 2), 0)))
        poset = assert_poset_matches_oracle(arr)
        assert poset.counts_by_rank() == {0: 1, 1: 3, 2: 4}
        shared = set(poset.layers_associated(index_mask((0, 1))))
        assert shared == set(poset.layers_associated(index_mask((1, 2))))
        assert shared < set(poset.layers_associated(index_mask((0, 2))))
        assert_layer_order(poset)

    def test_random_inputs(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        offset = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 3),
                                  Fraction(1, 4), Fraction(2, 5),
                                  Fraction(3, 7)])

        def arrangements(n):
            col = st.lists(st.integers(-3, 3), min_size=n,
                           max_size=n).filter(lambda v: gcd(*v) == 1)
            div = st.tuples(col, st.tuples(offset, offset))
            return st.lists(div, min_size=2, max_size=4).map(
                lambda ds: Arrangement(n, tuple(tuple(c) for c, _ in ds),
                                       tuple(o for _, o in ds)))

        seen = set()

        @hyp.settings(max_examples=40, deadline=None, derandomize=True)
        @hyp.given(st.integers(2, 3).flatmap(arrangements))
        def check(arr):
            divisors = [exactlin.elementary_divisors(arr.submatrix_t(ind))
                        for ind in arr_mod.independent_sets(arr) if ind]
            # the oracle is quadratic in the layers: keep to small posets
            hyp.assume(sum(prod(ds) ** 2 for ds in divisors) <= 200)
            poset = assert_poset_matches_oracle(arr)
            assert_layer_order(poset)
            dens = {x.denominator for lay in poset.layers
                    for x in lay.witness1 + lay.witness2}
            tops = {ds[-1] for ds in divisors}
            seen.add((len(dens) > 2, max(tops, default=1) > 1, len(tops) > 1))

        check()
        # some draws mix several witness denominators, have torsion
        # divisors and sets whose last elementary divisors differ
        assert (True, True, True) in seen


def circuits_oracle(arr):
    # every independent set times every column -> fundamental_circuit
    found = set()
    for ind in arr_mod.independent_sets(arr):
        for e in range(arr.size):
            circ = None if e in ind else arr_mod.fundamental_circuit(arr, e, ind)
            if circ is not None:
                found.add(circ)
    return sorted(found)


class TestCircuitsOnce:
    """`circuits` finds each circuit once, against the full scan."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_braid(self, n):
        assert arr_mod.circuits(braid_cols(n)) == circuits_oracle(braid_cols(n))

    @pytest.mark.parametrize("k", [1, 3, 5, 9])
    def test_worked_example(self, k):
        arr = worked_example(k)
        assert arr_mod.circuits(arr) == circuits_oracle(arr) == [(0, 1, 2)]

    def test_mixed_denominators(self):
        arr = TestMixedDenominators.MIXED
        assert arr_mod.circuits(arr) == circuits_oracle(arr)

    def test_random_inputs_with_parallel_columns(self):
        rng = random.Random(27)
        parallel = 0
        for _ in range(200):
            n = rng.randint(2, 4)
            size, cols = rng.randint(3, 7), []
            while len(cols) < size:
                if cols and rng.random() < 0.25:
                    col = rng.choice(cols)
                    cols.append(tuple(-x for x in col) if rng.random() < 0.5
                                else col)
                    continue
                col = tuple(rng.randint(-2, 2) for _ in range(n))
                if gcd(*col) == 1:
                    cols.append(col)
            got = arr_mod.circuits(Arrangement(n, tuple(cols)))
            assert got == circuits_oracle(Arrangement(n, tuple(cols)))
            parallel += any(len(c) == 2 for c in got)
        assert parallel > 50
