import copy
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from ellarr import exactlin


def frac_rows(rows):
    return [[Fraction(x) for x in r] for r in rows]


class TestSmithNormalForm:
    def test_identity(self):
        snf = exactlin.smith_normal_form(exactlin.identity(3))
        assert snf.divisors == (1, 1, 1)

    def test_one_by_one(self):
        snf = exactlin.smith_normal_form([[5]])
        assert snf.divisors == (5,)
        assert snf.d == [[5]]

    def test_diag_2_3(self):
        snf = exactlin.smith_normal_form([[2, 0], [0, 3]])
        assert snf.divisors == (1, 6)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_decomposition(self, seed):
        rng = random.Random(seed)
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        snf = exactlin.smith_normal_form(m)
        assert exactlin.mat_mul(exactlin.mat_mul(snf.u, m), snf.v) == snf.d
        assert exactlin.det_int(snf.u) in (1, -1)
        assert exactlin.det_int(snf.v) in (1, -1)
        for a, b in zip(snf.divisors, snf.divisors[1:]):
            assert b % a == 0
        # off-diagonal zero
        for i, row in enumerate(snf.d):
            for j, x in enumerate(row):
                assert x == 0 or i == j

    @pytest.mark.parametrize("seed", range(12))
    def test_divisors_against_minor_gcd(self, seed):
        # product of the first k divisors equals the gcd of all k x k minors
        rng = random.Random(100 + seed)
        n = rng.randint(2, 3)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        snf = exactlin.smith_normal_form(m)
        for k in range(1, n + 1):
            g = 0
            for rsel in itertools.combinations(range(n), k):
                for csel in itertools.combinations(range(n), k):
                    minor = exactlin.det_int([[m[i][j] for j in csel]
                                              for i in rsel])
                    g = gcd(g, abs(minor))
            prod = 1
            for d in snf.divisors[:k]:
                prod *= d
            if len(snf.divisors) >= k:
                assert prod == g
            else:
                assert g == 0


class TestRank:
    def test_zero(self):
        assert exactlin.rational_rank([[0, 0], [0, 0]]) == 0

    def test_example_matrix(self):
        assert exactlin.rational_rank([[1, 1, 2], [0, 5, 5]]) == 2

    def test_identity(self):
        for n in (1, 3, 5):
            assert exactlin.rational_rank(exactlin.identity(n)) == n

    @pytest.mark.parametrize("seed", range(25))
    def test_against_dense_elimination(self, seed):
        rng = random.Random(seed)
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
              for _ in range(cols)] for _ in range(rows)]
        naive = len(exactlin.rref(m)[1])
        assert exactlin.rational_rank(m) == naive


class TestKernel:
    def test_example_kernel_line(self):
        basis = exactlin.kernel_basis([[1, 1, 2], [0, 5, 5]])
        assert len(basis) == 1
        v = basis[0]
        # spans the same line as (1, 1, -1)
        assert v[0] == v[1] == -v[2] and v[2] != 0

    def test_identity_trivial(self):
        assert exactlin.kernel_basis(exactlin.identity(4)) == []

    def test_braid_three(self):
        m = [[1, 1, 0], [-1, 0, 1], [0, -1, -1]]
        basis = exactlin.kernel_basis(m)
        assert len(basis) == 1
        v = basis[0]
        assert v[0] == -v[1] == v[2] and v[0] != 0

    @pytest.mark.parametrize("seed", range(15))
    def test_kernel_dimension_and_membership(self, seed):
        rng = random.Random(seed)
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        basis = exactlin.kernel_basis(m)
        assert len(basis) == cols - exactlin.rational_rank(m)
        for vec in basis:
            image = [sum(Fraction(m[i][j]) * vec[j] for j in range(cols))
                     for i in range(rows)]
            assert not any(image)


class TestSolveTorsion:
    def test_trivial(self):
        assert exactlin.solve_torsion([[1]], [Fraction(0)]) == [(Fraction(0),)]

    def test_five_torsion(self):
        sols = exactlin.solve_torsion([[5]], [Fraction(0)])
        assert sols == [(Fraction(k, 5),) for k in range(5)]

    def test_mixed(self):
        sols = exactlin.solve_torsion([[1, 0], [0, 5]],
                                      [Fraction(0), Fraction(0)])
        assert len(sols) == 5
        assert all(v[0] == 0 and v[1].denominator in (1, 5) for v in sols)

    def test_unsolvable(self):
        # 2x = 1/3 mod 1 is solvable; 0x = 1/3 is not
        assert exactlin.solve_torsion([[0]], [Fraction(1, 3)]) == []

    def test_translated(self):
        sols = exactlin.solve_torsion([[2]], [Fraction(1, 3)])
        assert len(sols) == 2
        for (v,) in sols:
            assert exactlin.frac_mod1(2 * v - Fraction(1, 3)) == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_component_count_is_divisor_product(self, seed):
        rng = random.Random(seed)
        rows = rng.randint(1, 3)
        cols = rng.randint(rows, 4)
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        # restrict to an independent row set so the system is solvable
        _, pivots = exactlin.rref([list(col) for col in zip(*m)] or [[]])
        m = [m[i] for i in pivots] or [[1] + [0] * (cols - 1)]
        snf = exactlin.smith_normal_form(m)
        expected = 1
        for d in snf.divisors:
            expected *= d
        sols = exactlin.solve_torsion(m, [Fraction(0)] * len(m))
        assert len(sols) == expected


def _torsion_oracle(snf, rows, cols, q):
    # the Fraction solver the integer one replaced: rhs = U q, then
    # w_i = (rhs_i + c_i) / d_i mod 1 over an odometer, x = V w mod 1
    def mod1(x):
        return x - (x.numerator // x.denominator)

    q = [Fraction(x) for x in q]
    r = len(snf.divisors)
    rhs = [sum(Fraction(snf.u[i][k]) * q[k] for k in range(rows))
           for i in range(rows)]
    if any(mod1(rhs[i]) for i in range(r, rows)):
        return []
    reps = []
    counters = [0] * r
    while True:
        w = [Fraction(0)] * cols
        for i in range(r):
            w[i] = mod1((rhs[i] + counters[i]) / snf.divisors[i])
        reps.append(tuple(mod1(sum(Fraction(snf.v[i][k]) * w[k]
                                   for k in range(cols)))
                          for i in range(cols)))
        for i in range(r - 1, -1, -1):
            counters[i] += 1
            if counters[i] < snf.divisors[i]:
                break
            counters[i] = 0
        else:
            break
    return sorted(set(reps))


class TestTorsionOracle:
    """The integer torsion solver against the Fraction solver it replaced."""

    def test_random_systems(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        def systems(rows, cols):
            row = st.lists(st.integers(-4, 4), min_size=cols, max_size=cols)
            rhs = st.builds(Fraction, st.integers(-10, 10), st.integers(1, 7))
            return st.tuples(st.lists(row, min_size=rows, max_size=rows),
                             st.lists(rhs, min_size=rows, max_size=rows),
                             st.sampled_from(("drawn", "zero row",
                                              "repeated row")))

        shapes = st.tuples(st.integers(1, 3), st.integers(1, 4))
        outcomes = []

        @hyp.settings(max_examples=300, deadline=None, derandomize=True)
        @hyp.given(shapes.flatmap(lambda s: systems(*s)))
        def check(system):
            m, q, form = system
            if form == "zero row":
                m[-1] = [0] * len(m[0])
            elif form == "repeated row":
                m[-1] = [2 * x for x in m[0]]
            rows, cols = len(m), len(m[0])
            snf = exactlin.smith_normal_form(m)
            want = _torsion_oracle(snf, rows, cols, q)
            assert exactlin.torsion_from_snf(snf, rows, cols, q) == want
            assert exactlin.solve_torsion(m, q) == want
            den = 1
            for x in q:
                den = den * x.denominator // gcd(den, x.denominator)
            top, reps = exactlin.torsion_numerators(
                snf, rows, den, [x.numerator * den // x.denominator
                                 for x in q])
            assert reps == sorted(reps)
            assert all(0 <= x < top for rep in reps for x in rep)
            assert [tuple(Fraction(x, top) for x in rep)
                    for rep in reps] == want
            outcomes.append((bool(want), len(snf.divisors) < rows))

        check()
        # solvable and unsolvable systems, full-rank and deficient, all occur
        assert set(outcomes) == {(True, True), (True, False), (False, True)}


class TestHermiteAndSaturation:
    def test_hermite_canonical(self):
        # same row lattice, two presentations
        b1 = exactlin.hermite_row_basis([[2, 4], [2, 2]])
        b2 = exactlin.hermite_row_basis([[2, 2], [0, 2], [2, 4]])
        assert b1 == b2 == ((2, 0), (0, 2))

    def test_saturation_strict(self):
        sat = exactlin.saturation_row_basis([[2, 0], [0, 3]])
        assert sat == ((1, 0), (0, 1))

    def test_saturation_of_line(self):
        sat = exactlin.saturation_row_basis([[2, 4]])
        assert sat == ((1, 2),)

    def test_in_row_span(self):
        basis = exactlin.hermite_row_basis([[1, 2, 0], [0, 0, 3]])
        assert exactlin.in_row_span(basis, [2, 4, 1])
        assert not exactlin.in_row_span(basis, [0, 1, 0])


class TestFractionFreeInverse:
    """(den, rows) from the fraction-free Gauss-Jordan against `rref`."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_rref(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if exactlin.det_int(m) == 0:
            with pytest.raises(ValueError):
                exactlin.fraction_free_inverse(m)
            return
        den, rows = exactlin.fraction_free_inverse(m)
        assert abs(den) == abs(exactlin.det_int(m))
        red, pivots = exactlin.rref([row + [int(i == j) for j in range(n)]
                                     for i, row in enumerate(m)])
        assert pivots == list(range(n))
        assert [[Fraction(x, den) for x in row] for row in rows] == [
            row[n:] for row in red]

    def test_signed_den(self):
        # det -2: rows / den is the inverse only with den's sign kept
        m = [[0, 1], [2, 0]]
        den, rows = exactlin.fraction_free_inverse(m)
        inv = [[Fraction(x, den) for x in row] for row in rows]
        assert exactlin.mat_mul(m, inv) == exactlin.identity(2)

    def test_unimodular(self):
        u = [[2, 1, 0], [1, 1, 0], [0, 3, -1]]
        inv = exactlin.inv_unimodular(u)
        assert all(type(x) is int for row in inv for x in row)
        assert exactlin.mat_mul(u, inv) == exactlin.identity(3)
        with pytest.raises(ValueError):
            exactlin.inv_unimodular([[2, 0], [0, 1]])
        with pytest.raises(ValueError):
            exactlin.inv_unimodular([[1, 2], [2, 4]])


class TestSparseRank:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_dense(self, seed):
        rng = random.Random(seed)
        rows = rng.randint(1, 10)
        cols = rng.randint(1, 10)
        m = [[rng.randint(-3, 3) if rng.random() < 0.4 else 0
              for _ in range(cols)] for _ in range(rows)]
        sparse = [{i: Fraction(m[i][j]) for i in range(rows) if m[i][j]}
                  for j in range(cols)]
        assert exactlin.sparse_rank(sparse) == len(exactlin.rref(m)[1])

    @pytest.mark.parametrize("seed", range(20))
    def test_int_entries_exact(self, seed):
        # rank-deficient products B*C with int entries: int / int is float
        # division, which misjudges cancellation, so pivots must be exact
        rng = random.Random(500 + seed)
        for _ in range(10):
            rows, cols, k = rng.randint(2, 8), rng.randint(2, 8), rng.randint(1, 4)
            b = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(rows)]
            c = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(k)]
            m = exactlin.mat_mul(b, c)
            sparse = [{i: m[i][j] for i in range(rows) if m[i][j]}
                      for j in range(cols)]
            assert exactlin.sparse_rank(sparse) == len(exactlin.rref(m)[1])


class TestNoMutation:
    """The rank kernel shares primitive int columns and writes none."""

    F = Fraction
    COLUMNS = {
        "primitive-int": [{0: 1, 1: 2}, {0: 2, 1: 1, 2: 1}, {0: 1, 2: 3},
                          {0: 3, 1: 3, 2: 4}, {0: -1, 1: -2}, {1: 5, 2: 7}],
        "non-primitive-int": [{0: 2, 1: 4}, {0: 4, 1: 2, 2: 6},
                              {0: 6, 1: 12}, {1: 3, 2: 9}, {0: 10, 2: -5}],
        "fraction": [{0: F(1, 2), 1: F(1, 3)}, {0: F(3, 4), 1: F(1, 2)},
                     {0: F(1), 2: F(2, 5)}, {0: F(1, 2), 1: F(1, 3), 2: F(1)}],
        "explicit-zeros": [{0: 1, 1: 0, 2: 2}, {0: 0, 1: 1}, {0: 2, 1: 0},
                           {0: 1, 1: 1, 2: 0}, {2: 0}, {0: F(0), 1: F(1, 2)}],
    }

    @staticmethod
    def snapshot(columns):
        return [[(r, type(v), v) for r, v in col.items()] for col in columns]

    @pytest.mark.parametrize("kind", sorted(COLUMNS))
    def test_sparse_rank(self, kind):
        cols = self.COLUMNS[kind]
        before = copy.deepcopy(cols)
        rank = exactlin.sparse_rank(cols)
        assert self.snapshot(cols) == self.snapshot(before)
        dense = [[col.get(r, 0) for col in cols] for r in range(3)]
        assert rank == len(exactlin.rref(dense)[1])

    @pytest.mark.parametrize("kind", sorted(COLUMNS))
    def test_rational_rank(self, kind):
        rows = [[col.get(r, 0) for r in range(3)] for col in self.COLUMNS[kind]]
        before = copy.deepcopy(rows)
        rank = exactlin.rational_rank(rows)
        assert [[(type(x), x) for x in row] for row in rows] == [
            [(type(x), x) for x in row] for row in before]
        assert rank == len(exactlin.rref(rows)[1])

    @pytest.mark.parametrize("seed", range(20))
    def test_random_mixed(self, seed):
        rng = random.Random(9000 + seed)
        entries = [0, 1, -1, 2, -3, 4, Fraction(1, 2), Fraction(-2, 3)]
        cols = [{r: rng.choice(entries) for r in range(6) if rng.random() < 0.5}
                for _ in range(rng.randint(2, 9))]
        before = copy.deepcopy(cols)
        rank = exactlin.sparse_rank(cols)
        assert self.snapshot(cols) == self.snapshot(before)
        dense = [[col.get(r, 0) for col in cols] for r in range(6)]
        assert rank == len(exactlin.rref(dense)[1])

    def test_primitive_shares_only_primitive_int_columns(self):
        for kind, cols in self.COLUMNS.items():
            for col in cols:
                shared = exactlin._primitive(col) is col
                assert shared == (kind == "primitive-int"), (kind, col)


class TestKernelProperties:
    """One rank kernel and one Smith routine, against independent routes."""

    def test_rank_and_smith_invariants(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        def matrices(rows, cols):
            row = st.lists(st.integers(-6, 6), min_size=cols, max_size=cols)
            return st.lists(row, min_size=rows, max_size=rows)

        shapes = st.tuples(st.integers(1, 5), st.integers(1, 5))

        @hyp.settings(max_examples=150, deadline=None, derandomize=True)
        @hyp.given(shapes.flatmap(lambda s: matrices(*s)))
        def check(m):
            rows, cols = len(m), len(m[0])
            int_cols = [{i: m[i][j] for i in range(rows) if m[i][j]}
                        for j in range(cols)]
            frac_cols = [{i: Fraction(x) for i, x in col.items()}
                         for col in int_cols]
            rank = len(exactlin.rref(m)[1])
            assert exactlin.rational_rank(m) == rank
            assert exactlin.sparse_rank(int_cols) == rank
            assert exactlin.sparse_rank(frac_cols) == rank

            divisors = exactlin.elementary_divisors(m)
            assert divisors == exactlin.smith_normal_form(m).divisors
            assert len(divisors) == rank
            prod = 1
            for k in range(1, min(rows, cols) + 1):
                g = 0
                for rsel in itertools.combinations(range(rows), k):
                    for csel in itertools.combinations(range(cols), k):
                        g = gcd(g, abs(exactlin.det_int(
                            [[m[i][j] for j in csel] for i in rsel])))
                if k <= rank:
                    prod *= divisors[k - 1]
                    assert prod == g
                else:
                    assert g == 0

        check()

    def test_column_reduction_scaling(self):
        # sparse int/Fraction columns up to 12 x 12 at about 30% density;
        # appending rescaled copies forces each copy through a reduction
        # chain down to zero without changing the rank
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        value = st.one_of(
            st.integers(-6, 6),
            st.builds(Fraction, st.integers(-6, 6), st.integers(2, 6)))
        entry = st.integers(0, 9).flatmap(
            lambda k: value if k < 3 else st.just(0))
        factor = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                           st.integers(1, 6))

        def case(rows, cols):
            row = st.lists(entry, min_size=cols, max_size=cols)
            return st.tuples(st.lists(row, min_size=rows, max_size=rows),
                             st.lists(factor, min_size=cols, max_size=cols))

        shapes = st.tuples(st.integers(1, 12), st.integers(1, 12))

        @hyp.settings(max_examples=150, deadline=None, derandomize=True)
        @hyp.given(shapes.flatmap(lambda s: case(*s)))
        def check(args):
            m, factors = args
            cols = [{i: row[j] for i, row in enumerate(m) if row[j]}
                    for j in range(len(m[0]))]
            scaled = [{i: x * f for i, x in col.items()}
                      for col, f in zip(cols, factors)]
            rank = len(exactlin.rref(m)[1])
            assert exactlin.sparse_rank(cols) == rank
            assert exactlin.sparse_rank(scaled) == rank
            assert exactlin.sparse_rank(cols + scaled) == rank

        check()
