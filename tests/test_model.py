from fractions import Fraction
from math import comb

import pytest

from ellarr import arrangement as arr_mod
from ellarr import braid, cohomology, exactlin
from ellarr.arrangement import Arrangement
from ellarr.model import (BigradedDGA, ModelError, TensorModel, _lex_ranks,
                          add, scale, sub, merge_sign)

ONE = Fraction(1)


def all_monomials(dga):
    return [m for (p, q) in dga.bidegrees() for m in dga.basis(p, q)]


@pytest.fixture(scope="module")
def single_divisor_model():
    return BigradedDGA(Arrangement(1, ((1,),)))


@pytest.fixture(scope="module")
def braid3():
    return braid.braid_model(3)


@pytest.fixture(scope="module")
def braid4():
    return braid.braid_model(4)


@pytest.fixture(scope="module")
def braid5():
    return braid.braid_model(5)


def offset_arrangement():
    """Essential rank-2 arrangement with a disconnected pair section."""
    return Arrangement(2, ((1, 0), (1, 2), (0, 1)),
                       ((Fraction(0), Fraction(0)),
                        (Fraction(1, 2), Fraction(0)),
                        (Fraction(0), Fraction(1, 3))))


@pytest.fixture(scope="module")
def offset_model():
    return BigradedDGA(offset_arrangement())


class TestModuleApi:
    def test_hodge_weight_tag(self):
        from ellarr import hodge_weight
        assert hodge_weight(1, 0) == 1
        assert hodge_weight(0, 2) == 4
        assert hodge_weight(2, 1) == 4


class TestSignHelpers:
    def test_merge_sign_disjoint(self):
        assert merge_sign((1, 3), (2,)) == (-1, (1, 2, 3))
        assert merge_sign((), (5,)) == (1, (5,))
        assert merge_sign((1,), (1,)) == (0, None)


class TestCoframe:
    def test_ambient_full_rank(self, example_model):
        assert example_model.coframe(example_model.ambient_layer) == (0, 1)

    def test_rank_one_layer(self, example_model):
        poset = example_model.poset
        for lid in poset.by_rank[1]:
            layer = poset.layers[lid]
            j = example_model.coframe(lid)
            assert len(j) == 1
            if layer.flat == frozenset({0}):
                assert j == (1,)   # first column not containing the layer

    def test_top_layer_empty(self, braid3):
        for lid in braid3.poset.by_rank[2]:
            assert braid3.coframe(lid) == ()

    def test_non_essential_faults(self):
        with pytest.raises(ModelError):
            BigradedDGA(braid.braid_arrangement(3))

    @pytest.mark.parametrize("fixture", ["braid4", "braid5", "example_model",
                                         "offset_model"])
    def test_matches_rank_rule(self, fixture, request):
        # the greedy rule as a sequence of ranks: column j joins the frame
        # when it raises the rank of the flat's columns plus those chosen
        dga = request.getfixturevalue(fixture)
        columns = dga.arrangement.columns
        for lid, layer in enumerate(dga.poset.layers):
            rows = [columns[j] for j in sorted(layer.flat)]
            chosen = []
            for j in range(dga.arrangement.size):
                if len(chosen) == dga.n - layer.rank:
                    break
                if (exactlin.rational_rank(rows + [columns[j]])
                        > exactlin.rational_rank(rows)):
                    chosen.append(j)
                    rows.append(columns[j])
            assert dga.coframe(lid) == tuple(chosen)


class TestDimensions:
    def test_single_divisor(self, single_divisor_model):
        dims = {(p, q): single_divisor_model.dim(p, q)
                for (p, q) in single_divisor_model.bidegrees()
                if single_divisor_model.dim(p, q)}
        assert dims == {(0, 0): 1, (1, 0): 2, (2, 0): 1, (0, 1): 1}
        report = single_divisor_model.verify_model_dimension()
        assert report["total_dimension"] == 5
        assert report["matches_4_pow_corank"]
        assert not report["matches_2_pow_rank"]

    def test_braid3_dims(self, braid3):
        assert braid3.dim(0, 1) == 3
        assert braid3.dim(1, 1) == 6
        assert braid3.dim(2, 1) == 3
        assert braid3.dim(0, 2) == 2
        assert braid3.total_dimension() == 30

    def test_example_dims(self, example_model):
        assert example_model.dim(0, 2) == 50
        assert example_model.total_dimension() == 78

    def test_empty_arrangement_tensor(self):
        model = TensorModel(BigradedDGA(Arrangement(0, ())), 1)
        assert [model.dim(p, 0) for p in range(3)] == [1, 2, 1]

    def test_offset_model(self, offset_model):
        # 4 + 1 + 1 point strata; the triple equation is unsolvable, so the
        # circuit contributes no layer and no basis reduction
        assert offset_model.poset.counts_by_rank() == {0: 1, 1: 3, 2: 6}
        assert offset_model.dim(0, 2) == 6
        from ellarr import cohomology
        t2 = cohomology.page2_table(offset_model)
        t3 = cohomology.page3_table(offset_model)
        # Euler characteristic agrees with inclusion-exclusion over strata
        assert t2.euler() == t3.euler() == 6
        assert t3.total_betti() == [1, 4, 9]


class TestDifferential:
    def test_d_omega_braid(self, braid3):
        # the edge generator maps to the product of its two one-form sides
        got = braid3.d(braid3.omega_generators(0))
        want = braid3.multiply(braid3.one_form([1, 0], None),
                               braid3.one_form(None, [1, 0]))
        assert not sub(got, want)
        got2 = braid3.d(braid3.omega_generators(2))
        want2 = braid3.multiply(braid3.one_form([0, 1], None),
                                braid3.one_form(None, [0, 1]))
        assert not sub(got2, want2)

    def test_one_forms_closed(self, braid3):
        assert not braid3.d(braid3.one_form([1, 2], None))
        assert not braid3.d(braid3.one_form(None, [3, 1]))

    @pytest.mark.parametrize("fixture", ["example_model", "braid3", "braid4",
                                         "offset_model"])
    def test_d_squared_zero(self, fixture, request):
        dga = request.getfixturevalue(fixture)
        for mono in all_monomials(dga):
            assert not dga.d(dga.d({mono: ONE}))

    def test_braid_coefficients_are_ints(self, braid4):
        # connected braid sections keep the differential integral
        coeffs = [c for mono in all_monomials(braid4)
                  for c in braid4.d_monomial(mono).values()]
        assert coeffs and all(type(c) is int for c in coeffs)

    def test_disconnected_section_coefficients(self, offset_model):
        # divisors 0 and 1 meet in four points: d of each w_{L,(0,1)}
        # carries the exact 1/#components factor
        images = [offset_model.d_monomial(m) for m in offset_model.basis(0, 2)
                  if m[1] == (0, 1)]
        assert len(images) == 4
        assert all(abs(c) == Fraction(1, 4)
                   for image in images for c in image.values())

    @pytest.mark.parametrize("fixture", ["braid4", "offset_model"])
    def test_block_ranks_match_sympy(self, fixture, request):
        sympy = pytest.importorskip("sympy")
        dga = request.getfixturevalue(fixture)
        checked = 0
        for p, q in dga.bidegrees():
            if q < 1 or not dga.dim(p, q) or not dga.dim(p + 2, q - 1):
                continue
            tgt_index = dga.index(p + 2, q - 1)
            blocks: dict = {}
            for mono in dga.basis(p, q):
                col = [sympy.Integer(0)] * len(tgt_index)
                for m, c in dga.d_monomial(mono).items():
                    c = Fraction(c)
                    col[tgt_index[m]] = sympy.Rational(c.numerator,
                                                       c.denominator)
                blocks.setdefault(dga.weight_of(mono), []).append(col)
            ranks = dga.ranks(p, q)
            for a, cols in blocks.items():
                want = sympy.Matrix(cols).T.rank()
                assert ranks.get(a, 0) == want, (p, q, a)
                checked += want
        assert checked

    def test_bidegree(self, example_model):
        for mono in all_monomials(example_model):
            p, q = example_model.bidegree_of(mono)
            for m2 in example_model.d({mono: ONE}):
                assert example_model.bidegree_of(m2) == (p + 2, q - 1)

    def test_mixed_bidegree_faults(self, braid3):
        mixed = dict(braid3.one_form([1, 0], None))
        mixed.update(braid3.omega_generators(0))
        with pytest.raises(ModelError):
            braid3.d(mixed)


class TestProducts:
    def test_relation_kill(self, example_model):
        # one-form of a divisor annihilates that divisor's generator
        x0 = example_model.column_form(0, 0)
        w0 = example_model.omega_generators(0)
        assert example_model.multiply(x0, w0) == {}
        y0 = example_model.column_form(0, 1)
        assert example_model.multiply(y0, w0) == {}

    def test_kernel_relation(self, example_model):
        # x_3 = x_1 + x_2 in the model of the worked example
        x3 = example_model.column_form(2, 0)
        x1px2 = add(example_model.column_form(0, 0),
                    example_model.column_form(1, 0))
        assert not sub(x3, x1px2)

    def test_straightening_example(self, braid3):
        w12 = braid3.omega_generators(0)
        w13 = braid3.omega_generators(1)
        w23 = braid3.omega_generators(2)
        lhs = braid3.multiply(w13, w23)
        rhs = sub(braid3.multiply(w12, w23), braid3.multiply(w12, w13))
        assert not sub(lhs, rhs)

    def test_product_over_components(self, example_model):
        w1 = example_model.omega_generators(0)
        w2 = example_model.omega_generators(1)
        prod = example_model.multiply(w1, w2)
        assert len(prod) == 25
        assert all(c == 1 for c in prod.values())

    def test_same_divisor_squares_to_zero(self, example_model):
        w1 = example_model.omega_generators(0)
        assert example_model.multiply(w1, w1) == {}

    def test_unit(self, braid4):
        unit = braid4.unit()
        for (p, q) in [(1, 1), (0, 2), (2, 0)]:
            for mono in braid4.basis(p, q):
                elem = {mono: ONE}
                assert braid4.multiply(unit, elem) == elem
                assert braid4.multiply(elem, unit) == elem


def total_degree(mono):
    return sum(BigradedDGA.bidegree_of(mono))


class TestAxioms:
    @pytest.mark.parametrize("fixture", ["example_model", "braid3",
                                         "offset_model"])
    def test_leibniz_exhaustive(self, fixture, request):
        dga = request.getfixturevalue(fixture)
        monos = all_monomials(dga)
        for m1 in monos:
            e1 = {m1: ONE}
            de1 = dga.d(e1)
            sign = -1 if total_degree(m1) % 2 else 1
            for m2 in monos:
                e2 = {m2: ONE}
                lhs = dga.d(dga.multiply(e1, e2))
                rhs = add(dga.multiply(de1, e2),
                          scale(dga.multiply(e1, dga.d(e2)), sign))
                assert not sub(lhs, rhs), (m1, m2)

    @pytest.mark.parametrize("fixture", ["example_model", "braid3",
                                         "offset_model"])
    def test_graded_commutativity_exhaustive(self, fixture, request):
        dga = request.getfixturevalue(fixture)
        monos = all_monomials(dga)
        for m1 in monos:
            e1 = {m1: ONE}
            for m2 in monos:
                e2 = {m2: ONE}
                sign = -1 if (total_degree(m1) * total_degree(m2)) % 2 else 1
                assert not sub(dga.multiply(e1, e2),
                               scale(dga.multiply(e2, e1), sign))

    @pytest.mark.parametrize("fixture", ["example_model", "braid3", "braid4"])
    def test_circuit_relations_straighten_to_zero(self, fixture, request):
        dga = request.getfixturevalue(fixture)
        arr = dga.arrangement
        for circuit in arr_mod.circuits(arr):
            members = set(circuit)
            sub_iset = tuple(sorted(circuit))[1:]
            comps = [lid for lid in dga.poset.layers_associated(sub_iset)
                     if members <= dga.poset.layers[lid].flat]
            assert comps
            for lid in comps:
                total = {}
                for t, i in enumerate(sorted(circuit)):
                    rest = tuple(x for x in sorted(circuit) if x != i)
                    total = add(total, scale(dga.omega(lid, rest), (-1) ** t))
                assert not total


class TestTensorModel:
    def test_dims_tensor(self, braid3):
        full = braid.braid_full_model(3)
        for (p, q) in [(0, 0), (1, 0), (2, 1), (3, 0)]:
            want = sum(braid3.dim(p - extra, q) * (2 if extra == 1 else 1)
                       for extra in range(3) if p - extra >= 0)
            assert full.dim(p, q) == want

    def test_leibniz_sampled(self):
        import random
        full = braid.braid_full_model(3)
        rng = random.Random(11)
        monos = [m for (p, q) in [(1, 0), (0, 1), (1, 1), (2, 0)]
                 for m in full.basis(p, q)]
        for _ in range(120):
            m1, m2 = rng.choice(monos), rng.choice(monos)
            e1, e2 = {m1: ONE}, {m2: ONE}
            deg1 = full.bidegree_of(m1)
            sign = -1 if sum(deg1) % 2 else 1
            lhs = full.d(full.multiply(e1, e2))
            rhs = add(full.multiply(full.d(e1), e2),
                      scale(full.multiply(e1, full.d(e2)), sign))
            assert not sub(lhs, rhs)

    def test_one_form_round_trip(self):
        full = braid.braid_full_model(3)
        # coordinate forms of all three coordinates are independent
        from ellarr import exactlin
        idx = full.index(1, 0)
        cols = []
        for v in range(1, 4):
            for kind in (0, 1):
                e = braid.coordinate_form(full, 3, v, kind)
                cols.append({idx[m]: c for m, c in e.items()})
        assert exactlin.sparse_rank(cols) == 6


# Fresh models with an empty image cache: the fixtures above are shared, and
# an earlier test may have filled theirs through ``d``.
FRESH_MODELS = {
    "braid4": lambda: BigradedDGA(
        cohomology.essentialize(braid.braid_arrangement(4))[0]),
    "braid5": lambda: BigradedDGA(
        cohomology.essentialize(braid.braid_arrangement(5))[0]),
    "example_k5": lambda: BigradedDGA(Arrangement(2, ((1, 0), (1, 5), (2, 5)))),
    "offset_model": lambda: BigradedDGA(offset_arrangement()),
}


def rank_bidegrees(dga):
    return [(p, q) for p, q in dga.bidegrees()
            if q >= 1 and dga.dim(p, q) and dga.dim(p + 2, q - 1)]


def swap_xy(elem):
    """The x<->y swap, re-sorting each monomial's symbols with its sign."""
    out = {}
    for (lid, iset, mask), c in elem.items():
        bits = [b for b in range(mask.bit_length()) if mask >> b & 1]
        swapped = [b ^ 1 for b in bits]
        inversions = sum(1 for i in range(len(swapped))
                         for j in range(i + 1, len(swapped))
                         if swapped[i] > swapped[j])
        key = (lid, iset, sum(1 << b for b in swapped))
        out[key] = -c if inversions % 2 else c
    return out


class TestWeightSymmetry:
    """ranks builds only the weight a >= 0 blocks and mirrors them to -a."""

    @pytest.mark.parametrize("name", sorted(FRESH_MODELS))
    def test_ranks_match_both_sign_oracle(self, name):
        dga = FRESH_MODELS[name]()
        got = {pq: dga.ranks(*pq) for pq in rank_bidegrees(dga)}
        mirrored = 0
        for (p, q), ranks in got.items():
            tgt_index = dga.index(p + 2, q - 1)
            blocks: dict = {}
            for mono in dga.basis(p, q):
                col = [0] * len(tgt_index)
                for m, c in dga.d_monomial(mono).items():
                    col[tgt_index[m]] = c
                blocks.setdefault(dga.weight_of(mono), []).append(col)
            for a, cols in blocks.items():
                want = len(exactlin.rref(cols)[1])
                assert ranks.get(a, 0) == want, (p, q, a)
                mirrored += a < 0 and want > 0
        assert mirrored

    @pytest.mark.parametrize("name", sorted(FRESH_MODELS))
    def test_swap_anticommutes_with_d(self, name):
        dga = FRESH_MODELS[name]()
        for mono in all_monomials(dga):
            image = dga.d(swap_xy({mono: 1}))
            assert not add(image, swap_xy(dga.d({mono: 1}))), mono


class TestStreamingRanks:
    def test_page3_caches_no_image(self):
        dga = FRESH_MODELS["braid5"]()
        cohomology.page3_table(dga)
        assert dga._d_cache == {}
        before = dict(dga._ranks)
        for mono in all_monomials(dga):
            dga.d({mono: ONE})
        assert len(dga._d_cache) == dga.total_dimension()
        dga._ranks.clear()
        assert {pq: dga.ranks(*pq) for pq in before} == before


ENCODING_INPUTS = {
    "braid4": braid.braid_arrangement(4),
    "worked-k5": Arrangement(2, ((1, 0), (1, 5), (2, 5))),
    "torsion": Arrangement(2, ((1, 0), (1, 2), (0, 1)),
                           ((Fraction(1, 2), 0), (0, 0), (0, Fraction(1, 3)))),
    "nonessential": Arrangement(3, ((1, 1, 0), (0, 1, 1))),
}


def set_bits(mask):
    return tuple(b for b in range(mask.bit_length()) if mask >> b & 1)


def bit_weight(mask):
    """#even bits - #odd bits: x symbols count +1, y symbols -1."""
    return sum(1 if b % 2 == 0 else -1 for b in set_bits(mask))


class TestMonomialEncoding:
    """Monomials carry int symbol masks with bit 2*col + kind."""

    @pytest.mark.parametrize("name", sorted(ENCODING_INPUTS))
    def test_core_basis(self, name):
        dga = cohomology.full_model(ENCODING_INPUTS[name]).core
        for p, q in dga.bidegrees():
            basis = dga.basis(p, q)
            pairs = [(lid, iset) for lid in dga.poset.by_rank[q]
                     for iset in dga.nbc(lid)]
            width = comb(2 * (dga.n - q), p)
            assert len(basis) == len(pairs) * width
            for k, (lid, iset) in enumerate(pairs):
                frame = dga.frame_mask(lid)
                block = basis[k * width:(k + 1) * width]
                assert all(m[:2] == (lid, iset) for m in block)
                masks = [m[2] for m in block]
                for mask in masks:
                    assert type(mask) is int and mask.bit_count() == p
                    assert not mask & ~frame
                # the combinations of the frame bits, lexicographically
                assert len(set(masks)) == width
                assert masks == sorted(masks, key=set_bits)
                assert ({m: i for i, m in enumerate(masks)}
                        == _lex_ranks(frame, p))
            for mono in basis:
                assert dga.bidegree_of(mono) == (p, q)
                assert dga.weight_of(mono) == bit_weight(mono[2])

    @pytest.mark.parametrize("name", sorted(ENCODING_INPUTS))
    def test_tensor_basis(self, name):
        model = cohomology.full_model(ENCODING_INPUTS[name])
        core, nbars = model.core, model.nbars
        for p, q in model.bidegrees():
            basis = model.basis(p, q)
            assert len(set(basis)) == len(basis)
            assert len(basis) == sum(comb(2 * nbars, e) * core.dim(p - e, q)
                                     for e in range(2 * nbars + 1))
            assert model.index(p, q) == {m: i for i, m in enumerate(basis)}
            for mono in basis:
                core_m, bars = mono
                assert type(bars) is int and 0 <= bars < 4 ** nbars
                assert core_m in core.index(*core.bidegree_of(core_m))
                assert model.bidegree_of(mono) == (p, q)
                assert model.weight_of(mono) == (bit_weight(core_m[2])
                                                 + bit_weight(bars))
