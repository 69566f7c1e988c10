"""The mask differential kernel and page-2 counts against the tuple rules.

``d`` and ``ranks`` read one kernel on int symbol masks, and page 2 is
counted.  The oracles below are the rules they replaced: exterior forms as
dicts {sorted symbol tuple: coeff} multiplied through ``merge_sign``, each
image assembled term by term, block columns indexed through ``basis`` and
``index``, and page 2 read off the enumerated basis.  ``symbol_mask`` and
``mask_symbols`` translate between the oracles' (col, kind) tuples and the
model's masks.
"""

from fractions import Fraction
from math import comb, gcd

import pytest

from ellarr import braid, cohomology, exactlin
from ellarr.arrangement import Arrangement
from ellarr.model import ModelError, _lex_ranks, mask_sign, merge_sign

TORSION = Arrangement(2, ((1, 0), (1, 2), (0, 1)),
                      ((Fraction(1, 2), 0), (0, 0), (0, Fraction(1, 3))))
WORKED_K5 = Arrangement(2, ((1, 0), (1, 5), (2, 5)))
NONESSENTIAL = Arrangement(3, ((1, 1, 0), (0, 1, 1)))

INPUTS = ([braid.braid_arrangement(n) for n in (3, 4, 5, 6)]
          + [WORKED_K5, TORSION])
IDS = ["braid%d" % n for n in (3, 4, 5, 6)] + ["worked-k5", "torsion"]


def symbol_mask(syms):
    return sum(1 << (2 * col + kind) for col, kind in syms)


def mask_symbols(mask):
    return tuple((b >> 1, b & 1) for b in range(mask.bit_length())
                 if mask >> b & 1)


def wedge_forms(f1, f2):
    out = {}
    for t1, c1 in f1.items():
        for t2, c2 in f2.items():
            sign, merged = merge_sign(t1, t2)
            if sign:
                out[merged] = out.get(merged, 0) + sign * c1 * c2
    return {t: c for t, c in out.items() if c}


def symbol_form(dga, lid, col, kind):
    lam = dga.reduce_column(lid, col)
    cofr = dga.coframe(lid)
    return {((cofr[u], kind),): lam[u] for u in range(len(cofr)) if lam[u]}


def reduce_symbols(dga, lid, syms):
    form = {(): 1}
    for col, kind in syms:
        form = wedge_forms(form, symbol_form(dga, lid, col, kind))
    return form


def image_oracle(dga, mono):
    # d(z * w_{L,I}) = sum_j +-1/#components z * x_j ^ y_j * w_{sub, I - j}
    lid, iset, mask = mono
    syms = mask_symbols(mask)
    lead = -1 if len(syms) % 2 else 1
    out = {}
    for pos, j in enumerate(iset):
        rest = iset[:pos] + iset[pos + 1:]
        sub = dga.poset.component_inside(rest, lid)
        xy = wedge_forms(symbol_form(dga, sub, j, 0), symbol_form(dga, sub, j, 1))
        form = wedge_forms(reduce_symbols(dga, sub, syms), xy)
        ncomp = sum(1 for wid in dga.poset.layers_associated(iset)
                    if dga.poset.leq(sub, wid))
        coeff = Fraction(lead * (-1) ** pos, ncomp)
        for t, c in form.items():
            key = (sub, rest, symbol_mask(t))
            out[key] = out.get(key, 0) + coeff * c
    return {k: c for k, c in out.items() if c}


def ranks_oracle(dga, p, q):
    # every weight block, both signs, indexed through basis and index
    if q < 1 or not dga.basis(p, q) or not dga.basis(p + 2, q - 1):
        return {}
    tgt = dga.index(p + 2, q - 1)
    blocks = {}
    for mono in dga.basis(p, q):
        image = image_oracle(dga, mono)
        if image:
            blocks.setdefault(dga.weight_of(mono), []).append(
                {tgt[m]: c for m, c in image.items()})
    return {a: exactlin.sparse_rank(cols) for a, cols in blocks.items()}


def assert_kernel_matches(arr):
    dga = cohomology.full_model(arr).core
    for p, q in dga.bidegrees():
        want = {a: r for a, r in ranks_oracle(dga, p, q).items() if r}
        assert {a: r for a, r in dga.ranks(p, q).items() if r} == want, (p, q)
        for mono in dga.basis(p, q):
            assert dga._image(mono) == image_oracle(dga, mono), mono


def assert_coframes_nest(arr):
    dga = cohomology.full_model(arr).core
    for inner in range(dga.poset.size):
        for outer in range(dga.poset.size):
            if dga.poset.leq(outer, inner):
                assert set(dga.coframe(inner)) <= set(dga.coframe(outer))


def page2_by_enumeration(model):
    entries, weights = {}, {}
    for p, q in model.bidegrees():
        for mono in model.basis(p, q):
            entries[(p, q)] = entries.get((p, q), 0) + 1
            wd = weights.setdefault((p, q), {})
            a = model.weight_of(mono)
            wd[a] = wd.get(a, 0) + 1
    return entries, weights


def assert_page2_matches(arr):
    model = cohomology.full_model(arr)
    core = cohomology.page2_table(model.core)
    assert (core.entries, core.weights) == page2_by_enumeration(model.core)
    for p, q in model.core.bidegrees():
        assert model.core.dim(p, q) == len(model.core.basis(p, q))
    full, _ = cohomology.betti_tables(model)
    assert (full.entries, full.weights) == page2_by_enumeration(model)


def random_arrangements():
    st = pytest.importorskip("hypothesis.strategies")
    offset = st.sampled_from([Fraction(0), Fraction(1, 2),
                              Fraction(1, 3), Fraction(2, 3)])

    def arrangements(n):
        col = st.lists(st.integers(-2, 2), min_size=n,
                       max_size=n).filter(lambda v: gcd(*v) == 1)
        div = st.tuples(col, st.tuples(offset, offset))
        return st.lists(div, min_size=2, max_size=4).map(
            lambda ds: Arrangement(n, tuple(tuple(c) for c, _ in ds),
                                   tuple(o for _, o in ds)))

    return st.integers(2, 3).flatmap(arrangements)


class TestMaskSign:
    def test_matches_merge_sign(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        symbols = st.sets(st.tuples(st.integers(0, 5), st.integers(0, 1)),
                          max_size=6).map(sorted).map(tuple)
        seen = set()

        @hyp.settings(max_examples=300, deadline=None, derandomize=True)
        @hyp.given(symbols, symbols)
        def check(left, right):
            sign, merged = merge_sign(left, right)
            lm, rm = symbol_mask(left), symbol_mask(right)
            assert mask_symbols(lm) == left
            assert mask_sign(lm, rm) == sign
            if sign:
                assert mask_symbols(lm | rm) == merged
            seen.add(bool(lm & rm))

        check()
        assert seen == {True, False}


class TestPage2Counts:
    @pytest.mark.parametrize(
        "arr", INPUTS + [NONESSENTIAL], ids=IDS + ["nonessential"])
    def test_fixed_inputs(self, arr):
        assert_page2_matches(arr)

    def test_random_inputs(self):
        hyp = pytest.importorskip("hypothesis")

        @hyp.settings(max_examples=30, deadline=None, derandomize=True)
        @hyp.given(random_arrangements())
        def check(arr):
            assert_page2_matches(arr)

        check()


class TestKernelOracle:
    @pytest.mark.parametrize("arr", INPUTS, ids=IDS)
    def test_fixed_inputs(self, arr):
        assert_kernel_matches(arr)

    def test_random_inputs(self):
        hyp = pytest.importorskip("hypothesis")

        @hyp.settings(max_examples=30, deadline=None, derandomize=True)
        @hyp.given(random_arrangements())
        def check(arr):
            assert_kernel_matches(arr)

        check()

    @pytest.mark.parametrize("arr", INPUTS, ids=IDS)
    def test_coframes_nest(self, arr):
        # the kernel wedges a monomial's own mask into every sublayer
        assert_coframes_nest(arr)

    def test_coframes_nest_random(self):
        hyp = pytest.importorskip("hypothesis")

        @hyp.settings(max_examples=30, deadline=None, derandomize=True)
        @hyp.given(random_arrangements())
        def check(arr):
            assert_coframes_nest(arr)

        check()

    def test_image_needs_basis_symbols(self):
        dga = braid.braid_model(3)
        top = dga.poset.by_rank[2][0]
        with pytest.raises(ModelError):
            dga.d_monomial((top, dga.nbc(top)[0], symbol_mask(((0, 0),))))

    def test_rows_follow_basis_order(self):
        # a pair's block of C(2k, p) rows, then the lexicographic rank of
        # the mask among its frame's p-combinations, is the basis index
        dga = braid.braid_model(4)
        for p, q in dga.bidegrees():
            index = dga.index(p, q)
            width = comb(2 * (dga.n - q), p)
            pairs = [(lid, iset) for lid in dga.poset.by_rank[q]
                     for iset in dga.nbc(lid)]
            for k, (lid, iset) in enumerate(pairs):
                lex = _lex_ranks(dga.frame_mask(lid), p)
                assert len(lex) == width
                for mask, r in lex.items():
                    assert index[(lid, iset, mask)] == k * width + r
