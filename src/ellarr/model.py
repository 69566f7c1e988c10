"""The bigraded differential graded algebra attached to an arrangement.

Basis monomials are z_1...z_p * w_{L,I} where L is a layer, I a no-broken-
circuit set associated to L, and the z's are distinct one-form symbols from
the coframe chosen for L.  The differential has bidegree (2,-1); products
are straightened back to this basis through the circuit relations and the
per-layer reduction maps.

A monomial is a tuple (layer_id, iset, syms) with syms a sorted tuple of
(column, kind) pairs, kind 0 for the x-side and 1 for the y-side of the
curve.  Elements are sparse dicts monomial -> int or Fraction.

Page 3 is ranked per torus weight a = #x - #y.  The swap sigma of x and y
maps each basis monomial to a basis monomial, up to the sign of re-sorting
its symbols, and d(sigma m) = -sigma(d m): d wedges in x_j ^ y_j, and
y_j ^ x_j = -x_j ^ y_j.  So the weight -a block of d has the rank of the
weight a block, and only a >= 0 is built.  Ranks stream: each block's
columns are built, ranked and dropped, and only ``d`` caches images.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence

from . import arrangement as arr_mod
from . import exactlin
from .arrangement import Arrangement, LayerPoset

Symbol = tuple[int, int]
Monomial = tuple[int, tuple[int, ...], tuple[Symbol, ...]]
Element = dict[Monomial, int | Fraction]


def merge_sign(left: Sequence, right: Sequence):
    """Merge two sorted tuples of distinct odd-degree factors.

    Returns (sign, merged tuple) or (0, None) if they share an entry.
    """
    out = []
    i = j = 0
    sign = 1
    nl = len(left)
    while i < nl and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return 0, None
        if a < b:
            out.append(a)
            i += 1
        else:
            out.append(b)
            j += 1
            if (nl - i) & 1:
                sign = -sign
    out.extend(left[i:])
    out.extend(right[j:])
    return sign, tuple(out)


def wedge_forms(f1: dict, f2: dict) -> dict:
    """Product of two exterior forms given as {sorted symbol tuple: coeff}."""
    out: dict = {}
    for t1, c1 in f1.items():
        for t2, c2 in f2.items():
            sign, merged = merge_sign(t1, t2)
            if sign == 0:
                continue
            c = out.get(merged, 0) + sign * c1 * c2
            if c:
                out[merged] = c
            elif merged in out:
                del out[merged]
    return out


class ModelError(ValueError):
    pass


class BigradedDGA:
    """Model of an essential arrangement, built lazily per bidegree."""

    def __init__(self, arrangement: Arrangement, poset: Optional[LayerPoset] = None):
        if not arr_mod.is_essential(arrangement):
            raise ModelError(
                "arrangement is not essential (rank < ambient dimension); "
                "split off the torus factors first")
        self.arrangement = arrangement
        self.n = arrangement.n
        self.poset = poset if poset is not None else arr_mod.build_poset(arrangement)
        self._nbc_memo: dict = {}
        self._nbc: dict[int, list[tuple[int, ...]]] = {}
        self._coframe: dict[int, tuple[int, ...]] = {}
        self._flat_basis: dict[int, list[int]] = {}
        self._reduction: dict[int, tuple[int, list[list[int]]]] = {}
        self._red_col: dict[tuple[int, int], tuple[int | Fraction, ...]] = {}
        self._sym_form: dict[tuple[int, tuple[Symbol, ...]], dict] = {}
        self._xy_form: dict[tuple[int, int], dict] = {}
        self._basis: dict[tuple[int, int], list[Monomial]] = {}
        self._index: dict[tuple[int, int], dict[Monomial, int]] = {}
        self._straight: dict[tuple[frozenset, tuple[int, ...]], dict] = {}
        self._d_cache: dict[Monomial, Element] = {}
        self._ranks: dict[tuple[int, int], dict[int, int]] = {}
        self._sublayer: dict[tuple[int, tuple[int, ...]], int] = {}
        self._section_count: dict[tuple[int, tuple[int, ...]], int] = {}

    # ----- per-layer data ---------------------------------------------

    def nbc(self, layer_id: int) -> list[tuple[int, ...]]:
        got = self._nbc.get(layer_id)
        if got is None:
            got = arr_mod.nbc_sets(self.arrangement, self.poset.layers[layer_id],
                                   self._nbc_memo)
            self._nbc[layer_id] = got
        return got

    def coframe(self, layer_id: int) -> tuple[int, ...]:
        """Greedy-minimal columns whose classes frame the layer's cohomology.

        Columns are taken in order when independent of the layer's
        equations and the columns taken before; one integer echelon per
        layer decides each candidate.  The flat columns the echelon keeps
        are recorded for `_reduction_matrix`.
        """
        got = self._coframe.get(layer_id)
        if got is not None:
            return got
        layer = self.poset.layers[layer_id]
        columns = self.arrangement.columns
        rows: list = []
        kept: list[int] = []
        for j in sorted(layer.flat):
            red = exactlin.echelon_reduce(rows, columns[j])
            if red is not None:
                kept.append(j)
                rows.append(red)
        chosen: list[int] = []
        need = self.n - layer.rank
        for j in range(self.arrangement.size):
            if len(chosen) == need:
                break
            red = exactlin.echelon_reduce(rows, columns[j])
            if red is not None:
                chosen.append(j)
                rows.append(red)
        if len(chosen) != need:
            raise ModelError("could not frame layer %d" % layer_id)
        got = tuple(chosen)
        self._coframe[layer_id] = got
        self._flat_basis[layer_id] = kept
        return got

    def _reduction_matrix(self, layer_id: int) -> tuple[int, list[list[int]]]:
        """(den, rows): the coframe rows of [B | C]^-1 are rows / den.

        B holds the flat columns the coframe's echelon keeps and C the
        coframe columns, so [B | C] is square and nonsingular.  Only the
        coframe rows are stored.  Any solution of the full system (every
        flat column) has the same coframe rows, since the coframe classes
        are independent modulo the span of the layer's equations.
        """
        got = self._reduction.get(layer_id)
        if got is not None:
            return got
        cofr = self.coframe(layer_id)
        cols = self._flat_basis[layer_id] + list(cofr)
        mat = [[self.arrangement.columns[j][i] for j in cols]
               for i in range(self.n)]
        den, inv = exactlin.fraction_free_inverse(mat)
        got = self._reduction[layer_id] = (den, inv[self.n - len(cofr):])
        return got

    def reduce_vector(self, layer_id: int, vec: Sequence[Fraction]
                      ) -> tuple[Fraction, ...]:
        """Coordinates of an ambient one-form in the layer's coframe."""
        den, rows = self._reduction_matrix(layer_id)
        return tuple(Fraction(sum(x * v for x, v in zip(row, vec) if v), den)
                     for row in rows)

    def reduce_column(self, layer_id: int, col: int) -> tuple[int | Fraction, ...]:
        """Coframe coordinates of one divisor's form; integral ones as ints."""
        key = (layer_id, col)
        got = self._red_col.get(key)
        if got is None:
            den, rows = self._reduction_matrix(layer_id)
            vec = self.arrangement.columns[col]
            sums = [sum(x * v for x, v in zip(row, vec)) for row in rows]
            got = tuple(s // den if s % den == 0 else Fraction(s, den)
                        for s in sums)
            self._red_col[key] = got
        return got

    def _symbol_form(self, layer_id: int, col: int, kind: int) -> dict:
        lam = self.reduce_column(layer_id, col)
        cofr = self.coframe(layer_id)
        return {((cofr[u], kind),): lam[u] for u in range(len(cofr)) if lam[u]}

    def _reduce_symbols(self, layer_id: int, syms: Sequence[Symbol]) -> dict:
        """The product of the symbols' forms, in the layer's coframe."""
        form = {(): 1}
        for col, kind in syms:
            form = wedge_forms(form, self._symbol_form(layer_id, col, kind))
            if not form:
                break
        return form

    def _x_wedge_y(self, layer_id: int, col: int) -> dict:
        """x_col ^ y_col in the layer's coframe, memoized per (layer, col)."""
        key = (layer_id, col)
        form = self._xy_form.get(key)
        if form is None:
            form = wedge_forms(self._symbol_form(layer_id, col, 0),
                               self._symbol_form(layer_id, col, 1))
            self._xy_form[key] = form
        return form

    # ----- bases -------------------------------------------------------

    def bidegrees(self) -> list[tuple[int, int]]:
        out = []
        for q in sorted(self.poset.by_rank):
            for p in range(2 * (self.n - q) + 1):
                out.append((p, q))
        return sorted(out)

    def basis(self, p: int, q: int) -> list[Monomial]:
        key = (p, q)
        got = self._basis.get(key)
        if got is not None:
            return got
        if p < 0 or q < 0:
            self._basis[key] = []
            self._index[key] = {}
            return []
        out: list[Monomial] = []
        for lid in self.poset.by_rank.get(q, ()):
            frame: list[Symbol] = []
            for j in self.coframe(lid):
                frame.append((j, 0))
                frame.append((j, 1))
            frame.sort()
            for iset in self.nbc(lid):
                for combo in itertools.combinations(frame, p):
                    out.append((lid, iset, combo))
        self._basis[key] = out
        self._index[key] = {m: i for i, m in enumerate(out)}
        return out

    def dim(self, p: int, q: int) -> int:
        return len(self.basis(p, q))

    def index(self, p: int, q: int) -> dict[Monomial, int]:
        self.basis(p, q)
        return self._index[(p, q)]

    def total_dimension(self) -> int:
        return sum(self.dim(p, q) for p, q in self.bidegrees())

    @staticmethod
    def bidegree_of(mono: Monomial) -> tuple[int, int]:
        return (len(mono[2]), len(mono[1]))

    @staticmethod
    def weight_of(mono: Monomial) -> int:
        w = 0
        for _, kind in mono[2]:
            w += 1 if kind == 0 else -1
        return w

    # ----- straightening ------------------------------------------------

    def straighten(self, layer_id: int, iset: tuple[int, ...]) -> dict:
        """Expand w_{L, iset} over the no-broken-circuit sets of the layer.

        Repeatedly rewrites through the circuit relation at the
        lexicographically largest broken circuit present; each rewrite swaps
        a member for the smaller circuit minimum, so the index set strictly
        decreases and the recursion terminates.
        """
        layer = self.poset.layers[layer_id]
        key = (layer.flat, iset)
        got = self._straight.get(key)
        if got is not None:
            return got
        ground = sorted(layer.flat)

        def broken(chain: tuple[int, ...]):
            best = None
            for e in ground:
                if e >= chain[-1]:
                    break
                if e in chain:
                    continue
                circ = arr_mod.fundamental_circuit(
                    self.arrangement, e, [i for i in chain if i > e])
                if circ is not None:
                    bc = tuple(sorted(set(circ) - {e}))
                    if best is None or bc > best[1]:
                        best = (circ, bc)
            return best

        def expand(chain: tuple[int, ...]) -> dict:
            got = self._straight.get((layer.flat, chain))
            if got is not None:
                return got
            hit = broken(chain)
            if hit is None:
                result = {chain: 1}
            else:
                circ, bc = hit
                rest = tuple(i for i in chain if i not in bc)
                sign_front, _ = merge_sign(bc, rest)
                result: dict = {}
                cs = list(circ)
                for t in range(1, len(cs)):
                    # circuit relation solved for the broken-circuit term
                    repl = tuple(cs[:t] + cs[t + 1:])
                    sgn = -1 if t % 2 == 0 else 1
                    sign_back, merged = merge_sign(repl, rest)
                    if sign_back == 0:
                        continue
                    sub = expand(merged)
                    f = sign_front * sgn * sign_back
                    for k, c in sub.items():
                        nc = result.get(k, 0) + f * c
                        if nc:
                            result[k] = nc
                        elif k in result:
                            del result[k]
            self._straight[(layer.flat, chain)] = result
            return result

        return expand(iset)

    # ----- differential ---------------------------------------------------

    def d_monomial(self, mono: Monomial) -> Element:
        """Image under the rank-lowering differential, cached per monomial."""
        got = self._d_cache.get(mono)
        if got is None:
            got = self._image(mono)
            self._d_cache[mono] = got
        return got

    def _image(self, mono: Monomial) -> Element:
        """Image under the rank-lowering differential, in the chosen basis.

        The coefficient of each term carries the reciprocal of the number of
        components of the divisor section inside the bigger layer: the class
        of one component is that fraction of the pulled-back point class, so
        this is what matches the sheaf-level differential (for connected
        sections the factor is 1, the naive formula survives and integral
        coefficients stay ints).
        """
        lid, iset, syms = mono
        out: Element = {}
        lead = -1 if len(syms) % 2 else 1
        for pos, j in enumerate(iset):
            rest = iset[:pos] + iset[pos + 1:]
            sub = self._sublayer_of(lid, rest)
            xy = self._x_wedge_y(sub, j)
            if not xy:
                continue
            # memoized for d only: a product meets its keys about once each
            form = self._sym_form.get((sub, syms))
            if form is None:
                form = self._sym_form[sub, syms] = self._reduce_symbols(sub, syms)
            if not form:
                continue
            form = wedge_forms(form, xy)
            ncomp = self._section_components(sub, iset)
            lead_j = lead if ncomp == 1 else Fraction(lead, ncomp)
            # pos = |{k in rest : k < j}| since iset is sorted
            coeff = lead_j if pos % 2 == 0 else -lead_j
            for t, c in form.items():
                key = (sub, rest, t)
                nc = out.get(key, 0) + coeff * c
                if nc:
                    out[key] = nc
                elif key in out:
                    del out[key]
        return out

    def ranks(self, p: int, q: int) -> dict[int, int]:
        """Exact rank of d: (p,q) -> (p+2,q-1), per weight block.

        Only the blocks of weight a >= 0 are built; block -a has the rank
        of block a, since the x<->y swap maps basis to signed basis and
        anticommutes with d.  Columns stream: each block's images are built
        for its rank and dropped, reusing images ``d`` has cached but
        caching none.
        """
        key = (p, q)
        got = self._ranks.get(key)
        if got is not None:
            return got
        out: dict[int, int] = {}
        if q >= 1 and self.dim(p, q) and self.dim(p + 2, q - 1):
            tgt_index = self.index(p + 2, q - 1)
            by_weight: dict[int, list[Monomial]] = {}
            for mono in self.basis(p, q):
                a = self.weight_of(mono)
                if a >= 0:
                    by_weight.setdefault(a, []).append(mono)
            for a, monos in by_weight.items():
                cols = []
                for mono in monos:
                    image = self._d_cache.get(mono)
                    if image is None:
                        image = self._image(mono)
                    if image:
                        cols.append({tgt_index[m]: c for m, c in image.items()})
                if cols:
                    out[a] = out[-a] = exactlin.sparse_rank(cols)
        self._ranks[key] = out
        return out

    def _section_components(self, outer: int, iset: tuple[int, ...]) -> int:
        key = (outer, iset)
        got = self._section_count.get(key)
        if got is None:
            got = sum(1 for wid in self.poset.layers_associated(iset)
                      if self.poset.leq(outer, wid))
            self._section_count[key] = got
        return got

    def _sublayer_of(self, layer_id: int, subset: tuple[int, ...]) -> int:
        key = (layer_id, subset)
        got = self._sublayer.get(key)
        if got is None:
            got = self.poset.component_inside(subset, layer_id)
            if got is None:
                raise ModelError("no layer for %s over layer %d"
                                 % (subset, layer_id))
            self._sublayer[key] = got
        return got

    def d(self, elem: Element) -> Element:
        if element_bidegree(elem) is None and elem:
            raise ModelError("differential needs a bidegree-homogeneous element")
        out: Element = {}
        for mono, coeff in elem.items():
            for m2, c2 in self.d_monomial(mono).items():
                nc = out.get(m2, 0) + coeff * c2
                if nc:
                    out[m2] = nc
                elif m2 in out:
                    del out[m2]
        return out

    # ----- products ------------------------------------------------------

    def multiply_monomials(self, m1: Monomial, m2: Monomial) -> Element:
        l1, i1, s1 = m1
        l2, i2, s2 = m2
        if set(i1) & set(i2):
            return {}
        union = tuple(sorted(i1 + i2))
        targets = self.poset.layers_associated(union)
        if not targets:
            return {}
        sigma, _ = merge_sign(i1, i2)
        koszul = -1 if (len(s2) * len(i1)) % 2 else 1
        base = sigma * koszul
        out: Element = {}
        for lid in targets:
            if not (self.poset.leq(l1, lid) and self.poset.leq(l2, lid)):
                continue
            form = self._reduce_symbols(lid, s1 + s2)
            if not form:
                continue
            for iset, sc in self.straighten(lid, union).items():
                for t, c in form.items():
                    key = (lid, iset, t)
                    nc = out.get(key, 0) + base * sc * c
                    if nc:
                        out[key] = nc
                    elif key in out:
                        del out[key]
        return out

    def multiply(self, e1: Element, e2: Element) -> Element:
        out: Element = {}
        for m1, c1 in e1.items():
            for m2, c2 in e2.items():
                cc = c1 * c2
                for m, c in self.multiply_monomials(m1, m2).items():
                    nc = out.get(m, 0) + cc * c
                    if nc:
                        out[m] = nc
                    elif m in out:
                        del out[m]
        return out

    # ----- constructors for elements --------------------------------------

    @property
    def ambient_layer(self) -> int:
        return self.poset.by_rank[0][0]

    def unit(self) -> Element:
        return {(self.ambient_layer, (), ()): 1}

    def one_form(self, xvec: Sequence, yvec: Sequence) -> Element:
        """Degree-(1,0) element with ambient x/y coefficient vectors."""
        amb = self.ambient_layer
        out: Element = {}
        for kind, vec in ((0, xvec), (1, yvec)):
            if vec is None:
                continue
            v = [Fraction(x) for x in vec]
            if len(v) != self.n:
                raise ModelError("coefficient vector has wrong length")
            if not any(v):
                continue
            lam = self.reduce_vector(amb, v)
            cofr = self.coframe(amb)
            for u in range(len(cofr)):
                if lam[u]:
                    key = (amb, (), ((cofr[u], kind),))
                    out[key] = out.get(key, 0) + lam[u]
        return {k: v for k, v in out.items() if v}

    def column_form(self, col: int, kind: int) -> Element:
        """The degree-(1,0) generator attached to one divisor equation."""
        vec = [Fraction(x) for x in self.arrangement.columns[col]]
        if kind == 0:
            return self.one_form(vec, None)
        return self.one_form(None, vec)

    def omega(self, layer_id: int, iset: Sequence[int]) -> Element:
        """Generator w_{L,I}, straightened to the basis."""
        iset = tuple(sorted(iset))
        layer = self.poset.layers[layer_id]
        if len(iset) != layer.rank:
            raise ModelError("index set size must match the layer rank")
        if not set(iset) <= layer.flat:
            raise ModelError("index set must consist of divisors containing the layer")
        return {(layer_id, k, ()): c for k, c in self.straighten(layer_id, iset).items()}

    def omega_generators(self, col: int) -> Element:
        """Sum over components of omega for a single divisor; for a connected
        divisor this is the single generator of the rank-1 layer."""
        out: Element = {}
        for lid in self.poset.layers_associated((col,)):
            out[(lid, (col,), ())] = 1
        return out

    # ----- audits ---------------------------------------------------------

    def verify_model_dimension(self) -> dict:
        """Compare the enumerated dimension with the two closed forms.

        The basis description gives 4^(n - rank) per (layer, nbc) pair; a
        competing printed formula claims 2^rank.  The report says which one
        the enumeration agrees with.
        """
        total = self.total_dimension()
        basis_formula = 0
        printed_formula = 0
        for lay in self.poset.layers:
            cnt = len(self.nbc(lay.index))
            basis_formula += cnt * 4 ** (self.n - lay.rank)
            printed_formula += cnt * 2 ** lay.rank
        return {
            "total_dimension": total,
            "sum_4_pow_corank": basis_formula,
            "sum_2_pow_rank": printed_formula,
            "matches_4_pow_corank": total == basis_formula,
            "matches_2_pow_rank": total == printed_formula,
        }


def hodge_weight(p: int, q: int) -> int:
    """Weight tag of the bidegree (the filtration weight is p + 2q)."""
    return p + 2 * q


def element_bidegree(elem: Element) -> Optional[tuple[int, int]]:
    degs = {(len(m[2]), len(m[1])) for m in elem}
    if len(degs) == 1:
        return degs.pop()
    return None


def scale(elem: Element, c) -> Element:
    c = Fraction(c)
    if not c:
        return {}
    return {m: v * c for m, v in elem.items()}


def add(*elems: Element) -> Element:
    out: Element = {}
    for e in elems:
        for m, v in e.items():
            nv = out.get(m, 0) + v
            if nv:
                out[m] = nv
            elif m in out:
                del out[m]
    return out


def sub(e1: Element, e2: Element) -> Element:
    return add(e1, scale(e2, -1))


class TensorModel:
    """Model of a non-essential arrangement: essential core x torus factors.

    Monomials are pairs (core monomial, bars) where bars is a sorted tuple
    of (factor index, kind) one-form symbols of the split-off curve factors.
    The differential ignores the bars; products follow the graded tensor
    rule.  ``transform`` is the unimodular row map sending ambient
    coordinates to (core coordinates, bar coordinates).
    """

    def __init__(self, core: BigradedDGA, nbars: int,
                 transform: Optional[list[list[int]]] = None):
        self.core = core
        self.nbars = nbars
        self.ambient_n = core.n + nbars
        if transform is None:
            transform = exactlin.identity(self.ambient_n)
        self.transform = transform
        self._basis: dict = {}
        self._index: dict = {}

    def bidegrees(self) -> list[tuple[int, int]]:
        out = set()
        for p, q in self.core.bidegrees():
            for extra in range(2 * self.nbars + 1):
                out.add((p + extra, q))
        return sorted(out)

    def basis(self, p: int, q: int):
        key = (p, q)
        got = self._basis.get(key)
        if got is not None:
            return got
        bar_syms = []
        for k in range(self.nbars):
            bar_syms.append((k, 0))
            bar_syms.append((k, 1))
        out = []
        for extra in range(min(p, 2 * self.nbars) + 1):
            pc = p - extra
            if pc > 2 * self.core.n:
                continue
            for bars in itertools.combinations(bar_syms, extra):
                for mono in self.core.basis(pc, q):
                    out.append((mono, bars))
        out.sort(key=lambda m: (m[1], self.core.index(*self.core.bidegree_of(m[0]))[m[0]]))
        self._basis[key] = out
        self._index[key] = {m: i for i, m in enumerate(out)}
        return out

    def dim(self, p: int, q: int) -> int:
        return len(self.basis(p, q))

    def index(self, p: int, q: int):
        self.basis(p, q)
        return self._index[(p, q)]

    @staticmethod
    def bidegree_of(mono) -> tuple[int, int]:
        core_m, bars = mono
        return (len(core_m[2]) + len(bars), len(core_m[1]))

    @staticmethod
    def weight_of(mono) -> int:
        core_m, bars = mono
        w = BigradedDGA.weight_of(core_m)
        for _, kind in bars:
            w += 1 if kind == 0 else -1
        return w

    def unit(self):
        return {(next(iter(self.core.unit())), ()): 1}

    def d(self, elem) -> dict:
        degs = {self.bidegree_of(m) for m in elem}
        if len(degs) > 1:
            raise ModelError("differential needs a bidegree-homogeneous element")
        out: dict = {}
        for (core_m, bars), coeff in elem.items():
            for m2, c2 in self.core.d_monomial(core_m).items():
                key = (m2, bars)
                nc = out.get(key, 0) + coeff * c2
                if nc:
                    out[key] = nc
                elif key in out:
                    del out[key]
        return out

    def multiply(self, e1, e2) -> dict:
        out: dict = {}
        for (m1, b1), c1 in e1.items():
            deg1_bar = len(b1)
            for (m2, b2), c2 in e2.items():
                sign_bars, bars = merge_sign(b1, b2)
                if sign_bars == 0:
                    continue
                # bars of e1 move across the core part of e2
                deg_m2 = len(m2[2]) + len(m2[1])
                sign = sign_bars * (-1 if (deg1_bar * deg_m2) % 2 else 1)
                cc = c1 * c2 * sign
                for m, c in self.core.multiply_monomials(m1, m2).items():
                    key = (m, bars)
                    nc = out.get(key, 0) + cc * c
                    if nc:
                        out[key] = nc
                    elif key in out:
                        del out[key]
        return out

    def one_form(self, xvec: Sequence, yvec: Sequence) -> dict:
        """Degree-(1,0) element from ambient coefficient vectors."""
        out: dict = {}
        for kind, vec in ((0, xvec), (1, yvec)):
            if vec is None:
                continue
            v = [Fraction(x) for x in vec]
            if len(v) != self.ambient_n:
                raise ModelError("coefficient vector has wrong length")
            w = [sum(Fraction(self.transform[i][k]) * v[k]
                     for k in range(self.ambient_n))
                 for i in range(self.ambient_n)]
            core_part = self.core.one_form(w[:self.core.n] if kind == 0 else None,
                                           None if kind == 0 else w[:self.core.n])
            for m, c in core_part.items():
                key = (m, ())
                out[key] = out.get(key, 0) + c
            unit_core = next(iter(self.core.unit()))
            for k in range(self.nbars):
                c = w[self.core.n + k]
                if c:
                    key = (unit_core, ((k, kind),))
                    out[key] = out.get(key, 0) + c
        return {k: v for k, v in out.items() if v}

    def include_core(self, elem: Element) -> dict:
        return {(m, ()): c for m, c in elem.items()}
