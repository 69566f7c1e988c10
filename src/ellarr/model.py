"""The bigraded differential graded algebra attached to an arrangement.

Basis monomials are z_1...z_p * w_{L,I} where L is a layer, I a no-broken-
circuit set associated to L, and the z's are distinct one-form symbols from
the coframe chosen for L.  The differential has bidegree (2,-1); products
are straightened back to this basis through the circuit relations and the
per-layer reduction maps.

A monomial is a tuple (layer_id, iset, mask) of ints: iset is the mask of
the NBC set's divisors, bit i for column i, and mask has bit 2*col + kind
per one-form symbol, kind 0 for the x-side and 1 for the y-side of the
curve, so in both ascending bits are the sorted order.  Elements are
sparse dicts monomial -> int or Fraction.

The generators w_{L,I} and the one-form symbols are both odd, so one sign
rule, `mask_sign`, orders products of index sets and of symbols alike:
wedging a factor onto the right of a mask passes it over the mask's higher
bits, so the sign is the parity of their popcount.  A mask reduces into a
layer's coframe symbol by symbol; when it already lies in the layer's frame
bits (two per coframe column) the form is the mask itself, since a coframe
column's coordinates are a unit vector.  A layer's coframe lies in the
coframe of every layer containing it, so a basis monomial's mask never
needs reducing on the way down, and d needs no reduction but that of
x_j ^ y_j.

There is one differential kernel.  Per (layer, NBC set) it lists the terms
of d that do not depend on the symbols: the sublayer of each index set
with one divisor removed, that set, the signed 1/#components coefficient
and x_j ^ y_j as (mask, coeff) terms in the sublayer's coframe.  ``ranks``
applies it to the masks it enumerates and indexes target rows as the
(sublayer, set) offset plus the mask's rank among the sublayer's
combinations; ``d`` applies it to one monomial.  Products reduce their
masks into the target layer.

Page 3 is ranked per torus weight a = #x - #y.  The swap sigma of x and y
maps each basis monomial to a basis monomial, up to the sign of re-sorting
its symbols, and d(sigma m) = -sigma(d m): d wedges in x_j ^ y_j, and
y_j ^ x_j = -x_j ^ y_j.  So the weight -a block of d has the rank of the
weight a block, and only a >= 0 is built.  Ranks stream: each block's
columns are built, ranked and dropped, and only ``d`` caches images.  The
audits stream too: the d^2 = 0 check memoizes images for one block at a
time, and the dimension audit enumerates each block without storing it.

Page 2 is counted, not enumerated: every layer of rank q has a coframe of
k = n - q columns, so (p, q) has sum |nbc(L)| * C(2k, p) monomials, and
C(k, i) * C(k, p - i) of each L's choices carry weight 2i - p.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction
from math import comb

from . import arrangement as arr_mod
from . import exactlin
from .arrangement import Arrangement, LayerPoset

Monomial = tuple[int, int, int]
Element = dict[Monomial, int | Fraction]


def mask_sign(left: int, right: int) -> int:
    """Sign of sorting the odd factors of ``left`` followed by those of
    ``right`` (symbols or divisors), or 0 when they share one: each factor
    of ``right`` passes the factors of ``left`` above it."""
    if left & right:
        return 0
    passes = 0
    while right:
        low = right & -right
        passes += (left & -(low << 1)).bit_count()
        right ^= low
    return -1 if passes & 1 else 1


def mask_weight(mask: int) -> int:
    """#x - #y symbols of a mask: x symbols sit on the even bits, whose
    mask up to bit 2*b is (4**b - 1) // 3."""
    xs = mask & (4 ** mask.bit_length() - 1) // 3
    return 2 * xs.bit_count() - mask.bit_count()


def _lex_ranks(frame: int, size: int) -> dict[int, int]:
    """Each size-``size`` submask of ``frame`` -> its lexicographic rank,
    the order ``itertools.combinations`` gives the sorted frame bits."""
    bits = [1 << b for b in range(frame.bit_length()) if frame >> b & 1]
    return {sum(combo): i
            for i, combo in enumerate(itertools.combinations(bits, size))}


class ModelError(ValueError):
    pass


class BigradedDGA:
    """Model of an essential arrangement, built lazily per bidegree."""

    def __init__(self, arrangement: Arrangement, poset: LayerPoset | None = None):
        if not arr_mod.is_essential(arrangement):
            raise ModelError(
                "arrangement is not essential (rank < ambient dimension); "
                "split off the torus factors first")
        self.arrangement = arrangement
        self.n = arrangement.n
        self.poset = poset if poset is not None else arr_mod.build_poset(arrangement)
        self._nbc: dict[tuple[int, int], list[int]] = {}
        self._coframe: dict[int, tuple[int, ...]] = {}
        self._flat_basis: dict[int, list[int]] = {}
        self._reduction: dict[int, tuple[int, list[list[int]]]] = {}
        self._red_col: dict[tuple[int, int], tuple[int | Fraction, ...]] = {}
        self._frames: dict[int, int] = {}
        self._xy: dict[tuple[int, int], tuple] = {}
        self._basis: dict[tuple[int, int], list[Monomial]] = {}
        self._index: dict[tuple[int, int], dict[Monomial, int]] = {}
        self._straight: dict[tuple[int, int], dict] = {}
        self._d_cache: dict[Monomial, Element] = {}
        self._ranks: dict[tuple[int, int], dict[int, int]] = {}
        self._section_count: dict[tuple[int, int], int] = {}

    # ----- per-layer data ---------------------------------------------

    def nbc(self, layer_id: int) -> list[int]:
        """The masks of the layer's NBC sets, shared by layers with one
        flat and rank."""
        layer = self.poset.layers[layer_id]
        key = (layer.flat, layer.rank)
        got = self._nbc.get(key)
        if got is None:
            got = self._nbc[key] = arr_mod.nbc_sets(self.arrangement, layer)
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
        for j in arr_mod.bits_of(layer.flat):
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

    def frame_mask(self, layer_id: int) -> int:
        """The bits of both symbols of every coframe column of the layer."""
        got = self._frames.get(layer_id)
        if got is None:
            got = 0
            for col in self.coframe(layer_id):
                got |= 3 << (2 * col)
            self._frames[layer_id] = got
        return got

    def _mask_form(self, layer_id: int, mask: int) -> dict[int, int | Fraction]:
        """The wedge of the mask's symbols in the layer's coframe.

        Masks inside the frame are their own form; the others are reduced
        symbol by symbol.
        """
        if not mask & ~self.frame_mask(layer_id):
            return {mask: 1}
        cofr = self.coframe(layer_id)
        form = {0: 1}
        rest = mask
        while rest and form:
            low = rest & -rest
            rest ^= low
            bit = low.bit_length() - 1
            lam = self.reduce_column(layer_id, bit >> 1)
            out: dict = {}
            for u, x in enumerate(lam):
                if not x:
                    continue
                sym = 1 << (2 * cofr[u] + (bit & 1))
                above = -(sym << 1)   # appended last, sym passes these bits
                for m, c in form.items():
                    if m & sym:
                        continue
                    t = m | sym
                    odd = (m & above).bit_count() % 2
                    v = out.get(t, 0) + (-c * x if odd else c * x)
                    if v:
                        out[t] = v
                    else:
                        out.pop(t, None)
            form = out
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
        out = list(self._monomials(p, q))
        self._basis[key] = out
        self._index[key] = {m: i for i, m in enumerate(out)}
        return out

    def _monomials(self, p: int, q: int) -> Iterator[Monomial]:
        """The basis of (p, q) in order, enumerated and stored nowhere:
        per layer of rank q, per NBC set, the size-p frame submasks in
        lexicographic order."""
        if p < 0:
            return
        for lid in self.poset.by_rank.get(q, ()):
            masks = list(_lex_ranks(self.frame_mask(lid), p))
            for iset in self.nbc(lid):
                for mask in masks:
                    yield (lid, iset, mask)

    def dim(self, p: int, q: int) -> int:
        """Number of basis monomials, counted: see the module docstring."""
        if p < 0 or q < 0:
            return 0
        pairs = sum(len(self.nbc(lid)) for lid in self.poset.by_rank.get(q, ()))
        return pairs * comb(2 * (self.n - q), p)

    def index(self, p: int, q: int) -> dict[Monomial, int]:
        self.basis(p, q)
        return self._index[(p, q)]

    def total_dimension(self) -> int:
        """Number of enumerated basis monomials, over every bidegree.

        The blocks are enumerated one at a time and not stored.
        """
        return sum(1 for p, q in self.bidegrees() for _ in self._monomials(p, q))

    def monomials_at(self, positions: Sequence[int]) -> list[Monomial]:
        """The monomials at ``positions`` of the concatenated bases of all
        bidegrees, in ``bidegrees()`` order.

        Blocks holding no position are skipped by their counted dimension;
        the others are enumerated one at a time and not stored.
        """
        want = set(positions)
        found: dict[int, Monomial] = {}
        start = 0
        for p, q in self.bidegrees():
            end = start + self.dim(p, q)
            if any(start <= i < end for i in want):
                for i, mono in enumerate(self._monomials(p, q), start):
                    if i in want:
                        found[i] = mono
            start = end
        return [found[i] for i in positions]

    @staticmethod
    def bidegree_of(mono: Monomial) -> tuple[int, int]:
        return (mono[2].bit_count(), mono[1].bit_count())

    @staticmethod
    def weight_of(mono: Monomial) -> int:
        return mask_weight(mono[2])

    # ----- straightening ------------------------------------------------

    def straighten(self, layer_id: int, iset: int) -> dict:
        """Expand w_{L, iset} over the no-broken-circuit sets of the layer,
        as {NBC set mask: coeff}.

        Repeatedly rewrites through the circuit relation at the broken
        circuit with the largest mask present; each rewrite swaps a member
        for the smaller circuit minimum, so the sorted index set strictly
        decreases lexicographically and the recursion terminates.
        """
        flat = self.poset.layers[layer_id].flat
        key = (flat, iset)
        got = self._straight.get(key)
        if got is not None:
            return got
        ground = arr_mod.bits_of(flat)

        def broken(chain: int):
            best = None
            top = chain.bit_length() - 1
            for e in ground:
                if e >= top:
                    break
                if chain >> e & 1:
                    continue
                circ = arr_mod.fundamental_circuit(
                    self.arrangement, e, arr_mod.bits_of(chain >> e << e))
                if circ is not None:
                    bc = arr_mod.mask_of(circ) ^ 1 << e
                    if best is None or bc > best[1]:
                        best = (circ, bc)
            return best

        def expand(chain: int) -> dict:
            got = self._straight.get((flat, chain))
            if got is not None:
                return got
            hit = broken(chain)
            if hit is None:
                result = {chain: 1}
            else:
                circ, bc = hit
                rest = chain ^ bc
                sign_front = mask_sign(bc, rest)
                whole = bc | 1 << circ[0]
                result: dict = {}
                for t in range(1, len(circ)):
                    # circuit relation solved for the broken-circuit term
                    repl = whole ^ 1 << circ[t]
                    sgn = -1 if t % 2 == 0 else 1
                    sign_back = mask_sign(repl, rest)
                    if sign_back == 0:
                        continue
                    sub = expand(repl | rest)
                    f = sign_front * sgn * sign_back
                    for k, c in sub.items():
                        nc = result.get(k, 0) + f * c
                        if nc:
                            result[k] = nc
                        elif k in result:
                            del result[k]
            self._straight[(flat, chain)] = result
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
        """Image under the rank-lowering differential, in the chosen basis."""
        lid, iset, mask = mono
        if mask & ~self.frame_mask(lid):
            raise ModelError("symbols outside the coframe of layer %d" % lid)
        terms = self._kernel_terms(lid, iset)
        out: Element = {}
        for (sub, rest, _, _), part in zip(terms, self._apply_kernel(terms, mask)):
            for t, c in part.items():
                out[(sub, rest, t)] = c
        return out

    def _kernel_terms(self, lid: int, iset: int) -> list:
        """The terms of d on w_{L, iset}: (sub, rest, coeff, xy) per divisor.

        They do not depend on the symbols: ``ranks`` builds them once per
        (layer, NBC set) for all its masks, and keeps none.

        Removing divisor j from the index set leaves ``rest``, whose
        component containing L is ``sub``; ``xy`` is ``_xy_terms(sub, j)``.
        The coefficient carries the sign of moving j to the front and the
        reciprocal of the number of components of the divisor section
        inside ``sub``: the class of one component is that fraction of the
        pulled-back point class, so this is what matches the sheaf-level
        differential (for connected sections the factor is 1 and integral
        coefficients stay ints).
        """
        terms = []
        for pos, j in enumerate(arr_mod.bits_of(iset)):
            rest = iset ^ 1 << j
            sub = self.poset.component_inside(rest, lid)
            if sub is None:
                raise ModelError("no layer for %s over layer %d"
                                 % (arr_mod.bits_of(rest), lid))
            xy = self._xy_terms(sub, j)
            if not xy:
                continue
            ncomp = self._section_components(sub, iset)
            coeff = 1 if ncomp == 1 else Fraction(1, ncomp)
            # pos = |{k in rest : k < j}| since the bits ascend
            terms.append((sub, rest, coeff if pos % 2 == 0 else -coeff, xy))
        return terms

    def _section_components(self, outer: int, iset: int) -> int:
        key = (outer, iset)
        got = self._section_count.get(key)
        if got is None:
            got = sum(1 for wid in self.poset.layers_associated(iset)
                      if self.poset.leq(outer, wid))
            self._section_count[key] = got
        return got

    def _xy_terms(self, sub: int, j: int) -> tuple:
        """x_j ^ y_j in the coframe of ``sub``, shared by every kernel term
        that wedges it: (mask, coeff, bits between its two symbols)."""
        key = (sub, j)
        got = self._xy.get(key)
        if got is None:
            got = []
            for m, c in self._mask_form(sub, 3 << (2 * j)).items():
                low = m & -m
                got.append((m, c, (m ^ low) - (low << 1)))
            got = self._xy[key] = tuple(got)
        return got

    @staticmethod
    def _apply_kernel(terms: list, mask: int) -> list[dict]:
        """d of z_mask * w_{L, iset}: one {target mask: coeff} per term.

        The mask lies in L's frame, and so in every sublayer's frame: a
        coframe takes column j when j is outside the span of the flat and
        the columns before j, and a sublayer's flat is smaller.  So each
        term wedges x_j ^ y_j onto the right of the mask itself: both
        symbols pass the mask's symbols above them, so the sign is the
        parity of those between the two.  Each term has its own index set
        ``rest``, so the parts are disjoint.
        """
        flip = mask.bit_count() % 2
        parts = []
        for _, _, coeff, xy in terms:
            if flip:
                coeff = -coeff
            part: dict = {}
            for xm, xc, between in xy:
                if not mask & xm:
                    odd = (mask & between).bit_count() % 2
                    part[mask | xm] = -coeff * xc if odd else coeff * xc
            parts.append(part)
        return parts

    def ranks(self, p: int, q: int) -> dict[int, int]:
        """Exact rank of d: (p,q) -> (p+2,q-1), per weight block.

        Only the blocks of weight a >= 0 are built; block -a has the rank
        of block a, since the x<->y swap maps basis to signed basis and
        anticommutes with d.  Columns stream from the kernel, one block at
        a time: a block's columns are built from the masks of its weight
        of every (layer, NBC set), ranked and dropped before the next
        block's are built; the kernel terms are rebuilt per block rather
        than held.  Target rows follow the order of ``basis(p+2, q-1)``:
        each (layer, NBC set) pair owns C(2k, p+2) consecutive rows, one
        per combination of its frame bits in lexicographic order.
        """
        key = (p, q)
        got = self._ranks.get(key)
        if got is not None:
            return got
        out: dict[int, int] = {}
        if q >= 1 and self.dim(p, q) and self.dim(p + 2, q - 1):
            width = comb(2 * (self.n - q + 1), p + 2)
            offset: dict[tuple[int, int], int] = {}
            for lid in self.poset.by_rank[q - 1]:
                for iset in self.nbc(lid):
                    offset[(lid, iset)] = len(offset) * width
            lex: dict[int, dict[int, int]] = {}   # frame -> lex ranks
            by_weight: dict[int, dict[int, list[int]]] = {}
            for lid in self.poset.by_rank[q]:
                for mask in _lex_ranks(self.frame_mask(lid), p):
                    a = mask_weight(mask)
                    if a >= 0:
                        by_weight.setdefault(a, {}).setdefault(lid, []).append(mask)
            for a, masks in by_weight.items():
                cols = []
                for lid, lid_masks in masks.items():
                    for iset in self.nbc(lid):
                        terms = self._kernel_terms(lid, iset)
                        rows = []
                        for sub, rest, _, _ in terms:
                            frame = self.frame_mask(sub)
                            if frame not in lex:
                                lex[frame] = _lex_ranks(frame, p + 2)
                            rows.append((offset[(sub, rest)], lex[frame]))
                        for mask in lid_masks:
                            col: dict = {}
                            parts = self._apply_kernel(terms, mask)
                            for (base, rank), part in zip(rows, parts):
                                for t, c in part.items():
                                    col[base + rank[t]] = c
                            if col:
                                cols.append(col)
                if cols:
                    out[a] = out[-a] = exactlin.sparse_rank(cols)
        self._ranks[key] = out
        return out

    def d(self, elem: Element) -> Element:
        if element_bidegree(elem) is None and elem:
            raise ModelError("differential needs a bidegree-homogeneous element")
        return _extend(elem, self.d_monomial)

    # ----- products ------------------------------------------------------

    def multiply_monomials(self, m1: Monomial, m2: Monomial) -> Element:
        l1, i1, mask1 = m1
        l2, i2, mask2 = m2
        if mask1 & mask2 or i1 & i2:
            return {}
        union = i1 | i2
        targets = self.poset.layers_associated(union)
        if not targets:
            return {}
        koszul = -1 if (mask2.bit_count() * i1.bit_count()) % 2 else 1
        base = mask_sign(i1, i2) * koszul * mask_sign(mask1, mask2)
        out: Element = {}
        for lid in targets:
            if not (self.poset.leq(l1, lid) and self.poset.leq(l2, lid)):
                continue
            form = self._mask_form(lid, mask1 | mask2)
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
        return {(self.ambient_layer, 0, 0): 1}

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
                    key = (amb, 0, 1 << (2 * cofr[u] + kind))
                    out[key] = out.get(key, 0) + lam[u]
        return {k: v for k, v in out.items() if v}

    def column_form(self, col: int, kind: int) -> Element:
        """The degree-(1,0) generator attached to one divisor equation."""
        vec = [Fraction(x) for x in self.arrangement.columns[col]]
        if kind == 0:
            return self.one_form(vec, None)
        return self.one_form(None, vec)

    def omega(self, layer_id: int, iset: int) -> Element:
        """Generator w_{L,I} for the index set mask ``iset``, straightened
        to the basis."""
        layer = self.poset.layers[layer_id]
        if iset.bit_count() != layer.rank:
            raise ModelError("index set size must match the layer rank")
        if iset & ~layer.flat:
            raise ModelError("index set must consist of divisors containing the layer")
        return {(layer_id, k, 0): c for k, c in self.straighten(layer_id, iset).items()}

    def omega_generators(self, col: int) -> Element:
        """Sum over components of omega for a single divisor; for a connected
        divisor this is the single generator of the rank-1 layer."""
        out: Element = {}
        for lid in self.poset.layers_associated(1 << col):
            out[(lid, 1 << col, 0)] = 1
        return out

    # ----- audits ---------------------------------------------------------

    def verify_d_squared(self) -> bool:
        """Is d(d(m)) = 0 for every basis monomial m?

        Streams one source block at a time: images come from the uncached
        kernel, those of the block's target monomials are memoized for
        that block only, and ``d_monomial``'s cache is neither read nor
        written.
        """
        memo: dict[Monomial, Element] = {}

        def image(mono: Monomial) -> Element:
            got = memo.get(mono)
            if got is None:
                got = memo[mono] = self._image(mono)
            return got

        for p, q in self.bidegrees():
            memo.clear()
            for mono in self._monomials(p, q):
                if _extend(self._image(mono), image):
                    return False
        return True

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


def element_bidegree(elem: Element) -> tuple[int, int] | None:
    degs = {(m[2].bit_count(), m[1].bit_count()) for m in elem}
    if len(degs) == 1:
        return degs.pop()
    return None


def _extend(elem: Element, image: Callable[[Monomial], Element]) -> Element:
    """The linear extension of ``image`` (monomial -> element) at ``elem``."""
    out: Element = {}
    for mono, coeff in elem.items():
        for m2, c2 in image(mono).items():
            nc = out.get(m2, 0) + coeff * c2
            if nc:
                out[m2] = nc
            elif m2 in out:
                del out[m2]
    return out


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

    Monomials are pairs (core monomial, bars) where bars is the mask of the
    one-form symbols of the split-off curve factors, bit 2*factor + kind.
    The differential ignores the bars; products follow the graded tensor
    rule.  ``transform`` is the unimodular row map sending ambient
    coordinates to (core coordinates, bar coordinates).
    """

    def __init__(self, core: BigradedDGA, nbars: int,
                 transform: list[list[int]] | None = None):
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
        out = [(mono, bars) for bars in range(1 << 2 * self.nbars)
               for mono in self.core.basis(p - bars.bit_count(), q)]
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
        return (core_m[2].bit_count() + bars.bit_count(), core_m[1].bit_count())

    @staticmethod
    def weight_of(mono) -> int:
        core_m, bars = mono
        return mask_weight(core_m[2]) + mask_weight(bars)

    def unit(self):
        return {(next(iter(self.core.unit())), 0): 1}

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
            deg1_bar = b1.bit_count()
            for (m2, b2), c2 in e2.items():
                sign_bars = mask_sign(b1, b2)
                if sign_bars == 0:
                    continue
                # bars of e1 move across the core part of e2
                deg_m2 = m2[2].bit_count() + m2[1].bit_count()
                sign = sign_bars * (-1 if (deg1_bar * deg_m2) % 2 else 1)
                cc = c1 * c2 * sign
                for m, c in self.core.multiply_monomials(m1, m2).items():
                    key = (m, b1 | b2)
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
                key = (m, 0)
                out[key] = out.get(key, 0) + c
            unit_core = next(iter(self.core.unit()))
            for k in range(self.nbars):
                c = w[self.core.n + k]
                if c:
                    key = (unit_core, 1 << (2 * k + kind))
                    out[key] = out.get(key, 0) + c
        return {k: v for k, v in out.items() if v}

    def include_core(self, elem: Element) -> dict:
        return {(m, 0): c for m, c in elem.items()}
