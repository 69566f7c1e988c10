"""Arrangements of divisors on a product of elliptic curves.

A divisor is encoded by an integer column (its group equation) plus an
optional torsion offset, one rational mod 1 per circle coordinate of the
curve.  Layers are connected components of divisor intersections; they are
identified by their key: the saturated lattice of their defining equations
together with the lattice's pairings with any point of the layer.  Keys make
deduplication exact, and they make containment a lookup: for a lattice M
inside the lattice of a layer B, the one layer with lattice M that can
contain B is keyed by M and M's pairings with a point of B.  Lattice
inclusion is read off a span table, the set of columns in the rational span
of each distinct lattice.

A set of divisors that the poset holds or looks up (a flat, a span, an
independent or NBC set) is an int mask, bit i for column i.

Inside the poset construction, witnesses and pairings are integer
numerators: each set's over its own denominator, deduplicated by keys in
lowest terms, then every layer's over one denominator for the whole
arrangement, on which the layer order, flats and containment run as int
tuples.  Each `Layer` carries them as Fractions.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import exactlin

Offset = tuple[Fraction, Fraction]


class ArrangementError(ValueError):
    pass


class Frozen:
    """Base of the package's immutable records.

    ``__init__`` takes the slots in order and sets each once with
    ``object.__setattr__``; assigning or deleting an attribute afterwards
    raises ``AttributeError``.  Copies and pickles go through ``__init__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to %s.%s"
                             % (type(self).__name__, name))

    def __delattr__(self, name):
        raise AttributeError("cannot delete %s.%s"
                             % (type(self).__name__, name))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (k, getattr(self, k)) for k in self.__slots__))

    def __reduce__(self):
        return type(self), tuple(getattr(self, k) for k in self.__slots__)


class Arrangement(Frozen):
    """n-dimensional ambient, one integer column per divisor.

    Columns must be nonzero with coprime entries (a divisor is connected
    exactly when the gcd of its coefficients is 1).  The column order is
    fixed and meaningful: broken circuits, bases and signs depend on it.
    Offsets are normalised mod 1, with all zeros when none are given.
    Arrangements compare and hash by value.
    """

    __slots__ = ("n", "columns", "offsets")

    def __init__(self, n: int, columns: tuple[tuple[int, ...], ...],
                 offsets: tuple[Offset, ...] = ()):
        if n < 0:
            raise ArrangementError("ambient dimension must be >= 0")
        cols = tuple(tuple(int(x) for x in c) for c in columns)
        for k, c in enumerate(cols):
            if len(c) != n:
                raise ArrangementError(
                    "column %d has length %d, expected %d" % (k, len(c), n))
            g = 0
            for x in c:
                g = gcd(g, abs(x))
            if g != 1:
                raise ArrangementError(
                    "column %d has gcd %d; a divisor is connected only if the "
                    "gcd of its coefficients is 1" % (k, g))
        if offsets:
            offs = tuple((Fraction(a) % 1, Fraction(b) % 1)
                         for a, b in offsets)
        else:
            offs = tuple((Fraction(0), Fraction(0)) for _ in cols)
        if len(offs) != len(cols):
            raise ArrangementError("need one offset per divisor")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "offsets", offs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n == other.n and self.columns == other.columns
                and self.offsets == other.offsets)

    def __hash__(self):
        return hash((self.n, self.columns, self.offsets))

    @property
    def size(self) -> int:
        return len(self.columns)

    def matrix(self) -> list[list[int]]:
        """Defining matrix: columns are the divisor equations."""
        return [[self.columns[j][i] for j in range(self.size)]
                for i in range(self.n)]

    def submatrix_t(self, indices: Iterable[int]) -> list[list[int]]:
        """Rows of the transposed system for the chosen divisors."""
        return [list(self.columns[i]) for i in indices]


class Layer(Frozen):
    """A connected component of a divisor intersection.

    ``lattice`` is the Hermite basis of the saturated equation lattice and
    ``t1``/``t2`` are the lattice pairings of any point of the layer, per
    circle coordinate; together they determine the layer as a point set.
    ``witness1``/``witness2`` are such a point.  Pairings and witnesses are
    Fractions in [0, 1) here; `build_poset` computes them as integer
    numerators over one common denominator and converts them once per layer.
    ``flat`` is the mask of the divisors containing the layer.  Layers
    compare by identity: a poset holds one object per layer, and ``key`` is
    the value to compare across posets.
    """

    __slots__ = ("rank", "lattice", "t1", "t2", "witness1", "witness2",
                 "flat", "index")

    def __init__(self, rank: int, lattice: tuple[tuple[int, ...], ...],
                 t1: tuple[Fraction, ...], t2: tuple[Fraction, ...],
                 witness1: tuple[Fraction, ...], witness2: tuple[Fraction, ...],
                 flat: int, index: int = -1):
        for name, value in zip(Layer.__slots__, (rank, lattice, t1, t2,
                                                 witness1, witness2, flat,
                                                 index)):
            object.__setattr__(self, name, value)

    @property
    def key(self):
        return (self.lattice, self.t1, self.t2)


def _pairing(lattice, point, den) -> tuple[int, ...]:
    """Pairings of integer rows with a point given as integer numerators
    over ``den``, as numerators over ``den`` reduced into [0, den)."""
    return tuple([sum(map(mul, row, point)) % den for row in lattice])


def _scaled_offsets(arr: Arrangement, den: int) -> list[tuple]:
    """Each divisor's offset as integer numerators over ``den``.

    A coordinate whose scaled value is not an integer becomes None, which
    equals no pairing: no point over ``den`` lies on that divisor.
    """
    return [tuple(x.numerator * (den // x.denominator)
                  if den % x.denominator == 0 else None for x in off)
            for off in arr.offsets]


def _offset_numerators(arr: Arrangement) -> tuple[int, list[tuple]]:
    """The offsets as integer numerators over their common denominator."""
    den = lcm(*(x.denominator for off in arr.offsets for x in off))
    return den, _scaled_offsets(arr, den)


def _fractions(nums, den, memo: dict[int, Fraction]) -> tuple[Fraction, ...]:
    """Numerators over ``den`` as Fractions, one shared object per value."""
    out = []
    for x in nums:
        f = memo.get(x)
        if f is None:
            f = memo[x] = Fraction(x, den)
        out.append(f)
    return tuple(out)


def independent_sets(arr: Arrangement) -> list[tuple[int, ...]]:
    """All independent column index sets, in lexicographic order.

    Depth-first growth with an integer echelon carried along each branch;
    rows are kept primitive to bound entry growth.
    """
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], rows):
        out.append(prefix)
        start = prefix[-1] + 1 if prefix else 0
        for j in range(start, arr.size):
            red = exactlin.echelon_reduce(rows, arr.columns[j])
            if red is not None:
                extend(prefix + (j,), rows + [red])

    extend((), [])
    return out


def circuits(arr: Arrangement) -> list[tuple[int, ...]]:
    """Minimal dependent sets, in lexicographic order.

    A circuit C minus its largest member is independent, and C is the
    unique circuit inside it plus that member.  So the depth-first growth
    of `independent_sets` finds each circuit once: a later column e closes
    the circuit prefix + (e,) exactly when e lies in the span of the prefix
    and its expansion uses every prefix column.  Each column is extended
    by its own unit vector, so the remainder of e against the branch's
    integer echelon of extended columns holds that expansion, up to scale,
    on the unit coordinates once it is zero on the columns' coordinates
    (as in `fundamental_circuit`).  A circuit is never extended, so the
    growth order is lexicographic.
    """
    n, size = arr.n, arr.size
    ext = [col + tuple(int(i == j) for i in range(size))
           for j, col in enumerate(arr.columns)]
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], rows):
        start = prefix[-1] + 1 if prefix else 0
        for e in range(start, size):
            lead, row = exactlin.echelon_reduce(rows, ext[e])
            if lead >= n:
                if all(row[n + j] for j in prefix):
                    out.append(prefix + (e,))
            else:
                extend(prefix + (e,), rows + [(lead, row)])

    extend((), [])
    return out


def fundamental_circuit(arr: Arrangement, e: int, independent: Sequence[int]
                        ) -> tuple[int, ...] | None:
    """The unique circuit inside independent + {e}, or None when e is not
    in the span of the independent set.

    A member j is in the circuit exactly when e is not in the span of the
    others, that is, when j has a nonzero coefficient in e's expansion
    over the independent set.  Each column is extended by a unit vector
    that records it, so the remainder of e against one integer echelon of
    the extended columns is zero on the columns' coordinates and holds
    that expansion, up to scale, on the unit ones.
    """
    cols = sorted(independent)
    k = len(cols)
    rows: list = []
    for t, j in enumerate(cols + [e]):
        lead, row = exactlin.echelon_reduce(
            rows, arr.columns[j] + tuple(int(t == s) for s in range(k + 1)))
        rows.append((lead, row))
    if lead < arr.n:
        return None
    return tuple(sorted([e] + [j for t, j in enumerate(cols) if row[arr.n + t]]))


def _components_raw(arr: Arrangement, idx: tuple[int, ...], den: int,
                    offsets: list[tuple]):
    """Component data without flats, over one denominator.

    ``offsets`` are the arrangement's offsets as numerators over ``den``
    (`_offset_numerators`).  Returns (den', components), each component
    (rank, lattice, t1, t2, w1, w2) with pairings and witnesses as integer
    numerators over den'.
    """
    zero = (0,) * arr.n
    if not idx:
        return 1, [(0, (), (), (), zero, zero)]
    system = arr.submatrix_t(idx)           # |I| x n rows c_i^T
    q1 = [offsets[i][0] for i in idx]
    q2 = [offsets[i][1] for i in idx]
    snf = exactlin.smith_normal_form(system)
    if not any(q1) and not any(q2) and all(d == 1 for d in snf.divisors):
        # connected intersection through the origin
        lattice = exactlin.hermite_row_basis(system)
        zk = (0,) * len(lattice)
        return 1, [(len(idx), lattice, zk, zk, zero, zero)]
    point_den, sols1 = exactlin.torsion_numerators(snf, len(idx), den, q1)
    _, sols2 = exactlin.torsion_numerators(snf, len(idx), den, q2)
    vinv = exactlin.inv_unimodular(snf.v)
    lattice = exactlin.hermite_row_basis(vinv[:len(snf.divisors)])
    pairs1 = [(_pairing(lattice, w1, point_den), w1) for w1 in sols1]
    pairs2 = [(_pairing(lattice, w2, point_den), w2) for w2 in sols2]
    return point_den, [(len(idx), lattice, t1, t2, w1, w2)
                       for t1, w1 in pairs1 for t2, w2 in pairs2]


def components_of(arr: Arrangement, independent: Sequence[int]) -> list[Layer]:
    """One Layer per connected component of the intersection over ``independent``.

    The two circle coordinates of the curve are solved separately and the
    component sets multiply; the component count is the squared product of
    the elementary divisors.
    """
    idx = tuple(sorted(independent))
    if exactlin.rational_rank(arr.submatrix_t(idx)) < len(idx):
        raise ArrangementError("%s is a dependent set" % (idx,))
    den, comps = _components_raw(arr, idx, *_offset_numerators(arr))
    offsets = _scaled_offsets(arr, den)
    memo: dict[int, Fraction] = {}
    layers = []
    for rank, lattice, t1, t2, w1, w2 in comps:
        flat = _flat_of(arr, _span(arr, lattice), den, offsets, w1, w2)
        layers.append(Layer(rank=rank, lattice=lattice,
                            t1=_fractions(t1, den, memo),
                            t2=_fractions(t2, den, memo),
                            witness1=_fractions(w1, den, memo),
                            witness2=_fractions(w2, den, memo), flat=flat))
    return layers


def mask_of(indices: Iterable[int]) -> int:
    """The int mask of an index set: bit i stands for column i."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def bits_of(mask: int) -> list[int]:
    """The columns of a mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _span(arr: Arrangement, lattice) -> int:
    """Mask of the columns in the rational span of a lattice's Hermite basis.

    A layer's lattice is the saturation of the columns in its span, so for
    two layer lattices, M <= N exactly when span(M) & ~span(N) == 0.
    """
    return mask_of(i for i, col in enumerate(arr.columns)
                   if exactlin.in_row_span(lattice, col))


def _flat_of(arr, span, den, offsets, w1, w2) -> int:
    """Mask of the divisors containing the whole layer: in its lattice's
    span and through one of its points.  The witnesses and ``offsets``
    (`_scaled_offsets`) are numerators over ``den``."""
    cols = arr.columns
    return mask_of(i for i in bits_of(span)
                   if (sum(map(mul, cols[i], w1)) % den,
                       sum(map(mul, cols[i], w2)) % den) == offsets[i])


class LayerPoset:
    """Graded poset of layers, ordered so the whole space is the minimum.

    ``leq(a, b)`` means layer a contains layer b as point sets.  Layers are
    indexed in a deterministic order (rank, then lattice key, then component
    label), so downstream constructions are reproducible.

    Containment is found by lookup, not by testing all pairs.  A layer a
    contains b exactly when a's lattice lies in b's (their spans nest) and
    a's key equals a's lattice paired with a point of b.  So for each b and
    each distinct lattice M of lower rank with span(M) <= span(b), at most
    one layer, the one keyed by M and b's pairings, lies below b.

    Sets of divisors are int masks (bit i for column i): a layer's flat,
    the span table and the keys of ``assoc``, which maps each independent
    set to the sorted indices of its layers.  Equal index tuples are one
    shared object, so the map holds one int per set and one tuple per
    distinct association.  `layers_associated` and `component_inside`
    take a set as its mask and look it up once.
    """

    def __init__(self, arr: Arrangement, layers: list[Layer],
                 assoc: dict[int, tuple[int, ...]],
                 span: dict[tuple, int], den: int,
                 points: list[tuple]):
        """``points[i]`` is layer i's (t1, t2, w1, w2) as integer
        numerators over ``den``."""
        self.arrangement = arr
        self.layers = layers
        self.assoc = assoc
        by_rank: dict[int, list[int]] = {}
        for lay in layers:
            by_rank.setdefault(lay.rank, []).append(lay.index)
        self.by_rank = by_rank
        index_of = {(lay.lattice, t1, t2): lay.index
                    for lay, (t1, t2, _, _) in zip(layers, points)}
        lattices = list(dict.fromkeys(lay.lattice for lay in layers))  # by rank
        zero_key = {lat: (lat, (0,) * len(lat), (0,) * len(lat))
                    for lat in lattices}
        self._above = [0] * len(layers)   # bitmask: j with leq(i, j)
        for b, (_, _, w1, w2) in zip(layers, points):
            bit = 1 << b.index
            self._above[b.index] |= bit
            inner = span[b.lattice]
            at_origin = not any(w1) and not any(w2)
            for lat in lattices:
                if len(lat) >= b.rank:
                    break
                if span[lat] & ~inner:
                    continue
                if at_origin:
                    key = zero_key[lat]
                else:
                    key = (lat, _pairing(lat, w1, den), _pairing(lat, w2, den))
                a = index_of.get(key)
                if a is not None:
                    self._above[a] |= bit

    def leq(self, a: int, b: int) -> bool:
        return bool(self._above[a] >> b & 1)

    @property
    def size(self) -> int:
        return len(self.layers)

    def rank(self, a: int) -> int:
        return self.layers[a].rank

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (a, b) with a < b and rank(b) = rank(a) + 1, sorted."""
        out = []
        for a in self.layers:
            above = self._above[a.index]
            for b in self.by_rank.get(a.rank + 1, ()):
                if above >> b & 1:
                    out.append((a.index, b))
        return out

    def layers_associated(self, iset: int) -> tuple[int, ...]:
        """Sorted indices of the layers of the independent set with mask
        ``iset``, () when the set is dependent."""
        return self.assoc.get(iset, ())

    def component_inside(self, iset: int, inner: int) -> int | None:
        """The layer associated to the set ``iset`` containing layer
        ``inner``."""
        for lid in self.assoc.get(iset, ()):
            if self.leq(lid, inner):
                return lid
        return None

    def counts_by_rank(self) -> dict[int, int]:
        return {r: len(v) for r, v in sorted(self.by_rank.items())}


def build_poset(arr: Arrangement) -> LayerPoset:
    """All layers of all independent sets, deduplicated by point set.

    Sets without offsets whose columns generate the same lattice cut out
    the same components, so those are computed once per row lattice.  Each
    set's components come over the set's own denominator and are
    deduplicated as they come, by a key whose pairings are reduced to
    lowest terms.  The kept layers are then put over one denominator D,
    the lcm of theirs, on which the sort, flats and containment run in
    integers; numerators over D sort as the Fractions do.  Spans are
    computed once per distinct lattice and flats once per deduplicated
    layer, not per associated set.  Each set's association is written
    under its bitmask as an interned tuple of first-seen ids, renumbered
    to sorted layer indices once per distinct tuple at the end.
    """
    den0, offsets0 = _offset_numerators(arr)
    seen: dict[tuple, int] = {}        # reduced key -> first-seen id
    found: list[tuple] = []            # id -> (den, rank, lattice, t1, ...)
    assoc: dict[int, tuple[int, ...]] = {}   # set mask -> first-seen ids
    interned: dict[tuple[int, ...], tuple[int, ...]] = {}
    untwisted: dict[tuple, tuple[int, ...]] = {}
    for ind in independent_sets(arr):
        row_lattice = None
        if ind and not any(any(arr.offsets[i]) for i in ind):
            row_lattice = exactlin.hermite_row_basis(arr.submatrix_t(ind))
        ids = untwisted.get(row_lattice)
        if ids is None:
            ids = []
            for key, comp in _keyed_components(arr, ind, den0, offsets0):
                lid = seen.get(key)
                if lid is None:
                    lid = seen[key] = len(found)
                    found.append(comp)
                ids.append(lid)
            ids = tuple(ids)
            ids = interned.setdefault(ids, ids)
            if row_lattice is not None:
                untwisted[row_lattice] = ids
        assoc[mask_of(ind)] = ids
    den = lcm(*(comp[0] for comp in found))
    scaled = []
    for lid, (own, rank, lattice, *nums) in enumerate(found):
        s = den // own
        if s != 1:
            nums = [tuple([s * x for x in v]) for v in nums]
        scaled.append((rank, lattice, *nums, lid))
    scaled.sort()       # distinct layers differ in (rank, lattice, t1, t2)
    position = [0] * len(found)
    offsets = _scaled_offsets(arr, den)
    span: dict[tuple, int] = {}
    memo: dict[int, Fraction] = {}
    layers = []
    points = []
    for i, (rank, lattice, t1, t2, w1, w2, lid) in enumerate(scaled):
        position[lid] = i
        if lattice not in span:
            span[lattice] = _span(arr, lattice)
        layers.append(Layer(rank=rank, lattice=lattice,
                            t1=_fractions(t1, den, memo),
                            t2=_fractions(t2, den, memo),
                            witness1=_fractions(w1, den, memo),
                            witness2=_fractions(w2, den, memo),
                            flat=_flat_of(arr, span[lattice], den, offsets,
                                          w1, w2),
                            index=i))
        points.append((t1, t2, w1, w2))
    by_position: dict[tuple[int, ...], tuple[int, ...]] = {}
    for ids in interned:
        lids = tuple(sorted(position[lid] for lid in ids))
        interned[ids] = by_position.setdefault(lids, lids)
    for mask, ids in assoc.items():
        assoc[mask] = interned[ids]
    return LayerPoset(arr, layers, assoc, span, den, points)


def _keyed_components(arr, ind, den, offsets) -> list[tuple]:
    """(key, (den', *component)) per component of `_components_raw`.

    The key is the lattice with the two pairing tuples put over their least
    common denominator, so equal layers from sets with different
    denominators get equal keys.
    """
    den, comps = _components_raw(arr, ind, den, offsets)
    out = []
    for comp in comps:
        lattice, t1, t2 = comp[1:4]
        g = gcd(den, *t1, *t2)
        if g > 1:
            t1 = tuple(x // g for x in t1)
            t2 = tuple(x // g for x in t2)
        out.append(((lattice, den // g, t1, t2), (den,) + comp))
    return out


def is_essential(arr: Arrangement) -> bool:
    return exactlin.rational_rank(arr.matrix()) == arr.n


def is_unimodular(arr: Arrangement) -> bool:
    """True when every divisor intersection is connected."""
    for ind in independent_sets(arr):
        if not ind:
            continue
        snf = exactlin.smith_normal_form(arr.submatrix_t(ind))
        if any(d != 1 for d in snf.divisors):
            return False
    return True


def arrangement_rank(arr: Arrangement) -> int:
    return exactlin.rational_rank(arr.matrix())


def nbc_sets(arr: Arrangement, layer: Layer) -> list[int]:
    """Masks of the full-rank sets associated to the layer with no broken
    circuit.

    The matroid is the one of the divisors containing the layer, with the
    global column order.  A set s1 < ... < sk of that ground is NBC exactly
    when it is independent and, for every i, no ground element e < s_i
    outside it lies in span{s_i, ..., s_k}.  Sets grow from the top down:
    ground elements are prepended in decreasing order with an integer
    echelon carried along, and a prefix is rejected when the new element
    lies in the span of the suffix, or some ground element below it lies in
    the new span.  Output is in the lexicographic order of the sorted sets.
    """
    ground = bits_of(layer.flat)
    cols = [arr.columns[e] for e in ground]
    target = layer.rank
    out: list[int] = []

    def extend(suffix: int, rows, top: int):
        need = target - suffix.bit_count()
        if not need:
            out.append(suffix)
            return
        for pos in range(top - 1, need - 2, -1):
            red = exactlin.echelon_reduce(rows, cols[pos])
            if red is None:
                continue
            grown = rows + [red]
            if any(exactlin.echelon_reduce(grown, cols[e]) is None
                   for e in range(pos)):
                continue
            extend(suffix | 1 << ground[pos], grown, pos)

    extend(0, [], len(ground))
    out.sort(key=bits_of)
    return out


def poset_isomorphic(p1: LayerPoset, p2: LayerPoset) -> dict[int, int] | None:
    """A rank-preserving order isomorphism, or None.

    Candidates are narrowed by iterated refinement of an order-degree
    invariant before a backtracking search.
    """
    if p1.size != p2.size or p1.counts_by_rank() != p2.counts_by_rank():
        return None

    def refine(poset: LayerPoset) -> list:
        colors = [poset.rank(i) for i in range(poset.size)]
        while True:
            sigs = []
            for i in range(poset.size):
                below = sorted(colors[j] for j in range(poset.size)
                               if j != i and poset.leq(j, i))
                above = sorted(colors[j] for j in range(poset.size)
                               if j != i and poset.leq(i, j))
                sigs.append((colors[i], tuple(below), tuple(above)))
            palette = {s: c for c, s in enumerate(sorted(set(sigs)))}
            new = [palette[s] for s in sigs]
            if new == colors:
                return colors
            colors = new

    c1, c2 = refine(p1), refine(p2)
    if sorted(c1) != sorted(c2):
        return None
    order = sorted(range(p1.size), key=lambda i: (-_color_rarity(c1, c1[i]), i))
    targets: dict[int, list[int]] = {}
    for j in range(p2.size):
        targets.setdefault(c2[j], []).append(j)

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def ok(i: int, j: int) -> bool:
        for a, b in mapping.items():
            if p1.leq(i, a) != p2.leq(j, b) or p1.leq(a, i) != p2.leq(b, j):
                return False
        return True

    def search(pos: int) -> bool:
        if pos == len(order):
            return True
        i = order[pos]
        for j in targets.get(c1[i], ()):
            if j in used or not ok(i, j):
                continue
            mapping[i] = j
            used.add(j)
            if search(pos + 1):
                return True
            del mapping[i]
            used.discard(j)
        return False

    if search(0):
        return dict(mapping)
    return None


def _color_rarity(colors, c) -> int:
    return -colors.count(c)
