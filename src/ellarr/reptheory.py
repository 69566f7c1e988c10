"""Symmetric-group characters and the decomposition of the braid pages.

Class functions are dicts keyed by partitions (cycle types).  Irreducible
characters come from the border-strip recursion on beta-sets.  The labelled
partition machinery builds the stabilizer of a canonically chosen
permutation, its one-dimensional character with root-of-unity values, and
the induced character of the symmetric group by direct enumeration of the
subgroup; root-of-unity sums are collapsed to exact rationals by reduction
modulo cyclotomic polynomials.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd

LABELS = ("1", "x", "y", "xy")
LABEL_DEGREE = {"1": 0, "x": 1, "y": 1, "xy": 2}
LABEL_WEIGHT = {"1": 0, "x": 1, "y": -1, "xy": 0}

Partition = tuple[int, ...]
Perm = tuple[int, ...]          # images, 0-indexed
ClassFunction = dict[Partition, Fraction]


# ----- partitions -----------------------------------------------------------

@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    if n == 0:
        return ((),)
    out = []

    def gen(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            gen(remaining - part, part, prefix + [part])

    gen(n, n, [])
    return tuple(out)


def normalize_partition(parts: Iterable[int]) -> Partition:
    out = tuple(sorted((int(p) for p in parts if p), reverse=True))
    if any(p <= 0 for p in out):
        raise ValueError("partition parts must be positive")
    return out


def conjugate_partition(partition: Sequence[int]) -> Partition:
    lam = [p for p in partition if p]
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(max(lam)))


def centralizer_order(mu: Partition) -> int:
    z = 1
    mult: dict[int, int] = {}
    for part in mu:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        z *= part ** m * factorial(m)
    return z


def class_size(mu: Partition) -> int:
    n = sum(mu)
    return factorial(n) // centralizer_order(mu)


def sign_of_class(mu: Partition) -> int:
    n = sum(mu)
    return -1 if (n - len(mu)) % 2 else 1


def mobius(n: int) -> int:
    if n == 1:
        return 1
    result = 1
    d = 2
    m = n
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            result = -result
        d += 1
    if m > 1:
        result = -result
    return result


# ----- irreducible characters ------------------------------------------------

def _beta_set(lam: Partition) -> tuple[int, ...]:
    r = len(lam)
    return tuple(sorted(lam[i] + (r - 1 - i) for i in range(r)))


def _partition_from_beta(beta: Sequence[int]) -> Partition:
    beta = sorted(beta)
    lam = [beta[j] - j for j in range(len(beta))]
    return tuple(sorted((p for p in lam if p), reverse=True))


@lru_cache(maxsize=None)
def _mn_value(lam: Partition, mu: Partition) -> int:
    """Border-strip recursion for the character of V_lam at cycle type mu."""
    if not mu:
        return 1 if not lam else 0
    k = mu[0]
    rest = mu[1:]
    beta = set(_beta_set(lam))
    total = 0
    for b in sorted(beta):
        c = b - k
        if c < 0 or c in beta:
            continue
        height = sum(1 for d in beta if c < d < b)
        nb = (beta - {b}) | {c}
        total += (-1 if height % 2 else 1) * _mn_value(_partition_from_beta(sorted(nb)), rest)
    return total


def irreducible_character(mu: Partition) -> ClassFunction:
    """Character of the irreducible labelled by ``mu`` as a class function."""
    mu = normalize_partition(mu)
    n = sum(mu)
    return {cls: Fraction(_mn_value(mu, cls)) for cls in partitions(n)}


def character_dimension(mu: Partition) -> int:
    n = sum(normalize_partition(mu))
    return _mn_value(normalize_partition(mu), tuple([1] * n))


def inner_product(f: ClassFunction, g: ClassFunction, n: int) -> Fraction:
    total = Fraction(0)
    for cls in partitions(n):
        total += class_size(cls) * f.get(cls, Fraction(0)) * g.get(cls, Fraction(0))
    return total / factorial(n)


def decompose_class_function(f: ClassFunction, n: int) -> dict[Partition, Fraction]:
    out = {}
    for mu in partitions(n):
        m = inner_product(f, irreducible_character(mu), n)
        if m:
            out[mu] = m
    return out


# ----- permutations -----------------------------------------------------------

def perm_compose(a: Perm, b: Perm) -> Perm:
    """(a * b)(x) = a(b(x))."""
    return tuple(a[b[x]] for x in range(len(a)))


def perm_inverse(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def cycle_type(a: Perm) -> Partition:
    n = len(a)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = a[j]
            length += 1
        parts.append(length)
    return tuple(sorted(parts, reverse=True))


def perm_from_cycles(n: int, cycles: Sequence[Sequence[int]],
                     one_indexed: bool = True) -> Perm:
    out = list(range(n))
    for cyc in cycles:
        c = [v - 1 for v in cyc] if one_indexed else list(cyc)
        for a, b in zip(c, c[1:] + c[:1]):
            out[a] = b
    return tuple(out)


def cycles_of(a: Perm, one_indexed: bool = True) -> list[tuple[int, ...]]:
    n = len(a)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = a[j]
        if len(cyc) > 1:
            out.append(tuple(v + 1 for v in cyc) if one_indexed else tuple(cyc))
    return out


# ----- cyclotomic reduction ----------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, low degree first."""
    poly = [-1] + [0] * (m - 1) + [1]          # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _poly_div_exact(num: Sequence[int], den: Sequence[int]) -> list[int]:
    num = list(num)
    den = list(den)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1] // den[-1]
        out[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


def root_of_unity_sum(counter: dict[Fraction, Fraction]) -> Fraction:
    """Exact value of sum c_t * exp(2 pi i t) when it is rational.

    Raises if the sum is irrational, which signals a bookkeeping bug in the
    caller: induced characters of the symmetric group are integral.
    """
    m = 1
    for t in counter:
        m = m * t.denominator // gcd(m, t.denominator)
    coeffs = [Fraction(0)] * m
    for t, c in counter.items():
        coeffs[(t.numerator * (m // t.denominator)) % m] += c
    if m == 1:
        return coeffs[0]
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    # reduce mod the monic cyclotomic polynomial
    for k in range(m - 1, deg - 1, -1):
        c = coeffs[k]
        if c:
            coeffs[k] = Fraction(0)
            for i in range(deg):
                coeffs[k - deg + i] -= c * phi[i]
    if any(coeffs[1:deg]):
        raise ArithmeticError("root-of-unity sum is not rational")
    return coeffs[0]


# ----- labelled partitions and their stabilizers -------------------------------

class LabelledPartition:
    """Partition with one label per part; equal parts commute.

    ``parts`` is weakly decreasing; ``labels`` is aligned with it.  Blocks
    are filled with consecutive integers in the given order, longest part
    first, which fixes the reference permutation and its stabilizer.
    """

    def __init__(self, parts: Sequence[int], labels: Sequence[str]):
        pairs = list(zip(parts, labels))
        if any(p <= 0 for p, _ in pairs):
            raise ValueError("parts must be positive")
        if sorted(parts, reverse=True) != list(parts):
            raise ValueError("parts must be weakly decreasing")
        for _, lab in pairs:
            if lab not in LABELS:
                raise ValueError("unknown label %r" % (lab,))
        self.parts = tuple(parts)
        self.labels = tuple(labels)
        self.n = sum(self.parts)
        starts = []
        pos = 0
        for p in self.parts:
            starts.append(pos)
            pos += p
        self.starts = tuple(starts)

    def __repr__(self):
        return "LabelledPartition(%s, %s)" % (self.parts, self.labels)

    @property
    def bidegree(self) -> tuple[int, int]:
        p = sum(LABEL_DEGREE[l] for l in self.labels)
        return (p, self.n - len(self.parts))

    @property
    def torus_weight(self) -> int:
        return sum(LABEL_WEIGHT[l] for l in self.labels)

    def sigma(self) -> Perm:
        """Reference permutation: blocks of consecutive integers."""
        out = list(range(self.n))
        for start, p in zip(self.starts, self.parts):
            for t in range(p):
                out[start + t] = start + (t + 1) % p
        return tuple(out)

    def block_groups(self) -> list[list[int]]:
        """Indices of parts grouped by equal (length, label)."""
        groups: dict[tuple[int, str], list[int]] = {}
        for i, (p, l) in enumerate(zip(self.parts, self.labels)):
            groups.setdefault((p, l), []).append(i)
        return [v for _, v in sorted(groups.items(),
                                     key=lambda kv: (-kv[0][0], kv[0][1]))]

    def h_order(self) -> int:
        out = 1
        for p in self.parts:
            out *= p
        return out

    def n_order(self) -> int:
        out = 1
        for g in self.block_groups():
            out *= factorial(len(g))
        return out

    def group_order(self) -> int:
        return self.h_order() * self.n_order()

    # -- element enumeration ----------------------------------------------

    def h_elements(self):
        """Rotation parts with their character exponents."""
        ranges = [range(p) for p in self.parts]
        for powers in itertools.product(*ranges):
            perm = list(range(self.n))
            expo = Fraction(0)
            for (start, p, a) in zip(self.starts, self.parts, powers):
                if p > 1 and a:
                    for t in range(p):
                        perm[start + t] = start + (t + a) % p
                    expo += Fraction(a, p)
            yield tuple(perm), expo - int(expo)

    def n_elements(self):
        """Block-permuting parts with their sign-character exponents."""
        groups = self.block_groups()
        perms_per_group = [list(itertools.permutations(range(len(g))))
                           for g in groups]
        for choice in itertools.product(*perms_per_group):
            perm = list(range(self.n))
            expo = Fraction(0)
            for g, pi in zip(groups, choice):
                inv = 0
                for a in range(len(pi)):
                    for b in range(a + 1, len(pi)):
                        if pi[a] > pi[b]:
                            inv += 1
                for a, target in enumerate(pi):
                    src = g[a]
                    dst = g[target]
                    for t in range(self.parts[src]):
                        perm[self.starts[src] + t] = self.starts[dst] + t
                if inv % 2:
                    blk = g[0]
                    n_i = self.parts[blk] + LABEL_DEGREE[self.labels[blk]] + 1
                    if n_i % 2:
                        expo += Fraction(1, 2)
            yield tuple(perm), expo - int(expo)

    def elements(self):
        """All of Z(lambda, s) with exact character exponents mod 1."""
        nu_list = list(self.n_elements())
        for h, eh in self.h_elements():
            for nu, en in nu_list:
                z = perm_compose(h, nu)
                e = eh + en
                yield z, e - int(e)

    def generators(self) -> dict:
        """Small generator list: block cycles plus adjacent block swaps."""
        gens = {"rotations": [], "swaps": []}
        for start, p in zip(self.starts, self.parts):
            if p > 1:
                gens["rotations"].append(tuple(range(start + 1, start + p + 1)))
        for g in self.block_groups():
            for a, b in zip(g, g[1:]):
                pairs = tuple((self.starts[a] + t + 1, self.starts[b] + t + 1)
                              for t in range(self.parts[a]))
                gens["swaps"].append(pairs)
        return gens

    def xi_exponent(self, z: Perm) -> Fraction:
        """Character exponent at an element of the stabilizer.

        Factors z as rotation * block transport and adds the two exponents;
        raises when z does not belong to the group.
        """
        groups = self.block_groups()
        nu = list(range(self.n))
        expo = Fraction(0)
        for g in groups:
            images = []
            for b in g:
                img_start = z[self.starts[b]]
                for pos, c in enumerate(g):
                    if (self.starts[c] <= img_start
                            < self.starts[c] + self.parts[c]):
                        images.append(pos)
                        break
                else:
                    raise ValueError("element does not normalize the blocks")
            if sorted(images) != list(range(len(g))):
                raise ValueError("element does not permute the blocks")
            inv = 0
            for a in range(len(images)):
                for b in range(a + 1, len(images)):
                    if images[a] > images[b]:
                        inv += 1
            for a, target in enumerate(images):
                src, dst = g[a], g[target]
                for t in range(self.parts[src]):
                    nu[self.starts[src] + t] = self.starts[dst] + t
            if inv % 2:
                blk = g[0]
                n_i = self.parts[blk] + LABEL_DEGREE[self.labels[blk]] + 1
                if n_i % 2:
                    expo += Fraction(1, 2)
        h = perm_compose(z, perm_inverse(tuple(nu)))
        for start, p in zip(self.starts, self.parts):
            a = (h[start] - start) % p
            for t in range(p):
                if h[start + t] != start + (t + a) % p:
                    raise ValueError("element is not in the stabilizer")
            if a:
                expo += Fraction(a, p)
        return expo - int(expo)


def stabilizer_group(parts: Sequence[int], labels: Sequence[str]) -> dict:
    """Description of Z(lambda, s): generators, orders, reference permutation."""
    lp = LabelledPartition(parts, labels)
    return {
        "sigma_cycles": [tuple(range(s + 1, s + p + 1))
                         for s, p in zip(lp.starts, lp.parts) if p > 1],
        "generators": lp.generators(),
        "h_order": lp.h_order(),
        "n_order": lp.n_order(),
        "order": lp.group_order(),
    }


def induced_character(parts: Sequence[int], labels: Sequence[str],
                      bound: int = 8) -> ClassFunction:
    """Character of sgn (x) Ind of the stabilizer character.

    Direct enumeration of the stabilizer, collecting root-of-unity sums per
    conjugacy class; values are exact integers.
    """
    lp = LabelledPartition(parts, labels)
    n = lp.n
    if n > bound:
        raise ValueError("n=%d exceeds the enumeration bound %d" % (n, bound))
    sums: dict[Partition, dict[Fraction, Fraction]] = {}
    for z, expo in lp.elements():
        cls = cycle_type(z)
        sums.setdefault(cls, {})
        sums[cls][expo] = sums[cls].get(expo, Fraction(0)) + 1
    order = lp.group_order()
    out: ClassFunction = {}
    for cls in partitions(n):
        bucket = sums.get(cls)
        if not bucket:
            out[cls] = Fraction(0)
            continue
        s = root_of_unity_sum(bucket)
        value = Fraction(centralizer_order(cls), order) * s
        if value.denominator != 1:
            raise ArithmeticError("induced character value is not integral")
        out[cls] = value * sign_of_class(cls)
    return out


def induced_dimension(parts: Sequence[int], labels: Sequence[str]) -> int:
    lp = LabelledPartition(parts, labels)
    return factorial(lp.n) // lp.group_order()


# ----- enumeration of labelled partitions per bidegree --------------------------

def labelled_partitions(n: int, p: int, q: int) -> list[LabelledPartition]:
    """Distinct labelled partitions of n at the given bidegree."""
    out = []
    for lam in partitions(n):
        if len(lam) != n - q:
            continue
        groups: dict[int, int] = {}
        for part in lam:
            groups[part] = groups.get(part, 0) + 1
        lengths = sorted(groups, reverse=True)
        options = []
        for length in lengths:
            g = groups[length]
            options.append(list(itertools.combinations_with_replacement(LABELS, g)))
        for combo in itertools.product(*options):
            labels: list[str] = []
            for labs in combo:
                labels.extend(labs)
            lp = LabelledPartition(lam, labels)
            if lp.bidegree == (p, q):
                out.append(lp)
    return out


def weighted_partitions(n: int, p: int, q: int) -> list[tuple[Partition, tuple[int, ...]]]:
    """Distinct weighted partitions (degree labels 0/1/2) at a bidegree."""
    seen = set()
    out = []
    for lp in labelled_partitions(n, p, q):
        key = tuple(sorted(zip(lp.parts, (LABEL_DEGREE[l] for l in lp.labels)),
                           key=lambda t: (-t[0], t[1])))
        if key not in seen:
            seen.add(key)
            parts = tuple(k for k, _ in key)
            weights = tuple(w for _, w in key)
            out.append((parts, weights))
    return out


def sl2_isotypics(parts: Sequence[int], t: Sequence[int],
                  bound: int = 8) -> list[tuple[int, ClassFunction]]:
    """Torus-weight isotypic characters of one weighted partition.

    For each admissible weight a (congruent to the total degree mod 2) the
    returned class function is the difference of the weight-a and
    weight-(a+2) sums; these are honest characters, and a negative
    multiplicity would indicate a bug.
    """
    parts = tuple(parts)
    t = tuple(t)
    n = sum(parts)
    p = sum(t)
    by_weight: dict[int, ClassFunction] = {}
    free = [i for i, w in enumerate(t) if w == 1]
    fixed = {0: "1", 2: "xy"}
    # choose labels up to permutations of equal (length, weight) parts
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (part, w) in enumerate(zip(parts, t)):
        groups.setdefault((part, w), []).append(i)
    choices = []
    group_list = sorted(groups.items(), key=lambda kv: (-kv[0][0], kv[0][1]))
    for (part, w), members in group_list:
        if w == 1:
            choices.append([("x",) * k + ("y",) * (len(members) - k)
                            for k in range(len(members), -1, -1)])
        else:
            choices.append([tuple(fixed[w] for _ in members)])
    for combo in itertools.product(*choices):
        labels = [""] * len(parts)
        for (key, members), labs in zip(group_list, combo):
            for i, lab in zip(members, labs):
                labels[i] = lab
        lp = LabelledPartition(parts, labels)
        a = lp.torus_weight
        chi = induced_character(parts, labels, bound)
        tgt = by_weight.setdefault(a, {})
        for cls, v in chi.items():
            tgt[cls] = tgt.get(cls, Fraction(0)) + v
    out = []
    for a in range(p % 2, p + 1, 2):
        upper = by_weight.get(a, {})
        over = by_weight.get(a + 2, {})
        diff = {cls: upper.get(cls, Fraction(0)) - over.get(cls, Fraction(0))
                for cls in partitions(n)}
        if any(diff.values()):
            out.append((a, diff))
    return out


def top_degree_multiplicity(mu: Sequence[int], n: int) -> int:
    """Multiplicity of one irreducible in the top cohomology of the
    reduced diagonal complement, by the divisor-sum formula."""
    mu = normalize_partition(mu)
    if sum(mu) != n:
        raise ValueError("partition size mismatch")
    total = Fraction(0)
    for k in range(1, n + 1):
        if n % k:
            continue
        cls = tuple([n // k] * k)
        sign = -1 if ((n - 1) * k) % 2 else 1
        total += mobius(n // k) * sign * _mn_value(mu, cls)
    value = total / n
    if value.denominator != 1:
        raise ArithmeticError("multiplicity is not integral")
    return int(value)


def schur_dimension(partition: Sequence[int], m: int) -> int:
    """Dimension of the Schur functor on an m-dimensional space."""
    lam = [p for p in partition if p]
    if len(lam) > m:
        return 0
    lam = lam + [0] * (m - len(lam))
    num = 1
    den = 1
    for i in range(m):
        for j in range(i + 1, m):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return num // den


def bidegree_decomposition(n: int, p: int, q: int, bound: int = 8
                           ) -> list[dict]:
    """Irreducible x torus-weight multiplicities of one bidegree.

    Output rows: {partition, sl2_weight, multiplicity}, sorted.
    """
    totals: dict[int, ClassFunction] = {}
    for parts, t in weighted_partitions(n, p, q):
        for a, chi in sl2_isotypics(parts, t, bound):
            tgt = totals.setdefault(a, {})
            for cls, v in chi.items():
                tgt[cls] = tgt.get(cls, Fraction(0)) + v
    rows = []
    for a in sorted(totals):
        for mu, mult in sorted(decompose_class_function(totals[a], n).items(),
                               reverse=True):
            if mult < 0 or mult.denominator != 1:
                raise ArithmeticError("invalid multiplicity %s" % mult)
            rows.append({"partition": list(mu), "sl2_weight": a,
                         "multiplicity": int(mult)})
    return rows
