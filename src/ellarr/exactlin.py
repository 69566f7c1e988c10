"""Exact integer and rational linear algebra.

Everything here runs on arbitrary-precision ints and `fractions.Fraction`;
no floating point anywhere.  Matrices are plain lists of row lists, vectors
are sequences.  All functions are pure and return fresh objects, so results
can be shared freely between threads.

Ranks (`sparse_rank`, `rational_rank`) come from one fraction-free column
reduction over primitive integer columns; inverses (`inv_unimodular` and
the model's coframe coordinates) from one fraction-free Gauss-Jordan
elimination, `fraction_free_inverse`; echelon forms, kernels and solves
from `rref`; Smith forms from `smith_normal_form`; torsion points from
`torsion_numerators`, in integer numerators over one common denominator.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import mul


class SnfDecomposition:
    """Smith normal form ``u * m * v = d`` with unimodular ``u``, ``v``.

    ``divisors`` is the chain d1 | d2 | ... of positive elementary divisors.
    """

    __slots__ = ("u", "d", "v", "divisors")

    def __init__(self, u: list[list[int]], d: list[list[int]],
                 v: list[list[int]], divisors: tuple[int, ...]):
        self.u = u
        self.d = d
        self.v = v
        self.divisors = divisors


def shape(m: Sequence[Sequence]) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner = shape(a)
    inner2, cols = shape(b)
    if inner != inner2:
        raise ValueError("dimension mismatch %s vs %s" % (shape(a), shape(b)))
    out = []
    for i in range(rows):
        ai = a[i]
        row = []
        for j in range(cols):
            acc = 0
            for k in range(inner):
                if ai[k]:
                    acc += ai[k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def smith_normal_form(m: Sequence[Sequence[int]]) -> SnfDecomposition:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Pivots are chosen by minimal absolute value; at each step the pivot is
    made to divide every entry of the remaining block, which yields the
    divisibility chain directly.  Adequate for desk-scale matrices.
    """
    rows, cols = shape(m)
    a = [list(map(int, r)) for r in m]
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, c):
        # row_dst += c * row_src
        arow, asrc = a[dst], a[src]
        for k in range(cols):
            arow[k] += c * asrc[k]
        urow, usrc = u[dst], u[src]
        for k in range(rows):
            urow[k] += c * usrc[k]

    def add_col(dst, src, c):
        for r in a:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # locate a pivot of minimal absolute value in the remaining block
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                e = a[i][j]
                if e and (best is None or abs(e) < best):
                    best = abs(e)
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear the pivot column
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            # clear the pivot row
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # force the pivot to divide the rest of the block
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        if a[t][t] < 0:
            for k in range(cols):
                a[t][k] = -a[t][k]
            for k in range(rows):
                u[t][k] = -u[t][k]
        t += 1

    divisors = tuple(a[i][i] for i in range(min(rows, cols)) if a[i][i] != 0)
    return SnfDecomposition(u, a, v, divisors)


def elementary_divisors(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The positive elementary divisors d1 | d2 | ... of an integer matrix."""
    return smith_normal_form(m).divisors


def det_int(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    n, c = shape(m)
    if n != c:
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rational_rank(m) -> int:
    """Exact rank over the rationals of a dense int or Fraction matrix.

    Each row becomes one sparse vector of the shared elimination kernel;
    row rank equals column rank.
    """
    return _column_rank([{j: x for j, x in enumerate(row) if x} for row in m])


def rref(m) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals.

    Returns (rref matrix, pivot column indices).  Deterministic: pivots are
    the first nonzero entries scanning columns left to right.
    """
    rows, cols = shape(m)
    a = [[Fraction(x) for x in row] for row in m]
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if a[i][c]:
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def kernel_basis(m) -> list[tuple[Fraction, ...]]:
    """Deterministic basis of the right null space over the rationals.

    One vector per free column of the reduced echelon form, with the free
    variable set to 1, free columns taken in increasing index order.
    """
    rows, cols = shape(m)
    if cols == 0:
        return []
    red, pivots = rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(tuple(vec))
    return basis


def solve_linear(m, rhs_cols) -> list[list[Fraction]] | None:
    """Particular solution X with M X = B (columns of B solved jointly).

    Free variables are set to zero.  Returns None if any column is
    inconsistent.  ``rhs_cols`` is a matrix whose columns are the right-hand
    sides.
    """
    rows, cols = shape(m)
    nrhs = shape(rhs_cols)[1] if rhs_cols else 0
    aug = [[Fraction(m[i][j]) for j in range(cols)]
           + [Fraction(rhs_cols[i][k]) for k in range(nrhs)]
           for i in range(rows)]
    red, pivots = rref(aug)
    for c in pivots:
        if c >= cols:
            return None
    sol = [[Fraction(0)] * nrhs for _ in range(cols)]
    for r, pc in enumerate(pivots):
        for k in range(nrhs):
            sol[pc][k] = red[r][cols + k]
    return sol


def fraction_free_inverse(m: Sequence[Sequence[int]]
                          ) -> tuple[int, list[list[int]]]:
    """Inverse of a square nonsingular integer matrix as (den, integer rows).

    Fraction-free Gauss-Jordan elimination (Bareiss) on [m | I]: step k
    sets row_i <- (p_k * row_i - a_ik * row_k) / p_(k-1) for every i != k,
    and each division is exact because every entry is a minor of the
    augmented matrix.  It ends at [den*I | rows] with den = +-det(m), so
    m^-1 = rows / den.
    """
    n, c = shape(m)
    if n != c:
        raise ValueError("inverse needs a square matrix")
    a = [list(map(int, row)) + [int(i == j) for j in range(n)]
         for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        pr = next((i for i in range(k, n) if a[i][k]), None)
        if pr is None:
            raise ValueError("matrix is singular")
        a[k], a[pr] = a[pr], a[k]
        piv = a[k]
        p = piv[k]
        for i in range(n):
            f = a[i][k]
            if i != k and (f or p != prev):
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], piv)]
        prev = p
    return prev, [row[n:] for row in a]


def inv_unimodular(u: Sequence[Sequence[int]]) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix (entries stay integral)."""
    den, rows = fraction_free_inverse(u)
    if den not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return [[den * x for x in row] for row in rows]


def hermite_row_basis(m: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical Hermite basis of the row lattice of an integer matrix.

    Row-style HNF: echelon shape, positive pivots, entries above each pivot
    reduced into [0, pivot).  Zero rows are dropped, so the result is a
    canonical key for the lattice itself.
    """
    rows, cols = shape(m)
    a = [list(map(int, r)) for r in m]
    r = 0
    for c in range(cols):
        # gcd-reduce column c over rows r..
        while True:
            pivot_row = None
            best = None
            for i in range(r, rows):
                if a[i][c] and (best is None or abs(a[i][c]) < best):
                    best = abs(a[i][c])
                    pivot_row = i
            if pivot_row is None:
                break
            a[r], a[pivot_row] = a[pivot_row], a[r]
            done = True
            for i in range(r + 1, rows):
                if a[i][c]:
                    q = a[i][c] // a[r][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    if a[i][c]:
                        done = False
            if done:
                break
        if pivot_row is None:
            continue
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return tuple(tuple(row) for row in a[:r] if any(row))


def saturation_row_basis(m: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of the saturation of the row lattice of ``m``.

    The saturation is rowspace_Q(m) intersected with Z^cols; its basis is
    read off the inverse of the column transform of the Smith form and then
    canonicalized by Hermite reduction.
    """
    rows, cols = shape(m)
    if rows == 0 or cols == 0:
        return ()
    snf = smith_normal_form(m)
    r = len(snf.divisors)
    if r == 0:
        return ()
    vinv = inv_unimodular(snf.v)
    return hermite_row_basis([vinv[i] for i in range(r)])


def frac_mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def echelon_reduce(rows, vec):
    """Reduce an integer vector against an integer echelon, fraction-free.

    ``rows`` is a list of (lead, row) pairs, each row zero at the leads of
    the rows before it, as this function returns them.  Returns the
    remainder as (lead, primitive row), or None when ``vec`` lies in the
    rows' rational span.
    """
    v = list(vec)
    for lead, row in rows:
        if v[lead]:
            a, b = row[lead], v[lead]
            v = [x * a - b * y for x, y in zip(v, row)]
    for lead, x in enumerate(v):
        if x:
            g = gcd(*v)
            return lead, [y // g for y in v]
    return None


def in_row_span(echelon_rows, vec) -> bool:
    """Is the integer ``vec`` in the rational span of integer rows with
    increasing pivots?"""
    rows = [(next(k for k, x in enumerate(row) if x), row)
            for row in echelon_rows]
    return echelon_reduce(rows, vec) is None


def solve_torsion(m: Sequence[Sequence[int]], q: Sequence[Fraction]
                  ) -> list[tuple[Fraction, ...]]:
    """All components of {v in (R/Z)^cols : m v = q mod 1}, one point each.

    Returns one representative per connected component of the solution set
    on a single circle factor (prod of elementary divisors many), or the
    empty list when the system has no solution.  Output is sorted, so it is
    reproducible.
    """
    rows, cols = shape(m)
    if cols == 0:
        if all(frac_mod1(Fraction(x)) == 0 for x in q):
            return [()]
        return []
    return torsion_from_snf(smith_normal_form(m), rows, cols, q)


def torsion_from_snf(snf: SnfDecomposition, rows: int, cols: int,
                     q: Sequence[Fraction]) -> list[tuple[Fraction, ...]]:
    """Component representatives of m v = q mod 1 from a precomputed SNF of m."""
    q = [Fraction(x) for x in q]
    den = lcm(*(x.denominator for x in q))
    den, reps = torsion_numerators(
        snf, rows, den, [x.numerator * (den // x.denominator) for x in q])
    return [tuple(Fraction(x, den) for x in rep) for rep in reps]


def torsion_numerators(snf: SnfDecomposition, rows: int, den: int,
                       q: Sequence[int]) -> tuple[int, list[tuple[int, ...]]]:
    """Integer form of `torsion_from_snf` for the right-hand side q / den.

    Returns (den * d_r, representatives): each representative is a tuple of
    numerators in [0, den * d_r) over that denominator, with d_r the last
    elementary divisor (1 when there is none), and the list is sorted, so
    it sorts as the Fraction points do.  rhs = U q is a vector of integer
    numerators over den; the system is solvable when den divides rhs_i for
    every i >= r, and the points are w_i = (rhs_i + c_i den) / (den d_i)
    for 0 <= c_i < d_i, mapped by V.
    """
    if len(q) != rows:
        raise ValueError("right-hand side length mismatch")
    divisors = snf.divisors
    r = len(divisors)
    rhs = [sum(map(mul, u_row, q)) for u_row in snf.u]
    if any(x % den for x in rhs[r:]):
        return den, []
    top = divisors[-1] if divisors else 1
    modulus = den * top
    # x = V w is affine in the counters c: start from c = 0 and add
    # c_i times column i of V, scaled to step i, one divisor at a time
    points = [[sum(v_row[i] * rhs[i] * (top // divisors[i]) for i in range(r))
               for v_row in snf.v]]
    for i, d in enumerate(divisors):
        if d == 1:
            continue
        step = den * (top // d)
        col = [v_row[i] * step for v_row in snf.v]
        points = [[x + c * y for x, y in zip(p, col)]
                  for p in points for c in range(d)]
    return modulus, sorted(tuple(x % modulus for x in p) for p in points)


def sparse_rank(columns: list[dict[int, int | Fraction]]) -> int:
    """Exact rank of a sparse matrix given as a list of {row: value} columns.

    Entries may be ints or Fractions; see `_column_rank` for the
    fraction-free column reduction behind it.
    """
    return _column_rank(columns)


def _primitive(col) -> dict[int, int]:
    """Nonzero entries of an int or Fraction column, scaled to coprime ints.

    A column that already is one, nonzero ints with gcd 1, is returned
    itself, not copied.
    """
    vals = col.values()
    if all(x and type(x) is int for x in vals) and gcd(*vals) == 1:
        return col
    den = lcm(*(x.denominator for x in vals))
    out = {r: x.numerator * (den // x.denominator)
           for r, x in col.items() if x}
    g = gcd(*out.values())
    if g > 1:
        out = {r: x // g for r, x in out.items()}
    return out


def _column_rank(columns) -> int:
    """Exact rank over Q of sparse {row: value} columns.

    Fraction-free left-looking column reduction.  Each column is scaled to
    primitive integers (rank does not change under nonzero column scaling),
    then, in order of increasing nnz, reduced against the stored pivot
    column with the same lowest row.  With p the pivot's and t the column's
    lowest entry, the step is col <- col - (t/p)*pivot when p divides t and
    otherwise col <- (p/g)*col - (t/g)*pivot with g = gcd(p, t), followed by
    division by the content gcd.  A column whose lowest row is new becomes
    a pivot; one reduced to zero is dependent.  Stored pivots have distinct
    lowest rows, so they are independent and their count is the rank.

    Copy on write: a column that is already primitive is the caller's own
    dict until its first reduction step copies it, and stored pivots are
    only read, so the input columns are never modified.
    """
    pivots: dict[int, dict[int, int]] = {}
    for col in sorted(map(_primitive, columns), key=len):
        owned = False
        while col:
            low = min(col)
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                break
            p, t = piv[low], col[low]
            scaled = t % p != 0
            if scaled:
                g = gcd(p, t)
                p, t = p // g, t // g
                col = {r: p * x for r, x in col.items()}
            else:
                t //= p
                if not owned:
                    col = dict(col)
            owned = True
            for r, x in piv.items():
                v = col.get(r, 0) - t * x
                if v:
                    col[r] = v
                else:
                    del col[r]
            if scaled:
                g = gcd(*col.values())
                if g > 1:
                    col = {r: x // g for r, x in col.items()}
    return len(pivots)
