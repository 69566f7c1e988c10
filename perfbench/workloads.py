"""Seeded job lists for the three benchmark workloads.

Every job is one ``ellarr`` invocation on one generated input file; the
program never sees the seed.  The same (workload, seed) always yields the
same jobs with byte-identical input files.

Input cost must not swing with the seed, or run-to-run spread would measure
the generator instead of the program.  So the expensive torsion inputs come
from a fixed catalogue (``draw_catalogue``, which ignores the run seed) and
the seed chooses their presentation: column order, column signs and a
signed permutation of coordinates.  A presentation change is an automorphism
of the ambient product, so the Betti tables must not change; the checker
holds every presented job to its base's recorded tables.  Cheap inputs
(small 3-dimensional matrices, 6-vertex graphs with a triangle) are drawn
fresh from the seed.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional


WORKLOADS = {
    "braid-page3": "the paper's headline computation, braid n=6 page-3 "
                   "tables, where rank and differential assembly dominate",
    "torsion-sweep": "many small torsion inputs, where poset building and "
                     "Smith forms dominate and rank blocks are tiny",
    "consumers": "short formality, representation and audit jobs, where "
                 "consumers, recomputation and start-up dominate",
}

WORKED_EXAMPLE_KS = (5, 9, 11, 15)
TORSION = ("1/2", "1/3", "2/3")


class Job(NamedTuple):
    """One CLI run: ``ellarr <flag> FILE --cmd <cmd>`` on ``content``."""

    name: str
    cmd: str
    flag: str                 # "--input" or "--graph"
    content: str              # the input file, exactly as written
    expect: Optional[str]     # catalogue id whose tables must be reproduced

    def argv(self, path: str) -> list:
        return [self.flag, path, "--cmd", self.cmd]


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def matrix_input(n, cols, offsets=None) -> str:
    obj = {"n": n, "divisors": [list(c) for c in cols]}
    if offsets and any(a != "0" or b != "0" for a, b in offsets):
        obj["offsets"] = [list(o) for o in offsets]
    return _dump(obj)


def _graph_input(n, edges) -> str:
    return _dump({"graph": {"vertices": n,
                            "edges": [list(e) for e in sorted(edges)]}})


def primitive_vectors(n, lo, hi, keep=lambda v: True):
    """Primitive integer vectors in [lo, hi]^n, one per +-pair."""
    out = []
    for v in itertools.product(range(lo, hi + 1), repeat=n):
        if not any(v) or next(x for x in v if x) < 0:
            continue
        g = 0
        for x in v:
            g = gcd(g, abs(x))
        if g == 1 and keep(v):
            out.append(v)
    return out


def _random_offsets(rng, m, count):
    offs = [("0", "0")] * m
    for i in sorted(rng.sample(range(m), count)):
        offs[i] = (rng.choice(TORSION), rng.choice(("0",) + TORSION))
    return offs


def draw_catalogue() -> list:
    """The fixed torsion catalogue, drawn from a fixed seed.

    Families: 4-dimensional matrices with entries in [-1, 1] and torsion
    offsets; non-essential 4-dimensional ones (all columns in the hyperplane
    x1+x2+x3+x4 = 0); 3-dimensional ones with entries in [-2, 2], whose
    layer counts vary most.  Every draw is kept.
    """
    rng = random.Random("ellarr-catalogue")
    out = []
    families = (("t4", 4, 5, -1, 1, 6, 2, None),
                ("ne4", 4, 6, -1, 1, 2, 1, lambda v: sum(v) == 0),
                ("t3", 3, 4, -2, 2, 1, 0, None))
    for tag, n, m, lo, hi, count, noffs, keep in families:
        pool = primitive_vectors(n, lo, hi, keep or (lambda v: True))
        for k in range(count):
            cols = rng.sample(pool, m)
            out.append({"id": "%s-%d" % (tag, k), "n": n,
                        "divisors": [list(c) for c in cols],
                        "offsets": [list(o) for o in
                                    _random_offsets(rng, m, noffs)]})
    return out


def _neg_mod1(text: str) -> str:
    return str((-Fraction(text)) % 1)


def present(base: dict, rng: random.Random) -> str:
    """A seeded presentation of a catalogue base with the same cohomology.

    Permutes the columns, flips column signs (negating the torsion offset
    with the column, so each divisor stays the same set) and applies a
    signed permutation of the coordinates.
    """
    n, cols, offs = base["n"], base["divisors"], base["offsets"]
    order = rng.sample(range(len(cols)), len(cols))
    coords = rng.sample(range(n), n)
    csign = [rng.choice((1, -1)) for _ in range(n)]
    new_cols, new_offs = [], []
    for j in order:
        s = rng.choice((1, -1))
        new_cols.append([s * csign[i] * cols[j][coords[i]] for i in range(n)])
        a, b = offs[j]
        new_offs.append((a, b) if s == 1 else (_neg_mod1(a), _neg_mod1(b)))
    return matrix_input(n, new_cols, new_offs)


def worked_example(k: int) -> str:
    return matrix_input(2, [(1, 0), (1, k), (2, k)])


def canonical_graphs(n: int) -> list:
    """Every graph on vertices 1..n with at least one edge, up to isomorphism.

    Each class is given by its lexicographically least sorted edge list.
    """
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    perms = list(itertools.permutations(range(1, n + 1)))
    seen = set()
    for mask in range(1, 1 << len(pairs)):
        edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
        canon = min(tuple(sorted(tuple(sorted((perm[a - 1], perm[b - 1])))
                                 for a, b in edges)) for perm in perms)
        seen.add(canon)
    return sorted(seen, key=lambda e: (len(e), e))


def _relabel(rng, n, edges):
    perm = rng.sample(range(1, n + 1), n)
    return [tuple(sorted((perm[a - 1], perm[b - 1]))) for a, b in edges]


def _random_graph_with_triangle(rng, n):
    tri = sorted(rng.sample(range(1, n + 1), 3))
    edges = {(tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])}
    for e in itertools.combinations(range(1, n + 1), 2):
        if rng.random() < 0.4:
            edges.add(e)
    return sorted(edges)


C6 = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]
K33 = [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]


def jobs(workload: str, seed: int) -> list:
    """The job list of one workload for one seed."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "braid-page3":
        return [Job("braid6-betti", "betti", "--input", _dump({"braid": 6}),
                    None)]
    if workload == "torsion-sweep":
        out = [Job("worked-k%d" % k, "betti", "--input", worked_example(k),
                   "worked-k%d" % k) for k in WORKED_EXAMPLE_KS]
        for base in draw_catalogue():
            out.append(Job(base["id"], "betti", "--input", present(base, rng),
                           base["id"]))
        pool = primitive_vectors(3, -1, 1)
        for k in range(4):
            cols = rng.sample(pool, 5)
            out.append(Job("fresh3-%d" % k, "betti", "--input",
                           matrix_input(3, cols, _random_offsets(rng, 5, 2)),
                           None))
        return out
    if workload == "consumers":
        out = []
        for n in range(2, 6):
            for k, edges in enumerate(canonical_graphs(n)):
                out.append(Job("g%d-%d" % (n, k), "formality", "--graph",
                               _graph_input(n, edges), None))
        six = [("c6", C6), ("k33", K33),
               ("tri6-0", _random_graph_with_triangle(rng, 6)),
               ("tri6-1", _random_graph_with_triangle(rng, 6))]
        for name, edges in six:
            out.append(Job(name, "formality", "--graph",
                           _graph_input(6, _relabel(rng, 6, edges)), None))
        braid5 = _dump({"braid": 5})
        out += [Job("braid5-rep", "rep-decompose", "--input", braid5, None),
                Job("braid5-table", "braid-table", "--input", braid5, None),
                Job("braid4-verify", "verify-all", "--input",
                    _dump({"braid": 4}), None),
                Job("braid5-verify", "verify-all", "--input", braid5, None),
                Job("worked-k5-verify", "verify-all", "--input",
                    worked_example(5), None)]
        return out
    raise ValueError("unknown workload %r" % workload)
