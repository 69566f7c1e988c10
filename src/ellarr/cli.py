"""Batch front door: parse an input, run one command, emit one table.

Inputs are JSON files with either an explicit defining matrix (``n``,
``divisors``, optional ``offsets`` with entries like "2/5" per circle
coordinate), a ``graph`` object, or a ``braid`` count.  Counts and matrix
entries must be JSON integers and offsets strings or integers: nothing is
truncated or rounded.  All rationals in the output are serialized as
strings "p/q"; tables are sparse with "p,q" keys.  Identical inputs produce
byte-identical JSON.

A run is often a short process of its own, so the modules only some
commands or input kinds use (``braid``, ``reptheory``, ``formality``,
``csv``, ``random``) are imported where they are used.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from fractions import Fraction
from math import comb, factorial

from . import arrangement as arr_mod
from . import cohomology
from .arrangement import Arrangement, ArrangementError
from .model import BigradedDGA, add, scale, sub


class InputError(ValueError):
    pass


def _integer(value) -> int:
    """A JSON integer; floats, bools and strings are refused, not truncated."""
    if type(value) is not int:
        raise TypeError("%s is not an integer" % json.dumps(value))
    return value


def _rational(value) -> Fraction:
    """An offset given as a string like "2/5" or as a JSON integer."""
    if type(value) is not int and not isinstance(value, str):
        raise TypeError("%s is not a string or an integer" % json.dumps(value))
    return Fraction(value)


def parse_input(path: str):
    """Arrangement or SimpleGraph from a JSON job file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError("%s: %s" % (path, exc.strerror or exc)) from exc
    except UnicodeDecodeError as exc:
        raise InputError("%s: not UTF-8 text: %s" % (path, exc)) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("%s: line %d column %d: %s"
                         % (path, exc.lineno, exc.colno, exc.msg)) from exc
    if not isinstance(data, dict):
        raise InputError("%s: top level must be an object" % path)
    kinds = [k for k in ("divisors", "graph", "braid") if k in data]
    if len(kinds) != 1:
        raise InputError("%s: need exactly one of 'divisors', 'graph', 'braid'"
                         % path)
    if "braid" in data:
        from . import braid as braid_mod
        try:
            return braid_mod.braid_arrangement(_integer(data["braid"]))
        except (TypeError, ValueError) as exc:
            raise InputError("%s: bad braid count: %s" % (path, exc)) from exc
    if "graph" in data:
        from . import formality
        g = data["graph"]
        try:
            return formality.SimpleGraph(_integer(g["vertices"]),
                                         tuple((_integer(a), _integer(b))
                                               for a, b in g["edges"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError("%s: bad graph: %s" % (path, exc)) from exc
    try:
        n = _integer(data["n"])
        divisors = [tuple(_integer(x) for x in col) for col in data["divisors"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("%s: bad matrix input: %s" % (path, exc)) from exc
    for k, col in enumerate(divisors):
        if len(col) != n:
            raise InputError("%s: divisor %d has %d entries, expected n=%d"
                             % (path, k, len(col), n))
    offsets = ()
    if "offsets" in data:
        try:
            offsets = tuple((_rational(a), _rational(b))
                            for a, b in data["offsets"])
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError("%s: bad offsets: %s" % (path, exc)) from exc
    try:
        return Arrangement(n, tuple(divisors), offsets)
    except ArrangementError as exc:
        raise InputError("%s: %s" % (path, exc)) from exc


def print_arrangement(arr: Arrangement) -> dict:
    out = {"n": arr.n, "divisors": [list(c) for c in arr.columns]}
    if any(a or b for a, b in arr.offsets):
        out["offsets"] = [[str(a), str(b)] for a, b in arr.offsets]
    return out


def _table_json(table: cohomology.BettiTable) -> dict:
    return {"%d,%d" % k: v for k, v in sorted(table.entries.items())}


def _weights_json(table: cohomology.BettiTable) -> dict:
    return {"%d,%d" % k: {str(a): v for a, v in sorted(w.items())}
            for k, w in sorted(table.weights.items())}


def _is_braid(arr: Arrangement) -> bool:
    """Is this the untranslated diagonal arrangement on n >= 2 coordinates?"""
    if arr.n < 2:
        return False
    from . import braid as braid_mod
    return arr == braid_mod.braid_arrangement(arr.n)


# Every command takes (arr, graph, args, model): the input's arrangement,
# its graph (None unless the input is a graph), the parsed options, and
# model(), which returns the input's ``cohomology.full_model``, built on
# first use and shared with --verify.

def cmd_poset(arr, graph, args, model) -> dict:
    poset = arr_mod.build_poset(arr)
    return {
        "input": print_arrangement(arr),
        "poset": {
            "layers_per_rank": {str(r): c
                                for r, c in poset.counts_by_rank().items()},
            "covers": [list(c) for c in poset.covers()],
            "essential": arr_mod.is_essential(arr),
            "unimodular": arr_mod.is_unimodular(arr),
        },
    }


def cmd_betti(arr, graph, args, model) -> dict:
    t2, t3 = cohomology.betti_tables(model())
    return {
        "input": print_arrangement(arr),
        "betti_page2": _table_json(t2),
        "betti_page3": _table_json(t3),
        "weights_page3": _weights_json(t3),
        "poincare": t3.total_betti(),
        "euler": t2.euler(),
    }


def cmd_euler(arr, graph, args, model) -> dict:
    chi_core = cohomology.page2_table(model().core).euler()
    chi = 0 if model().nbars else chi_core
    return {"input": print_arrangement(arr), "euler": chi,
            "euler_essential_core": chi_core}


def cmd_braid_table(arr, graph, args, model) -> dict:
    n = arr.n
    if not _is_braid(arr):
        raise InputError("braid-table needs a braid input (use --braid N)")
    from . import braid as braid_mod
    t2, t3 = cohomology.betti_tables(model())
    t3core = cohomology.page3_table(model().core)
    expected = braid_mod.expected_dims(n)
    observed_lc = {}
    for q in range(1, n - 1):
        observed_lc[str(q)] = t3core.dim(1, q)
    return {
        "input": print_arrangement(arr),
        "betti_page2": _table_json(t2),
        "betti_page3": _table_json(t3),
        "betti_page3_reduced": _table_json(t3core),
        "weights_page3_reduced": _weights_json(t3core),
        "poincare": t3.total_betti(),
        "euler": t2.euler(),
        "stirling_row": [braid_mod.stirling_first(n, n - q) for q in range(n)],
        "tutte": {"%d,%d" % k: v
                  for k, v in sorted(braid_mod.tutte_polynomial(n).items())},
        "poincare_hyperplane": braid_mod.poincare_hyperplane(n),
        "expected": {k: {str(i): v for i, v in sorted(d.items())}
                     for k, d in expected.items()},
        "observed_e3_1q_reduced": observed_lc,
        "cocycle_lower_bound_2_binom_q_fact": {
            str(q): 2 * comb(n, q + 2) * factorial(q)
            for q in range(1, n - 1)},
    }


def cmd_rep_decompose(arr, graph, args, model) -> dict:
    n = arr.n
    if not _is_braid(arr):
        raise InputError("rep-decompose needs a braid input (use --braid N)")
    if n > args.rep_bound:
        raise InputError("n=%d exceeds --rep-bound %d" % (n, args.rep_bound))
    from . import reptheory
    t2 = cohomology.tensor_with_curve(cohomology.page2_table(model().core),
                                      model().nbars)
    reps = {}
    for (p, q) in sorted(t2.entries):
        rows = reptheory.bidegree_decomposition(n, p, q, args.rep_bound)
        if rows:
            reps["%d,%d" % (p, q)] = rows
    return {"input": print_arrangement(arr), "representations": reps}


def cmd_formality(arr, graph, args, model) -> dict:
    from . import formality
    if graph is None:
        graph = _graph_from_arrangement(arr)
    formal, cert = formality.is_one_formal(graph, model())
    out = {"graph": {"vertices": graph.n, "edges": [list(e) for e in graph.edges]},
           "formality": {"one_formal": formal}}
    if formal:
        out["formality"]["vanishing"] = cert["vanishing"]
    else:
        out["formality"]["witness"] = {
            "triangle": list(cert["triangle"]),
            "xcoeffs": cert["xcoeffs"],
            "ycoeffs": cert["ycoeffs"],
            "in_page3_resonance": cert["witness_in_page3_resonance"],
            "in_page2_resonance": cert["witness_in_page2_resonance"],
            "gap_certified": cert["gap_certified"],
        }
    return out


def _graph_from_arrangement(arr: Arrangement):
    if any(a or b for a, b in arr.offsets):
        raise InputError("formality needs a graphic arrangement without "
                         "offsets or a --graph input")
    edges = []
    for col in arr.columns:
        pos = [i + 1 for i, x in enumerate(col) if x == 1]
        neg = [i + 1 for i, x in enumerate(col) if x == -1]
        rest = [x for x in col if x not in (-1, 0, 1)]
        if len(pos) != 1 or len(neg) != 1 or rest:
            raise InputError("formality needs a graphic arrangement "
                             "(columns e_i - e_j) or a --graph input")
        edges.append((pos[0], neg[0]))
    from . import formality
    try:
        return formality.SimpleGraph(arr.n, tuple(edges))
    except ValueError as exc:
        raise InputError("formality: %s" % exc) from exc


def cmd_verify_all(arr, graph, args, model) -> dict:
    """Invariant suite for the given input; any failure exits nonzero."""
    checks = []

    def check(name, ok, detail=""):
        checks.append({"check": name, "ok": bool(ok), "detail": str(detail)})

    dga, nbars = model().core, model().nbars

    report = dga.verify_model_dimension()
    check("dimension-audit", report["matches_4_pow_corank"], report)

    check("d-squared-zero", dga.verify_d_squared())

    circ_ok = True
    for circuit in arr_mod.circuits(dga.arrangement):
        members = arr_mod.mask_of(circuit)
        for lid in _circuit_components(dga, members):
            total = {}
            for t, i in enumerate(circuit):
                term = dga.omega(lid, members ^ 1 << i)
                total = add(total, scale(term, (-1) ** t))
            if total:
                circ_ok = False
    check("circuit-relations", circ_ok)

    leib_ok = True
    comm_ok = True
    for m1, m2 in _leibniz_sample(dga):
        e1 = {m1: 1}
        e2 = {m2: 1}
        prod = dga.multiply(e1, e2)
        lhs = dga.d(prod)
        deg1 = sum(dga.bidegree_of(m1))
        sign = -1 if deg1 % 2 else 1
        rhs = add(dga.multiply(dga.d(e1), e2),
                  scale(dga.multiply(e1, dga.d(e2)), sign))
        if sub(lhs, rhs):
            leib_ok = False
        swap = -1 if (deg1 * sum(dga.bidegree_of(m2))) % 2 else 1
        if sub(prod, scale(dga.multiply(e2, e1), swap)):
            comm_ok = False
    check("leibniz-sampled", leib_ok)
    check("graded-commutativity-sampled", comm_ok)

    t2c = cohomology.page2_table(dga)
    t3c = cohomology.page3_table(dga)
    t2 = cohomology.tensor_with_curve(t2c, nbars)
    t3 = cohomology.tensor_with_curve(t3c, nbars)
    van = cohomology.verify_vanishing(arr, t3, t2c, t3c)
    check("vanishing-and-triangles", van["ok"], van["violations"])
    check("euler-consistency", t2.euler() == t3.euler(),
          "%s vs %s" % (t2.euler(), t3.euler()))

    if _is_braid(arr):
        from . import braid as braid_mod
        n = arr.n
        fc = cohomology.verify_first_column(dga)
        check("first-column-injective", fc["ok"], fc["failures"])
        stirling_ok = all(dga.dim(0, q) == braid_mod.stirling_first(n, n - q)
                          for q in range(n))
        check("stirling-first-column", stirling_ok)
        forest_ok = braid_mod.labelled_forest_counts(n) == dict(t2.entries)
        check("labelled-forest-counts", forest_ok)
        lc_ok = True
        for q in range(1, n - 1):
            got = braid_mod.cocycle_span_rank(model(), q)
            want = 2 * comb(n, q + 2) * factorial(q)
            if got != want:
                lc_ok = False
        check("circuit-cocycle-ranks", lc_ok)

    if graph is not None:
        from . import formality
        formal, cert = formality.is_one_formal(graph, model())
        check("formality-criterion",
              cert["vanishing"]["ok"] if formal else cert["gap_certified"])
        if not formal:
            check("resonance-gap-witness", cert["gap_certified"])

    ok = all(c["ok"] for c in checks)
    return {"input": print_arrangement(arr), "verify": checks, "ok": ok}


def _leibniz_sample(dga: BigradedDGA) -> list[tuple]:
    """The monomial pairs the Leibniz and commutativity checks sample.

    They are the pairs that ``rng.choice`` draws from the list of every
    basis monomial in ``bidegrees()`` order, without the list:
    ``choice(seq)`` is ``seq[_randbelow(len(seq))]``, so choosing from
    ``range(total)`` draws the same positions, and the monomials there are
    looked up one block at a time.
    """
    import random
    rng = random.Random(2718281828)
    total = sum(dga.dim(p, q) for p, q in dga.bidegrees())
    picks = [rng.choice(range(total)) for _ in range(2 * min(total ** 2, 400))]
    monos = dga.monomials_at(picks)
    return list(zip(monos[::2], monos[1::2]))


def _circuit_components(dga: BigradedDGA, members: int) -> list[int]:
    """The layers of the circuit ``members`` (a mask) minus its smallest
    column whose flat holds the whole circuit."""
    return [lid for lid in dga.poset.layers_associated(members & (members - 1))
            if not members & ~dga.poset.layers[lid].flat]


COMMANDS = {
    "poset": cmd_poset,
    "betti": cmd_betti,
    "euler": cmd_euler,
    "braid-table": cmd_braid_table,
    "rep-decompose": cmd_rep_decompose,
    "formality": cmd_formality,
    "verify-all": cmd_verify_all,
}


def _flatten(prefix: str, value, rows: list):
    if isinstance(value, dict):
        for k in value:
            _flatten("%s.%s" % (prefix, k) if prefix else str(k), value[k], rows)
    elif isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            rows.append((prefix, ";".join(str(v) for v in value)))
        else:
            for i, v in enumerate(value):
                _flatten("%s[%d]" % (prefix, i), v, rows)
    else:
        rows.append((prefix, value))


def render(result: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(result, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        import csv
        rows: list = []
        _flatten("", result, rows)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in rows:
            writer.writerow([key, value])
        return buf.getvalue()
    lines = []
    rows = []
    _flatten("", result, rows)
    width = max((len(k) for k, _ in rows), default=0)
    for key, value in rows:
        lines.append("%-*s  %s" % (width, key, value))
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellarr",
        description="Exact computations for arrangements of divisors on "
                    "products of an elliptic curve.")
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", metavar="FILE",
                     help="JSON job file (matrix, graph, or braid)")
    src.add_argument("--braid", type=int, metavar="N",
                     help="diagonal arrangement on N coordinates")
    src.add_argument("--graph", metavar="FILE",
                     help="JSON file with a graph object")
    parser.add_argument("--cmd", default="betti", choices=sorted(COMMANDS),
                        help="computation to run (default: betti)")
    parser.add_argument("--format", default="json",
                        choices=["json", "csv", "text"])
    parser.add_argument("--rep-bound", type=int, default=8, metavar="N",
                        help="enumeration bound for representation work")
    parser.add_argument("--verify", action="store_true",
                        help="also run the verify-all suite afterwards")
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="write to a file instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.rep_bound < 1:
            raise InputError("--rep-bound must be positive")
        if args.braid is not None:
            if args.braid < 2:
                raise InputError("--braid needs N >= 2")
            from . import braid as braid_mod
            arr, graph = braid_mod.braid_arrangement(args.braid), None
        else:
            source = parse_input(args.input if args.graph is None
                                 else args.graph)
            if not isinstance(source, Arrangement):
                from . import formality
                arr, graph = formality.graphic_arrangement(source), source
            elif args.graph is not None:
                raise InputError("%s does not contain a graph" % args.graph)
            else:
                arr, graph = source, None
        model = functools.cache(lambda: cohomology.full_model(arr))
        result = COMMANDS[args.cmd](arr, graph, args, model)
        code = 0
        if args.cmd == "verify-all" and not result["ok"]:
            code = 2
        if args.verify and args.cmd != "verify-all":
            vres = cmd_verify_all(arr, graph, args, model)
            result["verify"] = vres["verify"]
            if not vres["ok"]:
                code = 2
    except (InputError, ArrangementError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    text = render(result, args.format)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print("error: %s: %s" % (args.output, exc.strerror or exc),
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
