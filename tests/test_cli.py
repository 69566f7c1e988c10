import json
import subprocess
import sys
from fractions import Fraction

import pytest

from ellarr import arrangement as arr_mod
from ellarr import braid, cli, exactlin, formality
from ellarr.model import BigradedDGA


# Braid columns with one translated divisor: not a braid input.
TRANSLATED_BRAID3 = ('{"n": 3, "divisors": [[1, -1, 0], [1, 0, -1], [0, 1, -1]], '
                     '"offsets": [["1/2", "0"], ["0", "0"], ["0", "0"]]}')


# Graphs by name, as (vertices, edges).
GRAPHS = {
    "k3": (3, [[1, 2], [1, 3], [2, 3]]),
    "c4": (4, [[1, 2], [2, 3], [3, 4], [1, 4]]),
    "k4": (4, [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]),
    "c5": (5, [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]),
    "paw": (4, [[1, 2], [1, 3], [2, 3], [3, 4]]),
    "triangle-tail": (5, [[1, 2], [1, 3], [2, 3], [3, 4], [4, 5]]),
}


def graph_json(name) -> str:
    n, edges = GRAPHS[name]
    return json.dumps({"graph": {"vertices": n, "edges": edges}})


def run_cli(args):
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


@pytest.fixture()
def example_file(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(json.dumps({"n": 2, "divisors": [[1, 0], [1, 5], [2, 5]]}))
    return str(path)


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(
        {"graph": {"vertices": 3, "edges": [[1, 2], [1, 3], [2, 3]]}}))
    return str(path)


class TestParsing:
    def test_example(self, example_file):
        arr = cli.parse_input(example_file)
        assert arr.n == 2 and arr.size == 3

    def test_braid_file(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text('{"braid": 4}')
        arr = cli.parse_input(str(path))
        assert arr.size == 6

    def test_graph(self, graph_file):
        g = cli.parse_input(graph_file)
        assert g.n == 3 and len(g.edges) == 3

    def test_offsets(self, tmp_path):
        path = tmp_path / "o.json"
        path.write_text(json.dumps({
            "n": 1, "divisors": [[1], [1]],
            "offsets": [["0", "0"], ["1/2", "0"]]}))
        arr = cli.parse_input(str(path))
        assert str(arr.offsets[1][0]) == "1/2"

    def test_integer_offsets(self, tmp_path):
        path = tmp_path / "o.json"
        path.write_text(json.dumps({
            "n": 1, "divisors": [[1], [1]], "offsets": [[0, 1], [3, "1/2"]]}))
        arr = cli.parse_input(str(path))
        assert arr.offsets[1] == (0, Fraction(1, 2))

    def test_malformed_column(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "divisors": [[1, 0], [1]]}')
        with pytest.raises(cli.InputError, match="divisor 1"):
            cli.parse_input(str(path))

    def test_gcd_column_message(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text('{"n": 1, "divisors": [[5]]}')
        with pytest.raises(cli.InputError, match="gcd"):
            cli.parse_input(str(path))

    def test_json_error_line_number(self, tmp_path):
        path = tmp_path / "bad3.json"
        path.write_text('{"n": 2,\n  "divisors": [[1, 0],]}')
        with pytest.raises(cli.InputError, match="line 2"):
            cli.parse_input(str(path))

    def test_round_trip(self, example_file):
        arr = cli.parse_input(example_file)
        printed = cli.print_arrangement(arr)
        from ellarr.arrangement import Arrangement
        again = Arrangement(printed["n"],
                            tuple(tuple(c) for c in printed["divisors"]))
        assert again == arr


class TestCommands:
    def test_poset_layer_counts(self, example_file):
        code, out = run_cli(["--input", example_file, "--cmd", "poset"])
        assert code == 0
        data = json.loads(out)
        assert data["poset"]["layers_per_rank"] == {"0": 1, "1": 3, "2": 25}

    def test_betti_identical_for_poset_twins(self, tmp_path, example_file):
        twin = tmp_path / "twin.json"
        twin.write_text(json.dumps({"n": 2, "divisors": [[2, 5], [1, 0], [-3, -5]]}))
        code_a, out_a = run_cli(["--input", example_file, "--cmd", "betti"])
        code_b, out_b = run_cli(["--input", str(twin), "--cmd", "betti"])
        assert code_a == code_b == 0
        a = json.loads(out_a)
        b = json.loads(out_b)
        assert a["betti_page3"] == b["betti_page3"]
        assert a["betti_page2"] == b["betti_page2"]

    def test_braid_betti(self):
        code, out = run_cli(["--braid", "3", "--cmd", "betti"])
        data = json.loads(out)
        assert code == 0
        assert data["poincare"] == [1, 6, 14, 14, 5]
        assert data["euler"] == 0

    def test_euler(self, example_file):
        code, out = run_cli(["--input", example_file, "--cmd", "euler"])
        data = json.loads(out)
        assert data["euler"] == json.loads(out)["euler_essential_core"]

    def test_formality_k3(self, graph_file):
        code, out = run_cli(["--graph", graph_file, "--cmd", "formality"])
        data = json.loads(out)
        assert code == 0
        assert data["formality"]["one_formal"] is False
        assert data["formality"]["witness"]["gap_certified"] is True

    def test_formality_tree(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(
            {"graph": {"vertices": 3, "edges": [[1, 2], [2, 3]]}}))
        code, out = run_cli(["--graph", str(path), "--cmd", "formality"])
        data = json.loads(out)
        assert data["formality"]["one_formal"] is True

    def test_rep_decompose(self):
        code, out = run_cli(["--braid", "3", "--cmd", "rep-decompose"])
        data = json.loads(out)
        assert code == 0
        rows = data["representations"]["0,2"]
        assert sum(r["multiplicity"] for r in rows) > 0

    def test_rep_bound(self):
        code, _ = run_cli(["--braid", "3", "--cmd", "rep-decompose",
                           "--rep-bound", "2"])
        assert code == 2

    def test_braid_table(self):
        code, out = run_cli(["--braid", "3", "--cmd", "braid-table"])
        data = json.loads(out)
        assert data["stirling_row"] == [1, 3, 2]
        assert data["poincare_hyperplane"] == [1, 3, 2]
        assert data["observed_e3_1q_reduced"]["1"] == 2
        assert data["cocycle_lower_bound_2_binom_q_fact"]["1"] == 2

    def test_braid_table_bound_respected(self):
        # reported observations always sit on or above the proven bound
        code, out = run_cli(["--braid", "5", "--cmd", "braid-table"])
        data = json.loads(out)
        for q, bound in data["cocycle_lower_bound_2_binom_q_fact"].items():
            assert data["observed_e3_1q_reduced"][q] >= bound
        # prediction tables match the reduced page-3 table in the same output
        reduced = data["betti_page3_reduced"]
        for p, want in data["expected"]["first_row"].items():
            assert reduced.get("%s,0" % p, 0) == want
        weights = data["weights_page3_reduced"]
        for k, want in data["expected"]["antidiagonal"].items():
            q = 5 - 1 - int(k)
            got = weights.get("%s,%d" % (k, q), {}).get(k, 0)
            over = weights.get("%s,%d" % (k, q), {}).get(str(int(k) + 2), 0)
            assert got - over == want

    def test_verify_all_braid(self):
        code, out = run_cli(["--braid", "4", "--cmd", "verify-all"])
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert all(c["ok"] for c in data["verify"])

    def test_verify_all_example(self, example_file):
        code, out = run_cli(["--input", example_file, "--cmd", "verify-all"])
        assert code == 0

    def test_verify_all_graph(self, graph_file):
        code, out = run_cli(["--graph", graph_file, "--cmd", "verify-all"])
        assert code == 0
        data = json.loads(out)
        names = {c["check"] for c in data["verify"]}
        assert "formality-criterion" in names

    def test_verify_flag_appends_audit(self):
        code, out = run_cli(["--braid", "3", "--cmd", "betti", "--verify"])
        assert code == 0
        data = json.loads(out)
        assert "poincare" in data and "verify" in data
        assert all(c["ok"] for c in data["verify"])

    def test_bad_rep_bound_rejected(self):
        code, _ = run_cli(["--braid", "3", "--cmd", "betti", "--rep-bound", "0"])
        assert code == 2

    def test_verify_all_requires_vanishing_certificate(self, monkeypatch,
                                                       tmp_path):
        # a triangle-free graph is formal only with its vanishing report
        path = tmp_path / "c4.json"
        path.write_text(graph_json("c4"))
        monkeypatch.setattr(formality, "verify_triangle_free_vanishing",
                            lambda model: {"ok": False, "values": {}})
        code, out = run_cli(["--graph", str(path), "--cmd", "verify-all"])
        data = json.loads(out)
        assert code == 2 and data["ok"] is False
        failed = [c["check"] for c in data["verify"] if not c["ok"]]
        assert failed == ["formality-criterion"]

    @pytest.mark.parametrize("name", ["k4", "c5", "paw", "triangle-tail"])
    def test_formality_matrix_input_matches_graph(self, tmp_path, name):
        # permuted columns with flipped signs present the same graph
        n, edges = GRAPHS[name]
        cols = []
        for k, (i, j) in enumerate(edges):
            col = [0] * n
            col[i - 1], col[j - 1] = (1, -1) if k % 2 else (-1, 1)
            cols.append(col)
        cols = cols[1::2] + cols[::2][::-1]
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps({"n": n, "divisors": cols}))
        graph = tmp_path / "graph.json"
        graph.write_text(graph_json(name))
        code_m, out_m = run_cli(["--input", str(matrix), "--cmd", "formality"])
        code_g, out_g = run_cli(["--graph", str(graph), "--cmd", "formality"])
        assert code_m == code_g == 0
        assert out_m == out_g

    def test_verify_all_n1_skips_braid_checks(self, tmp_path):
        path = tmp_path / "n1.json"
        path.write_text('{"n": 1, "divisors": [[1], [-1]]}')
        code, out = run_cli(["--input", str(path), "--cmd", "verify-all"])
        data = json.loads(out)
        assert code == 0 and data["ok"] is True
        assert "stirling-first-column" not in {c["check"] for c in data["verify"]}

    def test_verify_all_translated_braid_skips_braid_checks(self, tmp_path):
        path = tmp_path / "translated.json"
        path.write_text(TRANSLATED_BRAID3)
        code, out = run_cli(["--input", str(path), "--cmd", "verify-all"])
        data = json.loads(out)
        assert code == 0 and data["ok"] is True
        names = {c["check"] for c in data["verify"]}
        assert not names & {"first-column-injective", "stirling-first-column",
                            "labelled-forest-counts", "circuit-cocycle-ranks"}


class TestDeterminism:
    def test_byte_identical_runs(self, example_file):
        _, out1 = run_cli(["--input", example_file, "--cmd", "betti"])
        _, out2 = run_cli(["--input", example_file, "--cmd", "betti"])
        assert out1 == out2

    def test_formats(self, example_file):
        for fmt in ("json", "csv", "text"):
            code, out = run_cli(["--input", example_file, "--cmd", "poset",
                                 "--format", fmt])
            assert code == 0 and out

    def test_csv_header(self, example_file):
        _, out = run_cli(["--input", example_file, "--cmd", "euler",
                          "--format", "csv"])
        assert out.splitlines()[0] == "key,value"

    def test_output_file(self, example_file, tmp_path):
        target = tmp_path / "out.json"
        code, out = run_cli(["--input", example_file, "--cmd", "euler",
                             "--output", str(target)])
        assert code == 0 and out == ""
        data = json.loads(target.read_text())
        assert "euler" in data


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ellarr.cli", "--braid", "2",
             "--cmd", "betti"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["poincare"] == [1, 4, 5, 2]

    @pytest.mark.parametrize("content, cmd, message", [
        ('{"n": 1, "divisors": [[5]]}', "betti", "gcd"),
        ('{"braid": 1}', "betti", "braid"),
        ('{"braid": "x"}', "betti", "braid"),
        ('{"n": 1, "divisors": [[1], [1]], "offsets": [["0", "0"], ["1/0", "0"]]}',
         "betti", "offsets"),
        ('{"n": 1, "divisors": [[1], [-1]]}', "braid-table", "braid-table"),
        (TRANSLATED_BRAID3, "braid-table", "braid-table"),
        (TRANSLATED_BRAID3, "rep-decompose", "rep-decompose"),
        ('{"n": 2, "divisors": [[1, -1]], "offsets": [["1/2", "0"]]}',
         "formality", "offsets"),
        ('{"n": 2, "divisors": [[1, -1], [1, -1]], '
         '"offsets": [["0", "0"], ["1/2", "0"]]}', "formality", "offsets"),
        ('{"n": 2, "divisors": [[1, -1], [1, -1]]}', "formality",
         "multiple edges"),
        ('{"n": 2, "divisors": [[1.5, 0], [0, 1]]}', "betti", "1.5 is not"),
        ('{"braid": 3.7}', "betti", "braid"),
        ('{"n": 2.9, "divisors": [[1, 0]]}', "betti", "2.9 is not"),
        ('{"n": true, "divisors": [[1]]}', "betti", "true is not"),
        ('{"n": 2, "divisors": [[1, 0], ["1", 1]]}', "betti", "not an integer"),
        ('{"graph": {"vertices": 3.9, "edges": [[1, 2]]}}', "formality",
         "graph"),
        ('{"graph": {"vertices": 3, "edges": [[2, 3.5]]}}', "formality",
         "graph"),
        ('{"n": 1, "divisors": [[1]], "offsets": [[0.1, 0]]}', "betti",
         "offsets"),
        ('{"n": 1, "divisors": [[1]], "offsets": [["0", true]]}', "betti",
         "offsets"),
    ], ids=["gcd", "braid-1", "braid-x", "offset-1/0", "braid-table-n1",
            "braid-table-translated", "rep-decompose-translated",
            "formality-translated", "formality-repeated-translated",
            "formality-repeated", "float-entry", "float-braid", "float-n",
            "bool-n", "string-entry", "float-vertices",
            "float-edge", "float-offset", "bool-offset"])
    def test_error_exit_code(self, tmp_path, content, cmd, message):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        proc = subprocess.run(
            [sys.executable, "-m", "ellarr.cli", "--input", str(bad),
             "--cmd", cmd],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert message in lines[0]

    @pytest.mark.parametrize("case", ["missing", "directory", "not-utf8",
                                      "output-dir"])
    def test_file_error_exit_code(self, tmp_path, case):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        argv = {"missing": ["--input", str(tmp_path / "none.json")],
                "directory": ["--input", str(tmp_path)],
                "not-utf8": ["--input", str(bad)],
                "output-dir": ["--braid", "2", "--output",
                               str(tmp_path / "none" / "x.json")]}[case]
        proc = subprocess.run(
            [sys.executable, "-m", "ellarr.cli"] + argv,
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


class TestLeanImports:
    """A run loads only the modules its command and input kind use.

    Each job runs in a fresh interpreter; what a bare interpreter already
    holds (``site`` and its preloads) does not count.
    """

    PROBE = ("import sys\nfrom ellarr import cli\n"
             "code = cli.main(sys.argv[1:])\n"
             "sys.stderr.write('\\n'.join(sys.modules))\nsys.exit(code)\n")

    def loaded(self, argv):
        bare = subprocess.run(
            [sys.executable, "-c",
             "import sys\nsys.stdout.write('\\n'.join(sys.modules))"],
            capture_output=True, text=True, timeout=60)
        proc = subprocess.run([sys.executable, "-c", self.PROBE] + argv,
                              capture_output=True, text=True, timeout=120)
        assert bare.returncode == 0 and proc.returncode == 0, proc.stderr
        return set(proc.stderr.splitlines()) - set(bare.stdout.splitlines())

    def test_matrix_betti(self, example_file):
        loaded = self.loaded(["--input", example_file, "--cmd", "betti"])
        assert "ellarr.cohomology" in loaded
        assert not loaded & {"dataclasses", "inspect", "csv", "ellarr.braid",
                             "ellarr.reptheory", "ellarr.formality"}

    def test_graph_formality(self, graph_file):
        loaded = self.loaded(["--graph", graph_file, "--cmd", "formality"])
        assert "ellarr.formality" in loaded
        assert not loaded & {"ellarr.braid", "ellarr.reptheory"}

    def test_no_typing_without_site(self):
        # annotations are never evaluated, so the package needs no typing
        import os
        import ellarr
        src = os.path.dirname(os.path.dirname(ellarr.__file__))
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             "import sys\nimport ellarr.cli\nprint('typing' in sys.modules)"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestSharedModel:
    """Each run builds the input's model once and computes only what it prints."""

    GRAPH_RUNS = [(g, cmd) for g in ("k3", "c4")
                  for cmd in ("formality", "verify-all", "betti")]

    @pytest.mark.parametrize("argv", [
        ["--braid", "4", "--cmd", "braid-table"],
        ["--braid", "4", "--cmd", "verify-all"],
        ["--cmd", "betti", "--verify"],
    ] + [["--graph", g, "--cmd", cmd] + (["--verify"] if cmd != "verify-all"
                                          else [])
         for g, cmd in GRAPH_RUNS],
        ids=["braid-table", "braid-verify-all", "betti-verify"]
        + ["%s-%s" % run for run in GRAPH_RUNS])
    def test_one_model_per_run(self, monkeypatch, tmp_path, example_file,
                               argv):
        braid.braid_full_model.cache_clear()
        built = []
        posets = []
        init = BigradedDGA.__init__
        build_poset = arr_mod.build_poset

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def counting_poset(arr):
            posets.append(arr)
            return build_poset(arr)

        monkeypatch.setattr(BigradedDGA, "__init__", counting)
        monkeypatch.setattr(arr_mod, "build_poset", counting_poset)
        if argv[0] == "--graph":
            path = tmp_path / "graph.json"
            path.write_text(graph_json(argv[1]))
            argv = ["--graph", str(path)] + argv[2:]
        elif "--braid" not in argv:
            argv = ["--input", example_file] + argv
        code, _ = run_cli(argv)
        assert code == 0 and len(built) == 1 and len(posets) == 1

    def test_rep_decompose_computes_no_ranks(self, monkeypatch):
        calls = []
        rank = exactlin.sparse_rank
        monkeypatch.setattr(exactlin, "sparse_rank",
                            lambda cols: calls.append(1) or rank(cols))
        code, _ = run_cli(["--braid", "4", "--cmd", "rep-decompose"])
        assert code == 0 and calls == []


def leibniz_sample_oracle(dga):
    # rng.choice over the list of every basis monomial, in bidegree order
    import random
    rng = random.Random(2718281828)
    monos = [m for (p, q) in dga.bidegrees() for m in dga.basis(p, q)]
    return [(rng.choice(monos), rng.choice(monos))
            for _ in range(min(len(monos) ** 2, 400))]


class TestLeibnizSample:
    """The verify-all sample drawn by index is the list-drawn one."""

    @pytest.mark.parametrize("arr", [
        braid.braid_arrangement(4),
        arr_mod.Arrangement(2, ((1, 0), (1, 5), (2, 5))),
        arr_mod.Arrangement(2, ((1, 0), (1, 2), (0, 1)),
                            ((Fraction(1, 2), 0), (0, 0), (0, Fraction(1, 3)))),
    ], ids=["braid4", "example-k5", "torsion"])
    def test_same_pairs(self, arr):
        from ellarr import cohomology
        dga = cohomology.full_model(arr).core
        got = cli._leibniz_sample(dga)
        assert dga._basis == {}
        assert len(got) == 400
        assert got == leibniz_sample_oracle(dga)

    def test_empty_model(self):
        # every essential model holds the unit, so only a model without
        # bidegrees has an empty sample: nothing is drawn
        class Empty:
            def bidegrees(self):
                return []

            def basis(self, p, q):
                raise AssertionError

            def monomials_at(self, positions):
                assert positions == []
                return []

        assert cli._leibniz_sample(Empty()) == leibniz_sample_oracle(Empty()) == []
        dga = braid.braid_model(3)
        assert dga.monomials_at([]) == []
