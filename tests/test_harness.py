import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certcut import graphcore
from certcut._rng import make_rng
from certcut.chromatic import kr_free_coloring, max_t_cut
from certcut.cli import main, make_report
from certcut.decompose import kr_cut, sampled_sdp_cut
from certcut.errors import (
    BudgetExceeded,
    DuplicateEdge,
    InvalidParameter,
    ParseError,
    PreconditionError,
    SelfLoop,
    VertexOutOfRange,
)
from certcut.graphcore import cut_value
from certcut.generators import complete, gnp, petersen, random_regular
from certcut.harness import (
    CSV_HEADER,
    MAX_HEADER_VERTICES,
    RunReport,
    _parse_lines,
    _parse_plain,
    format_edge_list,
    parse_graph,
)
from conftest import graphs


class TestParseGraph:
    def test_single_edge(self):
        g = parse_graph("2 1\n0 1\n")
        assert g.n == 2 and g.edges == ((0, 1),)

    def test_dimacs_triangle(self):
        g = parse_graph("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        assert g.n == 3 and g.m == 3

    def test_dimacs_with_comments(self):
        g = parse_graph("c a triangle\np edge 3 3\ne 1 2\ne 2 3\nc midway\ne 1 3\n")
        assert g.m == 3

    def test_self_loop_reports_line(self):
        with pytest.raises(SelfLoop) as err:
            parse_graph("2 1\n0 0\n")
        assert err.value.line == 2

    def test_duplicate_edge_reports_line(self):
        with pytest.raises(DuplicateEdge) as err:
            parse_graph("3 2\n0 1\n1 0\n")
        assert err.value.line == 3

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            parse_graph("2 1\n0 5\n")
        with pytest.raises(VertexOutOfRange):
            parse_graph("p edge 2 1\ne 0 1\n")  # DIMACS is 1-indexed

    @pytest.mark.parametrize("text, error, line, needle", [
        ("c x\np edge 3 2\ne 1 2\nc y\nc z\ne 2 4\n", VertexOutOfRange, 6, "(2, 4)"),
        ("p edge 3 2\nc y\ne 1 2\nc z\ne 3 3\n", SelfLoop, 5, "vertex 3"),
        ("p edge 3 3\ne 1 2\nc y\ne 2 3\nc z\nc w\ne 2 1\n", DuplicateEdge, 7, "duplicate edge"),
    ])
    def test_dimacs_bad_edge_reports_line(self, text, error, line, needle):
        # comment lines between the edges: the line is the input's, not the edge's index
        with pytest.raises(error) as err:
            parse_graph(text)
        assert err.value.line == line and needle in str(err.value)

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"2 1\n0 \xff\n", 2),
            (b"\xfe2 1\n0 1\n", 1),
            (b"c caf\xc3\xa9\np edge 2 1\ne 1 2\n\xc3", 4),  # a valid two-byte char, then a cut-off one
            (b"2 1\r0 1\r\x80", 3),
        ],
        ids=["edge_line", "header", "dimacs_truncated", "cr_breaks"],
    )
    def test_non_utf8_bytes_are_a_parse_error(self, data, line):
        with pytest.raises(ParseError) as err:
            parse_graph(data)
        assert err.value.line == line and "not UTF-8" in str(err.value)

    def test_bytes_and_text_parse_alike(self):
        text = "c \u00e9\np edge 3 2\ne 1 2\ne 2 3\n"
        assert parse_graph(text.encode()).edges == parse_graph(text).edges == ((0, 1), (1, 2))

    def test_bad_header(self):
        with pytest.raises(ParseError) as err:
            parse_graph("two one\n")
        assert err.value.line == 1

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_graph("3 2\n0 1\n")

    @pytest.mark.parametrize(
        "text",
        ["\n-3 0\n", "\n3 -1\n", "c comment\np edge -3 0\n", "c comment\np edge 3 -1\n"],
    )
    def test_negative_header_counts_report_header_line(self, text):
        # both formats refuse them in the parser, at the header's line
        with pytest.raises(ParseError, match="negative header counts") as err:
            parse_graph(text)
        assert err.value.line == 2

    @pytest.mark.parametrize("header", ["-3 0", "p edge -3 0"])
    def test_negative_header_exit_code(self, capsys, tmp_path, header):
        p = tmp_path / "neg.txt"
        p.write_text(header + "\n")
        assert main(["cut", "--algo", "sdp", "--in", str(p)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_bytes_accepted(self):
        assert parse_graph(b"2 1\n0 1\n").m == 1

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_graph("")


def _outcome(parse, data):
    """What a parser makes of ``data``: the graph's arrays, or the error's
    type, message and line."""
    try:
        g = parse(data)
    except Exception as err:
        return type(err), str(err), getattr(err, "line", None)
    return g.n, g.eu.tolist(), g.ev.tolist()


def _same_as_line_parser(data):
    """parse_graph agrees with the line parser on ``data``, as str and as
    UTF-8 bytes (or as given, for bytes); True when the array path read it."""
    forms = [data] if isinstance(data, bytes) else [data, data.encode("utf-8")]
    plain = {_parse_plain(form) is not None for form in forms}
    for form in forms:
        assert _outcome(parse_graph, form) == _outcome(_parse_lines, form)
    assert len(plain) == 1  # str and bytes take the same path
    return plain.pop()


ID_18 = "1" + "0" * 17
ID_19 = "1" + "0" * 18


class TestPlainParse:
    """The array path for plain edge lists reads what the line parser reads;
    everything else, errors included, comes from the line parser."""

    @pytest.mark.parametrize("text", [
        "3 2\n0 1\n1 2\n",
        "3 2\n0 1\n1 2",  # no final newline
        "\n\n3 2\n\n0 1\n   \n\t\n1 2\n\n",  # blank and whitespace-only lines
        "3\t2\n\t0 \t1\t\n 1   2 ",  # tabs and runs of spaces
        "003 0002\n00 01\n0001 002\n",  # leading zeros
        "3 1\n-0 1\n",  # -0 is vertex 0
        "4 0\n",
        "0 0\n",
        f"{MAX_HEADER_VERTICES} 1\n0 {MAX_HEADER_VERTICES - 1}\n",
        "3 1\n000000000000000002 1\n",  # 18 digits
    ])
    def test_plain_inputs_take_the_array_path(self, text):
        assert _same_as_line_parser(text)

    @pytest.mark.parametrize("text, error, line", [
        ("-3 0\n", ParseError, 1),  # negative header counts
        ("3 -1\n", ParseError, 1),
        ("3 1\n-1 2\n", VertexOutOfRange, 2),  # a negative id
        ("3 1\n0 -0001\n", VertexOutOfRange, 2),
        (f"{MAX_HEADER_VERTICES + 1} 0\n", BudgetExceeded, None),
        ("3 3\n0 1\n1 2\n", ParseError, 1),  # m too large
        ("3 1\n0 1\n1 2\n", ParseError, 1),  # m too small
        ("3 1\n0\n", ParseError, 2),  # one token
        ("3 1\n0 1 2\n", ParseError, 2),  # three tokens
        ("3\n", ParseError, 1),
        ("3 1 0\n0 1\n", ParseError, 1),
        ("3 1 0 1\n", ParseError, 1),  # two pairs on one line
        ("3 2\n0 1 1 2\n", ParseError, 2),
        ("3\n1\n0 1\n", ParseError, 1),  # one pair over two lines
        ("3 1\n0\n1\n", ParseError, 2),
        ("3 2\n0 1\n1 0\n", DuplicateEdge, 3),
        ("3 2\n0 1\n\n0001 0\n", DuplicateEdge, 4),
        ("3 1\n2 2\n", SelfLoop, 2),
        ("3 1\n0 3\n", VertexOutOfRange, 2),
        (f"3 1\n0 {ID_18}\n", VertexOutOfRange, 2),  # 18 digits, out of range
        (f"3 1\n0 {ID_19}\n", VertexOutOfRange, 2),  # 19 digits: the line parser
        (f"3 1\n0 {'9' * 25}\n", VertexOutOfRange, 2),  # 25 digits
        (f"3 1\n-{'9' * 25} 1\n", VertexOutOfRange, 2),
        ("3 1\n0 1-2\n", ParseError, 2),
        ("3 1\n0 --1\n", ParseError, 2),
        ("3 1\n0 -\n", ParseError, 2),
        ("", ParseError, 1),
        (" \n\t\n", ParseError, 1),
    ])
    def test_bad_inputs_keep_the_line_parsers_error(self, text, error, line):
        assert not _same_as_line_parser(text)
        with pytest.raises(error) as err:
            parse_graph(text)
        assert getattr(err.value, "line", None) == line

    @pytest.mark.parametrize("data, edges", [
        ("3 2\r\n0 1\r\n1 2\r\n", [(0, 1), (1, 2)]),  # CRLF
        ("3 2\r0 1\r1 2\r", [(0, 1), (1, 2)]),  # a lone CR ends a line
        ("3 2\n0 1\x0c1 2\n", [(0, 1), (1, 2)]),  # so does a form feed
        ("3 1\n0\u00a01\n", [(0, 1)]),  # NBSP separates
        ("3 1\n+0 +1\n", [(0, 1)]),
        ("3 1\n2 0_1\n", [(1, 2)]),  # int() reads 0_1 as 1
        ("3 1\n\u0661 2\n", [(1, 2)]),  # an Arabic-Indic one
        (f"3 1\n{'0' * 18}1 2\n", [(1, 2)]),  # an id of 19 digits
        ("p edge 3 2\ne 1 2\ne 2 3\n", [(0, 1), (1, 2)]),  # DIMACS
    ])
    def test_other_inputs_take_the_line_path(self, data, edges):
        assert not _same_as_line_parser(data)
        g = parse_graph(data)
        assert g.n == 3 and g.edges == tuple(edges)

    @pytest.mark.parametrize("data, line", [
        ("\ufeff3 1\n0 1\n", 1),  # a UTF-8 byte-order mark is not a digit
        (b"3 1\n0 \xff1\n", 2),  # not UTF-8
    ])
    def test_other_bad_inputs_take_the_line_path(self, data, line):
        assert not _same_as_line_parser(data)
        with pytest.raises(ParseError) as err:
            parse_graph(data)
        assert err.value.line == line

    # texts near the plain grammar: every byte it admits, its neighbours
    # outside it, and ids of 18 or more digits
    PIECES = ["0", "1", "7", "-", " ", "\t", "\n", "\n\n", "  ", "00", "-0", "\r", "\r\n",
              "\x0c", "\x0b", "+", "_", "\u00a0", "\u0661", "\ufeff", "x", ID_18, ID_19,
              "9" * 25]

    @settings(max_examples=300, deadline=None)
    @given(graphs(max_n=8), st.lists(st.tuples(st.integers(0, 2), st.integers(0, 10**6),
                                               st.sampled_from(PIECES)), max_size=4))
    def test_mutated_edge_lists_parse_alike(self, g, edits):
        text = list(format_edge_list(g))
        for op, at, piece in edits:
            at %= len(text) + 1
            if op == 0:
                text.insert(at, piece)
            elif at < len(text):
                text[at:at + 1] = [] if op == 1 else [piece]
        _same_as_line_parser("".join(text))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_token_lines_parse_alike(self, data):
        # lines of 0 to 3 tokens, mostly plain ones, under a header whose m is
        # the number of nonblank lines or one off it
        token = st.one_of(st.integers(-2, 9).map(str), st.sampled_from(self.PIECES))
        sep = st.sampled_from([" ", " ", "\t", "  ", "\u00a0", "\x0b"])
        end = st.sampled_from(["\n", "\n", "\n", " \n", "\n\n", "\r\n", "\r", "\x0c"])
        body = data.draw(st.lists(st.lists(token, max_size=3), max_size=6))
        m = sum(1 for ln in body if ln) + data.draw(st.sampled_from([0, 0, 0, 1, -1]))
        lines = [[str(data.draw(st.integers(0, 9))), str(m)]] + body
        _same_as_line_parser("".join(data.draw(sep).join(ln) + data.draw(end) for ln in lines))

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=40))
    def test_arbitrary_bytes_parse_alike(self, data):
        _same_as_line_parser(data)


class TestEdgeListFormat:
    def test_canonical_shape(self):
        text = format_edge_list(parse_graph("3 2\n2 1\n0 2\n"))
        assert text == "3 2\n0 2\n1 2\n"

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip(self, seed):
        g = gnp(17, 0.3, seed)
        assert parse_graph(format_edge_list(g)).edges == g.edges

    def test_trailing_newline(self):
        assert format_edge_list(complete(3)).endswith("\n")


def sample_report():
    return RunReport(
        graph="x.txt", n=5, m=10, degeneracy=4, triangles=10, algo="exact",
        params="exhaustive", seed=0, value=6, surplus_num=2,
        certificate=6.0, bound=6.0, ms=1.25,
    )


class TestRunReport:
    def test_json_round_trip(self):
        report = sample_report()
        assert RunReport(**json.loads(report.to_json())) == report

    def test_json_field_order_is_schema_order(self):
        keys = list(json.loads(sample_report().to_json()))
        assert keys == CSV_HEADER.split(",")

    def test_csv_row_matches_header(self):
        row = sample_report().to_csv_row()
        assert row.split(",")[0] == "x.txt"
        assert len(row.split(",")) == len(CSV_HEADER.split(","))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_ms(payload: str) -> str:
    return re.sub(r'"ms": [0-9.e+-]+', '"ms": 0', payload)


class TestCli:
    def test_exact_on_k5(self, capsys, tmp_path):
        p = tmp_path / "k5.txt"
        p.write_text(format_edge_list(complete(5)))
        code, out, _ = run_cli(capsys, "cut", "--algo", "exact", "--in", str(p))
        assert code == 0
        report = json.loads(out)
        assert report["value"] == 6 and report["surplus_num"] == 2

    def test_sdp_on_petersen(self, capsys, tmp_path):
        p = tmp_path / "pet.txt"
        p.write_text(format_edge_list(petersen()))
        code, out, _ = run_cli(
            capsys, "cut", "--algo", "sdp", "--epsilon", "auto",
            "--repeats", "32", "--seed", "1", "--in", str(p),
        )
        assert code == 0
        report = json.loads(out)
        assert report["value"] >= 8
        assert report["certificate"] >= report["bound"] - 1e-9

    def test_gen_pipe_cut(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "gen", "--model", "regular", "--n", "4", "--d", "3")
        assert code == 0
        p = tmp_path / "g.txt"
        p.write_text(out)
        code, out, _ = run_cli(capsys, "cut", "--algo", "exact", "--in", str(p))
        assert json.loads(out)["value"] == 4

    @pytest.mark.parametrize("algo", ["sdp", "composite", "kr", "chromatic", "tcut", "sampled"])
    def test_all_algorithms_run_and_are_deterministic(self, algo, capsys, tmp_path):
        g = gnp(12, 0.25, 5)
        from certcut.generators import make_cr_free

        g = make_cr_free(g, 3)  # triangle-free so kr/chromatic accept r=3
        p = tmp_path / "g.txt"
        p.write_text(format_edge_list(g))
        args = ["cut", "--algo", algo, "--in", str(p), "--seed", "3", "--repeats", "8"]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert strip_ms(out1) == strip_ms(out2)
        report = json.loads(out1)
        assert report["surplus_num"] == 2 * report["value"] - report["m"]

    def test_csv_output_header(self, capsys, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text(format_edge_list(complete(4)))
        code, out, _ = run_cli(capsys, "cut", "--algo", "exact", "--format", "csv", "--in", str(p))
        assert code == 0
        assert out.splitlines()[0] == CSV_HEADER

    def test_parse_error_exit_code(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2 1\n0 0\n")
        code, _, err = run_cli(capsys, "cut", "--algo", "exact", "--in", str(p))
        assert code == 2 and "self-loop" in err

    def test_precondition_exit_code(self, capsys, tmp_path):
        p = tmp_path / "k4.txt"
        p.write_text(format_edge_list(complete(4)))
        code, _, _ = run_cli(capsys, "cut", "--algo", "kr", "--r", "3", "--in", str(p))
        assert code == 3
        code, _, _ = run_cli(capsys, "cut", "--algo", "sdp", "--epsilon", "5", "--in", str(p))
        assert code == 3

    def test_budget_exit_code(self, capsys, tmp_path):
        p = tmp_path / "big.txt"
        p.write_text(format_edge_list(gnp(40, 0.1, 0)))
        code, _, _ = run_cli(capsys, "cut", "--algo", "exact", "--in", str(p))
        assert code == 4

    # one past the cap, so that a missing check costs seconds, not the machine
    @pytest.mark.parametrize("header", [f"{MAX_HEADER_VERTICES + 1} 0", f"p edge {MAX_HEADER_VERTICES + 1} 0"])
    def test_oversized_header_exit_code(self, capsys, tmp_path, header):
        p = tmp_path / "huge.txt"
        p.write_text(header + "\n")
        code, out, err = run_cli(capsys, "cut", "--algo", "sdp", "--in", str(p))
        assert code == 4 and out == "" and "above the cap" in err

    def test_gen_deterministic_bytes(self, capsys):
        args = ["gen", "--model", "gnp", "--n", "25", "--p", "0.2", "--seed", "9"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_gen_cr_free(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "gen", "--model", "regular", "--n", "20", "--d", "3",
            "--seed", "7", "--cr-free", "3",
        )
        assert code == 0
        from certcut.graphcore import count_triangles

        assert count_triangles(parse_graph(out)) == 0

    def test_bench_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--family", "regular", "--nlist", "12,16",
            "--dlist", "3", "--instances", "2", "--algo", "sdp", "--repeats", "4",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2

    def test_bench_deterministic(self, capsys):
        args = [
            "bench", "--family", "gnp", "--nlist", "14", "--dlist", "3,5",
            "--instances", "1", "--algo", "sdp", "--repeats", "4", "--seed", "2",
        ]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        drop_ms = lambda text: [",".join(line.split(",")[:-1]) for line in text.splitlines()]
        assert drop_ms(out1) == drop_ms(out2)

    def test_gen_remaining_models(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--model", "blowup", "--base-cycle", "5", "--k", "2")
        assert code == 0 and parse_graph(out).m == 20
        code, out, _ = run_cli(capsys, "gen", "--model", "disjoint-cliques", "--count", "4", "--size", "3")
        assert code == 0 and parse_graph(out).m == 12
        code, out, _ = run_cli(capsys, "gen", "--model", "bipartite", "--a", "2", "--b", "5")
        assert code == 0 and parse_graph(out).m == 10

    def test_gen_gnp_requires_p(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--model", "gnp", "--n", "10")
        assert code == 3 and "--p" in err

    def test_gen_max_restarts_flag(self, capsys):
        # d=5 pairing needs far more than the default 1000 restarts sometimes
        code, out, _ = run_cli(
            capsys, "gen", "--model", "regular", "--n", "60", "--d", "5",
            "--seed", "77803131892610477", "--max-restarts", "50000",
        )
        assert code == 0
        g = parse_graph(out)
        assert all(len(a) == 5 for a in g.rows())

    def test_verify_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "tcut-expectation")
        assert code == 0
        assert "tcut-expectation: PASS" in out

    def test_verify_tcut_expectation_honours_trials(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "tcut-expectation", "--trials", "5")
        assert code == 0 and out == "tcut-expectation: PASS (5 (graph, base, t) cases)\n"
        code, out, _ = run_cli(capsys, "verify", "--suite", "tcut-expectation")
        assert code == 0 and out == "tcut-expectation: PASS (123 (graph, base, t) cases)\n"

    def test_verify_all_output_is_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", "0")
        assert code == 0
        assert out.splitlines() == [
            "plan-dominance: PASS (1000 plans, worst margin 0.000e+00)",
            "triangle-sparse-constant: PASS (100 triangle-sparse graphs)",
            "decomposition: PASS (200 decompositions)",
            "coloring-cut: PASS (60 colorings)",
            "coloring-classes: PASS (60 clique-free graphs)",
            "tcut-expectation: PASS (123 (graph, base, t) cases)",
        ]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        code, _, _ = run_cli(capsys, "gen", "--model", "turan", "--n", "6", "--classes", "2", "--out", str(target))
        assert code == 0
        assert parse_graph(target.read_text()).m == 9


def run_process(argv, data=b""):
    """(exit code, stdout, stderr) of ``argv`` in a fresh interpreter that
    imports the same certcut package as this one."""
    import certcut

    env = dict(os.environ)
    package_root = str(Path(certcut.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], input=data, capture_output=True, env=env, check=False)
    return proc.returncode, proc.stdout, proc.stderr.decode()


class TestEntryPoint:
    """The ``[project.scripts]`` target, run as the installed ``certcut`` runs it."""

    @pytest.fixture(scope="class")
    def script(self):
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        module, func = re.search(r'^certcut = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
        return ["-c", f"import sys; from {module} import {func}; sys.exit({func}())"]

    def test_gen_piped_into_cut(self, script):
        code, edges, _ = run_process([*script, "gen", "--model", "regular", "--n", "20", "--d", "3", "--seed", "1"])
        assert code == 0 and edges.startswith(b"20 30\n")
        code, out, err = run_process([*script, "cut", "--algo", "sdp"], edges)
        report = json.loads(out)
        assert code == 0 and err == ""
        assert (report["graph"], report["n"], report["m"]) == ("<stdin>", 20, 30) and report["value"] > 15

    def test_verify_suite(self, script):
        code, out, _ = run_process([*script, "verify", "--suite", "tcut-expectation", "--trials", "5"])
        assert code == 0 and out == b"tcut-expectation: PASS (5 (graph, base, t) cases)\n"

    @pytest.mark.parametrize("argv, data, exit_code, prefix", [
        (("cut", "--algo", "sdp", "--in", "{absent}"), b"", 1, "error: "),
        (("cut", "--algo", "sdp", "--out", "{absent}/r.json"), b"2 1\n0 1\n", 1, "error: "),
        (("cut", "--algo", "sdp"), b"2 1\n0 \xff\n", 2, "parse error: line 2: input is not UTF-8"),
    ], ids=["missing_input", "missing_output_dir", "non_utf8_stdin"])
    def test_faults_leave_no_traceback(self, script, tmp_path, argv, data, exit_code, prefix):
        argv = [a.format(absent=tmp_path / "absent") for a in argv]
        code, out, err = run_process([*script, *argv], data)
        assert (code, out) == (exit_code, b"")
        assert err.startswith(prefix) and len(err.splitlines()) == 1 and "Traceback" not in err


class TestCliRefusals:
    """Bad parameters exit 3 (or 4 for a budget) with a message, never a traceback."""

    @pytest.fixture
    def petersen_file(self, tmp_path):
        p = tmp_path / "pet.txt"
        p.write_text(format_edge_list(petersen()))
        return str(p)

    @pytest.mark.parametrize("algo", ["sdp", "composite", "tcut", "sampled"])
    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_epsilon(self, capsys, petersen_file, algo, eps):
        code, out, err = run_cli(capsys, "cut", "--algo", algo, f"--epsilon={eps}", "--in", petersen_file)
        assert code == 3 and out == ""
        assert "finite" in err and "Traceback" not in err

    def test_infinite_epsilon_on_edgeless_graph(self, capsys, tmp_path):
        # the cap is infinite without edges, so only the finiteness check stops it
        p = tmp_path / "e.txt"
        p.write_text("4 0\n")
        code, _, _ = run_cli(capsys, "cut", "--algo", "sdp", "--epsilon", "inf", "--in", str(p))
        assert code == 3

    @pytest.mark.parametrize("args", [
        ("--algo", "tcut", "--t", "1"),
        ("--algo", "tcut", "--t", "-3"),
        ("--algo", "sampled", "--p", "0"),
        ("--algo", "sampled", "--p", "1.5"),
        ("--algo", "sampled", "--p", "nan"),
        ("--algo", "chromatic", "--r", "1"),
        ("--algo", "kr", "--r", "2"),
        ("--algo", "sdp", "--repeats", "0"),
        ("--algo", "sdp", "--repeats", "-5"),
        ("--algo", "tcut", "--repeats", "0"),
        ("--algo", "exact", "--max-vertices", "-1"),
        ("--algo", "tcut", "--t", "100000000000000000000"),
    ])
    def test_bad_parameter_exits_3(self, capsys, petersen_file, args):
        code, out, err = run_cli(capsys, "cut", *args, "--in", petersen_file)
        assert code == 3 and out == ""
        assert err.startswith("precondition violated:") and "Traceback" not in err

    def test_library_range_errors_are_both_kinds(self):
        # the CLI maps them to exit 3; library callers may still catch ValueError
        g = petersen()
        base = cut_value(g, [0] * g.n)
        calls = (
            lambda: max_t_cut(g, base, 1, make_rng(0)),
            lambda: kr_free_coloring(g, 1),
            lambda: kr_cut(g, 2),
            lambda: sampled_sdp_cut(g, 0.0),
        )
        for call in calls:
            with pytest.raises(InvalidParameter) as info:
                call()
            assert isinstance(info.value, PreconditionError)
            assert isinstance(info.value, ValueError)

    def test_bench_checks_parameters_too(self, capsys):
        code, _, _ = run_cli(
            capsys, "bench", "--family", "regular", "--nlist", "12", "--dlist", "3",
            "--algo", "sdp", "--repeats", "0",
        )
        assert code == 3

    @pytest.mark.parametrize("argv, needle", [
        (("gen", "--model", "gnp", "--n", "10", "--p", "0.5", "--cr-free", "2"), "cycle length"),
        (("gen", "--model", "gnp", "--n", "10", "--p", "0.5", "--cr-free", "1"), "cycle length"),
        (("gen", "--model", "gnp", "--n", "10", "--p", "0.5", "--cr-free", "-4"), "cycle length"),
        (("bench", "--family", "regular", "--nlist", "12", "--dlist", "3", "--cr-free", "2"), "cycle length"),
        (("bench", "--family", "regular", "--nlist", "10,x", "--dlist", "3"), "--nlist"),
        (("bench", "--family", "regular", "--nlist", "12", "--dlist", "3,1.5"), "--dlist"),
        (("verify", "--suite", "plan-dominance", "--trials", "0"), "--trials"),
        (("verify", "--suite", "decomposition", "--trials", "-1"), "--trials"),
        (("verify", "--suite", "tcut-expectation", "--trials", "0"), "--trials"),
        (("bench", "--family", "regular", "--nlist", "12", "--dlist", "3", "--instances", "0"), "--instances"),
        (("bench", "--family", "regular", "--nlist", "12", "--dlist", "3", "--instances", "-2"), "--instances"),
        (("gen", "--model", "bipartite", "--a", "-1", "--b", "3"), "part sizes"),
        (("gen", "--model", "bipartite", "--a", "-1", "--b", "3", "--p", "0.5"), "part sizes"),
        (("gen", "--model", "bipartite", "--a", "3", "--b", "-1"), "part sizes"),
        (("gen", "--model", "bipartite", "--a", "3", "--b", "-1", "--p", "0.5"), "part sizes"),
        (("bench", "--family", "regular", "--nlist", ",", "--dlist", "3"), "--nlist"),
        (("bench", "--family", "regular", "--nlist", "12", "--dlist", ""), "--dlist"),
        (("gen", "--model", "disjoint-cliques", "--count", "-2", "--size", "-3"), "must be >= 0"),
        (("gen", "--model", "disjoint-cliques", "--count", "-1", "--size", "3"), "must be >= 0"),
        (("gen", "--model", "turan", "--n", "-5"), "must be >= 0"),
        (("gen", "--model", "gnp", "--n", "-3", "--p", "0.5"), "must be >= 0"),
        (("gen", "--model", "bipartite", "--a", "2", "--b", "2", "--p", "1.5"), "p must lie in [0, 1]"),
        (("gen", "--model", "regular", "--n", "10", "--d", "3", "--max-restarts", "-1"), "max_restarts"),
        (("bench", "--family", "regular", "--nlist", "12", "--dlist", "3", "--max-restarts", "-1"), "max_restarts"),
    ])
    def test_bad_gen_bench_verify_input_exits_3(self, capsys, argv, needle):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("precondition violated:") and needle in err and "Traceback" not in err

    def test_max_vertices_zero_is_a_cap_of_zero(self, capsys, tmp_path):
        p = tmp_path / "k5.txt"
        p.write_text(format_edge_list(complete(5)))
        code, _, err = run_cli(capsys, "cut", "--algo", "exact", "--max-vertices", "0", "--in", str(p))
        assert code == 4 and "cap 0" in err
        code, out, _ = run_cli(capsys, "cut", "--algo", "exact", "--max-vertices", "5", "--in", str(p))
        assert code == 0 and json.loads(out)["value"] == 6

    def test_edge_parameters_still_run(self, capsys, petersen_file):
        for args in (("--algo", "tcut", "--t", "2"), ("--algo", "sampled", "--p", "1"),
                     ("--algo", "sdp", "--repeats", "1"), ("--algo", "tcut", "--t", str(2**63 - 1))):
            code, out, _ = run_cli(capsys, "cut", *args, "--in", petersen_file)
            assert code == 0 and json.loads(out)["value"] > 0


    @pytest.mark.parametrize("argv", [
        ("cut", "--algo", "sdp", "--in", "{absent}/g.txt"),
        ("cut", "--algo", "sdp", "--in", "{tmp}"),
        ("cut", "--algo", "sdp", "--in", "{graph}", "--out", "{absent}/r.json"),
        ("cut", "--algo", "sdp", "--in", "{graph}", "--format", "csv", "--out", "{tmp}"),
        ("gen", "--model", "turan", "--n", "4", "--out", "{absent}/g.txt"),
        ("bench", "--family", "regular", "--nlist", "12", "--dlist", "3", "--out", "{absent}/b.csv"),
    ], ids=["missing_input", "input_is_a_directory", "missing_output_dir", "output_is_a_directory",
            "gen_missing_output_dir", "bench_missing_output_dir"])
    def test_io_fault_exits_1(self, capsys, tmp_path, petersen_file, argv):
        paths = {"absent": tmp_path / "absent", "tmp": tmp_path, "graph": petersen_file}
        code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_non_utf8_input_exits_2(self, capsys, monkeypatch, tmp_path):
        data = b"3 2\n0 1\n1 \xe92\n"
        p = tmp_path / "latin1.txt"
        p.write_bytes(data)
        code, out, err = run_cli(capsys, "cut", "--algo", "sdp", "--in", str(p))
        assert (code, out) == (2, "") and err.startswith("parse error: line 3:")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        code, out, err = run_cli(capsys, "cut", "--algo", "sdp")
        assert (code, out) == (2, "") and err.startswith("parse error: line 3:")
        assert "Traceback" not in err


class TestPerGraphFacts:
    @pytest.mark.parametrize("algo", ["sdp", "composite", "tcut"])
    def test_make_report_computes_each_fact_once(self, monkeypatch, algo):
        calls = Counter()
        for name in ("degeneracy_order", "count_triangles"):
            def counted(g, _fn=getattr(graphcore, name), _name=name):
                calls[_name] += 1
                return _fn(g)
            monkeypatch.setattr(graphcore, name, counted)
        g = random_regular(100, 3, 1)
        make_report(g, "g", algo, 0, epsilon="auto", repeats=4, r=3, t=3, p=None, max_vertices=None)
        assert calls == {"degeneracy_order": 1, "count_triangles": 1}
        # triangle-poor, so composite's partition leaves the whole graph as remainder
        assert g.triangles * 8 < g.m
