import json
import re
from collections import Counter

import pytest

from certcut import graphcore
from certcut._rng import make_rng
from certcut.chromatic import kr_free_coloring, max_t_cut
from certcut.cli import main, make_report
from certcut.decompose import kr_cut, sampled_sdp_cut
from certcut.errors import (
    DuplicateEdge,
    InvalidParameter,
    ParseError,
    PreconditionError,
    SelfLoop,
    VertexOutOfRange,
)
from certcut.graphcore import cut_value
from certcut.generators import complete, gnp, petersen, random_regular
from certcut.harness import CSV_HEADER, MAX_HEADER_VERTICES, RunReport, format_edge_list, parse_graph


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

    def test_bad_header(self):
        with pytest.raises(ParseError) as err:
            parse_graph("two one\n")
        assert err.value.line == 1

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_graph("3 2\n0 1\n")

    def test_bytes_accepted(self):
        assert parse_graph(b"2 1\n0 1\n").m == 1

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_graph("")


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
        assert RunReport.from_json(report.to_json()) == report

    def test_json_field_order_is_schema_order(self):
        keys = list(json.loads(sample_report().to_json()))
        assert keys == CSV_HEADER.split(",")

    def test_csv_row_matches_header(self):
        row = sample_report().to_csv_row()
        assert row.split(",")[0] == "x.txt"
        assert len(row.split(",")) == len(CSV_HEADER.split(","))

    def test_from_json_rejects_alien_fields(self):
        with pytest.raises(ParseError):
            RunReport.from_json('{"graph": "x"}')


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
        assert all(g.degree(v) == 5 for v in range(60))

    def test_verify_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "tcut-expectation")
        assert code == 0
        assert "tcut-expectation: PASS" in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        code, _, _ = run_cli(capsys, "gen", "--model", "turan", "--n", "6", "--classes", "2", "--out", str(target))
        assert code == 0
        assert parse_graph(target.read_text()).m == 9


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

    def test_max_vertices_zero_is_a_cap_of_zero(self, capsys, tmp_path):
        p = tmp_path / "k5.txt"
        p.write_text(format_edge_list(complete(5)))
        code, _, err = run_cli(capsys, "cut", "--algo", "exact", "--max-vertices", "0", "--in", str(p))
        assert code == 4 and "cap 0" in err
        code, out, _ = run_cli(capsys, "cut", "--algo", "exact", "--max-vertices", "5", "--in", str(p))
        assert code == 0 and json.loads(out)["value"] == 6

    def test_edge_parameters_still_run(self, capsys, petersen_file):
        for args in (("--algo", "tcut", "--t", "2"), ("--algo", "sampled", "--p", "1"),
                     ("--algo", "sdp", "--repeats", "1")):
            code, out, _ = run_cli(capsys, "cut", *args, "--in", petersen_file)
            assert code == 0 and json.loads(out)["value"] > 0


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
