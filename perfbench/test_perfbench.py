"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SMALL_TEXT, SMALL_M = inputs.edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)])


@pytest.fixture(scope="module")
def program():
    return run.Program()


# ---------------------------------------------------------------- inputs


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_inputs_are_byte_deterministic(name):
    build = inputs.WORKLOADS[name]
    first, again, other = build(11), build(11), build(12)
    assert first == again
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()
    assert [q.label for q in first.requests] == [q.label for q in other.requests]


def test_builders_make_simple_graphs_of_the_requested_shape():
    rng = inputs.random.Random(5)
    edges = inputs.regular(200, 3, rng)
    degree = [0] * 200
    for u, v in edges:
        assert u < v
        degree[u] += 1
        degree[v] += 1
    assert len(set(edges)) == len(edges) == 300 and set(degree) == {3}
    for edges in (inputs.gnp(300, 0.05, rng), inputs.tripartite(60, 0.5, rng)):
        assert all(0 <= u < v < 300 for u, v in edges)
        assert len(set(edges)) == len(edges)
    assert all(u % 3 != v % 3 for u, v in inputs.tripartite(60, 0.5, rng))
    text, m = inputs.edge_list(4, [(3, 1), (0, 2)])
    assert (text, m) == ("4 2\n0 2\n1 3\n", 2)


# ---------------------------------------------------------------- checks


def _cut_request(algo="sdp"):
    return inputs.CutRequest("g/" + algo, SMALL_TEXT, 6, SMALL_M, algo, 5)


def _report(**changes):
    rep = {"graph": "g", "n": 6, "m": SMALL_M, "degeneracy": 2, "triangles": 0, "algo": "sdp",
           "params": "", "seed": 5, "value": 6, "surplus_num": 12 - SMALL_M,
           "certificate": 4.5, "bound": 4.2, "ms": 0.1}
    rep.update(changes)
    if "value" in changes and "surplus_num" not in changes:
        rep["surplus_num"] = 2 * rep["value"] - rep["m"]
    return json.dumps(rep)


def test_check_cut_accepts_a_sound_report():
    for algo in ("exact", "sdp", "composite", "kr", "chromatic", "tcut", "sampled"):
        assert checks.check_cut(_cut_request(algo), _report(algo=algo)) is None


@pytest.mark.parametrize("algo, doctored", [
    ("sdp", "not json"),
    ("sdp", "[1, 2]"),
    ("sdp", _report(certificate=float("nan"))),
    ("sdp", _report(bound=float("inf"))),
    ("sdp", _report().replace('"bound": 4.2', '"bound": 1e999')),
    ("sdp", _report().replace('"bound": 4.2, ', "")),
    ("sdp", _report(m=SMALL_M + 1)),
    ("sdp", _report(n=7)),
    ("sdp", _report(seed=6)),
    ("sdp", _report(surplus_num=0)),
    ("sdp", _report(value=SMALL_M + 1)),
    ("sdp", _report(value=-1)),
    ("sdp", _report(value=6.0)),
    ("sdp", _report(certificate=4.2 - 2e-9)),
    ("exact", _report(algo="exact", value=4)),
    ("chromatic", _report(algo="chromatic", value=4, certificate=4.0000001)),
    ("composite", _report(algo="composite", value=3)),
    ("kr", _report(algo="kr", value=3)),
])
def test_check_cut_rejects_doctored_reports(algo, doctored):
    assert checks.check_cut(_cut_request(algo), doctored) is not None


def _gen_request(model="regular", cr_free=0, n=6):
    params = (("d", 2), ("max_restarts", 1000), ("n", n)) if model == "regular" else (("n", n), ("p", 0.5))
    return inputs.GenRequest("gen", model, params, 1, cr_free)


HEXAGON = "6 6\n0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n"


def test_check_gen_accepts_a_sound_edge_list():
    assert checks.check_gen(_gen_request(), HEXAGON) is None
    assert checks.check_gen(_gen_request(cr_free=4), HEXAGON) is None
    assert checks.check_gen(_gen_request("gnp", cr_free=3), "6 1\n2 4\n") is None


@pytest.mark.parametrize("request_args, doctored", [
    ({}, HEXAGON.rstrip("\n")),
    ({}, HEXAGON.replace("0 5\n", "0 x5\n")),
    ({}, HEXAGON.replace("6 6", "6 7")),
    ({}, HEXAGON.replace("0 1\n0 5\n", "0 5\n0 1\n")),
    ({}, HEXAGON.replace("6 6", "6 7") + "4 5\n"),
    ({}, HEXAGON.replace("0 5", "5 0")),
    ({}, HEXAGON.replace("0 5", "0 6")),
    ({}, HEXAGON.replace("6 6", "7 6")),
    ({}, HEXAGON.replace("6 6\n0 1\n", "6 7\n0 1\n0 3\n")),
    ({"cr_free": 6}, HEXAGON),
    ({"model": "gnp", "cr_free": 3}, "6 3\n0 1\n0 2\n1 2\n"),
    ({"model": "gnp", "cr_free": 5, "n": 5}, "5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n"),
])
def test_check_gen_rejects_doctored_edge_lists(request_args, doctored):
    assert checks.check_gen(_gen_request(**request_args), doctored) is not None


def test_refusals_map_to_the_cli_exit_codes(program):
    for req in inputs.small_batch(3).requests:
        if req.expect != inputs.OK:
            code, _ = program.call(req)
            assert code == req.expect, req.label


def test_a_wrong_exit_code_is_a_failure():
    req = _cut_request()
    assert run.evaluate(req, inputs.PRECONDITION, "refused") is not None
    assert run.evaluate(req, 1, "Traceback\nValueError: boom") is not None
    refusal = inputs.CutRequest("bad", "x", 1, 0, "sdp", 0, expect=inputs.PARSE)
    assert run.evaluate(refusal, inputs.PARSE, "line 1: expected header") is None


# ---------------------------------------------------------------- tracing


def _bindings():
    """Every object a certcut module or traced class binds, by identity."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "certcut" or modname.startswith("certcut."):
            for attr, value in vars(mod).items():
                out[(modname, attr)] = id(value)
                if isinstance(value, type) and value.__module__ == modname:
                    for cattr, cvalue in vars(value).items():
                        out[(modname, attr, cattr)] = id(cvalue)
    return out


def test_traced_run_restores_every_wrapped_function(program):
    from certcut import embedding, graphcore

    before = _bindings()
    original = graphcore.cut_value
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert embedding.cut_value is not original
            assert graphcore.cut_value is not original
            assert _bindings() != before
            for algo in ("sdp", "composite", "chromatic", "exact"):
                assert program.call(_cut_request(algo))[0] == inputs.OK
            assert program.call(_gen_request(cr_free=3))[0] == inputs.OK
            raise RuntimeError("the tracer must restore on the way out")
    assert _bindings() == before
    assert embedding.cut_value is original
    assert tracer.spans
    calls = {name: row[0] for name, row in tracer.summarize().items()}
    assert set(calls) == set(tracing.TRACED)
    for name in ("harness.parse_graph", "cli.make_report", "harness.report", "graphcore.from_edges",
                 "embedding.hyperplane_round", "decompose.composite_cut", "oracle.max_cut_exact",
                 "chromatic.coloring_cut", "generators.random_regular", "generators.make_cr_free"):
        assert calls[name] > 0, name


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    a, b, c = (tracer.names.index(n) for n in
               ("cli.make_report", "embedding.sdp_cut", "graphcore.cut_value"))
    tracer.spans[:] = [[a, 0.0, 10.0, -1, 0], [b, 1.0, 4.0, 0, 0], [c, 2.0, 3.0, 1, 0],
                       [c, 5.0, 7.0, 0, 0], [a, 20.0, 21.0, -1, 1]]
    rows = tracer.summarize()
    assert rows["cli.make_report"] == [2, 10.0 - 3.0 - 2.0 + 1.0]
    assert rows["embedding.sdp_cut"] == [1, 2.0]
    assert rows["graphcore.cut_value"] == [2, 3.0]
    later = tracer.summarize(start=4)
    assert later["cli.make_report"] == [1, 1.0] and later["graphcore.cut_value"] == [0, 0.0]


# ---------------------------------------------------------------- contract


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == inputs.WORKLOADS[w["name"]](0).why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_percentile_leaves_the_stated_samples_beyond():
    values = list(range(1, 41))
    assert run.percentile(values, 75.0) == (30, 10)
    assert run.percentile(values, 50.0) == (20, 20)
