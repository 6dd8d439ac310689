"""Golden corpus: results pinned across versions, not only within one.

``golden.json`` holds seeded instances, each built the way ``certcut gen``
builds it (``family`` on a ``GenSpec``, then ``make_cr_free`` when
``cr_free`` is set), and a list of entries that run one CLI algorithm on one
instance. An entry pins the cut value, the sha256 of the cut's labels
(``side`` or ``part``), ``repr`` of the certificate and the ``make_report``
JSON without its ``ms`` timing field. An entry that the program refuses pins
the exception class instead. The file is data; this test only reads it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from pathlib import Path

import pytest

from certcut._rng import derive_seed, make_rng
from certcut.chromatic import coloring_cut, kr_free_coloring, max_t_cut
from certcut.cli import _resolve_eps, make_report
from certcut.decompose import SubSolver, composite_cut, kr_cut, partition_triangle_sparse, sampled_sdp_cut
from certcut.embedding import sdp_cut
from certcut.errors import CertcutError
from certcut.generators import GenSpec, family, make_cr_free
from certcut.graphcore import degeneracy_order
from certcut.oracle import OracleBudget, max_cut_exact

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@functools.cache
def instance(name: str):
    spec = GOLDEN["instances"][name]
    g = family(GenSpec(spec["model"], dict(spec["params"]), spec["seed"]))
    if spec["cr_free"]:
        g = make_cr_free(g, spec["cr_free"])
    return g


def edges_digest(g) -> str:
    return sha256(json.dumps([g.n, g.edges]).encode())


def run_library(g, algo, seed, *, epsilon, repeats, r, t, p, max_vertices):
    """The library calls behind ``cli.run_cut_algorithm``, returning the cut
    (or t-partition) and the certificate object that the report omits."""
    eps = _resolve_eps(epsilon)
    if algo == "exact":
        budget = OracleBudget(max_vertices) if max_vertices is not None else None
        return max_cut_exact(g, budget), None
    if algo == "sdp":
        return sdp_cut(g, eps, repeats, seed)
    if algo == "composite":
        sub = SubSolver(lambda h: sdp_cut(h, None, repeats, derive_seed(seed, 9)), "sdp")
        return composite_cut(g, eps if eps is not None else auto_eps(g), sub, repeats, seed)
    if algo == "kr":
        return kr_cut(g, r, repeats, seed)
    if algo == "chromatic":
        return coloring_cut(g, kr_free_coloring(g, r))
    if algo == "tcut":
        base, _ = sdp_cut(g, eps, repeats, seed)
        return max_t_cut(g, base, t, make_rng(seed, 7), repeats)
    if algo == "sampled":
        return sampled_sdp_cut(g, p, eps, make_rng(seed, 8), repeats)
    raise AssertionError(f"unknown algorithm {algo!r}")


def auto_eps(g) -> float:
    """The eps that ``--epsilon auto`` selects: 1/sqrt(degeneracy), or 1."""
    d = degeneracy_order(g).degeneracy
    return 1.0 / math.sqrt(d) if d else 1.0


def observe(entry: dict) -> dict:
    """What the program does today on one entry, in the form golden.json keeps."""
    g = instance(entry["instance"])
    options = {**GOLDEN["defaults"], **entry["options"]}
    out = {key: entry[key] for key in ("instance", "algo", "seed", "options")}
    try:
        report = json.loads(
            make_report(g, entry["instance"], entry["algo"], entry["seed"], **options).to_json()
        )
    except CertcutError as exc:
        out["raises"] = type(exc).__name__
        return out
    del report["ms"]
    cut, cert = run_library(g, entry["algo"], entry["seed"], **options)
    labels = cut.side if hasattr(cut, "side") else cut.part
    out["value"] = cut.value
    out["labels_sha256"] = sha256(bytes(labels))
    out["certificate"] = repr(cert)
    out["report"] = report
    if entry["algo"] == "composite":
        eps = _resolve_eps(options["epsilon"]) or auto_eps(g)
        out["parts"] = len(partition_triangle_sparse(g, 8 * eps).parts)
    return out


def entry_id(entry: dict) -> str:
    extra = ",".join(f"{k}={v}" for k, v in sorted(entry["options"].items()))
    return f"{entry['instance']}/{entry['algo']}" + (f"[{extra}]" if extra else "")


@pytest.mark.parametrize("name", sorted(GOLDEN["instances"]))
def test_instance_edges_are_pinned(name):
    g = instance(name)
    spec = GOLDEN["instances"][name]
    assert (g.n, g.m, edges_digest(g)) == (spec["n"], spec["m"], spec["edges_sha256"])


@pytest.mark.parametrize("entry", GOLDEN["entries"], ids=entry_id)
def test_entry_matches_golden(entry):
    got = observe(entry)
    assert got == entry
    if "report" in got:
        # the labels hashed above are the cut the report describes
        assert got["report"]["value"] == got["value"]


def test_corpus_covers_every_algorithm_and_both_composite_shapes():
    algos = {e["algo"] for e in GOLDEN["entries"] if "report" in e}
    assert algos == {"exact", "sdp", "composite", "kr", "chromatic", "tcut", "sampled"}
    parts = [e["parts"] for e in GOLDEN["entries"] if e["algo"] == "composite" and "parts" in e]
    assert 0 in parts and any(parts)
    assert any(e["algo"] == "kr" and e["options"].get("r") == 4 and "report" in e
               for e in GOLDEN["entries"])
    assert len(GOLDEN["instances"]) >= 20
    assert all(spec["n"] <= 200 for spec in GOLDEN["instances"].values())
