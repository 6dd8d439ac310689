"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. The randomized batteries are the ``certcut verify`` checks
run at this suite's own pinned seeds and counts; tolerances are pinned, not
configurable."""

import math
import re
import time

from certcut._rng import make_rng
from certcut.chromatic import (
    coloring_cut,
    kr_free_coloring,
    max_t_cut,
    t_cut_expected_value,
)
from certcut.cli import main as cli_main
from certcut.decompose import (
    composite_cut,
    greedy_half_cut,
    kr_cut,
    sampled_sdp_cut,
)
from certcut.embedding import back_neighbor_plan, build_vectors, exact_expected_cut, sdp_cut
from certcut.generators import (
    complete_bipartite,
    gnp,
    make_cr_free,
    random_bipartite,
    random_regular,
)
from certcut.graphcore import (
    count_triangles,
    cut_value,
    degeneracy_order,
    edwards_bound,
    find_clique,
    induced_subgraph,
)
from certcut.harness import format_edge_list
from certcut.oracle import max_cut_exact, max_t_cut_exact, monte_carlo_cut_mean
from certcut.verify import (
    check_coloring_classes,
    check_coloring_cut,
    check_decomposition,
    check_plan_dominance,
    check_triangle_sparse_constant,
    random_plan,
    tcut_expectation_oracle,
)

TOL = 1e-9


def report(name, detail=""):
    print(f"[acceptance] {name}: PASS {detail}")


def test_certificate_dominates_plan_bound():
    """1000 random (graph, plan) pairs with n <= 60, margin >= -1e-9, <10s."""
    start = time.perf_counter()
    ok, detail = check_plan_dominance(count=1000, seed=1001)
    elapsed = time.perf_counter() - start
    assert ok, detail
    assert elapsed < 10.0
    report("dominance over the plan bound", f"({detail}, {elapsed:.1f}s)")


def test_triangle_free_certificate_formula():
    """100 triangle-free graphs: certificate >= m/2 + eps*m/(4*pi), eps = 1/sqrt(d), <10s."""
    start = time.perf_counter()
    rng = make_rng(1002)
    checked = 0
    while checked < 100:
        if checked % 2 == 0:
            g = random_bipartite(int(rng.integers(3, 15)), int(rng.integers(3, 15)),
                                 0.4 + 0.5 * rng.random(), int(rng.integers(0, 2**62)))
        else:
            n = 2 * int(rng.integers(6, 25))
            g = make_cr_free(random_regular(n, 3, int(rng.integers(0, 2**62))), 3)
        if g.m == 0:
            continue
        assert count_triangles(g) == 0
        d = degeneracy_order(g).degeneracy
        eps = 1.0 / math.sqrt(d)
        _, cert = sdp_cut(g, eps, repeats=1, seed=checked)
        assert cert.expected_value >= g.m / 2 + eps * g.m / (4 * math.pi) - TOL
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("triangle-free certificate floor", f"(100 graphs, {elapsed:.1f}s)")


def test_triangle_sparse_sixty_constant():
    """100 graphs with verified t <= m/(8 eps): certificate >= (1/2 + eps/60) m."""
    ok, detail = check_triangle_sparse_constant(count=100, seed=1003)
    assert ok, detail
    report("triangle-sparse surplus constant 1/60", f"({detail})")


def test_partition_invariants():
    """200 random graphs (n <= 300) across the eps grid: all invariants hold."""
    ok, detail = check_decomposition(count=200, seed=1004)
    assert ok, detail
    report("triangle-sparse partition invariants", f"({detail} x eps grid)")


def test_coloring_pipeline():
    """100 clique-free graphs (r in {3,4}): proper coloring, class bound,
    and the pipeline certificate floor. Runtime < 30s."""
    start = time.perf_counter()
    for check in (check_coloring_classes, check_coloring_cut):
        ok, detail = check(count=100, seed=1005)
        assert ok, detail
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report("coloring pipeline bounds", f"(100 graphs, {elapsed:.1f}s)")


def _clique_number(g):
    w = 1 if g.n else 0
    while w < g.n and find_clique(g, w + 1) is not None:
        w += 1
    return w


def test_oracle_consistency(small_graphs):
    """Every algorithm on every corpus graph with n <= 18: values within the
    exhaustive optimum, derandomized values meet certificates exactly, and
    the optimum dominates the Edwards bound."""
    corpus = {name: g for name, g in small_graphs.items() if g.n <= 18}
    assert len(corpus) >= 15
    for name, g in corpus.items():
        best = max_cut_exact(g).value
        assert best >= edwards_bound(g.m) - TOL

        runs = {}
        runs["sdp"] = sdp_cut(g, repeats=8, seed=1)
        d = degeneracy_order(g).degeneracy
        eps = 0.5 / math.sqrt(d) if d else 0.5
        sub = lambda h, parts: [sdp_cut(induced_subgraph(h, p)[0], None, 4, 2)[0] for p in parts]  # noqa: E731
        runs["composite"] = composite_cut(g, eps, sub, repeats=8, seed=1)
        runs["sampled"] = sampled_sdp_cut(g, p=0.5, rng=make_rng(3), repeats=8)
        r = max(_clique_number(g) + 1, 3)
        runs["kr"] = kr_cut(g, r, repeats=8, seed=1)
        col = kr_free_coloring(g, r)
        runs["chromatic"] = coloring_cut(g, col)
        runs["greedy"] = greedy_half_cut(g)

        for algo, (cut, cert) in runs.items():
            assert cut.value <= best, f"{name}/{algo} beat the oracle"
            assert cert.expected_value <= best + TOL, f"{name}/{algo} certificate above optimum"
        # derandomized paths meet their certificates with zero tolerance
        for algo in ("chromatic", "greedy"):
            if algo in runs:
                cut, cert = runs[algo]
                assert cut.value >= cert.expected_value

        if g.n <= 10 and g.m:
            base, _ = runs["sdp"]
            part, tcert = max_t_cut(g, base, 3, make_rng(4), repeats=8)
            exact_t = max_t_cut_exact(g, 3).value
            assert part.value <= exact_t
            assert tcert.expected_value <= exact_t + TOL
    report("oracle consistency", f"({len(corpus)} graphs, all algorithms)")


def test_tcut_certificate_exact(small_graphs):
    """Closed-form t-cut certificate equals the exhaustive expectation on all
    corpus graphs with n <= 8 and t in {2,3,4}; derived surplus identities
    hold against the oracle values."""
    corpus = [g for g in small_graphs.values() if 1 <= g.n <= 8]
    assert len(corpus) >= 8
    rng = make_rng(1007)
    cases = 0
    for g in corpus:
        sides = {tuple([0] * g.n), tuple(v % 2 for v in range(g.n))}
        sides.add(tuple(int(b) for b in rng.integers(0, 2, size=g.n)))
        for side in sorted(sides):
            base = cut_value(g, side)
            w = base.value - g.m / 2
            for t in (2, 3, 4):
                closed = t_cut_expected_value(g.m, base.value, t)
                exact = float(tcut_expectation_oracle(g, base.side, t))
                assert abs(closed - exact) <= TOL
                surplus = closed - (t - 1) / t * g.m
                expected_surplus = 2 * w / t if t % 2 == 0 else 2 * (t - 1) * w / (t * t)
                assert abs(surplus - expected_surplus) <= TOL
                if w >= 0:
                    assert closed >= (t - 1) / t * g.m - TOL
                cases += 1
    report("t-cut expectation identities", f"({cases} cases)")


def test_monte_carlo_rounding_consistency():
    """20 embeddings: empirical mean within 4 standard errors at 1e4 trials."""
    rng = make_rng(1008)
    for k in range(20):
        n = int(rng.integers(4, 30))
        g = gnp(n, min(1.0, 4.0 / n), int(rng.integers(0, 2**62)))
        if g.m < 2:
            g = complete_bipartite(3, 3)
        if k % 2 == 0:
            d = degeneracy_order(g).degeneracy
            plan = back_neighbor_plan(g, 1.0 / math.sqrt(d)) if d else random_plan(g, rng)
        else:
            plan = random_plan(g, rng)
        emb = build_vectors(g, plan)
        exact = exact_expected_cut(emb).expected_value
        mean, stderr = monte_carlo_cut_mean(emb, 10_000, make_rng(1008, k))
        assert abs(mean - exact) <= 4 * stderr + 1e-12
    report("Monte-Carlo vs closed form", "(20 embeddings, 1e4 trials each)")


def test_sparse_regular_surplus_trend():
    """3-regular graphs made 5-cycle-free at n in {100, 200, 400}: measured
    surplus/m must not grow with n (20% noise allowance). A sanity trend
    check on generated families, not a guarantee."""
    ratios = []
    for n in (100, 200, 400):
        g = make_cr_free(random_regular(n, 3, seed=1009 + n), 5)
        sdp_val = sdp_cut(g, repeats=16, seed=5)[0].value
        greedy_val = greedy_half_cut(g)[0].value
        best = max(sdp_val, greedy_val)
        ratio = (best - g.m / 2) / g.m
        ratios.append(ratio)
        print(f"[acceptance]   n={n}: m={g.m}, best cut {best}, surplus/m {ratio:.4f}")
    for prev, nxt in zip(ratios, ratios[1:]):
        assert nxt <= prev * 1.2 + 1e-12
    report("surplus/m trend on sparse regular family", f"(ratios {['%.4f' % r for r in ratios]})")


def test_cli_determinism(capsys, tmp_path):
    """Fixed seeds give byte-identical CLI reports (wall time excluded)."""

    def run(argv):
        code = cli_main(argv)
        out = capsys.readouterr().out
        assert code == 0
        out = re.sub(r'"ms": [0-9.e+-]+', '"ms": 0', out)
        return [",".join(line.split(",")[:-1]) if "," in line and not line.startswith("{") else line
                for line in out.splitlines()]

    graph_file = tmp_path / "g.txt"
    graph_file.write_text(format_edge_list(make_cr_free(gnp(14, 0.3, 11), 3)))
    commands = [
        ["gen", "--model", "regular", "--n", "30", "--d", "3", "--seed", "4"],
        ["cut", "--algo", "sdp", "--in", str(graph_file), "--seed", "9", "--repeats", "16"],
        ["cut", "--algo", "composite", "--in", str(graph_file), "--seed", "9", "--repeats", "8"],
        ["cut", "--algo", "tcut", "--t", "4", "--in", str(graph_file), "--seed", "9"],
        ["cut", "--algo", "kr", "--r", "3", "--in", str(graph_file), "--seed", "9", "--format", "csv"],
        ["bench", "--family", "regular", "--nlist", "16,20", "--dlist", "3",
         "--instances", "2", "--algo", "sdp", "--repeats", "4", "--seed", "3"],
    ]
    for argv in commands:
        assert run(argv) == run(argv), f"non-deterministic output for {argv}"

    # also byte-identical across separate processes, which import the same
    # certcut package as this one
    import os
    import subprocess
    import sys
    from pathlib import Path

    import certcut

    package_root = str(Path(certcut.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    argv = ["cut", "--algo", "sdp", "--in", str(graph_file), "--seed", "9"]
    outs = [
        subprocess.run(
            [sys.executable, "-m", "certcut.cli", *argv],
            capture_output=True, text=True, check=True, env=env,
        ).stdout
        for _ in range(2)
    ]
    strip = lambda s: re.sub(r'"ms": [0-9.e+-]+', '"ms": 0', s)
    assert strip(outs[0]) == strip(outs[1])
    report("CLI determinism", f"({len(commands)} commands in-process + subprocess, two runs each)")
