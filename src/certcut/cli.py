"""Command-line interface.

Subcommands: ``gen`` (instance factories, canonical edge-list output),
``cut`` (run one algorithm, emit a JSON or CSV report), ``bench`` (sweep a
family over sizes/degrees, emit surplus-vs-d CSV rows), ``verify`` (run the
randomized invariant suites).

Exit codes: 0 success, 2 parse error, 3 precondition violation,
4 budget exceeded, 1 anything else (including failed verify suites).
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from ._rng import derive_seed, make_rng
from .chromatic import coloring_cut, kr_free_coloring, max_t_cut
from .decompose import composite_cut, kr_cut, sampled_sdp_cut, SubSolver
from .embedding import eps_cap, sdp_cut
from .errors import BudgetExceeded, CertcutError, InvalidEpsilon, ParseError, PreconditionError
from .generators import (
    GenSpec,
    family,
    make_cr_free,
)
from .graphcore import Graph, edwards_bound
from .harness import CSV_HEADER, RunReport, format_edge_list, parse_graph
from .oracle import OracleBudget, max_cut_exact
from .verify import SUITES, run_suite

ALGOS = ("exact", "sdp", "composite", "kr", "chromatic", "tcut", "sampled")


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _resolve_eps(text: str) -> float | None:
    if text == "auto":
        return None
    try:
        eps = float(text)
    except ValueError:
        raise PreconditionError(f"bad --epsilon value {text!r}") from None
    if not math.isfinite(eps):
        raise InvalidEpsilon(f"--epsilon must be finite, got {text!r}")
    return eps


def run_cut_algorithm(g: Graph, algo: str, *, seed: int, epsilon: str, repeats: int,
                      r: int, t: int, p: float | None, max_vertices: int | None):
    """Dispatch one algorithm; returns (value, certificate, bound, params)."""
    eps = _resolve_eps(epsilon)
    # the library's own range checks (t, p, r) raise InvalidParameter, exit 3
    if repeats < 1:
        raise PreconditionError(f"--repeats must be >= 1, got {repeats}")
    if max_vertices is not None and max_vertices < 0:
        raise PreconditionError(f"--max-vertices must be >= 0, got {max_vertices}")
    if eps is None:
        eps = min(1.0, eps_cap(g))
    if algo == "exact":
        budget = OracleBudget(max_vertices) if max_vertices is not None else None
        cut = max_cut_exact(g, budget)
        return cut.value, float(cut.value), edwards_bound(g.m), "exhaustive"
    if algo == "sdp":
        cut, cert = sdp_cut(g, eps, repeats, seed)
        return cut.value, cert.expected_value, cert.bound_value, f"eps={eps:.10g};repeats={repeats}"
    if algo == "composite":
        sub = SubSolver(lambda h: sdp_cut(h, None, repeats, derive_seed(seed, 9)), "sdp")
        cut, cert = composite_cut(g, eps, sub, repeats, seed)
        return cut.value, cert.expected_value, cert.bound_value, f"eps={eps:.10g};repeats={repeats}"
    if algo == "kr":
        cut, cert = kr_cut(g, r, repeats, seed)
        return cut.value, cert.expected_value, cert.bound_value, f"r={r};repeats={repeats}"
    if algo == "chromatic":
        col = kr_free_coloring(g, r)
        cut, cert = coloring_cut(g, col)
        bound = (0.5 + 1.0 / (8.0 * g.n ** ((r - 2) / (r - 1)))) * g.m if g.n else 0.0
        return cut.value, cert.expected_value, bound, f"r={r};classes={col.classes}"
    if algo == "tcut":
        base, _ = sdp_cut(g, eps, repeats, seed)
        part, cert = max_t_cut(g, base, t, make_rng(seed, 7), repeats)
        return part.value, cert.expected_value, cert.bound_value, f"t={t};base={base.value};repeats={repeats}"
    if algo == "sampled":
        cut, cert = sampled_sdp_cut(g, p, eps, make_rng(seed, 8), repeats)
        used_p = p if p is not None else 0.1
        return cut.value, cert.expected_value, cert.bound_value, f"p={used_p:.10g};repeats={repeats}"
    raise PreconditionError(f"unknown algorithm {algo!r}")


def make_report(g: Graph, label: str, algo: str, seed: int, **kwargs) -> RunReport:
    start = time.perf_counter()
    value, cert, bound, params = run_cut_algorithm(g, algo, seed=seed, **kwargs)
    ms = (time.perf_counter() - start) * 1000.0
    return RunReport(
        graph=label,
        n=g.n,
        m=g.m,
        degeneracy=g.degeneracy_order.degeneracy,
        triangles=g.triangles,
        algo=algo,
        params=params,
        seed=seed,
        value=value,
        surplus_num=2 * value - g.m,
        certificate=float(cert),
        bound=float(bound if bound is not None else g.m / 2),
        ms=round(ms, 3),
    )


def _cmd_gen(args) -> int:
    params = {}
    if args.model == "regular":
        params = {"n": args.n, "d": args.d, "max_restarts": args.max_restarts}
    elif args.model == "gnp":
        if args.p is None:
            raise PreconditionError("model 'gnp' needs --p")
        params = {"n": args.n, "p": args.p}
    elif args.model == "bipartite":
        params = {"a": args.a, "b": args.b, "p": args.p if args.p is not None else 1.0}
    elif args.model == "turan":
        params = {"n": args.n, "classes": args.classes}
    elif args.model == "blowup":
        params = {"cycle": args.base_cycle, "k": args.k}
    elif args.model == "disjoint-cliques":
        params = {"count": args.count, "size": args.size}
    g = family(GenSpec(args.model, params, args.seed))
    if args.cr_free:
        g = make_cr_free(g, args.cr_free)
    _write_output(args.out, format_edge_list(g))
    return 0


def _cmd_cut(args) -> int:
    g = parse_graph(_read_input(args.infile))
    label = args.infile if args.infile != "-" else "<stdin>"
    report = make_report(
        g, label, args.algo, args.seed,
        epsilon=args.epsilon, repeats=args.repeats, r=args.r, t=args.t,
        p=args.p, max_vertices=args.max_vertices,
    )
    if args.format == "json":
        _write_output(args.out, report.to_json() + "\n")
    else:
        _write_output(args.out, CSV_HEADER + "\n" + report.to_csv_row() + "\n")
    return 0


def _parse_int_list(text: str):
    return [int(x) for x in text.split(",") if x.strip()]


def _cmd_bench(args) -> int:
    rows = [CSV_HEADER]
    index = 0
    for n in _parse_int_list(args.nlist):
        for d in _parse_int_list(args.dlist):
            for inst in range(args.instances):
                inst_seed = derive_seed(args.seed, index)
                if args.family == "regular":
                    spec = GenSpec(
                        "regular",
                        {"n": n, "d": d, "max_restarts": args.max_restarts},
                        inst_seed,
                    )
                elif args.family == "gnp":
                    spec = GenSpec("gnp", {"n": n, "p": min(1.0, d / max(n - 1, 1))}, inst_seed)
                elif args.family == "turan":
                    spec = GenSpec("turan", {"n": n, "classes": d}, inst_seed)
                else:
                    raise PreconditionError(f"unknown family {args.family!r}")
                g = family(spec)
                if args.cr_free:
                    g = make_cr_free(g, args.cr_free)
                label = f"{args.family}:n={n},d={d}#{inst}"
                report = make_report(
                    g, label, args.algo, inst_seed,
                    epsilon=args.epsilon, repeats=args.repeats, r=args.r,
                    t=args.t, p=args.p, max_vertices=args.max_vertices,
                )
                rows.append(report.to_csv_row())
                index += 1
    _write_output(args.out, "\n".join(rows) + "\n")
    return 0


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        ok, detail = run_suite(name, seed=args.seed, trials=args.trials)
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
        failed |= not ok
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="certcut")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance (canonical edge list)")
    gen.add_argument("--model", required=True,
                     choices=["regular", "gnp", "bipartite", "turan", "blowup", "disjoint-cliques"])
    gen.add_argument("--n", type=int, default=10)
    gen.add_argument("--d", type=int, default=3)
    gen.add_argument("--p", type=float, default=None)
    gen.add_argument("--a", type=int, default=3)
    gen.add_argument("--b", type=int, default=3)
    gen.add_argument("--classes", type=int, default=2)
    gen.add_argument("--base-cycle", type=int, default=5)
    gen.add_argument("--k", type=int, default=2)
    gen.add_argument("--count", type=int, default=3)
    gen.add_argument("--size", type=int, default=3)
    gen.add_argument("--cr-free", type=int, default=0,
                     help="delete one edge per cycle of this exact length")
    gen.add_argument("--max-restarts", type=int, default=1000)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default="-")
    gen.set_defaults(func=_cmd_gen)

    cut = sub.add_parser("cut", help="run one cut algorithm and report")
    cut.add_argument("--in", dest="infile", default="-")
    cut.add_argument("--algo", required=True, choices=list(ALGOS))
    cut.add_argument("--seed", type=int, default=0)
    cut.add_argument("--epsilon", default="auto")
    cut.add_argument("--repeats", type=int, default=32)
    cut.add_argument("--r", type=int, default=3)
    cut.add_argument("--t", type=int, default=3)
    cut.add_argument("--p", type=float, default=None)
    cut.add_argument("--max-vertices", type=int, default=None)
    cut.add_argument("--format", choices=["json", "csv"], default="json")
    cut.add_argument("--out", default="-")
    cut.set_defaults(func=_cmd_cut)

    bench = sub.add_parser("bench", help="sweep a family, emit CSV rows")
    bench.add_argument("--family", required=True, choices=["regular", "gnp", "turan"])
    bench.add_argument("--nlist", required=True)
    bench.add_argument("--dlist", required=True)
    bench.add_argument("--instances", type=int, default=1)
    bench.add_argument("--algo", default="sdp", choices=list(ALGOS))
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--epsilon", default="auto")
    bench.add_argument("--repeats", type=int, default=32)
    bench.add_argument("--r", type=int, default=3)
    bench.add_argument("--t", type=int, default=3)
    bench.add_argument("--p", type=float, default=None)
    bench.add_argument("--max-vertices", type=int, default=None)
    bench.add_argument("--cr-free", type=int, default=0)
    bench.add_argument("--max-restarts", type=int, default=1000)
    bench.add_argument("--out", default="-")
    bench.set_defaults(func=_cmd_bench)

    verify = sub.add_parser("verify", help="run invariant suites")
    verify.add_argument("--suite", default="all", choices=["all"] + list(SUITES))
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--trials", type=int, default=None)
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except CertcutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
