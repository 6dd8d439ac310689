"""Command-line interface.

Subcommands: ``gen`` (instance factories, canonical edge-list output),
``cut`` (run one algorithm, emit a JSON or CSV report), ``bench`` (sweep a
family over sizes/degrees, emit surplus-vs-d CSV rows), ``verify`` (run the
randomized invariant suites).

Exit codes: 0 success, 2 parse error (non-UTF-8 input included),
3 precondition violation, 4 budget exceeded, 1 anything else (including
failed verify suites and files that cannot be read or written).
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from ._rng import derive_seed, make_rng
from .chromatic import coloring_cut, coloring_pipeline_floor, kr_free_coloring, max_t_cut
from .decompose import SAMPLE_P, composite_cut, kr_cut, sampled_sdp_cut
from .embedding import default_eps, sdp_cut, sdp_cuts
from .errors import BudgetExceeded, CertcutError, InvalidEpsilon, ParseError, PreconditionError
from .generators import MODELS, GenSpec, family, make_cr_free
from .graphcore import Cut, Graph, edwards_bound
from .harness import CSV_HEADER, RunReport, format_edge_list, parse_graph
from .oracle import OracleBudget, max_cut_exact
from .verify import SUITES, run_suite

ALGOS = ("exact", "sdp", "composite", "kr", "chromatic", "tcut", "sampled")

# the family parameters of bench's size n and degree d
_BENCH_PARAMS = {
    "regular": lambda n, d, args: {"n": n, "d": d, "max_restarts": args.max_restarts},
    "gnp": lambda n, d, args: {"n": n, "p": min(1.0, d / max(n - 1, 1))},
    "turan": lambda n, d, args: {"n": n, "classes": d},
}


def _read_input(path: str) -> bytes:
    """The raw input; ``parse_graph`` decodes it."""
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _resolve_eps(text: str, g: Graph) -> float:
    """The eps that ``--epsilon`` selects on ``g``; ``auto`` is ``default_eps(g)``."""
    if text == "auto":
        return default_eps(g)
    try:
        eps = float(text)
    except ValueError:
        raise PreconditionError(f"bad --epsilon value {text!r}") from None
    if not math.isfinite(eps):
        raise InvalidEpsilon(f"--epsilon must be finite, got {text!r}")
    return eps


def run_cut_algorithm(g: Graph, algo: str, *, seed: int, epsilon: str, repeats: int,
                      r: int, t: int, p: float | None, max_vertices: int | None):
    """Dispatch one algorithm; returns (cut, certificate, bound, params).

    The cut is a ``Cut``, or a ``TPartition`` for ``tcut``; the certificate
    is the algorithm's ``CutCertificate``, or None for ``exact``.
    """
    eps = _resolve_eps(epsilon, g)
    # the library's own range checks (t, p, r) raise InvalidParameter, exit 3
    if repeats < 1:
        raise PreconditionError(f"--repeats must be >= 1, got {repeats}")
    if max_vertices is not None and max_vertices < 0:
        raise PreconditionError(f"--max-vertices must be >= 0, got {max_vertices}")
    if algo == "exact":
        budget = OracleBudget(max_vertices) if max_vertices is not None else None
        return max_cut_exact(g, budget), None, edwards_bound(g.m), "exhaustive"
    if algo == "chromatic":
        col = kr_free_coloring(g, r)
        cut, cert = coloring_cut(g, col)
        return cut, cert, coloring_pipeline_floor(g.n, g.m, r), f"r={r};classes={col.classes}"
    if algo == "sdp":
        cut, cert = sdp_cut(g, eps, repeats, seed)
        params = f"eps={eps:.10g};repeats={repeats}"
    elif algo == "composite":
        cut, cert = composite_cut(g, eps, repeats=repeats, seed=seed)
        params = f"eps={eps:.10g};repeats={repeats}"
    elif algo == "kr":
        cut, cert = kr_cut(g, r, repeats, seed)
        params = f"r={r};repeats={repeats}"
    elif algo == "tcut":
        # the base is rounded as sdp_cut rounds it, and left uncertified
        labels, (value,), _ = sdp_cuts(g, [g.n], eps, repeats, [seed])
        base = Cut(tuple(labels.tolist()), value)
        cut, cert = max_t_cut(g, base, t, make_rng(seed, 7), repeats)
        params = f"t={t};base={base.value};repeats={repeats}"
    elif algo == "sampled":
        cut, cert = sampled_sdp_cut(g, p, eps, make_rng(seed, 8), repeats)
        params = f"p={p if p is not None else SAMPLE_P:.10g};repeats={repeats}"
    else:
        raise PreconditionError(f"unknown algorithm {algo!r}")
    return cut, cert, cert.bound_value, params


def make_report(g: Graph, label: str, algo: str, seed: int, **kwargs) -> RunReport:
    start = time.perf_counter()
    cut, cert, bound, params = run_cut_algorithm(g, algo, seed=seed, **kwargs)
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
        value=cut.value,
        surplus_num=2 * cut.value - g.m,
        certificate=float(cut.value if cert is None else cert.expected_value),
        bound=float(bound),
        ms=round(ms, 3),
    )


def _cmd_gen(args) -> int:
    if args.model == "gnp" and args.p is None:
        raise PreconditionError("model 'gnp' needs --p")
    # an unset --p leaves bipartite its default
    params = {name: getattr(args, name) for name in MODELS[args.model].params
              if getattr(args, name) is not None}
    g = family(GenSpec(args.model, params, args.seed))
    if args.cr_free:
        g = make_cr_free(g, args.cr_free)
    _write_output(args.out, format_edge_list(g))
    return 0


def _run_report(g: Graph, label: str, seed: int, args) -> RunReport:
    """``make_report`` for ``args.algo`` with the run options of ``args``."""
    return make_report(
        g, label, args.algo, seed,
        epsilon=args.epsilon, repeats=args.repeats, r=args.r, t=args.t,
        p=args.p, max_vertices=args.max_vertices,
    )


def _cmd_cut(args) -> int:
    g = parse_graph(_read_input(args.infile))
    label = args.infile if args.infile != "-" else "<stdin>"
    report = _run_report(g, label, args.seed, args)
    if args.format == "json":
        _write_output(args.out, report.to_json() + "\n")
    else:
        _write_output(args.out, CSV_HEADER + "\n" + report.to_csv_row() + "\n")
    return 0


def _parse_int_list(flag: str, text: str):
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        values = []
    if not values:
        raise PreconditionError(f"{flag} takes comma-separated integers, at least one, got {text!r}")
    return values


def _cmd_bench(args) -> int:
    if args.instances < 1:
        raise PreconditionError(f"--instances must be >= 1, got {args.instances}")
    nlist = _parse_int_list("--nlist", args.nlist)
    dlist = _parse_int_list("--dlist", args.dlist)
    rows = [CSV_HEADER]
    index = 0
    for n in nlist:
        for d in dlist:
            for inst in range(args.instances):
                inst_seed = derive_seed(args.seed, index)
                g = family(GenSpec(args.family, _BENCH_PARAMS[args.family](n, d, args), inst_seed))
                if args.cr_free:
                    g = make_cr_free(g, args.cr_free)
                label = f"{args.family}:n={n},d={d}#{inst}"
                rows.append(_run_report(g, label, inst_seed, args).to_csv_row())
                index += 1
    _write_output(args.out, "\n".join(rows) + "\n")
    return 0


def _cmd_verify(args) -> int:
    if args.trials is not None and args.trials < 1:
        raise PreconditionError(f"--trials must be >= 1, got {args.trials}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        ok, detail = run_suite(name, seed=args.seed, count=args.trials)
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
        failed |= not ok
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="certcut")
    sub = parser.add_subparsers(dest="command", required=True)

    # the options of one algorithm run, which cut and bench share
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--epsilon", default="auto")
    run.add_argument("--repeats", type=int, default=32)
    run.add_argument("--r", type=int, default=3)
    run.add_argument("--t", type=int, default=3)
    run.add_argument("--p", type=float, default=None)
    run.add_argument("--max-vertices", type=int, default=None)

    gen = sub.add_parser("gen", help="generate an instance (canonical edge list)")
    gen.add_argument("--model", required=True, choices=list(MODELS))
    gen.add_argument("--n", type=int, default=10)
    gen.add_argument("--d", type=int, default=3)
    gen.add_argument("--p", type=float, default=None)
    gen.add_argument("--a", type=int, default=3)
    gen.add_argument("--b", type=int, default=3)
    gen.add_argument("--classes", type=int, default=2)
    gen.add_argument("--base-cycle", dest="cycle", metavar="BASE_CYCLE", type=int, default=5)
    gen.add_argument("--k", type=int, default=2)
    gen.add_argument("--count", type=int, default=3)
    gen.add_argument("--size", type=int, default=3)
    gen.add_argument("--cr-free", type=int, default=0,
                     help="delete one edge per cycle of this exact length")
    gen.add_argument("--max-restarts", type=int, default=1000)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default="-")
    gen.set_defaults(func=_cmd_gen)

    cut = sub.add_parser("cut", parents=[run], help="run one cut algorithm and report")
    cut.add_argument("--in", dest="infile", default="-")
    cut.add_argument("--algo", required=True, choices=list(ALGOS))
    cut.add_argument("--format", choices=["json", "csv"], default="json")
    cut.add_argument("--out", default="-")
    cut.set_defaults(func=_cmd_cut)

    bench = sub.add_parser("bench", parents=[run], help="sweep a family, emit CSV rows")
    bench.add_argument("--family", required=True, choices=list(_BENCH_PARAMS))
    bench.add_argument("--nlist", required=True)
    bench.add_argument("--dlist", required=True)
    bench.add_argument("--instances", type=int, default=1)
    bench.add_argument("--algo", default="sdp", choices=list(ALGOS))
    bench.add_argument("--cr-free", type=int, default=0,
                       help="delete one edge per cycle of this exact length")
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
    except (CertcutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
