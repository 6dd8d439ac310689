"""certcut benchmark runner.

    python3 perfbench/run.py --workload sparse-sdp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One closed loop: a single client in this process, one thread, each request
issued after the previous one returns. A cut request is ``certcut cut``
in-process (``harness.parse_graph`` -> ``cli.make_report`` ->
``RunReport.to_json``); a gen request is ``certcut gen``
(``generators.family``, ``make_cr_free``, ``harness.format_edge_list``).
The workload's request list is one pass. A first, untimed pass warms the
allocator and caches; timed passes then repeat until ``--seconds`` (counted
from the warm-up) would be exceeded, at least three times (two untraced and
traced pairs with ``--trace 1``). Latencies are scaled by a probe taken
around each request; see ``PROBE_REF_S``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced run, and the last stdout line is the JSON result. The
certcut sources are imported from ``src/`` beside this directory; without
them the runner exits with status 1 and prints no result.
"""

from __future__ import annotations

import os

# one thread: pin numpy's pools before anything imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 3
MIN_PASSES = 3
TAIL_BEYOND = 10
# Latencies are reported in probe-scaled seconds: measured seconds times
# PROBE_REF_S over the mean of the probes taken just before and after. Other
# tenants of a shared host slow the probe and the program alike, so the scaled
# figure moves by a few percent where the measured one moves by up to 2x; a
# quiet core runs the probe in about PROBE_REF_S.
PROBE_REF_S = 2e-4
OUT_DIR = ROOT / ".perfbench-out"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "request_ms.p50": "ms",
    "request_ms.tail": "ms",
    "peak_rss_mb": "MB",
    "cut_ratio": "ratio",
    "cert_ratio": "ratio",
    "ok_frac": "ratio",
}

PER_LAYER_CALLS = (
    "embedding.hyperplane_round", "graphcore.cut_value", "embedding.sdp_cut",
    "graphcore.degeneracy_order", "graphcore.count_triangles", "graphcore.induced_subgraph",
    "decompose.extend_cut", "rng.make_rng",
)
PER_LAYER_SELF = (
    "embedding.hyperplane_round", "graphcore.cut_value", "embedding.build_vectors",
    "embedding.exact_expected_cut", "harness.parse_graph", "graphcore.from_edges",
    "chromatic.max_t_cut", "graphcore.degeneracy_order", "graphcore.count_triangles",
    "graphcore.count_back_triangles", "graphcore.induced_subgraph",
    "decompose.partition_triangle_sparse", "graphcore.find_clique",
    "chromatic.kr_free_coloring", "chromatic.coloring_cut", "decompose.combine_subcuts",
    "decompose.extend_cut", "decompose.composite_cut", "oracle.max_cut_exact",
    "cli.make_report", "harness.report", "generators.gnp", "generators.random_regular",
    "generators.make_cr_free",
)
PER_LAYER = {
    **{f"{n}.calls": "count" for n in PER_LAYER_CALLS},
    **{f"{n}.self_s": "s" for n in PER_LAYER_SELF},
    "graphcore.degeneracy_order.calls_per_request": "count",
    "decompose.parts": "count",
    "trace.overhead_s": "s",
}


class Program:
    """The certcut package under test, imported from ``ROOT/src``."""

    def __init__(self):
        src = ROOT / "src"
        if not (src / "certcut" / "__init__.py").is_file():
            raise SystemExit(f"perfbench: no certcut sources under {src}")
        sys.path.insert(0, str(src))
        start = time.perf_counter()
        import certcut
        from certcut import cli, errors, generators, harness
        self.import_s = time.perf_counter() - start
        if not Path(certcut.__file__).resolve().is_relative_to(src.resolve()):
            raise SystemExit(f"perfbench: certcut was imported from {certcut.__file__}")
        self.cli, self.generators, self.harness = cli, generators, harness
        # documented refusals and their CLI exit codes
        self.refusals = ((errors.ParseError, inputs.PARSE),
                         (errors.PreconditionError, inputs.PRECONDITION),
                         (errors.BudgetExceeded, inputs.BUDGET))

    def call(self, req) -> tuple[int, str]:
        """(exit code, output) of one request, mapped as ``certcut`` maps them."""
        try:
            if isinstance(req, inputs.CutRequest):
                g = self.harness.parse_graph(req.text)
                report = self.cli.make_report(
                    g, req.label, req.algo, req.seed, epsilon="auto", repeats=32,
                    r=req.r, t=req.t, p=None, max_vertices=None,
                )
                return inputs.OK, report.to_json()
            spec = self.generators.GenSpec(req.model, dict(req.params), req.seed)
            g = self.generators.family(spec)
            if req.cr_free:
                g = self.generators.make_cr_free(g, req.cr_free)
            return inputs.OK, self.harness.format_edge_list(g)
        except Exception as exc:
            for kind, code in self.refusals:
                if isinstance(exc, kind):
                    return code, str(exc)
            return 1, traceback.format_exc(limit=4)


def probe() -> float:
    """Seconds for a fixed slice of dict, tuple, set and sort work, the best
    of three runs with the garbage collector paused."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        table = {}
        for i in range(700):
            table[(i * 7919) % 701] = (i, i + 1)
        acc = 0
        for k, (a, b) in table.items():
            if k & 1:
                acc += a * b
        keys = sorted(table, key=lambda k: -k)
        acc += len(frozenset(keys[:350]) & set(range(0, 700, 3)))
        best = min(best, time.perf_counter() - start)
    if gc_was_enabled:
        gc.enable()
    return best


def result_key(req, code: int, output: str):
    """What a request produced, without timing fields."""
    if code != inputs.OK:
        return ("exit", code)
    if isinstance(req, inputs.CutRequest):
        rep = json.loads(output)
        return (rep["value"], repr(rep["certificate"]), repr(rep["bound"]))
    return hashlib.sha256(output.encode()).hexdigest()


def evaluate(req, code: int, output: str) -> str | None:
    """Failure reason of one request's outcome, or None when it is correct."""
    if code != req.expect:
        detail = output.strip().splitlines()[-1] if output.strip() else ""
        return f"exit {code}, expected {req.expect}: {detail}"
    if code != inputs.OK:
        return None
    if isinstance(req, inputs.CutRequest):
        return checks.check_cut(req, output)
    return checks.check_gen(req, output)


class Run:
    """Requests, outcomes and timings of one workload run."""

    def __init__(self, program: Program, workload: inputs.Workload):
        self.program = program
        self.workload = workload
        self.keys = None
        self.reasons: list[str | None] = []
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self, tracer=None) -> tuple[list[float], list[float]]:
        """Issue every request once: measured and probe-scaled latencies."""
        latencies, outcomes = [], []
        clock = time.perf_counter
        probes = [probe()]
        for i, req in enumerate(self.workload.requests):
            if tracer is not None:
                tracer.request = i
            t0 = clock()
            outcome = self.program.call(req)
            latencies.append(clock() - t0)
            outcomes.append(outcome)
            probes.append(probe())
        self._check(outcomes)
        scaled = [lat * 2.0 * PROBE_REF_S / (before + after)
                  for lat, before, after in zip(latencies, probes, probes[1:])]
        return latencies, scaled

    def _check(self, outcomes) -> None:
        """Check the first pass in full; later passes must repeat its results."""
        first = self.keys is None
        keys = []
        for i, (req, (code, output)) in enumerate(zip(self.workload.requests, outcomes)):
            self.attempted += 1
            reason = evaluate(req, code, output) if first else self.reasons[i]
            key = None
            if reason is None:
                try:
                    key = result_key(req, code, output)
                except (ValueError, KeyError) as exc:
                    reason = f"unreadable output: {exc}"
            if reason is None and not first and key != self.keys[i]:
                reason = "result differs from the first pass"
            if reason is not None:
                self.failures.append(f"{req.label}: {reason}")
            keys.append(key)
            if first:
                self.reasons.append(reason)
        if first:
            self.keys = keys

    def quality(self) -> tuple[float, float, str]:
        """cut_ratio, cert_ratio and the digest of every request's result."""
        value = cert = m = 0
        for req, key in zip(self.workload.requests, self.keys):
            if isinstance(req, inputs.CutRequest) and req.expect == inputs.OK and key:
                value += key[0]
                cert += float(key[1])
                m += req.m
        digest = hashlib.sha256(repr(self.keys).encode()).hexdigest()
        return value / max(m, 1), cert / max(m, 1), digest


def percentile(values, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def build(name: str, seed: int) -> tuple[inputs.Workload, float]:
    """Build the workload SETUP_REPEATS times; the median build time."""
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = inputs.WORKLOADS[name](seed)
        times.append(time.perf_counter() - start)
        digests.add(workload.digest())
    if len(digests) != 1:
        raise SystemExit("perfbench: input building is not deterministic")
    return workload, statistics.median(times)


def keep_going(passes: int, least: int, elapsed: float, last: float, seconds: float) -> bool:
    """Another pass while fewer than ``least`` ran or it should end in time."""
    return passes < least or elapsed + last <= seconds


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    measured, scaled = [], []
    start = time.perf_counter()
    run.one_pass()  # warm-up: checked, not timed
    last = time.perf_counter() - start
    while keep_going(len(scaled), MIN_PASSES, time.perf_counter() - start, last, seconds):
        pass_start = time.perf_counter()
        latencies, latencies_scaled = run.one_pass()
        last = time.perf_counter() - pass_start
        measured.append(sum(latencies))
        scaled.append(latencies_scaled)
    samples = [x for one in scaled for x in one]
    tail, beyond = percentile(samples, run.workload.tail_pct)
    cut_ratio, cert_ratio, _ = run.quality()
    metrics = {
        "wall_s": statistics.median(sum(one) for one in scaled),
        "request_ms.p50": statistics.median(samples) * 1000.0,
        "request_ms.tail": tail * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cut_ratio": cut_ratio,
        "cert_ratio": cert_ratio,
        "ok_frac": 1.0 - len(run.failures) / run.attempted,
    }
    detail = {"passes": len(scaled), "measured_pass_s": measured, "samples": len(samples),
              "tail_pct": run.workload.tail_pct, "tail_samples_beyond": beyond}
    if beyond < TAIL_BEYOND:
        detail["tail_warning"] = f"only {beyond} samples above the tail percentile"
    return metrics, detail


def measure_traced(run: Run, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; per-layer numbers per traced pass."""
    tracer = tracing.Tracer()
    plain, traced, per_pass, parts = [], [], [], []
    start = time.perf_counter()
    run.one_pass()  # warm-up: checked, not timed
    last = 2 * (time.perf_counter() - start)
    while keep_going(len(plain), 2, time.perf_counter() - start, last, seconds):
        pair_start = time.perf_counter()
        plain.append(sum(run.one_pass()[1]))
        first_span = len(tracer.spans)
        parts_before = tracer.counts["decompose.parts"]
        with tracer.installed():
            traced.append(sum(run.one_pass(tracer)[1]))
        per_pass.append(tracer.summarize(first_span))
        parts.append(tracer.counts["decompose.parts"] - parts_before)
        last = time.perf_counter() - pair_start
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(spans_path)
    calls = {name: row[0] for name, row in per_pass[0].items()}
    metrics = {f"{n}.calls": float(calls[n]) for n in PER_LAYER_CALLS}
    for n in PER_LAYER_SELF:
        metrics[f"{n}.self_s"] = statistics.median(p[n][1] for p in per_pass)
    metrics["graphcore.degeneracy_order.calls_per_request"] = (
        calls["graphcore.degeneracy_order"] / run.workload.cut_requests
    )
    metrics["decompose.parts"] = float(parts[0])
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    if any({n: r[0] for n, r in p.items()} != calls for p in per_pass) or len(set(parts)) > 1:
        run.failures.append("traced call counts differ between passes")
    detail = {"passes": len(traced), "untraced_pass_s": plain, "traced_pass_s": traced,
              "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, detail


def run_workload(args) -> int:
    before = probe()
    program = Program()
    workload, build_s = build(args.workload, args.seed)
    setup_scale = 2.0 * PROBE_REF_S / (before + probe())
    run = Run(program, workload)
    if args.trace:
        spans_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        values, detail = measure_traced(run, args.seconds, spans_path)
        units = PER_LAYER
    else:
        values, detail = measure(run, args.seconds)
        values["setup_s"] = (program.import_s + build_s) * setup_scale
        units = END_TO_END
    _, _, outputs_digest = run.quality()
    detail.update({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "requests_per_pass": len(workload.requests), "import_s": program.import_s,
        "build_s": build_s, "inputs_digest": workload.digest(),
        "outputs_digest": outputs_digest, "failures": run.failures[:20],
    })
    for name, unit in units.items():
        print(f"{workload.name:16s} {name:48s} {values[name]:14.6g} {unit}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    results, status = {}, 0
    for name in inputs.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines[:-2]))
        detail = json.loads(lines[-2])["detail"]
        print(f"{name:16s} samples={detail.get('samples', '-')} passes={detail['passes']} "
              f"tail=p{detail.get('tail_pct', '-')} inputs={detail['inputs_digest'][:16]} "
              f"outputs={detail['outputs_digest'][:16]}")
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["all", *inputs.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
