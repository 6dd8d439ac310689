"""Span tracing from outside the program.

While a ``Tracer`` is installed, every public certcut function named in
``TRACED`` is replaced by a wrapper wherever a certcut module bound it by
name (``from .graphcore import cut_value`` binds a second name), and on its
class for methods. Each call records a span ``[name, start, end, parent,
request]`` in memory; uninstalling puts every original object back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

# span name -> (module, attribute path). ``rng.make_rng`` is certcut._rng's
# make_rng; metric names may not start with an underscore.
TRACED = {
    "harness.parse_graph": ("certcut.harness", "parse_graph"),
    "harness.report": ("certcut.harness", "RunReport.to_json"),
    "cli.make_report": ("certcut.cli", "make_report"),
    "graphcore.from_edges": ("certcut.graphcore", "Graph.from_edges"),
    "graphcore.cut_value": ("certcut.graphcore", "cut_value"),
    "graphcore.degeneracy_order": ("certcut.graphcore", "degeneracy_order"),
    "graphcore.count_triangles": ("certcut.graphcore", "count_triangles"),
    "graphcore.count_back_triangles": ("certcut.graphcore", "count_back_triangles"),
    "graphcore.induced_subgraph": ("certcut.graphcore", "induced_subgraph"),
    "graphcore.find_clique": ("certcut.graphcore", "find_clique"),
    "embedding.sdp_cut": ("certcut.embedding", "sdp_cut"),
    "embedding.build_vectors": ("certcut.embedding", "build_vectors"),
    "embedding.exact_expected_cut": ("certcut.embedding", "exact_expected_cut"),
    "embedding.hyperplane_round": ("certcut.embedding", "hyperplane_round"),
    "decompose.composite_cut": ("certcut.decompose", "composite_cut"),
    "decompose.partition_triangle_sparse": ("certcut.decompose", "partition_triangle_sparse"),
    "decompose.combine_subcuts": ("certcut.decompose", "combine_subcuts"),
    "decompose.extend_cut": ("certcut.decompose", "extend_cut"),
    "chromatic.kr_free_coloring": ("certcut.chromatic", "kr_free_coloring"),
    "chromatic.coloring_cut": ("certcut.chromatic", "coloring_cut"),
    "chromatic.max_t_cut": ("certcut.chromatic", "max_t_cut"),
    "oracle.max_cut_exact": ("certcut.oracle", "max_cut_exact"),
    "rng.make_rng": ("certcut._rng", "make_rng"),
    "generators.gnp": ("certcut.generators", "gnp"),
    "generators.random_regular": ("certcut.generators", "random_regular"),
    "generators.make_cr_free": ("certcut.generators", "make_cr_free"),
}

# counts read off a traced function's result
RESULT_COUNTERS = {
    "decompose.partition_triangle_sparse": ("decompose.parts", lambda d: len(d.parts)),
}


class Tracer:
    def __init__(self):
        self.names = list(TRACED)
        self.spans: list[list] = []
        self.counts: dict[str, int] = {c: 0 for c, _ in RESULT_COUNTERS.values()}
        self.request = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        code = self.names.index(name)
        counter = RESULT_COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [code, clock(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "certcut" or k.startswith("certcut.")]
        for name, (modname, path) in TRACED.items():
            owner = sys.modules[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__))
                else:
                    new = self.wrap(name, raw)
                self._saved.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            original = getattr(owner, path)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def summarize(self, start: int = 0, stop: int | None = None) -> dict:
        """Calls and self time per span name over ``spans[start:stop]``.

        Self time is a span's duration minus the time its child spans cover;
        one thread runs every call, so children never overlap.
        """
        spans = self.spans[start:stop]
        self_s = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= start:
                self_s[s[3] - start] -= s[2] - s[1]
        out = {name: [0, 0.0] for name in self.names}
        for s, own in zip(spans, self_s):
            row = out[self.names[s[0]]]
            row[0] += 1
            row[1] += own
        return out

    def dump(self, path) -> None:
        """Write every span as ``[name, start, end, parent, request]``."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "fields": ["name", "start_s", "end_s", "parent", "request"],
                    "spans": [[c, a - t0, b - t0, p, r] for c, a, b, p, r in self.spans],
                },
                fh,
            )
