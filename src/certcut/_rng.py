"""Deterministic randomness plumbing.

Every stream is a PCG64 generator keyed by an integer seed plus an optional
derivation path, so callers that share a seed draw independent sub-streams.
Hyperplane rounding reads one stream per seed (:func:`normal_blocks`).
"""

from __future__ import annotations

import numpy as np

_U64 = (1 << 64) - 1

# nonzero, and used by no other stream: SeedSequence([s, 0]) equals
# SeedSequence([s]), so a path of 0 would reuse the instance stream of seed s
_ROUNDING_PATH = 10


def _entropy(seed, path):
    return [int(seed) & _U64] + [int(p) & _U64 for p in path]


def make_rng(seed, *path) -> np.random.Generator:
    """PCG64 generator for (seed, *path); same inputs give the same stream."""
    return np.random.default_rng(np.random.SeedSequence(_entropy(seed, path)))


def derive_seed(seed, *path) -> int:
    """Stable 64-bit sub-seed for (seed, *path)."""
    ss = np.random.SeedSequence(_entropy(seed, path))
    return int(ss.generate_state(1, np.uint64)[0])


def normal_blocks(seeds, count: int, sizes, rows: int):
    """Yield (rows', sum(sizes)) float blocks of at most ``rows`` rows,
    ``count`` rows in all: segment s of row k is the k-th run of sizes[s]
    normals of ``make_rng(seeds[s], _ROUNDING_PATH)``, so the rows do not
    depend on ``rows``. A generator outlives a block only if ``rows < count``.
    """
    spans, width = [], 0
    for seed, size in zip(seeds, sizes):
        if size:
            spans.append((seed, slice(width, width + size)))
        width += size
    gens = [make_rng(seed, _ROUNDING_PATH) for seed, _ in spans] if rows < count else None
    for first in range(0, count, rows):
        block = np.empty((min(rows, count - first), width))
        for i, (seed, span) in enumerate(spans):
            gen = gens[i] if gens else make_rng(seed, _ROUNDING_PATH)
            # NumPy refuses a strided out=, so each segment is drawn whole
            block[:, span] = gen.standard_normal((len(block), span.stop - span.start))
        yield block
