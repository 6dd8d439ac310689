"""Deterministic randomness plumbing.

Every stream is a PCG64 generator keyed by an integer seed plus an optional
derivation path, so repeated roundings and parallel workers can use provably
independent sub-streams: ``make_rng(seed, k)`` is the stream for repeat ``k``.

:func:`normal_blocks` draws the first n_s standard normals of many streams
(seed_s, k) at once. It runs NumPy's ``SeedSequence`` hash and PCG64's
seeding step, both fixed by NEP 19, over arrays of (seed, k) pairs, so
segment s of row k of its output is bit for bit
``make_rng(seed_s, k).standard_normal(n_s)`` without a generator per repeat.
"""

from __future__ import annotations

import numpy as np

from .graphcore import block_rows

_U64 = (1 << 64) - 1
_U128 = (1 << 128) - 1

# numpy.random.SeedSequence (pool of four 32-bit words): hashmix number j
# xors a word with _HASH_A[j] and multiplies it by _HASH_A[j + 1], and output
# word i is hashed likewise with _HASH_B
_M32 = 0xFFFFFFFF


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _M32)
    return np.array(consts, dtype=np.uint32)[:, None]


_HASH_A = _hash_consts(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_OTHERS = tuple([d for d in range(4) if d != s] for s in range(4))
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _entropy(seed, path):
    return [int(seed) & _U64] + [int(p) & _U64 for p in path]


def make_rng(seed, *path) -> np.random.Generator:
    """PCG64 generator for (seed, *path); same inputs give the same stream."""
    return np.random.default_rng(np.random.SeedSequence(_entropy(seed, path)))


def derive_seed(seed, *path) -> int:
    """Stable 64-bit sub-seed for (seed, *path)."""
    ss = np.random.SeedSequence(_entropy(seed, path))
    return int(ss.generate_state(1, np.uint64)[0])


def _hash(words: np.ndarray, consts: np.ndarray, j: int, rows: int) -> np.ndarray:
    """Hashmix ``rows`` rows, row r of ``words`` (broadcast) with constants
    j + r and j + r + 1."""
    words = words ^ consts[j:j + rows]
    words *= consts[j + 1:j + 1 + rows]
    words ^= words >> 16
    return words


def _pcg64_states(seeds, ks: np.ndarray) -> list[tuple[int, int]]:
    """(state, inc) of PCG64 seeded by ``SeedSequence([seed, k])`` for every
    k of the uint64 array ``ks``, seed by seed over ``seeds``; seeds are
    taken modulo 2^64 as ``make_rng`` takes them.

    The entropy words are the seed's little-endian 32-bit words (one, or two
    when it is 2^32 or more), then k's. At most four words fit the pool, and
    an absent word hashes as 0, so k always takes two words, the second 0
    below 2^32. The hash runs on uint32 arrays, which wrap silently, one row
    per pool word; the 128-bit seeding step runs on Python ints.
    """
    k_lo, k_hi = ks & _M32, ks >> 32
    words = np.zeros((4, len(seeds), len(ks)), dtype=np.uint32)
    for i, seed in enumerate(seeds):
        seed = int(seed) & _U64
        words[0, i], words[1, i] = seed & _M32, seed >> 32
        at = 2 if seed >> 32 else 1
        words[at, i], words[at + 1, i] = k_lo, k_hi
    pool = _hash(words.reshape(4, -1), _HASH_A, 0, 4)
    # mix every word into each other one; the three targets of a source
    # read it before any of them changes, so they update together
    for src, dst in enumerate(_OTHERS):
        mixed = _MIX_L * pool[dst] - _MIX_R * _hash(pool[src], _HASH_A, 4 + 3 * src, 3)
        mixed ^= mixed >> 16
        pool[dst] = mixed
    # generate_state(4, np.uint64): eight words cycling over the pool, read
    # as four little-endian 64-bit words (seed high, seed low, inc high, inc low)
    out = _hash(np.concatenate((pool, pool)), _HASH_B, 0, 8).astype(np.uint64)
    s_hi, s_lo, i_hi, i_lo = (out[0::2] | out[1::2] << np.uint64(32)).tolist()
    states = []
    for sh, sl, ih, il in zip(s_hi, s_lo, i_hi, i_lo):
        # pcg_setseq_128_srandom_r: state 0, one step, add the seed, one step
        inc = ((ih << 64 | il) << 1 | 1) & _U128
        states.append((((inc + (sh << 64 | sl)) * _PCG_MULT + inc) & _U128, inc))
    return states


def normal_blocks(seeds, count: int, sizes, rows: int, k0: int = 0):
    """Yield (rows', sum(sizes)) float blocks of at most ``rows`` rows, in
    order, for the streams of k = k0, ..., k0 + count - 1: row k holds one
    segment per entry of the equal-length ``seeds`` and ``sizes``, side by
    side, segment s being ``make_rng(seeds[s], k).standard_normal(sizes[s])``.
    The states of at most ``ROUND_CHUNK // 4`` streams (of one k, at least)
    are derived per pass, so memory does not grow with ``count``.
    """
    # empty segments draw nothing, so only the others' streams are derived
    spans, keys, width = [], [], 0
    for seed, size in zip(seeds, sizes):
        if size:
            spans.append(slice(width, width + size))
            keys.append(seed)
        width += size
    # a derived stream holds about 440 bytes of Python ints: a quarter chunk
    per_pass = block_rows(4 * len(keys))
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    for start in range(k0, k0 + count, per_pass):
        todo = min(per_pass, k0 + count - start)
        ks = np.arange(todo, dtype=np.uint64) + np.uint64(start & _U64)
        # segment-major: one segment's streams for every k, then the next's
        states = _pcg64_states(keys, ks)
        for first in range(0, todo, rows):
            block = np.empty((min(rows, todo - first), width))
            for i, span in enumerate(spans):
                at = i * todo + first
                for out, (s, inc) in zip(block[:, span], states[at:at + len(block)]):
                    state["state"] = {"state": s, "inc": inc}
                    bitgen.state = state
                    gen.standard_normal(out=out)
            yield block
        del states  # freed before the next pass derives its own
