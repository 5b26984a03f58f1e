"""Seeded uniform draws: numpy's default_rng(seed).uniform, computed here.

The stream is numpy's.  SeedSequence(seed) hashes the seed's 32-bit
words into a pool of four and expands the pool into 256 bits of state
for PCG64: an LCG on 128 bits whose XSL-RR output gives 64 bits per step
(O'Neill, "PCG: A family of simple fast space-efficient statistically
good algorithms for random number generation", HMC-CS-2014-0905).  A
double in [0, 1) takes the output's top 53 bits.  Computing the stream
in Python keeps numpy.random out of the process, and with it the
OpenSSL hash module that its import loads.  It also keeps the draws
fixed where numpy does not promise to (NEP 19).  tests/test_sampling.py
pins the bits against numpy.
"""

import math
import operator

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# numpy's SeedSequence: pool size and hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
# PCG's default multiplier for its 128-bit LCG
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pool(seed):
    """SeedSequence(seed).pool: the seed's words, hashed and mixed into four."""
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> _XSHIFT

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _state(pool):
    """SeedSequence.generate_state(4, uint64) of pool, as four 64-bit words."""
    const = _INIT_B
    halves = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        halves.append(value ^ value >> _XSHIFT)
    return [halves[k] | halves[k + 1] << 32 for k in range(0, 8, 2)]


def _doubles(seed, count):
    """The first count doubles of PCG64 seeded by SeedSequence(seed)."""
    s_hi, s_lo, i_hi, i_lo = _state(_pool(seed))
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
    # PCG's set-seq seeding: step from 0, add the initial state, step
    state = (inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc & _MASK128
    for _ in range(count):
        state = state * _PCG_MULT + inc & _MASK128
        word = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        word = (word >> rot | word << (64 - rot)) & _MASK64
        yield (word >> 11) * 2.0 ** -53


def uniform(seed, lower, upper, n) -> np.ndarray:
    """(n, dim) draws uniform in the box [lower, upper]: the bits of numpy's
    default_rng(seed).uniform(lower, upper, size=(n, dim)).

    Row i holds draws dim*i to dim*i + dim - 1 of one stream, so a larger n
    extends a smaller one.  A negative seed, or a width upper - lower
    that is negative or not finite, raises ValueError.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    lower = [float(v) for v in lower]
    widths = [float(hi) - lo for lo, hi in zip(lower, upper, strict=True)]
    if not all(0.0 <= w < math.inf for w in widths):
        raise ValueError(f"widths upper - lower must be finite and >= 0, got {widths}")
    u = _doubles(seed, n * len(lower))
    draws = [lo + w * next(u) for _ in range(n) for lo, w in zip(lower, widths)]
    return np.array(draws, dtype=float).reshape(n, len(lower))
