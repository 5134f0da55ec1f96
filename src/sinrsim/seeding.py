"""Each node's random stream: NumPy's ``SeedSequence((seed, node id))``
hashed for all nodes in one array pass, seeding PCG64 directly.  A module
of its own so that compiling engine.py, as every run without cached
bytecode does, stays under the 8,192 tokens past which CPython's parser
holds about 0.4 MB more, which every workload's peak RSS showed."""

from __future__ import annotations

import operator
from typing import Any, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# the constants of NumPy's SeedSequence hash (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL = 4  # SeedSequence's default pool size, in 32-bit words
_STATE = 4  # the uint64 words PCG64 seeds itself from


def _seed_words(seed: int, ids: Sequence[int]) -> np.ndarray:
    """Row k is ``np.random.SeedSequence((seed, ids[k])).generate_state(4,
    np.uint64)``, the words PCG64 seeds node ``ids[k]``'s stream from.

    SeedSequence reads each integer as its 32-bit words, lowest first (0 is
    one word), and hashes their concatenation.  How the hash mixes depends
    on the number of words, so ids are grouped by it, and each group is
    hashed at once on `uint32` columns, one per word position.  Array
    arithmetic wraps modulo 2**32 as NumPy's C code does, and warns of no
    overflow."""
    seed = operator.index(seed)
    values = [operator.index(v) for v in ids]
    for name, least in (("seed", seed), ("node id", min(values, default=0))):
        if least < 0:
            raise ValueError(f"{name} must be >= 0, got {least}")
    head = [seed >> 32 * j & _MASK32 for j in range(_word_count(seed))]
    groups: dict[int, list[int]] = {}
    for k, v in enumerate(values):
        groups.setdefault(_word_count(v), []).append(k)
    state = np.empty((len(values), 2 * _STATE), "<u4")
    for length, rows in groups.items():
        members = [values[k] for k in rows]
        entropy = [np.full(len(rows), w, np.uint32) for w in head] + [
            np.array([v >> 32 * j & _MASK32 for v in members], np.uint32)
            for j in range(length)
        ]
        state[rows] = np.stack(_hash_state(entropy), axis=1)
    # little-endian word pairs, as generate_state joins them
    return state.view("<u8").astype(np.uint64, copy=False)


def _word_count(value: int) -> int:
    """The number of 32-bit words SeedSequence reads `value` as; 0 is one."""
    return (value.bit_length() + 31) // 32 or 1


def _hash_state(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence's pool mixing of the `entropy` word columns, then
    `generate_state`'s output hash of eight 32-bit words.  The hash
    constants advance the same way whatever the data, so they are Python
    integers."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    out = []
    hash_const = _INIT_B
    for i in range(2 * _STATE):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        out.append(value ^ (value >> 16))
    return out


class _SeedState(ISeedSequence):
    """A seed sequence that hands PCG64 precomputed words, one row of
    :func:`_seed_words`: PCG64 runs its own seeding from them."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype: Any = np.uint32) -> np.ndarray:
        if n_words != _STATE or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds {_STATE} uint64 words, not {n_words} of {np.dtype(dtype)}")
        return self.words


def _generator(words: np.ndarray) -> np.random.Generator:
    """The PCG64 stream seeded from one row of :func:`_seed_words`."""
    return np.random.Generator(np.random.PCG64(_SeedState(words)))
