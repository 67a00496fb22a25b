"""The package's one seeded stream: numpy's default generator, in Python.

``random(entropy, n, spawn_key)`` returns, bit for bit, what
``numpy.random.default_rng(numpy.random.SeedSequence(entropy,
spawn_key=spawn_key)).random(n)`` returns. ``SeedSequence`` hashes the
entropy and the spawn key, as 32-bit words, into a pool of four words and
expands it into the 256-bit seed of a PCG64 generator (O'Neill, "PCG: A
Family of Simple Fast Space-Efficient Statistically Good Algorithms for
Random Number Generation", HMC-CS-2014-0905). Each step of its 128-bit LCG
gives one 64-bit word by the XSL-RR output function, and each word one
double, ``(word >> 11) * 2**-53``. numpy keeps both stable (NEP 19).
"""

from __future__ import annotations

import operator

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
# SeedSequence's hash constants, and PCG64's LCG multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(value) -> list[int]:
    """``value`` as SeedSequence reads it: each int as its 32-bit words,
    least significant first (one word for 0), in list order. A negative
    int raises ValueError and a non-integer TypeError, as numpy's do."""
    if isinstance(value, (list, tuple)):
        return [word for item in value for word in _words(item)]
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"entropy must be nonnegative, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _pool(entropy: list[int]) -> list[int]:
    """SeedSequence's pool: the entropy words hashed into four, each mixed
    with every other, then with every word past the fourth."""
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(word) for word in (entropy + [0] * _POOL_SIZE)[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def random(entropy, n: int, spawn_key=()) -> list[float]:
    """``n`` doubles in [0, 1) from the stream of ``entropy`` (a nonnegative
    int or a list of them; ``None``, for which numpy reads the system's
    entropy, raises TypeError) and ``spawn_key``. Each double takes one
    step, so one call for 2n values returns two calls' n and n."""
    run, spawn = _words(entropy), _words(tuple(spawn_key))
    if spawn and len(run) < _POOL_SIZE:
        # A spawned sequence pads short entropy, so that it and the key
        # cannot overlap.
        run += [0] * (_POOL_SIZE - len(run))
    pool = _pool(run + spawn)
    # generate_state(4, uint64): eight hashed words, read in little-endian
    # pairs as the 64-bit halves of the initial state and of the stream.
    const, words = _INIT_B, []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        words.append(value ^ value >> 16)
    initial = words[1] << 96 | words[0] << 64 | words[3] << 32 | words[2]
    stream = words[5] << 96 | words[4] << 64 | words[7] << 32 | words[6]
    inc = (stream << 1 | 1) & _MASK128
    state = ((inc + initial) * _PCG_MULT + inc) & _MASK128
    units = []
    for _ in range(n):
        state = (state * _PCG_MULT + inc) & _MASK128
        word, rot = (state >> 64) ^ (state & _MASK64), state >> 122
        word = (word >> rot | word << (64 - rot)) & _MASK64
        units.append((word >> 11) * 2.0**-53)
    return units


def uniform(low: float, high: float, units: list[float]) -> list[float]:
    """What numpy's ``rng.uniform(low, high, n)`` returns when
    ``rng.random(n)`` would return ``units``: ``low + (high - low) * u``."""
    low = float(low)
    scale = float(high) - low
    return [low + scale * u for u in units]
