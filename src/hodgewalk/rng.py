"""Seedable 64-bit RNG (SplitMix64) drawn in blocks, and the rejection limit
of exact bounded draws.

SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) is counter-based: word i
(from 1) of the stream for a seed is mix(seed + i * GAMMA) modulo 2**64.
``blocks`` computes ``BLOCK`` words at a time with numpy ``uint64`` array
arithmetic, which wraps modulo 2**64, and yields each block as one list of
Python ints, so the stream does not depend on the block size; callers
iterate the words of a block themselves.  A bounded draw below n rejects
every word at or above ``rejection_limit(n)`` and takes the next one,
with integer arithmetic only, which keeps walk traces bit-reproducible.
"""

from __future__ import annotations

from typing import Iterator

BLOCK = 4096
_SPAN = 1 << 64
_GAMMA = 0x9E3779B97F4A7C15


def blocks(seed: int, modulus: int = _SPAN) -> Iterator[list[int]]:
    """The endless word stream for ``seed`` (any int, mod 2**64), ``BLOCK`` words a block.

    A block whose words all lie below ``rejection_limit(modulus)`` comes
    reduced modulo the even ``modulus`` (2**64 reduces nothing), any other
    block raw.  A reader of action bits and of draws below totals t that
    divide ``modulus`` sees the same bits and draws either way: a multiple
    of ``modulus`` is one of t, so ``rejection_limit(modulus)`` <=
    ``rejection_limit(t)`` and every word w of a reduced block is accepted,
    as is its residue r < ``modulus``; r = w (mod t), and r & 1 == w & 1.
    """
    import numpy as np  # loads numpy: imported only where words are drawn

    # only array operands: numpy wraps uint64 array arithmetic silently,
    # but warns on scalar overflow
    offsets = np.arange(1, BLOCK + 1, dtype=np.uint64)
    offsets *= np.uint64(_GAMMA)
    base = seed % _SPAN
    stride = BLOCK * _GAMMA % _SPAN
    limit = rejection_limit(modulus)
    while True:
        z = offsets + np.uint64(base)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        # as an int: the limit of a power of two is 2**64, beyond uint64
        if modulus < _SPAN and int(z.max()) < limit:
            z %= np.uint64(modulus)
        yield z.tolist()
        base = (base + stride) % _SPAN


def rejection_limit(n: int) -> int:
    """Largest multiple of n (1 <= n <= 2**64) not above 2**64: words at or above it are redrawn."""
    if n > _SPAN:
        raise OverflowError(f"a draw below {n} needs more than one 64-bit word")
    return _SPAN - _SPAN % n

