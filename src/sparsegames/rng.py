"""Deterministic 64-bit random number generator.

All randomized extraction code draws from this generator so that a seed
fully determines the result, bit for bit, on every platform.  The state
transition is the splitmix64 step: the state advances by the odd constant
0x9E3779B97F4A7C15 and the output is the state scrambled by two
xor-shift-multiply rounds with constants 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB.

The generator is counter-based: the state after k steps from ``s`` is
``s + k * gamma`` modulo 2**64, and each output depends only on the state
it is computed from.  So the next N outputs are the scramble of
``s + gamma * (1, ..., N)``, which a few elementwise uint64 operations
compute at once; uint64 arithmetic wraps modulo 2**64 exactly as the
masked integer steps do.  :meth:`SplitMix64.below_each` draws a whole
list of bounded integers that way and returns what the same number of
:meth:`SplitMix64.below` calls would, leaving the same state behind.
"""

import numpy as np

_SPAN = 1 << 64
_MASK = _SPAN - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Every operand of the batch is a uint64: under numpy 1.x value-based
# casting a Python int operand can promote the result to float64.
_U_GAMMA = np.uint64(_GAMMA)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)

_BOUNDS_ERROR = "below() requires 1 <= n <= 2**64"


class SplitMix64:
    """Seeded deterministic RNG with uniform integer and shuffle helpers."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection to avoid modulo bias;
        ``n`` must lie in [1, 2**64]."""
        if not 0 < n <= _SPAN:
            raise ValueError(_BOUNDS_ERROR)
        limit = _SPAN - _SPAN % n
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def below_each(self, bounds) -> list[int]:
        """``[self.below(n) for n in bounds]``, leaving the same state,
        drawn in uint64 batches.  ``bounds`` is a sequence of ints or an
        integer ndarray, such as the uint64 array a caller keeps to draw
        over again, with every bound in [1, 2**64], all checked before
        anything is drawn.  An array is checked by its own ``min`` and
        ``max``, not element by element."""
        if not len(bounds):
            return []
        if isinstance(bounds, np.ndarray):
            low, top = int(bounds.min()), int(bounds.max())
        else:
            low, top = min(bounds), max(bounds)
        if not (0 < low and top <= _SPAN):
            raise ValueError(_BOUNDS_ERROR)
        if top == _SPAN:  # fits no uint64
            return [self.below(n) for n in bounds]
        return self._draw(np.asarray(bounds, dtype=np.uint64))

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle.  Its swap indices are the draws
        of ``below_each(range(len(items), 1, -1))``, bounds that need no
        check."""
        js = self._draw(np.arange(len(items), 1, -1, dtype=np.uint64))
        for i, j in zip(range(len(items) - 1, 0, -1), js):
            items[i], items[j] = items[j], items[i]

    def _draw(self, bounds: np.ndarray) -> list[int]:
        """:meth:`below_each` over uint64 ``bounds``, all at least 1.

        A draw ``r`` for bound ``n`` is rejected when ``r >= 2**64 -
        (2**64 mod n)``, which needs ``r > 2**64 - 1 - n``.  A batch with
        no draw past that line is exact as ``r % n``; any other batch, of
        probability about ``sum(bounds) / 2**64``, is drawn again by
        :meth:`below` from the unmoved state.
        """
        r = _mix(np.arange(1, len(bounds) + 1, dtype=np.uint64) * _U_GAMMA
                 + np.uint64(self._state))
        if (r > ~bounds).any():
            return [self.below(int(n)) for n in bounds]
        self._state = (self._state + len(bounds) * _GAMMA) & _MASK
        return (r % bounds).tolist()


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 output scramble of each state in ``z`` (uint64)."""
    z = (z ^ (z >> _U30)) * _U_MIX1
    z = (z ^ (z >> _U27)) * _U_MIX2
    return z ^ (z >> _U31)
