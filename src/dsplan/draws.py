"""Scalar draws from a PCG64 ``Generator`` without a numpy call each.

``Draws`` reads raw words in blocks and answers as the generator would:
bounded integers by numpy's multiply-and-reject over 32-bit halves (Lemire
2019, ACM TOMACS 29(1)), doubles from the top 53 bits of a word.  This
holds per numpy version, as the streams themselves do (NEP 19).
"""

from __future__ import annotations

import numpy as np

_LOW, _BLOCK = 0xFFFFFFFF, 256     # 32-bit mask; raw words per refill


class Draws:
    """``with Draws(rng) as d:`` - ``d`` draws as ``rng`` would."""

    def __init__(self, rng: np.random.Generator):
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise TypeError("Draws reads PCG64 generators only")
        self._rng, self._bg = rng, rng.bit_generator

    def __enter__(self) -> "Draws":
        self._snap = self._bg.state
        # numpy's buffered high half; a used one keeps its stale value
        self._pending = bool(self._snap["has_uint32"])
        self._uint = self._snap["uinteger"]
        self._words: list[int] = []      # the unread words, next one last
        self._fetched = 0
        return self

    def __exit__(self, *exc) -> None:
        self._bg.state = self._snap
        self._bg.advance(self._fetched - len(self._words))
        state = self._bg.state
        state["has_uint32"], state["uinteger"] = int(self._pending), self._uint
        self._bg.state = state

    def _word(self) -> int:
        if not self._words:
            self._words = self._bg.random_raw(_BLOCK).tolist()[::-1]
            self._fetched += _BLOCK
        return self._words.pop()

    def integers(self, lo: int, hi: int | None = None) -> int:
        """``Generator.integers(lo)``, or ``integers(lo, hi)``, as an int."""
        if hi is not None:
            return lo + self.integers(hi - lo)
        if lo == 1:
            return 0
        if not 1 <= lo <= _LOW:
            raise ValueError(f"bound must be in [1, 2**32), got {lo}")
        while True:
            if self._pending:
                half, self._pending = self._uint, False
            else:
                word = self._word()
                half, self._uint, self._pending = word & _LOW, word >> 32, True
            m = half * lo
            # the threshold (2**32 - lo) % lo is only needed below lo
            if m & _LOW >= lo or m & _LOW >= (_LOW + 1 - lo) % lo:
                return m >> 32

    def random(self) -> float:
        """``Generator.random()``: a double in [0, 1) from one full word."""
        return (self._word() >> 11) * 2.0 ** -53

    def permutation(self, x):
        """``Generator.permutation(x)``, drawn by the generator itself."""
        self.__exit__()
        try:
            return self._rng.permutation(x)
        finally:
            self.__enter__()
