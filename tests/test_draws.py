import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsplan.draws import Draws

# bounds that take the shortcut (1), never reject (2, 2**31), reject often
# (3 * 2**30 rejects a quarter of its halves) or sit at the top of the range
BOUNDS = st.one_of(st.sampled_from([1, 2, 37, 2**31, 3 * 2**30, 2**32 - 1]),
                   st.integers(1, 100))

CALLS = st.one_of(
    st.tuples(st.just("integers"), BOUNDS),
    st.tuples(st.just("window"), st.integers(0, 60)),
    st.tuples(st.just("interval"), st.integers(-5, 5), st.integers(1, 40)),
    st.tuples(st.just("random")),
    st.tuples(st.just("permutation"), st.integers(1, 12)),
)


def serve(rng, call):
    """One call as the library makes it; ``rng`` is a Generator or Draws."""
    kind, *args = call
    if kind == "integers":
        return int(rng.integers(args[0]))
    if kind == "window":
        n = args[0]
        return [int(rng.integers(n + 1)), int(rng.integers(n + 1))]
    if kind == "interval":
        lo, width = args
        return int(rng.integers(lo, lo + width))
    if kind == "random":
        return rng.random()
    return rng.permutation(args[0]).tolist()


def reference(rng, call):
    """The same call, in the vector shape the library once used for it."""
    if call[0] == "window":
        return rng.integers(0, call[1] + 1, size=2).tolist()
    return serve(rng, call)


class Boom(Exception):
    pass


def long_mix(seed, size=1000):
    """``size`` calls of every shape, enough to refill the reader's
    256-word block several times, with one permutation mid-stream."""
    pick = random.Random(seed)
    shapes = [lambda: ("integers", pick.choice([1, 2, 37, 2**31, 3 * 2**30,
                                               2**32 - 1, 101])),
              lambda: ("window", pick.randrange(61)),
              lambda: ("interval", pick.randrange(-5, 6),
                       pick.randrange(1, 41)),
              lambda: ("random",)]
    calls = [pick.choice(shapes)() for _ in range(size)]
    calls[size // 2] = ("permutation", 9)
    return calls


# short random lists, and long ones that refill the reader several times
CALL_LISTS = st.one_of(st.lists(CALLS, max_size=120),
                       st.builds(long_mix, st.integers(0, 2**32)))


def start(seed, pending):
    """Two equal generators, optionally holding a buffered 32-bit half."""
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    if pending:
        rng.integers(5)
        ref.integers(5)
    return rng, ref


class TestDraws:
    @given(st.integers(0, 2**63), st.booleans(), CALL_LISTS)
    @settings(max_examples=200, deadline=None)
    def test_matches_generator_values_and_state(self, seed, pending, calls):
        rng, ref = start(seed, pending)
        with Draws(rng) as d:
            got = [serve(d, c) for c in calls]
        assert got == [reference(ref, c) for c in calls]
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.integers(2**62) == ref.integers(2**62)

    @given(st.integers(0, 2**63), st.booleans(), CALL_LISTS, st.data())
    @settings(max_examples=100, deadline=None)
    def test_exception_inside_block_hands_back_position(self, seed, pending,
                                                        calls, data):
        stop = data.draw(st.integers(0, len(calls)))
        rng, ref = start(seed, pending)
        with pytest.raises(Boom):
            with Draws(rng) as d:
                for c in calls[:stop]:
                    serve(d, c)
                raise Boom
        for c in calls[:stop]:
            reference(ref, c)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("words", [255, 256, 257, 512, 513])
    def test_exit_at_block_edges(self, words, pending):
        # random() takes one whole word, so these exits land just before,
        # on and just after a refill
        rng, ref = start(words, pending)
        with Draws(rng) as d:
            got = [d.random() for _ in range(words)]
            half = d.integers(37)
        assert got == [ref.random() for _ in range(words)]
        assert half == ref.integers(37)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_bound_one_consumes_nothing(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        with Draws(rng) as d:
            assert [d.integers(1) for _ in range(5)] == [0] * 5
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("k", [0, -3, 2**32, 2**40])
    def test_bounds_outside_range_rejected(self, k):
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        with Draws(rng) as d:
            with pytest.raises(ValueError):
                d.integers(k)
        assert rng.bit_generator.state == before

    def test_non_pcg64_rejected(self):
        with pytest.raises(TypeError):
            Draws(np.random.Generator(np.random.MT19937(0)))
