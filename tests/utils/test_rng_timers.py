"""Tests for RNG management."""

import numpy as np
import pytest

from repro.utils.rng import make_rng, resolve_rng, spawn_rngs


class TestRng:
    def test_same_seed_same_stream(self):
        a, b = make_rng(7), make_rng(7)
        assert np.array_equal(a.random(16), b.random(16))

    def test_spawned_streams_differ(self):
        rngs = spawn_rngs(123, 4)
        draws = [r.random(8) for r in rngs]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(draws[i], draws[j])

    def test_spawn_deterministic(self):
        a = [r.random(4) for r in spawn_rngs(5, 3)]
        b = [r.random(4) for r in spawn_rngs(5, 3)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_resolve_passthrough(self):
        rng = make_rng(1)
        assert resolve_rng(rng) is rng

    def test_resolve_seed(self):
        assert np.array_equal(resolve_rng(9).random(4), make_rng(9).random(4))

