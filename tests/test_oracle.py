from __future__ import annotations

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistick.core import StreamOrderError, decompose
from persistick.oracle import (
    decomposition_digest,
    gen_discrete_powerlaw,
    gen_random_walk,
    level_sweep_pairs,
)

from conftest import (
    assert_equivalent_decomposition,
    pair_tuples,
    stream_decompose,
)

DATA = pathlib.Path(__file__).parent / "data"


class TestLevelSweep:
    @pytest.mark.parametrize(
        "values,expected_pairs",
        [
            ([5, 1, 4, 2, 6], [(3, 2, 2, 4)]),
            ([5, 1, 4, 2], []),
            ([2, 5, 1, 6], []),
            ([1, 5, 2, 6], [(2, 2, 1, 5)]),
            ([9, 3, 7, 1, 8], [(1, 3, 2, 7)]),
            ([1, 3, 1, 3, 1], [(0, 1, 1, 3)]),
            ([8, 3, 8, 2], [(1, 3, 2, 8)]),
            ([1, 0, 1, 0], [(1, 0, 2, 1)]),
            ([5, 6, 2, 7, 2], []),
            ([5, 6, 2, 7, 2, 8], [(2, 2, 3, 7)]),
        ],
    )
    def test_known_vectors(self, values, expected_pairs):
        dec = level_sweep_pairs(values)
        assert sorted(pair_tuples(dec)) == sorted(expected_pairs)

    def test_degenerate_inputs(self):
        empty = level_sweep_pairs([])
        assert empty.pairs == [] and empty.top.pending is None
        one = level_sweep_pairs([4])
        assert one.top.pending is not None and one.tv_total == 0
        const = level_sweep_pairs([4, 4, 4])
        assert const.pairs == [] and const.tv_total == 0
        with pytest.raises(ValueError, match="length mismatch"):
            level_sweep_pairs([1, 2, 3], [0, 1])
        with pytest.raises(StreamOrderError):
            level_sweep_pairs([1, 2, 3], [0, 2, 1])

    @given(st.lists(st.integers(0, 3), max_size=40))
    @settings(max_examples=100)
    def test_agrees_with_streaming_small_alphabet(self, values):
        assert_equivalent_decomposition(level_sweep_pairs(values), stream_decompose(values))

    @given(st.lists(st.integers(-10**6, 10**6), max_size=80, unique=True))
    @settings(max_examples=100)
    def test_agrees_with_streaming_distinct_values(self, values):
        assert_equivalent_decomposition(level_sweep_pairs(values), stream_decompose(values))

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["pm1", "gauss"]))
    @settings(max_examples=50, deadline=None)
    def test_agrees_with_batch_on_walks(self, seed, kind):
        t, v = gen_random_walk(300, seed=seed, kind=kind, zero_prob=0.2 if kind == "pm1" else 0.0)
        assert_equivalent_decomposition(
            level_sweep_pairs(v.tolist(), t.tolist()), decompose(v, t)
        )


class TestGenerators:
    def test_walk_deterministic(self):
        a = gen_random_walk(500, seed=9, kind="gauss")
        b = gen_random_walk(500, seed=9, kind="gauss")
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = gen_random_walk(500, seed=10, kind="gauss")
        assert not np.array_equal(a[1], c[1])

    def test_walk_shapes_and_steps(self):
        t, v = gen_random_walk(1000, seed=1, kind="pm1")
        assert t.shape == v.shape == (1000,)
        assert set(np.unique(np.diff(v)).tolist()) <= {-1, 1}
        t, v = gen_random_walk(1000, seed=1, kind="pm1", zero_prob=0.3)
        steps = np.diff(v)
        assert set(np.unique(steps).tolist()) <= {-1, 0, 1}
        assert 0.2 < float(np.mean(steps == 0)) < 0.4
        t, v = gen_random_walk(0, seed=0)
        assert t.shape == v.shape == (0,) and t.dtype == v.dtype == np.int64

    def test_walk_offsets(self):
        t, v = gen_random_walk(10, seed=0, kind="pm1", start=100, t0=50, dt=3)
        assert v[0] == 100 and t[0] == 50 and t[1] - t[0] == 3

    def test_walk_validation(self):
        with pytest.raises(ValueError):
            gen_random_walk(10, seed=0, kind="nope")
        with pytest.raises(ValueError):
            gen_random_walk(-1, seed=0)
        with pytest.raises(ValueError):
            gen_random_walk(10, seed=0, zero_prob=1.0)

    def test_powerlaw_draw_deterministic_and_bounded(self):
        a = gen_discrete_powerlaw(2000, 2.5, 3, seed=4)
        b = gen_discrete_powerlaw(2000, 2.5, 3, seed=4)
        assert np.array_equal(a, b)
        assert a.min() >= 3 and a.max() <= 10**6
        assert a.dtype == np.int64

    def test_powerlaw_tail_mass_matches_exponent(self):
        # P(X >= 2*xmin) for exponent b is roughly 2**-(b-1)
        draws = gen_discrete_powerlaw(200_000, 3.0, 10, seed=11)
        frac = float(np.mean(draws >= 20))
        assert abs(frac - 0.25) < 0.02

    def test_powerlaw_validation(self):
        with pytest.raises(ValueError):
            gen_discrete_powerlaw(10, 1.0, 1, seed=0)
        with pytest.raises(ValueError):
            gen_discrete_powerlaw(10, 2.0, 0, seed=0)
        with pytest.raises(ValueError):
            gen_discrete_powerlaw(10, 2.0, 5, seed=0, cap=4)
        with pytest.raises(ValueError):
            gen_discrete_powerlaw(-1, 2.0, 1, seed=0)


class TestGolden:
    def test_frozen_walk_digest(self):
        t, v = gen_random_walk(2000, seed=42, kind="gauss")
        dec = decompose(v, t)
        expected = (DATA / "walk_digest.txt").read_text().strip()
        assert decomposition_digest(dec) == expected
        # the independent construction reproduces the same digest
        assert decomposition_digest(level_sweep_pairs(v.tolist(), t.tolist())) == expected

    def test_digest_sensitive_to_content(self):
        a = decomposition_digest(decompose([5, 1, 4, 2, 6]))
        b = decomposition_digest(decompose([5, 1, 4, 2, 7]))
        assert a != b
