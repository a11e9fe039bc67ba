from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistick.core import Extremum, Kind, PersistentPair, decompose
from persistick.oracle import gen_random_walk
from persistick.spectrum import SizeHistogram, histogram, spectrum


def _pair(size: int) -> PersistentPair:
    return PersistentPair(Extremum(0, 0, Kind.MIN), Extremum(1, size, Kind.MAX))


def _hist(sizes: list[int], counts: list[int]) -> SizeHistogram:
    return SizeHistogram(np.array(sizes, dtype=np.int64), np.array(counts, dtype=np.int64))


class TestHistogram:
    def test_empty(self):
        h = histogram([])
        assert h.entries == {} and h.total_pairs == 0

    def test_counts_by_size(self):
        h = histogram([_pair(2), _pair(2), _pair(2), _pair(4)])
        assert h.entries == {2: 3, 4: 1}
        assert h.total_pairs == 4

    def test_accepts_decomposition_and_array(self):
        dec = decompose([5, 1, 4, 2, 6])
        assert histogram(dec).entries == {2: 1}
        assert histogram(np.array([2, 2, 4])).entries == {2: 2, 4: 1}
        with pytest.raises(TypeError):
            histogram(np.array([2.0, 4.0]))

    def test_rejects_uint64_sizes_beyond_int64(self):
        with pytest.raises(ValueError, match="int64 range"):
            histogram(np.array([2**63 + 1, 5], dtype=np.uint64))
        with pytest.raises(ValueError, match="int64 range"):
            histogram([2**63 + 1, 5])
        assert histogram(np.array([2**63 - 1, 5, 5], dtype=np.uint64)).entries == {5: 2, 2**63 - 1: 1}

    def test_python_ints_out(self):
        # The seed-0 benchmark pin hashes the repr of these, and under numpy 2
        # a numpy scalar's repr is np.int64(5), not 5.
        h = histogram(np.array([5, 2, 5, 3_000_000_000], dtype=np.int64))
        assert all(type(x) is int for kv in h.entries.items() for x in kv)
        assert repr(sorted(h.entries.items())) == "[(2, 1), (5, 2), (3000000000, 1)]"
        points = spectrum(h).points
        assert all(type(x) is int for pt in points for x in pt)
        assert type(h.total_pairs) is int
        # 2 * count * m is exact beyond int64.
        big = _hist([2**62], [3])
        assert spectrum(big).points == [(2**62, 6 * 2**62)]

    def test_equality_compares_arrays(self):
        assert histogram([3, 1, 3]) == _hist([1, 3], [1, 2])
        assert histogram([3, 1, 3]) != _hist([1, 3], [2, 1])
        assert histogram([]) == _hist([], [])

    def test_count_sum_invariant(self):
        h = histogram([_pair(s) for s in [1, 1, 3, 5, 5, 5]])
        assert sum(h.entries.values()) == h.total_pairs
        assert 0 not in h.entries.values()

    def test_arrays_sorted(self):
        h = histogram(np.array([5, 3, 1, 3, 5, 3, 3]))
        assert h.sizes.tolist() == [1, 3, 5]
        assert h.counts.tolist() == [1, 4, 2]
        assert h.sizes.dtype == h.counts.dtype == np.int64
        assert h.total_pairs == 7


class TestSpectrum:
    def test_known_histogram(self):
        s = spectrum(_hist([2, 4], [3, 1]))
        assert s.points == [(2, 12), (4, 8)]

    def test_empty(self):
        assert spectrum(_hist([], [])).points == []

    def test_singleton_sizes_lie_on_twice_size_line(self):
        s = spectrum(_hist([3, 7, 11], [1, 1, 1]))
        assert all(val == 2 * m for m, val in s.points)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_sum_equals_paired_variation(self, seed):
        t, v = gen_random_walk(800, seed=seed, kind="gauss")
        dec = decompose(v, t)
        s = spectrum(histogram(dec))
        assert s.total() == dec.tv_total - dec.tv_top
        assert s.total() == dec.pair_variation()

    def test_points_ascending(self):
        s = spectrum(histogram(np.array([9, 2, 4, 2, 2, 4, 2, 2])))
        ms = [m for m, _ in s.points]
        assert ms == sorted(ms)
