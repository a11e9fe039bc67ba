"""Tests for windowed fitting over long series."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_powerlaw as reference
from persistick.core import StreamOrderError, decompose
from persistick.oracle import gen_random_walk
from persistick import core, rolling
from persistick.powerlaw import InsufficientTailError, fit, fit_many
from persistick.rolling import DAY_NS, WEEK_NS, RollingConfig, RollingPoint, rolling_fit

SECOND_NS = 10**9


def standalone(values, times, cfg: RollingConfig) -> list[RollingPoint]:
    """Reference: every window decomposed and fitted on its own, from its own items."""
    times = np.asarray(times)
    t0 = int(times[0])
    n_windows = (int(times[-1]) - t0 - cfg.window) // cfg.step + 1
    out = []
    for i in range(n_windows):
        end = t0 + cfg.window + i * cfg.step
        mask = (times >= end - cfg.window) & (times <= end)
        if isinstance(values, np.ndarray):
            dec = decompose(values[mask], times[mask])
        else:
            dec = decompose([values[i] for i in np.flatnonzero(mask)], times[mask])
        try:
            f = fit(dec, min_tail=cfg.min_tail, xmin_range=cfg.xmin_range)
        except InsufficientTailError:
            out.append(RollingPoint(end, None, dec.pair_count, "insufficient_tail"))
        else:
            out.append(RollingPoint(end, f, dec.pair_count, "ok"))
    return out


def standalone_error(values, times, cfg: RollingConfig) -> Exception:
    """The error the first window that fails on its own raises."""
    with pytest.raises((TypeError, ValueError)) as info:
        standalone(values, times, cfg)
    return info.value


class TestConfig:
    def test_defaults(self):
        cfg = RollingConfig()
        assert cfg.window == 8 * WEEK_NS
        assert cfg.step == 2 * WEEK_NS
        assert cfg.min_tail == 50
        assert cfg.xmin_range is None
        assert WEEK_NS == 7 * DAY_NS

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RollingConfig(window=0)
        with pytest.raises(ValueError):
            RollingConfig(step=0)
        with pytest.raises(ValueError):
            RollingConfig(window=WEEK_NS, step=-1)

    def test_rejects_step_exceeding_window(self):
        with pytest.raises(ValueError):
            RollingConfig(window=WEEK_NS, step=2 * WEEK_NS)

    def test_integer_geometry(self):
        with pytest.raises(TypeError, match="window must be an integer"):
            RollingConfig(window=10.0, step=2)
        with pytest.raises(TypeError, match="step must be an integer"):
            RollingConfig(window=10, step=2.5)
        cfg = RollingConfig(window=np.int64(10), step=np.uint32(3))
        assert (cfg.window, cfg.step) == (10, 3)
        assert type(cfg.window) is int and type(cfg.step) is int

    def test_fit_settings_checked_when_built(self):
        with pytest.raises(ValueError, match="min_tail must be at least 2"):
            RollingConfig(min_tail=1)
        with pytest.raises(ValueError, match=r"xmin_range \(9, 2\) has LO above HI"):
            RollingConfig(xmin_range=(9, 2))
        assert RollingConfig(min_tail=2, xmin_range=(2, 2)).xmin_range == (2, 2)


class TestGrid:
    def test_window_count_and_spacing(self):
        times, values = gen_random_walk(5_000, seed=3, kind="pm1", dt=SECOND_NS)
        cfg = RollingConfig(window=1_000 * SECOND_NS, step=300 * SECOND_NS)
        pts = rolling_fit(values, times, cfg)
        span = int(times[-1] - times[0])
        assert len(pts) == (span - cfg.window) // cfg.step + 1
        assert pts[0].window_end == int(times[0]) + cfg.window
        diffs = {pts[i + 1].window_end - pts[i].window_end for i in range(len(pts) - 1)}
        assert diffs == {cfg.step}

    def test_exact_span_single_window(self):
        times, values = gen_random_walk(2_000, seed=4, kind="pm1", dt=SECOND_NS)
        span = int(times[-1] - times[0])
        pts = rolling_fit(values, times, RollingConfig(window=span, step=span))
        assert len(pts) == 1
        assert pts[0].window_end == int(times[-1])


class TestIndependence:
    def test_each_window_equals_standalone_fit(self):
        times, values = gen_random_walk(60_000, seed=11, kind="gauss", dt=SECOND_NS)
        cfg = RollingConfig(window=20_000 * SECOND_NS, step=15_000 * SECOND_NS)
        pts = rolling_fit(values, times, cfg)
        assert len(pts) >= 3
        for p in pts:
            mask = (times >= p.window_end - cfg.window) & (times <= p.window_end)
            dec = decompose(values[mask], times[mask])
            assert p.pair_count == dec.pair_count
            assert p.status == "ok"
            assert p.fit == fit(dec, min_tail=cfg.min_tail, xmin_range=cfg.xmin_range)

    def test_boundary_samples_included(self):
        # A window spans [end - window, end] with both endpoints inclusive:
        # dropping either boundary sample would lose one of the two pairs.
        values = np.array([0, 5, 1, 6, 2, 7], dtype=np.int64)
        times = np.arange(6, dtype=np.int64) * SECOND_NS
        cfg = RollingConfig(window=5 * SECOND_NS, step=5 * SECOND_NS, min_tail=2)
        pts = rolling_fit(values, times, cfg)
        assert len(pts) == 1
        full = decompose(values, times)
        assert pts[0].pair_count == full.pair_count == 2


class TestStationarity:
    def test_window_alphas_track_global(self):
        times, values = gen_random_walk(200_000, seed=77, kind="pm1", dt=SECOND_NS)
        cfg = RollingConfig(window=50_000 * SECOND_NS, step=25_000 * SECOND_NS)
        pts = rolling_fit(values, times, cfg)
        assert all(p.status == "ok" for p in pts)
        global_alpha = fit(decompose(values, times)).alpha
        median_alpha = float(np.median([p.fit.alpha for p in pts]))
        assert abs(median_alpha - global_alpha) < 0.15

    def test_pinned_xmin_tightens_windows(self):
        times, values = gen_random_walk(200_000, seed=77, kind="pm1", dt=SECOND_NS)
        cfg = RollingConfig(
            window=50_000 * SECOND_NS, step=25_000 * SECOND_NS, xmin_range=(3, 3)
        )
        pts = rolling_fit(values, times, cfg)
        global_alpha = fit(decompose(values, times), xmin_range=(3, 3)).alpha
        for p in pts:
            assert p.fit.xmin == 3
            assert abs(p.fit.alpha - global_alpha) < 0.1


class TestInsufficientTail:
    def _spliced_flat(self):
        _, a = gen_random_walk(30_000, seed=5, kind="pm1")
        _, c = gen_random_walk(30_000, seed=6, kind="pm1", start=int(a[-1]))
        values = np.concatenate([a, np.full(30_000, a[-1], dtype=np.int64), c])
        times = np.arange(values.size, dtype=np.int64) * SECOND_NS
        return values, times

    def test_flat_windows_marked_not_dropped(self):
        values, times = self._spliced_flat()
        cfg = RollingConfig(window=20_000 * SECOND_NS, step=10_000 * SECOND_NS)
        pts = rolling_fit(values, times, cfg)
        statuses = [p.status for p in pts]
        assert statuses == ["ok", "ok", "ok", "insufficient_tail", "insufficient_tail", "ok", "ok"]
        for p in pts:
            if p.status == "insufficient_tail":
                assert p.fit is None
                assert p.pair_count == 0
            else:
                assert isinstance(p, RollingPoint)
                assert p.fit is not None
                assert p.pair_count > 0

    def test_flat_window_does_not_disturb_neighbors(self):
        values, times = self._spliced_flat()
        cfg = RollingConfig(window=20_000 * SECOND_NS, step=10_000 * SECOND_NS)
        pts = rolling_fit(values, times, cfg)
        for p in pts:
            if p.status != "ok":
                continue
            mask = (times >= p.window_end - cfg.window) & (times <= p.window_end)
            assert p.fit == fit(decompose(values[mask], times[mask]))


class TestErrors:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rolling_fit([1, 2, 3], [0, 1])

    def test_empty(self):
        with pytest.raises(ValueError):
            rolling_fit([], [])

    def test_window_exceeds_span(self):
        times, values = gen_random_walk(100, seed=1, kind="pm1", dt=SECOND_NS)
        with pytest.raises(ValueError):
            rolling_fit(values, times, RollingConfig(window=200 * SECOND_NS))

    def test_float_times(self):
        times, values = gen_random_walk(100, seed=1, kind="pm1", dt=SECOND_NS)
        cfg = RollingConfig(window=40 * SECOND_NS, step=20 * SECOND_NS)
        with pytest.raises(TypeError, match="times must be integers"):
            rolling_fit(values, times + 0.5, cfg)

    def test_uint64_times_beyond_int64(self):
        times, values = gen_random_walk(100, seed=1, kind="pm1", dt=SECOND_NS)
        cfg = RollingConfig(window=40 * SECOND_NS, step=20 * SECOND_NS)
        # Cast to int64 these would wrap to negative window ends.
        with pytest.raises(ValueError, match="int64 range"):
            rolling_fit(values, times.astype(np.uint64) + np.uint64(2**63), cfg)
        with pytest.raises(ValueError, match="int64 range"):  # a list numpy reads as float64
            rolling_fit(values, [0] + [x + 2**63 for x in times[1:].tolist()], cfg)
        points = rolling_fit(values, times.astype(np.uint64), cfg)
        assert points == rolling_fit(values, times, cfg)

    def test_decreasing_time_after_the_last_window(self):
        times, values = gen_random_walk(100, seed=1, kind="pm1", dt=SECOND_NS)
        times[-1] = times[-3]  # past the last window's end, which is times[-2]
        cfg = RollingConfig(window=40 * SECOND_NS, step=20 * SECOND_NS)
        with pytest.raises(StreamOrderError):
            rolling_fit(values, times, cfg)

    def test_decreasing_time_inside_a_window(self):
        times, values = gen_random_walk(100, seed=1, kind="pm1", dt=SECOND_NS)
        times[50] = times[10]
        with pytest.raises(StreamOrderError):
            rolling_fit(values, times, RollingConfig(window=40 * SECOND_NS, step=20 * SECOND_NS))

    H = 2**60
    _BEYOND_INT64 = {
        # block maxima differ from the window maximum
        "value": np.array([1, 2, 2**63 + 5, 3, 1, 2**63 + 9, 0, 4, 2, 1, 3, 0] * 2, dtype=np.uint64),
        "spread": np.array([0, 1, -(3 << 61), 2, 0, 3 << 61, 1, 0, 2, 1, 0, 1] * 2, dtype=np.int64),
        # every block and the joined tops fit; the window's pairs overflow
        "variation": np.array([0, H, 1, H + 1] * 6, dtype=np.int64),
        "float": np.arange(24, dtype=np.float64),
        # a list numpy reads as object, and some of its blocks as float64 or int64
        "list": [1, 2, 2**63 + 5, 3, 1, 2**64, 0, 4, 2, 1, 3, -(2**63) - 1] * 2,
    }

    @pytest.mark.parametrize("case", sorted(_BEYOND_INT64))
    def test_window_errors_match_standalone(self, case):
        values = self._BEYOND_INT64[case]
        times = np.arange(len(values), dtype=np.int64) * SECOND_NS
        cfg = RollingConfig(window=12 * SECOND_NS, step=4 * SECOND_NS)
        want = standalone_error(values, times, cfg)
        assert isinstance(want, TypeError if case == "float" else ValueError)
        with pytest.raises(type(want)) as info:
            rolling_fit(values, times, cfg)
        assert type(info.value) is type(want)
        assert str(info.value) == str(want)


@st.composite
def _tied_series(draw, max_size: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Small-range values (ties, plateaus) on non-decreasing times with repeats."""
    n = draw(st.integers(0, max_size))
    hi = draw(st.sampled_from([1, 2, 4, 9]))
    values = draw(st.lists(st.integers(0, hi), min_size=n, max_size=n))
    gaps = draw(st.lists(st.sampled_from([0, 0, 1, 1, 2, 7]), min_size=n, max_size=n))
    return np.array(values, dtype=np.int64), np.cumsum(np.array(gaps, dtype=np.int64))


def _top_sequence(dec) -> tuple[list[int], list[int]]:
    top = dec.top
    times = [e.time for e in top.extrema] + ([] if top.pending is None else [top.pending.time])
    values = [e.value for e in top.extrema] + ([] if top.pending is None else [top.pending.value])
    return times, values


class TestMergeLaw:
    """Sizes of a whole series = sizes inside its pieces + sizes of their joined tops."""

    @given(_tied_series(), st.lists(st.integers(0, 60), max_size=5))
    @settings(max_examples=400, deadline=None)
    def test_sizes_of_cut_series(self, series, cuts):
        values, times = series
        edges = [0, *sorted(min(c, values.size) for c in cuts), values.size]
        sizes, top_t, top_v = [], [], []
        for a, b in zip(edges, edges[1:]):
            piece = decompose(values[a:b], times[a:b])
            sizes += piece.sizes().tolist()
            tt, tv = _top_sequence(piece)
            top_t += tt
            top_v += tv
        sizes += decompose(np.array(top_v, dtype=np.int64), np.array(top_t, dtype=np.int64)).sizes().tolist()
        assert sorted(sizes) == sorted(decompose(values, times).sizes().tolist())


def _with_gaps(times: np.ndarray, at: list[int], gap: int) -> np.ndarray:
    times = times.copy()
    for k in at:
        times[k:] += gap
    return times


class TestCost:
    @pytest.mark.parametrize(
        "window, step, n_windows", [(8_000, 1_000, 42), (5_000, 1_300, 35), (8_000, 3_000, 14)]
    )
    def test_each_sample_decomposed_about_once(self, monkeypatch, window, step, n_windows):
        times, values = gen_random_walk(50_000, seed=9, kind="gauss", dt=SECOND_NS)
        cfg = RollingConfig(window=window * SECOND_NS, step=step * SECOND_NS)
        seen = []

        def counting_decompose(v, t=None):
            seen.append(len(v))
            return decompose(v, t)

        monkeypatch.setattr(rolling, "decompose", counting_decompose)
        monkeypatch.setattr(core, "decompose", counting_decompose)
        pts = rolling_fit(values, times, cfg)
        assert len(pts) == n_windows
        # Each sample is decomposed once in its block; per window only the
        # blocks' tops are decomposed again.
        assert sum(seen) < 1.3 * values.size
        # Both are peeled, and a walk never reaches the round cap.
        assert seen == []

    def test_every_window_fitted_in_one_batch(self, monkeypatch):
        times, values = gen_random_walk(20_000, seed=9, kind="gauss", dt=SECOND_NS)
        batches = []

        def counting_fit_many(sets, **kw):
            batches.append(len(sets))
            return fit_many(sets, **kw)

        monkeypatch.setattr(rolling, "fit_many", counting_fit_many)
        pts = rolling_fit(values, times, RollingConfig(window=4_000 * SECOND_NS, step=1_000 * SECOND_NS))
        assert batches == [len(pts)] == [16]


class TestMatchesScalarFit:
    def test_every_window_equals_the_per_candidate_reference(self):
        # The reference runs one scalar bounded search per cutoff candidate.
        times, values = gen_random_walk(100_000, seed=11, kind="gauss", dt=SECOND_NS)
        cfg = RollingConfig(window=20_000 * SECOND_NS, step=5_000 * SECOND_NS)
        pts = rolling_fit(values, times, cfg)
        assert len(pts) == 16
        for p in pts:
            mask = (times >= p.window_end - cfg.window) & (times <= p.window_end)
            assert p.fit == reference.fit(decompose(values[mask], times[mask]))


class TestMatchesStandalone:
    """rolling_fit equals a standalone decompose + fit, window by window."""

    def _check(self, values, times, cfg):
        got = rolling_fit(values, times, cfg)
        assert got == standalone(values, times, cfg)
        return got

    @pytest.mark.parametrize("seed", [1, 2])
    def test_plateau_heavy_pm1(self, seed):
        times, values = gen_random_walk(30_000, seed=seed, kind="pm1", zero_prob=0.6, dt=SECOND_NS)
        pts = self._check(values, times, RollingConfig(window=6_000 * SECOND_NS, step=1_500 * SECOND_NS))
        assert {p.status for p in pts} == {"ok"}

    def test_window_not_a_multiple_of_step(self):
        times, values = gen_random_walk(20_000, seed=4, kind="pm1", zero_prob=0.3, dt=SECOND_NS)
        self._check(values, times, RollingConfig(window=5_000 * SECOND_NS, step=1_300 * SECOND_NS))

    def test_step_equals_window(self):
        times, values = gen_random_walk(20_000, seed=5, kind="gauss", dt=SECOND_NS)
        self._check(values, times, RollingConfig(window=4_000 * SECOND_NS, step=4_000 * SECOND_NS))

    def test_samples_at_both_window_edges(self):
        # Several samples share each time, and every window edge is a time.
        times, values = gen_random_walk(24_000, seed=6, kind="pm1", zero_prob=0.2)
        times = (times // 4) * SECOND_NS
        cfg = RollingConfig(window=1_000 * SECOND_NS, step=250 * SECOND_NS)
        pts = self._check(values, times, cfg)
        for p in pts:
            assert np.count_nonzero(times == p.window_end) == 4
            assert np.count_nonzero(times == p.window_end - cfg.window) == 4

    def test_gaps_longer_than_step_and_window(self):
        times, values = gen_random_walk(20_000, seed=7, kind="pm1", zero_prob=0.3, dt=SECOND_NS)
        times = _with_gaps(times, [3_000, 11_000], 2_500 * SECOND_NS)  # empty blocks
        times = _with_gaps(times, [16_000], 9_000 * SECOND_NS)  # empty windows
        pts = self._check(values, times, RollingConfig(window=4_000 * SECOND_NS, step=1_000 * SECOND_NS))
        assert any(p.pair_count == 0 for p in pts)

    def test_insufficient_tail_windows(self):
        _, a = gen_random_walk(30_000, seed=5, kind="pm1")
        flat = np.full(30_000, a[-1], dtype=np.int64)
        values = np.concatenate([a, flat, a[::-1]])
        times = np.arange(values.size, dtype=np.int64) * SECOND_NS
        pts = self._check(values, times, RollingConfig(window=20_000 * SECOND_NS, step=7_000 * SECOND_NS))
        assert {p.status for p in pts} == {"ok", "insufficient_tail"}

    def test_fewer_windows_than_steps_per_window(self):
        # 6 windows of 100 steps: blocks are cut only at the window edges,
        # so one block spans most of every window.
        times, values = gen_random_walk(10_500, seed=8, kind="gauss", dt=SECOND_NS // 100)
        self._check(values, times, RollingConfig(window=100 * SECOND_NS, step=SECOND_NS))

    @given(_tied_series(max_size=80), st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_tied_series_any_geometry(self, series, window, step):
        values, times = series
        cfg = RollingConfig(window=max(window, step), step=step, min_tail=2)
        if values.size == 0 or cfg.window > int(times[-1] - times[0]):
            return
        self._check(values, times, cfg)
