from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy
from scipy.special import zeta
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_powerlaw as reference
from persistick import powerlaw
from persistick.core import decompose
from persistick.oracle import gen_discrete_powerlaw, gen_random_walk
from persistick.powerlaw import (
    InsufficientTailError,
    PowerLawFit,
    fit,
    fit_many,
    ks_distance,
    mle_count_exponent,
)
from persistick.rolling import RollingConfig, rolling_fit
from persistick.spectrum import SizeHistogram, histogram


class TestMLE:
    def test_recovers_generator_exponent(self):
        sizes = gen_discrete_powerlaw(100_000, 3.0, 10, seed=0)
        est = mle_count_exponent(sizes, 10)
        assert abs(est - 3.0) < 0.05

    def test_mass_at_xmin_means_steep_law(self):
        sizes = [10] * 200 + [20]
        assert mle_count_exponent(sizes, 10) > 4.0

    def test_monotone_in_tail_heaviness(self):
        light = mle_count_exponent([10, 100], 10)
        heavy = mle_count_exponent([10, 10_000], 10)
        assert heavy < light

    def test_rejects_small_or_degenerate_input(self):
        with pytest.raises(ValueError):
            mle_count_exponent([], 10)
        with pytest.raises(ValueError):
            mle_count_exponent([12], 10)
        with pytest.raises(ValueError):
            mle_count_exponent([12, 12, 12], 10)
        with pytest.raises(ValueError):
            mle_count_exponent([5, 12], 10)

    def test_estimate_tightens_with_sample_size(self):
        errs = []
        for n in (1_000, 10_000, 100_000):
            per_seed = [
                abs(mle_count_exponent(gen_discrete_powerlaw(n, 2.5, 5, seed=seed), 5) - 2.5)
                for seed in range(20)
            ]
            errs.append(float(np.median(per_seed)))
        assert errs[0] >= errs[1] >= errs[2]


class TestKS:
    def test_within_sampling_envelope_at_mle(self):
        sizes = gen_discrete_powerlaw(20_000, 3.0, 10, seed=3)
        b = mle_count_exponent(sizes, 10)
        assert ks_distance(sizes, 10, b) < 2 / np.sqrt(len(sizes))

    def test_wrong_exponent_scores_worse(self):
        sizes = gen_discrete_powerlaw(20_000, 3.0, 10, seed=4)
        b = mle_count_exponent(sizes, 10)
        assert ks_distance(sizes, 10, 1.5) > ks_distance(sizes, 10, b)

    def test_rejects_singleton_and_bad_args(self):
        with pytest.raises(ValueError):
            ks_distance([10], 10, 2.5)
        with pytest.raises(ValueError):
            ks_distance([10, 12], 10, 1.0)
        with pytest.raises(ValueError):
            ks_distance([5, 12], 10, 2.5)

    @pytest.mark.parametrize("sizes, xmin", [([1, 2, 3], 0), ([-5, 2, 3], -5)])
    def test_rejects_xmin_below_one(self, sizes, xmin):
        with pytest.raises(ValueError, match="xmin must be at least 1"):
            ks_distance(sizes, xmin, 2.0)


class TestFit:
    def test_mixture_recovers_cutoff_and_alpha(self):
        # xmin on a contaminated sample is noisy seed-to-seed; the contract
        # is on the median across seeds.
        xmins, alphas = [], []
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            noise = rng.integers(1, 10, size=30_000)
            tail = gen_discrete_powerlaw(70_000, 3.0, 10, seed=2000 + seed)
            f = fit(np.concatenate([tail, noise]))
            assert f.count_exponent == pytest.approx(f.alpha + 1.0)
            assert f.n_tail >= 50
            xmins.append(f.xmin)
            alphas.append(f.alpha)
        assert 8 <= np.median(xmins) <= 13
        assert abs(np.median(alphas) - 2.0) < 0.05

    def test_alpha_count_relation_exact(self):
        sizes = gen_discrete_powerlaw(5_000, 2.2, 4, seed=9)
        f = fit(sizes)
        assert f.alpha == f.count_exponent - 1.0

    def test_insufficient_tail(self):
        with pytest.raises(InsufficientTailError):
            fit([3, 4, 5, 6])
        with pytest.raises(InsufficientTailError):
            fit([])

    def test_min_tail_respected(self):
        sizes = gen_discrete_powerlaw(200, 2.5, 5, seed=10)
        f = fit(sizes, min_tail=100)
        tail = sizes[sizes >= f.xmin]
        assert tail.size >= 100

    def test_xmin_range_filter(self):
        sizes = gen_discrete_powerlaw(20_000, 3.0, 10, seed=11)
        f = fit(sizes, xmin_range=(12, 20))
        assert 12 <= f.xmin <= 20

    def test_accepts_histogram(self):
        sizes = gen_discrete_powerlaw(10_000, 3.0, 2, seed=12)
        uniq, counts = np.unique(sizes, return_counts=True)
        h = SizeHistogram(uniq, counts)
        fa = fit(h)
        fb = fit(sizes)
        assert fa == fb

    def test_amplitude_matches_tail_variation(self):
        sizes = gen_discrete_powerlaw(50_000, 3.0, 10, seed=13)
        f = fit(sizes)
        tail = sizes[sizes >= f.xmin]
        emp = float(2 * tail.sum())
        grid = np.arange(f.xmin, sizes.max() + 1, dtype=np.float64)
        model = float(f.amplitude * np.sum(grid**-f.alpha))
        assert model == pytest.approx(emp, rel=1e-9)

    def test_rescaling_invariance(self):
        # sizes are already in ticks, so fits of identical tick sequences
        # coming from different absolute price scales are bit-identical
        sizes = gen_discrete_powerlaw(5_000, 2.8, 3, seed=14)
        assert fit(sizes) == fit(sizes.copy())

    def test_amplitude_memory_does_not_grow_with_the_largest_size(self):
        sizes = np.r_[[1] * 100, [2] * 60, [3] * 30, [10**7]]
        tracemalloc.start()
        try:
            f = fit(sizes, min_tail=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20  # the whole float64 grid would be 80 MB
        grid = np.arange(f.xmin, 10**7 + 1, dtype=np.float64)
        np.power(grid, -f.alpha, out=grid)
        emp = float(2 * sizes[sizes >= f.xmin].sum())
        assert f.amplitude == emp / float(np.sum(grid))

    @pytest.mark.parametrize("chunk", [136, 1 << 16])
    def test_grid_sum_replays_numpy_pairwise_sum(self, monkeypatch, chunk):
        monkeypatch.setattr(powerlaw, "_SUM_CHUNK", chunk)
        rng = np.random.default_rng(44)
        lengths = [1, 7, 8, 129, 136, 137, 1 << 16, (1 << 16) + 1, (1 << 17) + 9, 1_234_567]
        for n in lengths + rng.integers(1, 300_000, size=8).tolist():
            lo, alpha = int(rng.integers(1, 10_000)), float(rng.uniform(0.01, 5.0))
            want = float(np.sum(np.arange(lo, lo + n, dtype=np.float64) ** -alpha))
            assert powerlaw._grid_power_sum(lo, n, alpha) == want

    def test_fit_is_deterministic_dataclass(self):
        sizes = gen_discrete_powerlaw(5_000, 2.8, 3, seed=15)
        f = fit(sizes)
        assert isinstance(f, PowerLawFit)
        assert f == fit(sizes)


class TestSizeChecks:
    @pytest.mark.parametrize("bad", [0, -3])
    def test_sizes_below_one_are_rejected(self, bad):
        sizes = np.r_[[bad] * 5, gen_discrete_powerlaw(2_000, 2.5, 2, seed=16)]
        with pytest.raises(ValueError, match="at least 1") as info:
            fit(sizes)
        assert not isinstance(info.value, InsufficientTailError)

    def test_range_that_excludes_every_candidate_is_named(self):
        sizes = gen_discrete_powerlaw(2_000, 2.5, 2, seed=17)
        with pytest.raises(InsufficientTailError, match=r"xmin_range \(1000000, 2000000\)"):
            fit(sizes, xmin_range=(1_000_000, 2_000_000))
        # Only the largest size lies in range, and it leaves one distinct size.
        top = int(sizes.max())
        with pytest.raises(InsufficientTailError, match="xmin_range"):
            fit(sizes, xmin_range=(top, top))

    def test_reversed_range_is_a_settings_error(self):
        # Not "no candidate in range": a range with LO > HI is never valid.
        sizes = gen_discrete_powerlaw(2_000, 2.5, 2, seed=17)
        with pytest.raises(ValueError, match=r"xmin_range \(10, 5\) has LO above HI") as info:
            fit(sizes, xmin_range=(10, 5))
        assert not isinstance(info.value, InsufficientTailError)
        assert fit(sizes, xmin_range=(5, 5)).xmin == 5

    @pytest.mark.parametrize(
        "settings, name",
        [
            ({"min_tail": 50.5}, "min_tail"),
            ({"min_tail": "50"}, "min_tail"),
            ({"xmin_range": (2.5, 3.5)}, "xmin_range"),
            ({"xmin_range": (2, "9")}, "xmin_range"),
            ({"xmin_range": 5}, "xmin_range"),
        ],
    )
    def test_settings_that_are_not_integers(self, settings, name):
        sizes = gen_discrete_powerlaw(2_000, 2.5, 2, seed=17)
        for run in (fit, lambda s, **kw: fit_many([s], **kw)):
            with pytest.raises(TypeError, match=name):
                run(sizes, **settings)
        want = fit(sizes, min_tail=50, xmin_range=(2, 9))
        assert fit(sizes, min_tail=np.int64(50), xmin_range=[np.uint8(2), np.int32(9)]) == want

    @pytest.mark.parametrize("bounds", [(2,), (2, 9, 1), ()])
    def test_range_holds_exactly_two_bounds(self, bounds):
        # One bound was an IndexError, and a third was ignored.
        sizes = gen_discrete_powerlaw(2_000, 2.5, 2, seed=17)
        for run in (fit, lambda s, **kw: fit_many([s], **kw)):
            with pytest.raises(ValueError, match=r"^xmin_range must be two bounds \(LO, HI\), got "):
                run(sizes, xmin_range=bounds)

    def test_short_tail_names_min_tail(self):
        with pytest.raises(InsufficientTailError, match="at least 50 tail samples") as info:
            fit([3, 4, 5, 6], xmin_range=(3, 6))
        assert "xmin_range" not in str(info.value)


@st.composite
def size_multisets(draw) -> np.ndarray:
    """Sizes with ties, a dominant size, two distinct sizes, or a heavy tail."""
    shape = draw(st.sampled_from(["spread", "heavy", "ties", "dominant", "two", "powerlaw"]))
    if shape == "spread":
        sizes = draw(st.lists(st.integers(1, 500), min_size=2, max_size=300))
    elif shape == "heavy":
        # Log-uniform sizes: the likelihood peaks at the bracket's lower end.
        logs = draw(st.lists(st.floats(0.0, 11.5), min_size=2, max_size=300))
        sizes = np.exp(logs).astype(np.int64).tolist()
    elif shape == "ties":
        distinct = draw(st.lists(st.integers(1, 40), min_size=1, max_size=8, unique=True))
        counts = draw(st.lists(st.integers(1, 60), min_size=len(distinct), max_size=len(distinct)))
        sizes = np.repeat(distinct, counts).tolist()
    elif shape == "dominant":
        sizes = [draw(st.integers(1, 20))] * draw(st.integers(50, 2_000))
        sizes += draw(st.lists(st.integers(1, 300), max_size=40))
    elif shape == "two":
        low = draw(st.integers(1, 30))
        sizes = [low] * draw(st.integers(1, 200)) + [low + draw(st.integers(1, 50))] * draw(
            st.integers(1, 200)
        )
    else:
        sizes = gen_discrete_powerlaw(
            draw(st.integers(2, 3_000)),
            draw(st.floats(1.3, 5.0)),
            draw(st.integers(1, 10)),
            seed=draw(st.integers(0, 2**16)),
        ).tolist()
    return np.array(sizes, dtype=np.int64)


def _reversed(xmin_range) -> bool:
    return xmin_range is not None and xmin_range[0] > xmin_range[1]


def _assert_reversed_range_raises(fn, data, **kw):
    """A range LO:HI with LO > HI is a settings error, raised whatever the data."""
    with pytest.raises(ValueError, match=r"xmin_range \(\d+, \d+\) has LO above HI") as info:
        fn(data, **kw)
    assert not isinstance(info.value, InsufficientTailError)


def _fit_or_error(fn, sizes, **kw):
    try:
        return fn(sizes, **kw)
    except InsufficientTailError:
        return InsufficientTailError


class TestBitIdentity:
    """The lockstep fit equals the per-candidate scalar reference exactly."""

    @given(
        size_multisets(),
        st.integers(2, 60),
        st.none() | st.tuples(st.integers(0, 60), st.integers(0, 80)),
    )
    @settings(max_examples=300, deadline=None)
    def test_fit_equals_reference(self, sizes, min_tail, xmin_range):
        if _reversed(xmin_range):
            _assert_reversed_range_raises(fit, sizes, min_tail=min_tail, xmin_range=xmin_range)
            return
        got = _fit_or_error(fit, sizes, min_tail=min_tail, xmin_range=xmin_range)
        want = _fit_or_error(reference.fit, sizes, min_tail=min_tail, xmin_range=xmin_range)
        assert got == want

    @given(size_multisets(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_mle_and_ks_equal_reference(self, sizes, data):
        ms, cs = np.unique(sizes, return_counts=True)
        assume(cs.sum() >= 2 and ms.size >= 2)
        xmin = data.draw(st.integers(1, int(ms[0])))
        b = mle_count_exponent(sizes, xmin)
        assert b == reference.mle_count_exponent(sizes, xmin)
        assert ks_distance(sizes, xmin, b) == reference.ks_from_counts(ms, cs, xmin, b)

    @pytest.mark.parametrize("maxfun", [1, 2, 8, 15, 20, 25])
    def test_capped_searches_fall_back_like_reference(self, monkeypatch, maxfun):
        monkeypatch.setattr(powerlaw, "_MAXFUN", maxfun)
        for seed in range(3):
            sizes = gen_discrete_powerlaw(3_000, 2.0 + seed / 2, 3, seed=40 + seed)
            assert fit(sizes, min_tail=20) == reference.fit(sizes, min_tail=20, maxiter=maxfun)
            b = mle_count_exponent(sizes, 2)
            assert b == reference.mle_count_exponent(sizes, 2, maxiter=maxfun)

    def test_capped_searches_mix_fallbacks_and_converged(self, monkeypatch):
        # With a cap of 20, some searches stop early and some converge, so the
        # previous test compares both branches within one call.
        sizes = gen_discrete_powerlaw(3_000, 2.5, 3, seed=41)
        ms, cs = np.unique(sizes, return_counts=True)
        n = np.cumsum(cs[::-1])[::-1][:-1]
        log_sum = np.cumsum((cs * np.log(ms))[::-1])[::-1][:-1]
        full = powerlaw._mle_exponents(ms[:-1], n, log_sum)
        monkeypatch.setattr(powerlaw, "_MAXFUN", 20)
        capped = powerlaw._mle_exponents(ms[:-1], n, log_sum)
        closed = np.clip(1.0 + n / (log_sum - n * np.log(ms[:-1] - 0.5)), 1.01, 6.0)
        fell_back = capped != full
        assert fell_back.any() and not fell_back.all()
        assert np.array_equal(capped[fell_back], closed[fell_back])

    def test_ks_batches_split_tails_exactly(self, monkeypatch):
        sizes = gen_discrete_powerlaw(20_000, 2.2, 1, seed=42)
        want = fit(sizes, min_tail=5)
        monkeypatch.setattr(powerlaw, "_KS_BLOCK", 7)
        assert fit(sizes, min_tail=5) == want == reference.fit(sizes, min_tail=5)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_mixed_lanes_with_nan_and_infinite_objectives(self):
        # Lanes whose objective is NaN or infinite take scipy's failure
        # branch while the finite lanes of the same call converge.
        lanes = [(2, 10, 9.0), (2, 10, np.nan), (0, 10, 5.0), (1, 10, np.inf), (3, 40, 60.0)]
        xmin, n, log_sum = (np.array(c, dtype=np.float64) for c in zip(*lanes))
        got = powerlaw._mle_exponents(xmin, n, log_sum)
        want = np.array([reference.mle_from_counts(*lane) for lane in lanes])
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got[1]) and np.isfinite(got[0]) and np.isfinite(got[4])

    def test_ties_go_to_the_earliest_candidate(self, monkeypatch):
        sizes = gen_discrete_powerlaw(3_000, 2.5, 3, seed=43)
        monkeypatch.setattr(powerlaw, "_ks_distances", lambda ms, cs, cand, xmin, b: np.full(cand.size, 0.5))
        assert fit(sizes, min_tail=5).xmin == int(sizes.min())
        assert fit(sizes, min_tail=5, xmin_range=(5, 9)).xmin == 5

    @pytest.mark.skipif(
        not scipy.__version__.startswith("1.17."),
        reason="the reference's bounded search is a copy of scipy 1.17.1's",
    )
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_frozen_search_equals_installed_scipy(self):
        from scipy.optimize import minimize_scalar

        lanes = [(2, 10, 9.0), (2, 10, np.nan), (0, 10, 5.0), (1, 10, np.inf), (3, 40, 60.0)]
        for seed in range(3):
            ms, cs = np.unique(gen_discrete_powerlaw(2_000, 1.5 + seed, 2, seed=45 + seed), return_counts=True)
            n = np.cumsum(cs[::-1])[::-1]
            log_sum = np.cumsum((cs * np.log(ms))[::-1])[::-1]
            lanes += list(zip(ms[:-1].tolist(), n[:-1].tolist(), log_sum[:-1].tolist()))
        for maxiter in (1, 2, 8, 20, 500):
            for lane in lanes:
                f = reference.neg_log_likelihood(*lane)
                got = reference._minimize_scalar_bounded(f, powerlaw._BRACKET, xatol=1e-9, maxiter=maxiter)
                want = minimize_scalar(
                    f, bounds=powerlaw._BRACKET, method="bounded",
                    options={"xatol": 1e-9, "maxiter": maxiter},
                )
                assert repr((float(got.x), float(got.fun), got.status, got.nfev)) == repr(
                    (float(want.x), float(want.fun), want.status, want.nfev)
                )


def _fit_or_none(sizes, **kw):
    try:
        return fit(sizes, **kw)
    except InsufficientTailError:
        return None


class TestFitMany:
    """fit_many of many sets equals fit of each set alone, with None for fit's error."""

    @given(
        st.lists(
            size_multisets()
            | st.just(np.array([], dtype=np.int64))
            | st.lists(st.integers(1, 9), max_size=5).map(np.array),
            max_size=6,
        ),
        st.integers(2, 60),
        st.none() | st.tuples(st.integers(0, 60), st.integers(0, 80)),
        st.sampled_from([None, 1, 2, 8, 20]),
        st.sampled_from([None, 7]),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_fit_of_each_set(self, sets, min_tail, xmin_range, maxfun, ks_block):
        with mock.patch.object(powerlaw, "_MAXFUN", maxfun or powerlaw._MAXFUN), mock.patch.object(
            powerlaw, "_KS_BLOCK", ks_block or powerlaw._KS_BLOCK
        ):
            if _reversed(xmin_range):
                _assert_reversed_range_raises(
                    fit_many, sets, min_tail=min_tail, xmin_range=xmin_range
                )
                return
            got = fit_many(sets, min_tail=min_tail, xmin_range=xmin_range)
            want = [_fit_or_none(s, min_tail=min_tail, xmin_range=xmin_range) for s in sets]
        assert got == want

    def test_checks_raise_as_fit_does(self):
        with pytest.raises(ValueError, match="at least 1"):
            fit_many([[3, 4], [0, 5]], min_tail=2)
        with pytest.raises(ValueError, match="min_tail"):
            fit_many([[3, 4]], min_tail=1)
        assert fit_many([], min_tail=2) == []
        # A bad min_tail or a reversed xmin_range raises the same error whatever the data.
        for sets in ([], [[]], [[], [3, 4]], [[0, 5]]):
            with pytest.raises(ValueError, match="min_tail must be at least 2"):
                fit_many(sets, min_tail=1)
            _assert_reversed_range_raises(fit_many, sets, min_tail=2, xmin_range=(10, 5))
            for s in sets:
                with pytest.raises(ValueError, match="min_tail must be at least 2"):
                    fit(s, min_tail=1)
                _assert_reversed_range_raises(fit, s, min_tail=2, xmin_range=(10, 5))

    def test_earliest_of_tied_distances_wins_after_pruning(self, monkeypatch):
        # Sizes 1..40 once each: candidate s has s sizes below its cutoff.
        # Made-up gaps: candidate 0 peaks at 0.5 on its first point, candidate
        # 1 peaks at 0.5 past the first pass, and every later one starts at
        # 0.9.  Candidate 1 is measured first, so candidate 0 survives only if
        # a bound equal to the best distance is kept.
        def gap(s: int, j: int) -> float:
            if s == 0:
                return 0.5 if j == 0 else 0.1
            if s == 1:
                return 0.5 if j == 30 else 0.1
            return 0.9 if j == 0 else 0.1

        def fake_gaps(ms, cum, first, stop, below, total, exponent, norm):
            return np.array([
                max(gap(s, j - s) for j in range(f, t))
                for s, f, t in zip(below.tolist(), first.tolist(), stop.tolist())
            ])

        monkeypatch.setattr(powerlaw, "_ks_gaps", fake_gaps)
        f = fit(np.arange(1, 41), min_tail=2)
        assert (f.xmin, f.ks_distance) == (1, 0.5)

    def test_pruning_skips_most_tail_points(self, monkeypatch):
        evaluated, total = [], []
        ks_gaps, ks_distances = powerlaw._ks_gaps, powerlaw._ks_distances

        def counting_gaps(ms, cum, first, stop, *rest):
            evaluated.append(int((stop - first).sum()))
            return ks_gaps(ms, cum, first, stop, *rest)

        def counting_distances(ms, cs, starts, stops, exponent):
            total.append(int((stops - starts).sum()))
            return ks_distances(ms, cs, starts, stops, exponent)

        monkeypatch.setattr(powerlaw, "_ks_gaps", counting_gaps)
        monkeypatch.setattr(powerlaw, "_ks_distances", counting_distances)
        times, values = gen_random_walk(100_000, seed=11, kind="gauss", dt=10**9)
        pts = rolling_fit(values, times, RollingConfig(window=20_000 * 10**9, step=5_000 * 10**9))
        assert len(pts) == 16 and len(total) == 1
        assert sum(evaluated) < total[0] / 2


class TestNeighbourLeads:
    """Sets led by a nearby set's winning cutoff fit exactly as alone."""

    @pytest.fixture(scope="class")
    def windows(self) -> list[SizeHistogram]:
        # Size histograms of 20 overlapping windows of one seeded walk.
        _, values = gen_random_walk(60_000, seed=5, kind="gauss", sigma=10.0)
        return [histogram(decompose(values[a : a + 20_000])) for a in range(0, 40_000, 2_000)]

    def test_any_order_equals_fit_of_each_set(self, windows):
        # The order decides which set leads which.
        want = [fit(h) for h in windows]
        shuffled = np.random.default_rng(0).permutation(len(windows)).tolist()
        for order in (list(range(len(windows))), list(range(len(windows)))[::-1], shuffled):
            assert fit_many([windows[i] for i in order]) == [want[i] for i in order]

    @pytest.mark.parametrize("lead", ["missing", "largest"])
    def test_set_with_a_missing_or_poor_lead_equals_fit(self, windows, lead):
        # Set 1 is led by set 0's winning cutoff: absent from set 1, or its largest candidate.
        won = fit(windows[0]).xmin
        sizes = np.repeat(windows[1].sizes, windows[1].counts)
        if lead == "missing":
            sizes = sizes[sizes != won]
        else:
            sizes = np.concatenate((sizes[sizes < won], [won] * 60, [won + 1] * 60))
        assert won in windows[0].sizes and (won in sizes) == (lead == "largest")
        sets = [windows[0], sizes, *windows[2:4]]
        assert fit_many(sets) == [fit(s) for s in sets]

    def test_leads_cut_the_tail_points_evaluated(self, monkeypatch, windows):
        evaluated = []
        ks_gaps = powerlaw._ks_gaps

        def counting_gaps(ms, cum, first, stop, *rest):
            evaluated.append(int((stop - first).sum()))
            return ks_gaps(ms, cum, first, stop, *rest)

        monkeypatch.setattr(powerlaw, "_ks_gaps", counting_gaps)
        led = fit_many(windows)
        led_points = sum(evaluated)
        evaluated.clear()
        monkeypatch.setattr(powerlaw, "_KS_STRIDE", 1)  # every set led by its own probes
        assert fit_many(windows) == led
        assert led_points < 0.8 * sum(evaluated)


class TestSharedCutoffs:
    @pytest.mark.parametrize("maxfun", [2, 3, 500])
    def test_repeated_cutoffs_give_the_bits_of_one_call_each(self, monkeypatch, maxfun):
        # Tails of three sets: most cutoffs recur with other counts and log-sums.
        lanes = []
        for seed in range(3):
            sizes = gen_discrete_powerlaw(2_000, 2.0 + seed / 3, 2, seed=60 + seed)
            ms, cs = np.unique(sizes, return_counts=True)
            n = np.cumsum(cs[::-1])[::-1]
            log_sum = np.cumsum((cs * np.log(ms))[::-1])[::-1]
            lanes += zip(ms[:-1].tolist(), n[:-1].tolist(), log_sum[:-1].tolist())
        xmin, n, log_sum = (np.array(c, dtype=np.float64) for c in zip(*lanes))
        assert np.unique(xmin).size < xmin.size
        monkeypatch.setattr(powerlaw, "_MAXFUN", maxfun)
        one_each = np.array([powerlaw._mle_exponents([x], [c], [s])[0] for x, c, s in lanes])
        evaluated = []

        def counting_zeta(b, x):
            evaluated.append(np.broadcast(b, x).size)
            return zeta(b, x)

        monkeypatch.setattr(powerlaw, "zeta", counting_zeta)
        together = powerlaw._mle_exponents(xmin, n, log_sum)
        assert together.tobytes() == one_each.tobytes()
        # The first two evaluations are shared: once per distinct cutoff.
        assert evaluated[:2] == [np.unique(xmin).size] * 2
