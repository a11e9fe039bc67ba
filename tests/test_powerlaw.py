from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_powerlaw as reference
from persistick import powerlaw
from persistick.oracle import gen_discrete_powerlaw
from persistick.powerlaw import (
    InsufficientTailError,
    PowerLawFit,
    fit,
    ks_distance,
    mle_count_exponent,
)
from persistick.spectrum import SizeHistogram


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
        h = SizeHistogram(dict(zip(uniq.tolist(), counts.tolist())), int(sizes.size))
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
