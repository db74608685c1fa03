"""Tests for streaming / in-situ sampling."""

import numpy as np
import pytest

from repro.sampling.pipeline import run_stream_subsample
from repro.sampling.streaming import (
    ReservoirSampler,
    ReservoirStream,
    StreamingMaxEnt,
)


class TestReservoir:
    def test_keeps_everything_under_capacity(self):
        r = ReservoirSampler(10, rng=0)
        r.feed(np.arange(5.0)[:, None])
        assert r.sample.shape == (5, 1)
        assert sorted(r.sample[:, 0]) == [0, 1, 2, 3, 4]

    def test_capacity_bound(self):
        r = ReservoirSampler(8, rng=0)
        for _ in range(10):
            r.feed(np.random.default_rng(1).random((100, 2)))
        assert r.sample.shape == (8, 2)
        assert r.n_seen == 1000

    def test_approximately_uniform(self):
        """Every stream element must be retained with ~equal probability."""
        hits = np.zeros(100)
        for seed in range(300):
            r = ReservoirSampler(10, rng=seed)
            r.feed(np.arange(100.0)[:, None])
            hits[r.sample[:, 0].astype(int)] += 1
        expected = 300 * 10 / 100
        # Chi-square-ish sanity: no element wildly over/under-represented.
        assert hits.min() > expected * 0.3
        assert hits.max() < expected * 2.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            ReservoirSampler(5).sample
        with pytest.raises(ValueError):
            ReservoirSampler(0)

    def test_len_is_public(self):
        r = ReservoirSampler(8, rng=0)
        assert len(r) == 0
        r.feed(np.arange(3.0)[:, None])
        assert len(r) == 3
        r.feed(np.arange(20.0)[:, None])
        assert len(r) == 8

    def test_width_mismatch_raises(self):
        r = ReservoirSampler(4, rng=0)
        r.feed(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="width"):
            r.feed(np.zeros((3, 5)))

    def test_reservoir_rows_are_copies(self):
        chunk = np.arange(6.0).reshape(3, 2)
        r = ReservoirSampler(5, rng=0)
        r.feed(chunk)
        chunk[:] = -1.0
        assert r.sample.min() >= 0.0

    def test_algorithm_r_distribution_chi_square(self):
        """Satellite: the vectorized feed must preserve Algorithm R's
        uniform retention law — chi-square over element retention counts,
        with ragged chunk sizes so the batched path is exercised."""
        from scipy import stats

        n, cap, trials = 60, 12, 600
        chunks = [7, 1, 23, 4, 25]  # sums to 60; crosses the fill boundary
        hits = np.zeros(n)
        for seed in range(trials):
            r = ReservoirSampler(cap, rng=seed)
            stream = np.arange(float(n))[:, None]
            lo = 0
            for c in chunks:
                r.feed(stream[lo:lo + c])
                lo += c
            assert r.n_seen == n and len(r) == cap
            hits[r.sample[:, 0].astype(int)] += 1
        # Each element retained with probability cap/n; chi-square GoF.
        expected = trials * cap / n
        chi2 = ((hits - expected) ** 2 / expected).sum()
        p = stats.chi2.sf(chi2, df=n - 1)
        assert p > 1e-3, f"retention not uniform (chi2={chi2:.1f}, p={p:.2e})"

    def test_single_row_chunks_match_distribution_of_batched(self):
        """Feeding row-by-row and chunk-at-once draw from the same law."""
        means = []
        for chunked in (True, False):
            keep = []
            for seed in range(200):
                r = ReservoirSampler(5, rng=seed)
                stream = np.arange(50.0)[:, None]
                if chunked:
                    r.feed(stream)
                else:
                    for row in stream:
                        r.feed(row[None, :])
                keep.append(r.sample[:, 0].mean())
            means.append(np.mean(keep))
        # Uniform retention ⇒ both means near the stream mean (24.5).
        assert abs(means[0] - means[1]) < 2.0
        assert abs(means[0] - 24.5) < 2.0


class TestStreamingMaxEnt:
    def _bimodal_stream(self, seed=0, n_chunks=20, chunk=500, rare_frac=0.02):
        rng = np.random.default_rng(seed)
        for _ in range(n_chunks):
            n_rare = max(1, int(chunk * rare_frac))
            vals = np.concatenate([
                rng.standard_normal(chunk - n_rare) * 0.5,
                8.0 + rng.standard_normal(n_rare) * 0.5,
            ])
            rng.shuffle(vals)
            yield vals

    def test_single_pass_budget(self):
        s = StreamingMaxEnt(n_samples=300, value_range=(-4, 11), n_clusters=6, rng=0)
        for chunk in self._bimodal_stream():
            s.feed(chunk)
        out = s.finalize()
        assert out.shape[0] == 300
        assert s.n_seen == 20 * 500

    def test_oversamples_rare_mode_like_offline(self):
        """The streaming sampler must keep MaxEnt's tail-seeking behaviour."""
        s = StreamingMaxEnt(n_samples=300, value_range=(-4, 11), n_clusters=6, rng=0)
        for chunk in self._bimodal_stream():
            s.feed(chunk)
        vals = s.finalize()[:, 0]
        rare_share = (vals > 4.0).mean()
        assert rare_share > 0.1  # 5x the 2% population share

    def test_payload_carried(self):
        s = StreamingMaxEnt(n_samples=50, value_range=(0, 1), n_clusters=3, rng=0)
        rng = np.random.default_rng(2)
        vals = rng.random(500)
        payload = np.column_stack([np.arange(500.0), np.arange(500.0) * 2])
        s.feed(vals, payload)
        rows = s.finalize()
        assert rows.shape == (50, 3)
        # payload columns stay consistent (col2 = 2 * col1).
        assert np.allclose(rows[:, 2], 2 * rows[:, 1])

    def test_to_pointset(self):
        s = StreamingMaxEnt(n_samples=40, value_range=(0, 1), n_clusters=3, rng=0)
        rng = np.random.default_rng(3)
        coords = rng.random((400, 3))
        s.feed(rng.random(400), coords)
        ps = s.to_pointset(coords_cols=3)
        assert len(ps) == 40
        assert ps.coords.shape == (40, 3)
        assert ps.meta["method"] == "streaming-maxent"

    def test_small_stream_returns_what_exists(self):
        s = StreamingMaxEnt(n_samples=100, value_range=(0, 1), n_clusters=2, rng=0)
        s.feed(np.random.default_rng(4).random(30))
        assert s.finalize().shape[0] == 30

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingMaxEnt(n_samples=0, value_range=(0, 1))
        with pytest.raises(ValueError):
            StreamingMaxEnt(n_samples=5, value_range=(1, 0))
        with pytest.raises(ValueError):
            StreamingMaxEnt(n_samples=5, value_range=(0, 1)).finalize()
        s = StreamingMaxEnt(n_samples=5, value_range=(0, 1))
        with pytest.raises(ValueError):
            s.feed(np.ones(4), np.ones((3, 1)))

    def test_matches_offline_maxent_tail_behaviour(self):
        """Streaming and offline MaxEnt enrich tails to a similar degree."""
        from repro.sampling import MaxEntSampler

        rng = np.random.default_rng(5)
        values = np.concatenate([
            rng.standard_normal(9800) * 0.5,
            8.0 + rng.standard_normal(200) * 0.5,
        ])
        offline_idx = MaxEntSampler(n_clusters=6).sample(values[:, None], 500, rng=0)
        offline_share = (values[offline_idx] > 4.0).mean()

        # Stream in shuffled order (in-situ chunks interleave regimes); a
        # sorted stream would starve the online clusters of early contrast.
        shuffled = values[np.random.default_rng(6).permutation(len(values))]
        s = StreamingMaxEnt(n_samples=500, value_range=(-4, 11), n_clusters=6, rng=0)
        for lo in range(0, 10000, 1000):
            s.feed(shuffled[lo : lo + 1000])
        stream_share = (s.finalize()[:, 0] > 4.0).mean()
        # Single-pass with bounded memory keeps a substantial fraction of the
        # offline sampler's tail enrichment, far above the 2% population share.
        assert stream_share > 0.4 * offline_share
        assert stream_share > 0.05

    def test_no_private_reservoir_access(self):
        """finalize() goes through the public len(); _items is gone."""
        r = ReservoirSampler(3, rng=0)
        assert not hasattr(r, "_items")


class TestReservoirMerge:
    def test_merged_k_rank_reservoir_uniform_chi_square(self):
        """Satellite: a K-producer reservoir merged by weighted draw must
        retain every element of the union stream with equal probability —
        chi-square GoF over uneven partitions."""
        from scipy import stats

        n, cap, trials = 60, 12, 600
        spans = [(0, 9), (9, 33), (33, 60)]  # deliberately unequal producers
        hits = np.zeros(n)
        stream = np.arange(float(n))[:, None]
        for seed in range(trials):
            parts = []
            for k, (lo, hi) in enumerate(spans):
                r = ReservoirSampler(cap, rng=(seed, k))
                r.feed(stream[lo:hi])
                parts.append(r)
            merged = ReservoirSampler.merge_all(parts, rng=(seed, 99))
            assert merged is parts[0]
            assert merged.n_seen == n and len(merged) == cap
            hits[merged.sample[:, 0].astype(int)] += 1
        expected = trials * cap / n
        chi2 = ((hits - expected) ** 2 / expected).sum()
        p = stats.chi2.sf(chi2, df=n - 1)
        assert p > 1e-3, f"merged retention not uniform (chi2={chi2:.1f}, p={p:.2e})"

    def test_merge_all_deterministic_for_fixed_seed(self):
        """Satellite: same per-rank states + same merge seed → bit-identical
        merged reservoir."""
        def build():
            parts = []
            for k in range(3):
                r = ReservoirSampler(8, rng=k)
                r.feed(np.arange(20.0 * k, 20.0 * k + 20.0)[:, None])
                parts.append(r)
            return parts

        a = ReservoirSampler.merge_all(build(), rng=42).sample
        b = ReservoirSampler.merge_all(build(), rng=42).sample
        assert np.array_equal(a, b)
        c = ReservoirSampler.merge_all(build(), rng=43).sample
        assert not np.array_equal(a, c)  # the draw really depends on the seed

    def test_pairwise_merge_counts_and_weights(self):
        a = ReservoirSampler(4, rng=0)
        a.feed(np.zeros((100, 2)))
        b = ReservoirSampler(4, rng=1)
        b.feed(np.ones((50, 2)))
        a.merge(b, rng=2)
        assert a.n_seen == 150
        assert len(a) == 4

    def test_merge_weight_biases_the_draw(self):
        """An explicit weight overrides n_seen: weighting one producer
        ~1000x should dominate the merged reservoir."""
        ones = 0
        for seed in range(30):
            a = ReservoirSampler(10, rng=(seed, 0))
            a.feed(np.zeros((100, 1)))
            b = ReservoirSampler(10, rng=(seed, 1))
            b.feed(np.ones((100, 1)))
            a.merge(b, weight=1e5, rng=(seed, 2))
            ones += int(a.sample[:, 0].sum())
        assert ones > 0.9 * 30 * 10

    def test_merge_all_honors_weight_of_fold_target(self):
        """Regression: weights[0] reweights the first reservoir (via
        reweight()) instead of being silently dropped."""
        ones = 0
        for seed in range(20):
            a = ReservoirSampler(10, rng=(seed, 0))
            a.feed(np.zeros((100, 1)))
            b = ReservoirSampler(10, rng=(seed, 1))
            b.feed(np.ones((100, 1)))
            m = ReservoirSampler.merge_all([a, b], weights=[1.0, 100.0],
                                           rng=(seed, 2))
            ones += int(m.sample[:, 0].sum())
        assert ones / (20 * 10) > 0.9

    def test_chained_weighted_merge_keeps_proportions(self):
        """Regression: an explicit up-weight survives later merges — the
        merged mass is tracked as stream_mass, not raw row counts."""
        twos = 0
        for seed in range(20):
            a = ReservoirSampler(10, rng=(seed, 0))
            a.feed(np.zeros((100, 1)))
            b = ReservoirSampler(10, rng=(seed, 1))
            b.feed(np.ones((100, 1)))
            c = ReservoirSampler(10, rng=(seed, 2))
            c.feed(np.full((100, 1), 2.0))
            a.merge(b, weight=1e5, rng=(seed, 3))
            assert a.stream_mass == 100 + 1e5
            a.merge(c, rng=(seed, 4))  # c's mass 100 vs accumulated ~1e5
            twos += int((a.sample[:, 0] == 2.0).sum())
        assert twos / (20 * 10) < 0.05

    def test_reweight_validation(self):
        r = ReservoirSampler(4, rng=0)
        with pytest.raises(ValueError, match="mass"):
            r.reweight(0.0)
        r.feed(np.zeros((5, 1)))
        r.reweight(2.5)
        assert r.stream_mass == 2.5 and r.n_seen == 5

    def test_merge_empty_other_is_noop(self):
        a = ReservoirSampler(4, rng=0)
        a.feed(np.arange(10.0)[:, None])
        before = a.sample.copy()
        a.merge(ReservoirSampler(4, rng=1), rng=2)
        assert np.array_equal(a.sample, before) and a.n_seen == 10

    def test_merge_into_empty_adopts_other(self):
        a = ReservoirSampler(4, rng=0)
        b = ReservoirSampler(4, rng=1)
        b.feed(np.arange(3.0)[:, None])
        a.merge(b, rng=2)
        assert a.n_seen == 3 and len(a) == 3
        assert sorted(a.sample[:, 0]) == [0.0, 1.0, 2.0]

    def test_merge_validation(self):
        a = ReservoirSampler(4, rng=0)
        a.feed(np.zeros((5, 2)))
        b = ReservoirSampler(4, rng=1)
        b.feed(np.zeros((5, 3)))
        with pytest.raises(ValueError, match="width"):
            a.merge(b)
        with pytest.raises(TypeError):
            a.merge(object())
        c = ReservoirSampler(4, rng=2)
        c.feed(np.zeros((5, 2)))
        with pytest.raises(ValueError, match="weight"):
            a.merge(c, weight=0.0)

    def test_under_capacity_merge_keeps_everything(self):
        """Two producers that together fit in capacity lose nothing."""
        a = ReservoirSampler(20, rng=0)
        a.feed(np.arange(5.0)[:, None])
        b = ReservoirSampler(20, rng=1)
        b.feed(np.arange(5.0, 12.0)[:, None])
        a.merge(b, rng=2)
        assert sorted(a.sample[:, 0]) == list(np.arange(12.0))


class TestStreamSamplerMergeContract:
    def test_base_merge_raises_not_implemented(self):
        from repro.sampling import StreamSampler

        class NoMerge(StreamSampler):
            def __init__(self):
                self.n_seen = 1

            def feed(self, values, payload=None):
                pass

            def finalize(self):
                return np.zeros((1, 1))

        with pytest.raises(NotImplementedError, match="multi-producer"):
            NoMerge().merge(NoMerge())

    def test_merge_all_validation(self):
        from repro.sampling import StreamSampler

        with pytest.raises(ValueError, match="at least one"):
            StreamSampler.merge_all([])
        a = ReservoirStream(4, rng=0)
        a.feed(np.arange(5.0))
        m = StreamingMaxEnt(n_samples=4, value_range=(0, 1), rng=0)
        with pytest.raises(TypeError, match="mixed"):
            StreamSampler.merge_all([a, m])
        b = ReservoirStream(4, rng=1)
        b.feed(np.arange(5.0))
        with pytest.raises(ValueError, match="weights"):
            StreamSampler.merge_all([a, b], weights=[1.0])

    def test_reservoir_stream_merge(self):
        a = ReservoirStream(8, rng=0)
        b = ReservoirStream(8, rng=1)
        rng = np.random.default_rng(2)
        va, vb = rng.random(30), rng.random(50)
        a.feed(va, np.column_stack([va * 2, va * 3]))
        b.feed(vb, np.column_stack([vb * 2, vb * 3]))
        merged = a.merge(b, rng=3)
        assert merged is a and a.n_seen == 80
        rows = a.finalize()
        assert rows.shape == (8, 3)
        assert np.allclose(rows[:, 1], 2 * rows[:, 0])  # payload stays paired


class TestStreamingMaxEntMerge:
    def _feed(self, sampler, values, chunk=500):
        for lo in range(0, len(values), chunk):
            sampler.feed(values[lo:lo + chunk])
        return sampler

    def test_merged_keeps_budget_and_both_modes(self):
        rng = np.random.default_rng(0)
        lowv = rng.standard_normal(6000) * 0.5
        rare = 8.0 + rng.standard_normal(150) * 0.5
        all_vals = np.concatenate([lowv, rare])
        all_vals = all_vals[np.random.default_rng(1).permutation(len(all_vals))]
        half = len(all_vals) // 2
        a = self._feed(StreamingMaxEnt(300, (-4, 11), n_clusters=6, rng=2),
                       all_vals[:half])
        b = self._feed(StreamingMaxEnt(300, (-4, 11), n_clusters=6, rng=3),
                       all_vals[half:])
        merged = StreamingMaxEnt.merge_all([a, b], rng=4)
        assert merged.n_seen == len(all_vals)
        out = merged.finalize()
        assert out.shape[0] == 300
        # Tail-seeking behaviour survives the merge.
        assert (out[:, 0] > 4.0).mean() > 0.1

    def test_merge_matches_single_producer_distribution(self):
        """Acceptance-style: merged two-producer MaxEnt tracks the single
        producer's sample-value distribution within a KS bound."""
        rng = np.random.default_rng(7)
        values = np.concatenate([
            rng.standard_normal(9500) * 0.6,
            6.0 + rng.standard_normal(500) * 0.4,
        ])
        values = values[np.random.default_rng(8).permutation(len(values))]

        single = self._feed(StreamingMaxEnt(600, (-4, 9), n_clusters=6, rng=0),
                            values)
        sv = np.sort(single.finalize()[:, 0])

        half = len(values) // 2
        a = self._feed(StreamingMaxEnt(600, (-4, 9), n_clusters=6, rng=1),
                       values[:half])
        b = self._feed(StreamingMaxEnt(600, (-4, 9), n_clusters=6, rng=2),
                       values[half:])
        merged = StreamingMaxEnt.merge_all([a, b], rng=3)
        mv = np.sort(merged.finalize()[:, 0])

        grid = np.linspace(values.min(), values.max(), 512)
        cdf_s = np.searchsorted(sv, grid) / len(sv)
        cdf_m = np.searchsorted(mv, grid) / len(mv)
        ks = np.abs(cdf_s - cdf_m).max()
        assert ks < 0.25, f"KS distance {ks:.3f} exceeds tolerance"

    def test_merge_into_empty_adopts_state(self):
        a = StreamingMaxEnt(50, (0, 1), n_clusters=3, rng=0)
        b = self._feed(StreamingMaxEnt(50, (0, 1), n_clusters=3, rng=1),
                       np.random.default_rng(2).random(400))
        a.merge(b, rng=3)
        assert a.n_seen == 400
        assert a.finalize().shape[0] == 50

    def test_merge_into_empty_copies_not_aliases(self):
        """Adopting a donor's state must not alias it: later merges into
        the adopter leave the donor intact."""
        a = StreamingMaxEnt(50, (0, 1), n_clusters=3, rng=0)
        b = self._feed(StreamingMaxEnt(50, (0, 1), n_clusters=3, rng=1),
                       np.random.default_rng(2).random(400))
        c = self._feed(StreamingMaxEnt(50, (0, 1), n_clusters=3, rng=3),
                       np.random.default_rng(4).random(400))
        b_counts = [st.counts.copy() for st in b._states]
        b_seen = b.n_seen
        merged = StreamingMaxEnt.merge_all([a, b, c], rng=5)
        assert merged is a and merged.n_seen == 800
        assert b.n_seen == b_seen
        for st, before in zip(b._states, b_counts):
            assert np.array_equal(st.counts, before)
        assert b.finalize().shape[0] == 50  # donor still fully usable

    def test_geometry_mismatch_raises(self):
        a = StreamingMaxEnt(10, (0, 1), n_clusters=3, rng=0)
        b = StreamingMaxEnt(10, (0, 2), n_clusters=3, rng=1)
        b.feed(np.random.default_rng(2).random(50))
        with pytest.raises(ValueError, match="geometry"):
            a.merge(b)
        c = StreamingMaxEnt(10, (0, 1), n_clusters=4, rng=3)
        c.feed(np.random.default_rng(4).random(50))
        with pytest.raises(ValueError, match="geometry"):
            a.merge(c)
        with pytest.raises(TypeError):
            a.merge(ReservoirStream(10, rng=5))


class TestStreamRegistry:
    def test_streaming_samplers_registered_under_offline_names(self):
        from repro.sampling import available_stream_samplers, get_stream_sampler

        names = available_stream_samplers()
        assert "maxent" in names and "random" in names
        s = get_stream_sampler("maxent", n_samples=10, value_range=(0, 1),
                               rng=0, n_clusters=3)
        assert isinstance(s, StreamingMaxEnt)
        r = get_stream_sampler("random", n_samples=10, rng=0)
        assert isinstance(r, ReservoirStream)

    def test_unknown_name_lists_available(self):
        from repro.sampling import get_stream_sampler

        with pytest.raises(KeyError, match="no streaming analogue"):
            get_stream_sampler("lhs", n_samples=10)

    def test_reservoir_stream_uniform_rows(self):
        s = ReservoirStream(20, rng=0)
        rng = np.random.default_rng(1)
        for _ in range(10):
            vals = rng.random(100)
            s.feed(vals, np.column_stack([vals * 2, vals * 3]))
        rows = s.finalize()
        assert rows.shape == (20, 3)
        assert np.allclose(rows[:, 1], 2 * rows[:, 0])
        assert s.n_seen == 1000

    def test_third_party_stream_sampler_registers(self):
        from repro.sampling import (
            StreamSampler,
            get_stream_sampler,
            register_stream_sampler,
        )
        from repro.sampling.base import _STREAM_REGISTRY

        @register_stream_sampler("keep-first")
        class KeepFirst(StreamSampler):
            def __init__(self, n_samples, value_range=None, rng=None):
                self.n_samples, self.rows, self.n_seen = n_samples, [], 0

            def feed(self, values, payload=None):
                values = np.asarray(values, dtype=float).ravel()
                self.n_seen += values.size
                need = self.n_samples - len(self.rows)
                self.rows.extend(values[:need, None])

            def finalize(self):
                return np.stack(self.rows)

        try:
            s = get_stream_sampler("keep-first", n_samples=3)
            s.feed(np.arange(10.0))
            assert s.finalize().tolist() == [[0.0], [1.0], [2.0]]
        finally:
            del _STREAM_REGISTRY["keep-first"]


class TestStreamingOfflineFidelity:
    def test_sample_histograms_within_ks_bound(self):
        """Satellite: on a fixed dataset fed chunk-wise, the streaming
        MaxEnt sample-value distribution must track the offline maxent
        sampler's within a KS-style bound."""
        from repro.sampling import MaxEntSampler

        rng = np.random.default_rng(11)
        values = np.concatenate([
            rng.standard_normal(9500) * 0.6,
            6.0 + rng.standard_normal(500) * 0.4,
        ])
        values = values[np.random.default_rng(12).permutation(len(values))]

        offline_idx = MaxEntSampler(n_clusters=6).sample(values[:, None], 600, rng=0)
        offline_vals = np.sort(values[offline_idx])

        s = StreamingMaxEnt(n_samples=600, value_range=(-4, 9), n_clusters=6, rng=0)
        for lo in range(0, len(values), 500):
            s.feed(values[lo:lo + 500])
        stream_vals = np.sort(s.finalize()[:, 0])

        # Two-sample KS distance between the sample-value distributions.
        grid = np.linspace(values.min(), values.max(), 512)
        cdf_off = np.searchsorted(offline_vals, grid) / len(offline_vals)
        cdf_str = np.searchsorted(stream_vals, grid) / len(stream_vals)
        ks = np.abs(cdf_off - cdf_str).max()
        assert ks < 0.25, f"KS distance {ks:.3f} exceeds tolerance"
        # And both enrich the rare mode far beyond its 5% population share.
        assert (stream_vals > 3.0).mean() > 0.15
        assert (offline_vals > 3.0).mean() > 0.15


class TestStreamSubsample:
    def _case(self, method="maxent", arch="mlp_transformer", **overrides):
        from repro.utils.config import (
            CaseConfig,
            SharedConfig,
            SubsampleConfig,
            TrainConfig,
        )

        sub = dict(hypercubes="maxent", method=method, num_hypercubes=3,
                   num_samples=32, num_clusters=4, nxsl=8, nysl=8, nzsl=8)
        sub.update(overrides)
        return CaseConfig(
            shared=SharedConfig(dims=3),
            subsample=SubsampleConfig(**sub),
            train=TrainConfig(arch=arch),
        )

    @pytest.fixture(scope="class")
    def sst(self):
        from repro.data import build_dataset

        return build_dataset("SST-P1F4", scale=1.0, rng=0, n_snapshots=3)

    @pytest.mark.parametrize("method", ["maxent", "random"])
    def test_single_pass_over_in_memory_source(self, sst, method):
        res = run_stream_subsample(sst, self._case(method), seed=0, chunk_rows=4096)
        assert res.n_samples == 3 * 32  # num_hypercubes * num_samples
        assert res.n_points_scanned == sst.n_snapshots * sst.n_points_per_snapshot
        assert res.meta["mode"] == "stream"
        assert res.points.meta["mode"] == "stream"
        assert res.n_candidate_cubes == 0 and len(res.selected_cube_ids) == 0
        # Per-point times map back to real snapshots.
        assert set(np.unique(np.asarray(res.points.time))) <= set(sst.times)
        # Carried variables are genuine field values at the carried coords.
        coords = res.points.coords.astype(int)
        t0 = sst.snapshots[0].time
        at_t0 = np.asarray(res.points.time) == t0
        if at_t0.any():
            pv = sst.snapshots[0].get("pv")
            got = res.points.values["pv"][at_t0]
            want = pv[tuple(coords[at_t0].T)]
            assert np.allclose(got, want)

    def test_subsample_mode_stream_entry_point(self, sst):
        """`subsample(source, case, mode='stream')` is the single entry."""
        from repro.sampling import subsample

        res = subsample(sst, self._case(), seed=0, mode="stream")
        assert res.meta["mode"] == "stream"
        assert res.meta["ranks"] == 1
        multi = subsample(sst, self._case(), nranks=2, seed=0, mode="stream")
        assert multi.meta["ranks"] == 2
        assert multi.n_points_scanned == res.n_points_scanned
        assert multi.n_samples == res.n_samples
        with pytest.raises(ValueError, match="mode"):
            subsample(sst, self._case(), seed=0, mode="banana")

    def test_stream_only_knobs_rejected_in_batch_mode(self, sst):
        """The batch pipeline has no partial-stream merge: stream-only
        knobs must fail loudly instead of being silently dropped."""
        from repro.sampling import subsample

        with pytest.raises(ValueError, match="stream"):
            subsample(sst, self._case(), seed=0, owned_shards=True)
        with pytest.raises(ValueError, match="stream"):
            subsample(sst, self._case(), seed=0, on_rank_failure="reweight")
        with pytest.raises(ValueError, match="stream"):
            subsample(sst, self._case(), seed=0, fault_hook=lambda r: False)

    def test_full_method_rejected(self, sst):
        with pytest.raises(ValueError, match="streaming analogue"):
            run_stream_subsample(
                sst, self._case("full", arch="cnn_transformer"), seed=0
            )

    def test_random_stream_skips_value_range_hint(self, sst, monkeypatch):
        """Reservoir sampling ignores value ranges; the (potentially full
        extra scan) hint must not be computed for it."""
        from repro.data import InMemorySource

        src = InMemorySource(sst)
        calls = []
        monkeypatch.setattr(
            src, "value_range_hint",
            lambda var: calls.append(var) or (0.0, 1.0),
        )
        run_stream_subsample(src, self._case("random"), seed=0)
        assert calls == []
        run_stream_subsample(src, self._case("maxent"), seed=0)
        assert calls == ["pv"]

    def test_unsupported_method_fails_before_source_does_work(self):
        """Regression: a batch-only method must be rejected before the
        simulation generates even one snapshot."""
        from repro.data import stream_dataset

        src = stream_dataset("sst-binary", scale=1.0, seed=0, n_snapshots=2)
        with pytest.raises(ValueError, match="no streaming analogue"):
            run_stream_subsample(src, self._case("lhs"), seed=0)
        assert src.generated == 0

    def test_simulation_source_generates_each_snapshot_once(self):
        """True in-situ: one pass, nothing regenerated, nothing resident."""
        from repro.data import stream_dataset

        src = stream_dataset("sst-binary", scale=1.0, seed=0, n_snapshots=2,
                             max_cached=1)
        res = run_stream_subsample(src, self._case(), seed=0)
        assert res.n_samples > 0
        assert src.generated == 2
        assert src.restarts == 0

    def test_energy_metered(self, sst):
        res = run_stream_subsample(sst, self._case(), seed=0)
        assert res.energy is not None
        assert res.energy.total_energy > 0.0


class TestMultiProducerStream:
    """SPMD streaming: per-rank partitions, weighted merge on rank 0."""

    def _case(self, method="maxent", **overrides):
        from repro.utils.config import (
            CaseConfig,
            SharedConfig,
            SubsampleConfig,
            TrainConfig,
        )

        sub = dict(hypercubes="maxent", method=method, num_hypercubes=6,
                   num_samples=100, num_clusters=4, nxsl=8, nysl=8, nzsl=8)
        sub.update(overrides)
        return CaseConfig(
            shared=SharedConfig(dims=3),
            subsample=SubsampleConfig(**sub),
            train=TrainConfig(arch="mlp_transformer"),
        )

    @pytest.fixture(scope="class")
    def sst(self):
        from repro.data import build_dataset

        return build_dataset("SST-P1F4", scale=1.0, rng=0, n_snapshots=4)

    def test_four_ranks_match_single_rank_within_ks_bound(self, sst):
        """Acceptance: the merged 4-producer sample tracks the single-rank
        stream's sample-value distribution within the KS-style bound."""
        single = run_stream_subsample(sst, self._case(), seed=0)
        multi = run_stream_subsample(sst, self._case(), seed=0, nranks=4)
        assert multi.n_samples == single.n_samples == 600
        assert multi.n_points_scanned == single.n_points_scanned
        assert multi.meta["ranks"] == 4

        sv = np.sort(single.points.values["pv"])
        mv = np.sort(multi.points.values["pv"])
        pop = np.concatenate([s.get("pv").ravel() for s in sst.snapshots])
        grid = np.linspace(pop.min(), pop.max(), 512)
        cdf_s = np.searchsorted(sv, grid) / len(sv)
        cdf_m = np.searchsorted(mv, grid) / len(mv)
        ks = np.abs(cdf_s - cdf_m).max()
        assert ks < 0.25, f"KS distance {ks:.3f} exceeds tolerance"

    def test_multirank_deterministic_for_seed_and_rank_count(self, sst):
        """Bit-determinism: fixed (seed, nranks) → identical PointSets."""
        a = run_stream_subsample(sst, self._case(), seed=7, nranks=3)
        b = run_stream_subsample(sst, self._case(), seed=7, nranks=3)
        assert np.array_equal(a.points.coords, b.points.coords)
        assert np.array_equal(np.asarray(a.points.time), np.asarray(b.points.time))
        for var in a.points.values:
            assert np.array_equal(a.points.values[var], b.points.values[var])
        c = run_stream_subsample(sst, self._case(), seed=8, nranks=3)
        assert not np.array_equal(a.points.coords, c.points.coords)

    @pytest.mark.parametrize("method", ["maxent", "random"])
    def test_carried_values_genuine_at_coords(self, sst, method):
        """Multi-producer rows still map back to real field values."""
        res = run_stream_subsample(sst, self._case(method), seed=0, nranks=2)
        assert res.n_points_scanned == sst.n_snapshots * sst.n_points_per_snapshot
        coords = res.points.coords.astype(int)
        times = np.asarray(res.points.time)
        assert set(np.unique(times)) <= set(sst.times)
        t0 = sst.snapshots[0].time
        at_t0 = times == t0
        if at_t0.any():
            pv = sst.snapshots[0].get("pv")
            assert np.allclose(
                res.points.values["pv"][at_t0], pv[tuple(coords[at_t0].T)]
            )

    def test_more_ranks_than_snapshots(self, sst):
        """Empty partitions contribute zero weight, nothing breaks."""
        res = run_stream_subsample(
            sst, self._case(), seed=0, nranks=sst.n_snapshots + 3
        )
        assert res.n_points_scanned == sst.n_snapshots * sst.n_points_per_snapshot
        assert res.n_samples == 600

    def test_virtual_time_speedup_over_single_rank(self, sst):
        """The partitioned scan parallelizes: 4-rank makespan undercuts the
        single producer in virtual time."""
        from repro.parallel.perfmodel import PerfModel

        model = PerfModel(compute_rate=2.5e4)
        t1 = run_stream_subsample(sst, self._case(), seed=0, model=model).virtual_time
        t4 = run_stream_subsample(
            sst, self._case(), seed=0, nranks=4, model=model
        ).virtual_time
        assert t4 < t1
        assert t1 / t4 > 1.5

    def test_sim_source_replay_guard(self):
        from repro.data import stream_dataset

        src = stream_dataset("sst-binary", scale=1.0, seed=0, n_snapshots=2,
                             max_cached=1)
        with pytest.raises(ValueError, match="replay"):
            run_stream_subsample(src, self._case(), seed=0, nranks=2)
        src2 = stream_dataset("sst-binary", scale=1.0, seed=0, n_snapshots=2,
                              max_cached=2)
        res = run_stream_subsample(src2, self._case(), seed=0, nranks=2)
        assert res.n_samples > 0

    def test_sim_source_full_window_really_avoids_replays(self):
        """Regression: the remedy the guard recommends (max_cached >=
        n_snapshots) must actually work — intermediates generated while
        advancing are cached, so interleaved producers never restart the
        solver."""
        from repro.data import stream_dataset

        src = stream_dataset("sst-binary", scale=0.5, seed=0, n_snapshots=6,
                             max_cached=6)
        run_stream_subsample(src, self._case(), seed=0, nranks=3)
        assert src.generated == 6
        assert src.restarts == 0

    def test_invalid_nranks(self, sst):
        with pytest.raises(ValueError, match="nranks"):
            run_stream_subsample(sst, self._case(), seed=0, nranks=0)

    def test_producer_reports_in_meta(self, sst):
        res = run_stream_subsample(sst, self._case(), seed=0, nranks=3)
        producers = res.meta["producers"]
        assert [p["rank"] for p in producers] == [0, 1, 2]
        assert all(not p["failed"] for p in producers)
        assert res.meta["failed_ranks"] == []
        spans = [tuple(p["span"]) for p in producers]
        assert spans[0][0] == 0 and spans[-1][1] == sst.n_snapshots
        assert sum(p["n_seen"] for p in producers) == res.n_points_scanned


class TestPartialStreamMerge:
    """StreamSampler.merge_partial: uneven / failed / empty producers."""

    def _report(self, rank, size, lo, hi, done=None, n_seen=0,
                failed=False, error=None):
        from repro.parallel.partition import Partition, ProducerReport

        part = Partition(rank=rank, size=size, lo=lo, hi=hi)
        return ProducerReport(
            partition=part,
            snapshots_done=part.n if done is None else done,
            n_seen=n_seen, stream_mass=float(n_seen),
            failed=failed, error=error,
        )

    def test_empty_state_merges_as_zero_mass(self):
        """Satellite regression: an unfed sampler (empty span) contributes
        nothing and corrupts nothing — even as the would-be fold target."""
        empty = ReservoirStream(8, rng=0)
        a = ReservoirStream(8, rng=1)
        a.feed(np.arange(20.0))
        b = ReservoirStream(8, rng=2)
        b.feed(np.arange(20.0, 50.0))
        from repro.sampling import StreamSampler

        merged = StreamSampler.merge_partial([empty, a, b], rng=3)
        assert merged.n_seen == 50
        assert merged.finalize().shape[0] == 8

    def test_failed_with_raise_policy(self):
        a = ReservoirStream(4, rng=0)
        a.feed(np.arange(10.0))
        b = ReservoirStream(4, rng=1)
        b.feed(np.arange(5.0))
        reports = [
            self._report(0, 2, 0, 2, n_seen=10),
            self._report(1, 2, 2, 4, done=0, n_seen=5, failed=True, error="io"),
        ]
        from repro.sampling import StreamSampler

        with pytest.raises(RuntimeError, match="rank 1: io"):
            StreamSampler.merge_partial([a, b], reports, on_failure="raise")

    def test_failed_with_reweight_keeps_partial_state(self):
        """A failed producer's delivered rows stay in the merged draw,
        weighted by delivered (not nominal) mass."""
        ones = 0
        for seed in range(30):
            a = ReservoirStream(10, rng=(seed, 0))
            a.feed(np.zeros(300))
            b = ReservoirStream(10, rng=(seed, 1))
            b.feed(np.ones(100))  # died after 100 of its nominal 300 rows
            reports = [
                self._report(0, 2, 0, 3, n_seen=300),
                self._report(1, 2, 3, 6, done=1, n_seen=100, failed=True),
            ]
            from repro.sampling import StreamSampler

            merged = StreamSampler.merge_partial([a, b], reports, rng=(seed, 2))
            assert merged.n_seen == 400
            ones += int(merged.finalize()[:, 0].sum())
        # Delivered-mass weighting: the failed producer holds ~1/4 of the
        # delivered stream, so ~1/4 of the merged rows (not ~1/2 nominal).
        share = ones / (30 * 10)
        assert 0.12 < share < 0.40

    def test_validation(self):
        from repro.sampling import StreamSampler

        a = ReservoirStream(4, rng=0)
        a.feed(np.arange(5.0))
        with pytest.raises(ValueError, match="on_failure"):
            StreamSampler.merge_partial([a], on_failure="ignore")
        with pytest.raises(ValueError, match="at least one"):
            StreamSampler.merge_partial([])
        with pytest.raises(ValueError, match="reports"):
            StreamSampler.merge_partial([a], reports=[])
        empty = ReservoirStream(4, rng=1)
        with pytest.raises(ValueError, match="delivered"):
            StreamSampler.merge_partial([empty])


class TestFaultInjection:
    """Kill a producer mid-span; the merge must reweight or raise."""

    def _case(self, method="maxent"):
        from repro.utils.config import (
            CaseConfig,
            SharedConfig,
            SubsampleConfig,
            TrainConfig,
        )

        return CaseConfig(
            shared=SharedConfig(dims=3),
            subsample=SubsampleConfig(
                hypercubes="maxent", method=method, num_hypercubes=6,
                num_samples=100, num_clusters=4, nxsl=8, nysl=8, nzsl=8,
            ),
            train=TrainConfig(arch="mlp_transformer"),
        )

    @pytest.fixture(scope="class")
    def sst(self):
        from repro.data import build_dataset

        return build_dataset("SST-P1F4", scale=1.0, rng=0, n_snapshots=4)

    @staticmethod
    def _kill(victim, after_rows):
        def hook(rank, snapshots_done=0, rows_fed=0):
            return rank == victim and rows_fed > after_rows
        return hook

    def test_raise_policy_names_the_dead_rank(self, sst):
        with pytest.raises(RuntimeError, match="rank 1") as excinfo:
            run_stream_subsample(
                sst, self._case(), seed=0, nranks=4, chunk_rows=2048,
                fault_hook=self._kill(1, 2000), on_rank_failure="raise",
            )
        assert "reweight" in str(excinfo.value)  # the remedy is named

    def test_reweight_full_size_and_ks_bounded(self, sst):
        """Acceptance: nranks=4, one rank killed mid-span — the reweighted
        merge still returns a full-size sample within the KS fidelity bound
        of the single-rank stream."""
        single = run_stream_subsample(sst, self._case(), seed=0, chunk_rows=2048)
        res = run_stream_subsample(
            sst, self._case(), seed=0, nranks=4, chunk_rows=2048,
            fault_hook=self._kill(2, 2000), on_rank_failure="reweight",
        )
        assert res.n_samples == single.n_samples == 600  # full budget
        assert res.meta["failed_ranks"] == [2]
        assert res.n_points_scanned < single.n_points_scanned  # rows were lost
        dead = res.meta["producers"][2]
        assert dead["failed"] and dead["n_seen"] < sst.n_points_per_snapshot

        sv = np.sort(single.points.values["pv"])
        mv = np.sort(res.points.values["pv"])
        pop = np.concatenate([s.get("pv").ravel() for s in sst.snapshots])
        grid = np.linspace(pop.min(), pop.max(), 512)
        ks = np.abs(
            np.searchsorted(sv, grid) / len(sv)
            - np.searchsorted(mv, grid) / len(mv)
        ).max()
        assert ks < 0.25, f"KS distance {ks:.3f} exceeds tolerance"

    def test_bit_deterministic_per_seed_ranks_and_victim(self, sst):
        """Same (seed, nranks, failed rank) → identical points; changing
        the victim changes the draw."""
        kw = dict(seed=5, nranks=4, chunk_rows=2048, on_rank_failure="reweight")
        a = run_stream_subsample(sst, self._case(), fault_hook=self._kill(1, 2000), **kw)
        b = run_stream_subsample(sst, self._case(), fault_hook=self._kill(1, 2000), **kw)
        assert np.array_equal(a.points.coords, b.points.coords)
        assert np.array_equal(np.asarray(a.points.time), np.asarray(b.points.time))
        for var in a.points.values:
            assert np.array_equal(a.points.values[var], b.points.values[var])
        c = run_stream_subsample(sst, self._case(), fault_hook=self._kill(3, 2000), **kw)
        assert not np.array_equal(a.points.coords, c.points.coords)

    @pytest.mark.parametrize("method", ["maxent", "random"])
    def test_both_methods_survive_a_death(self, sst, method):
        res = run_stream_subsample(
            sst, self._case(method), seed=0, nranks=2, chunk_rows=2048,
            fault_hook=self._kill(0, 2000), on_rank_failure="reweight",
        )
        assert res.n_samples == 600
        assert res.meta["failed_ranks"] == [0]

    def test_real_producer_exception_tolerated_under_reweight(self, sst):
        """A genuine mid-stream error (not an injected fault) is recovered
        the same way: partial state merged, failure recorded."""
        from repro.data import InMemorySource

        class Corrupt(InMemorySource):
            def snapshot(self, i):
                if i == 3:  # last snapshot, owned by the last rank
                    raise OSError("shard rotted")
                return super().snapshot(i)

        src = Corrupt(sst)
        res = run_stream_subsample(
            src, self._case("random"), seed=0, nranks=2, chunk_rows=2048,
            on_rank_failure="reweight",
        )
        assert res.meta["failed_ranks"] == [1]
        dead = res.meta["producers"][1]
        assert "shard rotted" in dead["error"]
        # Rank 1 fully delivered global snapshot 2 before snapshot 3's
        # decode raised — boundary deaths must not undercount coverage.
        assert dead["snapshots_done"] == 1 and dead["covered"] == [2, 3]
        assert dead["n_seen"] == sst.n_points_per_snapshot
        assert res.n_samples == 600
        with pytest.raises(RuntimeError):
            run_stream_subsample(
                Corrupt(sst), self._case("random"), seed=0, nranks=2,
                chunk_rows=2048, on_rank_failure="raise",
            )

    def test_all_producers_dead_surfaces_their_errors(self, sst):
        """When nothing at all is delivered, reweighting cannot help — the
        recorded per-rank errors must surface, not a generic empty-source
        message."""
        from repro.data import InMemorySource

        class Rotten(InMemorySource):
            def snapshot(self, i):
                raise OSError("disk gone")

        with pytest.raises(RuntimeError, match="disk gone"):
            run_stream_subsample(
                Rotten(sst), self._case("random"), seed=0, nranks=2,
                chunk_rows=2048, on_rank_failure="reweight",
            )

    def test_validation(self, sst):
        with pytest.raises(ValueError, match="on_rank_failure"):
            run_stream_subsample(sst, self._case(), seed=0, nranks=2,
                                 on_rank_failure="retry")
        with pytest.raises(ValueError, match="nranks >= 2"):
            run_stream_subsample(sst, self._case(), seed=0, nranks=1,
                                 fault_hook=lambda rank: True)


class TestOwnedShardStreaming:
    """Per-rank shard ownership end to end through run_stream_subsample."""

    def _case(self):
        from repro.utils.config import (
            CaseConfig,
            SharedConfig,
            SubsampleConfig,
            TrainConfig,
        )

        return CaseConfig(
            shared=SharedConfig(dims=3),
            subsample=SubsampleConfig(
                hypercubes="maxent", method="maxent", num_hypercubes=6,
                num_samples=100, num_clusters=4, nxsl=8, nysl=8, nzsl=8,
            ),
            train=TrainConfig(arch="mlp_transformer"),
        )

    @pytest.fixture(scope="class")
    def sst(self):
        from repro.data import build_dataset

        return build_dataset("SST-P1F4", scale=1.0, rng=0, n_snapshots=4)

    @pytest.fixture(scope="class")
    def shard_dir(self, sst, tmp_path_factory):
        from repro.data import save_dataset

        path = tmp_path_factory.mktemp("owned-stream")
        save_dataset(sst, str(path))
        return str(path)

    def test_owned_matches_shared_bitwise(self, shard_dir):
        """Ownership is pure I/O isolation: same spans, same rngs, same
        points as the shared-cache view."""
        from repro.data import ShardDirSource

        with ShardDirSource(shard_dir, max_cached=2) as src:
            shared = run_stream_subsample(src, self._case(), seed=0, nranks=4)
        with ShardDirSource(shard_dir, max_cached=2) as src:
            owned = run_stream_subsample(src, self._case(), seed=0, nranks=4,
                                         owned_shards=True)
        assert np.array_equal(shared.points.coords, owned.points.coords)
        for var in shared.points.values:
            assert np.array_equal(shared.points.values[var],
                                  owned.points.values[var])

    def test_no_cross_rank_cache_sharing(self, shard_dir, sst):
        """Acceptance: per-rank cache_info decodes exactly the rank's own
        span and sums to the dataset's total I/O."""
        from repro.data import ShardDirSource

        with ShardDirSource(shard_dir, max_cached=2, prefetch=1) as src:
            res = run_stream_subsample(src, self._case(), seed=0, nranks=4,
                                       owned_shards=True)
        cache = res.meta["cache"]
        spans = [tuple(p["span"]) for p in res.meta["producers"]]
        for info, (lo, hi) in zip(cache["per_rank"], spans):
            c = info["counters"]
            assert c["misses"] + c["prefetched"] == hi - lo
            assert c["hits"] + c["misses"] >= hi - lo
        assert cache["total"]["decodes"] == sst.n_snapshots
        assert cache["total"]["ranks"] == 4

    def test_no_leaked_prefetch_threads(self, shard_dir):
        """Satellite: every per-rank prefetcher is joined by the pipeline
        teardown."""
        import threading

        from repro.data import ShardDirSource

        with ShardDirSource(shard_dir, max_cached=2, prefetch=2) as src:
            run_stream_subsample(src, self._case(), seed=0, nranks=3,
                                 owned_shards=True)
        alive = [t for t in threading.enumerate()
                 if t.name == "shard-prefetch" and t.is_alive()]
        assert alive == [], f"leaked prefetch threads: {alive}"

    def test_owned_with_more_ranks_than_shards(self, shard_dir, sst):
        """Satellite regression: empty owned directories stream nothing and
        merge as zero mass."""
        from repro.data import ShardDirSource

        with ShardDirSource(shard_dir, max_cached=2) as src:
            res = run_stream_subsample(src, self._case(), seed=0,
                                       nranks=sst.n_snapshots + 3,
                                       owned_shards=True)
        assert res.n_samples == 600
        assert res.n_points_scanned == sst.n_snapshots * sst.n_points_per_snapshot
        empty = [p for p in res.meta["producers"] if p["span"][0] == p["span"][1]]
        assert len(empty) == 3
        assert all(p["n_seen"] == 0 and not p["failed"] for p in empty)

    def test_owned_requires_sharded_source(self, sst):
        with pytest.raises(ValueError, match="owned_shards"):
            run_stream_subsample(sst, self._case(), seed=0, nranks=2,
                                 owned_shards=True)

    def test_owned_requires_multiple_ranks(self, shard_dir):
        """Regression: owned_shards at nranks=1 must refuse, not silently
        run the single-producer path while meta claims ownership."""
        from repro.data import ShardDirSource

        with ShardDirSource(shard_dir) as src:
            with pytest.raises(ValueError, match="nranks >= 2"):
                run_stream_subsample(src, self._case(), seed=0, nranks=1,
                                     owned_shards=True)

    def test_fault_injection_with_owned_shards(self, shard_dir):
        """The acceptance combination: ownership + a mid-span death."""
        def hook(rank, snapshots_done=0, rows_fed=0):
            return rank == 1 and rows_fed > 2000

        from repro.data import ShardDirSource

        with ShardDirSource(shard_dir, max_cached=2) as src:
            res = run_stream_subsample(
                src, self._case(), seed=0, nranks=4, chunk_rows=2048,
                owned_shards=True, fault_hook=hook, on_rank_failure="reweight",
            )
        assert res.n_samples == 600
        assert res.meta["failed_ranks"] == [1]
