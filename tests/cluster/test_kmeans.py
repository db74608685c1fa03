"""Tests for KMeans / MiniBatchKMeans."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import KMeans, MiniBatchKMeans, kmeans, kmeans_plus_plus


def three_blobs(rng, n_per=100, sep=10.0):
    centers = np.array([[0.0, 0.0], [sep, 0.0], [0.0, sep]])
    pts = np.concatenate([c + rng.standard_normal((n_per, 2)) for c in centers])
    labels = np.repeat(np.arange(3), n_per)
    return pts, labels, centers


class TestKMeansPlusPlus:
    def test_right_count_and_from_data(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 3))
        centers = kmeans_plus_plus(x, 5, rng)
        assert centers.shape == (5, 3)
        # Every center is an actual data point.
        for c in centers:
            assert np.min(np.linalg.norm(x - c, axis=1)) < 1e-12

    def test_degenerate_identical_points(self):
        x = np.ones((10, 2))
        centers = kmeans_plus_plus(x, 3, np.random.default_rng(0))
        assert centers.shape == (3, 2)
        assert np.allclose(centers, 1.0)

    def test_k_bounds(self):
        x = np.zeros((4, 1))
        with pytest.raises(ValueError):
            kmeans_plus_plus(x, 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            kmeans_plus_plus(x, 0, np.random.default_rng(0))


class TestKMeans:
    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(1)
        x, true_labels, true_centers = three_blobs(rng)
        km = KMeans(n_clusters=3, rng=2).fit(x)
        # Each found center is within 1 unit of a true center.
        d = np.linalg.norm(km.cluster_centers_[:, None, :] - true_centers[None], axis=2)
        assert np.all(d.min(axis=1) < 1.0)
        # Cluster assignments are pure w.r.t. true labels.
        for j in range(3):
            members = true_labels[km.labels_ == j]
            assert (members == members[0]).mean() > 0.99

    def test_inertia_decreases_with_k(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((200, 2))
        inertias = [KMeans(n_clusters=k, rng=0).fit(x).inertia_ for k in (1, 2, 4, 8)]
        assert all(a >= b for a, b in zip(inertias, inertias[1:]))

    def test_predict_matches_fit_labels(self):
        rng = np.random.default_rng(4)
        x, _, _ = three_blobs(rng)
        km = KMeans(n_clusters=3, rng=0).fit(x)
        assert np.array_equal(km.predict(x), km.labels_)

    def test_k_larger_than_n_clamped(self):
        x = np.arange(3, dtype=float)[:, None]
        km = KMeans(n_clusters=10, rng=0).fit(x)
        assert km.cluster_centers_.shape[0] == 3
        assert km.inertia_ == pytest.approx(0.0)

    def test_1d_input_accepted(self):
        km = KMeans(n_clusters=2, rng=0).fit(np.array([0.0, 0.1, 5.0, 5.1]))
        assert sorted(np.round(km.cluster_centers_.ravel(), 2)) == [0.05, 5.05]

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=2).fit(np.array([[1.0], [np.nan]]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=2).fit(np.empty((0, 2)))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((100, 2))
        a = KMeans(n_clusters=4, rng=7).fit(x)
        b = KMeans(n_clusters=4, rng=7).fit(x)
        assert np.allclose(a.cluster_centers_, b.cluster_centers_)

    def test_n_init_picks_best(self):
        rng = np.random.default_rng(6)
        x, _, _ = three_blobs(rng)
        multi = KMeans(n_clusters=3, n_init=5, rng=0).fit(x)
        single = KMeans(n_clusters=3, n_init=1, rng=0).fit(x)
        assert multi.inertia_ <= single.inertia_ * 1.001

    def test_an_emptied_cluster_is_reseeded_at_the_farthest_point(self, monkeypatch):
        x = np.array([[0.0], [1.0], [2.0], [9.0]])
        # two equal seeds: the second owns no point on the first pass
        monkeypatch.setattr(kmeans, "_plus_plus",
                            lambda x, x_sq, k, rng: np.array([[0.0], [0.0], [9.0]]))
        km = KMeans(n_clusters=3, max_iter=1, rng=0).fit(x)
        # 2.0 lies farthest from its center (0.0): the empty cluster restarts
        # there, while the others move to their means (1.0 and 9.0)
        assert km.cluster_centers_.ravel().tolist() == [1.0, 2.0, 9.0]
        assert km.labels_.tolist() == [0, 0, 1, 2]
        assert km.inertia_ == 1.0

    @given(
        n=st.integers(8, 60),
        d=st.integers(1, 4),
        k=st.integers(1, 6),
        seed=st.integers(0, 10),
    )
    @settings(max_examples=20, deadline=None)
    def test_labels_valid_and_every_cluster_nonempty(self, n, d, k, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d))
        km = KMeans(n_clusters=k, rng=seed).fit(x)
        k_eff = km.cluster_centers_.shape[0]
        assert km.labels_.shape == (n,)
        assert km.labels_.min() >= 0 and km.labels_.max() < k_eff
        assert km.inertia_ >= 0


class TestMiniBatchKMeans:
    def test_close_to_lloyd_on_blobs(self):
        rng = np.random.default_rng(7)
        x, _, _ = three_blobs(rng, n_per=300)
        full = KMeans(n_clusters=3, rng=0).fit(x)
        mb = MiniBatchKMeans(n_clusters=3, batch_size=128, max_iter=150, rng=0).fit(x)
        assert mb.inertia_ <= full.inertia_ * 1.5

    def test_partial_fit_streaming(self):
        rng = np.random.default_rng(8)
        x, _, _ = three_blobs(rng)
        mb = MiniBatchKMeans(n_clusters=3, rng=0)
        for lo in range(0, len(x), 50):
            mb.partial_fit(x[lo : lo + 50])
        labels = mb.predict(x)
        assert len(np.unique(labels)) == 3

    def test_predict_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            MiniBatchKMeans(n_clusters=2).predict(np.zeros((3, 1)))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((300, 2))
        a = MiniBatchKMeans(n_clusters=4, rng=3).fit(x)
        b = MiniBatchKMeans(n_clusters=4, rng=3).fit(x)
        assert np.allclose(a.cluster_centers_, b.cluster_centers_)

    def test_reassign_moves_a_starved_center_onto_a_data_point(self):
        x = np.arange(20.0).reshape(10, 2)
        mb = MiniBatchKMeans(n_clusters=3, rng=0)
        mb.cluster_centers_ = np.array([[0.0, 1.0], [50.0, 50.0], [18.0, 19.0]])
        mb._counts = np.array([500.0, 2.0, 498.0])
        mb._maybe_reassign(x)
        # below 0.01 * 1000 / 3 points: only center 1 is starved
        assert mb.cluster_centers_[[0, 2]].tolist() == [[0.0, 1.0], [18.0, 19.0]]
        assert any(np.array_equal(mb.cluster_centers_[1], row) for row in x)
        assert mb._counts.tolist() == [500.0, 1.0, 498.0]

    def test_a_fit_reassigns_a_center_seeded_on_an_outlier(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((300, 2))
        x[0] = [60.0, 60.0]
        reassigned = 0
        for seed in range(8):
            mb = MiniBatchKMeans(n_clusters=4, batch_size=30, max_iter=30,
                                 reassignment_ratio=0.2, rng=seed).fit(x)
            for center in mb.cluster_centers_[mb._counts == 1.0]:
                assert any(np.array_equal(center, row) for row in x)
                reassigned += 1
        assert reassigned > 0

    def test_batch_size_above_n_draws_every_row_once(self):
        """The batch is clamped to n and drawn without replacement, so each
        iteration sees every row exactly once."""
        x = np.random.default_rng(12).standard_normal((40, 3))
        big = MiniBatchKMeans(n_clusters=3, batch_size=1000, max_iter=7,
                              reassignment_ratio=0.0, rng=4).fit(x)
        exact = MiniBatchKMeans(n_clusters=3, batch_size=40, max_iter=7,
                                reassignment_ratio=0.0, rng=4).fit(x)
        assert big._counts.sum() == 40 * big.n_iter_
        assert np.array_equal(big.cluster_centers_, exact.cluster_centers_)
        assert np.array_equal(big.labels_, exact.labels_)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            MiniBatchKMeans(n_clusters=0)
        with pytest.raises(ValueError):
            MiniBatchKMeans(n_clusters=2, batch_size=0)
        # as KMeans: a fit that ran no iteration would have no centers
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            MiniBatchKMeans(n_clusters=2, max_iter=0)


class TestEnergyInstrumentation:
    def test_clustering_charges_active_meter(self):
        from repro.energy import EnergyMeter

        rng = np.random.default_rng(10)
        x = rng.standard_normal((500, 3))
        with EnergyMeter() as meter:
            KMeans(n_clusters=4, rng=0).fit(x)
        assert meter.flops_cpu > 0
        assert meter.bytes_cpu > 0
