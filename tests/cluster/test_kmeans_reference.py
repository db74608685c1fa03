"""K-means against the straightforward implementation it replaced.

The reference below is the earlier ``kmeans.py``: row norms recomputed on
every distance call, cluster sums by ``np.add.at``, distances built as one
expression, and a mini-batch update that visits each present cluster with a
boolean mask and a ``mean``.  The current code must match it bit for bit:
labels, centers, inertia, iteration counts, the mini-batch ``_counts``,
k-means++ centers, a streaming ``partial_fit`` + ``predict`` sequence, the
generator's state after every fit (so every draw is the same draw), and the
FLOPs and bytes charged to an :class:`EnergyMeter`.

Inputs cover d = 1 (where a 1-D ``mean`` sums pairwise) and d > 1, quantized
data with tied distances, all-identical points, Lloyd fits that empty a
cluster, mini-batch fits that starve a center, n < k, ``batch_size`` > n,
non-contiguous layouts and inputs split into several distance blocks.
"""

from collections import Counter

import numpy as np
import pytest

from repro.cluster import kmeans
from repro.cluster.kmeans import KMeans, MiniBatchKMeans, kmeans_plus_plus
from repro.energy import EnergyMeter
from repro.energy.meter import account
from repro.utils.rng import resolve_rng

# ---- the replaced code -----------------------------------------------------------

REF_BLOCK = 1 << 18

#: how often the reference took its rare branches, so each case below can
#: show it reached the branch it is named for
HITS: Counter = Counter()


def _ref_as_2d(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"expected (n, d) data, got shape {x.shape}")
    if x.shape[0] == 0:
        raise ValueError("cannot cluster empty data")
    if not np.all(np.isfinite(x)):
        raise ValueError("data contains non-finite values")
    return x


def _ref_pairwise_sq(x, centers):
    x_sq = np.einsum("ij,ij->i", x, x)
    c_sq = np.einsum("ij,ij->i", centers, centers)
    d = x_sq[:, None] - 2.0 * (x @ centers.T) + c_sq[None, :]
    np.maximum(d, 0.0, out=d)
    account(flops=2.0 * x.shape[0] * centers.shape[0] * x.shape[1], nbytes=8.0 * x.size, device="cpu")
    return d


def _ref_assign(x, centers):
    n = x.shape[0]
    labels = np.empty(n, dtype=np.int64)
    dist = np.empty(n, dtype=np.float64)
    for lo in range(0, n, REF_BLOCK):
        hi = min(lo + REF_BLOCK, n)
        d = _ref_pairwise_sq(x[lo:hi], centers)
        labels[lo:hi] = np.argmin(d, axis=1)
        dist[lo:hi] = d[np.arange(hi - lo), labels[lo:hi]]
    return labels, dist


def ref_kmeans_plus_plus(x, k, rng=None):
    x = _ref_as_2d(x)
    rng = resolve_rng(rng)
    n = x.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, n={n}], got {k}")
    centers = np.empty((k, x.shape[1]), dtype=np.float64)
    centers[0] = x[rng.integers(n)]
    closest = _ref_pairwise_sq(x, centers[:1])[:, 0]
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            centers[i:] = x[rng.integers(n, size=k - i)]
            break
        probs = closest / total
        idx = rng.choice(n, p=probs)
        centers[i] = x[idx]
        np.minimum(closest, _ref_pairwise_sq(x, centers[i : i + 1])[:, 0], out=closest)
    return centers


class RefKMeans:
    def __init__(self, n_clusters, max_iter=100, tol=1e-6, n_init=1, rng=None):
        self.n_clusters = n_clusters
        self.max_iter = max_iter
        self.tol = tol
        self.n_init = n_init
        self._rng = resolve_rng(rng)

    def _single_run(self, x):
        k = min(self.n_clusters, x.shape[0])
        centers = ref_kmeans_plus_plus(x, k, self._rng)
        labels = np.zeros(x.shape[0], dtype=np.int64)
        inertia = np.inf
        it = 0
        for it in range(1, self.max_iter + 1):
            labels, dist = _ref_assign(x, centers)
            new_inertia = float(dist.sum())
            counts = np.bincount(labels, minlength=k).astype(np.float64)
            sums = np.zeros_like(centers)
            np.add.at(sums, labels, x)
            empty = counts == 0
            if np.any(empty):
                HITS["reseed"] += 1
                far = np.argsort(dist)[::-1][: int(empty.sum())]
                sums[empty] = x[far]
                counts[empty] = 1.0
            new_centers = sums / counts[:, None]
            shift = float(np.linalg.norm(new_centers - centers))
            centers = new_centers
            if inertia - new_inertia <= self.tol * max(inertia, 1.0) and shift <= self.tol:
                inertia = new_inertia
                break
            inertia = new_inertia
        labels, dist = _ref_assign(x, centers)
        return centers, labels, float(dist.sum()), it

    def fit(self, x):
        x = _ref_as_2d(x)
        best = None
        for _ in range(max(1, self.n_init)):
            run = self._single_run(x)
            if best is None or run[2] < best[2]:
                best = run
        self.cluster_centers_, self.labels_, self.inertia_, self.n_iter_ = best
        return self

    def predict(self, x):
        labels, _ = _ref_assign(_ref_as_2d(x), self.cluster_centers_)
        return labels


class RefMiniBatchKMeans:
    def __init__(self, n_clusters, batch_size=1024, max_iter=100, tol=1e-4,
                 reassignment_ratio=0.01, rng=None):
        self.n_clusters = n_clusters
        self.batch_size = batch_size
        self.max_iter = max_iter
        self.tol = tol
        self.reassignment_ratio = reassignment_ratio
        self._rng = resolve_rng(rng)
        self.cluster_centers_ = None
        self._counts = None
        self.n_iter_ = 0

    def partial_fit(self, batch):
        batch = _ref_as_2d(batch)
        k = min(self.n_clusters, batch.shape[0]) if self.cluster_centers_ is None else self.n_clusters
        if self.cluster_centers_ is None:
            self.cluster_centers_ = ref_kmeans_plus_plus(batch, k, self._rng)
            self._counts = np.zeros(k, dtype=np.float64)
        labels, _ = _ref_assign(batch, self.cluster_centers_)
        for j in np.unique(labels):
            members = batch[labels == j]
            self._counts[j] += members.shape[0]
            eta = members.shape[0] / self._counts[j]
            self.cluster_centers_[j] += eta * (members.mean(axis=0) - self.cluster_centers_[j])
        return self

    def fit(self, x):
        x = _ref_as_2d(x)
        n = x.shape[0]
        self.cluster_centers_ = None
        self._counts = None
        prev_inertia = np.inf
        batch = min(self.batch_size, n)
        stall = 0
        for it in range(1, self.max_iter + 1):
            self.n_iter_ = it
            idx = self._rng.choice(n, size=batch, replace=n < batch)
            self.partial_fit(x[idx])
            _, dist = _ref_assign(x[idx], self.cluster_centers_)
            inertia = float(dist.mean())
            if abs(prev_inertia - inertia) <= self.tol * max(inertia, 1e-30):
                stall += 1
                if stall >= 3:
                    break
            else:
                stall = 0
            prev_inertia = inertia
        self._maybe_reassign(x)
        self.labels_, dist = _ref_assign(x, self.cluster_centers_)
        self.inertia_ = float(dist.sum())
        return self

    def _maybe_reassign(self, x):
        total = self._counts.sum()
        if total == 0:
            return
        starved = self._counts < self.reassignment_ratio * total / self.n_clusters
        n_starved = int(starved.sum())
        if n_starved:
            HITS["reassign"] += 1
            idx = self._rng.choice(x.shape[0], size=n_starved, replace=x.shape[0] < n_starved)
            self.cluster_centers_[starved] = x[idx]
            self._counts[starved] = 1.0

    def predict(self, x):
        labels, _ = _ref_assign(_ref_as_2d(x), self.cluster_centers_)
        return labels


# ---- inputs ----------------------------------------------------------------------


def gaussian(n, d, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0, d) + rng.uniform(-5, 5, d)


def quantized(n, d, seed):
    """Values on a 0.5 grid: many tied distances."""
    return np.round(gaussian(n, d, seed) * 2.0) / 2.0


def few_distinct(n, d, seed):
    """Three distinct rows: k > 3 leaves k-means++ seeding duplicates, whose
    clusters Lloyd finds empty."""
    rows = np.random.default_rng(seed).standard_normal((3, d))
    return rows[np.random.default_rng(seed + 1).integers(3, size=n)]


def identical(n, d, seed):
    return np.full((n, d), 0.75 + seed)


def with_outliers(n, d, seed):
    """One dense blob and a few far points that k-means++ likes to seed on
    but that rarely land in a batch: starved mini-batch centers."""
    x = gaussian(n, d, seed)
    x[:3] += 40.0 * np.arange(1, 4)[:, None]
    return x


def layouts(x):
    """The same values C-ordered, Fortran-ordered and as a strided view."""
    wide = np.zeros((x.shape[0], 2 * x.shape[1]))
    wide[:, ::2] = x
    return {"C": x, "F": np.asfortranarray(x), "strided": wide[:, ::2]}


# ---- comparison ------------------------------------------------------------------


def hexed(values):
    return [float(v).hex() for v in np.ravel(values)]


def assert_same_fit(got, want):
    assert got.labels_.dtype == want.labels_.dtype
    assert np.array_equal(got.labels_, want.labels_)
    assert got.cluster_centers_.shape == want.cluster_centers_.shape
    assert hexed(got.cluster_centers_) == hexed(want.cluster_centers_)
    assert float(got.inertia_).hex() == float(want.inertia_).hex()
    assert got.n_iter_ == want.n_iter_
    if hasattr(want, "_counts"):
        assert hexed(got._counts) == hexed(want._counts)


def fit_both(new_cls, ref_cls, x, seed, **kw):
    """Fit both under energy meters with their own generators; the meters'
    charges and the generators' final states must agree too."""
    rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    fits = []
    for cls, rng in zip((new_cls, ref_cls), rngs):
        with EnergyMeter() as meter:
            fits.append(cls(rng=rng, **kw).fit(x))
        fits[-1].charged = (meter.flops_cpu.hex(), meter.bytes_cpu.hex())
    got, want = fits
    assert_same_fit(got, want)
    assert got.charged == want.charged
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    return got, want


DATA = {
    "gaussian": gaussian, "quantized": quantized, "few-distinct": few_distinct,
    "identical": identical, "outliers": with_outliers,
}


class TestLloyd:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("data", sorted(DATA))
    @pytest.mark.parametrize("k", [1, 2, 4, 6])
    def test_fits_match(self, data, d, k):
        for seed in range(3):
            x = DATA[data](64 + 37 * seed, d, seed)
            fit_both(KMeans, RefKMeans, x, seed, n_clusters=k)

    @pytest.mark.parametrize("d", [1, 3])
    def test_xmaxent_and_hmaxent_sizes(self, d):
        for seed in range(4):
            fit_both(KMeans, RefKMeans, gaussian(512, d, seed), seed, n_clusters=4)

    def test_n_init_and_tolerances(self):
        x = quantized(120, 2, 5)
        for n_init, tol, max_iter in [(3, 1e-6, 100), (2, 0.0, 7), (1, 1e-2, 3)]:
            fit_both(KMeans, RefKMeans, x, 9, n_clusters=5, n_init=n_init, tol=tol,
                     max_iter=max_iter)

    def test_an_emptied_cluster_is_reseeded(self):
        HITS.clear()
        for d in (1, 3):
            fit_both(KMeans, RefKMeans, few_distinct(90, d, 2), 4, n_clusters=5)
        assert HITS["reseed"] > 0

    @pytest.mark.parametrize("d", [1, 4])
    def test_n_below_k(self, d):
        for n in (1, 2, 3):
            fit_both(KMeans, RefKMeans, gaussian(n, d, n), n, n_clusters=5)

    @pytest.mark.parametrize("layout", ["F", "strided"])
    @pytest.mark.parametrize("d", [1, 3])
    def test_layouts(self, layout, d):
        x = layouts(gaussian(150, d, 6))[layout]
        fit_both(KMeans, RefKMeans, x, 6, n_clusters=4)

    def test_predict(self):
        x = gaussian(200, 3, 7)
        got, want = fit_both(KMeans, RefKMeans, x, 7, n_clusters=4)
        probe = gaussian(80, 3, 8)
        assert np.array_equal(got.predict(probe), want.predict(probe))


class TestMiniBatch:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("data", sorted(DATA))
    @pytest.mark.parametrize("k", [2, 4, 7])
    def test_fits_match(self, data, d, k):
        for seed, batch in ((0, 32), (1, 100)):
            x = DATA[data](150, d, seed)
            fit_both(MiniBatchKMeans, RefMiniBatchKMeans, x, seed, n_clusters=k,
                     batch_size=batch, max_iter=30)

    def test_hmaxent_size(self):
        for seed in range(2):
            fit_both(MiniBatchKMeans, RefMiniBatchKMeans, gaussian(512, 4, seed), seed,
                     n_clusters=4, batch_size=256)

    def test_a_starved_center_is_reassigned(self):
        HITS.clear()
        for d in (1, 3):
            for seed in range(4):
                fit_both(MiniBatchKMeans, RefMiniBatchKMeans, with_outliers(300, d, seed),
                         seed, n_clusters=4, batch_size=40, max_iter=40,
                         reassignment_ratio=0.2)
        assert HITS["reassign"] > 0

    @pytest.mark.parametrize("d", [1, 3])
    def test_batch_size_above_n_and_n_below_k(self, d):
        for n in (2, 5, 40):
            fit_both(MiniBatchKMeans, RefMiniBatchKMeans, quantized(n, d, n), n,
                     n_clusters=6, batch_size=64, max_iter=12)

    @pytest.mark.parametrize("layout", ["F", "strided"])
    def test_layouts(self, layout):
        x = layouts(gaussian(150, 3, 3))[layout]
        fit_both(MiniBatchKMeans, RefMiniBatchKMeans, x, 3, n_clusters=4, batch_size=50,
                 max_iter=20)

    @pytest.mark.parametrize("data", ["gaussian", "quantized"])
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_streaming_partial_fit_and_predict(self, data, d):
        """``StreamingMaxEnt``'s use (d = 1) and a multi-column stream; the
        first chunk is smaller than ``n_clusters``."""
        x = DATA[data](600, d, d)
        got = MiniBatchKMeans(n_clusters=6, rng=np.random.default_rng(d))
        want = RefMiniBatchKMeans(n_clusters=6, rng=np.random.default_rng(d))
        charges = []
        for km in (got, want):
            with EnergyMeter() as meter:
                labels = []
                for lo, hi in ((0, 4), (4, 90), (90, 91), (91, 400), (400, 600)):
                    km.partial_fit(x[lo:hi])
                    labels.append(km.predict(x[lo:hi]))
            charges.append((meter.flops_cpu.hex(), meter.bytes_cpu.hex(), labels))
            km.labels_ = np.concatenate(labels)
            km.inertia_ = 0.0
        assert_same_fit(got, want)
        assert charges[0][:2] == charges[1][:2]
        for a, b in zip(charges[0][2], charges[1][2]):
            assert np.array_equal(a, b)


class TestPlusPlus:
    @pytest.mark.parametrize("data", sorted(DATA))
    @pytest.mark.parametrize("d", [1, 3])
    def test_centers_match(self, data, d):
        x = DATA[data](70, d, 1)
        for k in (1, 3, 6, 70):
            rngs = np.random.default_rng(k), np.random.default_rng(k)
            got = kmeans_plus_plus(x, k, rngs[0])
            want = ref_kmeans_plus_plus(x, k, rngs[1])
            assert hexed(got) == hexed(want)
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_seed_int_and_errors(self):
        x = gaussian(20, 2, 0)
        assert hexed(kmeans_plus_plus(x, 4, 11)) == hexed(ref_kmeans_plus_plus(x, 4, 11))
        for bad in (0, 21):
            with pytest.raises(ValueError, match="k must be in"):
                kmeans_plus_plus(x, bad, 0)


class TestBlocks:
    """Inputs longer than a distance block, with the block made small."""

    def test_blocked_fits_match(self, monkeypatch):
        monkeypatch.setattr(kmeans, "_BLOCK", 64)
        monkeypatch.setitem(globals(), "REF_BLOCK", 64)
        for d in (1, 3):
            x = gaussian(200, d, d)
            fit_both(KMeans, RefKMeans, x, d, n_clusters=4)
            fit_both(MiniBatchKMeans, RefMiniBatchKMeans, x, d, n_clusters=4,
                     batch_size=150, max_iter=10)
