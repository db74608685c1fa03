"""K-means clustering: Lloyd's algorithm and the mini-batch variant.

API mirrors scikit-learn (``fit`` / ``predict`` / ``cluster_centers_`` /
``labels_`` / ``inertia_``) so the sampling code reads like the paper's.
Distances are computed with the ||x||^2 - 2x.c + ||c||^2 expansion in blocks,
keeping memory bounded for multi-million-point inputs; the FLOPs are charged
to the active :class:`~repro.energy.meter.EnergyMeter`.

The sampler's fits are small, so numpy's per-call overhead is their cost:
row norms are computed once per fit (or batch) and shared with the seeding,
one-column data skips the matmul (its outer product rounds once either way),
and distances are assembled in place.  Two rules keep every bit of the plain
formulation:

* ``np.bincount(labels, weights=x[:, j])`` adds a cluster's rows in row
  order, as ``np.add.at`` does and, for d > 1, as ``mean(axis=0)`` does;
* a 1-D ``mean`` sums pairwise, so the d = 1 mini-batch step keeps it.
"""

from __future__ import annotations

import numpy as np

from repro.energy.meter import account
from repro.utils.rng import resolve_rng

__all__ = ["KMeans", "MiniBatchKMeans", "kmeans_plus_plus"]

_BLOCK = 1 << 18  # points per distance block: bounds temp memory to ~k * 256k floats


def _as_2d(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"expected (n, d) data, got shape {x.shape}")
    if x.shape[0] == 0:
        raise ValueError("cannot cluster empty data")
    if not np.isfinite(x).all():
        raise ValueError("data contains non-finite values")
    return x


def _sq_norms(x: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, x)


def _pairwise_sq(x: np.ndarray, x_sq: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances (n, k); negative round-off clipped."""
    c_sq = _sq_norms(centers)
    d = x * centers[:, 0] if x.shape[1] == 1 else x @ centers.T
    d *= 2.0
    np.subtract(x_sq[:, None], d, out=d)
    d += c_sq
    np.maximum(d, 0.0, out=d)
    account(flops=2.0 * x.shape[0] * centers.shape[0] * x.shape[1], nbytes=8.0 * x.size, device="cpu")
    return d


def _assign(x: np.ndarray, x_sq: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-center labels and squared distances, blocked over points."""
    blocks = []
    for lo in range(0, x.shape[0], _BLOCK):
        d = _pairwise_sq(x[lo : lo + _BLOCK], x_sq[lo : lo + _BLOCK], centers)
        labels = d.argmin(axis=1)
        blocks.append((labels, d.ravel()[labels + np.arange(0, d.size, d.shape[1])]))
    if len(blocks) == 1:
        return blocks[0]
    return np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])


def _cluster_sums(x: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster row sums (k, d), each added in row order."""
    sums = np.empty((k, x.shape[1]))
    for j in range(x.shape[1]):
        sums[:, j] = np.bincount(labels, weights=x[:, j], minlength=k)
    return sums


def kmeans_plus_plus(
    x: np.ndarray, k: int, rng: np.random.Generator | int | None = None
) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii 2007)."""
    x = _as_2d(x)
    return _plus_plus(x, _sq_norms(x), k, resolve_rng(rng))


def _plus_plus(x: np.ndarray, x_sq: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, n={n}], got {k}")
    centers = np.empty((k, x.shape[1]), dtype=np.float64)
    centers[0] = x[rng.integers(n)]
    closest = _pairwise_sq(x, x_sq, centers[:1])[:, 0]
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # All points coincide with chosen centers; fill remaining uniformly.
            centers[i:] = x[rng.integers(n, size=k - i)]
            break
        centers[i] = x[rng.choice(n, p=closest / total)]
        np.minimum(closest, _pairwise_sq(x, x_sq, centers[i : i + 1])[:, 0], out=closest)
    return centers


class KMeans:
    """Lloyd's algorithm with k-means++ init and empty-cluster reseeding."""

    def __init__(
        self,
        n_clusters: int,
        max_iter: int = 100,
        tol: float = 1e-6,
        n_init: int = 1,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        self.n_clusters = n_clusters
        self.max_iter = max_iter
        self.tol = tol
        self.n_init = n_init
        self._rng = resolve_rng(rng)
        self.cluster_centers_: np.ndarray | None = None
        self.labels_: np.ndarray | None = None
        self.inertia_: float = np.inf
        self.n_iter_: int = 0

    def _single_run(self, x: np.ndarray, x_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, int]:
        k = min(self.n_clusters, x.shape[0])
        centers = _plus_plus(x, x_sq, k, self._rng)
        inertia = np.inf
        it = 0
        for it in range(1, self.max_iter + 1):
            labels, dist = _assign(x, x_sq, centers)
            new_inertia = float(dist.sum())
            counts = np.bincount(labels, minlength=k).astype(np.float64)
            sums = _cluster_sums(x, labels, k)
            empty = counts == 0
            if empty.any():
                # Reseed empty clusters at the points farthest from their center.
                far = np.argsort(dist)[::-1][: int(empty.sum())]
                sums[empty] = x[far]
                counts[empty] = 1.0
            new_centers = sums / counts[:, None]
            converged = (inertia - new_inertia <= self.tol * max(inertia, 1.0)
                         and float(np.linalg.norm(new_centers - centers)) <= self.tol)
            centers = new_centers
            inertia = new_inertia
            if converged:
                break
        labels, dist = _assign(x, x_sq, centers)
        return centers, labels, float(dist.sum()), it

    def fit(self, x: np.ndarray) -> KMeans:
        x = _as_2d(x)
        x_sq = _sq_norms(x)
        best: tuple[np.ndarray, np.ndarray, float, int] | None = None
        for _ in range(max(1, self.n_init)):
            run = self._single_run(x, x_sq)
            if best is None or run[2] < best[2]:
                best = run
        assert best is not None
        self.cluster_centers_, self.labels_, self.inertia_, self.n_iter_ = best
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.cluster_centers_ is None:
            raise RuntimeError("fit must be called before predict")
        x = _as_2d(x)
        return _assign(x, _sq_norms(x), self.cluster_centers_)[0]


class MiniBatchKMeans:
    """Mini-batch K-means (Sculley 2010) — the paper's at-scale clusterer.

    Each iteration draws a batch, assigns points to the nearest center, and
    moves centers with a per-center learning rate ``1 / count``.  Converges to
    within a few percent of Lloyd's inertia at a fraction of the passes —
    exactly why the paper uses it for terabyte inputs.  A ``batch_size``
    above n draws all n rows, without replacement, on every iteration.
    """

    def __init__(
        self,
        n_clusters: int,
        batch_size: int = 1024,
        max_iter: int = 100,
        tol: float = 1e-4,
        reassignment_ratio: float = 0.01,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        self.n_clusters = n_clusters
        self.batch_size = batch_size
        self.max_iter = max_iter
        self.tol = tol
        self.reassignment_ratio = reassignment_ratio
        self._rng = resolve_rng(rng)
        self.cluster_centers_: np.ndarray | None = None
        self._counts: np.ndarray | None = None
        self.labels_: np.ndarray | None = None
        self.inertia_: float = np.inf
        self.n_iter_: int = 0

    def partial_fit(self, batch: np.ndarray) -> MiniBatchKMeans:
        """Update centers from one batch (streaming / out-of-core entry point)."""
        batch = _as_2d(batch)
        self._step(batch, _sq_norms(batch))
        return self

    def _step(self, batch: np.ndarray, b_sq: np.ndarray) -> None:
        """Move each center by ``eta = members / count`` toward its members' mean."""
        if self.cluster_centers_ is None:
            k = min(self.n_clusters, batch.shape[0])
            self.cluster_centers_ = _plus_plus(batch, b_sq, k, self._rng)
            self._counts = np.zeros(k, dtype=np.float64)
        centers, counts = self.cluster_centers_, self._counts
        assert counts is not None
        labels, _ = _assign(batch, b_sq, centers)
        members = np.bincount(labels, minlength=centers.shape[0])
        if batch.shape[1] == 1:
            for j in np.flatnonzero(members):
                counts[j] += members[j]
                eta = members[j] / counts[j]
                centers[j] += eta * (batch[labels == j].mean(axis=0) - centers[j])
            return
        sums = _cluster_sums(batch, labels, centers.shape[0])
        present = members > 0
        m = members[present]
        counts[present] += m
        eta = m / counts[present]
        centers[present] += eta[:, None] * (sums[present] / m[:, None] - centers[present])

    def fit(self, x: np.ndarray) -> MiniBatchKMeans:
        x = _as_2d(x)
        n = x.shape[0]
        self.cluster_centers_ = None
        self._counts = None
        prev_inertia = np.inf
        batch = min(self.batch_size, n)
        stall = 0
        for it in range(1, self.max_iter + 1):
            self.n_iter_ = it
            rows = x[self._rng.choice(n, size=batch, replace=False)]
            rows_sq = _sq_norms(rows)
            self._step(rows, rows_sq)
            assert self.cluster_centers_ is not None
            inertia = float(_assign(rows, rows_sq, self.cluster_centers_)[1].mean())
            if abs(prev_inertia - inertia) <= self.tol * max(inertia, 1e-30):
                stall += 1
                if stall >= 3:
                    break
            else:
                stall = 0
            prev_inertia = inertia
        self._maybe_reassign(x)
        self.labels_, dist = _assign(x, _sq_norms(x), self.cluster_centers_)
        self.inertia_ = float(dist.sum())
        return self

    def _maybe_reassign(self, x: np.ndarray) -> None:
        """Reseed centers that captured almost no mass (sklearn-style)."""
        assert self.cluster_centers_ is not None and self._counts is not None
        total = self._counts.sum()
        starved = self._counts < self.reassignment_ratio * total / self.n_clusters
        n_starved = int(starved.sum())
        if n_starved:
            # n_starved <= k <= n, so the draw never needs replacement
            idx = self._rng.choice(x.shape[0], size=n_starved, replace=False)
            self.cluster_centers_[starved] = x[idx]
            self._counts[starved] = 1.0

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.cluster_centers_ is None:
            raise RuntimeError("fit must be called before predict")
        x = _as_2d(x)
        return _assign(x, _sq_norms(x), self.cluster_centers_)[0]
