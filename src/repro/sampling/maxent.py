"""Maximum-entropy sampling: the paper's contribution (§4.1, Fig 3).

Two phases:

**Phase 1 — Hmaxent (hypercube selection),** run by
:class:`~repro.sampling.selectors.MaxEntCubeSelector`.  Every candidate
hypercube is summarized by moments of its cluster variable; cubes are
clustered with mini-batch K-means; per-cluster distributions of the cluster
variable give a KL adjacency (Eq. 2) whose node strengths weight an
entropy-weighted random draw of ``num_hypercubes`` cubes.  Cubes living in
rare, distributionally distinct regions (turbulent layers, wakes) are
preferentially kept.

**Phase 2 — Xmaxent (point selection),** this module's
:class:`MaxEntSampler`.  Inside each kept cube the same
machinery runs at point level: cluster points on the cluster variable,
compute distributions → adjacency → node strengths, allocate the per-cube
budget across clusters proportionally to strength, draw randomly within each
cluster.  High-strength (tail) clusters are oversampled, which is why MaxEnt
covers PDF tails better than random sampling (Fig 5).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.kmeans import KMeans
from repro.energy.meter import account
from repro.sampling.base import Sampler, register_sampler
from repro.sampling.entropy import (
    cluster_value_distributions,
    entropy_adjacency,
    node_strengths,
    strength_weights,
)
from repro.sampling.stratified import allocate_counts

__all__ = ["MaxEntSampler", "maxent_cluster_weights"]


def maxent_cluster_weights(
    values: np.ndarray,
    labels: np.ndarray,
    n_clusters: int,
    bins: int = 100,
    temperature: float = 1.0,
) -> np.ndarray:
    """Node-strength sampling weights for clusters of a value array.

    The full §4.1 chain: per-cluster distributions → KL adjacency →
    node strengths → normalized weights.
    """
    dists = cluster_value_distributions(values, labels, n_clusters, bins=bins)
    adjacency = entropy_adjacency(dists)
    strengths = node_strengths(adjacency)
    account(flops=float(n_clusters * n_clusters * bins), device="cpu")
    return strength_weights(strengths, temperature=temperature)


@register_sampler("maxent")
class MaxEntSampler(Sampler):
    """Phase-2 Xmaxent point sampler.

    ``features`` should be the cluster variable (1 column) or a small set of
    variables; clustering runs on the features, distributions are computed on
    the first column (the designated cluster variable).
    """

    cost_per_point = 10.0

    def __init__(
        self,
        n_clusters: int = 20,
        bins: int = 100,
        temperature: float = 1.0,
        min_cluster_weight: float = 0.0,
    ) -> None:
        if n_clusters < 2:
            raise ValueError("n_clusters must be >= 2 (entropy needs contrast)")
        if bins < 2:
            raise ValueError("bins must be >= 2")
        if min_cluster_weight < 0:
            raise ValueError("min_cluster_weight must be >= 0")
        self.n_clusters = n_clusters
        self.bins = bins
        self.temperature = temperature
        self.min_cluster_weight = min_cluster_weight

    def select(self, features: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
        n_points = features.shape[0]
        k = min(self.n_clusters, max(2, n_points // 4), n_points)
        km = KMeans(n_clusters=k, rng=rng).fit(features)
        labels = km.labels_
        k_eff = km.cluster_centers_.shape[0]
        weights = maxent_cluster_weights(
            features[:, 0], labels, k_eff, bins=self.bins, temperature=self.temperature
        )
        if self.min_cluster_weight > 0:
            weights = np.maximum(weights, self.min_cluster_weight)
            weights = weights / weights.sum()
        sizes = np.bincount(labels, minlength=k_eff)
        counts = allocate_counts(n, sizes, weights)
        chosen: list[np.ndarray] = []
        for c in range(k_eff):
            if counts[c] == 0:
                continue
            members = np.flatnonzero(labels == c)
            chosen.append(rng.choice(members, size=counts[c], replace=False))
        return np.concatenate(chosen)
