"""Information-theoretic machinery behind MaxEnt sampling (paper §4.1).

The paper computes, for a set of clusters with per-cluster probability
distributions P(C_i) over the cluster variable:

* pairwise relative entropies   A_ij = Σ P(C_i) log(P(C_i) / P(C_j))   (Eq. 2)
  — an adjacency matrix of KL divergences, and
* node strengths — the row sums of A — which weight the subsequent
  entropy-weighted random sampling.

A cluster whose distribution diverges most from everyone else's (a rare,
information-rich region: wake cores, turbulent layers, flame fronts) gets the
largest node strength and is therefore sampled hardest.  The adjacency matrix
is exposed as a :mod:`networkx` digraph for analysis/visualization.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

__all__ = [
    "shannon_entropy",
    "kl_divergence",
    "check_bin_count",
    "cube_moments",
    "group_distributions",
    "cluster_value_distributions",
    "entropy_adjacency",
    "node_strengths",
    "adjacency_graph",
    "strength_weights",
]

_EPS = 1e-12


def _as_prob(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {p.shape}")
    if np.any(p < 0):
        raise ValueError(f"{name} has negative entries")
    total = p.sum()
    if total <= 0:
        raise ValueError(f"{name} has zero mass")
    return p / total


def shannon_entropy(p: np.ndarray, base: float | None = None) -> float:
    """H(p) = -Σ p log p (natural log unless `base` given)."""
    p = _as_prob(p, "p")
    nz = p[p > 0]
    h = float(-(nz * np.log(nz)).sum())
    if base is not None:
        h /= np.log(base)
    return h


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """D(p || q) = Σ p log(p/q), with q floored at eps to stay finite (Eq. 1).

    The floor matches the paper's practical implementation: empirical
    histograms routinely contain empty bins, and an infinite divergence would
    poison the node strengths.
    """
    p = _as_prob(p, "p")
    q = _as_prob(q, "q")
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    q = np.maximum(q, _EPS)
    nz = p > 0
    return float((p[nz] * np.log(p[nz] / q[nz])).sum())


def check_bin_count(name: str, bins) -> None:
    """Raise ``ValueError`` naming `name` unless `bins` is an int >= 1."""
    if isinstance(bins, bool) or not isinstance(bins, (int, np.integer)) or bins < 1:
        raise ValueError(f"{name} must be an int >= 1, got {bins!r}")


def cube_moments(block: np.ndarray) -> np.ndarray:
    """(mean, std, skewness, kurtosis) of each row of a (cubes, values) block,
    bitwise the 1-D computation per row: numerators are products, the same bits
    under any numpy SIMD dispatch; denominators are per-cube scalar powers."""
    mean, std = block.mean(axis=1), block.std(axis=1)
    centred = block - mean[:, None]
    c2 = centred * centred
    skew = [m3 / max(s**3, 1e-12) for m3, s in zip((c2 * centred).mean(axis=1), std)]
    kurt = [m4 / max(s**4, 1e-12) for m4, s in zip((c2 * c2).mean(axis=1), std)]
    return np.column_stack([mean, std, skew, kurt])


def group_distributions(values, groups, n_groups: int, edges: np.ndarray) -> np.ndarray:
    """(n_groups, bins) row-normalized histograms of `values` per group, with
    counts equal to ``np.histogram(values[groups == g], bins=edges)``'s from
    one ``searchsorted`` and one ``bincount`` (`groups` broadcasts against
    `values`); a group with no count gets a uniform row."""
    bins = len(edges) - 1
    idx = np.searchsorted(edges[:-1], values, side="right") - 1
    keep = (idx >= 0) & (values <= edges[-1]) & (groups >= 0) & (groups < n_groups)
    counts = np.bincount((groups * bins + idx)[keep], minlength=n_groups * bins).reshape(-1, bins)
    total = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, total, out=np.full(counts.shape, 1.0 / bins), where=total > 0)


def cluster_value_distributions(
    values: np.ndarray, labels: np.ndarray, n_clusters: int, bins: int = 100
) -> np.ndarray:
    """Per-cluster histograms of the cluster variable on shared edges.

    Returns (n_clusters, bins) row-normalized probabilities; empty clusters
    get a uniform row (zero divergence against everything — harmless).
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    labels = np.asarray(labels)
    if values.shape != labels.shape:
        raise ValueError("values/labels length mismatch")
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        hi = lo + 1.0
    return group_distributions(values, labels, n_clusters, np.linspace(lo, hi, bins + 1))


def entropy_adjacency(distributions: np.ndarray) -> np.ndarray:
    """Pairwise KL adjacency A_ij = D(P_i || P_j)  (paper Eq. 2).

    Diagonal is zero; matrix is generally asymmetric (KL is not a metric).
    """
    dists = np.asarray(distributions, dtype=np.float64)
    if dists.ndim != 2:
        raise ValueError("distributions must be (n_clusters, bins)")
    # Vectorized: A_ij = sum_b P_ib log(P_ib) - sum_b P_ib log(P_jb).
    p = dists / np.maximum(dists.sum(axis=1, keepdims=True), _EPS)
    logp = np.log(np.maximum(p, _EPS))
    self_term = (p * logp).sum(axis=1)  # Σ p_i log p_i
    cross = p @ logp.T  # cross[i, j] = Σ_b p_ib log p_jb
    a = self_term[:, None] - cross
    np.fill_diagonal(a, 0.0)
    # Numerical floor: KL >= 0.
    return np.maximum(a, 0.0)


def node_strengths(adjacency: np.ndarray) -> np.ndarray:
    """Row sums of the adjacency: s_i = Σ_j A_ij."""
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency must be square")
    return a.sum(axis=1)


def adjacency_graph(adjacency: np.ndarray) -> nx.DiGraph:
    """The adjacency as a weighted digraph (for analysis / visualization)."""
    a = np.asarray(adjacency, dtype=np.float64)
    g = nx.DiGraph()
    g.add_nodes_from(range(a.shape[0]))
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            if i != j and a[i, j] > 0:
                g.add_edge(i, j, weight=float(a[i, j]))
    return g


def strength_weights(strengths: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Normalize node strengths into sampling probabilities.

    ``temperature`` sharpens (<1) or flattens (>1) the weighting; all-zero
    strengths (identical clusters) fall back to uniform.
    """
    s = np.asarray(strengths, dtype=np.float64)
    if np.any(s < 0):
        raise ValueError("strengths must be non-negative")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    s = s ** (1.0 / temperature)
    total = s.sum()
    if total <= 0:
        return np.full(s.shape, 1.0 / len(s))
    return s / total
