"""Temporal snapshot selection (paper §4.3).

Snapshots written at a fixed cadence often repeat the same state — vortex
shedding in OF2D revisits identical phases every period — so training on all
of them adds no information.  Intelligent temporal sampling keeps the
snapshots whose input PDFs are *novel* relative to what is already kept.

``method='maxent'`` greedily maximizes the minimum Jensen-Shannon divergence
between a candidate snapshot's cluster-variable histogram and the kept set
(max-min novelty); ``'uniform'`` keeps an evenly spaced subset; ``'random'``
keeps a random subset.
"""

from __future__ import annotations

import numpy as np

from repro.sampling.entropy import group_distributions, kl_divergence
from repro.utils.rng import resolve_rng

__all__ = ["select_snapshots", "js_divergence", "snapshot_histograms"]


def js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence (symmetric, bounded by log 2)."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    p = p / p.sum()
    q = q / q.sum()
    m = 0.5 * (p + q)
    return 0.5 * kl_divergence(p, m) + 0.5 * kl_divergence(q, m)


def snapshot_histograms(
    snapshots, variable: str, bins: int = 100
) -> np.ndarray:
    """(n_snapshots, bins) histograms of `variable` on shared edges."""
    values = [np.asarray(s.get(variable)).reshape(-1) for s in snapshots]
    lo = min(v.min() for v in values)
    hi = max(v.max() for v in values)
    if lo == hi:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    return np.concatenate([group_distributions(v, 0, 1, edges) for v in values])


def select_snapshots(
    snapshots,
    n: int,
    variable: str,
    method: str = "maxent",
    bins: int = 100,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Indices of `n` snapshots to keep, in ascending order."""
    n_snaps = len(snapshots)
    if not (1 <= n <= n_snaps):
        raise ValueError(f"n must be in [1, {n_snaps}], got {n}")
    rng = resolve_rng(rng)
    if method == "uniform":
        return np.unique(np.linspace(0, n_snaps - 1, n).round().astype(int))
    if method == "random":
        return np.sort(rng.choice(n_snaps, size=n, replace=False))
    if method != "maxent":
        raise ValueError(f"unknown temporal method {method!r}")

    hists = snapshot_histograms(snapshots, variable, bins=bins)
    # Greedy max-min JS novelty, seeded with the first snapshot.
    kept = [0]
    min_div = np.array([js_divergence(hists[0], hists[i]) for i in range(n_snaps)])
    while len(kept) < n:
        min_div[kept] = -np.inf
        nxt = int(np.argmax(min_div))
        kept.append(nxt)
        new_div = np.array([js_divergence(hists[nxt], hists[i]) for i in range(n_snaps)])
        min_div = np.minimum(min_div, new_div)
    return np.sort(np.asarray(kept))
