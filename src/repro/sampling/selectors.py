"""Phase-1 hypercube selector interface and registry.

SICKLE's "pluggable architecture" claim covers both phases of the
subsampling pipeline.  Phase-2 point samplers have always been pluggable
through :mod:`repro.sampling.base`; this module gives phase-1 hypercube
selection the same treatment.  A :class:`CubeSelector` consumes the rank-0
gathered per-cube statistics (moment summaries + cluster-variable
histograms) and returns the ids of the cubes to keep.  The pipeline, the
CLI, and YAML case files refer to selectors by their registry names:

====================  ======================================================
``maxent``            Hmaxent — K-means over cube moments, KL adjacency of
                      per-cluster distributions, entropy-weighted draw
``random``            Hrandom — uniform draw without replacement
``entropy``           per-cube Shannon-entropy-weighted draw (no clustering)
====================  ======================================================

Register more with :func:`register_selector`; anything registered here is
immediately accepted by ``hypercubes:`` in YAML case files and by
:class:`repro.api.Experiment`.  Selectors carry a ``cost_per_point``
work-unit cost (like :class:`~repro.sampling.base.Sampler`) so the
pipeline's virtual-clock accounting never needs a hard-wired cost table.
"""

from __future__ import annotations

import abc
from collections.abc import Callable

import numpy as np

from repro.cluster.kmeans import MiniBatchKMeans
from repro.energy.meter import account
from repro.sampling.entropy import (
    entropy_adjacency, node_strengths, shannon_entropy, strength_weights,
)
from repro.utils.rng import resolve_rng

__all__ = [
    "CubeSelector",
    "register_selector",
    "get_selector",
    "available_selectors",
    "MaxEntCubeSelector",
    "RandomCubeSelector",
    "EntropyCubeSelector",
]

_REGISTRY: dict[str, type[CubeSelector]] = {}


class CubeSelector(abc.ABC):
    """Selects ``n`` hypercube ids from gathered per-cube statistics.

    ``summaries`` is (n_cubes, n_moments): moment summaries of each cube's
    cluster-variable block.  ``histograms`` is (n_cubes, n_bins): each cube's
    normalized cluster-variable histogram on globally agreed edges.
    """

    #: registry name, set by the @register_selector decorator
    name: str = ""

    #: virtual-clock work units charged per candidate cube statistic scanned
    #: during selection; safe default for third-party selectors.
    cost_per_point: float = 1.0

    def select(
        self,
        summaries: np.ndarray,
        histograms: np.ndarray,
        n: int,
        num_clusters: int = 8,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        """Validated entry point: returns `n` sorted unique cube ids."""
        summaries = np.asarray(summaries, dtype=np.float64)
        histograms = np.asarray(histograms, dtype=np.float64)
        if summaries.ndim != 2:
            raise ValueError(f"summaries must be (n_cubes, d), got {summaries.shape}")
        if histograms.ndim != 2:
            raise ValueError(f"histograms must be (n_cubes, bins), got {histograms.shape}")
        n_cubes = summaries.shape[0]
        if histograms.shape[0] != n_cubes:
            raise ValueError(
                f"summaries ({n_cubes}) and histograms ({histograms.shape[0]}) disagree on cube count"
            )
        if n_cubes == 0:
            raise ValueError("no candidate hypercubes")
        if not (1 <= n <= n_cubes):
            raise ValueError(f"n must be in [1, {n_cubes}], got {n}")
        if not (np.all(np.isfinite(summaries)) and np.all(np.isfinite(histograms))):
            raise ValueError("cube statistics contain non-finite values")
        rng = resolve_rng(rng)
        # Every selector at minimum scans the gathered statistics once.
        account(flops=float(summaries.size + histograms.size),
                nbytes=float(summaries.nbytes + histograms.nbytes), device="cpu")
        idx = np.asarray(self.select_cubes(summaries, histograms, n, num_clusters, rng))
        if idx.shape != (n,):
            raise AssertionError(f"{type(self).__name__} returned shape {idx.shape}, wanted ({n},)")
        if len(np.unique(idx)) != n:
            raise AssertionError(f"{type(self).__name__} returned duplicate cube ids")
        if idx.min() < 0 or idx.max() >= n_cubes:
            raise AssertionError(f"{type(self).__name__} returned out-of-range cube ids")
        return np.sort(idx.astype(np.int64))

    @abc.abstractmethod
    def select_cubes(
        self,
        summaries: np.ndarray,
        histograms: np.ndarray,
        n: int,
        num_clusters: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Strategy-specific selection; inputs are pre-validated."""


def register_selector(name: str) -> Callable[[type[CubeSelector]], type[CubeSelector]]:
    """Class decorator adding a cube selector to the registry under `name`."""

    def deco(cls: type[CubeSelector]) -> type[CubeSelector]:
        if not issubclass(cls, CubeSelector):
            raise TypeError(f"{cls.__name__} must subclass CubeSelector")
        if name in _REGISTRY:
            raise ValueError(f"selector {name!r} already registered")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return deco


def get_selector(name: str, **kwargs) -> CubeSelector:
    """Instantiate a registered cube selector by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown selector {name!r}; available: {available_selectors()}") from None
    return cls(**kwargs)


def available_selectors() -> list[str]:
    return sorted(_REGISTRY)


@register_selector("random")
class RandomCubeSelector(CubeSelector):
    """Hrandom: uniform cube choice without replacement (the baseline)."""

    cost_per_point = 0.5

    def select_cubes(self, summaries, histograms, n, num_clusters, rng):
        return rng.choice(summaries.shape[0], size=n, replace=False)


@register_selector("maxent")
class MaxEntCubeSelector(CubeSelector):
    """Hmaxent: the paper's §4.1 chain at hypercube level.

    K-means clusters the cube moment summaries; each cluster's distribution
    is the mean histogram of its member cubes; KL adjacency → node strengths
    → per-cluster weights, divided evenly among member cubes, drive an
    entropy-weighted draw without replacement.
    """

    cost_per_point = 4.0

    def select_cubes(self, summaries, histograms, n, num_clusters, rng):
        n_cubes = summaries.shape[0]
        k = min(num_clusters, max(2, n_cubes // 2), n_cubes)
        km = MiniBatchKMeans(n_clusters=k, batch_size=min(256, n_cubes), rng=rng).fit(summaries)
        labels = km.labels_
        k_eff = km.cluster_centers_.shape[0]
        # Per-cluster distribution = mean histogram of member cubes.
        dists = np.stack([
            histograms[labels == c].mean(axis=0) if np.any(labels == c) else
            np.full(histograms.shape[1], 1.0 / histograms.shape[1])
            for c in range(k_eff)
        ])
        weights_by_cluster = strength_weights(node_strengths(entropy_adjacency(dists)))
        cluster_sizes = np.bincount(labels, minlength=k_eff).astype(np.float64)
        per_cube = weights_by_cluster[labels] / np.maximum(cluster_sizes[labels], 1.0)
        per_cube = per_cube / per_cube.sum()
        return rng.choice(n_cubes, size=n, replace=False, p=per_cube)


@register_selector("entropy")
class EntropyCubeSelector(CubeSelector):
    """Pure entropy weighting: cubes drawn ∝ their own histogram entropy.

    Unlike Hmaxent there is no clustering and no pairwise KL graph — each
    cube is weighted by the Shannon entropy of its *own* cluster-variable
    histogram, so cubes with rich internal variability (broad PDFs) are
    preferentially kept while near-constant cubes are suppressed.  O(n·bins)
    instead of Hmaxent's K-means + O(k²·bins) adjacency.
    """

    cost_per_point = 1.5

    def __init__(self, temperature: float = 1.0, floor: float = 1e-3) -> None:
        if temperature <= 0:
            raise ValueError("temperature must be > 0")
        if floor < 0:
            raise ValueError("floor must be >= 0")
        self.temperature = temperature
        self.floor = floor

    def select_cubes(self, summaries, histograms, n, num_clusters, rng):
        n_cubes = histograms.shape[0]
        ent = np.array([shannon_entropy(h) for h in histograms], dtype=np.float64)
        weights = np.power(ent + self.floor, 1.0 / self.temperature)
        total = weights.sum()
        per_cube = weights / total if total > 0 else np.full(n_cubes, 1.0 / n_cubes)
        return rng.choice(n_cubes, size=n, replace=False, p=per_cube)
