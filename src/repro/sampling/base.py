"""Sampler interfaces and registries — SICKLE's pluggable architecture.

The paper advertises "a pluggable architecture that makes it easy to
integrate other sampling strategies"; here a sampler is any class
implementing :meth:`Sampler.select` and registered under a name.  The
pipeline, benches, and YAML configs refer to samplers by these names
(``random``, ``lhs``, ``stratified``, ``uips``, ``maxent``).

Streaming (single-pass, in-situ) samplers live in a sibling registry with
the same naming scheme: :class:`StreamSampler` implementations register via
:func:`register_stream_sampler` under the offline name they mirror
(``random`` → reservoir sampling, ``maxent`` → online MaxEnt), so a case's
``method:`` key resolves in both ``mode="batch"`` and ``mode="stream"``.
"""

from __future__ import annotations

import abc
from collections.abc import Callable

import numpy as np

from repro.energy.meter import account
from repro.utils.rng import resolve_rng

__all__ = [
    "Sampler",
    "register_sampler",
    "get_sampler",
    "available_samplers",
    "StreamSampler",
    "register_stream_sampler",
    "get_stream_sampler",
    "stream_sampler_cls",
    "available_stream_samplers",
]

_REGISTRY: dict[str, type[Sampler]] = {}
_STREAM_REGISTRY: dict[str, type[StreamSampler]] = {}


def failed_producers_error(dead: list[tuple[int, str | None]]) -> RuntimeError:
    """The one error for dead stream producers under the ``"raise"`` policy
    (shared by :meth:`StreamSampler.merge_partial` and the streaming
    pipeline, so the message — including the remedy — cannot drift);
    ``dead`` holds each dead producer's ``(rank, error)``."""
    detail = "; ".join(f"rank {rank}: {error or 'died mid-span'}" for rank, error in dead)
    return RuntimeError(
        f"{len(dead)} stream producer(s) failed ({detail}); rerun with the "
        "'reweight' policy (on_rank_failure='reweight') to merge the "
        "partial streams"
    )


def fold_weighted_merge(items: list, weights: list[float] | None, rng, noun: str):
    """Fold ``items[1:]`` into ``items[0]`` by repeated weighted ``merge``.

    Shared by every ``merge_all`` flavour (stream samplers, raw reservoirs)
    so the fold semantics — weights default to each producer's own count,
    one rng drives every draw, order is the caller's — live in one place.

    ``weights[0]`` reweights the fold *target*: applied via its
    ``reweight`` method where supported, a validated no-op when it equals
    the target's own ``n_seen``, and a loud error otherwise — it is never
    silently dropped.
    """
    if not items:
        raise ValueError(f"merge_all needs at least one {noun}")
    if weights is not None and len(weights) != len(items):
        raise ValueError(f"weights must match {noun}s")
    rng = resolve_rng(rng)
    merged = items[0]
    if weights is not None and weights[0] is not None:
        w0 = float(weights[0])
        reweight = getattr(merged, "reweight", None)
        if reweight is not None:
            reweight(w0)
        elif w0 != float(merged.n_seen):
            raise ValueError(
                f"weights[0]={w0} would reweight the fold target, which "
                f"{type(merged).__name__} does not support; pass None (or "
                "its own n_seen) for the first entry"
            )
    for k, other in enumerate(items[1:], start=1):
        merged = merged.merge(
            other, weight=None if weights is None else float(weights[k]), rng=rng
        )
    return merged


class Sampler(abc.ABC):
    """Selects `n` point indices from a feature table.

    ``features`` is (n_points, d): the variables the method samples over —
    the K-means cluster variable for MaxEnt/stratified, the model input
    variables for UIPS (Table 1 / Fig 4).
    """

    #: registry name, set by the @register_sampler decorator
    name: str = ""

    #: virtual-clock work units charged per candidate point scanned by the
    #: pipeline (clustering-based methods revisit each point ~n_cluster-ish
    #: times; calibrated, not measured).  Safe default for third-party
    #: samplers, so anything registered via :func:`register_sampler` flows
    #: through the pipeline without a cost-table entry.
    cost_per_point: float = 1.0

    def sample(
        self,
        features: np.ndarray,
        n: int,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        """Validated entry point: returns `n` unique indices into `features`."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features[:, None]
        if features.ndim != 2:
            raise ValueError(f"features must be (n_points, d), got {features.shape}")
        n_points = features.shape[0]
        if n_points == 0:
            raise ValueError("cannot sample from an empty feature table")
        if not np.all(np.isfinite(features)):
            raise ValueError("features contain non-finite values")
        if n < 1:
            raise ValueError("n must be >= 1")
        if n > n_points:
            raise ValueError(f"requested {n} samples from {n_points} points")
        rng = resolve_rng(rng)
        # Every sampler at minimum scans the candidate table once.
        account(flops=float(features.size), nbytes=float(features.nbytes), device="cpu")
        idx = np.asarray(self.select(features, n, rng))
        if idx.shape != (n,):
            raise AssertionError(f"{type(self).__name__} returned shape {idx.shape}, wanted ({n},)")
        if len(np.unique(idx)) != n:
            raise AssertionError(f"{type(self).__name__} returned duplicate indices")
        if idx.min() < 0 or idx.max() >= n_points:
            raise AssertionError(f"{type(self).__name__} returned out-of-range indices")
        return idx

    @abc.abstractmethod
    def select(self, features: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
        """Strategy-specific selection; inputs are pre-validated."""


def register_sampler(name: str) -> Callable[[type[Sampler]], type[Sampler]]:
    """Class decorator adding a sampler to the registry under `name`."""

    def deco(cls: type[Sampler]) -> type[Sampler]:
        if not issubclass(cls, Sampler):
            raise TypeError(f"{cls.__name__} must subclass Sampler")
        if name in _REGISTRY:
            raise ValueError(f"sampler {name!r} already registered")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return deco


def get_sampler(name: str, **kwargs) -> Sampler:
    """Instantiate a registered sampler by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown sampler {name!r}; available: {available_samplers()}") from None
    return cls(**kwargs)


def available_samplers() -> list[str]:
    return sorted(_REGISTRY)


class StreamSampler(abc.ABC):
    """Single-pass sampler over a chunked stream — the in-situ counterpart
    of :class:`Sampler`.

    Constructor contract (so registry instantiation is uniform)::

        StreamSamplerSubclass(n_samples, value_range, rng=None, **kwargs)

    where ``value_range`` is the expected (lo, hi) range of the streamed
    cluster variable (samplers that don't bin values may ignore it).  Feed
    chunks as they are produced, then :meth:`finalize` once; the result rows
    are ``[value, payload...]`` like :meth:`StreamingMaxEnt.finalize`.
    """

    #: registry name, set by the @register_stream_sampler decorator
    name: str = ""

    #: virtual-clock work units per streamed point (same convention as
    #: :attr:`Sampler.cost_per_point`).
    cost_per_point: float = 1.0

    #: whether the sampler bins values and therefore needs a real
    #: ``value_range`` at construction; samplers that ignore the range keep
    #: this False so callers can skip computing a range hint entirely.
    needs_value_range: bool = False

    #: total points fed so far; implementations must keep this current.
    n_seen: int = 0

    @abc.abstractmethod
    def feed(self, values: np.ndarray, payload: np.ndarray | None = None) -> None:
        """Offer one chunk: `values` (n,) cluster variable, optional payload
        rows (n, d) carried alongside."""

    @abc.abstractmethod
    def finalize(self) -> np.ndarray:
        """End of stream: the selected rows ``[value, payload...]``."""

    def merge(
        self,
        other: StreamSampler,
        weight: float | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> StreamSampler:
        """Fold another producer's state into this sampler (multi-producer
        SPMD streaming: each rank streams its own partition, then rank 0
        merges).

        ``weight`` is the stream mass `other` represents (defaults to
        ``other.n_seen``), so the combined state stays distributionally
        equivalent to a single producer having streamed both partitions.
        Mutates and returns ``self``.  Optional for implementations —
        samplers that cannot merge raise ``NotImplementedError`` and stay
        single-producer.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support multi-producer merging"
        )

    @classmethod
    def merge_all(
        cls,
        samplers: list[StreamSampler],
        weights: list[float] | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> StreamSampler:
        """Merge per-rank samplers into one by repeated weighted
        :meth:`merge` (folds into ``samplers[0]`` and returns it).

        ``weights[i]`` defaults to ``samplers[i].n_seen`` — the number of
        stream rows rank `i` actually saw — which makes the merged sample
        distributionally equivalent to one producer over the whole stream.
        Deterministic for a fixed ``rng`` seed, sampler states, and order.
        """
        kinds = {type(s) for s in samplers}
        if len(kinds) > 1:
            raise TypeError(f"cannot merge mixed sampler types: {sorted(k.__name__ for k in kinds)}")
        return fold_weighted_merge(samplers, weights, rng, "sampler")

    @classmethod
    def merge_partial(
        cls,
        samplers: list[StreamSampler],
        reports: list | None = None,
        on_failure: str = "reweight",
        rng: np.random.Generator | int | None = None,
    ) -> StreamSampler:
        """Merge per-rank states whose producers may not have finished.

        The fault-tolerant flavour of :meth:`merge_all`: ``reports[i]`` is
        rank `i`'s :class:`~repro.parallel.partition.ProducerReport` (or any
        object with ``failed`` / ``rank`` / ``error``), describing what the
        producer actually delivered.  Under ``on_failure="reweight"`` the
        partial states of failed producers merge like any other — each
        state's own delivered mass drives the multivariate-hypergeometric
        allocation, so the merged sample is reweighted by *delivered*, not
        nominal, mass.  Under ``on_failure="raise"`` any failed producer
        aborts the merge.  Empty states (empty spans, or producers that died
        before their first chunk) carry zero mass and are skipped, so
        ``nranks > n_snapshots`` and early deaths merge cleanly.
        """
        if on_failure not in ("reweight", "raise"):
            raise ValueError(
                f"on_failure must be 'reweight' or 'raise', got {on_failure!r}"
            )
        if not samplers:
            raise ValueError("merge_partial needs at least one sampler")
        if reports is not None:
            if len(reports) != len(samplers):
                raise ValueError("reports must match samplers")
            dead = [(r.rank, r.error) for r in reports if r.failed]
            if dead and on_failure == "raise":
                raise failed_producers_error(dead)
        live = [s for s in samplers if s.n_seen > 0]
        if not live:
            raise ValueError("no stream producer delivered any data")
        return cls.merge_all(live, rng=rng)


def register_stream_sampler(name: str) -> Callable[[type[StreamSampler]], type[StreamSampler]]:
    """Class decorator adding a streaming sampler to the registry under `name`.

    Use the offline sampler name the strategy mirrors, so the same case
    ``method:`` drives both ingestion modes.
    """

    def deco(cls: type[StreamSampler]) -> type[StreamSampler]:
        if not issubclass(cls, StreamSampler):
            raise TypeError(f"{cls.__name__} must subclass StreamSampler")
        if name in _STREAM_REGISTRY:
            raise ValueError(f"stream sampler {name!r} already registered")
        cls.name = name
        _STREAM_REGISTRY[name] = cls
        return cls

    return deco


def stream_sampler_cls(name: str) -> type[StreamSampler]:
    """Resolve a registered streaming sampler class by (offline) name."""
    try:
        return _STREAM_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"no streaming analogue registered for {name!r}; "
            f"available: {available_stream_samplers()}"
        ) from None


def get_stream_sampler(
    name: str,
    n_samples: int,
    value_range: tuple[float, float] | None = None,
    rng: np.random.Generator | int | None = None,
    **kwargs,
) -> StreamSampler:
    """Instantiate a registered streaming sampler by (offline) name."""
    return stream_sampler_cls(name)(n_samples, value_range, rng=rng, **kwargs)


def available_stream_samplers() -> list[str]:
    return sorted(_STREAM_REGISTRY)
