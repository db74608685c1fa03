"""Streaming / in-situ sampling (the paper's first future-work item).

The paper's outlook calls for "integration with in-situ, streaming, and
online training frameworks like SmartSim": sampling while the simulation
runs, without ever materializing the full dataset.  Two single-pass
samplers, registered in the stream-sampler registry
(:mod:`repro.sampling.base`) under the offline names they mirror so a
case's ``method:`` key resolves in both ingestion modes:

* ``random`` → :class:`ReservoirStream` /  :class:`ReservoirSampler` —
  classic Algorithm-R reservoir sampling: a uniform random subset of an
  unbounded stream in O(capacity) memory, with the per-chunk replacement
  draws fully vectorized.
* ``maxent`` → :class:`StreamingMaxEnt` — an online MaxEnt analogue:
  cluster centroids adapt via mini-batch K-means ``partial_fit`` as chunks
  stream through, each cluster keeps its own value histogram and reservoir,
  and on :meth:`finalize` the per-cluster budgets follow the same
  node-strength weighting as the offline sampler.  One pass, bounded
  memory, and the same tail-seeking behaviour.

Both samplers support the multi-producer merge contract
(:meth:`~repro.sampling.base.StreamSampler.merge` /
:meth:`~repro.sampling.base.StreamSampler.merge_all`): per-rank states
combine by weighted draw — reservoirs via the classic distributed
reservoir merge (each retained row stands for ``n_seen/len`` stream rows;
slots fill by weighted draw without replacement), MaxEnt by aligning
clusters on their 1-D centroids and merging per-cluster histograms and
reservoirs — so a K-producer run is distributionally equivalent to a
single producer over the whole stream, and bit-deterministic given the
seed and rank count.

:func:`run_stream_subsample` drives either over any
:class:`~repro.data.sources.SnapshotSource` — it is what
``subsample(source, config, mode="stream")`` and
``Experiment...subsample(mode="stream")`` execute.  With ``nranks > 1`` it
launches one SPMD producer per rank over a
:class:`~repro.data.sources.PartitionedSource` snapshot span, gathers the
per-rank sampler states, and merges on rank 0.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.cluster.kmeans import MiniBatchKMeans
from repro.data.points import PointSet
from repro.data.sources import (
    PartitionedSource,
    ShardDirSource,
    SnapshotSource,
    aggregate_cache_info,
    open_source,
)
from repro.data.store import OwnedShardLayout
from repro.energy.meter import EnergyMeter
from repro.parallel.partition import ProducerReport, stream_partitions
from repro.parallel.perfmodel import PerfModel
from repro.parallel.spmd import run_spmd
from repro.parallel.threadcomm import RankFailure
from repro.runspec import check_call
from repro.sampling.base import (
    StreamSampler,
    failed_producers_error,
    fold_weighted_merge,
    get_stream_sampler,
    register_stream_sampler,
    stream_sampler_cls,
)
from repro.sampling.entropy import (
    check_bin_count,
    entropy_adjacency,
    node_strengths,
    strength_weights,
)
from repro.sampling.stratified import allocate_counts
from repro.utils.config import CaseConfig
from repro.utils.rng import resolve_rng, spawn_rngs

__all__ = [
    "ReservoirSampler",
    "ReservoirStream",
    "StreamingMaxEnt",
    "merge_reservoir_rows",
    "run_stream_subsample",
]


def merge_reservoir_rows(
    pools: list[tuple[np.ndarray, float]],
    capacity: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Weighted-draw merge of retained-row pools into one reservoir.

    ``pools`` is ``[(rows_i, weight_i), ...]`` where ``rows_i`` is what
    producer `i` retained and ``weight_i`` the stream mass it summarizes
    (its ``n_seen``).  A uniform ``m``-subset of the union stream decomposes
    exactly into a multivariate-hypergeometric split of `m` across the
    streams followed by uniform within-stream choice — so the merge draws
    per-pool counts from that law (population = the stream masses) and
    takes each pool's share uniformly without replacement from its retained
    rows.  With true stream counts as weights and per-producer capacity at
    least `capacity`, every stream row survives with equal probability: the
    merged reservoir is distributed exactly as a single producer's.
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    live = [(np.atleast_2d(np.asarray(r, dtype=np.float64)), float(w))
            for r, w in pools if len(r) > 0 and w > 0]
    if not live:
        return np.empty((0, 1))
    widths = {r.shape[1] for r, _ in live}
    if len(widths) != 1:
        raise ValueError(f"pools disagree on row width: {sorted(widths)}")
    sizes = np.array([len(r) for r, _ in live], dtype=np.int64)
    # Integer stream masses for the hypergeometric draw.  A mass below a
    # pool's row count is a deliberate down-weighting: that pool then
    # contributes at most `mass` rows, and the output shrinks if the total
    # declared mass undercuts the capacity.
    mass = np.maximum(np.rint([w for _, w in live]).astype(np.int64), 1)
    m = int(min(capacity, sizes.sum(), mass.sum()))
    counts = rng.multivariate_hypergeometric(mass, m)
    # A pool can be allotted more than it holds only when its own capacity
    # was below the merge capacity; clip and hand the deficit to pools with
    # spare rows (largest spare first — deterministic repair).
    counts = np.minimum(counts, sizes)
    while counts.sum() < m:
        spare = sizes - counts
        counts[int(np.argmax(spare))] += 1
    out = np.concatenate([
        rows[rng.choice(len(rows), size=int(c), replace=False)]
        for (rows, _), c in zip(live, counts) if c > 0
    ])
    return out


class ReservoirSampler:
    """Uniform sampling of a stream with Algorithm R (Vitter 1985).

    ``feed`` is vectorized per chunk: the under-capacity fill is a block
    copy, and the replacement draws are one batched ``rng.integers`` call
    (one uniform draw per streamed row, exactly as the scalar algorithm
    makes), with sequential last-write-wins semantics recovered by keeping
    each slot's final hit.  The retention distribution is Algorithm R's.
    """

    def __init__(self, capacity: int, rng: np.random.Generator | int | None = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.rng = resolve_rng(rng)
        self._buf: np.ndarray | None = None
        self._size = 0
        self.n_seen = 0
        #: stream mass this reservoir summarizes — equals ``n_seen`` until a
        #: weighted merge reweights it; merges draw on (and update) this, so
        #: chained weighted merges keep their requested proportions.
        self.stream_mass = 0.0

    def __len__(self) -> int:
        """Number of rows currently held (= min(capacity, n_seen))."""
        return self._size

    def feed(self, chunk: np.ndarray) -> None:
        """Offer a chunk of rows (n, d) to the reservoir."""
        chunk = np.atleast_2d(np.asarray(chunk, dtype=np.float64))
        n = chunk.shape[0]
        if n == 0:
            return
        if self._buf is None:
            self._buf = np.empty((self.capacity, chunk.shape[1]))
        elif chunk.shape[1] != self._buf.shape[1]:
            raise ValueError(
                f"chunk width {chunk.shape[1]} != reservoir width {self._buf.shape[1]}"
            )
        pos = 0
        if self._size < self.capacity:
            take = min(self.capacity - self._size, n)
            self._buf[self._size : self._size + take] = chunk[:take]
            self._size += take
            pos = take
        m = n - pos
        if m > 0:
            # Row k of the remainder is stream element number
            # n_seen + pos + k + 1; Algorithm R draws j ~ U{0..element-1}
            # and replaces slot j when j < capacity.
            highs = self.n_seen + pos + 1 + np.arange(m)
            draws = self.rng.integers(highs)
            hit = np.nonzero(draws < self.capacity)[0]
            if hit.size:
                # Sequential semantics: the last row hitting a slot wins.
                slots_rev = draws[hit][::-1]
                rows_rev = hit[::-1]
                winners, first = np.unique(slots_rev, return_index=True)
                self._buf[winners] = chunk[pos + rows_rev[first]]
        self.n_seen += n
        self.stream_mass += n

    @property
    def sample(self) -> np.ndarray:
        """The current reservoir, shape (min(capacity, n_seen), d)."""
        if self._size == 0:
            raise ValueError("reservoir is empty — feed data first")
        return self._buf[: self._size].copy()

    def reweight(self, mass: float) -> None:
        """Declare the stream mass this reservoir stands for in merges
        (overrides the count-based default — e.g. importance-reweighting a
        producer, or down-weighting a partial stream)."""
        if mass <= 0:
            raise ValueError("stream mass must be > 0")
        self.stream_mass = float(mass)

    def merge(
        self,
        other: ReservoirSampler,
        weight: float | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> ReservoirSampler:
        """Fold another reservoir into this one by weighted draw.

        After the merge this reservoir is distributed as if it had seen both
        streams itself (``weight`` overrides the stream mass of `other`,
        default ``other.stream_mass`` = its row count unless it was itself
        reweighted).  This side's mass is its own ``stream_mass``, and the
        merged mass is the sum — so chained weighted merges keep their
        requested proportions.  Mutates and returns ``self``.
        """
        if not isinstance(other, ReservoirSampler):
            raise TypeError(f"cannot merge {type(other).__name__} into a reservoir")
        if other.n_seen == 0:
            return self
        rng = self.rng if rng is None else resolve_rng(rng)
        w_other = float(other.stream_mass if weight is None else weight)
        if w_other <= 0:
            raise ValueError("merge weight must be > 0")
        if self._buf is not None and other._buf is not None \
                and self._buf.shape[1] != other._buf.shape[1]:
            raise ValueError(
                f"reservoir width {other._buf.shape[1]} != {self._buf.shape[1]}"
            )
        pools = []
        if self._size:
            pools.append((self._buf[: self._size], float(self.stream_mass)))
        pools.append((other._buf[: other._size], w_other))
        merged = merge_reservoir_rows(pools, self.capacity, rng)
        if self._buf is None or self._buf.shape[1] != merged.shape[1]:
            self._buf = np.empty((self.capacity, merged.shape[1]))
        self._buf[: len(merged)] = merged
        self._size = len(merged)
        self.n_seen += other.n_seen
        self.stream_mass += w_other
        return self

    @classmethod
    def merge_all(
        cls,
        reservoirs: list[ReservoirSampler],
        weights: list[float] | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> ReservoirSampler:
        """Fold K producers' reservoirs into ``reservoirs[0]`` by repeated
        weighted :meth:`merge` (``weights[i]`` defaults to each reservoir's
        ``n_seen``).  Deterministic for a fixed `rng` seed and order."""
        return fold_weighted_merge(reservoirs, weights, rng, "reservoir")


def _validated_chunk(
    values: np.ndarray, payload: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Shared feed() validation: (n,) values + (n, d) payload rows."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if payload is None:
        payload = values[:, None]
    payload = np.atleast_2d(np.asarray(payload, dtype=np.float64))
    if payload.shape[0] != values.size:
        raise ValueError("payload row count must match values")
    return values, payload


@register_stream_sampler("random")
class ReservoirStream(StreamSampler):
    """The ``random`` method's streaming analogue: one shared reservoir
    holding ``[value, payload...]`` rows — uniform over the whole stream."""

    cost_per_point = 1.0  # mirrors the offline RandomSampler

    def __init__(
        self,
        n_samples: int,
        value_range: tuple[float, float] | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        # value_range is part of the constructor contract but uniform
        # sampling never bins values, so it is ignored.
        self.reservoir = ReservoirSampler(n_samples, rng=rng)
        self.n_seen = 0

    def feed(self, values: np.ndarray, payload: np.ndarray | None = None) -> None:
        values, payload = _validated_chunk(values, payload)
        if values.size == 0:
            return
        self.reservoir.feed(np.column_stack([values, payload]))
        self.n_seen = self.reservoir.n_seen

    def finalize(self) -> np.ndarray:
        return self.reservoir.sample

    def reweight(self, mass: float) -> None:
        """See :meth:`ReservoirSampler.reweight`."""
        self.reservoir.reweight(mass)

    def merge(
        self,
        other: StreamSampler,
        weight: float | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> ReservoirStream:
        if not isinstance(other, ReservoirStream):
            raise TypeError(f"cannot merge {type(other).__name__} into ReservoirStream")
        self.reservoir.merge(other.reservoir, weight=weight, rng=rng)
        self.n_seen = self.reservoir.n_seen
        return self


class _ClusterState:
    """Per-cluster histogram + reservoir for the streaming MaxEnt sampler."""

    def __init__(self, bins: int, reservoir: int, rng: np.random.Generator) -> None:
        self.counts = np.zeros(bins)
        self.reservoir = ReservoirSampler(reservoir, rng=rng)
        self.n_seen = 0


@register_stream_sampler("maxent")
class StreamingMaxEnt(StreamSampler):
    """Single-pass MaxEnt sampling over a chunked stream of points.

    Parameters
    ----------
    n_samples:
        Total budget returned by :meth:`finalize`.
    n_clusters:
        Number of online K-means clusters.
    value_range:
        (lo, hi) range of the cluster variable for the shared histogram
        edges (streaming cannot see global min/max in advance; pass the
        simulation's physical bounds or an estimate — out-of-range values
        clip to the edge bins).
    reservoir_factor:
        Each cluster's reservoir holds ``reservoir_factor * n_samples``
        candidates so post-hoc budgets can be met even for skewed streams.
    """

    cost_per_point = 10.0  # mirrors the offline MaxEntSampler
    needs_value_range = True

    def __init__(
        self,
        n_samples: int,
        value_range: tuple[float, float],
        n_clusters: int = 10,
        bins: int = 50,
        reservoir_factor: float = 2.0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if n_clusters < 2:
            raise ValueError("n_clusters must be >= 2")
        check_bin_count("bins", bins)
        if value_range is None or not value_range[1] > value_range[0]:
            raise ValueError("value_range must be increasing")
        self.n_samples = n_samples
        self.n_clusters = n_clusters
        self.bins = bins
        self.edges = np.linspace(value_range[0], value_range[1], bins + 1)
        self.rng = resolve_rng(rng)
        self._km = MiniBatchKMeans(n_clusters=n_clusters, batch_size=1024, rng=self.rng)
        per_cluster = max(n_samples, int(reservoir_factor * n_samples))
        self._states = [
            _ClusterState(bins, per_cluster, self.rng) for _ in range(n_clusters)
        ]
        self.n_seen = 0

    def feed(self, values: np.ndarray, payload: np.ndarray | None = None) -> None:
        """Stream one chunk: `values` (n,) cluster variable, optional payload
        rows (n, d) carried alongside (defaults to the values themselves)."""
        values, payload = _validated_chunk(values, payload)
        if values.size == 0:
            return
        feats = values[:, None]
        self._km.partial_fit(feats)
        labels = self._km.predict(feats)
        self.n_seen += values.size
        idx = np.clip(np.searchsorted(self.edges, values, side="right") - 1, 0, self.bins - 1)
        for c in range(self.n_clusters):
            mask = labels == c
            if not mask.any():
                continue
            state = self._states[c]
            state.n_seen += int(mask.sum())
            np.add.at(state.counts, idx[mask], 1.0)
            state.reservoir.feed(np.column_stack([values[mask], payload[mask]]))

    def finalize(self) -> np.ndarray:
        """Entropy-weighted draw across cluster reservoirs.

        Returns rows of ``[value, payload...]``; at most `n_samples` rows
        (fewer only if the whole stream was smaller).
        """
        if self.n_seen == 0:
            raise ValueError("no data streamed")
        active = [s for s in self._states if s.n_seen > 0]
        dists = np.stack([
            s.counts / s.counts.sum() if s.counts.sum() > 0 else np.full(self.bins, 1.0 / self.bins)
            for s in active
        ])
        weights = strength_weights(node_strengths(entropy_adjacency(dists)))
        capacities = np.array([len(s.reservoir) for s in active])
        budget = min(self.n_samples, int(capacities.sum()))
        counts = allocate_counts(budget, capacities, weights)
        chosen = []
        for s, c in zip(active, counts):
            if c == 0:
                continue
            pool = s.reservoir.sample
            take = self.rng.choice(len(pool), size=int(c), replace=False)
            chosen.append(pool[take])
        return np.concatenate(chosen)

    def merge(
        self,
        other: StreamSampler,
        weight: float | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> StreamingMaxEnt:
        """Fold another producer's online-MaxEnt state into this one.

        Clusters are 1-D (the cluster variable), so the two centroid sets
        align by sort order: the j-th lowest centroid here absorbs the j-th
        lowest centroid of `other` — per-cluster histograms add, the
        per-cluster reservoirs merge by weighted draw, and the centroid
        moves to the mass-weighted average.  Requires identical histogram
        geometry (same edges / bins / n_clusters), which every rank of an
        SPMD stream shares by construction.
        """
        if not isinstance(other, StreamingMaxEnt):
            raise TypeError(f"cannot merge {type(other).__name__} into StreamingMaxEnt")
        if (
            self.bins != other.bins
            or self.n_clusters != other.n_clusters
            or not np.array_equal(self.edges, other.edges)
        ):
            raise ValueError(
                "merge requires identical histogram geometry "
                "(same value_range, bins, and n_clusters on every producer)"
            )
        if other.n_seen == 0:
            return self
        rng = self.rng if rng is None else resolve_rng(rng)
        scale = 1.0 if weight is None else float(weight) / other.n_seen
        if scale <= 0:
            raise ValueError("merge weight must be > 0")
        if self.n_seen == 0:
            # Nothing here yet: adopt a copy of the other producer's state
            # (a copy, so later merges into self never corrupt the donor),
            # scaling its histogram mass if an explicit weight reweights it.
            self._km = copy.deepcopy(other._km)
            self._states = copy.deepcopy(other._states)
            if scale != 1.0:
                for st in self._states:
                    st.counts *= scale
            self.n_seen = other.n_seen
            return self
        c_self = self._km.cluster_centers_
        c_other = other._km.cluster_centers_
        if c_self is None or c_other is None or c_self.shape != c_other.shape:
            raise ValueError("producers disagree on cluster-center shape")
        counts_self = self._km._counts
        counts_other = other._km._counts
        order_self = np.argsort(c_self[:, 0], kind="stable")
        order_other = np.argsort(c_other[:, 0], kind="stable")
        for a, b in zip(order_self, order_other):
            st, ot = self._states[int(a)], other._states[int(b)]
            st.counts += scale * ot.counts
            if ot.n_seen > 0:
                st.reservoir.merge(
                    ot.reservoir,
                    weight=scale * ot.reservoir.stream_mass,
                    rng=rng,
                )
                st.n_seen += ot.n_seen
            total = counts_self[int(a)] + counts_other[int(b)]
            if total > 0:
                c_self[int(a)] = (
                    c_self[int(a)] * counts_self[int(a)]
                    + c_other[int(b)] * counts_other[int(b)]
                ) / total
            counts_self[int(a)] = total
        self.n_seen += other.n_seen
        return self

    def to_pointset(self, coords_cols: int = 0) -> PointSet:
        """Finalize into a PointSet (first `coords_cols` payload columns are
        coordinates; the value column becomes variable 'value')."""
        rows = self.finalize()
        values = rows[:, 0]
        payload = rows[:, 1:]
        if coords_cols > payload.shape[1]:
            raise ValueError("coords_cols exceeds payload width")
        coords = payload[:, :coords_cols] if coords_cols else np.zeros((len(rows), 1))
        return PointSet(coords=coords, values={"value": values},
                        meta={"method": "streaming-maxent", "n_seen": self.n_seen})


def _resolve_stream_value_range(
    source: SnapshotSource,
    sampler_cls,
    cluster_var: str,
    point_vars: list[str],
    vcol: int,
    value_range: tuple[float, float] | None,
    chunk_rows: int,
) -> tuple[float, float] | None:
    """Histogram range for binning stream samplers, agreed before streaming.

    Preference order: the caller's `value_range`, the source's
    :meth:`~repro.data.sources.SnapshotSource.value_range_hint`, or (last
    resort) the first chunk's span widened 3×.  Non-binning samplers skip
    the whole question (the hint can cost a full extra scan on in-memory
    sources).  Resolved once, up front, so every SPMD producer bins on
    identical edges.
    """
    if value_range is not None or not sampler_cls.needs_value_range:
        return value_range
    vr = source.value_range_hint(cluster_var)
    if vr is not None:
        return vr
    for _, _, _, table in source.iter_tables(point_vars, chunk_rows=chunk_rows):
        values = table[:, vcol]
        if values.size:
            lo, hi = float(values.min()), float(values.max())
            span = (hi - lo) or 1.0
            return (lo - span, hi + span)
    return None


def _feed_stream(
    sampler: StreamSampler,
    source: SnapshotSource,
    point_vars: list[str],
    vcol: int,
    chunk_rows: int,
    meter: EnergyMeter,
    on_chunk=None,
    fault_check=None,
) -> None:
    """Stream one producer's span through its sampler, metering each chunk.

    ``fault_check(snapshot_index)`` runs after every fed chunk — the
    per-chunk checkpoint where an armed fault hook kills the producer
    (raising :class:`~repro.parallel.threadcomm.RankFailure` out of this
    loop with the already-fed rows retained in the sampler).
    """
    for s, time, coords, table in source.iter_tables(point_vars, chunk_rows=chunk_rows):
        values = table[:, vcol]
        payload = np.column_stack([np.full(values.shape[0], time), coords, table])
        sampler.feed(values, payload)
        meter.record(
            flops=sampler.cost_per_point * 2.0 * values.size,
            nbytes=float(payload.nbytes),
            device="cpu",
        )
        if on_chunk is not None:
            on_chunk(values.size)
        if fault_check is not None:
            fault_check(s)


def run_stream_subsample(
    source: SnapshotSource,
    config: CaseConfig,
    seed: int = 0,
    chunk_rows: int = 65536,
    value_range: tuple[float, float] | None = None,
    hist_bins: int = 50,
    nranks: int = 1,
    model: PerfModel | None = None,
    owned_shards: bool = False,
    on_rank_failure: str = "raise",
    fault_hook=None,
    backend: str = "thread",
):
    """Single- or multi-producer streaming subsample over any snapshot source.

    Streams the source as bounded row chunks through the registered
    streaming analogue of the case's ``method`` (reservoir for ``random``,
    online MaxEnt for ``maxent``), without cube selection and without a
    phase-2 revisit — the in-situ path where the data flies by exactly
    once.  The point budget matches the batch pipeline's total
    (``num_hypercubes * num_samples``).

    ``nranks > 1`` runs one SPMD producer per rank: the snapshot sequence is
    block-partitioned, each rank feeds its own sampler over its span,
    per-rank states are gathered to rank 0, and
    :meth:`~repro.sampling.base.StreamSampler.merge_partial` recombines them
    by weighted draw — distributionally equivalent to the single-producer
    run and bit-deterministic given ``seed`` and ``nranks``.
    ``virtual_time`` is then the makespan of the slowest rank under the
    LogGP `model`, and the energy meter merges all ranks.

    ``backend`` picks the rank substrate — ``"thread"`` (deterministic
    virtual-time modeling under the GIL, the default) or ``"process"``
    (forked workers over :class:`~repro.parallel.procomm.ProcessComm` with
    shared-memory transport; real wall-clock parallelism).  Both yield
    byte-identical samples and virtual clocks for the same (seed, nranks);
    on the process backend each rank reopens sharded sources privately so
    no LRU/prefetch state crosses the fork.

    ``owned_shards=True`` (sharded sources only) replaces the shared-cache
    :class:`~repro.data.sources.PartitionedSource` view with true per-rank
    I/O isolation: an :class:`~repro.data.store.OwnedShardLayout` gives
    every rank its own shard directory, private bounded LRU, and private
    prefetch thread over a disjoint file set; per-rank ``cache_info()``
    counters land in ``meta["cache"]`` with their cross-rank aggregate.

    Producers can die mid-span — for real (an exception while streaming) or
    injected (``fault_hook(rank, snapshots_done=..., rows_fed=...)`` armed
    through :func:`~repro.parallel.spmd.run_spmd`).  Each rank reports what
    it delivered (:class:`~repro.parallel.partition.ProducerReport`);
    ``on_rank_failure="reweight"`` merges the partial states with the
    allocation reweighted by delivered (not nominal) stream mass and still
    returns a full-size sample whenever the surviving rows cover the
    budget, while ``"raise"`` (the default) fails the whole draw loudly.

    The MaxEnt histogram range comes from `value_range`, the source's
    :meth:`~repro.data.sources.SnapshotSource.value_range_hint`, or (last
    resort) the first chunk's span widened 3×; out-of-range values clip to
    the edge bins.  The range is agreed before any rank streams, so all
    producers bin on identical edges.

    Returns a :class:`~repro.sampling.stages.SubsampleResult` whose
    ``points`` carry per-point times and ``meta["mode"] == "stream"``.
    """
    from repro.sampling.stages import SubsampleResult

    source = open_source(source)
    check_call(source, config, mode="stream", nranks=nranks, backend=backend,
               owned_shards=owned_shards, on_rank_failure=on_rank_failure,
               fault_hook=fault_hook)
    sub = config.subsample
    sampler_cls = stream_sampler_cls(sub.method)
    cluster_var = source.cluster_var
    point_vars = list(dict.fromkeys(
        [*source.input_vars, *source.output_vars, cluster_var]
    ))
    vcol = point_vars.index(cluster_var)
    budget = sub.num_hypercubes * sub.num_samples
    kwargs = {}
    if sub.method == "maxent":
        kwargs = {"n_clusters": sub.num_clusters, "bins": hist_bins}
    d = source.ndim
    vr = _resolve_stream_value_range(
        source, sampler_cls, cluster_var, point_vars, vcol, value_range, chunk_rows
    )

    reports = None
    cache_meta = None
    if nranks == 1:
        perf = model or PerfModel()
        sampler = get_stream_sampler(
            sub.method, n_samples=budget, value_range=vr, rng=seed, **kwargs
        )
        with EnergyMeter() as meter:
            # Charge the scan to virtual time with the same work-unit model
            # the batch pipeline's communicator clock uses, so stream-mode
            # energy/makespan numbers are comparable to batch-mode ones.
            _feed_stream(
                sampler, source, point_vars, vcol, chunk_rows, meter,
                on_chunk=lambda n: meter.add_elapsed(
                    perf.compute_time(sampler.cost_per_point * n)
                ),
            )
        virtual_time = meter.elapsed
        energy = meter
    else:
        parts = stream_partitions(source.n_snapshots, nranks)
        # The layout is a run-scoped scratch artifact (unique temp dir, so
        # concurrent runs and read-only base directories are safe); it is
        # removed again in the finally below, whatever the run does.
        layout = (
            OwnedShardLayout.build(source.layout_path, nranks)
            if owned_shards else None
        )

        def _rank_source(rank: int) -> tuple[SnapshotSource, ShardDirSource | None]:
            """Build this rank's source view; also returns the private sharded
            base the rank must close when it owns one."""
            if layout is not None:
                # reopen() keeps the source's own codec/tier configuration
                # over the rank's owned shard directory.
                src = source.reopen(layout.rank_dir(rank))
                return src, src
            if backend == "process" and isinstance(source, ShardDirSource):
                # Forked workers must not share the parent's LRU/prefetch
                # machinery (inherited locks and dead threads): reopen the
                # shard directory privately inside the worker.
                base = source.reopen()
                return PartitionedSource(base, parts[rank].lo, parts[rank].hi), base
            return PartitionedSource(source, parts[rank].lo, parts[rank].hi), None

        rngs = spawn_rngs(seed, nranks + 1)  # rngs[0] drives the merge draw

        rows_per_snapshot = source.n_points_per_snapshot

        def _producer(comm):
            part = parts[comm.rank]
            src_r, private_base = _rank_source(comm.rank)
            sampler = get_stream_sampler(
                sub.method, n_samples=budget, value_range=vr,
                rng=rngs[comm.rank + 1], **kwargs,
            )
            failed, err = False, None

            def _delivered_snapshots() -> int:
                # Grids are homogeneous, so delivered rows determine exactly
                # how many span snapshots are fully streamed — correct even
                # when a death lands on a snapshot's final chunk.
                return min(part.n, int(sampler.n_seen) // rows_per_snapshot)

            def _fault_check(snapshot_index: int) -> None:
                comm.maybe_fail(
                    snapshots_done=_delivered_snapshots(),
                    rows_fed=int(sampler.n_seen),
                )

            with EnergyMeter() as meter:
                try:
                    _feed_stream(
                        sampler, src_r, point_vars, vcol, chunk_rows, meter,
                        on_chunk=lambda n: comm.account_compute(
                            sampler.cost_per_point * float(n)
                        ),
                        fault_check=_fault_check,
                    )
                except RankFailure as exc:
                    failed, err = True, str(exc)
                except Exception as exc:
                    # A genuine producer death (corrupt shard, I/O error,
                    # ...): under "reweight" the partial reservoir is the
                    # recovered state; under "raise" keep fail-fast.
                    if on_rank_failure == "raise":
                        raise
                    failed, err = True, f"{type(exc).__name__}: {exc}"
                finally:
                    info = private_base.cache_info() if private_base is not None else None
                    if private_base is not None:
                        private_base.close()
                report = ProducerReport(
                    partition=part, snapshots_done=_delivered_snapshots(),
                    n_seen=int(sampler.n_seen), stream_mass=float(sampler.n_seen),
                    failed=failed, error=err, cache_info=info,
                )
                # The merge is a real communication step: per-rank sampler
                # states travel to rank 0, so the gather (and the weighted
                # redraw) land on the virtual clock like any collective.
                gathered = comm.gather((sampler, report), root=0)
                merged, all_reports = None, None
                if comm.rank == 0:
                    samplers = [g[0] for g in gathered]
                    all_reports = [g[1] for g in gathered]
                    any_failed = any(r.failed for r in all_reports)
                    delivered = sum(1 for s in samplers if s.n_seen > 0)
                    if delivered and (not any_failed or on_rank_failure == "reweight"):
                        # Delivered (not nominal) mass weights the draw:
                        # each state's own stream_mass is what it got fed.
                        merged = sampler_cls.merge_partial(
                            samplers, all_reports,
                            on_failure="reweight", rng=rngs[0],
                        )
                        comm.account_compute(float(delivered * budget))
                meter.add_elapsed(comm.clock.t)
            return merged, meter, all_reports

        try:
            spmd = run_spmd(
                _producer, nranks, model=model, fault_hook=fault_hook, backend=backend
            )
        finally:
            if layout is not None:
                layout.remove()
        sampler, _, reports = spmd[0]
        energy = EnergyMeter()
        for _, rank_meter, _ in spmd.values:
            energy.merge(rank_meter)
        virtual_time = spmd.virtual_time
        energy.elapsed = virtual_time
        failed_reports = [r for r in reports if r.failed]
        if failed_reports and on_rank_failure == "raise":
            raise failed_producers_error(failed_reports)
        if owned_shards:
            infos = [r.cache_info for r in reports]
            cache_meta = {
                "per_rank": infos,
                "total": aggregate_cache_info(infos),
            }

    if sampler is None or sampler.n_seen == 0:
        dead = [r for r in (reports or []) if r.failed]
        if dead:
            # Every producer died before delivering anything: reweighting
            # has nothing to work with, so surface the recorded errors
            # instead of the generic empty-source message.
            detail = "; ".join(
                f"rank {r.rank}: {r.error or 'died mid-span'}" for r in dead
            )
            raise RuntimeError(
                f"no stream producer delivered any data ({detail})"
            )
        raise ValueError("source produced no data to stream")
    rows = sampler.finalize()
    points = PointSet(
        coords=rows[:, 2 : 2 + d],
        values={v: rows[:, 2 + d + j] for j, v in enumerate(point_vars)},
        time=rows[:, 1],
        meta={
            "method": sub.method,
            "mode": "stream",
            "n_seen": int(sampler.n_seen),
            "ranks": nranks,
            "source": type(source).__name__,
        },
    )
    meta = {
        "method": sub.method,
        "hypercubes": sub.hypercubes,
        "num_samples": sub.num_samples,
        "mode": "stream",
        "ranks": nranks,
        "backend": backend,
        "seed": seed,
        "owned_shards": bool(owned_shards),
        "on_rank_failure": on_rank_failure,
        "case": config.to_dict(),
    }
    if reports is not None:
        meta["producers"] = [r.to_meta() for r in reports]
        meta["failed_ranks"] = [r.rank for r in reports if r.failed]
    if cache_meta is not None:
        meta["cache"] = cache_meta
    return SubsampleResult(
        points=points,
        cubes=None,
        selected_cube_ids=np.empty(0, dtype=np.int64),
        n_candidate_cubes=0,
        n_points_scanned=int(sampler.n_seen),
        energy=energy,
        virtual_time=virtual_time,
        meta=meta,
    )
