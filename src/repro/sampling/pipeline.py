"""The distributed two-phase subsampling pipeline (= the paper's subsample.py).

Runs SPMD over a :class:`~repro.parallel.comm.Communicator`, mirroring
``srun -n N python subsample.py case.yaml``:

1.  every rank deterministically enumerates the hypercube tiling of all
    snapshots and takes its block of the cube list;
2.  **phase 1** — each rank summarizes its cubes (moments + histogram of the
    cluster variable on globally agreed edges); summaries are gathered to
    rank 0, which runs the registered
    :class:`~repro.sampling.selectors.CubeSelector` named by the case's
    ``hypercubes:`` key (Hmaxent / Hrandom / entropy / anything third-party)
    and broadcasts the selected cube ids;
3.  **phase 2** — each rank runs the configured point sampler (Xmaxent /
    UIPS / random / LHS / stratified) inside its share of the selected cubes,
    or keeps the cubes fully dense (``method='full'``);
4.  results are gathered to rank 0 and concatenated.

Since the stream-first redesign :func:`subsample` is the single entry point
for all three ingestion modes: pass a resident
:class:`~repro.data.dataset.TurbulenceDataset` (or
:class:`~repro.data.sources.InMemorySource`) for batch, a
:class:`~repro.data.sources.ShardDirSource` (any registered shard codec;
optionally behind a :class:`~repro.data.sources.RemoteTieredSource`) for
out-of-core shards, or a
:class:`~repro.data.sources.SimulationSource` for in-situ generation — the
stage pipeline fetches snapshots through the source on demand and never
requires the dataset to be resident.  ``mode="stream"``
(:func:`run_stream_subsample`) switches to the single-pass streaming
samplers (:mod:`repro.sampling.streaming`) registered beside the offline
ones, which sample while the data streams by without a phase-2 revisit.

Both modes are lists of composable :class:`~repro.sampling.stages.Stage`
objects driven by :class:`~repro.sampling.stages.SubsamplePipeline`: the
default list (CubeIndex → Phase1Summarize → CubeSelect → PointSample →
Gather) for batch, StreamFeed → StreamMerge for stream.  Both run on the
ranks of the SPMD driver (:func:`repro.driver.run_ranks`), which gives each
rank its source view; rank 0's result comes back with every rank's energy
meter merged into one.

Each rank meters its own energy (thread-local
:class:`~repro.energy.meter.EnergyMeter`) and charges compute work to its
virtual clock, so the same run yields Fig 7's scalability numbers (virtual
makespan vs rank count) and Fig 8's energy numbers.  Per-method work-unit
costs come from the ``cost_per_point`` attribute on the sampler/selector
classes, so registered third-party strategies need no cost-table entry.
"""

from __future__ import annotations

from repro.data.dataset import TurbulenceDataset
from repro.data.sources import (
    InMemorySource,
    SnapshotSource,
    aggregate_cache_info,
    open_source,
)
from repro.driver import run_ranks
from repro.energy.meter import EnergyMeter
from repro.parallel.perfmodel import PerfModel
from repro.runspec import check_call
from repro.sampling.base import failed_producers_error, stream_sampler_cls
from repro.sampling.stages import (
    StreamFeedStage,
    StreamMergeStage,
    SubsamplePipeline,
    SubsampleResult,
)
from repro.utils.config import CaseConfig

__all__ = ["SubsampleResult", "SubsamplePipeline", "run_stream_subsample", "subsample"]


def subsample(
    data: SnapshotSource | TurbulenceDataset,
    config: CaseConfig,
    nranks: int = 1,
    seed: int = 0,
    model: PerfModel | None = None,
    mode: str = "batch",
    owned_shards: bool = False,
    on_rank_failure: str = "raise",
    fault_hook=None,
    backend: str = "thread",
) -> SubsampleResult:
    """One ``subsample()`` for batch, out-of-core, and in-situ ingestion.

    ``mode="batch"`` (default) launches the two-phase SPMD pipeline over any
    :class:`~repro.data.sources.SnapshotSource` and returns rank 0's result;
    the returned ``virtual_time`` is the makespan (slowest rank) and the
    energy meter is the merge of all ranks' meters.  ``mode="stream"`` runs
    the single-pass streaming samplers instead (no phase-2 revisit; with
    ``nranks > 1`` each rank streams its own snapshot partition and the
    per-rank states merge by weighted draw — see
    :func:`run_stream_subsample`).

    The stream-only knobs: ``owned_shards`` gives each rank a private
    :class:`~repro.data.sources.ShardDirSource` over a disjoint shard set
    (per-rank LRU + prefetcher, no shared cache), ``on_rank_failure``
    chooses between reweighting the merge by delivered mass
    (``"reweight"``) and failing the draw (``"raise"``) when a producer
    dies mid-span, and ``fault_hook`` injects such deaths for testing.
    Invalid combinations fail by the same rules as every other surface
    (:func:`repro.runspec.check_call`).

    ``backend`` applies to both modes and picks the SPMD substrate:
    ``"thread"`` (deterministic virtual-time modeling, the default) or
    ``"process"`` (forked workers with shared-memory transport — real
    wall-clock parallelism, byte-identical results for the same
    (seed, nranks)).  See :func:`repro.driver.run_ranks`.
    """
    if mode == "stream":
        return run_stream_subsample(
            data, config, seed=seed, nranks=nranks, model=model,
            owned_shards=owned_shards, on_rank_failure=on_rank_failure,
            fault_hook=fault_hook, backend=backend,
        )
    source = open_source(data)
    check_call(source, config, mode=mode, nranks=nranks, backend=backend,
               owned_shards=owned_shards, on_rank_failure=on_rank_failure,
               fault_hook=fault_hook)
    if isinstance(source, InMemorySource):
        # Materialize derived variables once, outside the parallel region
        # (resident data only — lazy sources stay lazy).
        for snap in source.dataset.snapshots:
            snap.get(source.cluster_var)
    root, _ = _launch(SubsamplePipeline(), nranks, source, config, seed=seed,
                      view="whole", model=model, backend=backend)
    return root


def run_stream_subsample(
    source: SnapshotSource | TurbulenceDataset,
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
) -> SubsampleResult:
    """Single- or multi-producer streaming subsample over any snapshot source.

    Streams the source as bounded row chunks through the registered
    streaming analogue of the case's ``method`` (reservoir for ``random``,
    online MaxEnt for ``maxent``), without cube selection and without a
    phase-2 revisit — the in-situ path where the data flies by exactly
    once.  The point budget matches the batch pipeline's total
    (``num_hypercubes * num_samples``).

    Each rank feeds its own sampler over its block of the snapshot sequence
    (:class:`~repro.sampling.stages.StreamFeedStage`); with ``nranks > 1``
    rank 0 gathers the states and recombines them by weighted draw
    (:class:`~repro.sampling.stages.StreamMergeStage`) — distributionally
    equivalent to one producer and bit-deterministic given ``seed`` and
    ``nranks`` on either ``backend``.  ``owned_shards=True`` gives every rank
    a private shard source, LRU and prefetcher instead of a span of the
    shared source (:mod:`repro.driver`), and records the per-rank
    ``cache_info()`` and their aggregate in ``meta["cache"]``.

    Producers can die mid-span — for real or through ``fault_hook(rank,
    snapshots_done=..., rows_fed=...)``; each reports what it delivered in
    ``meta["producers"]``.  ``on_rank_failure="reweight"`` merges the partial
    states by delivered mass, ``"raise"`` (the default) fails the draw.

    The MaxEnt histogram range comes from `value_range`, the source's
    :meth:`~repro.data.sources.SnapshotSource.value_range_hint`, or the first
    chunk's span widened 3×, and is agreed before any rank streams.
    """
    source = open_source(source)
    check_call(source, config, mode="stream", nranks=nranks, backend=backend,
               owned_shards=owned_shards, on_rank_failure=on_rank_failure,
               fault_hook=fault_hook)
    sub = config.subsample
    rows_per_snapshot = source.n_points_per_snapshot
    stages = [
        StreamFeedStage(
            _stream_value_range(source, stream_sampler_cls(sub.method), value_range,
                                chunk_rows),
            source.n_snapshots, rows_per_snapshot, chunk_rows, on_rank_failure,
        ),
        StreamMergeStage(on_rank_failure),
    ]
    root, cache_infos = _launch(
        SubsamplePipeline(stages), nranks, source, config, seed=seed,
        view="owned" if owned_shards else "span", model=model, backend=backend,
        fault_hook=fault_hook, hist_bins=hist_bins,
    )
    dead = [(p["rank"], p["error"]) for p in root.meta.get("producers", []) if p["failed"]]
    if dead and on_rank_failure == "raise":
        raise failed_producers_error(dead)
    if root.points is None:
        if dead:
            # Every producer died before delivering anything: reweighting
            # has nothing to work with, so surface the recorded errors
            # instead of the generic empty-source message.
            detail = "; ".join(f"rank {rank}: {error or 'died mid-span'}"
                               for rank, error in dead)
            raise RuntimeError(f"no stream producer delivered any data ({detail})")
        raise ValueError("source produced no data to stream")
    root.points.meta = {
        "method": sub.method,
        "mode": "stream",
        "n_seen": root.n_points_scanned,
        "ranks": nranks,
        "source": type(source).__name__,
    }
    root.meta = {
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
        **root.meta,  # the producer reports of a multi-rank run
    }
    if owned_shards:
        root.meta["cache"] = {"per_rank": cache_infos,
                              "total": aggregate_cache_info(cache_infos)}
    return root


def _launch(pipeline: SubsamplePipeline, nranks: int, source: SnapshotSource,
            config: CaseConfig, *, seed: int, view: str, model: PerfModel | None,
            backend: str, fault_hook=None, hist_bins: int = 50,
            ) -> tuple[SubsampleResult, list[dict | None]]:
    """Run `pipeline` on the driver's ranks: rank 0's result, its energy
    meter the merge of every rank's and its ``virtual_time`` the makespan,
    and the ranks' private-source cache infos."""
    launch = run_ranks(pipeline.run, nranks, source, config, view=view,
                       backend=backend, model=model, fault_hook=fault_hook,
                       seed=seed, hist_bins=hist_bins)
    root: SubsampleResult = launch.values[0]
    merged = EnergyMeter()
    for res in launch.values:
        merged.merge(res.energy)
    merged.elapsed = launch.virtual_time
    root.energy = merged
    root.virtual_time = launch.virtual_time
    return root, launch.cache_infos


def _stream_value_range(
    source: SnapshotSource,
    sampler_cls,
    value_range: tuple[float, float] | None,
    chunk_rows: int,
) -> tuple[float, float] | None:
    """Histogram range for binning stream samplers, agreed before streaming.

    Preference order: the caller's `value_range`, the source's
    :meth:`~repro.data.sources.SnapshotSource.value_range_hint`, or (last
    resort) the first chunk's span widened 3×.  Non-binning samplers skip
    the whole question (the hint can cost a full extra scan on in-memory
    sources).  Resolved once, up front, so every SPMD producer bins on
    identical edges without a collective.
    """
    if value_range is not None or not sampler_cls.needs_value_range:
        return value_range
    vr = source.value_range_hint(source.cluster_var)
    if vr is not None:
        return vr
    for _, _, _, table in source.iter_tables([source.cluster_var], chunk_rows=chunk_rows):
        values = table[:, 0]
        if values.size:
            lo, hi = float(values.min()), float(values.max())
            span = (hi - lo) or 1.0
            return (lo - span, hi + span)
    return None
