"""Composable stages of the two-phase subsampling pipeline.

The paper's ``subsample.py`` monolith is decomposed into five named stages,
each an object with a ``run(ctx)`` method satisfying the :class:`Stage`
protocol and communicating through a shared mutable :class:`PipelineContext`.
Two more stages make up the single-pass stream pipeline:

==========================  ================================================
:class:`CubeIndexStage`     enumerate the global cube tiling and take this
                            rank's block (no data touched yet)
:class:`Phase1SummarizeStage`  agree on global histogram edges, compute
                            per-cube moments + histograms in per-snapshot blocks
:class:`CubeSelectStage`    gather stats to rank 0, run the configured
                            :class:`~repro.sampling.selectors.CubeSelector`,
                            broadcast the selected cube ids
:class:`PointSampleStage`   phase 2 — run the configured point
                            :class:`~repro.sampling.base.Sampler` inside this
                            rank's share of the selected cubes (or keep them
                            dense for ``method='full'``)
:class:`GatherStage`        gather points/cubes and counters to rank 0
:class:`StreamFeedStage`    stream mode — feed this rank's streaming sampler
                            over its source view, chunk by chunk, and report
                            what it delivered
:class:`StreamMergeStage`   stream mode — gather every rank's sampler and
                            report, ``merge_partial`` them on rank 0
==========================  ================================================

:class:`SubsamplePipeline` composes the stages (any sequence of stage objects
can be substituted — cache a stage, skip one, interleave new ones) and wraps
the run in per-rank energy metering.  :func:`repro.sampling.pipeline.subsample`
runs the default list, or the two stream stages, on the ranks of the SPMD
driver (:mod:`repro.driver`).

Since the stream-first redesign every stage consumes a
:class:`~repro.data.sources.SnapshotSource` chunk-by-chunk — snapshots are
fetched on demand and never required to be resident together, so the same
stage list runs over an in-memory dataset (byte-identical to the
pre-source-API results), an out-of-core shard directory, or an in-situ
simulation.  ``run`` accepts a ``TurbulenceDataset`` too and coerces it
via :func:`~repro.data.sources.open_source`.

Method work-unit costs live on the sampler/selector classes themselves
(``cost_per_point``), so third-party strategies registered via
``register_sampler``/``register_selector`` flow through the pipeline without
touching any cost table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Protocol, runtime_checkable

import numpy as np

from repro.data.dataset import TurbulenceDataset
from repro.data.hypercubes import Hypercube, extract_hypercube, hypercube_origins
from repro.data.points import PointSet
from repro.data.sources import SnapshotSource, open_source
from repro.energy.meter import EnergyMeter
from repro.parallel.comm import Communicator, RankFailure
from repro.parallel.partition import ProducerReport, block_bounds, stream_partitions
from repro.sampling.base import Sampler, StreamSampler, get_sampler, get_stream_sampler
from repro.sampling.entropy import check_bin_count, cube_moments, group_distributions
from repro.sampling.selectors import get_selector
from repro.utils.config import CaseConfig
from repro.utils.rng import spawn_rngs

__all__ = [
    "FULL_METHOD_COST",
    "SubsampleResult",
    "PipelineContext",
    "Stage",
    "CubeIndexStage",
    "Phase1SummarizeStage",
    "CubeSelectStage",
    "PointSampleStage",
    "GatherStage",
    "StreamFeedStage",
    "StreamMergeStage",
    "SubsamplePipeline",
]

#: work units per point for ``method='full'`` (dense copy, no sampler object).
FULL_METHOD_COST = 0.5

#: values per phase-1 block, at least one cube (512 KiB of float64), like k-means' ``_BLOCK``
_BLOCK = 1 << 16


@dataclass
class SubsampleResult:
    """Output of one pipeline run (complete only on rank 0)."""

    points: PointSet | None
    cubes: list[Hypercube] | None
    selected_cube_ids: np.ndarray
    n_candidate_cubes: int
    n_points_scanned: int
    energy: EnergyMeter | None
    virtual_time: float
    meta: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        if self.points is not None:
            return len(self.points)
        if self.cubes is not None:
            return sum(c.n_points for c in self.cubes)
        return 0


@dataclass
class PipelineContext:
    """Mutable state threaded through the pipeline stages on one rank.

    ``source`` is any :class:`~repro.data.sources.SnapshotSource`; stages
    fetch snapshots through it on demand instead of assuming a resident
    dataset, so the context works identically for in-memory, out-of-core,
    and in-situ ingestion.
    """

    comm: Communicator
    source: SnapshotSource
    config: CaseConfig
    seed: int = 0
    hist_bins: int = 50
    meter: EnergyMeter | None = None

    # ---- derived configuration (filled in __post_init__) ----
    cluster_var: str = ""
    input_vars: list[str] = field(default_factory=list)
    point_vars: list[str] = field(default_factory=list)
    rng: np.random.Generator | None = None
    root_rng: np.random.Generator | None = None

    # ---- stage products ----
    cube_shape: tuple[int, ...] = ()
    index: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)
    n_cubes: int = 0
    my_cubes: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)
    edges: np.ndarray | None = None
    summaries: np.ndarray | None = None
    histograms: np.ndarray | None = None
    scanned: int = 0
    selected: np.ndarray | None = None
    my_points: list[PointSet] = field(default_factory=list)
    my_full: list[Hypercube] = field(default_factory=list)
    gathered_points: list[list[PointSet]] | None = None
    gathered_full: list[list[Hypercube]] | None = None
    total_scanned: int = 0
    #: this rank's streaming sampler; on rank 0 of several, after
    #: :class:`StreamMergeStage`, the merged state (None: nothing to draw from)
    sampler: StreamSampler | None = None
    report: ProducerReport | None = None
    #: every rank's report, on rank 0 of a multi-rank stream run
    reports: list[ProducerReport] | None = None

    def __post_init__(self) -> None:
        check_bin_count("hist_bins", self.hist_bins)
        self.cluster_var = self.source.cluster_var
        self.input_vars = list(self.source.input_vars)
        self.point_vars = list(dict.fromkeys(
            [*self.input_vars, *self.source.output_vars, self.cluster_var]
        ))
        rank_rng = spawn_rngs(self.seed, self.comm.size + 1)
        self.rng = rank_rng[self.comm.rank + 1]
        self.root_rng = rank_rng[0]  # identical on all ranks; rank-0 decisions


@runtime_checkable
class Stage(Protocol):
    """One named step of the pipeline; mutates the shared context."""

    name: str

    def run(self, ctx: PipelineContext) -> None: ...


def _cube_blocks(ctx: PipelineContext):
    """This rank's cubes in order, as ``(cubes, cube values)`` blocks of their
    cluster-variable values: each snapshot is fetched once per contiguous
    run, and a run splits into blocks of at most ``_BLOCK`` values."""
    shape = ctx.cube_shape
    per_block = max(1, _BLOCK // int(np.prod(shape)))
    for s, run in itertools.groupby(ctx.my_cubes, key=lambda cube: cube[0]):
        values = ctx.source.snapshot(s).get(ctx.cluster_var)
        cubes = [values[tuple(slice(o, o + c) for o, c in zip(origin, shape))] for _, origin in run]
        for lo in range(0, len(cubes), per_block):
            block = np.stack(cubes[lo:lo + per_block])
            yield block.reshape(len(block), -1)


class CubeIndexStage:
    """Enumerate the deterministic global cube tiling and take my block."""

    name = "cube-index"

    def run(self, ctx: PipelineContext) -> None:
        sub = ctx.config.subsample
        ctx.cube_shape = sub.hypercube_shape[: ctx.source.ndim]
        origins = hypercube_origins(ctx.source.grid_shape, ctx.cube_shape)
        ctx.index = [(s, o) for s in range(ctx.source.n_snapshots) for o in origins]
        ctx.n_cubes = len(ctx.index)
        if sub.num_hypercubes > ctx.n_cubes:
            raise ValueError(
                f"num_hypercubes={sub.num_hypercubes} exceeds available cubes ({ctx.n_cubes})"
            )
        lo, hi = block_bounds(ctx.n_cubes, ctx.comm.size, ctx.comm.rank)
        ctx.my_cubes = ctx.index[lo:hi]


class Phase1SummarizeStage:
    """Per-cube phase-1 statistics on globally agreed histogram edges.

    The edges span the global (min, max) of the cluster variable, agreed by
    a min/max reduction.  Each rank's share of it comes from the per-shard
    ranges the source recorded at ingest when it has them and the cube
    tiling covers the grid; otherwise from a first pass over its cubes.  A
    second (or only) pass fills the per-cube moments and histograms.  Both
    walk :func:`_cube_blocks`; axis-1 reductions give a block's moments and
    one bin-index pass plus one ``bincount`` its histograms, bit for bit
    what a per-cube ``mean``/``std``/``np.histogram`` loop gives.
    """

    name = "phase1-summarize"

    def run(self, ctx: PipelineContext) -> None:
        comm, bins = ctx.comm, ctx.hist_bins
        snapshots = list(dict.fromkeys(s for s, _ in ctx.my_cubes))
        # Advisory: tell an async source which snapshots this rank is about
        # to walk, so decode overlaps the summarization compute.
        ctx.source.prefetch(snapshots)
        local_min, local_max = self._local_range(ctx, snapshots)
        gmin = comm.allreduce(local_min, op="min")
        gmax = comm.allreduce(local_max, op="max")
        if gmin == gmax:
            gmax = gmin + 1.0
        ctx.edges = np.linspace(gmin, gmax, bins + 1)

        summaries = np.zeros((len(ctx.my_cubes), 4))
        histograms = np.zeros((len(ctx.my_cubes), bins))
        at = 0
        for block in _cube_blocks(ctx):
            m = len(block)
            summaries[at:at + m] = cube_moments(block)
            histograms[at:at + m] = group_distributions(block, np.arange(m)[:, None], m, ctx.edges)
            at += m
        scanned = at * int(np.prod(ctx.cube_shape))
        ctx.summaries, ctx.histograms, ctx.scanned = summaries, histograms, scanned
        comm.account_compute(float(scanned))
        if ctx.meter is not None:
            ctx.meter.record(flops=3.0 * scanned, nbytes=8.0 * scanned, device="cpu")

    @staticmethod
    def _local_range(ctx: PipelineContext, snapshots: list[int]) -> tuple[float, float]:
        """This rank's (min, max) of the cluster variable.

        When the cubes tile every grid axis exactly, each snapshot is the
        union of its cubes, so the stored range of every snapshot this rank
        touches bounds its cubes and every value in it belongs to some
        rank's cube: the allreduced (min, max) is the one a scan gives.
        Any remainder the tiling drops could hold the extremes, so then —
        or when any range is unrecorded — scan the cubes instead.
        """
        if all(g % c == 0 for g, c in zip(ctx.source.grid_shape, ctx.cube_shape)):
            ranges = [ctx.source.stored_range(ctx.cluster_var, s) for s in snapshots]
            if None not in ranges:
                return (min((lo for lo, _ in ranges), default=np.inf),
                        max((hi for _, hi in ranges), default=-np.inf))
        local_min, local_max = np.inf, -np.inf
        for block in _cube_blocks(ctx):
            local_min = min(local_min, float(block.min()))
            local_max = max(local_max, float(block.max()))
        return local_min, local_max


class CubeSelectStage:
    """Gather per-cube stats and run the registered selector on rank 0."""

    name = "cube-select"

    def __init__(self, selector_name: str | None = None) -> None:
        #: override the config's ``hypercubes`` method (e.g. to A/B selectors)
        self.selector_name = selector_name

    def run(self, ctx: PipelineContext) -> None:
        comm, sub = ctx.comm, ctx.config.subsample
        gathered_s = comm.gather(ctx.summaries, root=0)
        gathered_h = comm.gather(ctx.histograms, root=0)
        chosen: np.ndarray | None = None
        if comm.rank == 0:
            all_s = np.concatenate([g for g in gathered_s if len(g)], axis=0)
            all_h = np.concatenate([g for g in gathered_h if len(g)], axis=0)
            if all_s.shape[0] != ctx.n_cubes:
                raise AssertionError("cube summary count mismatch after gather")
            selector = get_selector(self.selector_name or sub.hypercubes)
            chosen = selector.select(
                all_s, all_h, sub.num_hypercubes,
                num_clusters=sub.num_clusters, rng=ctx.root_rng,
            )
            comm.account_compute(selector.cost_per_point * float(ctx.n_cubes))
        ctx.selected = comm.bcast(chosen, root=0)


class PointSampleStage:
    """Phase 2: the configured point sampler over my share of selected cubes."""

    name = "point-sample"

    def run(self, ctx: PipelineContext) -> None:
        comm, sub = ctx.comm, ctx.config.subsample
        slo, shi = block_bounds(len(ctx.selected), comm.size, comm.rank)
        my_selected = ctx.selected[slo:shi]
        phase2_scanned = 0
        sampler: Sampler | None = None
        if sub.method not in ("full",):
            kwargs = {}
            if sub.method in ("maxent", "stratified"):
                kwargs["n_clusters"] = sub.num_clusters
            sampler = get_sampler(sub.method, **kwargs)
        cost = FULL_METHOD_COST if sampler is None else float(
            getattr(sampler, "cost_per_point", Sampler.cost_per_point)
        )
        # CubeSelector.select returns sorted ids (the ABC enforces it), and
        # the index is snapshot-major — so this loop visits snapshots
        # monotonically and a replay-on-backstep SimulationSource restarts
        # at most once for the whole phase.
        ctx.source.prefetch(dict.fromkeys(
            ctx.index[int(c)][0] for c in my_selected
        ))
        for cube_id in my_selected:
            s_idx, origin = ctx.index[int(cube_id)]
            cube = extract_hypercube(
                ctx.source.snapshot(s_idx), origin, ctx.cube_shape, ctx.point_vars
            )
            cube.meta["snapshot"] = s_idx
            cube.meta["cube_id"] = int(cube_id)
            phase2_scanned += cube.n_points
            if sampler is None:
                ctx.my_full.append(cube)
                continue
            features = self._features_for(sub.method, cube, ctx.cluster_var, ctx.input_vars)
            n_draw = min(sub.num_samples, cube.n_points)
            idx = sampler.sample(features, n_draw, ctx.rng)
            ps = cube.select_points(idx, ctx.point_vars)
            ps.meta.update(
                method=sub.method,
                snapshot=s_idx,
                cube_id=int(cube_id),
                cube_shape=list(ctx.cube_shape),
            )
            ctx.my_points.append(ps)
        comm.account_compute(cost * float(phase2_scanned))
        if ctx.meter is not None:
            ctx.meter.record(
                flops=cost * 2.0 * phase2_scanned,
                nbytes=8.0 * phase2_scanned * len(ctx.point_vars),
                device="cpu",
            )
        ctx.scanned += phase2_scanned

    @staticmethod
    def _features_for(
        method: str, cube: Hypercube, cluster_var: str, input_vars: list[str]
    ) -> np.ndarray:
        """Feature table the point sampler sees, per the paper's conventions."""
        if method == "uips":
            return cube.point_table(input_vars)
        return cube.point_table([cluster_var])


class GatherStage:
    """Collect per-rank results and global counters on rank 0."""

    name = "gather"

    def run(self, ctx: PipelineContext) -> None:
        comm = ctx.comm
        ctx.gathered_points = comm.gather(ctx.my_points, root=0)
        ctx.gathered_full = comm.gather(ctx.my_full, root=0)
        ctx.total_scanned = comm.allreduce(ctx.scanned, op="sum")


@dataclass
class StreamFeedStage:
    """Stream mode: feed this rank's sampler over its source view, one chunk
    of rows at a time, and report what it delivered.

    The caller resolves the run-wide facts before launch: the
    ``value_range`` every producer bins on, and the global ``n_snapshots``
    and ``rows_per_snapshot`` that spans and deliveries are counted in.  One
    rank draws from ``rng=seed``, several from their :class:`PipelineContext`
    streams.  After each chunk an armed fault hook may kill the producer; so
    may a genuine error, which ``on_rank_failure="raise"`` re-raises and
    ``"reweight"`` records, keeping the rows already fed.
    """

    name = "stream-feed"
    value_range: tuple[float, float] | None
    n_snapshots: int
    rows_per_snapshot: int
    chunk_rows: int = 65536
    on_rank_failure: str = "raise"

    def run(self, ctx: PipelineContext) -> None:
        comm, sub = ctx.comm, ctx.config.subsample
        kwargs = {}
        if sub.method == "maxent":
            kwargs = {"n_clusters": sub.num_clusters, "bins": ctx.hist_bins}
        sampler = ctx.sampler = get_stream_sampler(
            sub.method, n_samples=sub.num_hypercubes * sub.num_samples,
            value_range=self.value_range,
            rng=ctx.seed if comm.size == 1 else ctx.rng, **kwargs,
        )
        part = stream_partitions(self.n_snapshots, comm.size)[comm.rank]
        vcol = ctx.point_vars.index(ctx.cluster_var)

        def delivered() -> int:
            # Grids are homogeneous, so delivered rows determine exactly how
            # many span snapshots are fully streamed — correct even when a
            # death lands on a snapshot's final chunk.
            return min(part.n, int(sampler.n_seen) // self.rows_per_snapshot)

        failed, err = False, None
        try:
            for _, time, coords, table in ctx.source.iter_tables(
                    ctx.point_vars, chunk_rows=self.chunk_rows):
                values = table[:, vcol]
                payload = np.column_stack([np.full(values.shape[0], time), coords, table])
                sampler.feed(values, payload)
                if ctx.meter is not None:
                    ctx.meter.record(flops=sampler.cost_per_point * 2.0 * values.size,
                                     nbytes=float(payload.nbytes), device="cpu")
                comm.account_compute(sampler.cost_per_point * float(values.size))
                comm.maybe_fail(snapshots_done=delivered(), rows_fed=int(sampler.n_seen))
        except RankFailure as exc:
            failed, err = True, str(exc)
        except Exception as exc:
            if self.on_rank_failure == "raise":
                raise
            failed, err = True, f"{type(exc).__name__}: {exc}"
        ctx.report = ProducerReport(
            partition=part, snapshots_done=delivered(), n_seen=int(sampler.n_seen),
            stream_mass=float(sampler.n_seen), failed=failed, error=err,
        )


@dataclass
class StreamMergeStage:
    """Stream mode: gather every rank's sampler and report to rank 0, which
    merges the delivered states with ``merge_partial`` by delivered mass.

    The gather and the weighted redraw land on the virtual clock like any
    collective.  Rank 0 merges nothing when every producer came up empty, or
    when one died under ``on_rank_failure="raise"``; the caller then raises.
    One rank has nothing to gather and keeps its own state.
    """

    name = "stream-merge"
    on_rank_failure: str = "raise"

    def run(self, ctx: PipelineContext) -> None:
        comm = ctx.comm
        if comm.size == 1:
            return
        gathered = comm.gather((ctx.sampler, ctx.report), root=0)
        if comm.rank != 0:
            return
        samplers = [g[0] for g in gathered]
        ctx.reports = [g[1] for g in gathered]
        ctx.sampler = None
        delivered = sum(1 for s in samplers if s.n_seen > 0)
        if delivered and (self.on_rank_failure == "reweight"
                          or not any(r.failed for r in ctx.reports)):
            ctx.sampler = type(samplers[0]).merge_partial(
                samplers, ctx.reports, on_failure="reweight", rng=ctx.root_rng,
            )
            sub = ctx.config.subsample
            comm.account_compute(float(delivered * sub.num_hypercubes * sub.num_samples))


class SubsamplePipeline:
    """The two-phase pipeline as an ordered composition of stages.

    The default stage list is the paper's pipeline; pass a custom
    sequence to swap, wrap, or extend stages::

        pipe = SubsamplePipeline([CubeIndexStage(), Phase1SummarizeStage(),
                                  CubeSelectStage("entropy"),
                                  PointSampleStage(), GatherStage()])
        result = pipe.run(comm, dataset, config, seed=7)
    """

    def __init__(self, stages: Sequence[Stage] | None = None) -> None:
        self.stages: list[Stage] = list(stages) if stages is not None else self.default_stages()

    @staticmethod
    def default_stages() -> list[Stage]:
        return [
            CubeIndexStage(),
            Phase1SummarizeStage(),
            CubeSelectStage(),
            PointSampleStage(),
            GatherStage(),
        ]

    def run(
        self,
        comm: Communicator,
        data: SnapshotSource | TurbulenceDataset,
        config: CaseConfig,
        seed: int = 0,
        hist_bins: int = 50,
    ) -> SubsampleResult:
        """Execute every stage on one rank of an SPMD run.

        `data` may be any :class:`~repro.data.sources.SnapshotSource` or a
        resident :class:`TurbulenceDataset` (coerced to an in-memory source).
        """
        ctx = PipelineContext(
            comm=comm, source=open_source(data), config=config, seed=seed, hist_bins=hist_bins
        )
        with EnergyMeter() as meter:
            ctx.meter = meter
            for stage in self.stages:
                stage.run(ctx)
            meter.add_elapsed(comm.clock.t)
        return self._build_result(ctx, meter)

    @staticmethod
    def _build_result(ctx: PipelineContext, meter: EnergyMeter) -> SubsampleResult:
        if ctx.report is not None:
            return _stream_result(ctx, meter)
        sub = ctx.config.subsample
        points: PointSet | None = None
        cubes: list[Hypercube] | None = None
        if ctx.comm.rank == 0:
            if sub.method == "full":
                cubes = [c for chunk in (ctx.gathered_full or []) for c in chunk]
            else:
                flat = [p for chunk in (ctx.gathered_points or []) for p in chunk]
                points = PointSet.concatenate(flat) if flat else None
        return SubsampleResult(
            points=points,
            cubes=cubes,
            selected_cube_ids=np.asarray(ctx.selected),
            n_candidate_cubes=ctx.n_cubes,
            n_points_scanned=int(ctx.total_scanned),
            energy=meter,
            virtual_time=ctx.comm.clock.t,
            meta={
                "method": sub.method,
                "hypercubes": sub.hypercubes,
                "num_samples": sub.num_samples,
                "rank": ctx.comm.rank,
                "size": ctx.comm.size,
                "seed": ctx.seed,
                "case": ctx.config.to_dict(),
            },
        )


def _stream_result(ctx: PipelineContext, meter: EnergyMeter) -> SubsampleResult:
    """A stream run's result: on rank 0 the draw from the merged state (no
    points when there is none) and the producer reports of several ranks.
    Describing the run in the points' and the result's meta is the caller's."""
    points, n_seen, meta = None, 0, {}
    if ctx.comm.rank == 0 and ctx.sampler is not None and ctx.sampler.n_seen > 0:
        rows = ctx.sampler.finalize()
        # rows are [value, time, coords..., point_vars...]
        d = rows.shape[1] - 2 - len(ctx.point_vars)
        points = PointSet(
            coords=rows[:, 2 : 2 + d],
            values={v: rows[:, 2 + d + j] for j, v in enumerate(ctx.point_vars)},
            time=rows[:, 1],
        )
        n_seen = int(ctx.sampler.n_seen)
    if ctx.reports is not None:
        meta = {"producers": [r.to_meta() for r in ctx.reports],
                "failed_ranks": [r.rank for r in ctx.reports if r.failed]}
    return SubsampleResult(
        points=points, cubes=None, selected_cube_ids=np.empty(0, dtype=np.int64),
        n_candidate_cubes=0, n_points_scanned=n_seen, energy=meter,
        virtual_time=ctx.comm.clock.t, meta=meta,
    )
