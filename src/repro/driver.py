"""The SPMD driver: the one place outside :mod:`repro.parallel` that
launches ranks — batch and stream subsample and both ``Experiment.train``
modes run on :func:`run_ranks`.

It owns what every launch shares.  First, one rule for each rank's source
view: ``"whole"`` is the caller's source object itself (batch subsample; on
the thread backend it stays the same object, so a shard source's warm LRU
survives across runs); ``"span"`` is the rank's
:func:`~repro.parallel.partition.stream_partitions` span as a
:class:`~repro.data.sources.PartitionedSource` (stream subsample);
``"owned"`` is, over a shard source, the rank's own
:class:`~repro.data.store.OwnedShardLayout` directory opened through
``source.reopen`` so codec and tier settings carry over, and the span over
any other source (``owned_shards`` stream subsample, stream training).  One
rank runs inline on the caller's source, whatever the view; a forked rank of
the process backend reopens a private shard source, whatever the view, as
the parent's LRU locks and prefetch thread do not survive a fork.  Second,
the owned layout's lifecycle: built before launch, removed after, however
the run ends.  Third, a rank reads the cache info of a source opened for it
and closes it when its body returns or raises.

Living beside :mod:`repro.runspec` keeps :mod:`repro.parallel` free of
:mod:`repro.data` imports.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.data.sources import PartitionedSource, ShardDirSource, SnapshotSource
from repro.data.store import OwnedShardLayout
from repro.parallel.partition import stream_partitions
from repro.parallel.perfmodel import PerfModel
from repro.parallel.spmd import run_spmd

__all__ = ["Launch", "run_ranks"]


@dataclass
class Launch:
    """What :func:`run_ranks` hands back."""

    #: the body's return value on each rank, in rank order
    values: list[Any]
    #: per rank, the ``cache_info()`` of the private source the driver opened
    #: for it, or None where the rank read the caller's source
    cache_infos: list[dict | None]
    #: virtual makespan: the slowest rank's clock
    virtual_time: float


def run_ranks(
    body: Callable[..., Any],
    nranks: int,
    source: SnapshotSource | None = None,
    *args: Any,
    view: str = "whole",
    backend: str = "thread",
    model: PerfModel | None = None,
    fault_hook: Callable[..., bool] | None = None,
    **kwargs: Any,
) -> Launch:
    """Run ``body(comm, rank_source, *args, **kwargs)`` on `nranks` ranks.

    ``rank_source`` is the rank's ``view`` of `source` — ``"whole"``,
    ``"span"`` or ``"owned"`` (module docstring) — or None without one;
    ``backend``, ``model`` and ``fault_hook`` go to
    :func:`~repro.parallel.spmd.run_spmd`.
    """
    layout = None
    if view == "owned" and nranks > 1 and isinstance(source, ShardDirSource):
        # A run-scoped scratch artifact in a unique temp dir, so concurrent
        # runs and read-only base directories are safe.
        layout = OwnedShardLayout.build(source.layout_path, nranks)
    try:
        spmd = run_spmd(_rank, nranks, body, source, view, layout, backend, args,
                        kwargs, model=model, fault_hook=fault_hook, backend=backend)
    finally:
        if layout is not None:
            layout.remove()
    return Launch(values=[value for value, _ in spmd.values],
                  cache_infos=[info for _, info in spmd.values],
                  virtual_time=spmd.virtual_time)


def _rank(comm, body, source, view, layout, backend, args, kwargs):
    """One rank: build its view, run the body, read and close what it opened."""
    private = None
    rank_source = source
    if comm.size > 1 and source is not None:
        if layout is not None:
            private = rank_source = source.reopen(layout.rank_dir(comm.rank))
        else:
            if backend == "process" and isinstance(source, ShardDirSource):
                private = rank_source = source.reopen()
            if view != "whole":
                part = stream_partitions(source.n_snapshots, comm.size)[comm.rank]
                rank_source = PartitionedSource(rank_source, part.lo, part.hi)
    try:
        value = body(comm, rank_source, *args, **kwargs)
        return value, None if private is None else private.cache_info()
    finally:
        if private is not None:
            private.close()
