"""The SPMD driver: the one place outside :mod:`repro.parallel` that
launches ranks — batch and stream subsample and both ``Experiment.train``
modes run on :func:`run_ranks`.

It owns what every launch shares.  First, one rule for each rank's source
view.  The view names the snapshots a rank reads: ``"whole"`` all of them
(batch subsample), ``"span"`` and ``"owned"`` the rank's
:func:`~repro.parallel.partition.stream_partitions` span (stream subsample;
``owned_shards`` stream subsample and stream training).  A rank that needs
a private shard source — the owned view, or any shard source on the
process backend, where the parent's LRU locks and prefetch thread do not
survive a fork — gets ``source.reopen(lo, hi)`` of its span, so codec and
tier settings carry over; otherwise a span is a
:class:`~repro.data.sources.PartitionedSource` of the shared source, and
the whole view is the caller's source object itself (on the thread
backend a shard source's warm LRU survives across runs).  One rank runs
inline on the caller's source, whatever the view.  Second, a rank reads
the cache info of a source opened for it and closes it when its body
returns or raises.

Living beside :mod:`repro.runspec` keeps :mod:`repro.parallel` free of
:mod:`repro.data` imports.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.data.sources import PartitionedSource, ShardDirSource, SnapshotSource
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
    spmd = run_spmd(_rank, nranks, body, source, view, backend, args, kwargs,
                    model=model, fault_hook=fault_hook, backend=backend)
    return Launch(values=[value for value, _ in spmd.values],
                  cache_infos=[info for _, info in spmd.values],
                  virtual_time=spmd.virtual_time)


def _rank(comm, body, source, view, backend, args, kwargs):
    """One rank: build its view, run the body, read and close what it opened."""
    private = None
    rank_source = source
    if comm.size > 1 and source is not None:
        lo, hi = 0, source.n_snapshots
        if view != "whole":
            part = stream_partitions(source.n_snapshots, comm.size)[comm.rank]
            lo, hi = part.lo, part.hi
        if isinstance(source, ShardDirSource) and (view == "owned" or backend == "process"):
            private = rank_source = source.reopen(lo, hi)
        elif view != "whole":
            rank_source = PartitionedSource(source, lo, hi)
    try:
        value = body(comm, rank_source, *args, **kwargs)
        return value, None if private is None else private.cache_info()
    finally:
        if private is not None:
            private.close()
