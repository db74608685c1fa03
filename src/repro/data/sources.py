"""Snapshot sources: one ingestion abstraction for batch, out-of-core, and
in-situ data.

The paper's first future-work item is "integration with in-situ, streaming,
and online training frameworks": sampling while the simulation runs, without
ever materializing the full dataset.  A :class:`SnapshotSource` is the
stream-first answer — every consumer (the stage pipeline, the streaming
samplers, the training data builders, the CLI) asks a source for snapshots
one at a time and never requires the whole dataset to be resident.  Three
implementations cover the ingestion spectrum:

* :class:`InMemorySource` — wraps a fully resident
  :class:`~repro.data.dataset.TurbulenceDataset` (today's batch path;
  produces byte-identical pipeline results).
* :class:`ShardDirSource` — lazily loads per-snapshot shards written by
  :func:`repro.data.loaders.save_dataset` in any registered
  :mod:`~repro.data.codecs` layout (auto-detected from the manifest),
  keeping at most ``max_cached`` decoded shards in a thread-safe LRU
  (out-of-core: the working set is bounded no matter how many shards the
  dataset has).
* :class:`RemoteTieredSource` — a :class:`ShardDirSource` whose shard
  directory lives behind a simulated object store: shards are staged to a
  bounded local-disk tier through a latency/bandwidth cost model before
  decoding, so RAM → local disk → remote tiering is exercised with the
  same LRU/prefetch/ownership machinery.
* :class:`SimulationSource` — generates snapshots on demand from a
  replayable simulation factory (true in-situ: nothing is ever written to
  disk or held beyond a small rolling window; revisiting an earlier
  snapshot re-runs the deterministic simulation).

:class:`PartitionedSource` is a contiguous snapshot-range *view* of any
source — the unit of work one SPMD rank streams in the multi-producer
subsample (``repro.parallel.partition.stream_partitions`` decides the
spans; per-rank samples are then recombined by weighted reservoir merge).

Sources may also support *asynchronous prefetch*: :meth:`SnapshotSource.prefetch`
is an advisory look-ahead hint (no-op by default);  ``ShardDirSource``
honours it with a background decode thread so each consumer overlaps shard
decode with sampling, and (with ``lazy=True``) decodes shard members per
variable on first access — what "member decode" costs is the codec's
business (npz decompresses one zip entry, raw memory-maps one file,
chunked reads one variable's chunk files).

:func:`open_source` is the one factory every entry point routes through:
it resolves a source object (identity), a ``TurbulenceDataset``
(→ ``InMemorySource``), a shard-directory path (→ ``ShardDirSource``,
codec auto-detected), or a spec string like ``raw+dir:///data/shards`` /
``remote:///data/shards?latency_s=0.01`` to a :class:`SnapshotSource`.
"""

from __future__ import annotations

import abc
import contextlib
import dataclasses
import os
import queue
import shutil
import tempfile
import threading
import urllib.parse
from collections import OrderedDict
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.data.codecs import get_codec
from repro.data.dataset import TurbulenceDataset
from repro.data.store import MANIFEST, LazyField, read_manifest, write_manifest
from repro.sim.fields import FlowField

__all__ = [
    "SnapshotSource",
    "InMemorySource",
    "ShardDirSource",
    "RemoteTieredSource",
    "SimulationSource",
    "PartitionedSource",
    "CacheCounters",
    "open_source",
    "aggregate_cache_info",
]


class SnapshotSource(abc.ABC):
    """Sequential-access view of a snapshot sequence plus its Table 1 roles.

    Subclasses provide :meth:`snapshot` (random access; may be lazy,
    cached, or regenerating) and the dataset metadata the pipeline needs
    (variable roles, grid geometry, snapshot count).  Consumers that stream
    should prefer :meth:`iter_snapshots` / :meth:`iter_tables`, which visit
    snapshots in index order — the access pattern every implementation
    serves with bounded memory.
    """

    label: str = ""
    description: str = ""
    input_vars: list[str]
    output_vars: list[str]
    cluster_var: str
    gravity: str = "none"
    #: optional (n_snapshots,) per-snapshot global target (e.g. OF2D drag)
    target: np.ndarray | None = None

    # ---- geometry ---------------------------------------------------------

    @property
    @abc.abstractmethod
    def n_snapshots(self) -> int: ...

    @property
    @abc.abstractmethod
    def grid_shape(self) -> tuple[int, ...]: ...

    @property
    def ndim(self) -> int:
        return len(self.grid_shape)

    @property
    def n_points_per_snapshot(self) -> int:
        return int(np.prod(self.grid_shape))

    # ---- access -----------------------------------------------------------

    @abc.abstractmethod
    def snapshot(self, i: int) -> FlowField:
        """Fetch snapshot `i`.  May load, generate, or return a cached one;
        the returned field must not be assumed to stay resident after the
        next :meth:`snapshot` call (bounded sources evict)."""

    def iter_snapshots(self) -> Iterator[tuple[int, FlowField]]:
        """Yield ``(index, snapshot)`` in index order (the streaming order)."""
        for i in range(self.n_snapshots):
            yield i, self.snapshot(i)

    @property
    def times(self) -> np.ndarray:
        """(n_snapshots,) snapshot times.  The default walks the source."""
        return np.array([snap.time for _, snap in self.iter_snapshots()])

    def iter_tables(
        self, variables: list[str], chunk_rows: int = 65536
    ) -> Iterator[tuple[int, float, np.ndarray, np.ndarray]]:
        """Stream the source as flat row blocks of bounded size.

        Yields ``(snapshot_index, time, coords_block, table_block)`` where
        ``coords_block`` is (rows, ndim) global grid coordinates and
        ``table_block`` is (rows, len(variables)).  At most one snapshot
        (plus ``chunk_rows`` rows of coordinates) is touched at a time, so
        memory stays bounded by the source's own residency policy.
        """
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        if self.n_snapshots == 0:
            # An empty span (e.g. a trailing rank when ranks > snapshots)
            # streams nothing; asking for the grid would force a decode the
            # source cannot serve.
            return
        grid = self.grid_shape
        n = int(np.prod(grid))
        for s, snap in self.iter_snapshots():
            flats = [snap.get(v).reshape(-1) for v in variables]
            for lo in range(0, n, chunk_rows):
                hi = min(lo + chunk_rows, n)
                coords = np.column_stack(
                    np.unravel_index(np.arange(lo, hi), grid)
                ).astype(np.float64)
                table = np.column_stack([f[lo:hi] for f in flats])
                yield s, snap.time, coords, table

    # ---- accounting / hints ----------------------------------------------

    def prefetch(self, indices: Iterable[int]) -> None:
        """Advisory hint that `indices` will be fetched soon.

        Default is a no-op; sources with asynchronous readers (e.g.
        :class:`ShardDirSource` with ``prefetch > 0``) start loading the
        named snapshots in the background so the caller's next
        :meth:`snapshot` overlaps I/O with its own compute.  Never required
        for correctness.
        """
        return None

    def nbytes(self) -> int:
        """Decoded footprint of the full snapshot sequence (estimate for
        lazy sources: first snapshot × count, grids are homogeneous)."""
        if self.n_snapshots == 0:
            return 0
        return self.snapshot(0).nbytes() * self.n_snapshots

    def value_range_hint(self, var: str) -> tuple[float, float] | None:
        """Optional global (min, max) of a variable, if knowable without an
        extra pass.  Streaming samplers fall back to estimating from the
        first chunk when this returns None."""
        return None

    def stored_range(self, var: str, i: int) -> tuple[float, float] | None:
        """(min, max) of `var` over snapshot `i` as recorded at ingest, or
        None when the source keeps no such record.  Shard directories keep
        one for the cluster variable (the manifest's ``"value_ranges"``);
        batch phase 1 reads it instead of decoding the snapshot.  Unlike
        :meth:`value_range_hint` it never feeds stream sampling."""
        return None

    def summary_row(self) -> dict:
        return {
            "label": self.label,
            "description": self.description,
            "space": "x".join(str(n) for n in self.grid_shape),
            "time": self.n_snapshots,
            "size_bytes": self.nbytes(),
            "kcv": self.cluster_var,
            "input": ", ".join(self.input_vars),
            "output": ", ".join(self.output_vars) if self.output_vars else "-",
        }


class InMemorySource(SnapshotSource):
    """A fully resident :class:`TurbulenceDataset` as a source (batch mode).

    The pipeline consumes every source through the same chunked interface;
    wrapping a dataset here reproduces the pre-source-API results
    byte-for-byte (pinned by the golden pipeline tests).
    """

    def __init__(self, dataset: TurbulenceDataset) -> None:
        if not isinstance(dataset, TurbulenceDataset):
            raise TypeError(f"expected TurbulenceDataset, got {type(dataset).__name__}")
        self.dataset = dataset
        self.label = dataset.label
        self.description = dataset.description
        self.input_vars = list(dataset.input_vars)
        self.output_vars = list(dataset.output_vars)
        self.cluster_var = dataset.cluster_var
        self.gravity = dataset.gravity
        self.target = dataset.target

    @property
    def n_snapshots(self) -> int:
        return self.dataset.n_snapshots

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return self.dataset.grid_shape

    def snapshot(self, i: int) -> FlowField:
        return self.dataset.snapshots[i]

    @property
    def times(self) -> np.ndarray:
        return self.dataset.times

    def nbytes(self) -> int:
        return self.dataset.nbytes()

    def value_range_hint(self, var: str) -> tuple[float, float] | None:
        # Everything is resident anyway; the exact range is one cheap scan.
        lo = min(float(s.get(var).min()) for s in self.dataset.snapshots)
        hi = max(float(s.get(var).max()) for s in self.dataset.snapshots)
        return (lo, hi)


@dataclass
class CacheCounters:
    """The documented additive event counters every tiered source reports.

    One shared schema across sources and tiers: plain :class:`ShardDirSource`
    instances leave the remote/staging counters at zero, a
    :class:`RemoteTieredSource` increments them, and
    :func:`aggregate_cache_info` sums *exactly these fields* across ranks —
    no per-source key special-casing.

    * ``hits`` / ``misses`` — LRU lookups served from / not in RAM;
    * ``evictions`` — shards dropped from the RAM LRU;
    * ``prefetched`` — shards decoded by the background prefetch thread;
    * ``prefetch_hits`` — hits served from a prefetched entry;
    * ``remote_fetches`` / ``remote_bytes`` — shard fetches (and their
      on-disk bytes) staged from the remote tier;
    * ``remote_wait_s`` — simulated seconds the latency/bandwidth model
      charges for those fetches (accounted, not slept);
    * ``staged_hits`` — decodes served from the already-staged local tier;
    * ``staged_evictions`` — shards dropped from the bounded staging tier.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    prefetched: int = 0
    prefetch_hits: int = 0
    remote_fetches: int = 0
    remote_bytes: int = 0
    remote_wait_s: float = 0.0
    staged_hits: int = 0
    staged_evictions: int = 0


class ShardDirSource(SnapshotSource):
    """Out-of-core source over per-snapshot shards on disk, any codec.

    Reads a directory written by :func:`repro.data.loaders.save_dataset`
    (``manifest.json`` + one shard per snapshot).  The shard layout is
    resolved from the manifest's ``"codec"`` stamp against the
    :mod:`~repro.data.codecs` registry (directories from before the
    registry read as ``npz``), so every policy here — bounded LRU,
    prefetch, ownership splits — is codec-agnostic.  Decoded shards live
    in a thread-safe LRU holding at most ``max_cached`` snapshots, so
    subsampling an N-shard dataset never resides more than ``max_cached``
    shards in memory regardless of N.  :meth:`cache_info` exposes the
    counters the boundedness tests assert on.

    ``prefetch=N`` starts one background thread that eagerly decodes up to
    ``N`` shards ahead of every access (and whatever :meth:`prefetch` names
    explicitly) into the same bounded LRU, so a streaming consumer overlaps
    shard decode with its own sampling compute; ``cache_info()`` counts the
    hits served from prefetched entries.  ``lazy=True`` (the default)
    decodes shard members per variable on first access — a consumer that
    reads two of six variables pays for exactly those two (the prefetcher
    still materializes whole shards: it exists to move decode off the
    consumer's thread).
    """

    #: which storage tier serves decodes (overridden by remote wrappers)
    tier = "local"

    def __init__(
        self, path: str, max_cached: int = 2, prefetch: int = 0, lazy: bool = True
    ) -> None:
        if max_cached < 1:
            raise ValueError("max_cached must be >= 1")
        if prefetch < 0:
            raise ValueError("prefetch must be >= 0")
        manifest = read_manifest(path)
        self.path = path
        self.codec = get_codec(manifest.get("codec", "npz"))
        self.max_cached = int(max_cached)
        self.prefetch_depth = int(prefetch)
        self.lazy = bool(lazy)
        self.label = manifest["label"]
        self.description = manifest.get("description", "")
        self.input_vars = list(manifest["input_vars"])
        self.output_vars = list(manifest["output_vars"])
        self.cluster_var = manifest["cluster_var"]
        self.gravity = manifest.get("gravity", "none")
        target = manifest.get("target")
        self.target = np.asarray(target, dtype=np.float64) if target is not None else None
        self._n = int(manifest["n_snapshots"])
        self._ranges: dict[str, list] = manifest.get("value_ranges", {})
        for var, per_shard in self._ranges.items():
            if len(per_shard) != self._n:
                raise ValueError(
                    f"{MANIFEST} under {path!r} lists {len(per_shard)} "
                    f"{var!r} ranges for {self._n} shards"
                )
        self._cache: OrderedDict[int, FlowField] = OrderedDict()
        self._lock = threading.RLock()
        self._grid_shape: tuple[int, ...] | None = None
        self._shard_nbytes: int | None = None
        self._times: np.ndarray | None = None
        self._stats = CacheCounters()
        self._max_resident = 0
        self._inflight: set[int] = set()
        self._from_prefetch: set[int] = set()
        self._queue: queue.Queue[int | None] | None = None
        self._worker: threading.Thread | None = None

    @property
    def layout_path(self) -> str:
        """The directory :class:`~repro.data.store.OwnedShardLayout` should
        split for per-rank ownership (tiered wrappers point this at their
        backing store, not their staging area)."""
        return self.path

    def reopen(self, path: str | None = None) -> ShardDirSource:
        """A fresh private source with this source's knobs over `path`
        (default: the same directory) — how owned-shard layouts and the
        process backend's forked workers get per-rank sources without
        sharing LRU/prefetch state."""
        return ShardDirSource(
            self.layout_path if path is None else path,
            max_cached=self.max_cached, prefetch=self.prefetch_depth,
            lazy=self.lazy,
        )

    def shard_path(self, i: int) -> str:
        """On-disk path of shard `i` (file or directory, per the codec);
        validates the index."""
        if not 0 <= i < self._n:
            raise IndexError(f"snapshot {i} out of range [0, {self._n})")
        return self.codec.shard_path(self.path, i)

    @property
    def n_snapshots(self) -> int:
        return self._n

    @property
    def grid_shape(self) -> tuple[int, ...]:
        with self._lock:  # RLock: snapshot(0) re-enters safely
            if self._grid_shape is None:
                self._grid_shape = self.snapshot(0).grid_shape
            return self._grid_shape

    def stored_range(self, var: str, i: int) -> tuple[float, float] | None:
        self.shard_path(i)  # validate the index
        per_shard = self._ranges.get(var)
        return None if per_shard is None else tuple(per_shard[i])

    # ---- decode / cache internals -----------------------------------------

    def _decode(self, i: int, materialize: bool = False) -> FlowField:
        """Decode shard `i` through the codec (outside the lock, so
        decodes overlap)."""
        self.shard_path(i)  # validate the index
        if not self.lazy:
            return self.codec.decode(self.path, i)
        field = self.codec.decode_lazy(self.path, i)
        if materialize:
            field.materialize()
        return field

    def _insert(self, i: int, field: FlowField) -> None:
        """Add to the LRU under the lock; evict first so residency never
        exceeds ``max_cached``."""
        while len(self._cache) >= self.max_cached:
            old, _ = self._cache.popitem(last=False)
            self._from_prefetch.discard(old)
            self._stats.evictions += 1
        self._cache[i] = field
        self._max_resident = max(self._max_resident, len(self._cache))
        if self._grid_shape is None:
            self._grid_shape = field.grid_shape
            self._shard_nbytes = field.nbytes()

    def snapshot(self, i: int) -> FlowField:
        self.shard_path(i)  # validate the index before touching the cache
        with self._lock:
            field = self._cache.get(i)
            if field is not None:
                self._cache.move_to_end(i)
                self._stats.hits += 1
                if i in self._from_prefetch:
                    self._from_prefetch.discard(i)
                    self._stats.prefetch_hits += 1
                self._schedule_lookahead(i)
                return field
            self._stats.misses += 1
            self._schedule_lookahead(i)
        # Decode outside the lock: concurrent ranks and the prefetcher make
        # progress while this thread decompresses.
        field = self._decode(i)
        with self._lock:
            racing = self._cache.get(i)
            if racing is not None:  # the prefetcher beat us to it
                self._cache.move_to_end(i)
                self._from_prefetch.discard(i)
                return racing
            self._insert(i, field)
            return field

    # ---- async prefetch ----------------------------------------------------

    def prefetch(self, indices: Iterable[int]) -> None:
        """Queue explicit shards for background decode (advisory; no-op
        unless the source was built with ``prefetch > 0``).

        At most ``prefetch_depth`` decodes are outstanding at once — a long
        hint list is truncated rather than flooding the bounded LRU with
        shards the consumer won't reach for a while (which would evict the
        ones it is about to read).
        """
        if self.prefetch_depth <= 0:
            return
        with self._lock:
            for i in indices:
                self._enqueue(int(i))

    def _schedule_lookahead(self, i: int) -> None:
        """Queue the next ``prefetch_depth`` shards after `i` (lock held)."""
        for j in range(i + 1, min(i + 1 + self.prefetch_depth, self._n)):
            self._enqueue(j)

    def _enqueue(self, j: int) -> None:
        """Queue shard `j` for background decode (caller holds the lock)."""
        if self.prefetch_depth <= 0 or not 0 <= j < self._n:
            return
        if j in self._cache or j in self._inflight:
            return
        # Bound outstanding decodes to the look-ahead depth: a long hint
        # list must not flood the bounded LRU with far-future shards.
        if len(self._inflight) >= self.prefetch_depth:
            return
        if self._worker is None:
            self._queue = queue.Queue()
            self._worker = threading.Thread(
                target=self._prefetch_loop, args=(self._queue,),
                name="shard-prefetch", daemon=True,
            )
            self._worker.start()
        self._inflight.add(j)
        assert self._queue is not None
        self._queue.put(j)

    def _prefetch_loop(self, q: queue.Queue[int | None]) -> None:
        while True:
            j = q.get()
            if j is None:
                return
            try:
                field = self._decode(j, materialize=True)
            except Exception:
                with self._lock:
                    self._inflight.discard(j)
                continue
            with self._lock:
                self._inflight.discard(j)
                if j not in self._cache:
                    self._insert(j, field)
                    self._from_prefetch.add(j)
                    self._stats.prefetched += 1

    def close(self) -> None:
        """Stop and join the prefetch worker (idempotent).

        Call when done with the source — directly, via the context manager,
        or through the pipeline/CLI teardown — so long-lived processes (and
        the thread-leak tests) never accumulate idle decode threads.  The
        worker is a daemon, so even an unclosed source cannot block
        interpreter exit.
        """
        with self._lock:
            worker, q = self._worker, self._queue
            self._worker = None
            self._queue = None
        if worker is not None and q is not None:
            q.put(None)
            worker.join(timeout=5.0)

    def __enter__(self) -> ShardDirSource:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _shard_time(self, i: int) -> float:
        """Metadata-only time read for shard `i` (no array decode); tiered
        wrappers read from their backing store so an unstaged shard never
        forces a fetch."""
        return self.codec.shard_time(self.path, i)

    @property
    def times(self) -> np.ndarray:
        with self._lock:
            if self._times is None:
                # Codecs read times from shard metadata (an npz scalar
                # entry, a json sidecar), never the field arrays.
                self._times = np.array(
                    [self._shard_time(i) for i in range(self._n)]
                )
            return self._times

    def nbytes(self) -> int:
        """Decoded footprint of all shards (first decode's size × count,
        cached so repeat queries touch no disk)."""
        if self._n == 0:
            return 0
        with self._lock:  # RLock: snapshot(0) re-enters safely
            if self._shard_nbytes is None:
                self.snapshot(0)
            return self._shard_nbytes * self._n

    def _tier_gauges(self) -> dict:
        """Extra per-tier gauges for :meth:`cache_info` (lock held)."""
        return {}

    def cache_info(self) -> dict:
        """Cache/tier counters as a schema-2 dict::

            {
              "schema": 2,
              "codec": "npz" | "raw" | "chunked",
              "tier": "local" | "remote",
              "counters": {...CacheCounters fields...},   # additive across ranks
              "gauges": {"resident", "max_resident", "max_cached",
                         "prefetch_depth", ...per-tier gauges...},
            }

        Counters are events (summable across disjoint caches); gauges are
        levels and configuration, which :func:`aggregate_cache_info`
        deliberately never sums.
        """
        with self._lock:
            return {
                "schema": 2,
                "codec": self.codec.name,
                "tier": self.tier,
                "counters": dataclasses.asdict(self._stats),
                "gauges": {
                    "resident": len(self._cache),
                    "max_resident": self._max_resident,
                    "max_cached": self.max_cached,
                    "prefetch_depth": self.prefetch_depth,
                    **self._tier_gauges(),
                },
            }


class RemoteTieredSource(ShardDirSource):
    """A shard directory behind a simulated object store, read through a
    local-disk staging tier: RAM (LRU) → local disk (staged) → remote.

    ``remote_path`` is an ordinary ``save_dataset`` directory standing in
    for the object store.  Before a shard is decoded it is *staged* —
    its files materialize in a local staging directory — and every fetch
    is charged to a configurable cost model, ``latency_s + bytes /
    bandwidth`` (accounted in ``counters["remote_wait_s"]``, not slept:
    benches stay fast and deterministic).  The staging tier is itself a
    bounded LRU of ``max_staged`` shards, so the three-tier residency
    story is: at most ``max_cached`` decoded shards in RAM, at most
    ``max_staged`` shard copies on local disk, everything in the remote.

    Everything above the staging step — bounded LRU, background
    prefetcher (which now overlaps *remote fetches* with sampling),
    ``cache_info()``, :class:`~repro.data.store.OwnedShardLayout` splits
    (built over ``remote_path``; per-rank sources stage privately) — is
    inherited from :class:`ShardDirSource` unchanged, for any codec.

    Staged files obey the same residency contract as LRU entries: a shard
    evicted from the staging tier may disappear from local disk, so
    snapshots must not be held across further ``snapshot()`` calls (the
    documented :class:`SnapshotSource` rule).  Shards resident in RAM or
    queued for prefetch are never staging-evicted.
    """

    tier = "remote"

    def __init__(
        self,
        remote_path: str,
        *,
        staging_dir: str | None = None,
        max_staged: int = 4,
        latency_s: float = 0.01,
        bandwidth: float = 100e6,
        max_cached: int = 2,
        prefetch: int = 0,
        lazy: bool = True,
    ) -> None:
        if max_staged < 1:
            raise ValueError("max_staged must be >= 1")
        if latency_s < 0:
            raise ValueError("latency_s must be >= 0")
        if bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")
        self.remote_path = os.fspath(remote_path)
        manifest = read_manifest(self.remote_path)  # fail before making dirs
        self._owns_staging = staging_dir is None
        staging = (
            tempfile.mkdtemp(prefix="staged_shards_")
            if staging_dir is None else os.fspath(staging_dir)
        )
        try:
            os.makedirs(staging, exist_ok=True)
            # The staging dir is a valid (initially shardless) save_dataset
            # dir: same manifest, so super().__init__ resolves the codec
            # and geometry from it.
            write_manifest(staging, manifest)
            self.max_staged = int(max_staged)
            self.latency_s = float(latency_s)
            self.bandwidth = float(bandwidth)
            self._staged: OrderedDict[int, int] = OrderedDict()  # index -> bytes
            self._staging: dict[int, threading.Event] = {}  # in-flight fetches
            self._decoding: dict[int, int] = {}  # index -> active reads (pins)
            super().__init__(
                staging, max_cached=max_cached, prefetch=prefetch, lazy=lazy
            )
        except BaseException:
            if self._owns_staging:
                shutil.rmtree(staging, ignore_errors=True)
            raise

    @property
    def layout_path(self) -> str:
        return self.remote_path

    def reopen(self, path: str | None = None) -> RemoteTieredSource:
        return RemoteTieredSource(
            self.remote_path if path is None else path,
            max_staged=self.max_staged, latency_s=self.latency_s,
            bandwidth=self.bandwidth, max_cached=self.max_cached,
            prefetch=self.prefetch_depth, lazy=self.lazy,
        )

    # ---- staging tier ------------------------------------------------------

    def _stage(self, i: int) -> None:
        """Ensure shard `i`'s files exist in the staging tier, fetching
        from the remote (and charging the cost model) when they don't.
        Concurrent decoders of the same shard fetch it once."""
        with self._lock:
            if i in self._staged:
                self._staged.move_to_end(i)
                self._stats.staged_hits += 1
                return
            pending = self._staging.get(i)
            if pending is None:
                pending = threading.Event()
                self._staging[i] = pending
                owner = True
            else:
                owner = False
        if not owner:
            pending.wait()
            self._stage(i)  # staged now (hit) — or retry as the owner
            return
        try:
            # Fetch outside the lock: remote copies overlap with decodes
            # and with other shards' fetches.
            self.codec.link_shard(self.remote_path, i, self.path, i)
            nbytes = self.codec.shard_disk_bytes(self.path, i)
            with self._lock:
                self._staged[i] = nbytes
                self._stats.remote_fetches += 1
                self._stats.remote_bytes += nbytes
                self._stats.remote_wait_s += self.latency_s + nbytes / self.bandwidth
                self._evict_staged()
        finally:
            with self._lock:
                self._staging.pop(i, None)
            pending.set()

    def _evict_staged(self) -> None:
        """Drop least-recent staged shards down to ``max_staged`` (lock
        held).  Shards resident in the RAM LRU, queued for prefetch, or
        pinned by a decode or deferred member read are skipped — their
        files are still being read."""
        while len(self._staged) > self.max_staged:
            victim = next(
                (k for k in self._staged
                 if k not in self._cache and k not in self._inflight
                 and k not in self._decoding),
                None,
            )
            if victim is None:
                return  # everything over-budget is pinned by residency
            del self._staged[victim]
            self._stats.staged_evictions += 1
            self.codec.remove_shard(self.path, victim)

    @contextlib.contextmanager
    def _pinned(self, i: int) -> Iterator[None]:
        """Stage shard `i` and pin it against staging eviction until the
        block exits: the files a decode or a deferred member read opens
        must outlive the eviction its own fetch may trigger."""
        with self._lock:
            self._decoding[i] = self._decoding.get(i, 0) + 1
        try:
            self._stage(i)
            yield
        finally:
            with self._lock:
                depth = self._decoding[i] - 1
                if depth:
                    self._decoding[i] = depth
                else:
                    del self._decoding[i]

    def _decode(self, i: int, materialize: bool = False) -> FlowField:
        """Stage shard `i` from the remote tier, then decode the staged
        copy (outside the lock, so fetches and decodes overlap).  The shard
        is pinned while the decode reads it, and a lazy field's deferred
        member reads (persisted derived members included) re-stage and pin
        it the same way — so a staged file vanishing under a bounded tier
        is never an error, only another accounted fetch."""
        self.shard_path(i)  # validate the index before any fetch
        with self._pinned(i):
            field = super()._decode(i, materialize)
        if isinstance(field, LazyField):
            field.around_load(lambda: self._pinned(i))
        return field

    def _shard_time(self, i: int) -> float:
        """Metadata-only read served straight from the remote directory —
        times never force a shard fetch into the staging tier."""
        return self.codec.shard_time(self.remote_path, i)

    def _tier_gauges(self) -> dict:
        """Staging-tier gauges for :meth:`cache_info` (lock held)."""
        return {
            "staged": len(self._staged),
            "max_staged": self.max_staged,
            "latency_s": self.latency_s,
            "bandwidth": self.bandwidth,
        }

    def close(self) -> None:
        """Stop the prefetcher, then remove an owned staging directory
        (a caller-supplied ``staging_dir`` is the caller's to clean)."""
        super().close()
        if self._owns_staging:
            shutil.rmtree(self.path, ignore_errors=True)


class SimulationSource(SnapshotSource):
    """In-situ source: snapshots are generated on demand, never materialized.

    ``factory`` is a zero-argument callable returning a *fresh* iterator of
    :class:`FlowField` snapshots (a deterministic simulation run).  Forward
    access advances the live iterator; only the last ``max_cached``
    generated snapshots are retained, and stepping *backwards* restarts the
    factory and replays — the standard in-situ trade of compute for memory.
    ``restarts`` counts those replays (the two-phase pipeline revisits
    selected snapshots in phase 2, so expect a couple).
    """

    def __init__(
        self,
        factory: Callable[[], Iterator[FlowField]],
        n_snapshots: int,
        *,
        label: str = "SIM",
        input_vars: list[str],
        output_vars: list[str],
        cluster_var: str,
        gravity: str = "none",
        description: str = "",
        target: np.ndarray | None = None,
        max_cached: int = 1,
    ) -> None:
        if n_snapshots < 1:
            raise ValueError("n_snapshots must be >= 1")
        if max_cached < 1:
            raise ValueError("max_cached must be >= 1")
        self.factory = factory
        self.label = label
        self.description = description
        self.input_vars = list(input_vars)
        self.output_vars = list(output_vars)
        self.cluster_var = cluster_var
        self.gravity = gravity
        self.target = target
        self.max_cached = int(max_cached)
        self._n = int(n_snapshots)
        self._it: Iterator[FlowField] | None = None
        self._pos = 0  # number of snapshots consumed from the live iterator
        self._cache: OrderedDict[int, FlowField] = OrderedDict()
        self._lock = threading.RLock()
        self._grid_shape: tuple[int, ...] | None = None
        self._snapshot_nbytes: int | None = None
        self._seen_times: dict[int, float] = {}
        self.restarts = 0
        self.generated = 0

    @property
    def n_snapshots(self) -> int:
        return self._n

    @property
    def grid_shape(self) -> tuple[int, ...]:
        with self._lock:  # RLock: snapshot(0) re-enters safely
            if self._grid_shape is None:
                self._grid_shape = self.snapshot(0).grid_shape
            return self._grid_shape

    def snapshot(self, i: int) -> FlowField:
        if not 0 <= i < self._n:
            raise IndexError(f"snapshot {i} out of range [0, {self._n})")
        with self._lock:
            if i in self._cache:
                self._cache.move_to_end(i)
                return self._cache[i]
            if self._it is None or i < self._pos:
                # Revisiting a discarded snapshot: replay the simulation.
                if self._it is not None:
                    self.restarts += 1
                self._it = iter(self.factory())
                self._pos = 0
                self._cache.clear()
            field = None
            while self._pos <= i:
                try:
                    field = next(self._it)
                except StopIteration:
                    raise RuntimeError(
                        f"simulation factory yielded only {self._pos} snapshots, "
                        f"declared n_snapshots={self._n}"
                    ) from None
                self._seen_times[self._pos] = field.time
                self.generated += 1
                # Cache every snapshot generated while advancing, not just
                # the requested one: interleaved consumers (multi-rank
                # streaming) revisit the intermediates, and with
                # max_cached >= n_snapshots this makes the whole stream
                # resident — zero replays, as the replay guards promise.
                # The LRU still bounds residency for smaller windows.
                while len(self._cache) >= self.max_cached:
                    self._cache.popitem(last=False)
                self._cache[self._pos] = field
                self._pos += 1
                if self._grid_shape is None:
                    self._grid_shape = field.grid_shape
                    self._snapshot_nbytes = field.nbytes()
            self._cache.move_to_end(i)
            return self._cache[i]

    @property
    def times(self) -> np.ndarray:
        """Snapshot times; generating through the stream once if needed."""
        with self._lock:  # RLock: snapshot() re-enters safely
            if len(self._seen_times) < self._n:
                self.snapshot(self._n - 1)  # advance to the end, recording times
            return np.array([self._seen_times[i] for i in range(self._n)])

    def nbytes(self) -> int:
        """Would-be decoded footprint, from the first generated snapshot's
        size (cached, so asking after a completed pass never replays)."""
        with self._lock:  # RLock: snapshot(0) re-enters safely
            if self._snapshot_nbytes is None:
                self.snapshot(0)
            return self._snapshot_nbytes * self._n


class PartitionedSource(SnapshotSource):
    """A contiguous snapshot-range view ``[lo, hi)`` of another source.

    The unit of work one SPMD rank streams in the multi-producer subsample:
    rank `r` sees its span as snapshots ``0 .. hi-lo`` of an ordinary
    source, while coordinates, times, and values pass through unchanged from
    the base.  Views share the base source (and therefore its cache /
    prefetcher), so K ranks over one :class:`ShardDirSource` still respect
    a single global residency bound.
    """

    def __init__(self, base: SnapshotSource, lo: int, hi: int) -> None:
        if not isinstance(base, SnapshotSource):
            raise TypeError(f"expected SnapshotSource, got {type(base).__name__}")
        if not (0 <= lo <= hi <= base.n_snapshots):
            raise ValueError(
                f"span [{lo}, {hi}) invalid for a {base.n_snapshots}-snapshot source"
            )
        self.base = base
        self.lo = int(lo)
        self.hi = int(hi)
        self.label = f"{base.label}[{lo}:{hi}]"
        self.description = base.description
        self.input_vars = list(base.input_vars)
        self.output_vars = list(base.output_vars)
        self.cluster_var = base.cluster_var
        self.gravity = base.gravity
        self.target = base.target[lo:hi] if base.target is not None else None

    @classmethod
    def split(cls, source: SnapshotSource, nranks: int) -> list[PartitionedSource]:
        """One contiguous view per rank (sizes differ by at most one
        snapshot; trailing views are empty when ``nranks > n_snapshots``)."""
        from repro.parallel.partition import stream_partitions

        return [
            cls(source, part.lo, part.hi)
            for part in stream_partitions(source.n_snapshots, nranks)
        ]

    @property
    def n_snapshots(self) -> int:
        return self.hi - self.lo

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return self.base.grid_shape

    def snapshot(self, i: int) -> FlowField:
        if not 0 <= i < self.n_snapshots:
            raise IndexError(f"snapshot {i} out of range [0, {self.n_snapshots})")
        return self.base.snapshot(self.lo + i)

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self.base.times)[self.lo : self.hi]

    def prefetch(self, indices: Iterable[int]) -> None:
        self.base.prefetch(self.lo + int(i) for i in indices)

    def nbytes(self) -> int:
        if self.n_snapshots == 0:
            return 0
        return self.snapshot(0).nbytes() * self.n_snapshots

    def value_range_hint(self, var: str) -> tuple[float, float] | None:
        # The base's global range is valid (if conservative) for any span —
        # and sharing it keeps every rank's histogram edges identical.
        return self.base.value_range_hint(var)


def aggregate_cache_info(infos: Iterable[dict | None]) -> dict:
    """Sum per-rank :meth:`ShardDirSource.cache_info` event counters.

    The owned-shard benchmarks account total I/O across ranks with this.
    Every :class:`CacheCounters` field is a true event counter — additive
    across disjoint caches — so all of them are summed, whatever the
    source's codec or tier; gauges and configuration (``resident``,
    ``max_cached``, ``prefetch_depth``, tier knobs) are deliberately NOT
    aggregated: their sums would masquerade as fleet totals while meaning
    nothing.  ``decodes`` is the derived total shard-decode count
    (``misses + prefetched`` — each a real decode), ``ranks`` counts the
    caches aggregated, and ``None`` entries (ranks without a shard-backed
    source) are skipped.  Every info must be a schema-2 dict (see
    :meth:`ShardDirSource.cache_info`); anything else raises.
    """
    names = [f.name for f in dataclasses.fields(CacheCounters)]
    total: dict = {"ranks": 0, **{k: 0 for k in names}}
    for info in infos:
        if info is None:
            continue
        total["ranks"] += 1
        counters = info["counters"]
        for key in names:
            total[key] += counters[key]
    total["decodes"] = total["misses"] + total["prefetched"]
    return total


def _parse_source_spec(spec: str) -> tuple[str, str, dict]:
    """Split an ``open_source`` spec string into (scheme, path, options).

    Grammar (see :func:`open_source`): ``PATH``, ``dir://PATH``,
    ``CODEC+dir://PATH``, or ``remote://PATH?knob=value&...``.
    """
    if "://" not in spec:
        return "dir", spec, {}
    scheme, rest = spec.split("://", 1)
    path, _, query = rest.partition("?")
    options = dict(urllib.parse.parse_qsl(query, keep_blank_values=True))
    if scheme == "dir" or scheme.endswith("+dir"):
        codec = scheme[: -len("+dir")] if scheme.endswith("+dir") else None
        if options:
            raise ValueError(
                f"dir:// specs take no ?options (got {sorted(options)!r})"
            )
        return "dir", path, {"codec": codec} if codec else {}
    if scheme == "remote":
        return "remote", path, options
    raise ValueError(
        f"unknown source scheme {scheme!r} in {spec!r}; expected PATH, "
        "dir://PATH, CODEC+dir://PATH, or remote://PATH"
    )


_REMOTE_KNOBS = {
    "latency_s": float,
    "bandwidth": float,
    "max_staged": int,
    "staging_dir": str,
}


def open_source(
    spec,
    *,
    max_cached: int = 2,
    prefetch: int = 0,
    lazy: bool = True,
) -> SnapshotSource:
    """Resolve anything the pipeline ingests to a :class:`SnapshotSource`.

    One factory behind :meth:`Experiment.with_source` and the CLI
    ``--source`` flag.  ``spec`` may be:

    - a :class:`SnapshotSource` — returned as-is (keyword knobs ignored;
      the source keeps its own configuration);
    - a :class:`TurbulenceDataset` — wrapped in :class:`InMemorySource`;
    - a plain directory path (``str`` / ``os.PathLike``) — opened as a
      :class:`ShardDirSource`, codec auto-detected from the manifest;
    - ``dir://PATH`` — same, spelled explicitly;
    - ``CODEC+dir://PATH`` (e.g. ``raw+dir:///tmp/ds``) — same, but
      refuses to open a directory whose manifest names a different codec
      (a guard for scripts that depend on a layout's I/O behaviour);
    - ``remote://PATH?latency_s=0.01&bandwidth=1e8&max_staged=4`` —
      :class:`RemoteTieredSource` over the shard directory at ``PATH``,
      query knobs optional (``latency_s``, ``bandwidth``, ``max_staged``,
      ``staging_dir``).

    ``max_cached`` / ``prefetch`` / ``lazy`` configure whichever
    shard-backed source the spec resolves to.
    """
    if isinstance(spec, SnapshotSource):
        return spec
    if isinstance(spec, TurbulenceDataset):
        return InMemorySource(spec)
    if not isinstance(spec, (str, os.PathLike)):
        raise TypeError(
            "expected a SnapshotSource, TurbulenceDataset, path, or source "
            f"spec string, got {type(spec).__name__}"
        )
    scheme, path, options = _parse_source_spec(os.fspath(spec))
    if scheme == "remote":
        try:
            knobs = {
                key: _REMOTE_KNOBS[key](value) for key, value in options.items()
            }
        except KeyError as exc:
            raise ValueError(
                f"unknown remote:// option {exc.args[0]!r}; "
                f"expected one of {sorted(_REMOTE_KNOBS)}"
            ) from None
        return RemoteTieredSource(
            path, max_cached=max_cached, prefetch=prefetch, lazy=lazy, **knobs
        )
    source = ShardDirSource(path, max_cached=max_cached, prefetch=prefetch, lazy=lazy)
    want = options.get("codec")
    if want is not None and source.codec.name != want:
        source.close()
        raise ValueError(
            f"{path!r} holds {source.codec.name!r} shards, not {want!r} "
            f"(spec {os.fspath(spec)!r}); drop the codec prefix to auto-detect"
        )
    return source
