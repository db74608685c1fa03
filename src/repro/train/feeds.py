"""Batch feeds: the training-side twin of the SnapshotSource redesign.

A :class:`BatchFeed` is to :class:`~repro.train.loop.TrainLoop` what a
:class:`~repro.data.sources.SnapshotSource` is to the subsample pipeline —
one protocol behind which batch, streaming, and distributed data delivery
are interchangeable:

* :class:`ArrayFeed` — today's resident ``x, y`` arrays: the paper's §5.2
  protocol (shuffled 90:10 split, per-epoch permutation, DDP sharding in
  lock-step), byte-identical to the pre-feed epoch loop under the seed goldens.
* :class:`StreamFeed` — builds LSTM/reconstruction windows *incrementally*
  as snapshots arrive from a source: a rolling window of sensor readings
  (and dense target blocks) is all that is ever resident, so training runs
  directly off the merged stream a ``subsample(mode="stream")`` produced —
  bounded memory, no resident dataset.  Each epoch re-streams the source
  (sharded sources re-read from disk, in-situ simulations replay — the
  standard in-situ trade of compute for memory).
* :class:`ShardedFeed` — the DDP flavour of :class:`StreamFeed`: each rank
  streams only its own contiguous snapshot span — the source view the SPMD
  driver (:mod:`repro.driver`) hands the rank, a
  :class:`~repro.data.sources.PartitionedSource` span, or a private shard
  source over the span (:meth:`~repro.data.sources.ShardDirSource.reopen`)
  — with globally agreed test membership and step counts so gradient
  synchronization stays in lock-step across ranks.

Feeds expose ``state()`` / ``load_state()`` — the *feed cursor* — so a
checkpointed fit resumes with the exact RNG/stream position it stopped at.
"""

from __future__ import annotations

import abc
from collections import deque
from collections.abc import Iterator

import numpy as np

from repro.data.sources import SnapshotSource
from repro.nn.ddp import shard_indices
from repro.parallel.comm import Communicator, SerialComm
from repro.parallel.partition import block_partition, stream_partitions, window_counts
from repro.train.data import WindowAssembler, train_test_split

__all__ = ["BatchFeed", "ArrayFeed", "ShuffleBuffer", "StreamFeed", "ShardedFeed"]

Batch = tuple[np.ndarray, np.ndarray]


class ShuffleBuffer:
    """Bounded streaming shuffle (the ``tf.data.Dataset.shuffle`` scheme).

    Holds at most ``capacity`` items: once full, each arriving item evicts
    (and yields) a uniformly random resident, and the buffer drains in random
    order at end of stream.  Memory stays O(capacity) however long the stream
    is, and a stream shorter than ``capacity`` comes out fully shuffled.  The
    draw sequence is a pure function of the generator passed in, so a feed
    that checkpoints its RNG replays the identical shuffle on resume.
    """

    def __init__(self, capacity: int, rng: np.random.Generator) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.rng = rng

    def __call__(self, items: Iterator) -> Iterator:
        buf: list = []
        for item in items:
            if len(buf) < self.capacity:
                buf.append(item)
                continue
            j = int(self.rng.integers(len(buf)))
            out, buf[j] = buf[j], item
            yield out
        while buf:
            j = int(self.rng.integers(len(buf)))
            buf[j], buf[-1] = buf[-1], buf[j]
            yield buf.pop()


def agreed_steps(counts: list[int], batch: int, starved_msg: str) -> int:
    """The per-epoch step count of every DDP rank: the largest of the ranks'
    batch counts, from each rank's training-sample count.  Every rank derives
    it alike, so no collective agrees it.  A rank with no sample fails every
    rank: ``rank(s) [...] have no <starved_msg>``."""
    starved = [r for r, c in enumerate(counts) if c < 1]
    if starved:
        raise ValueError(f"rank(s) {starved} have no {starved_msg}")
    return max(-(-c // batch) for c in counts)


def lock_step(batches: Iterator[Batch], steps: int | None) -> Iterator[Batch]:
    """Yield ``batches``, then replay the last one until ``steps`` have gone,
    so a rank short of :func:`agreed_steps` still joins every gradient
    all-reduce.  ``steps=None`` (serial) passes the batches through."""
    emitted = 0
    last: Batch | None = None
    for last in batches:
        emitted += 1
        yield last
    if steps is not None and last is not None:
        for _ in range(steps - emitted):
            yield last


class BatchFeed(abc.ABC):
    """Delivers minibatches to the loop; owns split, shuffle, and cursor."""

    #: True when :meth:`eval_batches` yields only this rank's shard of the
    #: test set, so the loop must all-reduce the evaluation sums.
    eval_sharded: bool = False

    @abc.abstractmethod
    def train_batches(self, epoch: int) -> Iterator[Batch]:
        """Yield the epoch's training minibatches ``(x, y)`` in order."""

    @abc.abstractmethod
    def eval_batches(self) -> Iterator[Batch]:
        """Yield the test set as minibatches (deterministic order)."""

    @property
    def meta(self) -> dict:
        """Provenance recorded into ``TrainResult.meta['feed']``."""
        return {"kind": type(self).__name__}

    def state(self) -> dict:
        """JSON-serializable feed cursor for checkpoints."""
        return {}

    def load_state(self, state: dict) -> None:
        """Restore a cursor produced by :meth:`state`."""


class ArrayFeed(BatchFeed):
    """Resident-array feed reproducing the classic epoch loop bit-for-bit.

    Splits with :func:`~repro.train.data.train_test_split` at ``rng=seed``,
    shards the training split across DDP ranks, and draws one permutation
    per epoch from ``default_rng(seed + 1)`` — the exact RNG sequence of the
    pre-feed trainer, pinned by the equivalence tests.  Under DDP every rank
    takes the largest shard's batch count per epoch (:func:`agreed_steps`).
    """

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        batch: int = 16,
        test_frac: float = 0.1,
        seed: int = 0,
        comm: Communicator | None = None,
    ) -> None:
        if batch < 1:
            raise ValueError("batch must be >= 1")
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        x_tr, y_tr, x_te, y_te = train_test_split(x, y, test_frac, rng=seed)
        comm = comm or SerialComm()
        self._steps: int | None = None
        if comm.size > 1:
            # DDP: each rank trains on its shard of the training split.
            self._steps = agreed_steps(
                [hi - lo for lo, hi in block_partition(len(x_tr), comm.size)], batch,
                f"training rows ({len(x_tr)} rows / {comm.size} ranks); use fewer "
                "train ranks or more data",
            )
            mine = shard_indices(len(x_tr), comm, seed=seed)
            x_tr, y_tr = x_tr[mine], y_tr[mine]
        self.x_tr, self.y_tr = x_tr, y_tr
        self.x_te, self.y_te = x_te, y_te
        self.batch = batch
        self.seed = seed
        self._rng = np.random.default_rng(seed + 1)
        self._epochs_streamed = 0

    @property
    def n_train(self) -> int:
        return len(self.x_tr)

    @property
    def n_test(self) -> int:
        return len(self.x_te)

    def train_batches(self, epoch: int) -> Iterator[Batch]:
        order = self._rng.permutation(self.x_tr.shape[0])
        chunks = (order[lo : lo + self.batch] for lo in range(0, len(order), self.batch))
        yield from lock_step(((self.x_tr[i], self.y_tr[i]) for i in chunks), self._steps)
        self._epochs_streamed += 1

    def eval_batches(self) -> Iterator[Batch]:
        for lo in range(0, self.x_te.shape[0], self.batch):
            yield self.x_te[lo : lo + self.batch], self.y_te[lo : lo + self.batch]

    @property
    def meta(self) -> dict:
        return {
            "kind": "ArrayFeed",
            "n_train": int(self.n_train),
            "n_test": int(self.n_test),
            "batch": int(self.batch),
        }

    def state(self) -> dict:
        # The permutation generator's exact position: restoring it replays
        # epochs k.. with the same shuffles an uninterrupted fit would draw.
        return {
            "kind": "ArrayFeed",
            "rng": self._rng.bit_generator.state,
            "epochs_streamed": self._epochs_streamed,
        }

    def load_state(self, state: dict) -> None:
        if state.get("kind") != "ArrayFeed":
            raise ValueError(
                f"checkpoint feed cursor is {state.get('kind')!r}, not ArrayFeed"
            )
        self._rng.bit_generator.state = state["rng"]
        self._epochs_streamed = int(state["epochs_streamed"])


class StreamFeed(BatchFeed):
    """Assemble training windows on the fly from a streaming snapshot source.

    Per epoch the source is visited once, in snapshot order; a rolling
    buffer of the last ``window`` per-snapshot records (sensor readings +
    dense target blocks, built by a
    :class:`~repro.train.data.WindowAssembler`) is the only training state —
    nothing proportional to the dataset is ever resident.  Emitted samples
    carry a deterministic global index; a seed-derived permutation marks
    ``test_frac`` of them as the test set (cached after the first pass — the
    test set is subsample-sized, tiny next to the dataset), and the rest
    stream into minibatches in arrival order (online training: the data is
    consumed as it is produced).

    ``shuffle`` inserts a :class:`ShuffleBuffer` of that capacity between
    the window assembler and the batcher, decorrelating online-training
    minibatches from snapshot arrival order without unbounded memory; the
    draws come from ``default_rng([seed + 2, sample_offset])`` (carried in
    the feed cursor) so shuffled fits stay bit-deterministic and resumable.
    The default (``0``) streams in arrival order, byte-identical to
    pre-shuffle fits.

    ``sample_offset`` / ``total_samples`` / ``steps`` support the sharded
    multi-rank flavour (see :class:`ShardedFeed`): they pin the global
    numbering and the per-epoch step count so every DDP rank agrees on test
    membership and takes the same number of optimizer steps.
    """

    def __init__(
        self,
        source: SnapshotSource,
        assembler: WindowAssembler,
        batch: int = 16,
        test_frac: float = 0.1,
        seed: int = 0,
        sample_offset: int = 0,
        total_samples: int | None = None,
        steps: int | None = None,
        shuffle: int = 0,
    ) -> None:
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if shuffle < 0:
            raise ValueError("shuffle must be >= 0 (0 disables the buffer)")
        if not (0.0 < test_frac < 1.0):
            raise ValueError("test_frac must lie in (0, 1)")
        self.source = source
        self.assembler = assembler
        self.batch = batch
        self.test_frac = test_frac
        self.seed = seed
        self.sample_offset = int(sample_offset)
        window = assembler.window
        self.local_windows = max(0, source.n_snapshots - window + 1)
        self.local_samples = self.local_windows * assembler.n_per_window
        self.total_samples = (
            int(total_samples) if total_samples is not None else self.local_samples
        )
        if self.total_samples < 2:
            raise ValueError(
                f"stream feed needs at least 2 window samples to split, got "
                f"{self.total_samples} ({source.n_snapshots} snapshots, "
                f"window {window})"
            )
        # Global test membership mirrors train_test_split's count rule, drawn
        # from the same seed on every rank so the split needs no agreement
        # round: it is a pure function of (seed, total_samples, test_frac).
        n_test = max(1, int(round(self.total_samples * test_frac)))
        perm = np.random.default_rng(seed).permutation(self.total_samples)
        self._test_ids = frozenset(int(i) for i in perm[:n_test])
        self.n_test_global = n_test
        lo, hi = self.sample_offset, self.sample_offset + self.local_samples
        self.n_test_local = sum(1 for g in self._test_ids if lo <= g < hi)
        self.n_train_local = self.local_samples - self.n_test_local
        if self.n_train_local < 1:
            raise ValueError(
                "stream feed has no local training samples (span of "
                f"{source.n_snapshots} snapshots, window {window}); use a "
                "longer span, fewer ranks, or a smaller window"
            )
        self._steps = int(steps) if steps is not None else None
        self.shuffle = int(shuffle)
        # sample_offset is rank-unique under ShardedFeed, so DDP ranks draw
        # decorrelated shuffle streams from the same case seed.
        self._shuffle_rng = np.random.default_rng([seed + 2, self.sample_offset])
        self._test_cache: list[Batch] | None = None
        self._epochs_streamed = 0

    @property
    def spec(self):
        """Model-building geometry (see :class:`~repro.train.data.FeedSpec`)."""
        return self.assembler.spec

    # ---- streaming core ---------------------------------------------------

    def _stream_samples(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(global_index, x, y)`` for every local window sample."""
        window = self.assembler.window
        buf: deque = deque(maxlen=window)
        k = 0
        for i, snap in self.source.iter_snapshots():
            buf.append(self.assembler.read(snap, i))
            if len(buf) == window:
                for x, y in self.assembler.assemble(buf):
                    yield self.sample_offset + k, x, y
                    k += 1

    def _collect_test(self) -> None:
        """One pass caching only the test samples (skipping train work)."""
        samples: list[tuple[np.ndarray, np.ndarray]] = []
        for gid, x, y in self._stream_samples():
            if gid in self._test_ids:
                samples.append((x, y))
        # not checkpoint state: a derived cache, rebuilt deterministically
        # from (seed, stream) on the first eval after resume
        self._test_cache = self._to_batches(samples)  # repro-lint: ignore[RPL008]

    def _to_batches(self, samples: list[tuple[np.ndarray, np.ndarray]]) -> list[Batch]:
        return [
            (
                np.stack([s[0] for s in samples[lo : lo + self.batch]]),
                np.stack([s[1] for s in samples[lo : lo + self.batch]]),
            )
            for lo in range(0, len(samples), self.batch)
        ]

    def train_batches(self, epoch: int) -> Iterator[Batch]:
        yield from lock_step(self._epoch_batches(), self._steps)
        self._epochs_streamed += 1

    def _epoch_batches(self) -> Iterator[Batch]:
        """One pass of the local stream as train batches; the first pass also
        caches the test samples it skips."""
        xs: list[np.ndarray] = []
        ys: list[np.ndarray] = []
        test_acc: list[tuple[np.ndarray, np.ndarray]] | None = (
            [] if self._test_cache is None else None
        )

        def train_samples() -> Iterator[tuple[np.ndarray, np.ndarray]]:
            for gid, x, y in self._stream_samples():
                if gid in self._test_ids:
                    if test_acc is not None:
                        test_acc.append((x, y))
                    continue
                yield x, y

        samples: Iterator[tuple[np.ndarray, np.ndarray]] = train_samples()
        if self.shuffle:
            samples = ShuffleBuffer(self.shuffle, self._shuffle_rng)(samples)
        for x, y in samples:
            xs.append(x)
            ys.append(y)
            if len(xs) == self.batch:
                yield np.stack(xs), np.stack(ys)
                xs, ys = [], []
        if xs:
            yield np.stack(xs), np.stack(ys)
        if test_acc is not None:
            # derived cache (see _collect_test): deterministic rebuild, not state
            self._test_cache = self._to_batches(test_acc)  # repro-lint: ignore[RPL008]

    def eval_batches(self) -> Iterator[Batch]:
        if self._test_cache is None:
            self._collect_test()
        yield from self._test_cache

    @property
    def meta(self) -> dict:
        return {
            "kind": type(self).__name__,
            "source": type(self.source).__name__,
            "window": int(self.assembler.window),
            "horizon": int(self.assembler.horizon),
            "samples": int(self.total_samples),
            "local_samples": int(self.local_samples),
            "n_test": int(self.n_test_global),
            "batch": int(self.batch),
            "steps": self._steps,
            "shuffle": int(self.shuffle),
        }

    def state(self) -> dict:
        # Test membership is a pure function of the seed and the stream; the
        # cursor is the epoch count plus (when shuffling) the exact position
        # of the shuffle generator, so a resumed fit replays the same draws.
        state = {"kind": type(self).__name__, "epochs_streamed": self._epochs_streamed}
        if self.shuffle:
            state["shuffle_rng"] = self._shuffle_rng.bit_generator.state
        return state

    def load_state(self, state: dict) -> None:
        if state.get("kind") != type(self).__name__:
            raise ValueError(
                f"checkpoint feed cursor is {state.get('kind')!r}, "
                f"not {type(self).__name__}"
            )
        self._epochs_streamed = int(state["epochs_streamed"])
        if "shuffle_rng" in state:
            self._shuffle_rng.bit_generator.state = state["shuffle_rng"]


class ShardedFeed(StreamFeed):
    """Per-rank stream feed for DDP training over a partitioned source.

    Built via :meth:`for_rank`: the global snapshot sequence is
    block-partitioned (:func:`~repro.parallel.partition.stream_partitions`),
    rank ``r`` streams windows fully contained in its span (boundary windows
    are dropped, exactly like the subsample partitioning), test membership
    is drawn from the *global* sample numbering — a pure function of
    ``(seed, total samples)``, so every rank of a run agrees on it without
    communication and reruns are bit-deterministic per ``(seed, nranks)``
    (the numbering itself depends on the rank count: boundary windows
    dropped at span joints shift it, so fits with different rank counts
    see different test members) — and the per-epoch step count is the max
    over ranks so no rank truncates and gradient all-reduces stay
    symmetric.  Evaluation is rank-local over the rank's share of the test
    set; the loop all-reduces the sums (``eval_sharded``).
    """

    eval_sharded = True

    @classmethod
    def for_rank(
        cls,
        comm: Communicator,
        rank_source: SnapshotSource,
        assembler: WindowAssembler,
        n_snapshots_total: int,
        batch: int = 16,
        test_frac: float = 0.1,
        seed: int = 0,
        shuffle: int = 0,
    ) -> ShardedFeed:
        """Build this rank's feed; all ranks derive identical global facts.

        ``rank_source`` is the rank's own view of its span (the driver's
        ``PartitionedSource`` or owned-shard source); its length must match
        the rank's partition of ``n_snapshots_total``.
        """
        window = assembler.window
        per_window = assembler.n_per_window
        parts = stream_partitions(n_snapshots_total, comm.size)
        counts = window_counts(n_snapshots_total, comm.size, window, per_window)
        part = parts[comm.rank]
        if rank_source.n_snapshots != part.n:
            raise ValueError(
                f"rank {comm.rank} source has {rank_source.n_snapshots} "
                f"snapshots but its partition spans {part.n}"
            )
        total = sum(counts)
        if total < 2:
            raise ValueError(
                f"{n_snapshots_total} snapshots yield only {total} window "
                f"samples across {comm.size} ranks (window {window})"
            )
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(int)
        # Deterministic global test membership, identical on every rank.
        n_test = max(1, int(round(total * test_frac)))
        perm = np.random.default_rng(seed).permutation(total)
        test_sorted = np.sort(perm[:n_test])
        train_counts = [
            counts[r]
            - int(
                np.searchsorted(test_sorted, offsets[r] + counts[r])
                - np.searchsorted(test_sorted, offsets[r])
            )
            for r in range(comm.size)
        ]
        steps = agreed_steps(
            train_counts, batch,
            f"full training window ({n_snapshots_total} snapshots / {comm.size} "
            f"ranks, window {window}); use fewer train ranks or a smaller window",
        )
        return cls(
            rank_source, assembler, batch=batch, test_frac=test_frac, seed=seed,
            sample_offset=int(offsets[comm.rank]), total_samples=total, steps=steps,
            shuffle=shuffle,
        )
