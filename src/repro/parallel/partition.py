"""Block decomposition helpers for distributing work across ranks.

The subsampling pipeline distributes hypercubes (and within phase 2, points)
across MPI ranks with a contiguous block partition, the same layout mpi4py
codes typically use with ``Scatterv``.

:class:`Partition` / :func:`stream_partitions` are the multi-producer
streaming layer on top of the same block math: they assign each SPMD rank a
contiguous span of the snapshot sequence (rank ``r`` streams snapshots
``[lo, hi)``) and carry the bookkeeping the weighted reservoir merge needs
(each rank's share of the stream, so per-rank samples can be recombined in
proportion to what each producer actually saw).

:class:`ProducerReport` is the partial-stream extension of that
bookkeeping: what one producer *actually delivered* from its span — covered
snapshots, delivered row count / stream mass, and whether it died mid-span
— so rank 0 can reweight the merge by delivered (not nominal) mass when a
producer fails.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "block_partition",
    "block_bounds",
    "owner_of",
    "partition_list",
    "Partition",
    "stream_partitions",
    "window_counts",
    "ProducerReport",
]


@dataclass(frozen=True)
class Partition:
    """One rank's contiguous span ``[lo, hi)`` of an ``n``-item sequence."""

    rank: int
    size: int
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (0 <= self.rank < self.size):
            raise ValueError(f"rank {self.rank} out of range for size {self.size}")
        if not (0 <= self.lo <= self.hi):
            raise ValueError(f"invalid span [{self.lo}, {self.hi})")

    @property
    def n(self) -> int:
        """Items owned by this rank (may be 0 when ranks > items)."""
        return self.hi - self.lo

    @property
    def empty(self) -> bool:
        return self.hi == self.lo

    def indices(self) -> range:
        """The global indices this rank owns, in streaming order."""
        return range(self.lo, self.hi)

    def __contains__(self, index: int) -> bool:
        return self.lo <= index < self.hi


def stream_partitions(n: int, size: int) -> list[Partition]:
    """Assign ``range(n)`` to `size` stream producers as contiguous spans.

    Block sizes differ by at most one (same layout as
    :func:`block_partition`); when ``size > n`` the trailing ranks receive
    empty spans — their samplers simply see no data and contribute zero
    weight to the merge.
    """
    return [
        Partition(rank=r, size=size, lo=lo, hi=hi)
        for r, (lo, hi) in enumerate(block_partition(n, size))
    ]


def window_counts(n: int, size: int, window: int, per_window: int = 1) -> list[int]:
    """Per-rank counts of full length-`window` windows inside each span.

    The bookkeeping sharded training feeds need: rank ``r`` owns the windows
    fully contained in its :func:`stream_partitions` span (boundary windows
    are dropped, mirroring the subsample partitioning), each yielding
    ``per_window`` samples.  Every rank computes the same list, so offsets
    into the global sample numbering need no communication.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if per_window < 1:
        raise ValueError("per_window must be >= 1")
    return [
        max(0, part.n - window + 1) * per_window
        for part in stream_partitions(n, size)
    ]


@dataclass
class ProducerReport:
    """What one stream producer delivered from its :class:`Partition` span.

    ``snapshots_done`` counts span snapshots the producer *fully* streamed
    (a mid-snapshot death leaves its partial rows in ``n_seen`` but not in
    ``snapshots_done``); ``stream_mass`` is the delivered mass the merge
    should weight this producer by (defaults to its delivered row count).
    A failed producer reports ``failed=True`` with the error message — its
    partial state still merges under the ``"reweight"`` policy.
    """

    partition: Partition
    snapshots_done: int = 0
    n_seen: int = 0
    stream_mass: float = 0.0
    failed: bool = False
    error: str | None = None

    def __post_init__(self) -> None:
        if not (0 <= self.snapshots_done <= self.partition.n):
            raise ValueError(
                f"snapshots_done {self.snapshots_done} outside span of "
                f"{self.partition.n} snapshots"
            )

    @property
    def rank(self) -> int:
        return self.partition.rank

    @property
    def covered(self) -> tuple[int, int]:
        """Global ``[lo, hi)`` span of fully delivered snapshots."""
        return (self.partition.lo, self.partition.lo + self.snapshots_done)

    @property
    def complete(self) -> bool:
        """Did this producer stream its whole span?"""
        return not self.failed and self.snapshots_done == self.partition.n

    def to_meta(self) -> dict:
        """JSON-serializable summary for result metadata."""
        return {
            "rank": self.rank,
            "span": [self.partition.lo, self.partition.hi],
            "covered": list(self.covered),
            "snapshots_done": self.snapshots_done,
            "n_seen": self.n_seen,
            "stream_mass": self.stream_mass,
            "failed": self.failed,
            "error": self.error,
        }


def block_bounds(n: int, size: int, rank: int) -> tuple[int, int]:
    """Half-open ``[lo, hi)`` bounds of rank's block of ``range(n)``.

    The first ``n % size`` ranks receive one extra element, so block sizes
    differ by at most one (load balance within 1 item).
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if not (0 <= rank < size):
        raise ValueError(f"rank {rank} out of range for size {size}")
    if n < 0:
        raise ValueError("n must be non-negative")
    base, extra = divmod(n, size)
    lo = rank * base + min(rank, extra)
    hi = lo + base + (1 if rank < extra else 0)
    return lo, hi


def block_partition(n: int, size: int) -> list[tuple[int, int]]:
    """All ranks' ``[lo, hi)`` bounds for ``range(n)``."""
    return [block_bounds(n, size, r) for r in range(size)]


def owner_of(index: int, n: int, size: int) -> int:
    """Rank owning element `index` under the block partition of ``range(n)``."""
    if not (0 <= index < n):
        raise ValueError(f"index {index} out of range(n={n})")
    base, extra = divmod(n, size)
    boundary = extra * (base + 1)
    if index < boundary:
        return index // (base + 1)
    if base == 0:
        raise AssertionError("unreachable: index beyond populated ranks")
    return extra + (index - boundary) // base


def partition_list(items: list, size: int) -> list[list]:
    """Split a list into `size` contiguous blocks (sizes differ by <= 1)."""
    return [items[lo:hi] for lo, hi in block_partition(len(items), size)]
