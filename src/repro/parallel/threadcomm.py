"""Thread-backed SPMD communicator with correct collective semantics.

Every rank is a real OS thread; a collective rendezvouses through a shared
slot array guarded by two barrier crossings (write → read → release), so
ordering and blocking behaviour match MPI.  Between the crossings rank 0
fails the run if the ranks entered different collectives, as the process
hub does; otherwise each rank takes its result from
:func:`~repro.parallel.comm.collective_results` and copies every array in it
that it did not contribute, matching mpi4py's value semantics — a rank
mutating what it received must not corrupt its peers.

Alongside the real data exchange, every collective advances each rank's
:class:`~repro.parallel.perfmodel.VirtualClock` to
``max(arrival times) + modeled cost``, so speedup measured in virtual time is
meaningful even though the host serializes threads through the GIL.

For fault-tolerance testing a :class:`CommWorld` can carry a *fault hook*:
long-running rank loops call :meth:`~repro.parallel.comm.Communicator.maybe_fail`
at convenient checkpoints, and when the hook fires the rank dies with
:class:`~repro.parallel.comm.RankFailure` — the injected equivalent of a
node loss mid-computation.  Callers that can recover a partial result (e.g.
the partial-stream merge in :mod:`repro.sampling.streaming`) catch it;
everything else propagates it like any rank error.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from typing import Any

import numpy as np

from repro.parallel.comm import (Communicator, PeerRankFailed, collective_results,
                                 mismatched_collectives, stranded_collective)
from repro.parallel.perfmodel import PerfModel, VirtualClock

__all__ = ["ThreadComm", "CommWorld"]


def _private(obj: Any, own: Any) -> Any:
    """`obj` with every array in it copied, except this rank's `own`
    contribution."""
    if obj is own:
        return obj
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, list):
        return [_private(x, own) for x in obj]
    if isinstance(obj, tuple):
        return tuple(_private(x, own) for x in obj)
    if isinstance(obj, dict):
        return {k: _private(v, own) for k, v in obj.items()}
    return obj


class CommWorld:
    """Shared state for one group of thread ranks.  Like the process hub, it
    fails a collective that can never complete at once (:meth:`mark`)."""

    def __init__(
        self,
        size: int,
        model: PerfModel | None = None,
        fault_hook: Callable[..., bool] | None = None,
    ) -> None:
        if size < 1:
            raise ValueError("size must be >= 1")
        self.size = size
        self.model = model or PerfModel()
        self.fault_hook = fault_hook
        self.barrier = threading.Barrier(size)
        self.slots: list[Any] = [None] * size
        self.calls: list[tuple | None] = [None] * size  # each rank's (op, root, reduce_op)
        self.arrivals: list[float] = [0.0] * size
        self._lock = threading.Lock()
        self._waiting: set[int] = set()  # ranks in a collective not all ranks entered
        self._returned: set[int] = set()
        #: the run's first failure, and the rank it is reported as
        self.failure: BaseException | None = None
        self.failure_rank: int | None = None

    def abort(self, rank: int, exc: BaseException) -> None:
        """Fail the run as `rank` with `exc`, unless it failed already, and
        break the barrier so peers unblock."""
        with self._lock:
            if self.failure is None:
                self.failure, self.failure_rank = exc, rank
        self.barrier.abort()

    def mark(self, rank: int, returned: bool = False) -> None:
        """Mark `rank` as entering a collective, or as returned; fail the run
        once ranks wait in a collective that a returned rank never enters."""
        with self._lock:
            (self._returned if returned else self._waiting).add(rank)
            if len(self._waiting) == self.size:
                self._waiting.clear()  # every rank is in: the collective completes
            waiting, gone = sorted(self._waiting), sorted(self._returned)
        if waiting and gone:
            self.abort(gone[0], stranded_collective(gone, waiting, self.calls[waiting[0]][0]))


class ThreadComm(Communicator):
    """One rank's endpoint into a :class:`CommWorld`."""

    #: seconds a rank waits at a rendezvous before concluding a peer died
    TIMEOUT = 120.0

    def __init__(self, world: CommWorld, rank: int) -> None:
        if not (0 <= rank < world.size):
            raise ValueError(f"rank {rank} out of range for size {world.size}")
        self._world = world
        self._rank = rank
        self._clock = VirtualClock(model=world.model)
        self._fault_hook = world.fault_hook

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._world.size

    @property
    def clock(self) -> VirtualClock:
        return self._clock

    def _wait(self) -> None:
        try:
            self._world.barrier.wait(timeout=self.TIMEOUT)
        except threading.BrokenBarrierError:
            if self._world.failure is not None:
                raise PeerRankFailed(
                    f"peer rank failed: {self._world.failure!r}"
                ) from self._world.failure
            raise

    def _collective(
        self, op: str, contribution: Any, root: int | None, reduce_op: str | None
    ) -> tuple[Any, float]:
        w = self._world
        w.slots[self._rank] = contribution
        w.calls[self._rank] = (op, root, reduce_op)
        w.arrivals[self._rank] = self._clock.t
        w.mark(self._rank)
        self._wait()
        mismatch = mismatched_collectives(w.calls)
        if mismatch is not None:
            if self._rank == 0:
                raise mismatch
            self._wait()  # broken by rank 0's failure: raises PeerRankFailed
        # Read the slots before the second crossing: after it, peers may
        # refill them or mutate what they contributed.
        result = collective_results(op, root, reduce_op, w.slots)[self._rank]
        result = _private(result, contribution)
        arrival_max = max(w.arrivals)
        self._wait()
        return result, arrival_max
