"""SPMD launcher: run ``fn(comm, *args)`` across N ranks.

The equivalent of ``mpiexec -n N python script.py``: every rank executes the
same function against its own communicator endpoint.  Two backends share the
contract:

* ``backend="thread"`` — ranks are OS threads over a
  :class:`~repro.parallel.threadcomm.ThreadComm`; deterministic virtual-time
  modeling under the GIL (the default).
* ``backend="process"`` — ranks are forked processes over a
  :class:`~repro.parallel.procomm.ProcessComm` with shared-memory payload
  transport; real wall-clock parallelism, bitwise-identical results and
  virtual clocks.

Exceptions on any rank abort the peers so they fail fast instead of
deadlocking, and so does a rank that returns while a peer waits in a
collective (or before a peer enters one, which can then never complete);
the originating failure is re-raised in the caller as
``RuntimeError("rank N failed")`` chained from the original exception.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from typing import Any

from repro.parallel.comm import SerialComm
from repro.parallel.perfmodel import PerfModel, VirtualClock
from repro.parallel.threadcomm import CommWorld, ThreadComm

__all__ = ["run_spmd", "SpmdResult", "SPMD_BACKENDS"]

#: communicator backends accepted by :func:`run_spmd`
SPMD_BACKENDS = ("thread", "process")


class SpmdResult:
    """Per-rank return values and virtual clocks from an SPMD run."""

    def __init__(self, values: list[Any], clocks: list[VirtualClock]) -> None:
        self.values = values
        self.clocks = clocks

    @property
    def virtual_time(self) -> float:
        """Virtual makespan: the slowest rank's completion time."""
        return max((c.t for c in self.clocks), default=0.0)

    def __getitem__(self, rank: int) -> Any:
        return self.values[rank]

    def __len__(self) -> int:
        return len(self.values)


def run_spmd(
    fn: Callable[..., Any],
    nranks: int,
    *args: Any,
    model: PerfModel | None = None,
    fault_hook: Callable[..., bool] | None = None,
    backend: str = "thread",
    timeout: float | None = None,
    **kwargs: Any,
) -> SpmdResult:
    """Run ``fn(comm, *args, **kwargs)`` on `nranks` ranks; gather results.

    For ``nranks == 1`` the function runs inline on a :class:`SerialComm`
    regardless of backend (easier debugging, no launch overhead).

    ``fault_hook(rank, **context) -> bool`` arms fault injection: ranks that
    call :meth:`~repro.parallel.comm.Communicator.maybe_fail` die with
    :class:`~repro.parallel.comm.RankFailure` when the hook returns
    True.  Serial runs ignore the hook — a single producer has no peers to
    survive it.

    ``timeout`` (process backend only) bounds every blocking wait inside a
    worker so a dead or wedged peer raises instead of deadlocking the pool;
    ``None`` (the default) blocks forever, which is what determinism runs
    want.  The ``REPRO_PROC_TIMEOUT`` env var arms it globally (used in CI).
    """
    if nranks < 1:
        raise ValueError("nranks must be >= 1")
    if backend not in SPMD_BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {SPMD_BACKENDS}")
    if nranks == 1:
        comm = SerialComm(model=model)
        value = fn(comm, *args, **kwargs)
        return SpmdResult([value], [comm.clock])

    if backend == "process":
        from repro.parallel.procomm import run_process_spmd

        values, clocks = run_process_spmd(
            fn, nranks, args, kwargs, model=model, fault_hook=fault_hook, timeout=timeout
        )
        return SpmdResult(values, clocks)

    world = CommWorld(nranks, model=model, fault_hook=fault_hook)
    values: list[Any] = [None] * nranks
    clocks: list[VirtualClock] = [VirtualClock(model=world.model)] * nranks

    def _target(rank: int) -> None:
        comm = ThreadComm(world, rank)
        clocks[rank] = comm.clock
        try:
            values[rank] = fn(comm, *args, **kwargs)
        except BaseException as exc:  # must unblock peers on any failure
            world.abort(rank, exc)
        else:
            world.mark(rank, returned=True)

    threads = [
        threading.Thread(target=_target, args=(rank,), name=f"spmd-rank-{rank}", daemon=True)
        for rank in range(nranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    # The world's first failure is the run's; its peers are secondary casualties.
    if world.failure is not None:
        raise RuntimeError(f"rank {world.failure_rank} failed") from world.failure
    return SpmdResult(values, clocks)
