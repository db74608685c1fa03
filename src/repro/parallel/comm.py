"""Communicator interface, the collectives' result rules, and the serial
implementation.

The sampling pipeline and DDP trainer code exclusively against
:class:`Communicator`; swapping :class:`SerialComm` for
:class:`~repro.parallel.threadcomm.ThreadComm` parallelizes them without code
changes — the same property the paper gets from mpi4py's interface.

The program needs three collectives, ``bcast``, ``gather`` and
``allreduce``, and each is defined once, on :class:`Communicator`: it checks
its arguments, rendezvouses through the backend's
:meth:`Communicator._collective`, whose result :func:`collective_results`
computes, and charges the rank's virtual clock.

Reduction operators are named strings (``"sum"``, ``"max"``, ``"min"``)
applied element-wise to numpy arrays or Python scalars, mirroring
``MPI.SUM`` etc.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.parallel.perfmodel import PerfModel, VirtualClock

__all__ = [
    "Communicator", "SerialComm", "RankFailure", "PeerRankFailed", "REDUCE_OPS",
    "collective_results", "mismatched_collectives", "stranded_collective",
    "payload_nbytes", "reduce_many",
]


class RankFailure(RuntimeError):
    """A rank died mid-computation (raised by an armed fault hook)."""


class PeerRankFailed(RuntimeError):
    """Raised on a rank whose peer failed while it waited in a collective:
    a side effect of that failure, which the run reports instead."""


def _sum(a: Any, b: Any) -> Any:
    return a + b


def _max(a: Any, b: Any) -> Any:
    return np.maximum(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else max(a, b)


def _min(a: Any, b: Any) -> Any:
    return np.minimum(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else min(a, b)


REDUCE_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": _sum,
    "max": _max,
    "min": _min,
}


def reduce_many(values: Sequence[Any], op: str) -> Any:
    """Fold `values` in rank order with the named reduction operator.

    The fold order is part of the determinism contract: every communicator
    backend must combine contributions rank-by-rank exactly like this so
    floating-point results are bitwise identical across backends.
    """
    try:
        fn = REDUCE_OPS[op]
    except KeyError:
        raise ValueError(f"unknown reduce op {op!r}") from None
    acc = values[0]
    if isinstance(acc, np.ndarray):
        acc = acc.copy()
    for v in values[1:]:
        acc = fn(acc, v)
    return acc


def collective_results(
    op: str, root: int | None, reduce_op: str | None, slots: Sequence[Any]
) -> list[Any]:
    """Every rank's result of collective `op`, from the contributions
    `slots` in rank order.  Results may alias the contributions."""
    size = len(slots)
    if op == "bcast":
        return [slots[root]] * size
    if op == "gather":
        return [list(slots) if r == root else None for r in range(size)]
    if op == "allreduce":
        return [reduce_many(slots, reduce_op)] * size
    raise ValueError(f"unknown collective {op!r}")


def mismatched_collectives(calls: Sequence[tuple]) -> RuntimeError | None:
    """The error both backends fail rank 0 with when the ranks' ``(op, root,
    reduce_op)`` in `calls` differ; None when they all agree."""
    kinds = sorted(set(calls))
    return RuntimeError(f"mismatched collectives across ranks: {kinds}") if len(kinds) > 1 else None


def stranded_collective(gone: list[int], waiting: list[int], op: str) -> RuntimeError:
    """The error both backends fail the run with, as rank ``gone[0]``, when
    the ranks `gone` have returned while the ranks `waiting` wait in
    collective `op`, which can then never complete."""
    return RuntimeError(f"rank(s) {gone} exited while rank(s) {waiting} wait in collective {op!r}")


def payload_nbytes(obj: Any) -> int:
    """Approximate wire size of a payload for the performance model."""
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (int, float, complex, bool, np.generic)):
        return 8
    if isinstance(obj, str):
        return len(obj.encode())
    if isinstance(obj, (list, tuple, set)):
        return sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    return 64  # opaque object: flat pickle-overhead estimate


class Communicator(abc.ABC):
    """mpi4py-flavoured communicator: rank, size, and three collectives.

    A backend supplies :meth:`_collective`; a collective that spans more
    than one rank advances the clock to ``max(arrival times) + modeled
    cost``, and a one-rank collective moves nothing and charges nothing.
    """

    #: ``fault_hook(rank, **context) -> bool``; True kills the calling rank
    #: at its next :meth:`maybe_fail` checkpoint
    _fault_hook: Callable[..., bool] | None = None

    @property
    @abc.abstractmethod
    def rank(self) -> int: ...

    @property
    @abc.abstractmethod
    def size(self) -> int: ...

    @property
    @abc.abstractmethod
    def clock(self) -> VirtualClock:
        """This rank's virtual clock (perf-model accounting)."""

    def bcast(self, obj: Any, root: int = 0) -> Any:
        self._check_root(root)
        return self._run("bcast", obj if self.rank == root else None, root, None)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        self._check_root(root)
        return self._run("gather", obj, root, None)

    def allreduce(self, obj: Any, op: str = "sum") -> Any:
        if op not in REDUCE_OPS:
            raise ValueError(f"unknown reduce op {op!r}")
        return self._run("allreduce", obj, None, op)

    def account_compute(self, work: float) -> None:
        """Charge `work` units of local computation to the virtual clock."""
        self.clock.add_compute(work)

    def maybe_fail(self, **context: Any) -> None:
        """Fault-injection checkpoint: die if this rank's fault hook says so.

        Long-running rank loops call this at natural progress boundaries
        (e.g. once per streamed chunk) with whatever `context` describes the
        progress — the hook receives ``(rank, **context)`` and returning
        True raises :class:`RankFailure` on this rank.  No-op without a
        hook, so production paths pay one attribute check; serial runs
        never carry one — there is no peer to survive the failure.
        """
        hook = self._fault_hook
        if hook is not None and hook(self.rank, **context):
            raise RankFailure(f"rank {self.rank} killed by fault hook at {context!r}")

    def _collective(
        self, op: str, contribution: Any, root: int | None, reduce_op: str | None
    ) -> tuple[Any, float]:
        """Rendezvous with every rank: returns this rank's entry of
        :func:`collective_results` and the latest virtual arrival time."""
        raise NotImplementedError

    def _run(self, op: str, contribution: Any, root: int | None, reduce_op: str | None) -> Any:
        result, arrival_max = self._collective(op, contribution, root, reduce_op)
        if self.size > 1:
            # bcast moves the root's payload; the others this rank's own
            nbytes = payload_nbytes(result if op == "bcast" else contribution)
            self.clock.sync_to(arrival_max, op, nbytes, self.size)
        return result

    def _check_root(self, root: int) -> None:
        if not (0 <= root < self.size):
            raise ValueError(f"root {root} out of range for size {self.size}")


class SerialComm(Communicator):
    """Single-rank communicator; collectives are identities.

    Still keeps a virtual clock so serial baselines get consistent
    perf/energy accounting.
    """

    def __init__(self, model: PerfModel | None = None) -> None:
        self._clock = VirtualClock(model=model or PerfModel())

    @property
    def rank(self) -> int:
        return 0

    @property
    def size(self) -> int:
        return 1

    @property
    def clock(self) -> VirtualClock:
        return self._clock

    def _collective(
        self, op: str, contribution: Any, root: int | None, reduce_op: str | None
    ) -> tuple[Any, float]:
        return collective_results(op, root, reduce_op, [contribution])[0], self._clock.t
