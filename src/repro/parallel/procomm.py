"""Real-process SPMD communicator with a shared-memory fast path.

:class:`ThreadComm` gives correct collective semantics but runs every rank
under one GIL, so its speedups exist only in virtual time.  This module backs
the same :class:`~repro.parallel.comm.Communicator` contract with
``multiprocessing`` workers so the identical stream/owned-shard/DDP code paths
run with true parallelism.

Topology is hub-and-spoke: the parent process is the switchboard.  Each rank
is a forked worker holding one duplex pipe to the parent; the parent runs an
event loop (:class:`_Hub`) that assembles collectives, takes their results
from :func:`~repro.parallel.comm.collective_results`, and watches process
sentinels so a dead worker aborts its peers instead of deadlocking them.

Transport is pickle protocol 5 with out-of-band buffers.  Each rank has two
persistent :class:`multiprocessing.shared_memory.SharedMemory` arenas for the
whole run: *up* carries its collective payloads to the hub, *down* carries
the hub's results back.  Any contiguous buffer of at least
:data:`SHM_THRESHOLD` bytes is copied into the sender's arena and travels as
an (offset, size) span; the pickle stream itself goes through the pipe.  The
parent creates every arena before it forks, so ranks inherit the mappings
and the parent's resource tracker, and it unlinks all of them when the run
ends, however it ends.  A rank whose payload outgrows its up arena sends it
in-band and the hub answers with a replacement at least twice as large; the
hub replaces a down arena before writing a result that would not fit, and
the rank attaches each replacement by name.  Every rank has at most one
collective in flight, so an arena only ever holds the message being read:
the hub folds contributions from zero-copy views and writes every rank's
result before replying to any, and ranks copy results out (value semantics
— mutating a received array never corrupts a peer or the next receive).

Determinism contract: collectives complete in rank order with the result
rules and reduction fold of every other backend
(:func:`~repro.parallel.comm.collective_results`), and each worker's
:class:`~repro.parallel.perfmodel.VirtualClock` is charged by the same
:class:`~repro.parallel.comm.Communicator` code as :class:`ThreadComm`'s, so
results *and* virtual clocks are bitwise identical across
``backend="thread"`` and ``backend="process"`` for the same (seed, nranks).

Requires a platform with the ``fork`` start method (Linux): rank functions
are arbitrary closures, which survive fork but do not pickle.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import selectors
import time
import traceback
from multiprocessing import connection, get_context, shared_memory
from collections.abc import Callable
from typing import Any

from repro.parallel.comm import (Communicator, PeerRankFailed, collective_results,
                                 mismatched_collectives, stranded_collective)
from repro.parallel.perfmodel import PerfModel, VirtualClock

__all__ = ["ProcessComm", "ProcessCommWorld", "run_process_spmd", "SHM_THRESHOLD"]

#: payload buffers at or above this many bytes ride the arenas, smaller ones
#: the pipe: the measured crossover, from which a 2-rank allreduce through
#: the arenas beats the same allreduce in-band
SHM_THRESHOLD = 8 * 1024

#: first size of every arena in bytes; replacements double it until they fit
_ARENA_BYTES = 1 << 20

#: buffer offsets inside an arena are multiples of this (one cache line)
_ALIGN = 64

#: seconds a failed run's straggling rank gets after the abort before
#: SIGTERM, and after SIGTERM before SIGKILL
_TEARDOWN_GRACE = 0.5


def _proc_timeout_from_env() -> float | None:
    raw = os.environ.get("REPRO_PROC_TIMEOUT", "").strip()
    if not raw:
        return None
    value = float(raw)
    return value if value > 0 else None


# --------------------------------------------------------------------------
# Encoding: pickle-5 with large buffers copied into a shared-memory arena
# --------------------------------------------------------------------------

Spans = list[tuple[int, int]]


def _encode(obj: Any, arena: shared_memory.SharedMemory) -> tuple[bytes, Spans, int]:
    """Pickle `obj`, copying its buffers of :data:`SHM_THRESHOLD` bytes or
    more into `arena`.

    Returns ``(pickle_bytes, spans, 0)`` with one ``(offset, size)`` span per
    copied buffer, or ``(pickle_bytes, [], need)`` with `arena` untouched when
    those buffers need a `need`-byte arena.
    """
    big: list[memoryview] = []

    def in_band(pb: pickle.PickleBuffer) -> bool:
        try:
            raw = pb.raw()
        except BufferError:  # non-contiguous: let pickle serialize it in-band
            return True
        if raw.nbytes < SHM_THRESHOLD:
            return True
        big.append(raw)
        return False

    data = pickle.dumps(obj, protocol=5, buffer_callback=in_band)
    spans: Spans = []
    end = 0
    for raw in big:
        offset = -(-end // _ALIGN) * _ALIGN
        spans.append((offset, raw.nbytes))
        end = offset + raw.nbytes
    if end > arena.size:
        return data, [], end
    buf = arena.buf
    for (offset, size), raw in zip(spans, big):
        buf[offset : offset + size] = raw
    return data, spans, 0


def _decode(data: bytes, spans: Spans, arena: shared_memory.SharedMemory, copy: bool) -> Any:
    """Rebuild an :func:`_encode`\\ d object.  With `copy` its arrays own
    private buffers; without, they are views that die with the next message."""
    buf = arena.buf
    views = [buf[offset : offset + size] for offset, size in spans]
    return pickle.loads(data, buffers=[bytearray(v) for v in views] if copy else views)


def _release(arena: shared_memory.SharedMemory) -> None:
    """Unlink a parent-owned arena and drop this process's mapping of it."""
    arena.unlink()
    # An exception escaping the hub may still hold views into the mapping;
    # the mapping is freed with them, and the name is gone either way.
    with contextlib.suppress(BufferError):
        arena.close()


def _remap(arena: shared_memory.SharedMemory, name: str) -> shared_memory.SharedMemory:
    """`arena`, or the replacement `name` the hub mapped in its place."""
    if arena.name == name:
        return arena
    replacement = shared_memory.SharedMemory(name=name)
    arena.close()
    return replacement


class _Arenas:
    """Every arena of one run; the parent creates, replaces and unlinks them.

    ``up[r]`` carries rank r's payloads to the hub and ``down[r]`` the hub's
    results back.  Creating the first generation before the fork also starts
    the parent's resource tracker, which the ranks then share.
    """

    def __init__(self, nranks: int) -> None:
        self.up: list[shared_memory.SharedMemory] = []
        self.down: list[shared_memory.SharedMemory] = []
        try:
            for lane in (self.up, self.down):
                for _ in range(nranks):
                    lane.append(shared_memory.SharedMemory(create=True, size=_ARENA_BYTES))
        except BaseException:
            self.release()
            raise

    def grow(self, lane: list[shared_memory.SharedMemory], rank: int, need: int) -> None:
        """Replace ``lane[rank]`` with an arena of at least `need` bytes."""
        size = lane[rank].size
        while size < need:
            size *= 2
        old = lane[rank]
        lane[rank] = shared_memory.SharedMemory(create=True, size=size)
        _release(old)

    def release(self) -> None:
        for arena in self.up + self.down:
            _release(arena)


def _pickle_exception(rank: int, exc: BaseException) -> bytes:
    try:
        return pickle.dumps(exc)
    except Exception:  # exotic unpicklable exception: degrade to its repr
        return pickle.dumps(RuntimeError(f"rank {rank}: {type(exc).__name__}: {exc}"))


# --------------------------------------------------------------------------
# World + worker endpoint
# --------------------------------------------------------------------------


class ProcessCommWorld:
    """Configuration shared (via fork) between the hub and all rank workers."""

    def __init__(
        self,
        size: int,
        model: PerfModel | None = None,
        fault_hook: Callable[..., bool] | None = None,
        timeout: float | None = None,
    ) -> None:
        if size < 1:
            raise ValueError("size must be >= 1")
        self.size = size
        self.model = model or PerfModel()
        self.fault_hook = fault_hook
        #: seconds a worker blocks on the hub before raising; None = forever
        #: (determinism runs).  ``REPRO_PROC_TIMEOUT`` arms it globally (CI).
        self.timeout = timeout if timeout is not None else _proc_timeout_from_env()


class ProcessComm(Communicator):
    """One forked rank's endpoint; all traffic goes through the parent hub."""

    def __init__(
        self,
        world: ProcessCommWorld,
        rank: int,
        conn: connection.Connection,
        up: shared_memory.SharedMemory,
        down: shared_memory.SharedMemory,
    ) -> None:
        if not (0 <= rank < world.size):
            raise ValueError(f"rank {rank} out of range for size {world.size}")
        self._world = world
        self._rank = rank
        self._conn = conn
        self._up = up
        self._down = down
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

    def _await_reply(self, op_desc: str) -> tuple[Any, ...]:
        """Block until the hub replies, for at most the world's timeout."""
        timeout = self._world.timeout
        if timeout is not None and not self._conn.poll(timeout):
            raise RuntimeError(
                f"rank {self._rank}: {op_desc} timed out after {timeout}s "
                "waiting on peers (dead or deadlocked worker?)"
            )
        try:
            msg = self._conn.recv()
        except (EOFError, OSError):
            raise RuntimeError(
                f"rank {self._rank}: SPMD hub closed the channel during {op_desc}"
            ) from None
        if msg[0] == "abort":
            raise PeerRankFailed(f"peer rank failed: {msg[1]}")
        return msg

    def _to_hub(self, obj: Any) -> tuple[bytes, Spans, int]:
        """:func:`_encode` into the up arena; a payload that outgrows it goes
        in-band, and the nonzero `need` asks the hub for a bigger arena."""
        data, spans, need = _encode(obj, self._up)
        if need:
            data = pickle.dumps(obj, protocol=5)
        return data, spans, need

    def _collective(
        self, op: str, contribution: Any, root: int | None, reduce_op: str | None
    ) -> tuple[Any, float]:
        data, spans, need = self._to_hub(contribution)
        self._conn.send(("coll", op, root, reduce_op, data, spans, need, self._clock.t))
        _, data, spans, arrival_max, up, down = self._await_reply(op)
        self._up = _remap(self._up, up)
        self._down = _remap(self._down, down)
        return _decode(data, spans, self._down, copy=True), arrival_max


def _worker_main(
    world: ProcessCommWorld,
    rank: int,
    parent_conns: list[connection.Connection],
    child_conns: list[connection.Connection],
    arenas: _Arenas,
    fn: Callable[..., Any],
    args: tuple,
    kwargs: dict,
) -> None:
    # Fork duplicates every pipe end; keep only this rank's child end so fd
    # hygiene (and EOF behaviour) stays sane.
    for i, (p, c) in enumerate(zip(parent_conns, child_conns)):
        p.close()
        if i != rank:
            c.close()
    conn = child_conns[rank]
    comm = ProcessComm(world, rank, conn, arenas.up[rank], arenas.down[rank])
    try:
        value = fn(comm, *args, **kwargs)
        data, spans, _ = comm._to_hub(value)
        conn.send(("done", data, spans, pickle.dumps(comm.clock, protocol=5)))
    except BaseException as exc:  # any failure must reach the hub
        try:
            conn.send(("error", _pickle_exception(rank, exc)))
        except OSError:
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


# --------------------------------------------------------------------------
# Hub: the parent-side switchboard
# --------------------------------------------------------------------------


class _Hub:
    """Parent event loop: collective assembly and death watch."""

    def __init__(
        self,
        world: ProcessCommWorld,
        procs: list[Any],
        conns: list[connection.Connection],
        arenas: _Arenas,
    ) -> None:
        self.world = world
        self.procs = procs
        self.conns = conns
        self.arenas = arenas
        size = world.size
        self.values: list[Any] = [None] * size
        self.clocks: list[VirtualClock] = [VirtualClock(model=world.model) for _ in range(size)]
        self.failure: BaseException | None = None
        self.failure_rank: int | None = None
        self._pending: dict[int, tuple[str, int | None, str | None, bytes, Spans, float]] = {}
        self._alive: set[int] = set(range(size))
        self._finished: set[int] = set()
        self._abort_deadline: float | None = None

    # Failure handling ------------------------------------------------------

    def _fail(self, rank: int, exc: BaseException) -> None:
        """Record the originating failure and unblock every other worker."""
        if self.failure is not None:
            return
        self.failure = exc
        self.failure_rank = rank
        self._abort_deadline = time.monotonic() + _TEARDOWN_GRACE
        for r in self._alive:
            if r == rank or r in self._finished:
                continue
            try:
                self.conns[r].send(("abort", repr(exc)))
            except (OSError, BrokenPipeError):
                pass

    # Message handling ------------------------------------------------------

    def _handle(self, rank: int, msg: tuple) -> None:
        kind = msg[0]
        if kind == "done":
            _, data, spans, clock_blob = msg
            if self.failure is None:
                self.values[rank] = _decode(data, spans, self.arenas.up[rank], copy=True)
                self.clocks[rank] = pickle.loads(clock_blob)
            self._finished.add(rank)
            self._check_stranded_collective()
            return
        if kind == "error":
            exc = pickle.loads(msg[1])
            if not self._is_secondary(exc):
                self._fail(rank, exc)
            self._finished.add(rank)
            return
        if self.failure is not None:
            return  # the run is going down; its payloads die with the arenas
        if kind != "coll":
            raise AssertionError(f"unknown hub message {kind!r} from rank {rank}")
        _, op, root, reduce_op, data, spans, need, t = msg
        if need:
            self.arenas.grow(self.arenas.up, rank, need)
        self._pending[rank] = (op, root, reduce_op, data, spans, t)
        if len(self._pending) == self.world.size:
            self._complete_collective()
        else:
            self._check_stranded_collective()

    @staticmethod
    def _is_secondary(exc: BaseException) -> bool:
        """Peers dying from an abort must not mask the originating failure."""
        return isinstance(exc, PeerRankFailed)

    def _reply(self, rank: int, msg: tuple) -> None:
        try:
            self.conns[rank].send(msg)
        except (OSError, BrokenPipeError):
            pass

    def _check_stranded_collective(self) -> None:
        """A collective some ranks entered can never finish once another rank
        has exited — fail fast instead of letting the waiters time out."""
        if not self._pending or self.failure is not None:
            return
        possible = self._pending.keys() | (self._alive - self._finished)
        if len(possible) < self.world.size:
            waiting = sorted(self._pending)
            gone = sorted(set(range(self.world.size)) - possible)
            op = next(iter(self._pending.values()))[0]
            self._fail(gone[0], stranded_collective(gone, waiting, op))

    # Collective completion -------------------------------------------------

    def _complete_collective(self) -> None:
        size = self.world.size
        entries = [self._pending[r] for r in range(size)]
        self._pending.clear()
        mismatch = mismatched_collectives([entry[:3] for entry in entries])
        if mismatch is not None:
            self._fail(0, mismatch)
            return
        op, root, reduce_op = entries[0][:3]
        try:
            # from zero-copy views of the payloads in the up arenas
            results = collective_results(op, root, reduce_op, [
                _decode(data, spans, self.arenas.up[r], copy=False)
                for r, (_, _, _, data, spans, _) in enumerate(entries)
            ])
        except Exception as exc:
            # Its frames hold views into the up arenas; the failure outlives them.
            traceback.clear_frames(exc.__traceback__)
            self._fail(root if root is not None else 0, exc)
            return
        arrival_max = max(entry[-1] for entry in entries)
        up, down = self.arenas.up, self.arenas.down
        replies = []
        for r in range(size):
            data, spans, need = _encode(results[r], down[r])
            if need:
                self.arenas.grow(down, r, need)
                data, spans, _ = _encode(results[r], down[r])
            replies.append(("coll", data, spans, arrival_max, up[r].name, down[r].name))
        # Every result is in a down arena now, so ranks may refill their up arenas.
        for r in range(size):
            self._reply(r, replies[r])

    # Event loop ------------------------------------------------------------

    def run(self) -> None:
        with selectors.DefaultSelector() as sel:
            for r in self._alive:
                sel.register(self.conns[r], selectors.EVENT_READ, r)
                sel.register(self.procs[r].sentinel, selectors.EVENT_READ, r)
            while self._alive:
                timeout = None
                if self._abort_deadline is not None:
                    timeout = self._abort_deadline - time.monotonic()
                    if timeout <= 0:
                        break  # stragglers ignored the abort; the launcher stops them
                for key, _ in sel.select(timeout):
                    r = key.data
                    if key.fileobj is self.conns[r]:
                        if not self._recv(r):
                            sel.unregister(key.fileobj)  # EOF: the rank is exiting
                    elif not self.procs[r].is_alive():
                        sel.unregister(key.fileobj)
                        self._exited(r)

    def _exited(self, rank: int) -> None:
        while self.conns[rank].poll(0) and self._recv(rank):
            pass  # handle messages buffered before the exit
        self._alive.discard(rank)
        if rank not in self._finished and self.failure is None:
            code = self.procs[rank].exitcode
            self._fail(
                rank,
                RuntimeError(
                    f"worker process for rank {rank} died unexpectedly (exitcode {code})"
                ),
            )
            self._finished.add(rank)
        self._check_stranded_collective()

    def _recv(self, rank: int) -> bool:
        """Handle one message from `rank`; False once its channel is closed."""
        try:
            msg = self.conns[rank].recv()
        except (EOFError, OSError):
            return False
        self._handle(rank, msg)
        return True


# --------------------------------------------------------------------------
# Launcher
# --------------------------------------------------------------------------


def _stop(procs: list[Any]) -> None:
    """Reap every rank, sending stragglers SIGTERM and, a grace later, SIGKILL."""
    for signal_rank in ("terminate", "kill"):
        alive = [p for p in procs if p.is_alive()]
        for p in alive:
            getattr(p, signal_rank)()
        deadline = time.monotonic() + _TEARDOWN_GRACE
        for p in alive:
            p.join(timeout=max(0.0, deadline - time.monotonic()))


def run_process_spmd(
    fn: Callable[..., Any],
    nranks: int,
    args: tuple,
    kwargs: dict,
    *,
    model: PerfModel | None = None,
    fault_hook: Callable[..., bool] | None = None,
    timeout: float | None = None,
) -> tuple[list[Any], list[VirtualClock]]:
    """Run ``fn(comm, *args, **kwargs)`` on `nranks` forked processes.

    Returns ``(values, clocks)`` in rank order, or raises
    ``RuntimeError("rank N failed")`` chained from the originating exception —
    the exact contract of the thread backend.  Used via
    :func:`repro.parallel.spmd.run_spmd` with ``backend="process"``.
    """
    try:
        ctx = get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        raise RuntimeError(
            "backend='process' needs the fork start method (POSIX only); "
            "use backend='thread' on this platform"
        ) from None
    world = ProcessCommWorld(nranks, model=model, fault_hook=fault_hook, timeout=timeout)
    arenas = _Arenas(nranks)
    procs: list[Any] = []
    parent_conns: list[connection.Connection] = []
    try:
        pipes = [ctx.Pipe(duplex=True) for _ in range(nranks)]
        parent_conns = [p for p, _ in pipes]
        child_conns = [c for _, c in pipes]
        for rank in range(nranks):
            procs.append(ctx.Process(
                target=_worker_main,
                args=(world, rank, parent_conns, child_conns, arenas, fn, args, kwargs),
                name=f"spmd-rank-{rank}",
                daemon=True,
            ))
        for p in procs:
            p.start()
        for c in child_conns:
            c.close()
        hub = _Hub(world, procs, parent_conns, arenas)
        hub.run()
    finally:
        _stop(procs)
        for c in parent_conns:
            try:
                c.close()
            except OSError:
                pass
        for p in procs:
            p.close()
        arenas.release()

    if hub.failure is not None:
        raise RuntimeError(f"rank {hub.failure_rank} failed") from hub.failure
    return hub.values, hub.clocks
