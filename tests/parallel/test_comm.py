"""Collective-semantics tests for the simulated MPI runtime.

Every collective (``bcast``, ``gather``, ``allreduce``) is exercised on the
serial communicator and — through one shared parameterization — on both
SPMD substrates: the threaded backend
(2-8 ranks so real interleavings occur) and the forked-process backend
(shared-memory transport).  The same programs must produce the same values,
clocks, and failure surfaces on either, which is the backend-conformance
contract ``run_spmd(backend=...)`` promises.
"""

import sys
import time

import numpy as np
import pytest

from repro.parallel import PeerRankFailed, SerialComm, run_spmd
from repro.parallel.comm import payload_nbytes
from repro.parallel.threadcomm import ThreadComm

# (backend, nranks) grid shared by every conformance class below.  The
# process backend uses smaller rank counts: each case forks real workers.
BACKEND_RANKS = [
    ("thread", 2),
    ("thread", 4),
    ("thread", 7),
    ("process", 2),
    ("process", 3),
]

BACKENDS = ["thread", "process"]


class TestSerialComm:
    def test_identity_collectives(self):
        comm = SerialComm()
        assert comm.rank == 0 and comm.size == 1
        assert comm.bcast(42) == 42
        assert comm.gather("x") == ["x"]
        assert comm.allreduce(5) == 5
        # a one-rank collective moves nothing and charges nothing
        assert comm.clock.t == 0.0
        assert (comm.clock.stats.collectives, comm.clock.stats.bytes_sent) == (0, 0)

    def test_bad_root_rejected(self):
        with pytest.raises(ValueError, match="root 1 out of range"):
            SerialComm().gather("x", root=1)

    def test_reduce_ops(self):
        comm = SerialComm()
        assert comm.allreduce(np.array([1.0, 2.0]), op="max").tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            comm.allreduce(1, op="bogus")


@pytest.mark.parametrize("backend,nranks", BACKEND_RANKS)
class TestCollectives:
    def test_bcast(self, backend, nranks):
        def prog(comm):
            data = np.arange(5) * 10 if comm.rank == 2 % comm.size else None
            return comm.bcast(data, root=2 % comm.size)

        res = run_spmd(prog, nranks, backend=backend)
        for v in res.values:
            assert np.array_equal(v, np.arange(5) * 10)

    def test_bcast_receivers_get_copies(self, backend, nranks):
        def prog(comm):
            data = np.zeros(3) if comm.rank == 0 else None
            out = comm.bcast(data, root=0)
            if comm.rank == 1:
                out += 99  # must not corrupt peers
            comm.bcast(None)  # the root reads only after rank 1 wrote
            return float(out.sum())

        res = run_spmd(prog, nranks, backend=backend)
        assert res.values[0] == 0.0

    def test_gather_to_root(self, backend, nranks):
        def prog(comm):
            gathered = comm.gather(np.full(2, comm.rank) * 2, root=1)
            if comm.rank == 1:
                return [g.tolist() for g in gathered]
            assert gathered is None
            return None

        res = run_spmd(prog, nranks, backend=backend)
        assert res.values[1] == [[2 * r, 2 * r] for r in range(nranks)]

    def test_gathered_arrays_are_private(self, backend, nranks):
        def prog(comm):
            mine = np.full(3, float(comm.rank))
            gathered = comm.gather(mine, root=0)
            if comm.rank == 0:
                for g in gathered:
                    g += 100.0  # must not corrupt the peers' arrays
            comm.bcast(None)  # peers read only after the root wrote
            return float(mine[0])

        res = run_spmd(prog, nranks, backend=backend)
        assert res.values[1:] == [float(r) for r in range(1, nranks)]

    def test_senders_may_reuse_their_arrays_on_return(self, backend, nranks):
        """Once a collective returns, a rank may overwrite what it sent; the
        ranks that received it keep the values sent."""

        def prog(comm):
            buf = np.full(3, float(comm.rank))
            got = comm.bcast(buf if comm.rank == 1 else None, root=1)
            gathered = comm.gather(buf, root=0)
            buf += 100.0  # every rank reuses its buffer at once
            comm.bcast(None)  # the receivers read only after every sender wrote
            if comm.rank == 0:
                return got.tolist(), [g.tolist() for g in gathered[1:]]
            return got.tolist(), None

        res = run_spmd(prog, nranks, backend=backend)
        for r, (got, _) in enumerate(res.values):
            if r != 1:
                assert got == [1.0] * 3
        assert res.values[0][1] == [[float(r)] * 3 for r in range(1, nranks)]

    def test_allreduce_sum_array(self, backend, nranks):
        def prog(comm):
            return comm.allreduce(np.full(3, comm.rank + 1.0))

        res = run_spmd(prog, nranks, backend=backend)
        total = sum(range(1, nranks + 1))
        for v in res.values:
            assert np.allclose(v, total)

    def test_allreduce_results_are_private(self, backend, nranks):
        def prog(comm):
            mine = np.full(3, comm.rank + 1.0)
            total = comm.allreduce(mine)
            if comm.rank == 1:
                total += 100.0  # must not corrupt the peers' results
            comm.bcast(None)  # peers read only after rank 1 wrote
            return float(mine[0]), float(total[0])

        res = run_spmd(prog, nranks, backend=backend)
        total = float(sum(range(1, nranks + 1)))
        assert res.values == [
            (r + 1.0, total + (100.0 if r == 1 else 0.0)) for r in range(nranks)
        ]

    def test_allreduce_min_max(self, backend, nranks):
        res = run_spmd(
            lambda c: (c.allreduce(c.rank, op="min"), c.allreduce(c.rank, op="max")),
            nranks, backend=backend,
        )
        assert all(v == (0, nranks - 1) for v in res.values)

    def test_sequential_collectives_do_not_cross(self, backend, nranks):
        """Values from one collective must never bleed into the next."""

        def prog(comm):
            a = comm.gather(("first", comm.rank), root=0)
            b = comm.gather(("second", comm.rank), root=0)
            c = comm.bcast("third" if comm.rank == 0 else None)
            return a, b, c

        res = run_spmd(prog, nranks, backend=backend)
        assert res.values[0] == ([("first", r) for r in range(nranks)],
                                 [("second", r) for r in range(nranks)], "third")
        assert all(v == (None, None, "third") for v in res.values[1:])

    def test_empty_partition_rank(self, backend, nranks):
        """Ranks whose block partition is empty still join every collective."""

        def prog(comm):
            from repro.parallel.partition import block_bounds

            lo, hi = block_bounds(1, comm.size, comm.rank)  # 1 item, n ranks
            local = np.arange(lo, hi, dtype=np.float64)  # empty on most ranks
            total = comm.allreduce(float(local.sum()), op="sum")
            count = comm.allreduce(len(local))
            return total, count

        res = run_spmd(prog, nranks, backend=backend)
        assert res.values == [(0.0, 1)] * nranks


@pytest.mark.parametrize("backend", BACKENDS)
class TestErrorPropagation:
    def test_rank_failure_propagates(self, backend):
        def prog(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            comm.bcast(None)

        with pytest.raises(RuntimeError, match="rank 1 failed"):
            run_spmd(prog, 3, backend=backend)

    def test_bad_root_rejected(self, backend):
        with pytest.raises(RuntimeError):
            run_spmd(lambda c: c.bcast(1, root=99), 2, backend=backend)

    def test_unknown_reduce_op_rejected(self, backend):
        with pytest.raises(RuntimeError) as excinfo:
            run_spmd(lambda c: c.allreduce(1, op="prod"), 2, backend=backend)
        assert "unknown reduce op 'prod'" in str(excinfo.value.__cause__)

    def test_own_error_with_peer_failure_text_is_not_secondary(self, backend):
        """A rank's own error is the failure, whatever its text says."""

        def prog(comm):
            if comm.rank == 1:
                raise RuntimeError("peer rank failed: my own error text")
            return "rank0-done"

        with pytest.raises(RuntimeError, match="rank 1 failed") as excinfo:
            run_spmd(prog, 2, backend=backend)
        assert str(excinfo.value.__cause__) == "peer rank failed: my own error text"

    def test_peer_waiting_in_collective_reports_the_own_error(self, backend):
        def prog(comm):
            if comm.rank == 1:
                raise RuntimeError("peer rank failed: my own error text")
            return comm.allreduce(1)

        with pytest.raises(RuntimeError, match="rank 1 failed") as excinfo:
            run_spmd(prog, 2, backend=backend)
        cause = excinfo.value.__cause__
        assert not isinstance(cause, PeerRankFailed)
        assert str(cause) == "peer rank failed: my own error text"

    def test_waiting_peer_raises_peer_rank_failed(self, backend, tmp_path):
        """The rank left waiting dies of PeerRankFailed, with the same text
        on both backends; the run reports the rank that failed first."""

        def prog(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            try:
                comm.bcast(None)
            except PeerRankFailed as exc:
                (tmp_path / "rank0").write_text(str(exc))
                raise

        with pytest.raises(RuntimeError, match="rank 1 failed") as excinfo:
            run_spmd(prog, 2, backend=backend)
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert (tmp_path / "rank0").read_text() == "peer rank failed: ValueError('boom')"

    @pytest.mark.parametrize("late", ["returner", "waiter"])
    def test_stranded_collective_fails_at_once(self, backend, late, monkeypatch):
        """A rank that returns while a peer waits in a collective, or before
        a peer enters one, fails the run at once as the returned rank, with
        the same message on both backends."""
        monkeypatch.setattr(ThreadComm, "TIMEOUT", 10.0)

        def prog(comm):
            if comm.rank == int(late == "returner"):
                time.sleep(0.2)  # the other rank has returned or is waiting
            if comm.rank == 0:  # repro-lint: ignore[RPL007]
                return comm.allreduce(1)
            return None

        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="rank 1 failed") as excinfo:
            run_spmd(prog, 2, backend=backend, timeout=30.0)
        assert time.monotonic() - t0 < 5.0
        assert str(excinfo.value.__cause__) == (
            "rank(s) [1] exited while rank(s) [0] wait in collective 'allreduce'")

    def test_mismatched_collectives_fail_rank_0(self, backend):
        """Ranks that enter different collectives fail the run as rank 0,
        with the same message on both backends, before any result is read."""

        def prog(comm):
            if comm.rank == 0:  # repro-lint: ignore[RPL007]
                return comm.allreduce(1)
            return comm.gather(2, root=0)

        with pytest.raises(RuntimeError, match="rank 0 failed") as excinfo:
            run_spmd(prog, 2, backend=backend)
        assert str(excinfo.value.__cause__) == (
            "mismatched collectives across ranks: "
            "[('allreduce', None, 'sum'), ('gather', 0, None)]"
        )


def test_thread_marks_hold_under_contention():
    """Seven thread ranks (more than cores) through 300 collectives each,
    with a shortened switch interval: a lost update to the world's arrival
    and return marks would fail the run as a stranded collective."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        res = run_spmd(lambda c: [c.allreduce(c.rank) for _ in range(300)][-1], 7)
    finally:
        sys.setswitchinterval(interval)
    assert res.values == [21] * 7


@pytest.mark.parametrize("backend", BACKENDS)
class TestVirtualTime:
    """The virtual-time model is computed identically on both substrates."""

    def test_compute_advances_clock(self, backend):
        def prog(comm):
            comm.account_compute(2.0e6)
            return comm.clock.t

        res = run_spmd(prog, 2, backend=backend)
        assert all(t == pytest.approx(1.0) for t in res.values)  # 2e6 work / 2e6 rate

    def test_collective_synchronizes_clocks(self, backend):
        def prog(comm):
            comm.account_compute(1.0e6 * (comm.rank + 1))  # rank 1 is slower
            comm.bcast(None)
            return comm.clock.t

        res = run_spmd(prog, 2, backend=backend)
        # Both ranks end at >= the slow rank's arrival time.
        assert min(res.values) >= 1.0
        assert res.values[0] == pytest.approx(res.values[1])

    def test_virtual_makespan(self, backend):
        res = run_spmd(lambda c: c.account_compute(4.0e6), 2, backend=backend)
        assert res.virtual_time == pytest.approx(2.0)

    def test_stats_counted(self, backend):
        def prog(comm):
            comm.bcast(np.zeros(4), root=1)
            comm.gather(comm.rank, root=0)
            comm.allreduce(1.0)
            return comm.clock.stats

        res = run_spmd(prog, 2, backend=backend)
        for stats in res.values:
            assert stats.collectives == 3
            assert stats.bytes_sent == 32 + 8 + 8


class TestBackendParity:
    """Thread and process runs of one program agree bit-for-bit."""

    def test_clocks_and_comm_stats_identical(self):
        def prog(comm):
            comm.account_compute(1.0e6 * (comm.rank + 1))
            comm.bcast(np.arange(1000, dtype=np.float64), root=0)
            comm.allreduce(np.full(200, comm.rank + 0.5), op="sum")
            comm.gather([np.full(3, comm.rank * 10 + d) for d in range(comm.size)], root=2)
            comm.bcast(None)
            return comm.clock.t, comm.clock.stats

        a = run_spmd(prog, 3, backend="thread")
        b = run_spmd(prog, 3, backend="process")
        for (ta, sa), (tb, sb) in zip(a.values, b.values):
            assert ta == tb  # exact, not approx: same float ops in same order
            assert sa.collectives == sb.collectives
            assert sa.bytes_sent == sb.bytes_sent
        assert a.virtual_time == b.virtual_time

    def test_payload_accounting_identical(self):
        """payload_nbytes drives the clock the same way on both backends."""

        def prog(comm):
            comm.gather(np.zeros(50 * (comm.rank + 1)), root=0)
            return comm.clock.stats.bytes_sent

        a = run_spmd(prog, 4, backend="thread")
        b = run_spmd(prog, 4, backend="process")
        assert a.values == b.values


class TestPayloadNbytes:
    def test_ndarray(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80

    def test_scalars_and_containers(self):
        assert payload_nbytes(1) == 8
        assert payload_nbytes("ab") == 2
        assert payload_nbytes([1, 2]) == 16
        assert payload_nbytes({"a": 1}) == 9
        assert payload_nbytes(None) == 0


@pytest.mark.parametrize("backend", BACKENDS)
class TestFaultHook:
    """Fault injection through run_spmd and Communicator.maybe_fail."""

    def test_hook_kills_named_rank(self, backend):
        from repro.parallel import RankFailure

        def prog(comm):
            try:
                comm.maybe_fail(step=7)
            except RankFailure as exc:
                return f"died: {exc}"
            return "alive"

        res = run_spmd(prog, 3, fault_hook=lambda rank, step: rank == 1,
                       backend=backend)
        assert res.values[0] == "alive" and res.values[2] == "alive"
        assert res.values[1].startswith("died: rank 1 killed by fault hook")
        assert "'step': 7" in res.values[1]

    def test_uncaught_failure_propagates_like_any_rank_error(self, backend):
        from repro.parallel import RankFailure

        def prog(comm):
            comm.maybe_fail()
            return "alive"

        with pytest.raises(RuntimeError, match="rank 1 failed") as excinfo:
            run_spmd(prog, 2, fault_hook=lambda rank: rank == 1, backend=backend)
        assert isinstance(excinfo.value.__cause__, RankFailure)

    def test_no_hook_is_noop(self, backend):
        res = run_spmd(lambda c: c.maybe_fail(step=1) or "ok", 2, backend=backend)
        assert res.values == ["ok", "ok"]

    def test_serial_comm_never_injects(self, backend):
        comm = SerialComm()
        assert comm.maybe_fail(step=0) is None
        # run_spmd(nranks=1) ignores the hook: no peer survives a serial kill.
        res = run_spmd(lambda c: c.maybe_fail() or "ok", 1,
                       fault_hook=lambda rank: True, backend=backend)
        assert res.values == ["ok"]
