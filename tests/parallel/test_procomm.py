"""Process-backend specifics the shared conformance grid cannot cover:
the shared-memory arenas, receive timeouts, hard worker deaths, and
end-to-end determinism of the pipelines against the thread backend.
"""

import glob
import os
import subprocess
import sys
import textwrap
import time
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.data import build_dataset
from repro.parallel import run_spmd
from repro.parallel.comm import reduce_many
from repro.parallel.procomm import SHM_THRESHOLD, _decode, _encode, run_process_spmd
from repro.sampling import subsample
from repro.utils.config import CaseConfig, SharedConfig, SubsampleConfig, TrainConfig


def _shm_segments() -> set[str]:
    return set(glob.glob("/dev/shm/psm_*"))


@pytest.fixture
def arena():
    seg = shared_memory.SharedMemory(create=True, size=1 << 20)
    try:
        yield seg
    finally:
        seg.close()
        seg.unlink()


class TestShmTransport:
    def test_small_payload_stays_inline(self, arena):
        data, spans, need = _encode(np.arange(10, dtype=np.float64), arena)
        assert spans == [] and need == 0
        assert np.array_equal(_decode(data, spans, arena, copy=True), np.arange(10.0))

    def test_large_payload_goes_out_of_band(self, arena):
        arr = np.arange(100_000, dtype=np.float64)
        data, spans, need = _encode(arr, arena)
        assert need == 0 and spans
        assert sum(size for _, size in spans) >= arr.nbytes
        assert len(data) < arr.nbytes  # pickle stream itself is tiny
        assert np.array_equal(_decode(data, spans, arena, copy=True), arr)

    def test_outgrown_arena_is_left_untouched(self, arena):
        arena.buf[:8] = b"sentinel"
        _, spans, need = _encode(np.zeros(arena.size // 8 + 1), arena)
        assert spans == [] and need > arena.size
        assert bytes(arena.buf[:8]) == b"sentinel"

    def test_unpacked_arrays_are_private_and_writable(self, arena):
        arr = np.ones(50_000, dtype=np.float64)
        a = _decode(*_encode(arr, arena)[:2], arena, copy=True)
        b = _decode(*_encode(arr * 2, arena)[:2], arena, copy=True)  # reuses the arena
        a += 5.0  # value semantics: no view into shared state
        assert a[0] == 6.0 and b[0] == 2.0 and arr[0] == 1.0

    def test_mixed_container_roundtrip(self, arena):
        obj = {"big": np.zeros((300, 300)), "big2": np.ones(SHM_THRESHOLD // 8),
               "small": np.arange(3), "s": "x"}
        data, spans, _ = _encode(obj, arena)
        assert len(spans) == 2 and all(offset % 64 == 0 for offset, _ in spans)
        out = _decode(data, spans, arena, copy=True)
        for key in ("big", "big2", "small"):
            assert np.array_equal(out[key], obj[key])
        assert out["s"] == "x"

    def test_collective_with_shm_sized_payload(self):
        """End-to-end: arrays above the threshold cross ranks intact."""

        def prog(comm):
            big = np.full(50_000, float(comm.rank))  # 400 KB > threshold
            got = comm.allgather(big)
            return [float(g[0]) for g in got]

        assert 50_000 * 8 > SHM_THRESHOLD
        before = _shm_segments()
        res = run_spmd(prog, 2, backend="process")
        assert res.values == [[0.0, 1.0], [0.0, 1.0]]
        assert _shm_segments() == before


class TestArenas:
    def test_segments_scale_with_ranks_not_messages(self, tmp_path, monkeypatch):
        """200 gradient-sized allreduces reuse each rank's two arenas."""
        log = tmp_path / "created"

        class Counting(shared_memory.SharedMemory):
            def __init__(self, name=None, create=False, size=0):
                super().__init__(name=name, create=create, size=size)
                if create:  # O_APPEND: one line per creation, from any process
                    with open(log, "a") as fh:
                        fh.write(self.name + "\n")

        monkeypatch.setattr(shared_memory, "SharedMemory", Counting)

        def prog(comm):
            grad = np.full(32_768, float(comm.rank))  # 256 KiB
            for _ in range(200):
                out = comm.allreduce(grad)
            return float(out[0])

        res = run_spmd(prog, 2, backend="process")
        assert res.values == [1.0, 1.0]
        assert len(log.read_text().split()) == 2 * 2

    def test_growing_payload_arrives_bit_exact(self):
        """1 KiB -> 4 MiB -> 1 KiB: both arenas grow and keep serving."""
        sizes = (1 << 10, 4 << 20, 4 << 20, 1 << 10, 256 << 10)

        def contribution(rank, i, nbytes):
            return np.random.default_rng([rank, i]).standard_normal(nbytes // 8)

        def prog(comm):
            ok = []
            for i, nbytes in enumerate(sizes):
                mine = contribution(comm.rank, i, nbytes)
                got = comm.allgather(mine)
                summed = comm.allreduce(mine)
                want = [contribution(r, i, nbytes) for r in range(comm.size)]
                ok.append(all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
                          and summed.tobytes() == (want[0] + want[1]).tobytes())
            return ok

        before = _shm_segments()
        res = run_spmd(prog, 2, backend="process")
        assert res.values == [[True] * len(sizes)] * 2
        assert _shm_segments() == before

    def test_mixed_collectives_stress(self):
        """More ranks than cores reuse the arenas for mixed collectives; a
        result written or read out of turn would break bit-exactness."""
        rounds = 60

        def payload(rank, i):
            nbytes = (2 << 10) << (i % 8)  # 2 KiB .. 256 KiB
            return np.random.default_rng([rank, i]).standard_normal(nbytes // 8)

        def prog(comm):
            for i in range(rounds):
                want = [payload(r, i) for r in range(comm.size)]
                mine = want[comm.rank]
                if i % 3 == 0:
                    got, expect = comm.allgather(mine), want
                elif i % 3 == 1:
                    got, expect = [comm.allreduce(mine)], [reduce_many(want, "sum")]
                else:
                    got = comm.alltoall([mine * (dest + 1) for dest in range(comm.size)])
                    expect = [w * (comm.rank + 1) for w in want]
                if [g.tobytes() for g in got] != [e.tobytes() for e in expect]:
                    return i
            return None

        res = run_spmd(prog, 4, backend="process", timeout=60)
        assert res.values == [None] * 4

    def test_received_arrays_are_private(self):
        """Mutating a received array changes neither the peer's copy nor the
        next receive, though both travel through the same arenas."""

        def prog(comm):
            mine = np.full(50_000, float(comm.rank))
            first = comm.allgather(mine)
            for got in first:
                got += 100.0
            second = comm.allgather(mine)
            return float(mine[0]), [float(g[0]) for g in first], [float(g[0]) for g in second]

        res = run_spmd(prog, 2, backend="process")
        for rank, (mine, first, second) in enumerate(res.values):
            assert mine == float(rank)
            assert first == [100.0, 101.0]
            assert second == [0.0, 1.0]

    @pytest.mark.parametrize("ending", ["return", "raise", "os_exit"])
    def test_no_shm_residue(self, ending):
        """Arenas are gone after the run, however it ends; rank 0's last
        payload is still parked at the hub when a failing rank 1 goes."""

        def prog(comm):
            big = np.ones(50_000)
            comm.allreduce(big)
            if comm.rank == 1 and ending == "raise":
                raise ValueError("boom")
            if comm.rank == 1 and ending == "os_exit":
                os._exit(3)
            return float(comm.allreduce(big)[0])

        before = _shm_segments()
        if ending == "return":
            assert run_spmd(prog, 2, backend="process").values == [2.0, 2.0]
        else:
            with pytest.raises(RuntimeError, match="rank 1 failed"):
                run_spmd(prog, 2, backend="process")
        assert _shm_segments() == before

    def test_ranks_start_no_resource_tracker(self):
        """A fresh interpreter's ranks share the parent's resource tracker
        instead of each starting their own."""
        script = textwrap.dedent("""
            import os
            import numpy as np
            from repro.parallel import run_spmd

            def trackers_started_by(pid):
                found = 0
                for entry in filter(str.isdigit, os.listdir("/proc")):
                    try:
                        with open(f"/proc/{entry}/stat") as fh:
                            ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
                        with open(f"/proc/{entry}/cmdline", "rb") as fh:
                            cmdline = fh.read()
                    except (OSError, IndexError, ValueError):
                        continue
                    found += ppid == pid and b"resource_tracker" in cmdline
                return found

            def prog(comm):
                comm.allreduce(np.ones(1 << 14))  # 128 KiB rides shared memory
                return trackers_started_by(os.getpid())

            print(run_spmd(prog, 2, backend="process").values)
        """)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.strip() == "[0, 0]", out.stderr


class TestTimeouts:
    def test_dead_worker_raises_instead_of_hanging(self):
        """A hard-killed worker must surface as an error on peers, fast."""

        def prog(comm):
            if comm.rank == 1:
                os._exit(17)  # no exception, no teardown: a real crash
            comm.barrier()
            return "ok"

        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="rank 1"):
            run_spmd(prog, 2, backend="process")
        assert time.monotonic() - t0 < 30.0
        # The originating cause names the death, not a secondary error.
        try:
            run_spmd(prog, 2, backend="process")
        except RuntimeError as exc:
            assert "died unexpectedly" in str(exc.__cause__)
            assert "exitcode 17" in str(exc.__cause__)

    def test_recv_timeout_fires(self):
        """With a timeout set, a never-arriving message raises, not hangs;
        the rank that ignores the abort is stopped on a short grace."""

        def prog(comm):
            if comm.rank == 0:
                return comm.recv(source=1, tag=9)  # rank 1 never sends
            time.sleep(60)

        before = _shm_segments()
        t0 = time.monotonic()
        with pytest.raises(RuntimeError):
            run_spmd(prog, 2, backend="process", timeout=1.5)
        assert time.monotonic() - t0 < 3.0
        assert _shm_segments() == before

    def test_env_var_sets_default_timeout(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROC_TIMEOUT", "1.5")

        def prog(comm):
            if comm.rank == 0:
                return comm.recv(source=1, tag=9)
            time.sleep(60)

        before = _shm_segments()
        t0 = time.monotonic()
        with pytest.raises(RuntimeError):
            run_process_spmd(prog, 2, (), {})
        assert time.monotonic() - t0 < 3.0
        assert _shm_segments() == before

    def test_no_timeout_by_default_for_fast_programs(self):
        res = run_spmd(lambda c: c.allreduce(1), 2, backend="process")
        assert res.values == [2, 2]


def sst_case():
    return CaseConfig(
        shared=SharedConfig(dims=3),
        subsample=SubsampleConfig(
            hypercubes="maxent", method="maxent", num_hypercubes=6,
            num_samples=100, num_clusters=4, nxsl=8, nysl=8, nzsl=8,
        ),
        train=TrainConfig(arch="mlp_transformer", epochs=2, batch=4,
                          window=2, horizon=1),
    )


class TestPipelineDeterminism:
    """The acceptance bar: byte-identical results across backends."""

    @pytest.fixture(scope="class")
    def sst(self):
        return build_dataset("SST-P1F4", scale=1.0, rng=0, n_snapshots=4)

    def test_stream_subsample_byte_identical(self, sst):
        runs = {
            b: subsample(sst, sst_case(), nranks=4, seed=0, mode="stream", backend=b)
            for b in ("thread", "process")
        }
        t, p = runs["thread"], runs["process"]
        assert t.points.coords.tobytes() == p.points.coords.tobytes()
        assert np.asarray(t.points.time).tobytes() == np.asarray(p.points.time).tobytes()
        for name in t.points.values:
            assert t.points.values[name].tobytes() == p.points.values[name].tobytes()
        assert t.virtual_time == p.virtual_time

    def test_stream_subsample_with_rank_failure_byte_identical(self, sst):
        calls = {}

        def hook(rank, **ctx):
            calls[rank] = calls.get(rank, 0) + 1
            return rank == 1 and ctx.get("rows_fed", 0) > 0

        runs = {}
        for b in ("thread", "process"):
            runs[b] = subsample(
                sst, sst_case(), nranks=4, seed=0, mode="stream",
                on_rank_failure="reweight", fault_hook=hook, backend=b,
            )
        t, p = runs["thread"], runs["process"]
        assert t.meta["failed_ranks"] == p.meta["failed_ranks"] == [1]
        assert t.points.coords.tobytes() == p.points.coords.tobytes()
        for name in t.points.values:
            assert t.points.values[name].tobytes() == p.points.values[name].tobytes()

    def test_batch_subsample_byte_identical(self, sst):
        runs = {
            b: subsample(sst, sst_case(), nranks=2, seed=0, backend=b)
            for b in ("thread", "process")
        }
        t, p = runs["thread"], runs["process"]
        assert t.points.coords.tobytes() == p.points.coords.tobytes()
        for name in t.points.values:
            assert t.points.values[name].tobytes() == p.points.values[name].tobytes()
        assert t.virtual_time == p.virtual_time

    def test_ddp_train_losses_identical(self, sst):
        from repro.api import Experiment

        losses = {}
        for b in ("thread", "process"):
            exp = (
                Experiment(sst_case()).with_dataset(sst).with_seed(0)
                .with_train_ranks(2).with_backend(b).with_epochs(2)
            )
            exp.subsample().train()
            losses[b] = exp.artifacts["train"].result.train_losses
        assert np.asarray(losses["thread"]).tobytes() == \
            np.asarray(losses["process"]).tobytes()
