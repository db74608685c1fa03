"""Tests for the LogGP performance model and virtual clocks."""

import math

import pytest

from repro.parallel.perfmodel import PerfModel, VirtualClock


class TestPerfModel:
    def test_compute_time_linear(self):
        m = PerfModel(compute_rate=1e6)
        assert m.compute_time(2e6) == pytest.approx(2.0)
        assert m.compute_time(0) == 0.0

    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            PerfModel().compute_time(-1)

    def test_collective_single_rank_free(self):
        assert PerfModel().collective_time("allreduce", 1000, 1) == 0.0

    def test_collective_log_scaling(self):
        m = PerfModel(alpha=1e-6, beta=0.0)
        t4 = m.collective_time("bcast", 0, 4)
        t16 = m.collective_time("bcast", 0, 16)
        assert t16 == pytest.approx(2 * t4)  # log2(16)=4 vs log2(4)=2

    def test_allreduce_twice_bcast(self):
        m = PerfModel(alpha=1e-6, beta=1e-9)
        assert m.collective_time("allreduce", 64, 8) == pytest.approx(
            2 * m.collective_time("bcast", 64, 8)
        )

    @pytest.mark.parametrize("op", ["gossip", "barrier", "alltoall"])
    def test_unknown_op_rejected(self, op):
        with pytest.raises(ValueError):
            PerfModel().collective_time(op, 0, 4)

    def test_imbalance_slows_collectives(self):
        fast = PerfModel(imbalance=0.0)
        slow = PerfModel(imbalance=0.2)
        assert slow.collective_time("bcast", 0, 64) > fast.collective_time("bcast", 0, 64)

    def test_rounds_are_ceil_log2(self):
        m = PerfModel(alpha=1.0, beta=0.0)
        assert m.collective_time("bcast", 0, 5) == pytest.approx(math.ceil(math.log2(5)))


class TestVirtualClock:
    def test_add_compute(self):
        c = VirtualClock(model=PerfModel(compute_rate=100.0))
        c.add_compute(50.0)
        assert c.t == pytest.approx(0.5)
        assert c.stats.compute_work == 50.0

    def test_sync_to_takes_max(self):
        c = VirtualClock(model=PerfModel(alpha=0.0, beta=0.0))
        c.add_compute(0)
        c.sync_to(7.0, "bcast", 128, 4)
        assert c.t >= 7.0
        assert (c.stats.collectives, c.stats.bytes_sent) == (1, 128)

    def test_sync_to_adds_the_modeled_cost(self):
        m = PerfModel(alpha=1e-3, beta=1e-6)
        early = VirtualClock(model=m)
        early.sync_to(2.0, "allreduce", 100, 4)
        assert early.t == 2.0 + m.collective_time("allreduce", 100, 4)
        # a rank arriving after every peer starts the collective at its own time
        late = VirtualClock(model=m, t=5.0)
        late.sync_to(2.0, "bcast", 100, 4)
        assert late.t == 5.0 + m.collective_time("bcast", 100, 4)
