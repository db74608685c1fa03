"""Tests for the step-based TrainLoop, BatchFeed implementations, and
callbacks — the stream-first training redesign's unit layer."""

import numpy as np
import pytest

from repro.data import build_dataset
from repro.data.sources import open_source
from repro.nn import LSTMRegressor, MLPTransformer
from repro.nn.tensor import Tensor
from repro.sampling import subsample
from repro.train import (
    ArrayFeed,
    EarlyStopping,
    ShardedFeed,
    StreamFeed,
    Trainer,
    TrainLoop,
    build_drag_data,
    stream_assembler,
    stream_sensor_layout,
)
from repro.utils.config import CaseConfig, SharedConfig, SubsampleConfig, TrainConfig


@pytest.fixture(scope="module")
def of2d():
    return build_dataset("OF2D", scale=0.4, rng=0, n_snapshots=30)


@pytest.fixture(scope="module")
def sst():
    return build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=6)


def lstm_case(epochs=3, window=3):
    return CaseConfig(
        shared=SharedConfig(dims=2),
        subsample=SubsampleConfig(
            hypercubes="random", method="random", num_hypercubes=3,
            num_samples=16, num_clusters=4, nxsl=12, nysl=12, nzsl=1,
        ),
        train=TrainConfig(epochs=epochs, batch=4, window=window, arch="lstm"),
    )


def sst_case(epochs=3, window=2):
    return CaseConfig(
        shared=SharedConfig(dims=3),
        subsample=SubsampleConfig(
            hypercubes="maxent", method="maxent", num_hypercubes=3,
            num_samples=64, num_clusters=4, nxsl=8, nysl=8, nzsl=8,
        ),
        train=TrainConfig(epochs=epochs, batch=4, window=window, horizon=1,
                          arch="mlp_transformer"),
    )


@pytest.fixture(scope="module")
def drag_xy(of2d):
    res = subsample(of2d, lstm_case(), seed=0)
    return build_drag_data(of2d, res, window=3)


class TestArrayFeedEquivalence:
    """The tentpole invariant: the feed/loop refactor is byte-identical to
    the classic epoch loop (golden: Trainer's documented RNG protocol)."""

    def test_trainer_shim_equals_trainloop(self, drag_xy):
        x, y = drag_xy
        r1 = Trainer(
            LSTMRegressor(input_dim=x.shape[2], hidden=8, rng=0),
            epochs=5, batch=8, lr=5e-3, seed=0,
        ).fit(x, y)
        model = LSTMRegressor(input_dim=x.shape[2], hidden=8, rng=0)
        loop = TrainLoop(model, lr=5e-3, seed=0)
        feed = ArrayFeed(x, y, batch=8, seed=0)
        r2 = loop.fit(feed, epochs=5)
        assert r1.train_losses == r2.train_losses
        assert r1.test_losses == r2.test_losses
        assert r1.final_test_loss == r2.final_test_loss
        assert r1.energy.flops_gpu == r2.energy.flops_gpu
        assert r1.energy.elapsed == r2.energy.elapsed

    def test_fit_is_deterministic_per_seed(self, drag_xy):
        x, y = drag_xy

        def run():
            model = LSTMRegressor(input_dim=x.shape[2], hidden=8, rng=0)
            return Trainer(model, epochs=4, batch=8, seed=3).fit(x, y)

        a, b = run(), run()
        assert a.train_losses == b.train_losses
        assert a.test_losses == b.test_losses
        assert a.final_test_loss == b.final_test_loss

    def test_feed_state_roundtrip_replays_permutations(self, drag_xy):
        x, y = drag_xy
        feed = ArrayFeed(x, y, batch=8, seed=0)
        list(feed.train_batches(0))  # advance the permutation RNG one epoch
        state = feed.state()
        next_epoch = [xb.copy() for xb, _ in feed.train_batches(1)]
        fresh = ArrayFeed(x, y, batch=8, seed=0)
        fresh.load_state(state)
        replayed = [xb for xb, _ in fresh.train_batches(1)]
        for a, b in zip(next_epoch, replayed):
            assert np.array_equal(a, b)

    def test_feed_rejects_foreign_cursor(self, drag_xy):
        x, y = drag_xy
        feed = ArrayFeed(x, y, batch=8, seed=0)
        with pytest.raises(ValueError, match="ArrayFeed"):
            feed.load_state({"kind": "StreamFeed", "epochs_streamed": 1})

    def test_refit_starts_fresh(self, drag_xy):
        """fit() twice on one trainer (warm restart) must not accumulate the
        first fit's losses or double-count its energy."""
        x, y = drag_xy
        trainer = Trainer(LSTMRegressor(input_dim=x.shape[2], hidden=8, rng=0),
                          epochs=3, batch=8, seed=0)
        r1 = trainer.fit(x, y)
        r2 = trainer.fit(x, y)
        assert r1.epochs_run == r2.epochs_run == 3
        assert len(r2.train_losses) == 3
        # Same FLOP count per fit — the meter was reset, not accumulated.
        assert r1.energy.flops_gpu == r2.energy.flops_gpu
        # Warm restart: weights continued from fit 1, so losses improved.
        assert r2.train_losses[0] < r1.train_losses[0]

    def test_trainer_compat_attributes(self, drag_xy):
        x, y = drag_xy
        trainer = Trainer(LSTMRegressor(input_dim=x.shape[2], hidden=8, rng=0),
                          epochs=2, seed=0)
        assert trainer.optimizer is trainer.loop.optimizer
        assert trainer.scheduler is not None
        assert trainer.comm.size == 1
        r = trainer.fit(x, y)
        assert trainer.evaluate(x, y) > 0
        assert "Evaluation on test set" in r.report()
        assert r.meta["feed"]["kind"] == "ArrayFeed"


class TestCallbacks:
    def test_early_stopping_halts_fit(self, drag_xy):
        x, y = drag_xy
        model = LSTMRegressor(input_dim=x.shape[2], hidden=8, rng=0)
        loop = TrainLoop(model, seed=0, callbacks=[EarlyStopping(patience=0)])
        result = loop.fit(ArrayFeed(x, y, batch=8, seed=0), epochs=50)
        assert result.epochs_run < 50
        assert len(result.train_losses) == result.epochs_run

    def test_plateau_reductions_reported(self, drag_xy):
        x, y = drag_xy
        model = LSTMRegressor(input_dim=x.shape[2], hidden=8, rng=0)
        loop = TrainLoop(model, lr=1e-3, patience=0, seed=0)
        result = loop.fit(ArrayFeed(x, y, batch=8, seed=0), epochs=8)
        assert result.lr_reductions == loop.scheduler.n_reductions
        assert loop.lr <= 1e-3

    def test_invalid_epochs(self, drag_xy):
        x, y = drag_xy
        model = LSTMRegressor(input_dim=x.shape[2], hidden=8, rng=0)
        with pytest.raises(ValueError):
            TrainLoop(model, seed=0).fit(ArrayFeed(x, y, seed=0), epochs=0)


class TestSensorLayout:
    def test_layout_from_stream_points(self, sst):
        res = subsample(sst, sst_case(), seed=0, mode="stream")
        layout = stream_sensor_layout(
            res.points.coords, sst.grid_shape, (8, 8, 8), max_cubes=4,
        )
        assert 1 <= len(layout.origins) <= 4
        assert layout.n_points >= 1
        for origin, rel in zip(layout.origins, layout.rel):
            assert len(rel) == layout.n_points
            assert np.all(rel >= 0) and np.all(rel < np.array(layout.cube_shape))
            assert all(o % c == 0 for o, c in zip(origin, layout.cube_shape))

    def test_layout_deterministic(self, sst):
        res = subsample(sst, sst_case(), seed=0, mode="stream")
        a = stream_sensor_layout(res.points.coords, sst.grid_shape, (8, 8, 8))
        b = stream_sensor_layout(res.points.coords, sst.grid_shape, (8, 8, 8))
        assert a.origins == b.origins
        for ra, rb in zip(a.rel, b.rel):
            assert np.array_equal(ra, rb)

    def test_empty_coords_rejected(self):
        with pytest.raises(ValueError):
            stream_sensor_layout(np.empty((0, 3)), (16, 16, 16), (8, 8, 8))


class TestStreamFeed:
    def _feed(self, sst, **kwargs):
        res = subsample(sst, sst_case(), seed=0, mode="stream")
        assembler = stream_assembler(sst, sst_case(), res.points)
        return StreamFeed(open_source(sst), assembler, batch=4, test_frac=0.2,
                          seed=0, **kwargs)

    def test_batch_shapes_and_counts(self, sst):
        feed = self._feed(sst)
        batches = list(feed.train_batches(0))
        n_train = sum(len(xb) for xb, _ in batches)
        tests = list(feed.eval_batches())
        n_test = sum(len(xb) for xb, _ in tests)
        assert n_train == feed.n_train_local
        assert n_test == feed.n_test_local
        assert n_train + n_test == feed.local_samples
        xb, yb = batches[0]
        # [B, T, C, N] sensors in, [B, T', C', H, W, D] dense cubes out.
        assert xb.ndim == 4 and xb.shape[1] == 2 and xb.shape[2] == 3
        assert yb.shape[1:3] == (1, 1) and yb.shape[3:] == (8, 8, 8)

    def test_epochs_are_identical_passes(self, sst):
        feed = self._feed(sst)
        a = [xb.copy() for xb, _ in feed.train_batches(0)]
        b = [xb for xb, _ in feed.train_batches(1)]
        assert len(a) == len(b)
        for xa, xb_ in zip(a, b):
            assert np.array_equal(xa, xb_)

    def test_spec_matches_model_needs(self, sst):
        feed = self._feed(sst)
        spec = feed.spec
        model = MLPTransformer(
            in_channels=spec.in_channels, n_points=spec.n_points,
            out_channels=spec.out_channels, grid=spec.grid,
            window=2, horizon=1, d_model=16, depth=1, n_heads=2, rng=0,
        )
        xb, yb = next(iter(feed.train_batches(0)))
        out = model(Tensor(xb))
        assert out.data.shape == yb.shape

    def test_too_few_windows_rejected(self, sst):
        res = subsample(sst, sst_case(window=2), seed=0, mode="stream")
        case = sst_case(window=8)  # longer than the 6-snapshot stream
        assembler = stream_assembler(sst, case, res.points)
        with pytest.raises(ValueError, match="at least 2 window samples"):
            StreamFeed(open_source(sst), assembler, batch=4, seed=0)

    def test_unsupported_arch_rejected(self, sst):
        res = subsample(sst, sst_case(), seed=0, mode="stream")
        case = CaseConfig(
            shared=SharedConfig(dims=3),
            subsample=SubsampleConfig(
                hypercubes="maxent", method="full", num_hypercubes=2,
                num_clusters=4, nxsl=8, nysl=8, nzsl=8,
            ),
            train=TrainConfig(epochs=2, arch="cnn_transformer"),
        )
        with pytest.raises(ValueError, match="stream training supports"):
            stream_assembler(sst, case, res.points)


class TestShardedFeed:
    def test_for_rank_agrees_on_global_facts(self, sst):
        from repro.data.sources import PartitionedSource, open_source
        from repro.parallel.partition import stream_partitions

        res = subsample(sst, sst_case(), seed=0, mode="stream")
        case = sst_case()
        source = open_source(sst)
        parts = stream_partitions(source.n_snapshots, 2)

        class FakeComm:
            size = 2

            def __init__(self, rank):
                self.rank = rank

        feeds = []
        for rank in (0, 1):
            rank_source = PartitionedSource(source, parts[rank].lo, parts[rank].hi)
            assembler = stream_assembler(rank_source, case, res.points)
            feeds.append(ShardedFeed.for_rank(
                FakeComm(rank), rank_source, assembler, source.n_snapshots,
                batch=4, test_frac=0.2, seed=0,
            ))
        f0, f1 = feeds
        assert f0.total_samples == f1.total_samples
        assert f0._test_ids == f1._test_ids
        assert f0._steps == f1._steps
        assert f0.sample_offset == 0
        assert f1.sample_offset > 0
        # Both ranks emit exactly the agreed number of batches.
        assert len(list(f0.train_batches(0))) == f0._steps
        assert len(list(f1.train_batches(0))) == f1._steps
        # Union of test shards is the global test count.
        assert f0.n_test_local + f1.n_test_local == f0.n_test_global

    def test_starved_rank_rejected(self, sst):
        from repro.data.sources import PartitionedSource, open_source
        from repro.parallel.partition import stream_partitions

        res = subsample(sst, sst_case(), seed=0, mode="stream")
        case = sst_case(window=3)
        source = open_source(sst)
        nranks = 4  # 6 snapshots / 4 ranks -> spans of 1-2 < window 3
        parts = stream_partitions(source.n_snapshots, nranks)

        class FakeComm:
            size = nranks
            rank = 0

        rank_source = PartitionedSource(source, parts[0].lo, parts[0].hi)
        assembler = stream_assembler(rank_source, case, res.points)
        with pytest.raises(ValueError, match="no full training window|window samples"):
            ShardedFeed.for_rank(FakeComm(), rank_source, assembler,
                                 source.n_snapshots, batch=4, seed=0)


class TestWindowCounts:
    def test_counts_match_partitions(self):
        from repro.parallel.partition import stream_partitions, window_counts

        parts = stream_partitions(10, 3)
        counts = window_counts(10, 3, window=2, per_window=3)
        for part, count in zip(parts, counts):
            assert count == max(0, part.n - 1) * 3

    def test_validation(self):
        from repro.parallel.partition import window_counts

        with pytest.raises(ValueError):
            window_counts(10, 2, window=0)
        with pytest.raises(ValueError):
            window_counts(10, 2, window=1, per_window=0)
