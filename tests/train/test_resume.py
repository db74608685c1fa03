"""Resume determinism: a fit interrupted at epoch k and resumed from its
checkpoint must match an uninterrupted fit bitwise — per seed, per rank
count — including the plateau scheduler's counters and the energy meter."""

import os

import numpy as np
import pytest

from repro.data import build_dataset
from repro.nn import LSTMRegressor
from repro.sampling import subsample
from repro.train import (
    ArrayFeed,
    Checkpoint,
    TrainLoop,
    build_drag_data,
    peek_checkpoint,
)
from repro.utils.config import CaseConfig, SharedConfig, SubsampleConfig, TrainConfig


@pytest.fixture(scope="module")
def drag_xy():
    of2d = build_dataset("OF2D", scale=0.4, rng=0, n_snapshots=30)
    case = CaseConfig(
        shared=SharedConfig(dims=2),
        subsample=SubsampleConfig(
            hypercubes="random", method="random", num_hypercubes=3,
            num_samples=16, num_clusters=4, nxsl=12, nysl=12, nzsl=1,
        ),
        train=TrainConfig(arch="lstm", window=3),
    )
    res = subsample(of2d, case, seed=0)
    return build_drag_data(of2d, res, window=3)


def _fit(x, y, epochs, seed=0, patience=20, comm=None, checkpoint=None,
         resume=None, every=1):
    model = LSTMRegressor(input_dim=x.shape[2], hidden=8, rng=seed)
    callbacks = [Checkpoint(checkpoint, every=every)] if checkpoint else []
    loop = TrainLoop(model, lr=5e-3, patience=patience, comm=comm, seed=seed,
                     callbacks=callbacks)
    feed = ArrayFeed(x, y, batch=8, seed=seed, comm=loop.comm)
    result = loop.fit(feed, epochs=epochs, resume=resume)
    return loop, result


def assert_bitwise_equal(a, b):
    assert a.train_losses == b.train_losses
    assert a.test_losses == b.test_losses
    assert a.final_test_loss == b.final_test_loss
    assert a.best_test_loss == b.best_test_loss
    assert a.epochs_run == b.epochs_run
    assert a.lr_reductions == b.lr_reductions
    assert a.energy.flops_gpu == b.energy.flops_gpu
    assert a.energy.flops_cpu == b.energy.flops_cpu
    assert a.energy.bytes_gpu == b.energy.bytes_gpu
    # The virtual clock is summed in two segments on resume, so elapsed may
    # differ by float non-associativity (one ulp); counters stay bitwise.
    assert a.energy.elapsed == pytest.approx(b.energy.elapsed, rel=1e-12, abs=1e-18)


class TestSerialResume:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_interrupt_and_resume_matches_uninterrupted(self, drag_xy, tmp_path, seed):
        x, y = drag_xy
        ck = str(tmp_path / "ck.npz")
        _, full = _fit(x, y, epochs=6, seed=seed)
        _fit(x, y, epochs=3, seed=seed, checkpoint=ck)
        loop, resumed = _fit(x, y, epochs=6, seed=seed, resume=ck)
        assert_bitwise_equal(full, resumed)
        assert resumed.meta["resumed_from"].startswith(str(tmp_path))
        assert resumed.meta["resumed_at_epoch"] == 3

    def test_model_weights_match_bitwise(self, drag_xy, tmp_path):
        x, y = drag_xy
        ck = str(tmp_path / "ck.npz")
        full_loop, _ = _fit(x, y, epochs=5)
        _fit(x, y, epochs=2, checkpoint=ck)
        res_loop, _ = _fit(x, y, epochs=5, resume=ck)
        for name, p in full_loop.model.state_dict().items():
            assert np.array_equal(p, res_loop.model.state_dict()[name]), name

    def test_plateau_scheduler_state_survives(self, drag_xy, tmp_path):
        """patience=0 forces LR reductions; the resumed fit must replay the
        same reduction schedule bit-for-bit."""
        x, y = drag_xy
        ck = str(tmp_path / "ck.npz")
        _, full = _fit(x, y, epochs=8, patience=0)
        assert full.lr_reductions > 0  # the scenario actually exercises it
        _fit(x, y, epochs=4, patience=0, checkpoint=ck)
        _, resumed = _fit(x, y, epochs=8, patience=0, resume=ck)
        assert_bitwise_equal(full, resumed)

    def test_checkpoint_every_k(self, drag_xy, tmp_path):
        x, y = drag_xy
        ck = str(tmp_path / "ck.npz")
        _, full = _fit(x, y, epochs=6)
        _fit(x, y, epochs=4, checkpoint=ck, every=2)
        assert peek_checkpoint(ck)["next_epoch"] == 4
        _, resumed = _fit(x, y, epochs=6, resume=ck)
        assert_bitwise_equal(full, resumed)

    def test_checkpoint_is_atomic_file(self, drag_xy, tmp_path):
        x, y = drag_xy
        ck = str(tmp_path / "ck.npz")
        _fit(x, y, epochs=2, checkpoint=ck)
        assert os.path.isfile(ck)
        assert not os.path.exists(ck + ".tmp")
        meta = peek_checkpoint(ck)
        assert meta["ranks"] == 1
        assert meta["next_epoch"] == 2
        assert "plateau" in meta["callbacks"]

    def test_early_stop_writes_final_checkpoint(self, drag_xy, tmp_path):
        """An early stop off the save cadence must still persist the last
        epoch's state (the docstring's 'and the last one')."""
        from repro.nn import LSTMRegressor
        from repro.train import EarlyStopping

        x, y = drag_xy
        ck = str(tmp_path / "ck.npz")
        model = LSTMRegressor(input_dim=x.shape[2], hidden=8, rng=0)
        loop = TrainLoop(model, lr=5e-3, seed=0,
                         callbacks=[Checkpoint(ck, every=50),
                                    EarlyStopping(patience=0)])
        feed = ArrayFeed(x, y, batch=8, seed=0)
        result = loop.fit(feed, epochs=40)
        assert result.epochs_run < 40
        assert peek_checkpoint(ck)["next_epoch"] == result.epochs_run

    def test_warm_restart_checkpoints_again(self, drag_xy, tmp_path):
        """A second fit() on the same loop must write its own checkpoint
        (the save-epoch memo resets per fit)."""
        import os

        from repro.nn import LSTMRegressor

        x, y = drag_xy
        ck = str(tmp_path / "ck.npz")
        model = LSTMRegressor(input_dim=x.shape[2], hidden=8, rng=0)
        loop = TrainLoop(model, lr=5e-3, seed=0, callbacks=[Checkpoint(ck, every=3)])
        feed = ArrayFeed(x, y, batch=8, seed=0)
        loop.fit(feed, epochs=3)
        first = os.stat(ck).st_mtime_ns
        loop.fit(ArrayFeed(x, y, batch=8, seed=0), epochs=3)
        assert os.stat(ck).st_mtime_ns > first

    def test_resume_missing_file_raises(self, drag_xy, tmp_path):
        x, y = drag_xy
        with pytest.raises(FileNotFoundError):
            _fit(x, y, epochs=2, resume=str(tmp_path / "nope.npz"))

    def test_resume_wrong_seed_raises(self, drag_xy, tmp_path):
        x, y = drag_xy
        ck = str(tmp_path / "ck.npz")
        _fit(x, y, epochs=2, seed=0, checkpoint=ck)
        with pytest.raises(ValueError, match="seed"):
            _fit(x, y, epochs=4, seed=1, resume=ck)

    def test_resume_wrong_rank_count_raises(self, drag_xy, tmp_path):
        from repro.parallel import run_spmd

        x, y = drag_xy
        ck = str(tmp_path / "ck.npz")
        run_spmd(lambda comm: _fit(x, y, epochs=2, comm=comm, checkpoint=ck)[1], 2)
        with pytest.raises(ValueError, match="rank count"):
            _fit(x, y, epochs=4, resume=ck)


class TestDistributedResume:
    def test_ddp_resume_matches_uninterrupted(self, drag_xy, tmp_path):
        from repro.parallel import run_spmd

        x, y = drag_xy
        ck = str(tmp_path / "ck.npz")

        def prog(comm, epochs, checkpoint=None, resume=None):
            return _fit(x, y, epochs=epochs, comm=comm, checkpoint=checkpoint,
                        resume=resume)[1]

        # Checkpoint gathers are discounted from the energy clock, so the
        # resumed run matches a reference that never checkpointed at all.
        full = run_spmd(lambda c: prog(c, 5), 2)
        run_spmd(lambda c: prog(c, 2, checkpoint=ck), 2)
        resumed = run_spmd(lambda c: prog(c, 5, checkpoint=ck, resume=ck), 2)
        # Every rank's result (losses, energy, per-rank shard history)
        # matches the uninterrupted run bitwise.
        for rank in range(2):
            assert_bitwise_equal(full[rank], resumed[rank])

    def test_ddp_checkpoint_stores_per_rank_state(self, drag_xy, tmp_path):
        from repro.parallel import run_spmd

        x, y = drag_xy
        ck = str(tmp_path / "ck.npz")
        run_spmd(lambda c: _fit(x, y, epochs=2, comm=c, checkpoint=ck)[1], 2)
        meta = peek_checkpoint(ck)
        assert meta["ranks"] == 2
        assert len(meta["per_rank"]) == 2
        # Ranks shard the training split, so their loss histories differ.
        assert (meta["per_rank"][0]["train_losses"]
                != meta["per_rank"][1]["train_losses"])


class TestStreamResume:
    def _exp(self, epochs, seed=0, ranks=1, checkpoint=None, resume=None):
        from repro.api import Experiment

        ds = build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=6)
        case = CaseConfig(
            shared=SharedConfig(dims=3),
            subsample=SubsampleConfig(
                hypercubes="maxent", method="maxent", num_hypercubes=3,
                num_samples=64, num_clusters=4, nxsl=8, nysl=8, nzsl=8,
            ),
            train=TrainConfig(epochs=epochs, batch=4, window=2, horizon=1,
                              arch="mlp_transformer"),
        )
        exp = (Experiment.from_case(case).with_dataset(ds).with_seed(seed)
               .with_train_ranks(ranks)
               .subsample(mode="stream")
               .train(mode="stream", checkpoint=checkpoint, resume=resume))
        return exp.train_artifact.result

    def test_stream_resume_matches_uninterrupted(self, tmp_path):
        ck = str(tmp_path / "ck.npz")
        full = self._exp(epochs=4)
        self._exp(epochs=2, checkpoint=ck)
        resumed = self._exp(epochs=4, resume=ck)
        assert_bitwise_equal(full, resumed)

    def test_stream_ddp_resume_matches_uninterrupted(self, tmp_path):
        ck = str(tmp_path / "ck.npz")
        full = self._exp(epochs=3, ranks=2)
        self._exp(epochs=1, ranks=2, checkpoint=ck)
        resumed = self._exp(epochs=3, ranks=2, resume=ck)
        assert_bitwise_equal(full, resumed)
