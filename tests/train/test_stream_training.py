"""Acceptance tests for stream-first training: fitting directly off the
merged stream with bounded memory, and staying statistically faithful to
the offline (resident-array) fit."""

import tracemalloc

import numpy as np
import pytest

from repro.api import Experiment, build_model_for_case
from repro.data import ShardDirSource, build_dataset, open_source, save_dataset
from repro.nn.tensor import Tensor, no_grad
from repro.sampling import subsample
from repro.train import (
    ArrayFeed,
    StreamFeed,
    TrainLoop,
    build_reconstruction_data,
    stream_assembler,
)
from repro.utils.config import CaseConfig, SharedConfig, SubsampleConfig, TrainConfig


def sst_case(epochs=3, window=2, num_hypercubes=3):
    return CaseConfig(
        shared=SharedConfig(dims=3),
        subsample=SubsampleConfig(
            hypercubes="maxent", method="maxent",
            num_hypercubes=num_hypercubes, num_samples=64, num_clusters=4,
            nxsl=8, nysl=8, nzsl=8,
        ),
        train=TrainConfig(epochs=epochs, batch=4, window=window, horizon=1,
                          arch="mlp_transformer"),
    )


class TestStreamTrainingAcceptance:
    def test_stream_fit_bounded_memory(self, tmp_path):
        """The headline acceptance: subsample(mode='stream', ranks=N) →
        train(mode='stream') completes end-to-end with peak memory below
        the resident-dataset footprint."""
        shard_dir = str(tmp_path / "shards")
        ds = build_dataset("SST-P1F4", scale=1.0, rng=0, n_snapshots=16)
        save_dataset(ds, shard_dir)
        footprint = ds.nbytes()
        del ds

        with ShardDirSource(shard_dir, max_cached=2) as src:
            tracemalloc.start()
            exp = (
                Experiment.from_case(sst_case())
                .with_source(src)
                .with_seed(0)
                .subsample(mode="stream", ranks=2)
                .train(mode="stream")
            )
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        result = exp.train_artifact.result
        assert np.isfinite(result.final_test_loss)
        assert result.meta["feed"]["kind"] == "StreamFeed"
        assert peak < footprint, (
            f"stream training peaked at {peak / 1e6:.1f} MB, above the "
            f"{footprint / 1e6:.1f} MB resident footprint it must undercut"
        )
        # The shard LRU honoured its bound the whole way through.
        assert src.cache_info()["gauges"]["max_resident"] <= 2

    def test_stream_loss_ks_bounded_vs_offline(self):
        """The stream fit's test-error distribution stays within a KS bound
        of the offline fit's (and the final losses within a factor)."""
        case = sst_case(epochs=5, num_hypercubes=6)
        ds = build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=10)

        def pointwise_errors(model, batches):
            errs = []
            model.eval()
            with no_grad():
                for xb, yb in batches:
                    pred = model(Tensor(xb)).data
                    errs.append(np.abs(pred - yb).ravel())
            return np.sort(np.concatenate(errs))

        sres = subsample(ds, case, seed=0, mode="stream", nranks=2)
        assembler = stream_assembler(open_source(ds), case, sres.points)
        sfeed = StreamFeed(open_source(ds), assembler, batch=4, test_frac=0.2,
                           seed=0)
        smodel = build_model_for_case(case, sfeed.spec, rng=0)
        sfit = TrainLoop(smodel, seed=0).fit(sfeed, epochs=5)
        errs_s = pointwise_errors(smodel, sfeed.eval_batches())

        bres = subsample(ds, case, seed=0)
        data = build_reconstruction_data(ds, bres, window=2, horizon=1)
        bmodel = build_model_for_case(case, data, rng=0)
        bfeed = ArrayFeed(data.x, data.y, batch=4, test_frac=0.2, seed=0)
        bfit = TrainLoop(bmodel, seed=0).fit(bfeed, epochs=5)
        errs_b = pointwise_errors(bmodel, bfeed.eval_batches())

        ratio = sfit.final_test_loss / bfit.final_test_loss
        assert 0.2 < ratio < 5.0, f"stream/offline loss ratio {ratio:.2f}"
        grid = np.linspace(0.0, max(errs_s.max(), errs_b.max()), 512)
        cdf_s = np.searchsorted(errs_s, grid) / len(errs_s)
        cdf_b = np.searchsorted(errs_b, grid) / len(errs_b)
        ks = float(np.abs(cdf_s - cdf_b).max())
        assert ks < 0.35, f"KS distance {ks:.3f} exceeds tolerance"


class TestExperimentStreamTraining:
    def _ds(self, n=6):
        return build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=n)

    def test_stream_train_after_stream_subsample(self):
        exp = (Experiment.from_case(sst_case())
               .with_dataset(self._ds()).with_seed(0)
               .subsample(mode="stream", ranks=2)
               .train(mode="stream"))
        result = exp.train_artifact.result
        assert np.isfinite(result.final_test_loss)
        assert exp.train_artifact.meta["mode"] == "stream"
        assert result.meta["feed"]["kind"] == "StreamFeed"
        assert result.meta["feed"]["samples"] > 0
        assert "Evaluation on test set" in exp.report()

    def test_stream_train_implies_stream_subsample(self):
        exp = (Experiment.from_case(sst_case())
               .with_dataset(self._ds()).with_seed(0)
               .train(mode="stream"))
        assert exp.subsample_artifact.result.meta["mode"] == "stream"
        assert np.isfinite(exp.train_artifact.result.final_test_loss)

    def test_batch_train_from_stream_subsample_still_fails_clearly(self):
        exp = (Experiment.from_case(sst_case())
               .with_dataset(self._ds()).with_seed(0)
               .subsample(mode="stream"))
        with pytest.raises(ValueError, match="stream-mode subsample"):
            exp.train()

    def test_invalid_mode_rejected(self):
        exp = Experiment.from_case(sst_case()).with_dataset(self._ds())
        with pytest.raises(ValueError, match="mode"):
            exp.train(mode="banana")

    def test_stream_ddp_uses_sharded_feed(self):
        exp = (Experiment.from_case(sst_case())
               .with_dataset(self._ds()).with_seed(0).with_train_ranks(2)
               .subsample(mode="stream", ranks=2)
               .train(mode="stream"))
        result = exp.train_artifact.result
        assert result.meta["feed"]["kind"] == "ShardedFeed"
        assert result.meta["ranks"] == 2
        assert np.isfinite(result.final_test_loss)

    def test_stream_ddp_owned_shards_per_rank(self, tmp_path):
        """Sharded sources give each DDP rank a private owned-shard source."""
        shard_dir = str(tmp_path / "shards")
        save_dataset(self._ds(), shard_dir)
        with ShardDirSource(shard_dir, max_cached=2) as src:
            exp = (Experiment.from_case(sst_case())
                   .with_source(src).with_seed(0).with_train_ranks(2)
                   .subsample(mode="stream", ranks=2)
                   .train(mode="stream"))
        result = exp.train_artifact.result
        assert result.meta["feed"]["kind"] == "ShardedFeed"
        # per-rank owned sources are reopened as the codec-agnostic class
        assert result.meta["feed"]["source"] == "ShardDirSource"
        assert np.isfinite(result.final_test_loss)

    def test_stream_serial_vs_ddp_both_finite_and_deterministic(self):
        def run(ranks):
            exp = (Experiment.from_case(sst_case())
                   .with_dataset(self._ds()).with_seed(0).with_train_ranks(ranks)
                   .subsample(mode="stream")
                   .train(mode="stream"))
            return exp.train_artifact.result

        a, b = run(2), run(2)
        assert a.train_losses == b.train_losses
        assert a.final_test_loss == b.final_test_loss

    def test_lstm_stream_training_on_drag(self):
        of2d = build_dataset("OF2D", scale=0.4, rng=0, n_snapshots=20)
        case = CaseConfig(
            shared=SharedConfig(dims=2),
            subsample=SubsampleConfig(
                hypercubes="random", method="random", num_hypercubes=3,
                num_samples=16, num_clusters=4, nxsl=12, nysl=12, nzsl=1,
            ),
            train=TrainConfig(epochs=3, batch=4, window=3, arch="lstm"),
        )
        exp = (Experiment.from_case(case)
               .with_dataset(of2d).with_seed(0)
               .subsample(mode="stream")
               .train(mode="stream"))
        result = exp.train_artifact.result
        assert np.isfinite(result.final_test_loss)
        assert result.meta["feed"]["window"] == 3


class TestExperimentTune:
    def test_tune_records_artifact_with_best_config(self):
        ds = build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=4)
        exp = (Experiment.from_case(sst_case(window=1))
               .with_dataset(ds).with_seed(0)
               .tune(n_trials=3, epochs=2))
        art = exp.tune_artifact
        assert len(art.trials) == 3
        assert art.best.score == min(t.score for t in art.trials)
        assert "lr" in art.best.config and "batch" in art.best.config
        assert "Best of 3 trials" in exp.report()

    def test_tune_roundtrip(self, tmp_path):
        from repro.api import TuneArtifact

        ds = build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=4)
        exp = (Experiment.from_case(sst_case(window=1))
               .with_dataset(ds).with_seed(0)
               .tune(n_trials=2, epochs=2))
        path = exp.tune_artifact.save(str(tmp_path / "tune"))
        loaded = TuneArtifact.load(path)
        assert loaded.best.config == exp.tune_artifact.best.config
        assert loaded.best.score == pytest.approx(exp.tune_artifact.best.score)
        assert len(loaded.trials) == 2
        assert loaded.meta["n_trials"] == 2

    def test_tune_deterministic_per_seed(self):
        ds = build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=4)

        def run():
            return (Experiment.from_case(sst_case(window=1))
                    .with_dataset(ds).with_seed(0)
                    .tune(n_trials=2, epochs=2)).tune_artifact

        a, b = run(), run()
        assert a.best.config == b.best.config
        assert a.best.score == b.best.score

    def test_tune_rejects_stream_subsample(self):
        ds = build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=4)
        exp = (Experiment.from_case(sst_case(window=1))
               .with_dataset(ds).subsample(mode="stream"))
        with pytest.raises(ValueError, match="batch mode"):
            exp.tune(n_trials=1)

    def test_tune_rejects_unsupported_space_params(self):
        from repro.train import SearchSpace

        ds = build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=4)
        exp = Experiment.from_case(sst_case(window=1)).with_dataset(ds)
        with pytest.raises(ValueError, match="patience"):
            exp.tune(n_trials=1, space=SearchSpace({
                "lr": ("log", 1e-4, 1e-2), "patience": ("int", 5, 30),
            }))

    def test_tune_rejects_train_ranks(self):
        ds = build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=4)
        exp = (Experiment.from_case(sst_case(window=1))
               .with_dataset(ds).with_train_ranks(2))
        with pytest.raises(ValueError, match="serially"):
            exp.tune(n_trials=1)

    def test_tune_honors_epochs_override(self):
        ds = build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=4)
        exp = (Experiment.from_case(sst_case(window=1))
               .with_dataset(ds).with_seed(0).with_epochs(1)
               .tune(n_trials=1))
        assert exp.tune_artifact.meta["epochs_per_trial"] == 1

    def test_tune_artifact_nonfinite_score_roundtrip(self, tmp_path):
        from repro.api import TuneArtifact
        from repro.train import Trial

        art = TuneArtifact(
            meta={"n_trials": 2},
            best=Trial(config={"lr": 1e-3}, score=0.5),
            trials=[Trial(config={"lr": 1e-3}, score=0.5),
                    Trial(config={"lr": 9.0}, score=float("inf"))],
        )
        path = art.save(str(tmp_path / "tune"))
        # The document must be strict RFC JSON (no bare Infinity token).
        import json

        with open(path, encoding="utf-8") as fh:
            json.load(fh, parse_constant=lambda s: pytest.fail(f"non-RFC {s}"))
        loaded = TuneArtifact.load(path)
        assert loaded.trials[1].score == float("inf")
        assert loaded.best.score == 0.5

class TestShuffleBuffer:
    """Bounded streaming shuffle between the window assembler and batcher."""

    def test_yields_input_multiset_bounded_displacement(self):
        from repro.train import ShuffleBuffer

        cap = 8
        out = list(ShuffleBuffer(cap, np.random.default_rng(5))(iter(range(1000))))
        assert sorted(out) == list(range(1000))
        assert out != list(range(1000))
        # An item cannot be emitted before the buffer has seen it: position
        # of item v is at least v - capacity, the memory bound's signature.
        for pos, v in enumerate(out):
            assert pos >= v - cap

    def test_full_permutation_when_stream_fits(self):
        from repro.train import ShuffleBuffer

        out = list(ShuffleBuffer(100, np.random.default_rng(0))(iter(range(30))))
        assert sorted(out) == list(range(30)) and out != list(range(30))

    def test_deterministic_per_rng(self):
        from repro.train import ShuffleBuffer

        runs = [
            list(ShuffleBuffer(8, np.random.default_rng(5))(iter(range(500))))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_capacity_validation(self):
        from repro.train import ShuffleBuffer

        with pytest.raises(ValueError):
            ShuffleBuffer(0, np.random.default_rng(0))

    def test_stream_feed_shuffle_reorders_not_resamples(self):
        """A shuffled feed emits the same sample multiset per epoch, in a
        different (but seed-deterministic) order, and shuffle=0 stays the
        byte-identical arrival-order stream."""
        case = sst_case()
        ds = build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=8)
        sres = subsample(ds, case, seed=0, mode="stream")

        def batches(shuffle):
            assembler = stream_assembler(open_source(ds), case, sres.points)
            feed = StreamFeed(open_source(ds), assembler, batch=4, seed=0,
                              shuffle=shuffle)
            return [x for xb, _ in feed.train_batches(0) for x in xb]

        plain, shuffled, shuffled2 = batches(0), batches(32), batches(32)
        key = lambda xs: sorted(x.tobytes() for x in xs)
        assert key(plain) == key(shuffled)  # same samples...
        assert [x.tobytes() for x in plain] != [x.tobytes() for x in shuffled]
        assert [x.tobytes() for x in shuffled] == [x.tobytes() for x in shuffled2]

    def test_shuffled_stream_loss_ks_bounded_vs_offline(self):
        """Acceptance: with the shuffle buffer on, the stream fit stays
        within the same KS bound of the offline (fully shuffled) fit that
        the arrival-order stream fit is held to."""
        case = sst_case(epochs=5, num_hypercubes=6)
        ds = build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=10)

        def pointwise_errors(model, batches):
            errs = []
            model.eval()
            with no_grad():
                for xb, yb in batches:
                    pred = model(Tensor(xb)).data
                    errs.append(np.abs(pred - yb).ravel())
            return np.sort(np.concatenate(errs))

        sres = subsample(ds, case, seed=0, mode="stream", nranks=2)
        assembler = stream_assembler(open_source(ds), case, sres.points)
        sfeed = StreamFeed(open_source(ds), assembler, batch=4, test_frac=0.2,
                           seed=0, shuffle=64)
        smodel = build_model_for_case(case, sfeed.spec, rng=0)
        sfit = TrainLoop(smodel, seed=0).fit(sfeed, epochs=5)
        errs_s = pointwise_errors(smodel, sfeed.eval_batches())

        bres = subsample(ds, case, seed=0)
        data = build_reconstruction_data(ds, bres, window=2, horizon=1)
        bmodel = build_model_for_case(case, data, rng=0)
        bfeed = ArrayFeed(data.x, data.y, batch=4, test_frac=0.2, seed=0)
        bfit = TrainLoop(bmodel, seed=0).fit(bfeed, epochs=5)
        errs_b = pointwise_errors(bmodel, bfeed.eval_batches())

        ratio = sfit.final_test_loss / bfit.final_test_loss
        assert 0.2 < ratio < 5.0, f"stream/offline loss ratio {ratio:.2f}"
        grid = np.linspace(0.0, max(errs_s.max(), errs_b.max()), 512)
        cdf_s = np.searchsorted(errs_s, grid) / len(errs_s)
        cdf_b = np.searchsorted(errs_b, grid) / len(errs_b)
        ks = float(np.abs(cdf_s - cdf_b).max())
        assert ks < 0.35, f"KS distance {ks:.3f} exceeds tolerance"

    def test_shuffle_state_roundtrip_resumes_draws(self):
        """The feed cursor carries the shuffle RNG: restoring it replays
        the identical remaining shuffle sequence."""
        case = sst_case()
        ds = build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=8)
        sres = subsample(ds, case, seed=0, mode="stream")

        def feed():
            assembler = stream_assembler(open_source(ds), case, sres.points)
            return StreamFeed(open_source(ds), assembler, batch=4, seed=0,
                              shuffle=32)

        a, b = feed(), feed()
        list(a.train_batches(0))  # advance epoch 0
        b.load_state(a.state())  # b never streamed; jump to a's cursor
        xa = [x.tobytes() for xb, _ in a.train_batches(1) for x in xb]
        xb_ = [x.tobytes() for xb, _ in b.train_batches(1) for x in xb]
        assert xa == xb_
