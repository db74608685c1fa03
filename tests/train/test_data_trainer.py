"""Tests for training-data assembly and array fits (TrainLoop + ArrayFeed)."""

import numpy as np
import pytest

from repro.data import build_dataset
from repro.nn import LSTMRegressor, MLPTransformer, CNNTransformer
from repro.sampling import subsample
from repro.train import (
    ArrayFeed,
    TrainLoop,
    build_drag_data,
    build_reconstruction_data,
    train_test_split,
)
from repro.train.data import _windows
from repro.utils.config import CaseConfig, SharedConfig, SubsampleConfig, TrainConfig


@pytest.fixture(scope="module")
def sst():
    return build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=4)


@pytest.fixture(scope="module")
def of2d():
    return build_dataset("OF2D", scale=0.4, rng=0, n_snapshots=30)


def case(method="random", cube=8, num_hypercubes=4, num_samples=24, arch="mlp_transformer"):
    return CaseConfig(
        shared=SharedConfig(dims=3),
        subsample=SubsampleConfig(
            hypercubes="random", method=method, num_hypercubes=num_hypercubes,
            num_samples=num_samples, num_clusters=4, nxsl=cube, nysl=cube, nzsl=cube,
        ),
        train=TrainConfig(arch=arch),
    )


class TestWindows:
    def test_window_one(self):
        pairs = _windows(3, 1, 1)
        assert pairs == [([0], [0]), ([1], [1]), ([2], [2])]

    def test_window_two_horizon_one(self):
        pairs = _windows(4, 2, 1)
        assert pairs[0] == ([0, 1], [1])
        assert len(pairs) == 3

    def test_horizon_capped(self):
        with pytest.raises(ValueError):
            _windows(5, 2, 3)

    def test_too_few_snapshots(self):
        with pytest.raises(ValueError):
            _windows(1, 2, 1)


class TestSplit:
    def test_shapes_and_disjoint(self):
        x = np.arange(100)[:, None].astype(float)
        y = np.arange(100)[:, None].astype(float)
        xtr, ytr, xte, yte = train_test_split(x, y, test_frac=0.1, rng=0)
        assert len(xte) == 10 and len(xtr) == 90
        assert set(xtr[:, 0]) | set(xte[:, 0]) == set(range(100))
        assert not set(xtr[:, 0]) & set(xte[:, 0])

    def test_invalid_frac(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((4, 1)), np.zeros((4, 1)), test_frac=1.0)


class TestReconstructionData:
    def test_unstructured_shapes(self, sst):
        res = subsample(sst, case(), seed=0)
        data = build_reconstruction_data(sst, res, window=2, horizon=1)
        b, t, c, n = data.x.shape
        assert t == 2 and c == 3  # u, v, w
        assert data.y.shape[1:3] == (1, 1)  # T'=1, p only
        assert data.y.shape[3:] == (8, 8, 8)
        assert data.n_points == n
        # One sample per selected cube with enough history.
        assert b <= len(res.selected_cube_ids)

    def test_structured_shapes(self, sst):
        res = subsample(sst, case(method="full", arch="cnn_transformer"), seed=0)
        data = build_reconstruction_data(sst, res, window=1, horizon=1)
        assert data.x.shape[0] == len(res.cubes)
        assert data.x.shape[2:] == (3, 8, 8, 8)
        assert data.y.shape[2:] == (1, 8, 8, 8)
        assert data.n_points is None

    def test_selection_determines_samples(self, sst):
        """Different cube selections must yield different training sets."""
        a = subsample(sst, case(method="full", arch="cnn_transformer"), seed=0)
        b = subsample(sst, case(method="full", arch="cnn_transformer"), seed=3)
        da = build_reconstruction_data(sst, a, window=1, horizon=1)
        db = build_reconstruction_data(sst, b, window=1, horizon=1)
        if not np.array_equal(a.selected_cube_ids, b.selected_cube_ids):
            assert da.x.shape != db.x.shape or not np.allclose(da.x, db.x)

    def test_sensors_fixed_across_window(self, sst):
        """Within a window the same sensor locations are observed each step."""
        res = subsample(sst, case(num_hypercubes=4, num_samples=8), seed=0)
        data = build_reconstruction_data(sst, res, window=2, horizon=1)
        assert data.x.shape[1] == 2
        # Different timesteps of the same sample differ in values (flow
        # evolves) while the shape/sensor count is constant.
        assert not np.allclose(data.x[0, 0], data.x[0, 1])

    def test_requires_output_vars(self, of2d):
        res = subsample(of2d, _of2d_case(), seed=0)
        with pytest.raises(ValueError, match="no output variables"):
            build_reconstruction_data(of2d, res)


def _of2d_case(num_samples=16):
    return CaseConfig(
        shared=SharedConfig(dims=2),
        subsample=SubsampleConfig(
            hypercubes="random", method="random", num_hypercubes=3,
            num_samples=num_samples, num_clusters=4, nxsl=12, nysl=12, nzsl=1,
        ),
        train=TrainConfig(arch="lstm"),
    )


class TestDragData:
    def test_shapes(self, of2d):
        res = subsample(of2d, _of2d_case(), seed=0)
        x, y = build_drag_data(of2d, res, window=3)
        assert x.ndim == 3 and x.shape[1] == 3
        assert y.shape == (x.shape[0], 1, 1)
        assert x.shape[0] == of2d.n_snapshots - 2

    def test_targets_are_drag(self, of2d):
        res = subsample(of2d, _of2d_case(), seed=0)
        _, y = build_drag_data(of2d, res, window=1)
        assert np.allclose(y[:, 0, 0], of2d.target)

    def test_requires_target(self, sst):
        res = subsample(sst, case(), seed=0)
        with pytest.raises(ValueError, match="no global target"):
            build_drag_data(sst, res)


class TestTrainer:
    def test_fit_lstm_on_drag(self, of2d):
        res = subsample(of2d, _of2d_case(), seed=0)
        x, y = build_drag_data(of2d, res, window=3)
        model = LSTMRegressor(input_dim=x.shape[2], hidden=16, rng=0)
        loop = TrainLoop(model, lr=5e-3, seed=0)
        result = loop.fit(ArrayFeed(x, y, batch=8, seed=0), epochs=30)
        assert result.final_test_loss < result.test_losses[0]
        assert result.energy.total_energy > 0
        assert len(result.train_losses) == 30

    def test_fit_mlp_transformer(self, sst):
        res = subsample(sst, case(num_samples=16, num_hypercubes=3), seed=0)
        data = build_reconstruction_data(sst, res, window=1, horizon=1)
        model = MLPTransformer(
            in_channels=data.in_channels, n_points=data.n_points,
            out_channels=data.out_channels, grid=data.grid,
            window=1, horizon=1, d_model=16, depth=1, n_heads=2, rng=0,
        )
        loop = TrainLoop(model, seed=0)
        result = loop.fit(ArrayFeed(data.x, data.y, batch=4, seed=0), epochs=4)
        assert np.isfinite(result.final_test_loss)

    def test_fit_cnn_transformer(self, sst):
        res = subsample(sst, case(method="full", arch="cnn_transformer", num_hypercubes=3), seed=0)
        data = build_reconstruction_data(sst, res, window=1, horizon=1)
        model = CNNTransformer(
            in_channels=data.in_channels, out_channels=data.out_channels,
            grid=data.grid, window=1, horizon=1, d_model=16, depth=1, n_heads=2, rng=0,
        )
        loop = TrainLoop(model, seed=0)
        result = loop.fit(ArrayFeed(data.x, data.y, batch=2, seed=0), epochs=2)
        assert np.isfinite(result.final_test_loss)

    def test_report_greppable(self, of2d):
        res = subsample(of2d, _of2d_case(), seed=0)
        x, y = build_drag_data(of2d, res, window=2)
        model = LSTMRegressor(input_dim=x.shape[2], hidden=8, rng=0)
        result = TrainLoop(model, seed=0).fit(ArrayFeed(x, y, seed=0), epochs=2)
        text = result.report()
        assert "Evaluation on test set" in text
        assert "Total Energy Consumed" in text

    def test_ddp_trainer_matches_serial_loss_scale(self, of2d):
        """Distributed fit must produce a comparable loss to serial."""
        from repro.parallel import run_spmd

        res = subsample(of2d, _of2d_case(), seed=0)
        x, y = build_drag_data(of2d, res, window=2)

        def prog(comm):
            model = LSTMRegressor(input_dim=x.shape[2], hidden=8, rng=0)
            loop = TrainLoop(model, comm=comm, seed=0)
            feed = ArrayFeed(x, y, batch=8, seed=0, comm=loop.comm)
            return loop.fit(feed, epochs=10).final_test_loss

        serial = prog(__import__("repro.parallel", fromlist=["SerialComm"]).SerialComm())
        dist = run_spmd(prog, 2)
        assert np.isfinite(dist.values[0])
        # Same seed/protocol: losses in the same ballpark.
        assert dist.values[0] < max(10 * serial, serial + 1.0)

    def test_precision_flag(self, of2d):
        res = subsample(of2d, _of2d_case(), seed=0)
        x, y = build_drag_data(of2d, res, window=2)
        model = LSTMRegressor(input_dim=x.shape[2], hidden=8, rng=0)
        loop = TrainLoop(model, precision="bf16", seed=0)
        result = loop.fit(ArrayFeed(x, y, seed=0), epochs=2)
        assert np.isfinite(result.final_test_loss)

    def test_invalid_params(self):
        model = LSTMRegressor(input_dim=2, rng=0)
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((12, 3, 2)), rng.standard_normal((12, 1))
        with pytest.raises(ValueError):
            TrainLoop(model).fit(ArrayFeed(x, y), epochs=0)
        with pytest.raises(ValueError):
            ArrayFeed(x, y, batch=0)


class TestTuning:
    def test_finds_minimum_of_quadratic(self):
        from repro.train import SearchSpace, tune

        space = SearchSpace({"a": ("float", -2.0, 2.0), "b": ("log", 1e-3, 1e1)})

        def objective(cfg):
            return (cfg["a"] - 0.5) ** 2 + (np.log10(cfg["b"]) + 1) ** 2

        best, trials = tune(objective, space, n_trials=40, strategy="bayes", rng=0)
        assert len(trials) == 40
        assert abs(best.config["a"] - 0.5) < 0.5
        assert best.score < 0.5

    def test_bayes_beats_or_matches_random(self):
        from repro.train import SearchSpace, tune

        space = SearchSpace({"x": ("float", 0.0, 1.0), "y": ("float", 0.0, 1.0)})

        def objective(cfg):
            return (cfg["x"] - 0.3) ** 2 + (cfg["y"] - 0.7) ** 2

        scores_b, scores_r = [], []
        for seed in range(5):
            b, _ = tune(objective, space, n_trials=25, strategy="bayes", rng=seed)
            r, _ = tune(objective, space, n_trials=25, strategy="random", rng=seed)
            scores_b.append(b.score)
            scores_r.append(r.score)
        assert np.mean(scores_b) <= np.mean(scores_r) * 1.5

    def test_choice_and_int_params(self):
        from repro.train import SearchSpace, tune

        space = SearchSpace({
            "layers": ("int", 1, 4),
            "act": ("choice", ["relu", "tanh"]),
        })
        best, _ = tune(lambda c: c["layers"] + (0 if c["act"] == "tanh" else 1),
                       space, n_trials=15, rng=0)
        assert best.config["layers"] == 1
        assert best.config["act"] == "tanh"

    def test_nonfinite_scores_survived(self):
        from repro.train import SearchSpace, tune

        space = SearchSpace({"x": ("float", 0.0, 1.0)})
        best, trials = tune(
            lambda c: float("nan") if c["x"] > 0.5 else c["x"],
            space, n_trials=10, rng=0,
        )
        assert np.isfinite(best.score)
