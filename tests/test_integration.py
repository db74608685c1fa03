"""Cross-module integration tests: the full paper workflow per dataset.

Each test runs the complete chain — generate dataset → two-phase subsample
(parallel) → assemble training data → train a few epochs → evaluate — plus
the storage and metric paths, verifying the modules compose exactly as the
benches and examples use them.
"""

import numpy as np
import pytest

from repro.data import SubsampleStore, build_dataset
from repro.metrics import nrmse, pdf_match_js
from repro.nn import CNNTransformer, LSTMRegressor, MLPTransformer, Tensor, no_grad
from repro.sampling import subsample
from repro.train import ArrayFeed, TrainLoop, build_drag_data, build_reconstruction_data
from repro.utils.config import CaseConfig, SharedConfig, SubsampleConfig, TrainConfig


def case3d(method="maxent", hypercubes="maxent", cube=8, ns=64, arch="mlp_transformer"):
    return CaseConfig(
        shared=SharedConfig(dims=3),
        subsample=SubsampleConfig(
            hypercubes=hypercubes, method=method, num_hypercubes=4,
            num_samples=ns, num_clusters=4, nxsl=cube, nysl=cube, nzsl=cube,
        ),
        train=TrainConfig(arch=arch),
    )


class TestSSTWorkflow:
    @pytest.fixture(scope="class")
    def sst(self):
        return build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=4)

    def test_sampled_reconstruction_end_to_end(self, sst, tmp_path):
        res = subsample(sst, case3d(), nranks=2, seed=0)
        assert res.points is not None

        # Storage: feature-rich subsample is much smaller than raw fields.
        store = SubsampleStore(str(tmp_path))
        store.save("run", res.points)
        assert store.reduction_factor("run", sst.nbytes()) > 5

        data = build_reconstruction_data(sst, res, window=1, horizon=1)
        model = MLPTransformer(
            in_channels=data.in_channels, n_points=data.n_points,
            out_channels=data.out_channels, grid=data.grid,
            d_model=16, depth=1, n_heads=2, rng=0,
        )
        fit = TrainLoop(model, seed=0).fit(ArrayFeed(data.x, data.y, batch=4, seed=0), epochs=3)
        assert np.isfinite(fit.final_test_loss)
        assert fit.energy.total_energy > 0

        # Model predictions have the right scale structure.
        with no_grad():
            pred = model(Tensor(data.x[:2])).data
        assert pred.shape == data.y[:2].shape
        assert np.isfinite(nrmse(pred, data.y[:2]))

    def test_full_baseline_end_to_end(self, sst):
        res = subsample(sst, case3d(method="full", arch="cnn_transformer"), seed=0)
        data = build_reconstruction_data(sst, res, window=1, horizon=1)
        model = CNNTransformer(
            in_channels=data.in_channels, out_channels=data.out_channels,
            grid=data.grid, d_model=16, depth=1, n_heads=2, rng=0,
        )
        fit = TrainLoop(model, seed=0).fit(ArrayFeed(data.x, data.y, batch=2, seed=0), epochs=2)
        assert np.isfinite(fit.final_test_loss)

    def test_sampled_pdf_close_to_population(self, sst):
        res = subsample(sst, case3d(ns=128, cube=8), seed=0)
        population = np.concatenate([s.get("pv").ravel() for s in sst.snapshots])
        js = pdf_match_js(population, res.points.values["pv"])
        assert js < 0.5  # far from degenerate


class TestOF2DWorkflow:
    def test_drag_pipeline_end_to_end(self):
        ds = build_dataset("OF2D", scale=0.4, rng=0, n_snapshots=24)
        cfg = CaseConfig(
            shared=SharedConfig(dims=2),
            subsample=SubsampleConfig(
                hypercubes="random", method="maxent", num_hypercubes=3,
                num_samples=24, num_clusters=4, nxsl=12, nysl=12, nzsl=1,
            ),
            train=TrainConfig(arch="lstm", window=3),
        )
        res = subsample(ds, cfg, nranks=2, seed=0)
        x, y = build_drag_data(ds, res, window=3)
        model = LSTMRegressor(input_dim=x.shape[2], hidden=12, rng=0)
        fit = TrainLoop(model, lr=5e-3, seed=0).fit(ArrayFeed(x, y, batch=8, seed=0), epochs=8)
        # Even a short run must beat predicting the mean badly.
        assert fit.final_test_loss < 10 * np.var(ds.target)


class TestGESTSWorkflow:
    def test_isotropic_methods_comparable(self):
        """On isotropic data the methods produce similar-quality subsets."""
        ds = build_dataset("GESTS-2048", scale=0.5, rng=0, spinup_steps=5)
        population = ds.snapshots[0].get("enstrophy").ravel()
        js = {}
        for method in ("random", "maxent"):
            res = subsample(ds, case3d(method=method, hypercubes="random"), seed=0)
            js[method] = pdf_match_js(population, res.points.values["enstrophy"])
        assert js["maxent"] < 1.0 and js["random"] < 1.0


class TestTemporalIntoPipeline:
    def test_snapshot_selection_then_subsample(self):
        """§4.3 composition: pick informative snapshots, then sample them."""
        from repro.data import TurbulenceDataset
        from repro.sampling import select_snapshots

        ds = build_dataset("OF2D", scale=0.4, rng=0, n_snapshots=40)
        keep = select_snapshots(ds.snapshots, 8, "wz", method="maxent", rng=0)
        reduced = TurbulenceDataset(
            label=ds.label,
            snapshots=[ds.snapshots[i] for i in keep],
            input_vars=ds.input_vars, output_vars=[], cluster_var=ds.cluster_var,
            target=ds.target[keep],
        )
        cfg = CaseConfig(
            shared=SharedConfig(dims=2),
            subsample=SubsampleConfig(
                hypercubes="random", method="random", num_hypercubes=2,
                num_samples=16, num_clusters=4, nxsl=12, nysl=12, nzsl=1,
            ),
            train=TrainConfig(arch="lstm"),
        )
        res = subsample(reduced, cfg, seed=0)
        assert res.n_samples == 2 * 16
