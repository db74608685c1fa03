"""End-to-end tests for the repro.api Experiment facade and Artifacts."""

import numpy as np
import pytest

from repro.api import Experiment, SubsampleArtifact, TrainArtifact
from repro.data import ShardDirSource, load_dataset, save_dataset
from repro.runspec import SpecError
from repro.utils.config import CaseConfig, SharedConfig, SubsampleConfig, TrainConfig

CASE_YAML = """
shared:
  dims: 3
  dtype: sst-binary
  input_vars: [u, v, w]
  output_vars: p
  cluster_var: pv
  gravity: z
  fileprefix: "api-test"
subsample:
  hypercubes: maxent
  num_hypercubes: 3
  method: maxent
  num_samples: 64
  num_clusters: 4
  nxsl: 8
  nysl: 8
  nzsl: 8
train:
  epochs: 2
  batch: 4
  window: 1
  arch: MLP_transformer
"""


def make_case(**sub_overrides):
    sub = dict(
        hypercubes="maxent", method="maxent", num_hypercubes=3,
        num_samples=64, num_clusters=4, nxsl=8, nysl=8, nzsl=8,
    )
    sub.update(sub_overrides)
    return CaseConfig(
        shared=SharedConfig(dims=3),
        subsample=SubsampleConfig(**sub),
        train=TrainConfig(epochs=2, batch=4, window=1, arch="mlp_transformer"),
    )


@pytest.fixture()
def case_file(tmp_path):
    path = tmp_path / "case.yaml"
    path.write_text(CASE_YAML)
    return str(path)


class TestConstruction:
    def test_from_case_accepts_path_dict_and_config(self, case_file):
        for case in (case_file, {"subsample": {"num_hypercubes": 3}}, make_case()):
            exp = Experiment.from_case(case)
            assert isinstance(exp.case, CaseConfig)

    def test_fluent_builders_chain(self, case_file):
        exp = (Experiment.from_case(case_file)
               .with_ranks(2).with_train_ranks(2).with_seed(7)
               .with_scale(0.5).with_epochs(3))
        assert (exp.ranks, exp.train_ranks, exp.seed, exp.scale, exp.epochs) == \
            (2, 2, 7, 0.5, 3)

    def test_builder_validation(self):
        """The setters only record; the stage call rejects, by RunSpec's rules."""
        with pytest.raises(SpecError, match="ranks"):
            Experiment.from_case(make_case()).with_ranks(0).subsample()
        with pytest.raises(SpecError, match="scale"):
            Experiment.from_case(make_case()).with_scale(0.0).subsample()
        with pytest.raises(SpecError, match="epochs"):
            Experiment.from_case(make_case()).with_epochs(0).train()

    def test_dataset_mutation_after_stage_refused(self):
        """Once a stage has run, seed/scale/dataset changes would desync the
        recorded artifacts from the dataset — they must be rejected."""
        from repro.data import build_dataset

        exp = Experiment.from_case(make_case()).with_scale(0.5).subsample()
        with pytest.raises(RuntimeError, match="after a stage has run"):
            exp.with_seed(7)
        with pytest.raises(RuntimeError, match="after a stage has run"):
            exp.with_scale(0.25)
        with pytest.raises(RuntimeError, match="after a stage has run"):
            exp.with_dataset(build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=2))
        # stage-only knobs stay adjustable between stages
        exp.with_epochs(2).with_train_ranks(1).train()
        assert "train" in exp.artifacts

    def test_artifact_access_before_run_raises(self):
        exp = Experiment.from_case(make_case())
        with pytest.raises(KeyError, match="subsample"):
            exp.subsample_artifact
        with pytest.raises(KeyError, match="train"):
            exp.train_artifact


class TestEndToEnd:
    def test_subsample_train_report_chain(self, case_file):
        report = (
            Experiment.from_case(case_file)
            .with_ranks(2)
            .with_seed(0)
            .with_scale(0.5)
            .with_epochs(2)
            .subsample()
            .train()
            .report()
        )
        assert "Subsampled" in report
        assert "Elapsed Time" in report
        assert "Total Energy Consumed" in report
        assert "Evaluation on test set" in report

    def test_train_implies_subsample(self, case_file):
        exp = (Experiment.from_case(case_file)
               .with_scale(0.5).with_epochs(2).train())
        assert "subsample" in exp.artifacts
        assert "train" in exp.artifacts
        assert np.isfinite(exp.train_artifact.result.final_test_loss)

    def test_matches_direct_pipeline(self, case_file):
        """The facade must be a facade: same result as calling subsample()."""
        from repro.data import load_dataset
        from repro.sampling import subsample

        exp = (Experiment.from_case(case_file)
               .with_ranks(2).with_seed(3).with_scale(0.5).subsample())
        case = exp.case
        ds = load_dataset(case.shared.dtype, path=None, scale=0.5, rng=3)
        ref = subsample(ds, case, nranks=2, seed=3)
        got = exp.subsample_artifact.result
        assert np.array_equal(got.selected_cube_ids, ref.selected_cube_ids)
        assert len(got.points) == len(ref.points)

    def test_entropy_selector_via_facade(self):
        exp = (Experiment.from_case(make_case(hypercubes="entropy"))
               .with_scale(0.5).subsample())
        res = exp.subsample_artifact.result
        assert res.meta["hypercubes"] == "entropy"
        assert res.points is not None


class TestSources:
    """The facade accepts all three SnapshotSource kinds (acceptance)."""

    def _dataset(self):
        from repro.data import build_dataset

        return build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=4)

    def test_with_source_accepts_all_three_kinds(self, tmp_path):
        from repro.data import (
            InMemorySource,
            ShardDirSource,
            save_dataset,
            stream_dataset,
        )

        ds = self._dataset()
        save_dataset(ds, str(tmp_path))
        sources = [
            InMemorySource(ds),
            ShardDirSource(str(tmp_path), max_cached=2),
            stream_dataset("sst-binary", scale=0.5, seed=0, n_snapshots=4),
        ]
        results = []
        for src in sources:
            exp = Experiment.from_case(make_case()).with_source(src).subsample()
            res = exp.subsample_artifact.result
            results.append(res)
            assert exp.subsample_artifact.meta["source"] == type(src).__name__
        # All three ingestion modes agree exactly.
        for other in results[1:]:
            assert np.array_equal(results[0].selected_cube_ids, other.selected_cube_ids)
            assert np.array_equal(results[0].points.coords, other.points.coords)

    def test_with_source_coerces_dataset_and_path(self, tmp_path):
        from repro.data import save_dataset
        from repro.data.sources import InMemorySource, ShardDirSource

        ds = self._dataset()
        exp = Experiment.from_case(make_case()).with_source(ds)
        assert isinstance(exp.source, InMemorySource)
        assert exp.dataset is ds  # with_dataset sugar keeps working
        save_dataset(ds, str(tmp_path))
        exp2 = Experiment.from_case(make_case()).with_source(str(tmp_path))
        assert isinstance(exp2.source, ShardDirSource)

    def test_dataset_property_refuses_non_resident_sources(self, tmp_path):
        from repro.data import save_dataset

        save_dataset(self._dataset(), str(tmp_path))
        exp = Experiment.from_case(make_case()).with_source(str(tmp_path))
        with pytest.raises(RuntimeError, match="never\\s+materializes"):
            exp.dataset

    def test_with_source_refused_after_stage(self):
        exp = Experiment.from_case(make_case()).with_scale(0.5).subsample()
        with pytest.raises(RuntimeError, match="after a stage has run"):
            exp.with_source(self._dataset())

    def test_stream_mode_records_artifact(self):
        exp = (Experiment.from_case(make_case())
               .with_dataset(self._dataset())
               .subsample(mode="stream"))
        res = exp.subsample_artifact.result
        assert res.meta["mode"] == "stream"
        assert exp.subsample_artifact.meta["mode"] == "stream"
        n = make_case().subsample
        assert res.n_samples == n.num_hypercubes * n.num_samples
        assert "Subsampled" in exp.report()

    def test_train_after_stream_subsample_fails_clearly(self):
        """Regression: the fluent chain must not die deep in train/data.py
        with a 'cube_shape' KeyError — stream results have no cubes."""
        exp = (Experiment.from_case(make_case())
               .with_dataset(self._dataset())
               .subsample(mode="stream"))
        with pytest.raises(ValueError, match="stream-mode subsample"):
            exp.train()

    def test_stream_mode_multirank(self):
        """Stream mode is rank-parallel: with_ranks / the ranks= override
        both drive the multi-producer merge path."""
        exp = (Experiment.from_case(make_case())
               .with_dataset(self._dataset()).with_ranks(2)
               .subsample(mode="stream"))
        res = exp.subsample_artifact.result
        assert res.meta["mode"] == "stream" and res.meta["ranks"] == 2
        assert exp.subsample_artifact.meta["ranks"] == 2
        n = make_case().subsample
        assert res.n_samples == n.num_hypercubes * n.num_samples

        exp2 = (Experiment.from_case(make_case())
                .with_dataset(self._dataset())
                .subsample(mode="stream", ranks=3))
        assert exp2.subsample_artifact.result.meta["ranks"] == 3
        assert exp2.ranks == 1  # per-call override leaves the config alone
        with pytest.raises(ValueError, match="ranks"):
            Experiment.from_case(make_case()).subsample(mode="stream", ranks=0)

    def test_fit_settings_ride_past_the_subsample(self):
        """A stage's spec holds only the settings that stage uses: epochs and
        the stream shuffle pass a batch subsample and reach the stream fit."""
        exp = (Experiment.from_case(make_case()).with_dataset(self._dataset())
               .with_epochs(2).with_stream_shuffle(4).subsample().train(mode="stream"))
        assert exp.train_artifact.result.meta["feed"]["shuffle"] == 4
        assert exp.train_artifact.meta["epochs"] == 2

    def test_train_from_sharded_source(self, tmp_path):
        """Training windows assemble straight from an out-of-core source."""
        from repro.data import ShardDirSource, save_dataset

        save_dataset(self._dataset(), str(tmp_path))
        src = ShardDirSource(str(tmp_path), max_cached=2)
        exp = (Experiment.from_case(make_case())
               .with_source(src).with_epochs(2).train())
        assert np.isfinite(exp.train_artifact.result.final_test_loss)
        assert src.cache_info()["gauges"]["max_resident"] <= 2


class TestArtifacts:
    def test_subsample_artifact_roundtrip(self, tmp_path):
        exp = (Experiment.from_case(make_case())
               .with_scale(0.5).with_seed(5).subsample())
        art = exp.subsample_artifact
        path = art.save(str(tmp_path / "sub"))
        loaded = SubsampleArtifact.load(path)

        assert loaded.meta["seed"] == 5
        assert loaded.meta["case"] == exp.case.to_dict()
        assert np.array_equal(loaded.result.selected_cube_ids,
                              art.result.selected_cube_ids)
        assert np.array_equal(loaded.result.points.coords, art.result.points.coords)
        for k, v in art.result.points.values.items():
            assert np.array_equal(loaded.result.points.values[k], v)
        assert loaded.result.n_points_scanned == art.result.n_points_scanned
        # Stored metadata alone reproduces the run.
        case = CaseConfig.from_dict(loaded.meta["case"])
        redo = (Experiment.from_case(case)
                .with_scale(loaded.meta["scale"])
                .with_seed(loaded.meta["seed"])
                .subsample())
        assert np.array_equal(redo.subsample_artifact.result.selected_cube_ids,
                              loaded.result.selected_cube_ids)

    def test_owned_stream_artifact_saves_reproducible_bytes(self, tmp_path):
        """Prefetch timing moves an owned run's cache counters, so a saved
        artifact leaves them out: they stay on the in-memory result, and
        two identical runs save the same bytes."""
        shard_dir = str(tmp_path / "shards")
        save_dataset(load_dataset("sst-binary", scale=0.5, rng=5), shard_dir)
        saved = []
        for run in range(2):
            with ShardDirSource(shard_dir, max_cached=2, prefetch=2) as src:
                exp = (Experiment.from_case(make_case()).with_source(src).with_seed(5)
                       .subsample(mode="stream", ranks=2, owned_shards=True))
            art = exp.subsample_artifact
            assert art.result.meta["cache"]["total"]["ranks"] == 2
            path = art.save(str(tmp_path / f"run{run}"))
            assert "cache" not in SubsampleArtifact.load(path).result.meta
            with open(path, "rb") as fh:
                saved.append(fh.read())
        assert saved[0] == saved[1]

    def test_full_method_artifact_roundtrip(self, tmp_path):
        """method='full' results hold dense cubes, not points; they must
        survive save/load instead of being silently dropped."""
        case = CaseConfig(
            shared=SharedConfig(dims=3),
            subsample=SubsampleConfig(
                hypercubes="maxent", method="full", num_hypercubes=2,
                num_clusters=4, nxsl=8, nysl=8, nzsl=8,
            ),
            train=TrainConfig(epochs=2, batch=4, window=1, arch="cnn_transformer"),
        )
        exp = Experiment.from_case(case).with_scale(0.5).subsample()
        art = exp.subsample_artifact
        assert art.result.cubes is not None and art.result.n_samples > 0
        loaded = SubsampleArtifact.load(art.save(str(tmp_path / "full")))
        assert loaded.result.n_samples == art.result.n_samples
        assert len(loaded.result.cubes) == len(art.result.cubes)
        for got, ref in zip(loaded.result.cubes, art.result.cubes):
            assert got.origin == ref.origin
            assert got.meta["cube_id"] == ref.meta["cube_id"]
            for var, block in ref.variables.items():
                assert np.array_equal(got.variables[var], block)

    def test_seed_change_invalidates_cached_dataset(self):
        """with_seed after the dataset was lazily loaded must reload it, or
        the artifact's 'reproducible from metadata' guarantee breaks."""
        exp = Experiment.from_case(make_case()).with_scale(0.5)
        _ = exp.dataset  # force the lazy load at seed 0
        ids_cached = exp.with_seed(7).subsample().subsample_artifact.result.selected_cube_ids
        ids_fresh = (Experiment.from_case(make_case()).with_scale(0.5).with_seed(7)
                     .subsample().subsample_artifact.result.selected_cube_ids)
        assert np.array_equal(ids_cached, ids_fresh)

    def test_train_artifact_roundtrip(self, tmp_path):
        exp = (Experiment.from_case(make_case())
               .with_scale(0.5).with_epochs(2).train())
        art = exp.train_artifact
        path = art.save(str(tmp_path / "fit"))
        loaded = TrainArtifact.load(path)
        assert loaded.result.train_losses == [float(v) for v in art.result.train_losses]
        assert loaded.result.final_test_loss == pytest.approx(art.result.final_test_loss)
        assert loaded.result.epochs_run == art.result.epochs_run
        assert loaded.meta["case"] == exp.case.to_dict()

    def test_train_result_meta_survives_roundtrip(self, tmp_path):
        """Regression: the fit's provenance — feed kind/geometry, resume and
        checkpoint info — must survive TrainArtifact.save/load intact."""
        ck = str(tmp_path / "ck.npz")
        exp = (Experiment.from_case(make_case())
               .with_scale(0.5).with_epochs(2).train(checkpoint=ck))
        art = exp.train_artifact
        assert art.result.meta["feed"]["kind"] == "ArrayFeed"
        assert art.meta["mode"] == "batch"
        assert art.meta["checkpoint"] == ck
        loaded = TrainArtifact.load(art.save(str(tmp_path / "fit")))
        assert loaded.result.meta == art.result.meta
        assert loaded.meta["mode"] == "batch"
        assert loaded.meta["checkpoint"] == ck

        # Stream-mode provenance (feed cursor geometry) round-trips too.
        exp2 = (Experiment.from_case(make_case())
                .with_scale(0.5).with_epochs(2)
                .subsample(mode="stream").train(mode="stream"))
        art2 = exp2.train_artifact
        assert art2.result.meta["feed"]["kind"] == "StreamFeed"
        loaded2 = TrainArtifact.load(art2.save(str(tmp_path / "fit2")))
        assert loaded2.result.meta == art2.result.meta
        assert loaded2.result.meta["feed"]["samples"] > 0
        assert loaded2.meta["mode"] == "stream"

    def test_experiment_save_all(self, tmp_path):
        exp = (Experiment.from_case(make_case())
               .with_scale(0.5).with_epochs(2).train())
        paths = exp.save(str(tmp_path / "run"))
        assert set(paths) == {"subsample", "train"}
        assert SubsampleArtifact.load(paths["subsample"]).result.points is not None
        assert TrainArtifact.load(paths["train"]).result.epochs_run >= 1

    def test_lazy_package_export(self):
        import repro

        assert repro.Experiment is Experiment
        with pytest.raises(AttributeError):
            repro.not_a_real_name
