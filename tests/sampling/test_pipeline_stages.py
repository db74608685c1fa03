"""Seed-for-seed equivalence and composition tests for the stage pipeline.

The GOLDEN table below was captured by running the pre-refactor monolithic
``run_subsample()`` (repo state at commit f1093e4) on the synthetic case
defined here; the stage-based :class:`SubsamplePipeline` must keep producing
byte-identical cube selections and point sets for every method and rank
count.
"""

import hashlib

import numpy as np
import pytest

from repro.data import build_dataset
from repro.parallel import run_spmd
from repro.sampling import SubsamplePipeline, subsample
from repro.sampling.stages import (
    CubeIndexStage,
    CubeSelectStage,
    GatherStage,
    Phase1SummarizeStage,
    PointSampleStage,
    Stage,
)
from repro.utils.config import CaseConfig, SharedConfig, SubsampleConfig, TrainConfig

# (method, nranks) -> (selected_cube_ids, sha256[:16] of coords+time+values)
GOLDEN = {
    ("maxent", 1): ([0, 2, 3], "dd635605d60d8ac8"),
    ("maxent", 2): ([0, 2, 3], "75f443abd69bf8bc"),
    ("random", 1): ([0, 4, 6], "c305397eb4b1e76c"),
    ("random", 2): ([0, 4, 6], "027f4c0a9a500be8"),
    ("uips", 1): ([0, 2, 3], "a998b8bf1b00765d"),
    ("uips", 2): ([0, 2, 3], "9675a2ed73002126"),
}


@pytest.fixture(scope="module")
def sst():
    return build_dataset("SST-P1F4", scale=1.0, rng=0, n_snapshots=2)


def make_case(method="maxent", hypercubes="maxent"):
    return CaseConfig(
        shared=SharedConfig(dims=3),
        subsample=SubsampleConfig(
            hypercubes=hypercubes,
            method=method,
            num_hypercubes=3,
            num_samples=32,
            num_clusters=5,
            nxsl=16, nysl=16, nzsl=16,
        ),
        train=TrainConfig(arch="mlp_transformer"),
    )


def points_digest(ps):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ps.coords).tobytes())
    h.update(np.ascontiguousarray(
        np.broadcast_to(np.asarray(ps.time), (len(ps),))).tobytes())
    for k in sorted(ps.values):
        h.update(k.encode())
        h.update(np.ascontiguousarray(ps.values[k]).tobytes())
    return h.hexdigest()[:16]


class TestSeedEquivalence:
    @pytest.mark.parametrize("method,nranks", sorted(GOLDEN))
    def test_matches_pre_refactor_golden(self, sst, method, nranks):
        ids, digest = GOLDEN[(method, nranks)]
        hypercubes = "random" if method == "random" else "maxent"
        res = subsample(sst, make_case(method, hypercubes), nranks=nranks, seed=0)
        assert list(map(int, res.selected_cube_ids)) == ids
        assert points_digest(res.points) == digest

    @pytest.mark.parametrize("method", ["maxent", "random", "uips"])
    def test_explicit_pipeline_equals_wrapper(self, sst, method):
        """Driving SubsamplePipeline directly must equal the subsample() wrapper."""
        hypercubes = "random" if method == "random" else "maxent"
        cfg = make_case(method, hypercubes)
        ref = subsample(sst, cfg, nranks=2, seed=0)

        pipe = SubsamplePipeline()
        spmd = run_spmd(pipe.run, 2, sst, cfg, seed=0)
        got = spmd[0]
        assert np.array_equal(got.selected_cube_ids, ref.selected_cube_ids)
        assert points_digest(got.points) == points_digest(ref.points)


class TestSourceEquivalence:
    """`subsample()` accepts every SnapshotSource kind; the in-memory source
    must reproduce the pre-refactor goldens byte-for-byte, and the
    out-of-core / in-situ sources must match it exactly."""

    @pytest.mark.parametrize("method,nranks", sorted(GOLDEN))
    def test_in_memory_source_matches_golden(self, sst, method, nranks):
        from repro.data import InMemorySource

        ids, digest = GOLDEN[(method, nranks)]
        hypercubes = "random" if method == "random" else "maxent"
        res = subsample(InMemorySource(sst), make_case(method, hypercubes),
                        nranks=nranks, seed=0)
        assert list(map(int, res.selected_cube_ids)) == ids
        assert points_digest(res.points) == digest

    def test_sharded_source_matches_golden(self, sst, tmp_path):
        from repro.data import ShardDirSource, save_dataset

        save_dataset(sst, str(tmp_path))
        src = ShardDirSource(str(tmp_path), max_cached=1)
        ids, digest = GOLDEN[("maxent", 2)]
        res = subsample(src, make_case(), nranks=2, seed=0)
        assert list(map(int, res.selected_cube_ids)) == ids
        assert points_digest(res.points) == digest

    def test_simulation_source_matches_golden(self):
        from repro.data import stream_dataset

        src = stream_dataset("sst-binary", scale=1.0, seed=0, n_snapshots=2)
        ids, digest = GOLDEN[("maxent", 1)]
        res = subsample(src, make_case(), nranks=1, seed=0)
        assert list(map(int, res.selected_cube_ids)) == ids
        assert points_digest(res.points) == digest
        # The two-phase pipeline revisits: the sim replayed, never stored all.
        assert src.restarts >= 1

    def test_shard_path_is_coerced(self, sst, tmp_path):
        from repro.data import save_dataset

        save_dataset(sst, str(tmp_path))
        ids, digest = GOLDEN[("maxent", 1)]
        res = subsample(str(tmp_path), make_case(), nranks=1, seed=0)
        assert list(map(int, res.selected_cube_ids)) == ids
        assert points_digest(res.points) == digest


class TestResultMeta:
    def test_meta_records_seed_and_config_snapshot(self, sst):
        cfg = make_case()
        res = subsample(sst, cfg, nranks=2, seed=17)
        assert res.meta["seed"] == 17
        assert res.meta["case"] == cfg.to_dict()
        # The snapshot is detached JSON-able data, not live config objects.
        assert res.meta["case"]["subsample"]["num_hypercubes"] == 3
        assert res.meta["case"]["train"]["arch"] == "mlp_transformer"


class TestComposition:
    def test_default_stage_names(self):
        names = [s.name for s in SubsamplePipeline().stages]
        assert names == [
            "cube-index", "phase1-summarize", "cube-select", "point-sample", "gather",
        ]
        assert all(isinstance(s, Stage) for s in SubsamplePipeline().stages)

    def test_selector_override_stage(self, sst):
        """A swapped CubeSelectStage overrides the case's hypercubes method."""
        cfg = make_case(hypercubes="maxent")
        pipe = SubsamplePipeline([
            CubeIndexStage(),
            Phase1SummarizeStage(),
            CubeSelectStage("random"),
            PointSampleStage(),
            GatherStage(),
        ])
        spmd = run_spmd(pipe.run, 1, sst, cfg, seed=0)
        forced = spmd[0]
        reference = subsample(sst, make_case(method="maxent", hypercubes="random"),
                              nranks=1, seed=0)
        assert np.array_equal(forced.selected_cube_ids, reference.selected_cube_ids)

    def test_custom_observer_stage(self, sst):
        """Arbitrary stages can be interleaved and see the shared context."""
        seen = {}

        class Spy:
            name = "spy"

            def run(self, ctx):
                seen["n_cubes"] = ctx.n_cubes
                seen["selected"] = np.asarray(ctx.selected).copy()

        stages = SubsamplePipeline.default_stages()
        stages.insert(4, Spy())  # after PointSample, before Gather
        pipe = SubsamplePipeline(stages)
        spmd = run_spmd(pipe.run, 1, sst, make_case(), seed=0)
        res = spmd[0]
        assert seen["n_cubes"] == res.n_candidate_cubes
        assert np.array_equal(seen["selected"], res.selected_cube_ids)
