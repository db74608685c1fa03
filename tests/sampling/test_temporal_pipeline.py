"""Tests for temporal selection and the distributed subsample pipeline."""

import numpy as np
import pytest

from repro.data import build_dataset
from repro.sampling import select_snapshots, js_divergence, subsample
from repro.sampling.pipeline import SubsamplePipeline
from repro.parallel import run_spmd
from repro.utils.config import CaseConfig, SharedConfig, SubsampleConfig, TrainConfig


@pytest.fixture(scope="module")
def of2d():
    return build_dataset("OF2D", scale=0.5, rng=0, n_snapshots=40)


@pytest.fixture(scope="module")
def sst():
    return build_dataset("SST-P1F4", scale=1.0, rng=0, n_snapshots=3)


def make_case(method="maxent", hypercubes="maxent", num_hypercubes=4,
              num_samples=64, cube=16, dims=3, arch="mlp_transformer"):
    return CaseConfig(
        shared=SharedConfig(dims=dims),
        subsample=SubsampleConfig(
            hypercubes=hypercubes,
            method=method,
            num_hypercubes=num_hypercubes,
            num_samples=num_samples,
            num_clusters=5,
            nxsl=cube, nysl=cube, nzsl=cube,
        ),
        train=TrainConfig(arch=arch),
    )


class TestTemporal:
    def test_js_symmetric_bounded(self):
        p = np.array([0.9, 0.1])
        q = np.array([0.1, 0.9])
        assert js_divergence(p, q) == pytest.approx(js_divergence(q, p))
        assert 0 <= js_divergence(p, q) <= np.log(2) + 1e-12

    def test_uniform_selection(self, of2d):
        idx = select_snapshots(of2d.snapshots, 5, "p", method="uniform")
        assert idx[0] == 0 and idx[-1] == len(of2d.snapshots) - 1

    def test_random_selection_sorted_unique(self, of2d):
        idx = select_snapshots(of2d.snapshots, 7, "p", method="random", rng=0)
        assert len(np.unique(idx)) == 7
        assert np.all(np.diff(idx) > 0)

    def test_maxent_selection_spreads_over_phase(self, of2d):
        """Periodic shedding: greedily novel snapshots avoid duplicate phases."""
        period_frames = 20  # generate_cylinder default: 20 frames/period
        idx = select_snapshots(of2d.snapshots, 6, "wz", method="maxent", rng=0)
        phases = idx % period_frames
        # At least 4 distinct phases among 6 picks (uniform-cadence picks of
        # a 20-frame period can collapse to far fewer).
        assert len(np.unique(phases)) >= 4

    def test_invalid(self, of2d):
        with pytest.raises(ValueError):
            select_snapshots(of2d.snapshots, 0, "p")
        with pytest.raises(ValueError):
            select_snapshots(of2d.snapshots, 2, "p", method="psychic")


class TestPipelineSerial:
    @pytest.mark.parametrize("method", ["random", "maxent", "uips", "stratified", "lhs"])
    def test_point_methods_produce_pointsets(self, sst, method):
        cfg = make_case(method=method, num_hypercubes=3, num_samples=32)
        res = subsample(sst, cfg, nranks=1, seed=0)
        assert res.points is not None
        assert res.cubes is None
        assert len(res.points) == 3 * 32
        for var in ("u", "v", "w", "p", "pv"):
            assert var in res.points.values

    def test_full_method_produces_cubes(self, sst):
        cfg = make_case(method="full", num_hypercubes=2, arch="cnn_transformer")
        res = subsample(sst, cfg, nranks=1, seed=0)
        assert res.cubes is not None and len(res.cubes) == 2
        assert res.points is None
        assert res.cubes[0].shape == (16, 16, 16)

    def test_selected_ids_within_range(self, sst):
        cfg = make_case(num_hypercubes=4)
        res = subsample(sst, cfg, nranks=1, seed=0)
        assert len(res.selected_cube_ids) == 4
        assert len(np.unique(res.selected_cube_ids)) == 4
        assert res.selected_cube_ids.max() < res.n_candidate_cubes

    def test_energy_and_time_recorded(self, sst):
        cfg = make_case()
        res = subsample(sst, cfg, nranks=1, seed=0)
        assert res.energy is not None and res.energy.total_energy > 0
        assert res.virtual_time > 0
        assert res.n_points_scanned > 0

    def test_too_many_hypercubes_rejected(self, sst):
        cfg = make_case(num_hypercubes=10**6)
        with pytest.raises((ValueError, RuntimeError)):
            subsample(sst, cfg, nranks=1, seed=0)

    def test_sample_values_match_source(self, sst):
        """Every sampled point's value must equal the source field value."""
        cfg = make_case(method="random", num_hypercubes=2, num_samples=16)
        res = subsample(sst, cfg, nranks=1, seed=0)
        ps = res.points
        times = np.broadcast_to(np.asarray(ps.time), (len(ps),))
        snap_times = {s.time: s for s in sst.snapshots}
        for i in range(0, len(ps), 7):
            snap = snap_times[float(times[i])]
            coord = tuple(int(c) for c in ps.coords[i])
            assert ps.values["u"][i] == snap["u"][coord]


class TestPipelineParallel:
    @pytest.mark.parametrize("nranks", [2, 4])
    def test_matches_serial_sample_count(self, sst, nranks):
        cfg = make_case(num_hypercubes=4, num_samples=32)
        res = subsample(sst, cfg, nranks=nranks, seed=0)
        assert res.points is not None
        assert len(res.points) == 4 * 32

    def test_selection_identical_across_rank_counts(self, sst):
        """Phase 1 runs on rank 0's broadcast RNG: selected cubes must not
        depend on how many ranks participated."""
        cfg = make_case(num_hypercubes=4)
        ids = [
            set(subsample(sst, cfg, nranks=n, seed=0).selected_cube_ids.tolist())
            for n in (1, 2, 4)
        ]
        assert ids[0] == ids[1] == ids[2]

    def test_all_ranks_return_consistent_result(self, sst):
        cfg = make_case(num_hypercubes=4, num_samples=16)
        spmd = run_spmd(SubsamplePipeline().run, 3, sst, cfg, seed=0)
        for rank in range(3):
            res = spmd[rank]
            assert res.n_candidate_cubes == spmd[0].n_candidate_cubes
            assert np.array_equal(res.selected_cube_ids, spmd[0].selected_cube_ids)
        # Only rank 0 holds the gathered points.
        assert spmd[0].points is not None
        assert spmd[1].points is None

    def test_parallel_virtual_time_decreases(self, sst):
        """More ranks → shorter virtual makespan (in the scaling regime)."""
        cfg = make_case(num_hypercubes=8, num_samples=64)
        t1 = subsample(sst, cfg, nranks=1, seed=0).virtual_time
        t4 = subsample(sst, cfg, nranks=4, seed=0).virtual_time
        assert t4 < t1

    def test_energy_merged_across_ranks(self, sst):
        cfg = make_case(num_hypercubes=4)
        m1 = subsample(sst, cfg, nranks=1, seed=0).energy
        m4 = subsample(sst, cfg, nranks=4, seed=0).energy
        # Dynamic (op-count) energy is work-conserving across rank counts.
        dyn1 = m1.model.dynamic_energy(m1.flops_cpu, m1.bytes_cpu)
        dyn4 = m4.model.dynamic_energy(m4.flops_cpu, m4.bytes_cpu)
        # (kmeans iteration counts vary with the partition, so allow slack)
        assert dyn4 == pytest.approx(dyn1, rel=0.3)
        # Idle energy follows the (shorter) parallel makespan: total drops.
        assert m4.total_energy <= m1.total_energy


class TestHypercubeSelectionQuality:
    def test_hmaxent_prefers_structured_cubes(self):
        """On OF2D, Hmaxent must pick wake cubes (high-vorticity) more often
        than their population share."""
        from repro.data.hypercubes import extract_all_hypercubes
        from repro.sampling.entropy import cube_moments, group_distributions
        from repro.sampling.selectors import MaxEntCubeSelector

        ds = build_dataset("OF2D", scale=1.0, rng=0, n_snapshots=6)
        cube = 30

        cubes = []
        for s in ds.snapshots:
            cubes.extend(extract_all_hypercubes(s, (cube, cube), ["wz"]))
        block = np.stack([c.variables["wz"].reshape(-1) for c in cubes])
        activity = np.abs(block).mean(axis=1)
        interesting = activity > np.quantile(activity, 0.75)

        # The statistics phase 1 gathers: per-cube moments, and per-cube
        # histograms on edges spanning the global range (50 bins).
        summaries = cube_moments(block)
        edges = np.linspace(block.min(), block.max(), 51)
        histograms = group_distributions(
            block, np.arange(len(cubes))[:, None], len(cubes), edges)
        hits = []
        for seed in range(5):
            sel = MaxEntCubeSelector().select(summaries, histograms, 6, rng=seed)
            hits.append(interesting[sel].mean())
        assert np.mean(hits) > 0.25  # population share is 0.25
