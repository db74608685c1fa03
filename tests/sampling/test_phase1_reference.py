"""Phase 1's block summaries against the per-cube loop they replaced, and
the shared counting and moments helpers against the loops they replaced.

:func:`reference_phase1` is the per-cube loop ``Phase1SummarizeStage`` ran
before it summarized each snapshot's cubes as one block: a per-cube range
scan, then scalar moments and ``np.histogram(flat, bins=edges)`` per cube.
The stage must match it bit for bit — edges, summaries, histograms and the
scanned count — on every rank, for 3-D and 2-D grids, cube shapes that
divide the grid and shapes that leave remainders, rank counts that split
snapshots mid-run, shard directories with and without stored ranges,
constant fields, values exactly on the edges, and block caps small enough
to split one snapshot's run into several blocks.
"""

import numpy as np
import pytest

from repro.data import InMemorySource, ShardDirSource, build_dataset, save_dataset
from repro.data.dataset import TurbulenceDataset
from repro.data.store import read_manifest, write_manifest
from repro.parallel import run_spmd
from repro.parallel.comm import SerialComm
from repro.sampling import stages
from repro.sampling.entropy import cluster_value_distributions, cube_moments
from repro.sampling.maxent import select_hypercubes_maxent
from repro.sampling.pipeline import SubsamplePipeline
from repro.sampling.stages import CubeIndexStage, Phase1SummarizeStage, PipelineContext
from repro.sampling.streaming import StreamingMaxEnt, run_stream_subsample
from repro.sampling.temporal import snapshot_histograms
from repro.sim.fields import FlowField
from repro.utils.config import CaseConfig, SharedConfig, SubsampleConfig, TrainConfig


def case_for(cube, dims):
    edges = dict(zip(("nxsl", "nysl", "nzsl"), (*cube, 1, 1)))
    return CaseConfig(
        shared=SharedConfig(dims=dims),
        subsample=SubsampleConfig(hypercubes="maxent", method="maxent", num_hypercubes=1,
                                  num_samples=8, num_clusters=4, **edges),
        train=TrainConfig(arch="mlp_transformer"),
    )


def reference_phase1(ctx):
    """The per-cube phase 1: (edges, summaries, histograms, scanned)."""
    comm, bins = ctx.comm, ctx.hist_bins

    def cube_values():
        for s, origin in ctx.my_cubes:
            slicer = tuple(slice(o, o + c) for o, c in zip(origin, ctx.cube_shape))
            yield ctx.source.snapshot(s).get(ctx.cluster_var)[slicer].reshape(-1)

    local_min, local_max = np.inf, -np.inf
    for flat in cube_values():
        local_min = min(local_min, float(flat.min()))
        local_max = max(local_max, float(flat.max()))
    gmin = comm.allreduce(local_min, op="min")
    gmax = comm.allreduce(local_max, op="max")
    if gmin == gmax:
        gmax = gmin + 1.0
    edges = np.linspace(gmin, gmax, bins + 1)
    summaries = np.zeros((len(ctx.my_cubes), 4))
    histograms = np.zeros((len(ctx.my_cubes), bins))
    scanned = 0
    for i, flat in enumerate(cube_values()):
        scanned += flat.size
        mean, std = flat.mean(), flat.std()
        centred = flat - mean
        summaries[i] = [
            mean,
            std,
            (centred**3).mean() / max(std**3, 1e-12),
            (centred**4).mean() / max(std**4, 1e-12),
        ]
        counts, _ = np.histogram(flat, bins=edges)
        total = counts.sum()
        histograms[i] = counts / total if total > 0 else 1.0 / bins
    return edges, summaries, histograms, scanned


def reference_and_stage(comm, source, case, hist_bins):
    ctx = PipelineContext(comm=comm, source=source, config=case, hist_bins=hist_bins)
    CubeIndexStage().run(ctx)
    want = reference_phase1(ctx)
    Phase1SummarizeStage().run(ctx)
    return want, (ctx.edges, ctx.summaries, ctx.histograms, ctx.scanned)


def assert_bitwise(got, want):
    for name, g, w in zip(("edges", "summaries", "histograms"), got[:3], want[:3]):
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name
    assert got[3] == want[3], "scanned"


def check_all_ranks(source, case, nranks, hist_bins=50):
    spmd = run_spmd(reference_and_stage, nranks, source, case, hist_bins)
    for rank in range(nranks):
        want, got = spmd[rank]
        assert_bitwise(got, want)
    return spmd


def ranged_and_rangeless(dataset, root):
    """Shard directories of `dataset` with and without stored value ranges."""
    ranged, rangeless = str(root / "ranged"), str(root / "rangeless")
    save_dataset(dataset, ranged)
    save_dataset(dataset, rangeless)
    manifest = read_manifest(rangeless)
    del manifest["value_ranges"]
    write_manifest(rangeless, manifest)
    return ranged, rangeless


@pytest.fixture(scope="module")
def datasets():
    return {
        "SST-P1F4": build_dataset("SST-P1F4", scale=1.0, rng=0, n_snapshots=3),
        "OF2D": build_dataset("OF2D", scale=1.0, rng=0, n_snapshots=3),
    }


@pytest.fixture(scope="module")
def shard_dirs(datasets, tmp_path_factory):
    return {name: ranged_and_rangeless(ds, tmp_path_factory.mktemp(name))
            for name, ds in datasets.items()}


GRIDS = [  # (dataset, cube shape): shapes that divide the grid, then remainders
    ("SST-P1F4", (8, 8, 8)),
    ("SST-P1F4", (5, 7, 3)),
    ("OF2D", (30, 30)),
    ("OF2D", (7, 9)),
]


class TestBlocksMatchPerCubeLoop:
    @pytest.mark.parametrize("nranks", [1, 2, 3, 5])
    @pytest.mark.parametrize("label,cube", GRIDS)
    def test_in_memory_and_shards(self, datasets, shard_dirs, label, cube, nranks):
        ds = datasets[label]
        case = case_for(cube, ds.ndim)
        ranged, rangeless = shard_dirs[label]
        for source in (InMemorySource(ds), ShardDirSource(ranged, max_cached=2),
                       ShardDirSource(rangeless, max_cached=2)):
            check_all_ranks(source, case, nranks)

    def test_stored_ranges_give_the_scanned_edges(self, shard_dirs):
        """The ranged directory takes the manifest path (one decode per
        snapshot) and still matches the reference's scan."""
        src = ShardDirSource(shard_dirs["SST-P1F4"][0], max_cached=1)
        check_all_ranks(src, case_for((8, 8, 8), 3), 1)
        # The reference revisits every snapshot twice; the stage, once.
        assert src.cache_info()["counters"]["misses"] == 3 * 3

    @pytest.mark.parametrize("cap_cubes", [0, 3, 5])
    @pytest.mark.parametrize("nranks", [1, 3])
    def test_block_cap_splits_a_snapshot_run(self, datasets, monkeypatch, cap_cubes, nranks):
        """A cap under one cube still takes one cube per block; caps of 3 and 5
        cubes split each snapshot's run (up to 32 cubes) into several blocks,
        the last one short."""
        monkeypatch.setattr(stages, "_BLOCK", cap_cubes * 8 * 8 * 8 + 1)
        check_all_ranks(InMemorySource(datasets["SST-P1F4"]), case_for((8, 8, 8), 3), nranks)

    @pytest.mark.parametrize("hist_bins", [1, 7, 50])
    def test_constant_cluster_field(self, hist_bins):
        """gmin == gmax: the edges widen by one and every value sits on the
        first edge; std is 0, so both moments take the 1e-12 floor."""
        shape = (16, 12, 8)
        snaps = [FlowField({"c": np.full(shape, 2.5), "u": np.ones(shape)}, float(t))
                 for t in range(2)]
        ds = TurbulenceDataset(label="const", snapshots=snaps, input_vars=["u"],
                               output_vars=["u"], cluster_var="c")
        check_all_ranks(InMemorySource(ds), case_for((4, 4, 4), 3), 2, hist_bins)

    @pytest.mark.parametrize("hist_bins", [1, 7, 50])
    @pytest.mark.parametrize("nranks", [1, 3])
    def test_values_on_the_edges(self, hist_bins, nranks):
        """Every value equals an edge: interior edges open their bin, the last
        edge falls in the last bin."""
        rng = np.random.default_rng(hist_bins)
        lo, hi = -1.25, 3.5
        edges = np.linspace(lo, hi, hist_bins + 1)
        shape = (12, 12, 6)
        snaps = []
        for t in range(3):
            c = rng.choice(edges, size=shape)
            c.flat[:2] = lo, hi  # pin the global range to the edges' span
            snaps.append(FlowField({"c": c, "u": rng.standard_normal(shape)}, float(t)))
        ds = TurbulenceDataset(label="edges", snapshots=snaps, input_vars=["u"],
                               output_vars=["u"], cluster_var="c")
        spmd = check_all_ranks(InMemorySource(ds), case_for((4, 3, 3), 3), nranks, hist_bins)
        assert spmd[0][1][0].tobytes() == edges.tobytes()


class TestOneCountingRule:
    @staticmethod
    def loop_distributions(values, labels, n_clusters, bins):
        """The per-cluster ``np.histogram`` loop the grouped count replaced."""
        values = np.asarray(values, dtype=np.float64).ravel()
        lo, hi = float(values.min()), float(values.max())
        if lo == hi:
            hi = lo + 1.0
        edges = np.linspace(lo, hi, bins + 1)
        out = np.empty((n_clusters, bins))
        for c in range(n_clusters):
            member = values[labels == c]
            if member.size == 0:
                out[c] = 1.0 / bins
                continue
            counts, _ = np.histogram(member, bins=edges)
            total = counts.sum()
            out[c] = counts / total if total > 0 else 1.0 / bins
        return out

    def test_cluster_distributions_match_the_loop(self):
        rng = np.random.default_rng(0)
        for trial in range(300):
            n = int(rng.integers(1, 400))
            k = int(rng.integers(1, 9))
            bins = int(rng.integers(1, 60))
            kind = trial % 3
            if kind == 0:
                values = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
            elif kind == 1:  # quantized: many values exactly on edges
                values = rng.integers(0, 5, size=n).astype(np.float64)
            else:
                values = np.full(n, rng.standard_normal())
            # Labels may leave clusters empty or fall outside [0, k).
            labels = rng.integers(-1, k + 1, size=n)
            want = self.loop_distributions(values, labels, k, bins)
            got = cluster_value_distributions(values, labels, k, bins=bins)
            assert got.tobytes() == want.tobytes(), trial

    def test_snapshot_histograms_match_the_range_loop(self):
        """Temporal selection's histograms count as the per-snapshot
        ``np.histogram(v, bins=bins, range=(lo, hi))`` loop did."""
        rng = np.random.default_rng(1)
        for trial in range(300):
            bins = int(rng.integers(1, 80))
            scale = 10.0 ** rng.integers(-6, 7)
            grid = np.linspace(-scale, scale, bins + 1)
            values = []
            for _ in range(int(rng.integers(1, 5))):
                size = int(rng.integers(1, 300))
                kind = trial % 3
                if kind == 0:
                    values.append(rng.standard_normal(size) * scale)
                elif kind == 1:  # values exactly on the edges
                    values.append(rng.choice(grid, size=size))
                else:
                    values.append(np.full(size, scale))
            lo = min(v.min() for v in values)
            hi = max(v.max() for v in values)
            if lo == hi:
                hi = lo + 1.0
            want = []
            for v in values:
                counts, _ = np.histogram(v, bins=bins, range=(lo, hi))
                total = counts.sum()
                want.append(counts / total if total > 0 else np.full(bins, 1.0 / bins))
            snaps = [FlowField({"c": v}, float(t)) for t, v in enumerate(values)]
            got = snapshot_histograms(snaps, "c", bins=bins)
            assert got.tobytes() == np.stack(want).tobytes(), trial


class TestSharedMomentsHelper:
    def test_ragged_cubes_match_the_scalar_formula(self):
        rng = np.random.default_rng(3)
        cubes = [rng.standard_normal(shape) ** 3
                 for shape in ((4, 4, 4), (3, 5), (7,), (2, 2, 2), (1,))]
        for cube in cubes:
            flat = cube.reshape(-1)
            mean, std = flat.mean(), flat.std()
            centred = flat - mean
            want = np.array([mean, std, (centred**3).mean() / max(std**3, 1e-12),
                             (centred**4).mean() / max(std**4, 1e-12)])
            assert cube_moments(cube.reshape(1, -1))[0].tobytes() == want.tobytes()
        chosen = select_hypercubes_maxent(cubes, 2, num_clusters=2, rng=0)
        assert len(set(map(int, chosen))) == 2


class TestRejectBadHistBins:
    @pytest.mark.parametrize("bad", [0, -2, 2.5, "50", True, None])
    def test_batch_and_stream(self, datasets, bad):
        ds = datasets["SST-P1F4"]
        case = case_for((8, 8, 8), 3)
        with pytest.raises(ValueError, match="hist_bins"):
            SubsamplePipeline().run(SerialComm(), ds, case, hist_bins=bad)
        with pytest.raises(ValueError, match="bins"):
            StreamingMaxEnt(n_samples=8, value_range=(0.0, 1.0), bins=bad)
        with pytest.raises(ValueError, match="bins"):
            run_stream_subsample(InMemorySource(ds), case, hist_bins=bad)

    def test_under_spmd_the_rank_error_is_the_value_error(self, datasets):
        with pytest.raises(RuntimeError, match=r"rank \d failed") as info:
            run_spmd(SubsamplePipeline().run, 2, datasets["SST-P1F4"],
                     case_for((8, 8, 8), 3), hist_bins=0)
        assert isinstance(info.value.__cause__, ValueError)
        assert "hist_bins" in str(info.value.__cause__)

    def test_numpy_integers_accepted(self, datasets):
        res = SubsamplePipeline().run(SerialComm(), datasets["SST-P1F4"],
                                      case_for((8, 8, 8), 3), hist_bins=np.int64(12))
        assert res.points is not None
