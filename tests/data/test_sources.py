"""Tests for the stream-first SnapshotSource ingestion protocol."""

import tracemalloc

import numpy as np
import pytest

from repro.data import (
    InMemorySource,
    PartitionedSource,
    RemoteTieredSource,
    ShardDirSource,
    SimulationSource,
    build_dataset,
    open_source,
    save_dataset,
)
from repro.data.sources import SnapshotSource
from repro.sampling import subsample
from repro.utils.config import CaseConfig, SharedConfig, SubsampleConfig, TrainConfig


@pytest.fixture(scope="module")
def sst():
    return build_dataset("SST-P1F4", scale=1.0, rng=0, n_snapshots=6)


@pytest.fixture(scope="module")
def shard_dir(sst, tmp_path_factory):
    path = tmp_path_factory.mktemp("shards")
    save_dataset(sst, str(path))
    return str(path)


def small_case(**overrides):
    sub = dict(hypercubes="maxent", method="maxent", num_hypercubes=4,
               num_samples=32, num_clusters=4, nxsl=8, nysl=8, nzsl=8)
    sub.update(overrides)
    return CaseConfig(
        shared=SharedConfig(dims=3),
        subsample=SubsampleConfig(**sub),
        train=TrainConfig(arch="mlp_transformer"),
    )


class TestInMemorySource:
    def test_metadata_passthrough(self, sst):
        src = InMemorySource(sst)
        assert src.label == sst.label
        assert src.n_snapshots == sst.n_snapshots
        assert src.grid_shape == sst.grid_shape
        assert src.cluster_var == sst.cluster_var
        assert src.input_vars == sst.input_vars
        assert src.nbytes() == sst.nbytes()
        assert np.array_equal(src.times, sst.times)

    def test_snapshots_are_the_dataset_objects(self, sst):
        src = InMemorySource(sst)
        for i, snap in src.iter_snapshots():
            assert snap is sst.snapshots[i]

    def test_value_range_hint_exact(self, sst):
        src = InMemorySource(sst)
        lo, hi = src.value_range_hint("pv")
        allv = np.concatenate([s.get("pv").ravel() for s in sst.snapshots])
        assert lo == allv.min() and hi == allv.max()

    def test_rejects_non_dataset(self):
        with pytest.raises(TypeError):
            InMemorySource([1, 2, 3])


class TestIterTables:
    def test_chunks_cover_source_in_order(self, sst):
        src = InMemorySource(sst)
        grid = sst.grid_shape
        n = int(np.prod(grid))
        rows = 0
        seen_snaps = []
        for s, _time, coords, table in src.iter_tables(["u", "pv"], chunk_rows=1000):
            assert coords.shape[1] == 3
            assert table.shape == (coords.shape[0], 2)
            assert coords.shape[0] <= 1000
            rows += coords.shape[0]
            seen_snaps.append(s)
        assert rows == n * sst.n_snapshots
        assert seen_snaps == sorted(seen_snaps)
        # Last chunk's last coordinate is the grid's last cell.
        assert tuple(coords[-1].astype(int)) == tuple(g - 1 for g in grid)

    def test_chunk_values_match_flat_order(self, sst):
        src = InMemorySource(sst)
        s, _, coords, table = next(src.iter_tables(["pv"], chunk_rows=128))
        flat = sst.snapshots[0].get("pv").reshape(-1)
        assert np.array_equal(table[:, 0], flat[:128])


class TestShardDirSource:
    def test_round_trips_save_dataset_exactly(self, sst, shard_dir):
        """Satellite: the out-of-core view must equal the dataset it was
        written from, bit for bit."""
        src = ShardDirSource(shard_dir, max_cached=2)
        assert src.label == sst.label
        assert src.n_snapshots == sst.n_snapshots
        assert src.grid_shape == sst.grid_shape
        assert src.input_vars == sst.input_vars
        assert src.output_vars == sst.output_vars
        assert src.cluster_var == sst.cluster_var
        assert np.array_equal(src.times, sst.times)
        for i in range(sst.n_snapshots):
            a, b = src.snapshot(i), sst.snapshots[i]
            assert a.time == b.time
            assert sorted(a.variables) == sorted(b.variables)
            for name, arr in b.variables.items():
                assert np.array_equal(a.variables[name], arr), name

    def test_lru_residency_is_bounded(self, shard_dir, sst):
        src = ShardDirSource(shard_dir, max_cached=2)
        # Touch every shard forwards, backwards, and shuffled.
        order = list(range(sst.n_snapshots))
        for i in [*order, *order[::-1], 3, 0, 5, 1]:
            src.snapshot(i)
        info = src.cache_info()
        assert info["gauges"]["max_resident"] <= 2
        assert info["gauges"]["resident"] <= 2
        assert info["counters"]["evictions"] > 0

    def test_cache_hits_on_repeat_access(self, shard_dir):
        src = ShardDirSource(shard_dir, max_cached=2)
        src.snapshot(0)
        src.snapshot(0)
        info = src.cache_info()["counters"]
        assert info["hits"] == 1 and info["misses"] == 1

    def test_validation(self, tmp_path, shard_dir):
        with pytest.raises(FileNotFoundError):
            ShardDirSource(str(tmp_path / "nope"))
        with pytest.raises(ValueError):
            ShardDirSource(shard_dir, max_cached=0)
        src = ShardDirSource(shard_dir)
        with pytest.raises(IndexError):
            src.snapshot(99)


def _wait_for_prefetch(src, n=1, timeout_s=5.0):
    """Poll until the background worker has decoded >= n shards."""
    import time

    deadline = time.monotonic() + timeout_s
    while src.cache_info()["counters"]["prefetched"] < n:
        if time.monotonic() > deadline:
            raise AssertionError(
                f"prefetcher never reached {n} decodes: {src.cache_info()}"
            )
        time.sleep(0.005)


class TestShardedPrefetch:
    def test_prefetch_hits_and_bounded_residency(self, shard_dir, sst):
        """Satellite: a forward scan with look-ahead serves hits from the
        background prefetcher while residency stays bounded."""
        src = ShardDirSource(shard_dir, max_cached=3, prefetch=2)
        try:
            src.snapshot(0)          # miss; queues shards 1 and 2
            _wait_for_prefetch(src)  # worker drains the queue in order...
            src.snapshot(1)          # ...so shard 1 is now a prefetch hit
            for i in range(2, sst.n_snapshots):
                src.snapshot(i)
        finally:
            src.close()
        info = src.cache_info()
        assert info["counters"]["prefetched"] >= 1
        assert info["counters"]["prefetch_hits"] >= 1
        assert info["gauges"]["max_resident"] <= 3
        assert info["gauges"]["prefetch_depth"] == 2

    def test_explicit_prefetch_hint(self, shard_dir):
        src = ShardDirSource(shard_dir, max_cached=2, prefetch=1)
        try:
            src.prefetch([0, 1])
            _wait_for_prefetch(src)
            src.snapshot(0)
        finally:
            src.close()
        info = src.cache_info()["counters"]
        assert info["prefetched"] >= 1
        assert info["prefetch_hits"] >= 1

    def test_prefetch_disabled_is_noop(self, shard_dir):
        src = ShardDirSource(shard_dir, max_cached=2, prefetch=0)
        src.prefetch([0, 1, 2])
        src.snapshot(0)
        info = src.cache_info()["counters"]
        assert info["prefetched"] == 0 and info["prefetch_hits"] == 0
        src.close()  # idempotent even without a worker

    def test_prefetch_validation(self, shard_dir):
        with pytest.raises(ValueError):
            ShardDirSource(shard_dir, prefetch=-1)

    def test_subsample_with_prefetch_matches_without(self, shard_dir, sst):
        """Prefetch is a pure performance hint: selections are identical."""
        plain = subsample(ShardDirSource(shard_dir, max_cached=2),
                          small_case(), nranks=1, seed=0)
        pre_src = ShardDirSource(shard_dir, max_cached=2, prefetch=2)
        pre = subsample(pre_src, small_case(), nranks=1, seed=0)
        pre_src.close()
        assert np.array_equal(plain.selected_cube_ids, pre.selected_cube_ids)
        assert np.array_equal(plain.points.coords, pre.points.coords)


class TestLazyDecode:
    def test_lazy_field_decodes_members_on_demand(self, shard_dir, sst):
        src = ShardDirSource(shard_dir, max_cached=2, lazy=True)
        snap = src.snapshot(0)
        assert snap.decoded_members() == []
        assert snap.grid_shape == sst.grid_shape  # header-only, no decode
        assert snap.decoded_members() == []
        u = snap.get("u")
        assert snap.decoded_members() == ["u"]
        assert np.array_equal(u, sst.snapshots[0].get("u"))
        # Mapping semantics still reflect the full member list.
        assert sorted(snap.variables) == sorted(sst.snapshots[0].variables)
        assert "u" in snap.variables and "r" in snap.variables

    def test_lazy_mapping_semantics(self, shard_dir, sst):
        """Regression: generic mapping idioms (get / dict(...) / **) must
        decode, never silently return None or a truncated member set."""
        snap = ShardDirSource(shard_dir, lazy=True).snapshot(0)
        assert snap.variables.get("u") is not None
        assert snap.variables.get("not-a-var", "sentinel") == "sentinel"
        full = dict(snap.variables)
        assert sorted(full) == sorted(sst.snapshots[0].variables)
        assert all(isinstance(v, np.ndarray) for v in full.values())

    def test_lazy_derived_variables_compose(self, shard_dir, sst):
        """pv derives from u/v/w/r — lazy members must feed the derived
        registry exactly like eager ones."""
        snap = ShardDirSource(shard_dir, lazy=True).snapshot(0)
        assert np.allclose(snap.get("pv"), sst.snapshots[0].get("pv"))

    def test_lazy_nbytes_matches_eager(self, shard_dir):
        lazy = ShardDirSource(shard_dir, lazy=True).snapshot(0)
        eager = ShardDirSource(shard_dir, lazy=False).snapshot(0)
        assert lazy.nbytes() == eager.nbytes()
        assert lazy.decoded_members() == []  # estimate came from headers

    def test_eager_mode_still_available(self, shard_dir, sst):
        snap = ShardDirSource(shard_dir, lazy=False).snapshot(0)
        assert not hasattr(snap, "decoded_members")
        assert np.array_equal(snap.get("u"), sst.snapshots[0].get("u"))


class TestPartitionedSource:
    def test_span_view_passthrough(self, sst):
        base = InMemorySource(sst)
        part = PartitionedSource(base, 2, 5)
        assert part.n_snapshots == 3
        assert part.grid_shape == base.grid_shape
        assert part.input_vars == base.input_vars
        assert part.cluster_var == base.cluster_var
        assert part.label.endswith("[2:5]")
        for i in range(3):
            assert part.snapshot(i) is sst.snapshots[2 + i]
        assert np.array_equal(part.times, sst.times[2:5])
        with pytest.raises(IndexError):
            part.snapshot(3)

    def test_split_covers_source(self, sst):
        base = InMemorySource(sst)
        parts = PartitionedSource.split(base, 4)
        assert sum(p.n_snapshots for p in parts) == sst.n_snapshots
        seen = [p.snapshot(i).time for p in parts for i in range(p.n_snapshots)]
        assert seen == list(sst.times)

    def test_empty_span(self, sst):
        base = InMemorySource(sst)
        parts = PartitionedSource.split(base, sst.n_snapshots + 2)
        tail = parts[-1]
        assert tail.n_snapshots == 0
        assert tail.nbytes() == 0
        assert list(tail.iter_snapshots()) == []

    def test_prefetch_translates_to_base(self, shard_dir):
        src = ShardDirSource(shard_dir, max_cached=4, prefetch=1)
        try:
            part = PartitionedSource(src, 2, 4)
            part.prefetch([0, 1])  # global shards 2, 3
            _wait_for_prefetch(src)
            part.snapshot(0)
            assert src.cache_info()["counters"]["prefetch_hits"] >= 1
        finally:
            src.close()

    def test_validation(self, sst):
        base = InMemorySource(sst)
        with pytest.raises(ValueError):
            PartitionedSource(base, 4, 2)
        with pytest.raises(ValueError):
            PartitionedSource(base, 0, sst.n_snapshots + 1)
        with pytest.raises(TypeError):
            PartitionedSource(sst, 0, 1)

    def test_value_range_hint_shared_with_base(self, sst):
        base = InMemorySource(sst)
        part = PartitionedSource(base, 0, 2)
        assert part.value_range_hint("pv") == base.value_range_hint("pv")


class TestSimulationSource:
    def _make(self, n=3, max_cached=1):
        def factory():
            rng = np.random.default_rng(7)
            for i in range(n):
                yield_field = np.asarray(rng.random((8, 8)))
                from repro.sim.fields import FlowField
                yield FlowField({"u": yield_field, "v": rng.random((8, 8))}, time=float(i))

        return SimulationSource(
            factory, n, label="toy", input_vars=["u"], output_vars=["v"],
            cluster_var="u", max_cached=max_cached,
        )

    def test_forward_access_generates_once(self):
        src = self._make(n=4)
        for i in range(4):
            assert src.snapshot(i).time == float(i)
        assert src.generated == 4
        assert src.restarts == 0

    def test_backward_access_replays_deterministically(self):
        src = self._make(n=4)
        late = src.snapshot(3).variables["u"].copy()
        early = src.snapshot(1).variables["u"].copy()  # forces a replay
        assert src.restarts == 1
        src2 = self._make(n=4)
        assert np.array_equal(src2.snapshot(1).variables["u"], early)
        assert np.array_equal(src2.snapshot(3).variables["u"], late)

    def test_residency_bounded(self):
        src = self._make(n=5, max_cached=2)
        for i in range(5):
            src.snapshot(i)
        assert len(src._cache) <= 2

    def test_times_walks_stream(self):
        src = self._make(n=3)
        assert np.array_equal(src.times, [0.0, 1.0, 2.0])

    def test_short_factory_raises(self):
        def factory():
            return iter(())

        src = SimulationSource(factory, 2, label="bad", input_vars=["u"],
                               output_vars=[], cluster_var="u")
        with pytest.raises(RuntimeError, match="yielded only"):
            src.snapshot(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationSource(lambda: iter(()), 0, label="x", input_vars=[],
                             output_vars=[], cluster_var="u")

    def test_nbytes_after_full_pass_never_replays(self):
        """Regression: asking nbytes() after the stream is consumed must
        use the cached per-snapshot size, not restart the simulation."""
        src = self._make(n=4)
        for i in range(4):
            src.snapshot(i)
        restarts = src.restarts
        assert src.nbytes() == src.snapshot(3).nbytes() * 4
        assert src.restarts == restarts

    def test_multirank_batch_guarded_against_replay_storm(self):
        """A replay-on-backstep sim source under thread ranks would re-run
        the solver O(ranks x snapshots) times; subsample must refuse."""
        from repro.data import stream_dataset

        src = stream_dataset("sst-binary", scale=1.0, seed=0, n_snapshots=2,
                             max_cached=1)
        with pytest.raises(ValueError, match="replay"):
            subsample(src, small_case(), nranks=2, seed=0)
        # Raising max_cached to cover the stream makes multi-rank legal.
        src2 = stream_dataset("sst-binary", scale=1.0, seed=0, n_snapshots=2,
                              max_cached=2)
        res = subsample(src2, small_case(), nranks=2, seed=0)
        assert res.n_samples > 0


class TestStreamDataset:
    def test_openfoam_dtype_streams_and_subsamples(self):
        """Regression: OF2D's Table-1 output 'D' is the drag target, not a
        field variable — the sim source must expose the per-point roles the
        built dataset actually has, or subsample KeyErrors on 'D'."""
        from repro.data import stream_dataset

        src = stream_dataset("openfoam", scale=0.3, seed=0, n_snapshots=4)
        assert src.output_vars == []
        assert src.target is None  # drag is a whole-run property
        case = CaseConfig(
            shared=SharedConfig(dims=2, dtype="openfoam", input_vars=["u", "v"],
                                output_vars=[], cluster_var="p"),
            subsample=SubsampleConfig(hypercubes="random", method="random",
                                      num_hypercubes=2, num_samples=16,
                                      num_clusters=4, nxsl=8, nysl=8, nzsl=1),
            train=TrainConfig(arch="lstm"),
        )
        res = subsample(src, case, nranks=1, seed=0)
        assert res.n_samples > 0
        stream_res = subsample(
            stream_dataset("openfoam", scale=0.3, seed=0, n_snapshots=4),
            case, seed=0, mode="stream",
        )
        assert stream_res.n_samples > 0

    def test_matches_batch_builder_fields(self):
        """The stream factory and batch builder share their geometry."""
        from repro.data import build_dataset, stream_dataset

        src = stream_dataset("sst-binary", scale=1.0, seed=3, n_snapshots=2)
        ds = build_dataset("SST-P1F4", scale=1.0, rng=3, n_snapshots=2)
        assert src.grid_shape == ds.grid_shape
        for i in range(2):
            got, want = src.snapshot(i), ds.snapshots[i]
            for name, arr in want.variables.items():
                assert np.array_equal(got.variables[name], arr), name

    def test_defaults_come_from_catalog_entry(self):
        from repro.data import CATALOG, stream_dataset

        src = stream_dataset("sst-binary", scale=1.0, seed=0)
        assert src.n_snapshots == CATALOG["SST-P1F4"].default_snapshots
        assert src.gravity == CATALOG["SST-P1F4"].gravity

    def test_entry_default_snapshots_matches_builder_default(self):
        """Pin the entry's default_snapshots to each builder's own
        n_snapshots keyword default — if they desynchronize, batch and
        stream ingestion silently produce different-length datasets."""
        import inspect

        from repro.data import CATALOG

        for label, entry in CATALOG.items():
            params = inspect.signature(entry.builder).parameters
            if "n_snapshots" in params:
                assert params["n_snapshots"].default == entry.default_snapshots, label
            else:
                assert entry.default_snapshots == 1, label


class TestOpenSourceCoercion:
    def test_coercions(self, sst, shard_dir):
        assert isinstance(open_source(sst), InMemorySource)
        assert isinstance(open_source(shard_dir), ShardDirSource)
        src = InMemorySource(sst)
        assert open_source(src) is src
        assert isinstance(open_source(src), SnapshotSource)
        with pytest.raises(TypeError):
            open_source(42)


class TestOutOfCoreMemory:
    def test_sharded_subsample_bounded_residency(self, shard_dir, sst):
        """Acceptance: an out-of-core run over >=4 shards never holds more
        than max_cached decoded shards, across the whole pipeline."""
        assert sst.n_snapshots >= 4
        src = ShardDirSource(shard_dir, max_cached=2)
        res = subsample(src, small_case(), nranks=1, seed=0)
        assert res.n_samples > 0
        info = src.cache_info()
        assert info["gauges"]["max_resident"] <= 2
        assert info["counters"]["evictions"] > 0  # it really cycled through shards

    def test_sharded_subsample_peak_below_full_footprint(self, shard_dir, sst):
        """Satellite: peak traced allocation of an out-of-core subsample
        stays below the full dataset's decoded footprint."""
        full_bytes = sst.nbytes()
        src = ShardDirSource(shard_dir, max_cached=1)
        tracemalloc.start()
        try:
            subsample(src, small_case(), nranks=1, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 6 snapshots x ~6 stored vars each; holding one shard (+ derived
        # vars + pipeline bookkeeping) must undercut full residency.
        assert peak < full_bytes, f"peak {peak} >= full dataset {full_bytes}"


class TestOpenSource:
    def test_path_and_dir_specs_resolve_equivalently(self, shard_dir):
        for spec in (shard_dir, f"dir://{shard_dir}", f"npz+dir://{shard_dir}"):
            src = open_source(spec)
            assert isinstance(src, ShardDirSource)
            assert src.codec.name == "npz"
            src.close()

    def test_source_and_dataset_pass_through(self, sst):
        src = InMemorySource(sst)
        assert open_source(src) is src
        assert isinstance(open_source(sst), InMemorySource)

    def test_codec_prefix_mismatch_refused(self, shard_dir):
        with pytest.raises(ValueError, match="holds 'npz' shards, not 'raw'"):
            open_source(f"raw+dir://{shard_dir}")

    def test_remote_spec_builds_tiered_source(self, shard_dir):
        src = open_source(
            f"remote://{shard_dir}?latency_s=0.5&bandwidth=1e6&max_staged=3"
        )
        try:
            assert isinstance(src, RemoteTieredSource)
            assert src.latency_s == 0.5
            assert src.bandwidth == 1e6
            assert src.max_staged == 3
            assert src.layout_path == shard_dir
        finally:
            src.close()

    def test_knobs_reach_the_source(self, shard_dir):
        src = open_source(shard_dir, max_cached=5, prefetch=1, lazy=False)
        try:
            assert src.max_cached == 5
            assert src.prefetch_depth == 1
            assert src.lazy is False
        finally:
            src.close()

    def test_bad_specs_rejected(self, shard_dir):
        with pytest.raises(ValueError, match="unknown source scheme"):
            open_source(f"s3://{shard_dir}")
        with pytest.raises(ValueError, match="unknown remote:// option"):
            open_source(f"remote://{shard_dir}?nope=1")
        with pytest.raises(ValueError, match="no .options"):
            open_source(f"dir://{shard_dir}?latency_s=1")
        with pytest.raises(TypeError):
            open_source(42)


class TestCacheInfoSchema:
    def test_schema2_layout(self, shard_dir):
        src = ShardDirSource(shard_dir, max_cached=2)
        src.snapshot(0)
        info = src.cache_info()
        assert info["schema"] == 2
        assert info["codec"] == "npz"
        assert info["tier"] == "local"
        from dataclasses import fields

        from repro.data import CacheCounters

        assert set(info["counters"]) == {f.name for f in fields(CacheCounters)}
        for key in ("resident", "max_resident", "max_cached", "prefetch_depth"):
            assert key in info["gauges"]

    def test_aggregate_sums_schema2(self, shard_dir):
        from repro.data import aggregate_cache_info

        src = ShardDirSource(shard_dir, max_cached=2)
        src.snapshot(0)
        src.snapshot(0)
        agg = aggregate_cache_info([src.cache_info(), None])
        assert agg["ranks"] == 1
        assert agg["hits"] == 1
        assert agg["misses"] == 1
        assert agg["decodes"] == agg["misses"] + agg["prefetched"]
        with pytest.raises(KeyError):
            aggregate_cache_info([{"hits": 3, "misses": 2}])  # not schema 2


class TestRemoteTieredSource:
    def _remote(self, shard_dir, **kw):
        kw.setdefault("latency_s", 0.01)
        kw.setdefault("bandwidth", 1e6)
        return RemoteTieredSource(shard_dir, **kw)

    def test_round_trip_matches_local(self, shard_dir, sst):
        src = self._remote(shard_dir, max_cached=2)
        try:
            for i in range(sst.n_snapshots):
                got = src.snapshot(i)
                want = sst.snapshots[i]
                for name, arr in want.variables.items():
                    assert np.array_equal(got.variables[name], arr), name
            assert np.array_equal(src.times, sst.times)
        finally:
            src.close()

    def test_fetch_accounting(self, shard_dir, sst):
        src = self._remote(shard_dir, max_cached=1, max_staged=2)
        try:
            for i in range(sst.n_snapshots):
                src.snapshot(i)
            info = src.cache_info()
            c = info["counters"]
            assert info["tier"] == "remote"
            assert c["remote_fetches"] == sst.n_snapshots
            assert c["remote_bytes"] > 0
            # cost model: each fetch pays latency plus bytes/bandwidth
            assert c["remote_wait_s"] >= sst.n_snapshots * 0.01
            assert c["remote_wait_s"] == pytest.approx(
                sst.n_snapshots * 0.01 + c["remote_bytes"] / 1e6
            )
            assert info["gauges"]["staged"] <= 2
            assert c["staged_evictions"] > 0
        finally:
            src.close()

    def test_staged_reuse_skips_refetch(self, shard_dir):
        src = self._remote(shard_dir, max_cached=1, max_staged=4)
        try:
            src.snapshot(0)
            src.snapshot(1)  # evicts 0 from RAM (max_cached=1), not staging
            src.snapshot(0)  # RAM miss, staging hit: no second fetch of 0
            c = src.cache_info()["counters"]
            assert c["remote_fetches"] == 2
            assert c["staged_hits"] >= 1
        finally:
            src.close()

    def test_lazy_read_after_staging_eviction_restages(self, shard_dir, sst):
        """A held, undecoded snapshot whose shard left a 1-shard staging
        tier re-stages on its deferred read — and keeps the re-staged
        files until the read is done, though the fetch's own eviction
        pass runs first."""
        src = self._remote(shard_dir, max_staged=1, max_cached=1)
        try:
            held = src.snapshot(0)
            src.snapshot(1)
            src.snapshot(2)  # shard 0 is gone from RAM and staging now
            assert np.array_equal(held.get("u"), sst.snapshots[0].get("u"))
            assert src.cache_info()["counters"]["remote_fetches"] == 4
        finally:
            src.close()

    def test_threaded_held_reads_survive_staging_churn(self, shard_dir, sst):
        """Four threads (more than the cores) share a 1-shard staging tier
        under a 10 µs switch interval: each holds an undecoded snapshot
        while the others' fetches evict its shard, then reads a stored or
        persisted derived member.  Every deferred read re-stages and pins
        its shard, so none sees its files vanish."""
        import sys
        import threading

        src = self._remote(shard_dir, max_staged=1, max_cached=1)
        n, errors = sst.n_snapshots, []
        want = {(i, var): np.asarray(sst.snapshots[i].get(var))
                for i in range(n) for var in ("u", "v", "w", "pv")}

        def read(k: int, var: str) -> None:
            try:
                for r in range(40):
                    i = (k + r) % n
                    held = src.snapshot(i)
                    src.snapshot((i + 1) % n)
                    assert np.array_equal(held.get(var), want[i, var]), (i, var)
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=read, args=(k, var), daemon=True)
                   for k, var in enumerate(("u", "v", "w", "pv"))]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            src.close()
        assert not any(t.is_alive() for t in threads)
        assert not errors, repr(errors[0])
        assert src.cache_info()["counters"]["staged_evictions"] > 0

    def test_owned_staging_dir_removed_on_close(self, shard_dir):
        import os

        src = self._remote(shard_dir)
        staging = src.path
        assert os.path.isdir(staging)
        src.close()
        assert not os.path.isdir(staging)
        assert os.path.isdir(shard_dir)  # the remote is never touched

    def test_caller_staging_dir_kept(self, shard_dir, tmp_path):
        import os

        staging = str(tmp_path / "stage")
        src = self._remote(shard_dir, staging_dir=staging)
        src.snapshot(0)
        src.close()
        assert os.path.isdir(staging)

    def test_reopen_preserves_knobs(self, shard_dir):
        src = self._remote(shard_dir, max_staged=3, latency_s=0.25)
        dup = src.reopen()
        try:
            assert isinstance(dup, RemoteTieredSource)
            assert dup.remote_path == src.remote_path
            assert dup.max_staged == 3 and dup.latency_s == 0.25
            assert dup.path != src.path  # private staging tier
        finally:
            src.close()
            dup.close()

    def test_validation(self, shard_dir, tmp_path):
        with pytest.raises(FileNotFoundError):
            RemoteTieredSource(str(tmp_path / "nope"))
        with pytest.raises(ValueError):
            self._remote(shard_dir, max_staged=0)
        with pytest.raises(ValueError):
            self._remote(shard_dir, latency_s=-1)
        with pytest.raises(ValueError):
            self._remote(shard_dir, bandwidth=0)

    def test_subsample_matches_local_source(self, shard_dir):
        """The tier is transparent: same selections as a local source."""
        local = subsample(ShardDirSource(shard_dir, max_cached=2),
                          small_case(), nranks=1, seed=0)
        src = self._remote(shard_dir, max_cached=2)
        try:
            remote = subsample(src, small_case(), nranks=1, seed=0)
        finally:
            src.close()
        assert np.array_equal(local.points.coords, remote.points.coords)
        for var, vals in local.points.values.items():
            assert np.array_equal(vals, remote.points.values[var]), var
