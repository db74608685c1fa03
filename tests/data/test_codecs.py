"""Shard-codec registry tests: every codec round-trips byte-identically,
stream subsampling is codec-invariant per (seed, nranks) — owned shards
included — lazy decode keeps real Mapping semantics, a persisted derived
cluster variable reads back bit-identically to deriving it, npz shards store
their members so no read inflates zlib (directories whose members were
deflated still read, with identical results), and batch phase 1 gives the
same results from the manifest's per-shard ranges as from scanning."""

import dataclasses
import hashlib
import json
import os
import zipfile
import zlib

import numpy as np
import pytest

from repro.api import Experiment
from repro.data import (
    InMemorySource,
    RemoteTieredSource,
    ShardDirSource,
    build_dataset,
    codec_names,
    get_codec,
    load_dataset,
    open_source,
    register_codec,
    save_dataset,
)
from repro.data.codecs import ShardCodec
from repro.data.dataset import TurbulenceDataset
from repro.data.store import MANIFEST, META_KEY, read_manifest, write_manifest
from repro.parallel.comm import SerialComm
from repro.sampling import subsample
from repro.sampling.stages import CubeIndexStage, Phase1SummarizeStage, PipelineContext
from repro.sim.fields import DERIVED_VARIABLES, FlowField
from repro.utils.config import CaseConfig, SharedConfig, SubsampleConfig, TrainConfig

ALL_CODECS = ("npz", "raw", "chunked")


@pytest.fixture(scope="module")
def sst():
    return build_dataset("SST-P1F4", scale=1.0, rng=0, n_snapshots=6)


@pytest.fixture(scope="module")
def codec_dirs(sst, tmp_path_factory):
    """One saved shard directory per codec, from the same dataset."""
    dirs = {}
    for codec in ALL_CODECS:
        path = tmp_path_factory.mktemp(f"shards_{codec}")
        save_dataset(sst, str(path), codec=codec)
        dirs[codec] = str(path)
    return dirs


def save_legacy_format(dataset, path, codec):
    """A directory as save_dataset wrote it before shards persisted the
    derived cluster variable: the same manifest, every shard encoded
    without derived members."""
    save_dataset(dataset, path, codec=codec)
    c = get_codec(codec)
    for i, snap in enumerate(dataset.snapshots):
        c.remove_shard(path, i)
        c.encode(path, i, snap)


@pytest.fixture(scope="module")
def legacy_dirs(sst, tmp_path_factory):
    """Per codec, the same dataset in the format without derived members."""
    dirs = {}
    for codec in ALL_CODECS:
        path = str(tmp_path_factory.mktemp(f"legacy_{codec}"))
        save_legacy_format(sst, path, codec)
        dirs[codec] = path
    return dirs


def save_deflated_format(dataset, path):
    """An npz directory as save_dataset wrote it while shard members were
    deflated: the same manifest, each shard ``np.savez_compressed`` of the
    stored variables, ``time`` and the JSON metadata, then the derived
    cluster variable appended as a stored member."""
    save_dataset(dataset, path, codec="npz")
    codec = get_codec("npz")
    for i, snap in enumerate(dataset.snapshots):
        shard = codec.shard_path(path, i)
        payload = {f"var_{k}": v for k, v in snap.variables.items()}
        payload["time"] = np.array(snap.time)
        payload[META_KEY] = np.array(json.dumps(snap.meta))
        with open(shard, "wb") as fh:
            np.savez_compressed(fh, **payload)
        with zipfile.ZipFile(shard, "a") as zf:
            with zf.open(f"der_{dataset.cluster_var}.npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array(
                    fh, np.asanyarray(snap.get(dataset.cluster_var)), allow_pickle=False)


@pytest.fixture(scope="module")
def deflated_dir(sst, tmp_path_factory):
    """The dataset as an npz directory whose members are deflated."""
    path = str(tmp_path_factory.mktemp("deflated_npz"))
    save_deflated_format(sst, path)
    return path


def member_methods(path):
    """Zip member name -> compression method of the npz at `path`."""
    with zipfile.ZipFile(path) as zf:
        return {info.filename: info.compress_type for info in zf.infolist()}


def without_ranges(path, dest):
    """`path` as save_dataset wrote it before manifests recorded per-shard
    value ranges: the same shards (hardlinked), the manifest key removed."""
    manifest = read_manifest(path)
    codec = get_codec(manifest["codec"])
    for i in range(manifest["n_snapshots"]):
        codec.link_shard(path, dest, i)
    del manifest["value_ranges"]
    write_manifest(dest, manifest)


@pytest.fixture(scope="module")
def rangeless_dirs(codec_dirs, tmp_path_factory):
    """Per codec, the same directory without the manifest's value ranges."""
    dirs = {}
    for codec, path in codec_dirs.items():
        dirs[codec] = str(tmp_path_factory.mktemp(f"rangeless_{codec}"))
        without_ranges(path, dirs[codec])
    return dirs


def derive(snap, name="pv"):
    """`name` computed from the stored variables, bypassing any cache."""
    return DERIVED_VARIABLES[name](snap)


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def points_digest(res) -> str:
    pts = res.points
    h = hashlib.sha256()
    for arr in (pts.coords, np.asarray(pts.time),
                *(pts.values[k] for k in sorted(pts.values))):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def stream_case(**overrides):
    sub = dict(hypercubes="maxent", method="maxent", num_hypercubes=4,
               num_samples=32, num_clusters=4, nxsl=8, nysl=8, nzsl=8)
    sub.update(overrides)
    return CaseConfig(
        shared=SharedConfig(dims=3),
        subsample=SubsampleConfig(**sub),
        train=TrainConfig(arch="mlp_transformer"),
    )


class TestRegistry:
    def test_builtin_codecs_registered(self):
        assert set(ALL_CODECS) <= set(codec_names())

    def test_get_codec_accepts_instance_and_name(self):
        raw = get_codec("raw")
        assert get_codec(raw) is raw
        assert get_codec("raw") is raw  # registry holds singletons

    def test_unknown_codec_is_loud(self):
        with pytest.raises(KeyError, match="unknown shard codec 'zstd'"):
            get_codec("zstd")

    def test_register_codec_extends_registry(self):
        class NullCodec(ShardCodec):
            name = "test-null"

            def shard_name(self, index):
                return f"{index}.null"

            def encode(self, directory, index, field):
                raise NotImplementedError

            def decode(self, directory, index):
                raise NotImplementedError

            def decode_lazy(self, directory, index):
                raise NotImplementedError

            def shard_time(self, directory, index):
                raise NotImplementedError

        try:
            register_codec(NullCodec)
            assert "test-null" in codec_names()
            assert get_codec("test-null").shard_name(3) == "3.null"
        finally:
            from repro.data.codecs import CODECS

            CODECS.pop("test-null", None)


class TestRoundTrip:
    @pytest.mark.parametrize("codec", ALL_CODECS)
    def test_save_load_is_bit_exact(self, sst, codec_dirs, codec):
        ds = load_dataset("sst-binary", path=codec_dirs[codec])
        assert ds.label == sst.label
        assert ds.n_snapshots == sst.n_snapshots
        for got, want in zip(ds.snapshots, sst.snapshots):
            assert got.time == want.time
            assert sorted(got.variables) == sorted(want.variables)
            for name, arr in want.variables.items():
                got_arr = np.asarray(got.variables[name])
                assert got_arr.dtype == arr.dtype, name
                assert np.array_equal(got_arr, arr), name

    @pytest.mark.parametrize("codec", ALL_CODECS)
    def test_manifest_self_describes_and_source_autodetects(
        self, codec_dirs, codec
    ):
        manifest = read_manifest(codec_dirs[codec])
        assert manifest["codec"] == codec
        src = ShardDirSource(codec_dirs[codec])
        assert src.codec.name == codec

    def test_legacy_manifest_without_codec_key_reads_as_npz(
        self, sst, tmp_path
    ):
        path = str(tmp_path / "legacy")
        save_dataset(sst, path)  # npz default
        manifest = read_manifest(path)
        del manifest["codec"]
        write_manifest(path, manifest)
        src = ShardDirSource(path)
        assert src.codec.name == "npz"
        assert np.array_equal(
            src.snapshot(0).get("u"), sst.snapshots[0].get("u")
        )

    @pytest.mark.parametrize("codec", ("raw", "chunked"))
    def test_source_times_and_nbytes_match_npz(self, codec_dirs, codec):
        ref = ShardDirSource(codec_dirs["npz"])
        src = ShardDirSource(codec_dirs[codec])
        assert np.array_equal(src.times, ref.times)
        assert src.nbytes() == ref.nbytes()
        assert src.grid_shape == ref.grid_shape


class TestStoredMembers:
    """npz shards store every member, so reading one is a plain read plus
    its CRC-32 check; directories written with deflated members still read
    bit-exactly."""

    def test_fresh_npz_members_are_stored(self, sst, codec_dirs):
        npz = get_codec("npz")
        for i in range(sst.n_snapshots):
            methods = member_methods(npz.shard_path(codec_dirs["npz"], i))
            assert "der_pv.npy" in methods and "var_u.npy" in methods
            assert set(methods.values()) == {zipfile.ZIP_STORED}, (i, methods)

    def test_no_shard_read_inflates_zlib(self, codec_dirs, monkeypatch):
        def inflate(*args, **kwargs):
            raise AssertionError("a shard read inflated zlib")

        monkeypatch.setattr(zlib, "decompress", inflate)
        monkeypatch.setattr(zlib, "decompressobj", inflate)
        path = codec_dirs["npz"]
        case = stream_case()
        for mode in ("batch", "stream"):
            with open_source(path, max_cached=2) as src:
                res = subsample(src, case, nranks=2, seed=0, mode=mode)
            assert res.n_samples == 4 * 32, mode
        train_case = dataclasses.replace(
            case, train=TrainConfig(epochs=1, batch=4, arch="mlp_transformer"))
        with open_source(path, max_cached=2) as src:
            exp = (Experiment.from_case(train_case).with_source(src).with_seed(0)
                   .subsample(mode="stream", ranks=2).train(mode="stream"))
        fit = exp.train_artifact.result
        assert fit.epochs_run == 1 and np.isfinite(fit.final_test_loss)

    def test_deflated_format_round_trips(self, sst, deflated_dir):
        methods = member_methods(get_codec("npz").shard_path(deflated_dir, 0))
        assert methods.pop("der_pv.npy") == zipfile.ZIP_STORED
        assert set(methods.values()) == {zipfile.ZIP_DEFLATED}
        src = ShardDirSource(deflated_dir)
        for i, want in enumerate(sst.snapshots):
            for how, got in (("lazy", src.snapshot(i)),
                             ("decode", src.codec.decode(deflated_dir, i))):
                assert got.time == want.time and got.meta == want.meta
                assert list(got.variables) == list(want.variables)
                for name, arr in want.variables.items():
                    assert same_bytes(got.variables[name], arr), (how, i, name)
                assert same_bytes(got.get("pv"), derive(want)), (how, i)


class TestStreamGolden:
    """Acceptance: stream-subsample output is byte-identical to the npz
    golden for every codec, per (seed, nranks), owned shards included."""

    @pytest.mark.parametrize("seed,nranks", [(0, 1), (0, 2), (3, 2)])
    def test_codecs_match_npz_golden(self, codec_dirs, seed, nranks):
        def run(path):
            src = open_source(path, max_cached=2)
            try:
                return subsample(src, stream_case(), nranks=nranks,
                                 seed=seed, mode="stream")
            finally:
                src.close()

        golden = run(codec_dirs["npz"])
        for codec in ("raw", "chunked"):
            got = run(codec_dirs[codec])
            assert np.array_equal(golden.points.coords, got.points.coords), codec
            assert np.array_equal(golden.points.time, got.points.time), codec
            for var, vals in golden.points.values.items():
                assert np.array_equal(vals, got.points.values[var]), (codec, var)

    @pytest.mark.parametrize("codec", ("raw", "chunked"))
    def test_owned_shards_match_npz_golden(self, codec_dirs, codec):
        def run(path):
            src = open_source(path, max_cached=2)
            try:
                return subsample(src, stream_case(), nranks=2, seed=0,
                                 mode="stream", owned_shards=True)
            finally:
                src.close()

        golden = run(codec_dirs["npz"])
        got = run(codec_dirs[codec])
        assert np.array_equal(golden.points.coords, got.points.coords)
        for var, vals in golden.points.values.items():
            assert np.array_equal(vals, got.points.values[var]), var

    def test_remote_tier_matches_npz_golden(self, codec_dirs):
        golden_src = open_source(codec_dirs["npz"], max_cached=2)
        remote_src = open_source(
            f"remote://{codec_dirs['raw']}?latency_s=0.01&max_staged=2"
        )
        try:
            golden = subsample(golden_src, stream_case(), nranks=2, seed=0,
                               mode="stream")
            got = subsample(remote_src, stream_case(), nranks=2, seed=0,
                            mode="stream")
        finally:
            golden_src.close()
            remote_src.close()
        assert np.array_equal(golden.points.coords, got.points.coords)
        for var, vals in golden.points.values.items():
            assert np.array_equal(vals, got.points.values[var]), var
        assert remote_src.cache_info()["counters"]["remote_fetches"] > 0


class TestLazyMappingSemantics:
    @pytest.mark.parametrize("codec", ("raw", "chunked"))
    def test_lazy_members_are_a_real_mapping(self, sst, codec_dirs, codec):
        snap = ShardDirSource(codec_dirs[codec]).snapshot(0)
        assert snap.decoded_members() == []
        assert snap.grid_shape == sst.grid_shape  # metadata only, no decode
        assert snap.decoded_members() == []
        u = snap.get("u")
        assert snap.decoded_members() == ["u"]
        assert np.array_equal(u, sst.snapshots[0].get("u"))
        assert snap.variables.get("not-a-var", "sentinel") == "sentinel"
        full = dict(snap.variables)
        assert sorted(full) == sorted(sst.snapshots[0].variables)
        assert all(np.asarray(v).size for v in full.values())
        assert len(snap.variables) == len(sst.snapshots[0].variables)

    @pytest.mark.parametrize("codec", ("raw", "chunked"))
    def test_lazy_nbytes_is_header_only(self, codec_dirs, codec):
        lazy = ShardDirSource(codec_dirs[codec]).snapshot(0)
        eager = get_codec(codec).decode(codec_dirs[codec], 0)
        assert lazy.nbytes() == eager.nbytes()
        assert lazy.decoded_members() == []

    @pytest.mark.parametrize("codec", ("raw", "chunked"))
    def test_derived_variables_compose_with_lazy_members(
        self, sst, codec_dirs, codec
    ):
        snap = ShardDirSource(codec_dirs[codec]).snapshot(0)
        assert np.allclose(snap.get("pv"), sst.snapshots[0].get("pv"))


class TestPersistedDerived:
    """save_dataset persists a derived cluster variable next to each shard's
    stored variables; readers decode it instead of re-deriving it."""

    @pytest.mark.parametrize("codec", ALL_CODECS)
    def test_cluster_var_read_decodes_no_stored_member(
        self, sst, codec_dirs, codec
    ):
        src = ShardDirSource(codec_dirs[codec], max_cached=2)
        for i in range(sst.n_snapshots):
            snap = src.snapshot(i)
            pv = snap.get("pv")
            assert snap.decoded_members() == []
            assert same_bytes(pv, derive(sst.snapshots[i])), i

    @pytest.mark.parametrize("codec", ALL_CODECS)
    def test_legacy_format_still_derives(self, sst, legacy_dirs, codec):
        snap = ShardDirSource(legacy_dirs[codec]).snapshot(1)
        assert same_bytes(snap.get("pv"), derive(sst.snapshots[1]))
        assert snap.decoded_members() == ["r", "u", "v", "w"]

    @pytest.mark.parametrize("codec", ALL_CODECS)
    def test_variables_nbytes_and_round_trip_unchanged(
        self, sst, codec_dirs, legacy_dirs, codec, tmp_path
    ):
        new = ShardDirSource(codec_dirs[codec])
        old = ShardDirSource(legacy_dirs[codec])
        c = get_codec(codec)
        for new_snap, old_snap in (
            (new.snapshot(0), old.snapshot(0)),
            (c.decode(codec_dirs[codec], 0), c.decode(legacy_dirs[codec], 0)),
        ):
            assert list(new_snap.variables) == list(old_snap.variables)
            assert "pv" not in new_snap.variables
            assert new_snap.nbytes() == old_snap.nbytes()
        assert new.nbytes() == old.nbytes()
        # save -> load -> save -> load keeps stored and derived values
        loaded = load_dataset("sst-binary", path=codec_dirs[codec])
        save_dataset(loaded, str(tmp_path), codec=codec)
        again = load_dataset("sst-binary", path=str(tmp_path))
        for got, want in zip(again.snapshots, sst.snapshots):
            assert list(got.variables) == list(want.variables)
            for name, arr in want.variables.items():
                assert same_bytes(got.variables[name], arr), name
            assert same_bytes(got.get("pv"), derive(want))

    @pytest.mark.parametrize("codec", ALL_CODECS)
    def test_materialize_decodes_persisted_member(
        self, sst, codec_dirs, codec, tmp_path
    ):
        c = get_codec(codec)
        c.link_shard(codec_dirs[codec], str(tmp_path), 2)
        field = c.decode_lazy(str(tmp_path), 2).materialize()
        c.remove_shard(str(tmp_path), 2)  # any later read would fail
        assert same_bytes(field.get("pv"), derive(sst.snapshots[2]))
        assert field.decoded_members() == sorted(sst.snapshots[2].variables)

    @pytest.mark.parametrize("codec", ALL_CODECS)
    def test_remote_tier_restages_persisted_member(self, sst, codec_dirs, codec):
        src = RemoteTieredSource(codec_dirs[codec], max_staged=1, max_cached=1)
        try:
            held = src.snapshot(0)
            src.snapshot(1)
            src.snapshot(2)  # shard 0 left RAM and the staging tier
            assert same_bytes(held.get("pv"), derive(sst.snapshots[0]))
            assert held.decoded_members() == []
            assert src.cache_info()["counters"]["remote_fetches"] == 4
        finally:
            src.close()

    def test_only_derived_cluster_vars_persist(self, tmp_path):
        tc2d = build_dataset("TC2D", scale=0.25, rng=0)  # stored "c"
        save_dataset(tc2d, str(tmp_path / "tc2d"))
        with np.load(str(tmp_path / "tc2d" / "snapshot_00000.npz")) as data:
            assert not [k for k in data.files if k.startswith("der_")]

    @pytest.mark.parametrize("mode", ("batch", "stream"))
    @pytest.mark.parametrize("seed,nranks", [(0, 1), (3, 2)])
    def test_subsample_identical_for_every_format_codec_and_tier(
        self, sst, codec_dirs, legacy_dirs, deflated_dir, mode, seed, nranks
    ):
        """New directories, legacy-format directories, an npz directory
        with deflated members and the in-memory source (deriving pv from
        resident arrays) give byte-identical samples, local and remote://.
        In stream mode the in-memory source withholds its exact value-range
        hint, which shard sources do not give and which moves the online
        histogram edges by design."""

        class InMemoryNoHint(InMemorySource):
            def value_range_hint(self, var):
                return None

        fresh = dataclasses.replace(sst, snapshots=[
            FlowField(s.variables, s.time, s.meta) for s in sst.snapshots])
        ref = InMemorySource(fresh) if mode == "batch" else InMemoryNoHint(fresh)
        want = points_digest(subsample(ref, stream_case(), nranks=nranks,
                                       seed=seed, mode=mode))
        paths = [dirs[codec] for codec in ALL_CODECS for dirs in (codec_dirs, legacy_dirs)]
        for path in [*paths, deflated_dir]:
            for spec in (path, f"remote://{path}?max_staged=2"):
                src = open_source(spec, max_cached=2)
                try:
                    got = points_digest(subsample(
                        src, stream_case(), nranks=nranks, seed=seed, mode=mode))
                finally:
                    src.close()
                assert got == want, spec


def outcome(res):
    """What a batch run must reproduce byte for byte: the points, the
    virtual time and the energy."""
    return points_digest(res), res.virtual_time.hex(), res.energy.total_energy.hex()


def phase1(source, case):
    """Run cube indexing and phase 1 alone on one serial rank."""
    ctx = PipelineContext(comm=SerialComm(), source=source, config=case)
    CubeIndexStage().run(ctx)
    Phase1SummarizeStage().run(ctx)
    return ctx


class TestStoredRanges:
    """save_dataset records each shard's cluster-variable (min, max) in the
    manifest; batch phase 1 takes its histogram range from there instead
    of a first decode pass, with byte-identical results."""

    @pytest.mark.parametrize("codec", ALL_CODECS)
    def test_manifest_records_each_shard_range(self, sst, codec_dirs, codec):
        ranges = read_manifest(codec_dirs[codec])["value_ranges"]
        assert list(ranges) == ["pv"]
        src = ShardDirSource(codec_dirs[codec])
        for i, snap in enumerate(sst.snapshots):
            pv = derive(snap)
            assert ranges["pv"][i] == [float(pv.min()), float(pv.max())]
            assert src.stored_range("pv", i) == (float(pv.min()), float(pv.max()))
        assert src.stored_range("u", 0) is None
        with pytest.raises(IndexError):
            src.stored_range("pv", sst.n_snapshots)
        # Stream sampling never sees them: its histogram edges stay put.
        assert src.value_range_hint("pv") is None

    @pytest.mark.parametrize("seed,nranks", [(0, 1), (3, 2)])
    def test_batch_identical_with_without_ranges_and_in_memory(
        self, sst, codec_dirs, rangeless_dirs, seed, nranks
    ):
        fresh = dataclasses.replace(sst, snapshots=[
            FlowField(s.variables, s.time, s.meta) for s in sst.snapshots])
        want = outcome(subsample(InMemorySource(fresh), stream_case(),
                                 nranks=nranks, seed=seed))
        for codec in ALL_CODECS:
            for dirs in (codec_dirs, rangeless_dirs):
                for spec in (dirs[codec], f"remote://{dirs[codec]}?max_staged=2"):
                    src = open_source(spec, max_cached=2)
                    try:
                        got = outcome(subsample(src, stream_case(), nranks=nranks,
                                                seed=seed))
                    finally:
                        src.close()
                    assert got == want, (codec, spec)

    @pytest.mark.parametrize("codec", ALL_CODECS)
    def test_ranges_replace_the_first_pass(self, sst, codec_dirs, rangeless_dirs, codec):
        """A 1-shard LRU decodes every snapshot once in cube indexing and
        phase 1 with ranges, twice without; the edges are the same."""
        edges, misses = {}, {}
        for name, dirs in (("ranges", codec_dirs), ("scan", rangeless_dirs)):
            src = ShardDirSource(dirs[codec], max_cached=1)
            edges[name] = phase1(src, stream_case()).edges.tobytes()
            misses[name] = src.cache_info()["counters"]["misses"]
        assert misses == {"ranges": sst.n_snapshots, "scan": 2 * sst.n_snapshots}
        assert edges["ranges"] == edges["scan"]

    def test_cubes_that_leave_a_remainder_scan(self, tmp_path):
        """A tiling that drops remainder cells must scan: the remainder can
        hold the extremes, which no cube (and so no scan) sees."""
        rng = np.random.default_rng(0)
        snaps = []
        for t in range(3):
            c = rng.standard_normal((16, 16, 12))
            c[..., 8:] *= 10.0  # extremes in the z >= 8 remainder of 8-cubes
            snaps.append(FlowField({"c": c, "u": rng.standard_normal(c.shape)}, float(t)))
        ds = TurbulenceDataset(label="T", snapshots=snaps, input_vars=["u"],
                               output_vars=["u"], cluster_var="c")
        save_dataset(ds, str(tmp_path))
        stored = max(hi for _, hi in read_manifest(str(tmp_path))["value_ranges"]["c"])
        for z, tiles in ((8, False), (4, True)):
            case = stream_case(num_hypercubes=2, nzsl=z)
            want = phase1(InMemorySource(ds), case).edges
            got = phase1(ShardDirSource(str(tmp_path)), case).edges
            assert got.tobytes() == want.tobytes(), z
            assert (got[-1] == stored) == tiles, z

    def test_mismatched_range_count_is_refused(self, codec_dirs, tmp_path):
        without_ranges(codec_dirs["raw"], str(tmp_path))
        manifest = read_manifest(str(tmp_path))
        manifest["value_ranges"] = {"pv": [[0.0, 1.0]]}
        write_manifest(str(tmp_path), manifest)
        with pytest.raises(ValueError, match="lists 1 'pv' ranges for 6 shards"):
            ShardDirSource(str(tmp_path))

    def test_non_finite_values_record_no_ranges(self, tmp_path):
        tc2d = build_dataset("TC2D", scale=0.25, rng=0)  # stored "c"
        tc2d.snapshots[-1].variables[tc2d.cluster_var][0, 0] = np.nan
        save_dataset(tc2d, str(tmp_path))
        assert "value_ranges" not in read_manifest(str(tmp_path))


class TestAtomicManifest:
    def test_write_manifest_replaces_atomically(self, tmp_path):
        path = str(tmp_path)
        write_manifest(path, {"n_snapshots": 1})
        assert read_manifest(path) == {"n_snapshots": 1}
        write_manifest(path, {"n_snapshots": 2})
        assert read_manifest(path) == {"n_snapshots": 2}
        assert not os.path.exists(os.path.join(path, MANIFEST + ".tmp"))

    def test_killed_writer_leaves_no_half_valid_dir(self, sst, tmp_path):
        """Satellite bugfix: a writer dying mid-save must leave a directory
        that ShardDirSource refuses, never one it silently opens."""
        path = str(tmp_path / "halfway")

        calls = {"n": 0}
        real_replace = os.replace

        def dying_replace(src, dst, *a, **kw):
            if dst.endswith(MANIFEST):
                calls["n"] += 1
                raise KeyboardInterrupt("killed mid-save")  # before commit
            return real_replace(src, dst, *a, **kw)

        import repro.data.store as store_mod

        store_mod.os.replace, saved = dying_replace, store_mod.os.replace
        try:
            with pytest.raises(KeyboardInterrupt):
                save_dataset(sst, path, codec="raw")
        finally:
            store_mod.os.replace = saved
        assert calls["n"] == 1
        # Shards exist but the commit record does not: opening must fail.
        assert os.path.isdir(path) and os.listdir(path)
        assert not os.path.exists(os.path.join(path, MANIFEST))
        with pytest.raises(FileNotFoundError, match="no manifest.json"):
            ShardDirSource(path)

    def test_torn_tmp_file_never_shadows_manifest(self, sst, tmp_path):
        """The tmp file is invisible to readers even if it survives."""
        path = str(tmp_path / "ds")
        save_dataset(sst, path, codec="chunked")
        torn = os.path.join(path, MANIFEST + ".tmp")
        with open(torn, "w", encoding="utf-8") as fh:
            fh.write('{"n_snapshots":')  # torn JSON
        manifest = read_manifest(path)
        assert manifest["codec"] == "chunked"
        assert json.loads(open(os.path.join(path, MANIFEST)).read()) == manifest
