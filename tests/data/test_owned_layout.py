"""Tests for reopened shard spans (``ShardDirSource.reopen``), the private
per-rank sources of owned-shard runs, and the cross-rank cache_info
aggregation."""

import os
import threading

import numpy as np
import pytest

from repro.data import (
    ShardDirSource,
    aggregate_cache_info,
    build_dataset,
    open_source,
    save_dataset,
)
from repro.parallel.partition import stream_partitions


@pytest.fixture(scope="module")
def sst():
    return build_dataset("SST-P1F4", scale=1.0, rng=0, n_snapshots=5)


@pytest.fixture(scope="module")
def shard_dir(sst, tmp_path_factory):
    path = tmp_path_factory.mktemp("owned-shards")
    save_dataset(sst, str(path))
    return str(path)


@pytest.fixture(scope="module")
def specs(sst, shard_dir, tmp_path_factory):
    """One source spec per codec, plus the npz directory behind remote://."""
    out = {"npz": shard_dir, "remote": f"remote://{shard_dir}?latency_s=0"}
    for codec in ("raw", "chunked"):
        out[codec] = str(tmp_path_factory.mktemp(f"owned-{codec}"))
        save_dataset(sst, out[codec], codec=codec)
    return out


class TestReopenedSpan:
    @pytest.mark.parametrize("spec", ["npz", "raw", "chunked", "remote"])
    def test_span_reads_the_base_shards_byte_for_byte(self, specs, spec, sst):
        with open_source(specs[spec]) as base:
            span = base.reopen(1, 4)
        try:  # the span outlives its base: it shares no state with it
            assert type(span) is type(base) and span.codec is base.codec
            assert span.n_snapshots == 3 and span.label == sst.label
            assert list(span.times) == list(sst.times[1:4])
            for j in range(3):
                got, want = span.snapshot(j), sst.snapshots[1 + j]
                assert got.time == want.time
                for name, arr in want.variables.items():
                    assert got.get(name).dtype == arr.dtype
                    assert got.get(name).tobytes() == arr.tobytes(), (j, name)
        finally:
            span.close()

    def test_remote_span_stages_only_its_own_shards(self, specs):
        """Staged copies keep the directory's shard names, and the prefetch
        look-ahead stops at the span's end."""
        with open_source(specs["remote"], prefetch=4) as base:
            span = base.reopen(1, 3)
        try:
            span.snapshot(0)
            span.snapshot(1)
            assert sorted(os.listdir(span.path)) == [
                "manifest.json", "snapshot_00001.npz", "snapshot_00002.npz"]
        finally:
            span.close()  # joins the prefetcher: every fetch has landed
        assert span.cache_info()["counters"]["remote_fetches"] == 2

    @pytest.mark.parametrize("nranks", [2, 3, 7])
    def test_stream_partition_spans_cover_every_shard_once(self, shard_dir, sst, nranks):
        with ShardDirSource(shard_dir) as base:
            spans = [base.reopen(p.lo, p.hi)
                     for p in stream_partitions(base.n_snapshots, nranks)]
        try:
            # every snapshot appears exactly once, in global order
            assert [t for span in spans for t in span.times] == list(sst.times)
            for span in spans[sst.n_snapshots:]:  # ranks past the shard count
                assert span.n_snapshots == 0
                assert span.nbytes() == 0
                assert list(span.iter_tables(["u"])) == []
                assert list(span.iter_snapshots()) == []
        finally:
            for span in spans:
                span.close()

    def test_target_and_stored_ranges_are_sliced(self, tmp_path):
        ds = build_dataset("OF2D", scale=0.3, rng=0, n_snapshots=4)
        path = str(tmp_path / "of2d")
        save_dataset(ds, path)
        with ShardDirSource(path) as base:
            var = base.cluster_var
            span = base.reopen(1, 3)
            inner = span.reopen(1, 2)  # a span of a span: [2, 3) of the base
            assert np.array_equal(span.target, ds.target[1:3])
            assert np.array_equal(inner.target, ds.target[2:3])
            assert [span.stored_range(var, j) for j in range(2)] == [
                base.stored_range(var, i) for i in (1, 2)]
            assert inner.stored_range(var, 0) == base.stored_range(var, 2)
            assert inner.snapshot(0).time == ds.snapshots[2].time
            with pytest.raises(IndexError):
                span.stored_range(var, 2)

    def test_each_reopened_source_has_its_own_lru(self, shard_dir):
        with ShardDirSource(shard_dir, max_cached=1, prefetch=1) as base:
            a, b = base.reopen(0, 3), base.reopen(0, 3)
        try:
            assert (a.max_cached, a.prefetch_depth) == (1, 1)
            a.snapshot(0)
            assert a.cache_info()["counters"]["misses"] == 1
            assert b.cache_info()["counters"]["misses"] == 0  # no shared cache
            assert base.cache_info()["counters"]["misses"] == 0
        finally:
            a.close()
            b.close()

    def test_invalid_span_raises(self, shard_dir):
        with ShardDirSource(shard_dir) as base:
            for lo, hi in ((-1, 2), (3, 2), (0, base.n_snapshots + 1)):
                with pytest.raises(ValueError, match=rf"span \[{lo}, {hi}\) invalid"):
                    base.reopen(lo, hi)
            with base.reopen(1, 3) as span:
                with pytest.raises(ValueError, match="invalid for a 2-snapshot source"):
                    span.reopen(0, 3)
                with pytest.raises(IndexError):
                    span.snapshot(2)


def schema2(**counters) -> dict:
    """A ``cache_info()``-shaped dict with the given counters (others 0)."""
    from dataclasses import fields

    from repro.data import CacheCounters

    names = [f.name for f in fields(CacheCounters)]
    return {"schema": 2, "codec": "npz", "tier": "local", "gauges": {},
            "counters": {**dict.fromkeys(names, 0), **counters}}


class TestAggregateCacheInfo:
    def test_sums_counters_and_derives_decodes(self):
        infos = [
            schema2(hits=2, misses=3, prefetched=1, evictions=0),
            schema2(hits=1, misses=2, prefetched=0, evictions=4),
        ]
        agg = aggregate_cache_info(infos)
        assert agg["ranks"] == 2
        assert agg["hits"] == 3 and agg["misses"] == 5
        assert agg["decodes"] == 5 + 1
        assert agg["evictions"] == 4

    def test_skips_none_entries(self):
        agg = aggregate_cache_info([None, schema2(misses=2), None])
        assert agg["ranks"] == 1 and agg["decodes"] == 2

    def test_empty(self):
        agg = aggregate_cache_info([])
        assert agg["ranks"] == 0 and agg["decodes"] == 0


class TestCloseLifecycle:
    def test_close_joins_prefetch_thread(self, shard_dir):
        before = {t for t in threading.enumerate()}
        src = ShardDirSource(shard_dir, max_cached=2, prefetch=2)
        src.prefetch([0, 1])
        src.snapshot(0)
        src.close()
        leaked = [t for t in threading.enumerate()
                  if t not in before and t.name == "shard-prefetch"]
        assert leaked == [], f"prefetch thread leaked: {leaked}"

    def test_context_manager_closes(self, shard_dir):
        with ShardDirSource(shard_dir, max_cached=2, prefetch=1) as src:
            src.snapshot(0)
            src.snapshot(1)
        assert not any(
            t.name == "shard-prefetch" and t.is_alive()
            for t in threading.enumerate()
        )
        # Closing is idempotent and reentry-safe.
        src.close()
