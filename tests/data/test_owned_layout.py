"""Tests for distributed shard ownership (OwnedShardLayout) and the
cross-rank cache_info aggregation."""

import json
import os
import threading

import numpy as np
import pytest

from repro.data import (
    OwnedShardLayout,
    ShardDirSource,
    aggregate_cache_info,
    build_dataset,
    save_dataset,
)
from repro.data.store import MANIFEST


@pytest.fixture(scope="module")
def sst():
    return build_dataset("SST-P1F4", scale=1.0, rng=0, n_snapshots=5)


@pytest.fixture(scope="module")
def shard_dir(sst, tmp_path_factory):
    path = tmp_path_factory.mktemp("owned-shards")
    save_dataset(sst, str(path))
    return str(path)


class TestOwnedShardLayout:
    def test_rank_dirs_are_valid_shard_directories(self, shard_dir, sst):
        layout = OwnedShardLayout.build(shard_dir, 2)
        try:
            assert layout.nranks == 2
            assert layout.spans == [(0, 3), (3, 5)]
            for r in range(2):
                src = ShardDirSource(layout.rank_dir(r))
                lo, hi = layout.rank_span(r)
                assert src.n_snapshots == hi - lo
                assert src.label == sst.label
                for j in range(src.n_snapshots):
                    a, b = src.snapshot(j), sst.snapshots[lo + j]
                    assert a.time == b.time
                    for name, arr in b.variables.items():
                        assert np.array_equal(a.get(name), arr), name
        finally:
            layout.remove()

    def test_ownership_is_disjoint_and_covering(self, shard_dir, sst):
        layout = OwnedShardLayout.build(shard_dir, 3)
        try:
            times = []
            for r in range(3):
                src = ShardDirSource(layout.rank_dir(r))
                times.extend(src.times)
            # Every snapshot appears exactly once, in global order.
            assert times == list(sst.times)
        finally:
            layout.remove()

    def test_more_ranks_than_shards_gives_empty_tail_dirs(self, shard_dir, sst):
        layout = OwnedShardLayout.build(shard_dir, sst.n_snapshots + 2)
        try:
            tail = ShardDirSource(layout.rank_dir(layout.nranks - 1))
            assert tail.n_snapshots == 0
            assert tail.nbytes() == 0
            assert list(tail.iter_tables(["u"])) == []
            assert list(tail.iter_snapshots()) == []
        finally:
            layout.remove()

    def test_target_sliced_per_rank(self, tmp_path):
        ds = build_dataset("OF2D", scale=0.3, rng=0, n_snapshots=4)
        assert ds.target is not None
        path = str(tmp_path / "of2d")
        save_dataset(ds, path)
        layout = OwnedShardLayout.build(path, 2)
        try:
            for r in range(2):
                src = ShardDirSource(layout.rank_dir(r))
                lo, hi = layout.rank_span(r)
                assert np.allclose(src.target, ds.target[lo:hi])
        finally:
            layout.remove()

    def test_default_builds_are_isolated_and_outside_base(self, shard_dir):
        """Concurrent owned runs must not clobber each other, and the base
        directory (possibly a read-only dataset mount) stays untouched."""
        a = OwnedShardLayout.build(shard_dir, 2)
        b = OwnedShardLayout.build(shard_dir, 2)
        try:
            assert a.root != b.root
            assert not a.root.startswith(shard_dir)
            assert not any(name.startswith(".owned") for name in os.listdir(shard_dir))
        finally:
            a.remove()
            b.remove()

    def test_explicit_dest_rebuild_replaces_stale_layout(self, shard_dir, tmp_path):
        dest = str(tmp_path / "layout")
        layout = OwnedShardLayout.build(shard_dir, 2, dest=dest)
        marker = os.path.join(layout.rank_dir(0), "stale.txt")
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("old")
        rebuilt = OwnedShardLayout.build(shard_dir, 2, dest=dest)
        try:
            assert rebuilt.root == dest
            assert not os.path.exists(marker)
        finally:
            rebuilt.remove()

    def test_hardlinks_not_copies_where_supported(self, shard_dir):
        layout = OwnedShardLayout.build(shard_dir, 2)
        try:
            base = os.path.join(shard_dir, "snapshot_00000.npz")
            owned = os.path.join(layout.rank_dir(0), "snapshot_00000.npz")
            if os.stat(base).st_nlink > 1:  # fs supports hardlinks
                assert os.path.samefile(base, owned)
        finally:
            layout.remove()

    def test_rank_source_is_private(self, shard_dir):
        layout = OwnedShardLayout.build(shard_dir, 2)
        try:
            with ShardDirSource(shard_dir, max_cached=1) as base:
                a = base.reopen(layout.rank_dir(0))
                b = base.reopen(layout.rank_dir(1))
            a.snapshot(0)
            assert a.cache_info()["counters"]["misses"] == 1
            assert b.cache_info()["counters"]["misses"] == 0  # no shared cache
            a.close()
            b.close()
        finally:
            layout.remove()

    def test_manifest_written_per_rank(self, shard_dir, sst):
        layout = OwnedShardLayout.build(shard_dir, 2)
        try:
            with open(os.path.join(layout.rank_dir(1), MANIFEST),
                      encoding="utf-8") as fh:
                manifest = json.load(fh)
            assert manifest["n_snapshots"] == layout.rank_span(1)[1] - layout.rank_span(1)[0]
            assert manifest["label"] == sst.label
        finally:
            layout.remove()

    def test_validation(self, shard_dir, tmp_path):
        with pytest.raises(ValueError, match="nranks"):
            OwnedShardLayout.build(shard_dir, 0)
        with pytest.raises(FileNotFoundError):
            OwnedShardLayout.build(str(tmp_path / "nope"), 2)
        layout = OwnedShardLayout.build(shard_dir, 2)
        try:
            with pytest.raises(IndexError):
                layout.rank_dir(2)
            with pytest.raises(IndexError):
                layout.rank_span(-1)
        finally:
            layout.remove()

    def test_remove_keeps_base_directory(self, shard_dir):
        layout = OwnedShardLayout.build(shard_dir, 2)
        layout.remove()
        assert not os.path.isdir(layout.root)
        assert os.path.isfile(os.path.join(shard_dir, MANIFEST))
        layout.remove()  # idempotent


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
