"""Cache eviction: LRU under a byte budget, orphans first, checkpoint
references protected, dry-run leaves the directory untouched."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.errors import StoreError
from repro.store.cache import ShardCache
from repro.store.catalog import ExperimentCatalog
from repro.store.gc import cache_usage, collect_garbage


def _block(fill: int):
    lengths = np.array([4], dtype=np.int64)
    members = np.full(4, fill, dtype=np.int32)
    return members, lengths


def _populate(directory, keys):
    """Store one block per key, ordered LRU-oldest first."""
    with ShardCache(directory) as cache:
        for index, key in enumerate(keys):
            members, lengths = _block(index)
            cache.store(key, 0, members, lengths)
        cache.flush()
        # Deterministic LRU order without wall-clock sleeps.
        for order, key in enumerate(keys):
            cache.catalog._conn.execute(
                "UPDATE shards SET last_used_at = ? WHERE shard_key = ?",
                (1000.0 + order, key),
            )
        cache.catalog._conn.commit()


def test_gc_rejects_bad_inputs(tmp_path):
    with pytest.raises(StoreError):
        collect_garbage(tmp_path / "absent", max_bytes=0)
    _populate(tmp_path, ["k1"])
    with pytest.raises(StoreError):
        collect_garbage(tmp_path, max_bytes=-1)


def test_gc_noop_under_budget(tmp_path):
    _populate(tmp_path, ["k1", "k2"])
    before = cache_usage(tmp_path)
    report = collect_garbage(tmp_path, max_bytes=10**9)
    assert report.evicted_entries == 0
    assert cache_usage(tmp_path) == before


def test_gc_evicts_lru_first(tmp_path):
    _populate(tmp_path, ["old", "mid", "new"])
    entry_bytes = cache_usage(tmp_path)["bytes"] // 3
    report = collect_garbage(tmp_path, max_bytes=2 * entry_bytes)
    assert report.evicted_entries == 1
    assert report.evicted == [("old", 0)]
    assert cache_usage(tmp_path)["entries"] == 2
    with ExperimentCatalog(str(tmp_path)) as catalog:
        assert {r["shard_key"] for r in catalog.list_shards()} == {"mid", "new"}


def test_gc_protects_checkpoint_referenced_shards(tmp_path):
    _populate(tmp_path, ["pinned", "loose"])
    artifact = tmp_path / "ckpt.json"
    artifact.write_bytes(b"x")
    with ExperimentCatalog(str(tmp_path)) as catalog:
        catalog.record_checkpoint(
            str(artifact), iterations=1, config={}, shard_refs=[("pinned", 0)]
        )
    report = collect_garbage(tmp_path, max_bytes=0)
    # "pinned" survives even though it is LRU-oldest; "loose" goes.
    assert ("pinned", 0) not in report.evicted
    assert ("loose", 0) in report.evicted
    assert report.protected_entries == 1
    assert report.over_budget  # protected bytes alone exceed budget 0


def test_gc_orphans_evicted_before_catalog_rows(tmp_path):
    _populate(tmp_path, ["recorded"])
    orphan_dir = tmp_path / "objects" / "orphankey"
    orphan_dir.mkdir()
    (orphan_dir / "0.blk").write_bytes(b"z" * 50)
    entry_bytes = cache_usage(tmp_path)["bytes"] - 50
    report = collect_garbage(tmp_path, max_bytes=entry_bytes)
    assert report.orphans_evicted == 1
    assert report.evicted == [("orphankey", 0)]
    assert cache_usage(tmp_path)["entries"] == 1


def test_gc_dry_run_deletes_nothing(tmp_path):
    _populate(tmp_path, ["k1", "k2"])
    before = cache_usage(tmp_path)
    report = collect_garbage(tmp_path, max_bytes=0, dry_run=True)
    assert report.dry_run
    assert report.evicted_entries == 2
    assert cache_usage(tmp_path) == before


def test_gc_reconciles_rows_for_vanished_files(tmp_path):
    _populate(tmp_path, ["gone", "here"])
    with ShardCache(str(tmp_path)) as cache:
        os.remove(cache.entry_path("gone", 0))
    collect_garbage(tmp_path, max_bytes=10**9)
    with ExperimentCatalog(str(tmp_path)) as catalog:
        assert {r["shard_key"] for r in catalog.list_shards()} == {"here"}
