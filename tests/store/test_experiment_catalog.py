"""ExperimentCatalog: the WAL-mode SQLite index — row round-trips,
LRU bookkeeping, checkpoint lineage/protection, benchmark history."""

from __future__ import annotations

import pytest

from repro.store.catalog import ExperimentCatalog


def _shard_row(key: str, index: int, **overrides):
    row = dict(
        shard_key=key, block_index=index, ad=0, rng="philox", mode="blocked",
        chunk_size=64, entropy="123", graph_hash="g" * 32,
        num_sets=64, num_members=200, nbytes=1024, digest="d" * 32,
    )
    row.update(overrides)
    return row


@pytest.fixture
def catalog(tmp_path):
    with ExperimentCatalog(str(tmp_path)) as cat:
        yield cat


def test_record_and_list_shards(catalog):
    catalog.record_shards([_shard_row("k1", 0), _shard_row("k1", 1)])
    rows = catalog.list_shards()
    assert [(r["shard_key"], r["block_index"]) for r in rows] == [
        ("k1", 0), ("k1", 1)
    ]
    assert catalog.total_shard_bytes() == 2048


def test_touch_bumps_uses(catalog):
    catalog.record_shards([_shard_row("k1", 0)])
    catalog.touch_shards([("k1", 0), ("k1", 0)])
    (row,) = catalog.list_shards()
    assert row["uses"] == 2
    assert row["last_used_at"] >= row["created_at"]


def test_forget_shard(catalog):
    catalog.record_shards([_shard_row("k1", 0)])
    catalog.forget_shard("k1", 0)
    assert catalog.list_shards() == []


def test_allocation_roundtrip(catalog):
    record_id = catalog.record_allocation({
        "algorithm": "tirm", "dataset": "figure1", "seed": 7,
        "rng": "philox", "chunk_size": 64, "engine": "serial",
        "backend": "numpy", "transport": "none", "dsan_root": "r" * 32,
        "iterations": 3, "total_rr_sets": 900, "cache_hits": 5,
        "cache_misses": 1, "backend_invocations": 1,
        "provenance": {"start_method": None},
        "stats": {"theta_per_ad": [300, 300, 300]},
    })
    assert record_id == 1
    record = catalog.get_allocation(record_id)
    assert record["algorithm"] == "tirm"
    assert record["dataset"] == "figure1"
    assert record["backend_invocations"] == 1
    assert record["provenance"] == {"start_method": None}
    assert record["stats"]["theta_per_ad"] == [300, 300, 300]
    (summary,) = catalog.list_allocations()
    assert summary["id"] == record_id
    assert "provenance" not in summary  # list view is the slim projection


def test_get_unknown_allocation_is_none(catalog):
    assert catalog.get_allocation(99) is None


def test_checkpoint_reregistration_replaces_refs(catalog, tmp_path):
    artifact = tmp_path / "ckpt.json"
    artifact.write_bytes(b"x")
    catalog.record_checkpoint(
        str(artifact), iterations=1, config={}, shard_refs=[("k1", 2)]
    )
    catalog.record_checkpoint(
        str(artifact), iterations=2, config={}, shard_refs=[("k1", 5), ("k2", 0)]
    )
    (row,) = catalog.list_checkpoints()
    assert row["iterations"] == 2
    assert catalog.protected_shards() == {"k1": 5, "k2": 0}


def test_dead_checkpoint_stops_pinning(catalog, tmp_path):
    artifact = tmp_path / "ckpt.json"
    artifact.write_bytes(b"x")
    catalog.record_checkpoint(
        str(artifact), iterations=1, config={}, shard_refs=[("k1", 3)]
    )
    artifact.unlink()
    assert catalog.protected_shards() == {}
    assert catalog.list_checkpoints() == []


def test_protected_shards_takes_max_over_checkpoints(catalog, tmp_path):
    for name, max_index in (("a.json", 2), ("b.json", 7)):
        artifact = tmp_path / name
        artifact.write_bytes(b"x")
        catalog.record_checkpoint(
            str(artifact), iterations=1, config={}, shard_refs=[("k1", max_index)]
        )
    assert catalog.protected_shards() == {"k1": 7}


def test_benchmark_history_roundtrip(catalog):
    catalog.record_benchmarks(
        [{"phase": "shard_cache", "variant": "warm", "n": 400, "ads": 3,
          "theta": 900, "wall_s": 0.12, "speedup": 4.5}],
        report="BENCH_PR8.json",
    )
    (row,) = catalog.list_benchmarks()
    assert row["phase"] == "shard_cache"
    assert row["variant"] == "warm"
    assert row["report"] == "BENCH_PR8.json"
    assert row["speedup"] == "4.5"


def test_concurrent_connections_share_one_database(tmp_path):
    with ExperimentCatalog(str(tmp_path)) as writer, ExperimentCatalog(
        str(tmp_path)
    ) as reader:
        writer.record_shards([_shard_row("k1", 0)])
        assert len(reader.list_shards()) == 1
        reader.record_shards([_shard_row("k2", 0)])
        assert len(writer.list_shards()) == 2
