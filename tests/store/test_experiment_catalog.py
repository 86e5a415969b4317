"""ExperimentCatalog: the WAL-mode SQLite index — row round-trips,
LRU bookkeeping, checkpoint lineage/protection, and catalogs written
under an older schema."""

from __future__ import annotations

import json
import sqlite3
import threading

import pytest

from repro.cli.main import main
from repro.errors import StoreError
from repro.store import catalog as catalog_module
from repro.store.catalog import CATALOG_FILENAME, ExperimentCatalog


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


def test_concurrent_connections_share_one_database(tmp_path):
    with ExperimentCatalog(str(tmp_path)) as writer, ExperimentCatalog(
        str(tmp_path)
    ) as reader:
        writer.record_shards([_shard_row("k1", 0)])
        assert len(reader.list_shards()) == 1
        reader.record_shards([_shard_row("k2", 0)])
        assert len(writer.list_shards()) == 2


def test_threads_opening_one_fresh_directory_at_once_all_succeed(tmp_path):
    """Eight connections switch the same new file to WAL at once: a
    ``database is locked`` on the switch is waited out, never raised."""
    for trial in range(8):
        directory = tmp_path / str(trial)
        directory.mkdir()
        start = threading.Barrier(8)
        errors = []

        def open_one():
            start.wait()
            try:
                ExperimentCatalog(str(directory)).close()
            except StoreError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=open_one) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []


def _connect_failing(monkeypatch, statement: str, message: str, times: int):
    """Make the catalog's connections raise ``OperationalError(message)``
    on the first ``times`` executions of ``statement``."""
    failures = {"left": times}

    class Failing(sqlite3.Connection):
        def execute(self, sql, *args):
            if sql.startswith(statement) and failures["left"] > 0:
                failures["left"] -= 1
                raise sqlite3.OperationalError(message)
            return super().execute(sql, *args)

    connect = sqlite3.connect
    monkeypatch.setattr(
        catalog_module.sqlite3, "connect",
        lambda *args, **kwargs: connect(*args, factory=Failing, **kwargs),
    )
    return failures


def test_a_locked_wal_switch_is_retried(tmp_path, monkeypatch):
    failures = _connect_failing(
        monkeypatch, "PRAGMA journal_mode", "database is locked", 3
    )
    with ExperimentCatalog(str(tmp_path)) as cat:
        cat.record_shards([_shard_row("k1", 0)])
        assert len(cat.list_shards()) == 1
    assert failures["left"] == 0


def test_other_wal_switch_errors_are_not_retried(tmp_path, monkeypatch):
    failures = _connect_failing(
        monkeypatch, "PRAGMA journal_mode", "disk I/O error", 3
    )
    with pytest.raises(StoreError, match="disk I/O error"):
        ExperimentCatalog(str(tmp_path))
    assert failures["left"] == 2


def test_a_locked_migration_is_not_swallowed(tmp_path, monkeypatch):
    """Only ``duplicate column name`` means the schema is current; a
    lock on the ALTER surfaces instead of leaving the column missing."""
    _connect_failing(monkeypatch, "ALTER TABLE", "database is locked", 1)
    with pytest.raises(StoreError, match="database is locked"):
        ExperimentCatalog(str(tmp_path))


def test_reopening_a_current_catalog_swallows_the_duplicate_column(tmp_path):
    ExperimentCatalog(str(tmp_path)).close()
    with ExperimentCatalog(str(tmp_path)) as cat:
        assert cat.get_allocation(1) is None


def test_opening_a_current_catalog_runs_no_ddl(tmp_path, monkeypatch):
    """The schema version is kept in ``PRAGMA user_version``: the first
    open creates the tables and sets it, every later open reads it and
    runs neither the schema script nor the ``job_id`` migration."""
    ExperimentCatalog(str(tmp_path)).close()
    statements = []

    class Recording(sqlite3.Connection):
        def execute(self, sql, *args):
            statements.append(sql)
            return super().execute(sql, *args)

        def executescript(self, script):
            statements.append(script)
            return super().executescript(script)

    connect = sqlite3.connect
    monkeypatch.setattr(
        catalog_module.sqlite3, "connect",
        lambda *args, **kwargs: connect(*args, factory=Recording, **kwargs),
    )
    with ExperimentCatalog(str(tmp_path)) as cat:
        assert cat.get_allocation(1) is None
    assert statements
    assert not [
        sql for sql in statements
        if any(word in sql.upper() for word in ("CREATE", "ALTER"))
    ]
    conn = sqlite3.connect(tmp_path / CATALOG_FILENAME)
    (version,) = conn.execute("PRAGMA user_version").fetchone()
    conn.close()
    assert version == catalog_module.SCHEMA_VERSION


def test_a_catalog_from_before_the_service_tier_gains_job_id(tmp_path):
    """A catalog written before ``allocations.job_id`` existed, with no
    schema version, is migrated at open: the column is added, old rows
    keep their values, and the version is set."""
    conn = sqlite3.connect(tmp_path / CATALOG_FILENAME)
    with conn:
        conn.executescript(
            _SCHEMA_WITH_BENCHMARKS.replace("job_id TEXT, ", "")
        )
        conn.execute(
            "INSERT INTO allocations (created_at, algorithm, dsan_root) "
            "VALUES (1.0, 'tirm', 'r00t')"
        )
    conn.close()
    with ExperimentCatalog(str(tmp_path)) as cat:
        row = cat.get_allocation(1)
        assert row["dsan_root"] == "r00t" and row["job_id"] is None
    conn = sqlite3.connect(tmp_path / CATALOG_FILENAME)
    columns = [r[1] for r in conn.execute("PRAGMA table_info(allocations)")]
    (version,) = conn.execute("PRAGMA user_version").fetchone()
    conn.close()
    assert "job_id" in columns
    assert version == catalog_module.SCHEMA_VERSION


#: The catalog schema as it stood while the catalog also kept bench
#: history: the four current tables plus ``benchmarks``.
_SCHEMA_WITH_BENCHMARKS = """
CREATE TABLE shards (
    shard_key TEXT NOT NULL, block_index INTEGER NOT NULL, ad INTEGER,
    rng TEXT, mode TEXT, chunk_size INTEGER, entropy TEXT, graph_hash TEXT,
    num_sets INTEGER NOT NULL, num_members INTEGER NOT NULL,
    nbytes INTEGER NOT NULL, digest TEXT NOT NULL, created_at REAL NOT NULL,
    last_used_at REAL NOT NULL, uses INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (shard_key, block_index)
);
CREATE TABLE allocations (
    id INTEGER PRIMARY KEY AUTOINCREMENT, created_at REAL NOT NULL,
    algorithm TEXT, dataset TEXT, seed INTEGER, rng TEXT,
    chunk_size INTEGER, engine TEXT, backend TEXT, transport TEXT,
    dsan_root TEXT, iterations INTEGER, total_rr_sets INTEGER,
    cache_hits INTEGER, cache_misses INTEGER, backend_invocations INTEGER,
    job_id TEXT, provenance_json TEXT, stats_json TEXT
);
CREATE TABLE checkpoints (
    id INTEGER PRIMARY KEY AUTOINCREMENT, path TEXT NOT NULL UNIQUE,
    created_at REAL NOT NULL, iterations INTEGER, config_json TEXT
);
CREATE TABLE checkpoint_shards (
    checkpoint_id INTEGER NOT NULL, shard_key TEXT NOT NULL,
    max_index INTEGER NOT NULL, PRIMARY KEY (checkpoint_id, shard_key)
);
CREATE TABLE benchmarks (
    id INTEGER PRIMARY KEY AUTOINCREMENT, created_at REAL NOT NULL,
    phase TEXT, variant TEXT, n INTEGER, ads INTEGER, theta INTEGER,
    wall_s REAL, speedup TEXT, report TEXT
);
"""


def test_catalog_with_a_benchmarks_table_still_serves_every_command(
    tmp_path, capsys
):
    """A catalog written while it still kept bench history opens, lists,
    shows and dry-run collects as before; its ``benchmarks`` table is
    left as it was."""
    conn = sqlite3.connect(tmp_path / CATALOG_FILENAME)
    with conn:
        conn.executescript(_SCHEMA_WITH_BENCHMARKS)
        conn.execute(
            "INSERT INTO shards VALUES ('k1', 0, 0, 'philox', 'blocked', 64, "
            "'123', 'g', 64, 200, 1024, 'd', 1.0, 1.0, 0)"
        )
        conn.execute(
            "INSERT INTO allocations (created_at, algorithm, dataset, seed, "
            "rng, engine, dsan_root, provenance_json, stats_json) VALUES "
            "(1.0, 'tirm', 'toy', 7, 'philox', 'serial', 'r00t', ?, ?)",
            (json.dumps({"seed": 7}), json.dumps({"iterations": 3})),
        )
        conn.execute(
            "INSERT INTO benchmarks (created_at, phase, variant, wall_s, "
            "speedup, report) VALUES (1.0, 'shard-cache', 'warm', 0.1, "
            "'4.5', 'engine-report.json')"
        )
    conn.close()

    cache = str(tmp_path)
    assert main(["ls", "--cache", cache]) == 0
    assert "tirm" in capsys.readouterr().out
    assert main(["ls", "--cache", cache, "--shards"]) == 0
    assert "k1" in capsys.readouterr().out
    assert main(["show", "1", "--cache", cache]) == 0
    assert "r00t" in capsys.readouterr().out
    assert main(["gc", "--cache", cache, "--max-bytes", "0", "--dry-run"]) == 0
    assert "would evict" in capsys.readouterr().out

    conn = sqlite3.connect(tmp_path / CATALOG_FILENAME)
    rows = conn.execute("SELECT phase, report FROM benchmarks").fetchall()
    conn.close()
    assert rows == [("shard-cache", "engine-report.json")]


def test_ls_has_no_benchmarks_listing(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["ls", "--cache", str(tmp_path), "--benchmarks"])
    assert exit_info.value.code == 2
    assert "--benchmarks" in capsys.readouterr().err
