"""``repro ls / show / diff / gc`` — the catalog's command layer.

Thin, ldb-style subcommands over one cache directory (``--cache DIR``
or the ``REPRO_CACHE`` environment variable): each function takes
parsed args, prints through :func:`~repro.evaluation.reporting.format_table`,
and returns an exit code — same shape as the rest of the CLI, so the
commands are trivially testable with ``capsys``.

* ``ls``   — catalog overview: allocations (default), or one of
  ``--shards`` / ``--checkpoints``.
* ``show`` — one allocation row in full (provenance + stats JSON).
* ``diff`` — compare two allocations field-by-field; exit 1 when any
  determinism-contract field differs (substrate fields — engine,
  backend, transport, cache counters — are displayed but never
  compared, matching the provenance-not-contract rule).
* ``gc``   — LRU eviction under ``--max-bytes``, protected shards kept
  (:mod:`repro.store.gc`).
"""

from __future__ import annotations

import datetime
import json
import os

from repro.errors import ConfigurationError, StoreError
from repro.evaluation.reporting import format_table
from repro.store.cache import ENV_VAR
from repro.store.catalog import ExperimentCatalog
from repro.store.gc import cache_usage, collect_garbage

#: Allocation fields the determinism contract pins — ``diff`` compares
#: exactly these.  Substrate/provenance fields (engine, backend,
#: transport, cache counters) are shown but never drive the exit code.
CONTRACT_FIELDS = (
    "algorithm", "dataset", "seed", "rng", "chunk_size",
    "iterations", "total_rr_sets", "dsan_root",
)

SUBSTRATE_FIELDS = (
    "engine", "backend", "transport",
    "cache_hits", "cache_misses", "backend_invocations",
)


def resolve_cache_dir(args) -> str:
    """``--cache DIR`` or ``REPRO_CACHE``; error when neither names a
    directory that exists (these commands inspect, never create)."""
    directory = getattr(args, "cache", None) or os.environ.get(ENV_VAR, "").strip()
    if not directory:
        raise ConfigurationError(
            "no cache directory: pass --cache DIR or set REPRO_CACHE"
        )
    if not os.path.isdir(directory):
        raise StoreError(f"no cache directory at {directory}")
    return directory


def _when(timestamp) -> str:
    if timestamp is None:
        return "-"
    return datetime.datetime.fromtimestamp(float(timestamp)).strftime(
        "%Y-%m-%d %H:%M:%S"
    )


def cmd_ls(args) -> int:
    directory = resolve_cache_dir(args)
    with ExperimentCatalog(directory) as catalog:
        if getattr(args, "shards", False):
            rows = [
                [row["shard_key"][:12], row["block_index"], row["ad"],
                 row["rng"], row["mode"], row["num_sets"], row["nbytes"],
                 row["uses"], _when(row["last_used_at"])]
                for row in catalog.list_shards()
            ]
            print(format_table(
                ["shard key", "idx", "ad", "rng", "mode", "sets", "bytes",
                 "uses", "last used"],
                rows, title=f"Cached shards: {directory}",
            ))
            return 0
        if getattr(args, "checkpoints", False):
            rows = [
                [row["id"], row["path"], row["iterations"], _when(row["created_at"])]
                for row in catalog.list_checkpoints()
            ]
            print(format_table(
                ["id", "path", "iterations", "written"],
                rows, title=f"Registered checkpoints: {directory}",
            ))
            return 0
        usage = cache_usage(directory)
        print(
            f"cache {directory}: {usage['entries']} cached blocks across "
            f"{usage['shard_keys']} shard keys, {usage['bytes']} bytes"
        )
        rows = [
            [row["id"], row["algorithm"], row["dataset"] or "-", row["seed"],
             row["rng"], row["engine"], row["backend"], row["cache_hits"],
             row["backend_invocations"], _when(row["created_at"])]
            for row in catalog.list_allocations()
        ]
        print(format_table(
            ["id", "algorithm", "dataset", "seed", "rng", "engine",
             "backend", "hits", "sampled", "when"],
            rows, title="Recorded allocations",
        ))
    return 0


def cmd_show(args) -> int:
    directory = resolve_cache_dir(args)
    with ExperimentCatalog(directory) as catalog:
        record = catalog.get_allocation(args.id)
    if record is None:
        raise StoreError(f"no allocation #{args.id} in {directory}")
    rows = [["recorded", _when(record["created_at"])]]
    for name in CONTRACT_FIELDS + SUBSTRATE_FIELDS:
        rows.append([name, record.get(name)])
    print(format_table(
        ["field", "value"], rows, title=f"Allocation #{record['id']}"
    ))
    print("provenance:", json.dumps(record["provenance"], indent=2, sort_keys=True))
    print("stats:", json.dumps(record["stats"], indent=2, sort_keys=True))
    return 0


def cmd_diff(args) -> int:
    directory = resolve_cache_dir(args)
    with ExperimentCatalog(directory) as catalog:
        left = catalog.get_allocation(args.left)
        right = catalog.get_allocation(args.right)
    for record, label in ((left, args.left), (right, args.right)):
        if record is None:
            raise StoreError(f"no allocation #{label} in {directory}")
    rows = []
    divergent = 0
    for name in CONTRACT_FIELDS:
        a, b = left.get(name), right.get(name)
        same = a == b
        divergent += 0 if same else 1
        rows.append([name, a, b, "" if same else "DIFFERS"])
    for name in SUBSTRATE_FIELDS:
        a, b = left.get(name), right.get(name)
        rows.append([name, a, b, "" if a == b else "(substrate)"])
    print(format_table(
        ["field", f"#{left['id']}", f"#{right['id']}", ""],
        rows, title=f"Allocation diff: #{left['id']} vs #{right['id']}",
    ))
    if divergent:
        print(f"{divergent} contract field(s) differ")
        return 1
    print("contract fields identical (substrate differences never "
          "change the allocation)")
    return 0


def cmd_gc(args) -> int:
    directory = resolve_cache_dir(args)
    report = collect_garbage(
        directory, max_bytes=args.max_bytes, dry_run=args.dry_run
    )
    verb = "would evict" if report.dry_run else "evicted"
    print(
        f"gc {directory}: {report.bytes_before} -> {report.bytes_after} bytes "
        f"(budget {report.budget}); {verb} {report.evicted_entries} entries "
        f"({report.evicted_bytes} bytes, {report.orphans_evicted} orphans); "
        f"{report.protected_entries} checkpoint-protected entries kept "
        f"({report.protected_bytes} bytes)"
    )
    if report.over_budget:
        print(
            "warning: still over budget — the remaining entries are "
            "protected by live checkpoints (gc refuses to drop them)"
        )
    return 0
