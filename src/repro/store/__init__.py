"""Persistent artifact store: shard cache + experiment catalog.

The warm-start tier of the sampling stack (PR 8).  Counter-based
streams made every RR-set chunk a pure function of its
``(entropy, ad, chunk)`` address, and the dsan digests fingerprint the
resulting bytes — this package turns those two properties into a
**content-addressed, read-through shard cache**
(:class:`~repro.store.cache.ShardCache`) the
:class:`~repro.rrset.sharded.ShardedSamplingEngine` consults before
submitting any compute, plus a **WAL-mode SQLite experiment catalog**
(:class:`~repro.store.catalog.ExperimentCatalog`) indexing cached
shards, allocations with full provenance, and checkpoint lineage.

A warm second run of the same allocation performs **zero**
sampling-backend invocations and is byte-identical to a cold one: every
hit is verified against its stored dsan digest before it is spliced
(corruption → warn + recompute), so the cache — like the engine, the
backend, and the substrate — sits outside the determinism contract.

Modules: :mod:`~repro.store.keys` (the key schema),
:mod:`~repro.store.blocks` (entry file I/O over the block codec),
:mod:`~repro.store.cache` (the read-through cache),
:mod:`~repro.store.catalog` (the SQLite catalog),
:mod:`~repro.store.gc` (LRU eviction under a byte budget),
:mod:`~repro.store.commands` (``repro ls / show / diff / gc``).
"""

from repro.store.blocks import Block, CorruptBlockError, load_block, write_block
from repro.store.cache import ENV_VAR, ShardCache, resolve_cache
from repro.store.catalog import CATALOG_FILENAME, ExperimentCatalog
from repro.store.gc import GcReport, cache_usage, collect_garbage
from repro.store.keys import philox_shard_key

__all__ = [
    "Block",
    "CorruptBlockError",
    "load_block",
    "write_block",
    "ENV_VAR",
    "ShardCache",
    "resolve_cache",
    "CATALOG_FILENAME",
    "ExperimentCatalog",
    "GcReport",
    "cache_usage",
    "collect_garbage",
    "philox_shard_key",
]
