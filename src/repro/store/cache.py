"""The content-addressed shard cache: read-through RR-set block store.

Directory layout (one cache directory, shareable between processes)::

    CACHE_DIR/
      catalog.sqlite            the experiment catalog (WAL mode)
      objects/<shard_key>/<index>.blk   one file per cached block

``shard_key`` is the content address of one ad's stream
(:mod:`repro.store.keys`); ``index`` is the chunk index.  Entries are
written atomically and verified against their stored dsan digest on
every load — a poisoned entry is quarantined (removed) with a warning
and reported as a miss, so the engine recomputes the block and the
cache can never change an allocation.

The cache is failure-transparent by design: a store that cannot write
(disk full, read-only directory) warns once and keeps serving, because
losing cache effectiveness must never lose a run.
"""

from __future__ import annotations

import os
import warnings

from repro.errors import StoreError
from repro.store.blocks import Block, CorruptBlockError, load_block, write_block
from repro.store.catalog import ExperimentCatalog

#: Environment variable consulted when the ``cache`` knob is ``None``
#: (mirrors ``REPRO_DSAN``): a path enables the cache at that directory.
ENV_VAR = "REPRO_CACHE"

#: Catalog writes (new rows + LRU touches) batch up to this many before
#: an automatic flush, so hit-heavy warm runs do one transaction per
#: request wave instead of one per block.
_FLUSH_THRESHOLD = 64

OBJECTS_DIRNAME = "objects"


class ShardCache:
    """One cache directory: block files plus their catalog."""

    def __init__(self, directory) -> None:
        self.directory = os.fspath(directory)
        try:
            os.makedirs(os.path.join(self.directory, OBJECTS_DIRNAME), exist_ok=True)
        except OSError as exc:
            raise StoreError(
                f"cannot create cache directory {self.directory}: {exc}"
            ) from exc
        self.catalog = ExperimentCatalog(self.directory)
        #: hits / misses / stores / corrupt / store_errors counters.
        self.stats: dict[str, int] = {
            "hits": 0, "misses": 0, "stores": 0, "corrupt": 0, "store_errors": 0,
        }
        self._pending_rows: list[dict] = []
        self._pending_touches: list[tuple[str, int]] = []
        self._warned_store_failure = False
        self._closed = False

    # ------------------------------------------------------------------
    def entry_path(self, shard_key: str, index: int) -> str:
        return os.path.join(
            self.directory, OBJECTS_DIRNAME, shard_key, f"{int(index)}.blk"
        )

    def has(self, shard_key: str, index: int) -> bool:
        """Cheap existence probe (no verification) — the submit-or-skip
        decision of the engine's scatter and prefetch.  A ``False`` counts
        as a miss; a ``True`` is only counted when the later
        :meth:`load` verifies the entry."""
        if os.path.exists(self.entry_path(shard_key, index)):
            return True
        self.stats["misses"] += 1
        return False

    def load(
        self, shard_key: str, index: int, num_sets: int | None = None,
    ) -> Block | None:
        """Verified read: the entry at ``(shard_key, index)``, or
        ``None`` on miss *or* corruption (the poisoned file is removed,
        its catalog row dropped, and a ``RuntimeWarning`` names it —
        never a wrong splice).  ``num_sets`` is the width the address
        implies (the chunk size is part of the key): a digest-valid
        entry of any other width is as poisoned as a digest mismatch."""
        path = self.entry_path(shard_key, index)
        try:
            entry = load_block(path)
            if num_sets is not None and entry.num_sets != num_sets:
                found = entry.num_sets
                entry.release()
                raise CorruptBlockError(
                    f"cache entry {path} holds {found} sets, its address "
                    f"says {num_sets}"
                )
        except FileNotFoundError:
            self.stats["misses"] += 1
            return None
        except CorruptBlockError as exc:
            self.stats["corrupt"] += 1
            self.stats["misses"] += 1
            self._quarantine(shard_key, index, path, exc)
            return None
        self.stats["hits"] += 1
        self._pending_touches.append((shard_key, int(index)))
        self._maybe_flush()
        return entry

    def store(
        self, shard_key: str, index: int, members, lengths, *,
        meta: dict | None = None, digest: str | None = None,
    ) -> bool:
        """Write one block (idempotent: an existing entry is kept — for
        the same address it holds the same bytes).  ``digest`` is the
        block's digest when the caller already computed it (the engine's
        dsan record), so the block is not hashed twice.  Returns whether
        an entry file now backs the address; write failures warn once
        and report ``False``."""
        path = self.entry_path(shard_key, index)
        if os.path.exists(path):
            return True
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            nbytes, digest = write_block(path, members, lengths, digest)
        except OSError as exc:
            self.stats["store_errors"] += 1
            if not self._warned_store_failure:
                self._warned_store_failure = True
                warnings.warn(
                    f"shard cache at {self.directory} cannot store entries "
                    f"({exc}); continuing without caching new blocks",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return False
        self.stats["stores"] += 1
        row = dict(meta or {})
        row.update(
            shard_key=shard_key,
            block_index=int(index),
            num_sets=int(len(lengths)),
            num_members=int(len(members)),
            nbytes=int(nbytes),
            digest=digest,
        )
        self._pending_rows.append(row)
        self._maybe_flush()
        return True

    # ------------------------------------------------------------------
    def _quarantine(self, shard_key: str, index: int, path: str, exc) -> None:
        warnings.warn(
            f"shard cache: corrupt entry ({shard_key}, {index}) at {path} "
            f"— {exc}; entry removed, block will be recomputed",
            RuntimeWarning,
            stacklevel=3,
        )
        try:
            os.remove(path)
        except OSError:
            pass
        try:
            self.catalog.forget_shard(shard_key, int(index))
        except StoreError:  # pragma: no cover - catalog write race
            pass

    def _maybe_flush(self) -> None:
        if len(self._pending_rows) + len(self._pending_touches) >= _FLUSH_THRESHOLD:
            self.flush()

    def flush(self) -> None:
        """Push batched catalog writes (new shard rows + LRU touches)."""
        if self._closed:
            return
        rows, self._pending_rows = self._pending_rows, []
        touches, self._pending_touches = self._pending_touches, []
        self.catalog.record_shards(rows)
        self.catalog.touch_shards(touches)

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        self._closed = True
        self.catalog.close()

    def __enter__(self) -> "ShardCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardCache({self.directory!r}, hits={self.stats['hits']}, "
            f"misses={self.stats['misses']}, stores={self.stats['stores']})"
        )


def resolve_cache(cache) -> tuple[ShardCache | None, bool]:
    """Resolve the tri-state ``cache`` knob to ``(cache, owned)``.

    ``None`` defers to the ``REPRO_CACHE`` environment variable (unset
    or empty → no cache); a path opens a cache the caller owns (and must
    close); a ready :class:`ShardCache` is shared, not owned.
    """
    if cache is None:
        env = os.environ.get(ENV_VAR, "").strip()
        if not env:
            return None, False
        return ShardCache(env), True
    if isinstance(cache, ShardCache):
        return cache, False
    return ShardCache(cache), True
