"""On-disk format of one cached RR-set block (a ``.blk`` entry file).

The payload is byte-for-byte the engine's packed chunk-block layout —
``int64`` lengths, then ``int32`` members, exactly the bytes a RESULT
frame carries and exactly the bytes the dsan digest covers — preceded
by one fixed 64-byte header::

    offset 0    magic        8 bytes  b"RRSBLK01" (format version 1)
    offset 8    num_sets     int64 little-endian
    offset 16   num_members  int64 little-endian
    offset 24   state_len    int64 little-endian, must be 0 (reserved)
    offset 32   digest       32 ascii hex chars (blake2b-128 of payload)
    offset 64   lengths      num_sets * int64           (8-byte aligned)
    ...         members      num_members * int32        (4-byte aligned)

Nothing may follow the members: a non-zero ``state_len`` or trailing
bytes mean the entry was not written by this format and it is rejected
like any other corruption.

Writes are atomic (unique tmp file in the same directory, then
``os.replace``), so concurrent writers race benignly: both write the
same bytes for the same address and the last rename wins.  Loads map
the file read-only (``np.memmap``) and hand out zero-copy views; the
stored digest is recomputed over the mapped payload *before* any view
escapes, so a corrupt entry is detected here and never spliced.
"""

from __future__ import annotations

import itertools
import os
import struct

import numpy as np

from repro.errors import StoreError
from repro.rrset.dsan import digest_block
from repro.rrset.pool import MEMBER_DTYPE

MAGIC = b"RRSBLK01"
_HEADER = struct.Struct("<8sqqq32s")
HEADER_SIZE = _HEADER.size  # 64: keeps the int64 lengths 8-byte aligned
_LENGTH_DTYPE = np.int64
_LENGTH_ITEMSIZE = np.dtype(_LENGTH_DTYPE).itemsize
_MEMBER_ITEMSIZE = np.dtype(MEMBER_DTYPE).itemsize

#: Per-process tmp-name counter: together with the pid this makes tmp
#: paths unique across concurrent writers without drawing entropy
#: (``uuid``/``random`` tmp names would violate the repo's own R102).
_TMP_IDS = itertools.count()


class CorruptBlockError(StoreError):
    """An entry file failed its structural or digest check.  Callers
    (the read-through cache) quarantine the file, warn, and recompute —
    corruption must never surface as a wrong allocation."""


class BlockEntry:
    """A loaded, digest-verified cache entry: zero-copy views over a
    read-only file mapping, in the engine's packed block layout.
    ``digest`` was recomputed over exactly these views, so a consumer
    records it instead of hashing the block again."""

    __slots__ = (
        "path", "num_sets", "num_members", "digest",
        "buffer", "lengths", "members", "lengths_offset", "members_offset",
    )

    def __init__(self, path, num_sets, num_members, digest,
                 buffer, lengths, members) -> None:
        self.path = path
        self.num_sets = num_sets
        self.num_members = num_members
        self.digest = digest
        self.buffer = buffer
        self.lengths = lengths
        self.members = members
        self.lengths_offset = HEADER_SIZE
        self.members_offset = HEADER_SIZE + num_sets * _LENGTH_ITEMSIZE

    def release(self) -> None:
        """Drop the views and the mapping reference.  The engine splices
        out of the entry with exactly one copy and then releases it, so
        the mapping never outlives the request that hit it."""
        self.lengths = None
        self.members = None
        self.buffer = None


def write_block(path: str, members, lengths,
                digest: str | None = None) -> tuple[int, str]:
    """Atomically write one entry file; returns ``(nbytes, digest)``.

    ``members``/``lengths`` are coerced to the packed dtypes (the same
    coercion a RESULT frame applies), the digest is computed over the
    packed bytes — unless the caller already holds it (the dsan digest
    of the same block) — and the file lands via tmp + ``os.replace`` so
    readers only ever observe complete entries.
    """
    lengths = np.ascontiguousarray(lengths, dtype=_LENGTH_DTYPE)
    members = np.ascontiguousarray(members, dtype=MEMBER_DTYPE)
    if digest is None:
        digest = digest_block(members, lengths)
    header = _HEADER.pack(
        MAGIC, lengths.size, members.size, 0, digest.encode("ascii")
    )
    tmp = f"{path}.{os.getpid()}.{next(_TMP_IDS)}.tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(header)
            handle.write(lengths.tobytes())
            handle.write(members.tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return HEADER_SIZE + lengths.nbytes + members.nbytes, digest


def load_block(path: str) -> BlockEntry:
    """Map and verify one entry file.

    Raises
    ------
    CorruptBlockError
        Truncated file, bad magic, inconsistent sizes, a non-zero
        ``state_len`` or trailing bytes, or a payload whose recomputed
        digest disagrees with the stored one — the caller quarantines
        and recomputes.
    FileNotFoundError
        No entry at ``path`` (a plain miss, not corruption).
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    try:
        buffer = np.memmap(path, dtype=np.uint8, mode="r")
    except (OSError, ValueError) as exc:
        raise CorruptBlockError(f"unmappable cache entry {path}: {exc}") from exc
    if buffer.size < HEADER_SIZE:
        raise CorruptBlockError(f"truncated cache entry {path} ({buffer.size} bytes)")
    magic, num_sets, num_members, state_len, digest_raw = _HEADER.unpack(
        buffer[:HEADER_SIZE].tobytes()
    )
    if magic != MAGIC:
        raise CorruptBlockError(f"bad magic in cache entry {path}: {magic!r}")
    expected_size = (
        HEADER_SIZE + num_sets * _LENGTH_ITEMSIZE + num_members * _MEMBER_ITEMSIZE
    )
    if num_sets < 0 or num_members < 0 or state_len != 0 or (
        buffer.size != expected_size
    ):
        raise CorruptBlockError(
            f"inconsistent sizes in cache entry {path}: header says "
            f"{expected_size} bytes (state_len={state_len}), file has "
            f"{buffer.size}"
        )
    lengths = np.frombuffer(
        buffer, dtype=_LENGTH_DTYPE, count=num_sets, offset=HEADER_SIZE
    )
    members_offset = HEADER_SIZE + num_sets * _LENGTH_ITEMSIZE
    members = np.frombuffer(
        buffer, dtype=MEMBER_DTYPE, count=num_members, offset=members_offset
    )
    digest = digest_raw.decode("ascii", errors="replace")
    if digest_block(members, lengths) != digest:
        raise CorruptBlockError(
            f"digest mismatch in cache entry {path}: stored {digest}, "
            f"payload hashes differently — entry is poisoned"
        )
    return BlockEntry(
        path, int(num_sets), int(num_members), digest, buffer, lengths, members
    )
