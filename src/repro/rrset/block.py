"""The one encoding of a chunk block: the ``.blk`` entry.

A chunk block — the full RR-set block of one ``(ad, chunk)`` stream
address — travels and rests in exactly one byte layout: a fixed 64-byte
header followed by the engine's packed ``[int64 lengths | int32
members]``, the very bytes the dsan digest covers::

    offset 0    magic        8 bytes  b"RRSBLK01" (format version 1)
    offset 8    num_sets     int64 little-endian
    offset 16   num_members  int64 little-endian
    offset 24   state_len    int64 little-endian, must be 0 (reserved)
    offset 32   digest       32 ascii hex chars (blake2b-128 of payload)
    offset 64   lengths      num_sets * int64           (8-byte aligned)
    ...         members      num_members * int32        (4-byte aligned)

A shard-cache file (:mod:`repro.store.blocks`) is one entry; a RESULT
frame (:mod:`repro.dist.frames`) is a 16-byte ``(ad, chunk)`` address
followed by one entry.  :func:`pack` writes an entry, :func:`parse`
checks one — magic, sizes, the reserved field, the digest, every
length ``>= 0`` and the lengths summing to ``num_members`` — and returns a
:class:`Block` of zero-copy views over it.  Nothing may follow the
members: trailing bytes are rejected like any other corruption.

    >>> pieces, digest = pack([7, 3, 5], [2, 1])
    >>> block = parse(b"".join(pieces))
    >>> block.members.tolist(), block.lengths.tolist(), block.digest == digest
    ([7, 3, 5], [2, 1], True)
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import StoreError
from repro.rrset.dsan import digest_block
from repro.rrset.pool import MEMBER_DTYPE

MAGIC = b"RRSBLK01"
_HEADER = struct.Struct("<8sqqq32s")
HEADER_SIZE = _HEADER.size  # 64: keeps the int64 lengths 8-byte aligned
_LENGTH_ITEMSIZE = np.dtype(np.int64).itemsize
_MEMBER_ITEMSIZE = np.dtype(MEMBER_DTYPE).itemsize


class CorruptBlockError(StoreError):
    """An entry failed its structural or digest check.  The shard cache
    quarantines the file and recomputes; the coordinator requeues the
    chunk — corruption must never surface as a wrong allocation."""


class Block:
    """One full chunk block on its way into a shard: ``members`` and
    ``lengths`` in the packed layout, the ``digest`` its arrival already
    verified over exactly these arrays (``None``: not hashed yet), and
    ``buffer``, the file mapping the arrays are views over (``None``
    unless the block is a cache entry).  :meth:`release` drops all four,
    so a mapping never outlives the request that opened it."""

    __slots__ = ("members", "lengths", "digest", "buffer")

    def __init__(self, members, lengths, digest=None, buffer=None) -> None:
        self.members = members
        self.lengths = lengths
        self.digest = digest
        self.buffer = buffer

    @property
    def num_sets(self) -> int:
        return len(self.lengths)

    @property
    def num_members(self) -> int:
        return len(self.members)

    def release(self) -> None:
        self.members = self.lengths = self.digest = self.buffer = None


def pack(members, lengths, digest: str | None = None) -> tuple[list, str]:
    """One entry as its ``[header, lengths, members]`` pieces — join or
    write them in order — plus its digest: ``digest`` when the caller
    already holds it (the dsan digest, a verified entry's), else hashed
    here, once.  The arrays are coerced to the packed dtypes."""
    lengths = np.ascontiguousarray(lengths, dtype=np.int64)
    members = np.ascontiguousarray(members, dtype=MEMBER_DTYPE)
    if digest is None:
        digest = digest_block(members, lengths)
    header = _HEADER.pack(
        MAGIC, lengths.size, members.size, 0, digest.encode("ascii")
    )
    return [header, lengths, members], digest


def parse(buffer, offset: int = 0) -> Block:
    """Check the entry that fills ``buffer`` from byte ``offset`` to its
    end and return it as a :class:`Block` of read-only views over
    ``buffer``, carrying the digest verified over exactly those views.

    Raises :class:`CorruptBlockError` on a truncated header, bad magic,
    sizes that disagree with the buffer, a non-zero ``state_len``, a
    payload whose digest differs from the stored one, a negative
    length, or lengths that do not sum to ``num_members``."""
    size = memoryview(buffer).nbytes - offset
    if size < HEADER_SIZE:
        raise CorruptBlockError(
            f"truncated block: {size} bytes is shorter than the "
            f"{HEADER_SIZE}-byte header"
        )
    magic, num_sets, num_members, state_len, stamp = _HEADER.unpack_from(
        buffer, offset
    )
    if magic != MAGIC:
        raise CorruptBlockError(f"bad magic {magic!r} (expected {MAGIC!r})")
    expected = (
        HEADER_SIZE + num_sets * _LENGTH_ITEMSIZE + num_members * _MEMBER_ITEMSIZE
    )
    if num_sets < 0 or num_members < 0 or state_len != 0 or size != expected:
        raise CorruptBlockError(
            f"inconsistent sizes: header says {expected} bytes "
            f"(state_len={state_len}), block has {size}"
        )
    start = offset + HEADER_SIZE
    lengths = np.frombuffer(buffer, dtype=np.int64, count=num_sets, offset=start)
    members = np.frombuffer(
        buffer, dtype=MEMBER_DTYPE, count=num_members,
        offset=start + num_sets * _LENGTH_ITEMSIZE,
    )
    digest = digest_block(members, lengths)
    if digest.encode("ascii") != stamp:
        raise CorruptBlockError(
            f"digest mismatch: stored {stamp.decode('ascii', 'replace')}, "
            f"payload hashes to {digest}"
        )
    # The digest only says the bytes are the ones stamped; a forged
    # block can be stamped honestly, so the lengths are checked too.
    if np.any(lengths < 0):
        raise CorruptBlockError("negative set length")
    total = int(lengths.sum())
    if total != num_members:
        raise CorruptBlockError(
            f"lengths sum to {total}, header says {num_members} members"
        )
    return Block(members, lengths, digest)
