"""Cache entry files: one ``.blk`` entry (:mod:`repro.rrset.block`) per
file, and nothing else.

The format — header, packed ``[int64 lengths | int32 members]``, stored
digest — and every check on it belong to :mod:`repro.rrset.block`, the
same codec a RESULT frame carries; this module adds only the file I/O.
Writes are atomic (unique tmp file in the same directory, then
``os.replace``), so concurrent writers race benignly: both write the
same bytes for the same address and the last rename wins.  Loads map
the file read-only (``np.memmap``) and parse the mapping, so the stored
digest is recomputed over the mapped payload *before* any view escapes
and a corrupt entry is detected here and never spliced.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

from repro.rrset.block import HEADER_SIZE, MAGIC, Block, CorruptBlockError, pack, parse

__all__ = [
    "HEADER_SIZE", "MAGIC", "Block", "CorruptBlockError", "load_block", "write_block",
]

#: Per-process tmp-name counter: together with the pid this makes tmp
#: paths unique across concurrent writers without drawing entropy
#: (``uuid``/``random`` tmp names would violate the repo's own R102).
_TMP_IDS = itertools.count()


def write_block(path: str, members, lengths,
                digest: str | None = None) -> tuple[int, str]:
    """Atomically write one entry file; returns ``(nbytes, digest)``.
    ``digest`` is the block's digest when the caller already holds it
    (the dsan digest of the same block), so it is not hashed again."""
    pieces, digest = pack(members, lengths, digest)
    tmp = f"{path}.{os.getpid()}.{next(_TMP_IDS)}.tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.writelines(pieces)
            nbytes = handle.tell()
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return nbytes, digest


def load_block(path: str) -> Block:
    """Map and verify one entry file: a :class:`Block` of views over the
    mapping, which it holds as ``buffer``.

    Raises
    ------
    CorruptBlockError
        An unmappable file, or any check of :func:`repro.rrset.block.parse`
        failed — the caller quarantines and recomputes.
    FileNotFoundError
        No entry at ``path`` (a plain miss, not corruption).
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    try:
        mapping = np.memmap(path, dtype=np.uint8, mode="r")
    except (OSError, ValueError) as exc:
        raise CorruptBlockError(f"unmappable cache entry {path}: {exc}") from exc
    block = parse(mapping)
    block.buffer = mapping
    return block
