"""Block entry files: roundtrip, atomicity, and corruption detection.

The block file is the store's trust boundary — every failure mode here
must surface as :class:`CorruptBlockError` (so the cache quarantines
and recomputes), never as a silently wrong splice.  The entry is also
the RESULT frame's block, byte for byte.
"""

from __future__ import annotations

import hashlib
import os
import struct

import numpy as np
import pytest

from repro.dist import frames
from repro.store.blocks import (
    HEADER_SIZE,
    MAGIC,
    Block,
    CorruptBlockError,
    load_block,
    write_block,
)


def _sample_block():
    lengths = np.array([3, 1, 2], dtype=np.int64)
    members = np.array([4, 9, 2, 7, 1, 5], dtype=np.int32)
    return members, lengths


def test_roundtrip_preserves_payload(tmp_path):
    members, lengths = _sample_block()
    path = str(tmp_path / "0.blk")
    nbytes, digest = write_block(path, members, lengths)
    assert nbytes == os.path.getsize(path)
    entry = load_block(path)
    assert isinstance(entry, Block)
    assert entry.num_sets == 3
    assert entry.num_members == 6
    assert entry.digest == digest
    assert np.array_equal(entry.lengths, lengths)
    assert np.array_equal(entry.members, members)
    entry.release()
    assert entry.buffer is None


def test_offsets_match_packed_layout(tmp_path):
    """The entry's arrays are views over the mapping at the packed
    layout's offsets — the splice copies straight out of the file."""
    members, lengths = _sample_block()
    path = str(tmp_path / "0.blk")
    write_block(path, members, lengths)
    entry = load_block(path)
    raw = np.frombuffer(
        entry.buffer, dtype=np.int32, count=members.size,
        offset=HEADER_SIZE + lengths.size * 8,
    )
    assert np.array_equal(raw, members)
    assert np.shares_memory(entry.members, raw)
    assert np.shares_memory(entry.lengths, entry.buffer[HEADER_SIZE:])
    entry.release()


def test_file_bytes_are_pinned(tmp_path):
    """The on-disk format is frozen: a fixed 2-set block's file hashes to
    the same literal as when the format was introduced, so existing
    cache directories stay valid."""
    path = str(tmp_path / "0.blk")
    nbytes, _ = write_block(
        path, np.array([4, 9, 2], dtype=np.int32), np.array([2, 1], dtype=np.int64)
    )
    data = (tmp_path / "0.blk").read_bytes()
    assert nbytes == len(data) == HEADER_SIZE + 2 * 8 + 3 * 4
    assert data.startswith(MAGIC)
    digest = hashlib.blake2b(data, digest_size=16).hexdigest()
    assert digest == "90cb766f554094fa8957c12ee25b52c6"


def test_result_frame_carries_the_entry_bytes(tmp_path):
    """Wire and disk are one format: a RESULT payload minus its 16-byte
    ``(ad, chunk)`` address is exactly the chunk's entry file."""
    members, lengths = _sample_block()
    path = str(tmp_path / "0.blk")
    write_block(path, members, lengths)
    payload = frames.pack_result(2, 5, members, lengths)
    assert payload[frames.ADDRESS_SIZE:] == (tmp_path / "0.blk").read_bytes()


def test_missing_entry_is_a_plain_miss(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_block(str(tmp_path / "absent.blk"))


def test_no_tmp_files_left_behind(tmp_path):
    members, lengths = _sample_block()
    write_block(str(tmp_path / "0.blk"), members, lengths)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["0.blk"]


def test_write_is_idempotent_bytes(tmp_path):
    members, lengths = _sample_block()
    a, b = str(tmp_path / "a.blk"), str(tmp_path / "b.blk")
    write_block(a, members, lengths)
    write_block(b, members, lengths)
    assert open(a, "rb").read() == open(b, "rb").read()


class TestCorruption:
    def _written(self, tmp_path):
        members, lengths = _sample_block()
        path = str(tmp_path / "0.blk")
        write_block(path, members, lengths)
        return path

    def test_truncated_file(self, tmp_path):
        path = self._written(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(HEADER_SIZE - 10)
        with pytest.raises(CorruptBlockError, match="truncated"):
            load_block(path)

    def test_truncated_payload(self, tmp_path):
        path = self._written(tmp_path)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 4)
        with pytest.raises(CorruptBlockError, match="inconsistent sizes"):
            load_block(path)

    def test_bad_magic(self, tmp_path):
        path = self._written(tmp_path)
        with open(path, "r+b") as handle:
            handle.write(b"XXSBLK99")
        with pytest.raises(CorruptBlockError, match="bad magic"):
            load_block(path)
        assert MAGIC != b"XXSBLK99"

    def test_flipped_payload_byte_fails_digest(self, tmp_path):
        path = self._written(tmp_path)
        with open(path, "r+b") as handle:
            handle.seek(HEADER_SIZE + 8)  # inside the lengths payload
            byte = handle.read(1)
            handle.seek(HEADER_SIZE + 8)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(CorruptBlockError, match="digest mismatch"):
            load_block(path)

    @pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
    def test_lengths_that_disagree_with_num_members(self, tmp_path, delta):
        """A digest-valid entry whose lengths do not sum to its member
        count: short would splice the wrong sets, long would overrun."""
        members, lengths = _sample_block()
        lengths[0] += delta
        path = str(tmp_path / "0.blk")
        write_block(path, members, lengths)
        with pytest.raises(CorruptBlockError, match="lengths sum to"):
            load_block(path)

    def test_negative_length(self, tmp_path):
        members, lengths = _sample_block()
        lengths[:2] = [lengths[0] + lengths[1] + 1, -1]  # sum preserved
        path = str(tmp_path / "0.blk")
        write_block(path, members, lengths)
        with pytest.raises(CorruptBlockError, match="negative"):
            load_block(path)

    @pytest.mark.parametrize("declared", [True, False])
    def test_bytes_after_the_members_are_rejected(self, tmp_path, declared):
        """The format ends at the last member: a trailer — whether the
        reserved ``state_len`` field declares it (a stream-state entry
        from another format generation) or not — is corruption, even
        though the payload digest still verifies."""
        path = self._written(tmp_path)
        trailer = b'{"position": 1}'
        with open(path, "r+b") as handle:
            if declared:
                handle.seek(24)  # the header's state_len field
                handle.write(struct.pack("<q", len(trailer)))
            handle.seek(0, os.SEEK_END)
            handle.write(trailer)
        with pytest.raises(CorruptBlockError, match="inconsistent sizes"):
            load_block(path)
