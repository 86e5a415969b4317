"""Block entry files: roundtrip, atomicity, and corruption detection.

The block file is the store's trust boundary — every failure mode here
must surface as :class:`CorruptBlockError` (so the cache quarantines
and recomputes), never as a silently wrong splice.
"""

from __future__ import annotations

import os
import struct

import numpy as np
import pytest

from repro.store.blocks import (
    HEADER_SIZE,
    MAGIC,
    BlockEntry,
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
    assert isinstance(entry, BlockEntry)
    assert entry.num_sets == 3
    assert entry.num_members == 6
    assert entry.digest == digest
    assert np.array_equal(entry.lengths, lengths)
    assert np.array_equal(entry.members, members)
    entry.release()
    assert entry.buffer is None


def test_offsets_match_packed_layout(tmp_path):
    members, lengths = _sample_block()
    path = str(tmp_path / "0.blk")
    write_block(path, members, lengths)
    entry = load_block(path)
    assert entry.lengths_offset == HEADER_SIZE
    assert entry.members_offset == HEADER_SIZE + lengths.size * 8
    raw = np.frombuffer(
        entry.buffer, dtype=np.int32, count=members.size,
        offset=entry.members_offset,
    )
    assert np.array_equal(raw, members)
    entry.release()


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
