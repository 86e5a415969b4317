"""Protocol fuzz: malformed wire traffic must surface ProtocolError.

The codec is the trust boundary of the distributed tier — every byte a
worker sends crosses it before touching an allocation.  These tests
feed it truncated headers, oversize and negative length prefixes, bad
magic, torn frames, JSON garbage, and bit-flipped result payloads, and
demand a clean :class:`~repro.errors.ProtocolError` (or its
:class:`~repro.dist.FrameIntegrityError` subclass) every time — never a
traceback of some other flavour, never a hang, never a silently
accepted block.
"""

from __future__ import annotations

import socket
import struct
import threading

import numpy as np
import pytest

from repro.dist import FrameIntegrityError, FrameDecoder, frames
from repro.errors import ProtocolError
from repro.rrset.dsan import digest_block


def _result_payload(ad: int = 0, chunk: int = 3) -> bytes:
    members = np.array([1, 2, 3, 4, 5, 6], dtype=np.int32)
    lengths = np.array([2, 1, 3], dtype=np.int64)
    return frames.pack_result(ad, chunk, members, lengths)


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------
class TestFrameDecoder:
    def test_roundtrip_single_and_coalesced_frames(self):
        decoder = FrameDecoder()
        wire = frames.pack_json(frames.TASK, {"ad": 1}) + frames.pack_frame(
            frames.PAYLOAD, b"abc"
        )
        decoder.feed(wire)
        kind, payload = decoder.next_frame()
        assert kind == frames.TASK
        assert frames.parse_json(payload) == {"ad": 1}
        assert decoder.next_frame() == (frames.PAYLOAD, b"abc")
        assert decoder.next_frame() is None

    def test_byte_at_a_time_reassembly(self):
        decoder = FrameDecoder()
        wire = frames.pack_frame(frames.RESULT, b"xyz")
        got = []
        for i in range(len(wire)):
            decoder.feed(wire[i:i + 1])
            frame = decoder.next_frame()
            if frame is not None:
                got.append(frame)
        assert got == [(frames.RESULT, b"xyz")]

    def test_truncated_header_is_incomplete_not_an_error(self):
        decoder = FrameDecoder()
        decoder.feed(frames.pack_frame(frames.TASK, b"")[:10])
        assert decoder.next_frame() is None
        assert decoder.buffered == 10

    def test_bad_magic_rejected(self):
        decoder = FrameDecoder()
        decoder.feed(b"EVIL" + frames.pack_frame(frames.TASK, b"")[4:])
        with pytest.raises(ProtocolError, match="magic"):
            decoder.next_frame()

    def test_unknown_kind_rejected(self):
        decoder = FrameDecoder()
        decoder.feed(struct.pack("<4sB3xq", frames.MAGIC, 99, 0))
        with pytest.raises(ProtocolError, match="kind"):
            decoder.next_frame()

    def test_negative_length_rejected(self):
        decoder = FrameDecoder()
        decoder.feed(struct.pack("<4sB3xq", frames.MAGIC, frames.TASK, -1))
        with pytest.raises(ProtocolError, match="length"):
            decoder.next_frame()

    def test_oversize_length_prefix_rejected_before_any_payload(self):
        decoder = FrameDecoder(max_frame_bytes=1024)
        # The header alone must be refused — a hostile peer must not be
        # able to make the coordinator buffer gigabytes.
        decoder.feed(struct.pack("<4sB3xq", frames.MAGIC, frames.TASK, 1 << 40))
        with pytest.raises(ProtocolError, match="exceeds"):
            decoder.next_frame()

    def test_close_mid_frame_rejected(self):
        decoder = FrameDecoder()
        decoder.feed(frames.pack_frame(frames.TASK, b"abcdef")[:-2])
        with pytest.raises(ProtocolError, match="mid-frame"):
            decoder.close()

    def test_close_at_boundary_is_clean(self):
        decoder = FrameDecoder()
        decoder.feed(frames.pack_frame(frames.TASK, b""))
        decoder.next_frame()
        decoder.close()  # no buffered bytes: a clean EOF

    def test_random_garbage_never_hangs_or_escapes(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            blob = rng.integers(0, 256, size=64, dtype=np.uint8).tobytes()
            decoder = FrameDecoder(max_frame_bytes=4096)
            decoder.feed(blob)
            try:
                while decoder.next_frame() is not None:
                    pass
                decoder.close()
            except ProtocolError:
                pass  # the only acceptable failure flavour


class TestJsonPayloads:
    def test_parse_json_garbage_rejected(self):
        with pytest.raises(ProtocolError, match="JSON"):
            frames.parse_json(b"\xff\xfe not json")

    def test_parse_json_non_object_rejected(self):
        with pytest.raises(ProtocolError):
            frames.parse_json(b"[1, 2, 3]")


# ---------------------------------------------------------------------------
# RESULT payloads
# ---------------------------------------------------------------------------
class TestResultCodec:
    def test_roundtrip(self):
        ad, chunk, block = frames.unpack_result(_result_payload())
        members, lengths = block.members, block.lengths
        assert (ad, chunk) == (0, 3)
        assert members.tolist() == [1, 2, 3, 4, 5, 6]
        assert lengths.tolist() == [2, 1, 3]
        assert members.dtype == np.int32 and lengths.dtype == np.int64
        # The stamp it verified, over exactly the arrays it returns.
        assert block.digest == digest_block(members, lengths)

    def test_unpacked_arrays_are_views_over_the_payload(self):
        """One copy per direction: the verified arrays are read-only
        views over the received bytes, not copies of them."""
        payload = _result_payload()
        _, _, block = frames.unpack_result(payload)
        raw = np.frombuffer(payload, dtype=np.uint8)
        assert np.shares_memory(block.members, raw)
        assert np.shares_memory(block.lengths, raw)
        assert not block.members.flags.writeable

    def test_truncated_header_rejected(self):
        with pytest.raises(ProtocolError, match="short"):
            frames.unpack_result(_result_payload()[:20])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            frames.unpack_result(_result_payload() + b"\x00" * 8)

    def test_every_single_bit_flip_is_caught(self):
        """Flip each byte of the block — header and data — in turn: the
        digest (or a structural check) must refute every one — this is
        the property the chaos suite's 'corrupt' mode rides on."""
        payload = _result_payload()
        for offset in range(frames.ADDRESS_SIZE, len(payload)):
            corrupted = bytearray(payload)
            corrupted[offset] ^= 0x01
            with pytest.raises(FrameIntegrityError):
                frames.unpack_result(bytes(corrupted))

    def test_digest_stamp_flip_is_caught(self):
        payload = bytearray(_result_payload())
        payload[frames.ADDRESS_SIZE + 40] ^= 0x01  # inside the stamp itself
        with pytest.raises(FrameIntegrityError, match="digest mismatch"):
            frames.unpack_result(bytes(payload))

    def test_restamped_negative_length_is_caught(self):
        """A worker that forges a block and stamps it honestly: a
        negative length with the sum preserved passes the digest and
        the sum, and must still be refuted by the parse."""
        members = np.array([1, 2, 3, 4, 5, 6], dtype=np.int32)
        payload = frames.pack_result(0, 3, members, [4, -1, 3])
        with pytest.raises(FrameIntegrityError, match="negative"):
            frames.unpack_result(payload)


# ---------------------------------------------------------------------------
# Sockets
# ---------------------------------------------------------------------------
class TestRecvFrame:
    def _pair(self):
        left, right = socket.socketpair()
        left.settimeout(5.0)
        right.settimeout(5.0)
        return left, right

    def test_clean_eof_returns_none(self):
        left, right = self._pair()
        try:
            right.close()
            assert frames.recv_frame(left, FrameDecoder()) is None
        finally:
            left.close()

    def test_mid_frame_disconnect_rejected(self):
        left, right = self._pair()
        try:
            wire = frames.pack_frame(frames.RESULT, b"abcdef")
            right.sendall(wire[: len(wire) - 3])
            right.close()
            decoder = FrameDecoder()
            with pytest.raises(ProtocolError, match="mid-frame"):
                while True:
                    if frames.recv_frame(left, decoder) is None:
                        break
        finally:
            left.close()

    def test_send_then_recv_roundtrip_threads(self):
        left, right = self._pair()
        payload = _result_payload()

        def _send():
            frames.send_frame(right, frames.RESULT, payload)
            right.close()

        thread = threading.Thread(target=_send)
        thread.start()
        try:
            decoder = FrameDecoder()
            assert frames.recv_frame(left, decoder) == (frames.RESULT, payload)
            assert frames.recv_frame(left, decoder) is None
        finally:
            thread.join()
            left.close()


# ---------------------------------------------------------------------------
# SETUP payloads
# ---------------------------------------------------------------------------
def _setup_frames(graph, probs, **overrides):
    """A SETUP meta + PAYLOAD for ``graph`` laid out as the coordinator
    lays it out, with ``overrides`` replacing arrays by key."""
    arrays = {
        "in_indptr": graph.in_indptr,
        "in_sources": graph.in_sources,
        "in_edge_ids": graph.in_edge_ids,
        "probs_0": probs,
        **overrides,
    }
    layout, payload = [], bytearray()
    for key, array in arrays.items():
        payload += bytes(-len(payload) % 8)
        layout.append((key, array.dtype.str, int(array.size), len(payload)))
        payload += array.tobytes()
    meta = {
        "session": 1, "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges, "h": 1, "entropies": [7],
        "chunk_size": 8, "layout": layout,
    }
    return meta, bytes(payload)


class TestSetupPayload:
    """A dialled worker binds the SETUP in-CSR straight into the compiled
    BFS, which trusts it; every malformed one must be refused at SETUP
    as a ProtocolError, never read out of bounds."""

    @pytest.fixture(scope="class")
    def graph(self):
        from repro.graph.generators import erdos_renyi

        return erdos_renyi(30, 0.15, seed=2)

    def test_well_formed_payload_rebuilds_the_source(self, graph):
        from repro.dist.worker import _Session
        from repro.rrset.sharded import ChunkSource

        probs = np.full(graph.num_edges, 0.3)
        session = _Session.from_setup(*_setup_frames(graph, probs))
        expected = ChunkSource(graph, [probs], [7], 8).block(0, 2)
        got = session.source.block(0, 2)
        assert got.members.tobytes() == expected.members.tobytes()
        assert got.lengths.tobytes() == expected.lengths.tobytes()

    @pytest.mark.parametrize("case", [
        "short_indptr", "indptr_beyond_sources", "indptr_not_from_zero",
        "indptr_decreasing", "source_too_large", "source_negative",
        "edge_id_too_large", "short_edge_ids", "int32_sources",
    ])
    def test_malformed_in_csr_is_a_protocol_error(self, graph, case):
        from repro.dist.worker import WorkerHost

        n, m = graph.num_nodes, graph.num_edges
        indptr = graph.in_indptr.copy()
        sources = graph.in_sources.copy()
        edge_ids = graph.in_edge_ids.copy()
        busy = int(np.flatnonzero(np.diff(indptr))[0])  # a node with in-edges
        if case == "short_indptr":
            indptr = indptr[:n // 2]
        elif case == "indptr_beyond_sources":
            indptr[-1] = m + 1000
        elif case == "indptr_not_from_zero":
            indptr[0] = -5
        elif case == "indptr_decreasing":
            indptr[busy + 1] = indptr[busy] - 1
        elif case == "source_too_large":
            sources[0] = n + 10**9
        elif case == "source_negative":
            sources[-1] = -1
        elif case == "edge_id_too_large":
            edge_ids[1] = m
        elif case == "short_edge_ids":
            edge_ids = edge_ids[:-1]
        elif case == "int32_sources":
            sources = sources.astype(np.int32)
        meta, payload = _setup_frames(
            graph, np.full(m, 0.3), in_indptr=indptr, in_sources=sources,
            in_edge_ids=edge_ids,
        )
        parent_end, child_end = socket.socketpair()
        try:
            frames.send_json(parent_end, frames.SETUP, meta)
            frames.send_frame(parent_end, frames.PAYLOAD, payload)
            with pytest.raises(ProtocolError, match="in-CSR is malformed"):
                WorkerHost("", 0).serve(child_end)
        finally:
            parent_end.close()
            child_end.close()
