"""Length-prefixed binary frame codec for the coordinator/worker wire.

One frame is a fixed 16-byte header followed by a payload::

    <4s magic "RPF1"> <B kind> <3x pad> <q payload length>  payload...

Control frames (HELLO / SETUP / TASK / ERROR / RELEASE / SHUTDOWN)
carry a JSON object; PAYLOAD carries a session's flat chunk-source
payload (laid out by its SETUP meta); and RESULT carries one full
chunk block as the chunk's address followed by exactly the bytes of
its shard-cache entry (:mod:`repro.rrset.block`)::

    <q ad> <q chunk> <.blk entry: 64-byte header | int64 lengths | int32 members>

The entry's digest is the blake2 digest the dsan and the shard cache
use, stamped by the worker (or carried over from the cache entry it
loaded) and re-verified by the coordinator over the bytes it received
(:func:`unpack_result`, the same parse a cache load runs), so a
bit-flipped or forged block surfaces as :class:`FrameIntegrityError` —
the coordinator requeues the chunk instead of splicing garbage.

Every malformed input — bad magic, unknown kind, negative or oversize
length prefix, truncated header, a connection dropped mid-frame —
raises :class:`~repro.errors.ProtocolError`; a clean EOF *between*
frames is not an error (:func:`recv_frame` returns ``None``).  The
:class:`FrameDecoder` is a socket-free incremental parser, so the
protocol fuzz tests drive it with raw byte streams directly.
"""

from __future__ import annotations

import json
import struct

from repro.errors import ProtocolError
from repro.rrset.block import Block, CorruptBlockError, pack, parse

#: Wire magic: first bytes of every frame.  Distinct from the shard
#: store's ``RRSBLK01`` on purpose — a block file fed to a socket (or
#: the reverse) must fail loudly, not parse.
MAGIC = b"RPF1"

#: Bumped on any incompatible wire change; HELLO carries it and the
#: coordinator refuses mismatched workers.
PROTOCOL_VERSION = 3

_HEADER = struct.Struct("<4sB3xq")
HEADER_SIZE = _HEADER.size

# Frame kinds.
HELLO = 1      # worker -> coordinator: {"protocol", "name", ...}
SETUP = 2      # coordinator -> worker: session meta (dims, entropies, layout)
PAYLOAD = 3    # coordinator -> worker: the session's flat payload bytes
TASK = 4       # coordinator -> worker: {"session", "ad", "chunk"}
RESULT = 5     # worker -> coordinator: one packed chunk block (see above)
ERROR = 6      # worker -> coordinator: {"error": ...}
RELEASE = 7    # coordinator -> worker: {"session"} — drop session state
SHUTDOWN = 8   # coordinator -> worker: close down cleanly

FRAME_KINDS = frozenset(
    {HELLO, SETUP, PAYLOAD, TASK, RESULT, ERROR, RELEASE, SHUTDOWN}
)

#: Default ceiling on one frame's payload.  A chunk block is
#: ``chunk_size`` sets of bounded length; 256 MiB accommodates any
#: realistic session payload while keeping a hostile length prefix from
#: allocating unbounded memory.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: A RESULT payload's ``(ad, chunk)`` address, ahead of the entry.
_ADDRESS = struct.Struct("<qq")
ADDRESS_SIZE = _ADDRESS.size


class FrameIntegrityError(ProtocolError):
    """A RESULT frame whose block fails any check of the entry parse —
    sizes, lengths, digest — or that addresses the wrong chunk: the
    transport corrupted the block, or the worker lied.  The coordinator
    treats either the same way: drop the worker, requeue the chunk."""


def _header(kind: int, length: int) -> bytes:
    if kind not in FRAME_KINDS:
        raise ProtocolError(f"unknown frame kind {kind!r}")
    return _HEADER.pack(MAGIC, kind, length)


def pack_frame(kind: int, payload: bytes = b"") -> bytes:
    """One wire frame: header + payload."""
    return _header(kind, len(payload)) + payload


def pack_json(kind: int, obj: dict) -> bytes:
    """A control frame carrying one JSON object."""
    return pack_frame(kind, json.dumps(obj).encode("utf-8"))


def parse_json(payload: bytes) -> dict:
    """Decode a control frame's payload; anything but a JSON object is
    a protocol violation."""
    try:
        parsed = json.loads(payload)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"control frame is not valid JSON: {exc}") from exc
    if not isinstance(parsed, dict):
        raise ProtocolError(
            f"control frame must carry a JSON object, got {type(parsed).__name__}"
        )
    return parsed


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte stream.

    Feed received bytes with :meth:`feed`; :meth:`next_frame` yields
    complete ``(kind, payload)`` frames (``None`` while incomplete).
    Header validation happens as soon as the 16 header bytes are
    buffered, so a hostile length prefix is rejected *before* its
    payload is awaited, let alone allocated.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = int(max_frame_bytes)
        self._buffer = bytearray()

    @property
    def buffered(self) -> int:
        """Bytes buffered but not yet returned as a frame.  Nonzero at
        EOF means the peer vanished mid-frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def next_frame(self) -> tuple[int, bytes] | None:
        if len(self._buffer) < HEADER_SIZE:
            return None
        magic, kind, length = _HEADER.unpack_from(self._buffer)
        if magic != MAGIC:
            raise ProtocolError(
                f"bad frame magic {bytes(magic)!r} (expected {MAGIC!r})"
            )
        if kind not in FRAME_KINDS:
            raise ProtocolError(f"unknown frame kind {kind}")
        if length < 0:
            raise ProtocolError(f"negative frame length {length}")
        if length > self.max_frame_bytes:
            raise ProtocolError(
                f"frame length {length} exceeds the {self.max_frame_bytes}-"
                f"byte limit"
            )
        end = HEADER_SIZE + length
        if len(self._buffer) < end:
            return None
        # One copy out of the buffer (a bytearray slice would copy
        # twice); the view must be gone before the buffer shrinks.
        with memoryview(self._buffer)[HEADER_SIZE:end] as view:
            payload = bytes(view)
        del self._buffer[:end]
        return kind, payload

    def close(self) -> None:
        """Signal EOF: raises :class:`~repro.errors.ProtocolError` when
        the stream ended inside a frame."""
        if self._buffer:
            raise ProtocolError(
                f"connection closed mid-frame ({len(self._buffer)} bytes "
                f"into an incomplete frame)"
            )


def send_frame(sock, kind: int, payload: bytes = b"") -> None:
    """Write one frame to a connected socket: the header, then the
    payload (any bytes-like object) as is — never joined into a copy."""
    payload = memoryview(payload).cast("B")
    sock.sendall(_header(kind, payload.nbytes))
    if payload.nbytes:
        sock.sendall(payload)


def send_json(sock, kind: int, obj: dict) -> None:
    """Write one JSON control frame to a connected socket."""
    sock.sendall(pack_json(kind, obj))


def recv_frame(sock, decoder: FrameDecoder, *,
               bufsize: int = 1 << 16) -> tuple[int, bytes] | None:
    """Read one complete frame from a connected socket.

    Returns ``None`` on a clean EOF between frames; raises
    :class:`~repro.errors.ProtocolError` on EOF mid-frame or any header
    violation.  A socket timeout propagates as :class:`TimeoutError` —
    the coordinator's stall detection, never a hung ``recv``."""
    while True:
        frame = decoder.next_frame()
        if frame is not None:
            return frame
        data = sock.recv(bufsize)
        if not data:
            decoder.close()  # raises if mid-frame
            return None
        decoder.feed(data)


def pack_result(ad: int, chunk_index: int, members, lengths,
                digest: str | None = None) -> bytes:
    """One RESULT payload: the chunk's address, then its entry bytes,
    stamped with ``digest`` when the caller already verified one over
    these arrays (a cache hit), else hashed once here."""
    pieces, _ = pack(members, lengths, digest)
    return b"".join([_ADDRESS.pack(int(ad), int(chunk_index)), *pieces])


def unpack_result(payload: bytes) -> tuple[int, int, Block]:
    """Parse and *verify* a RESULT payload: ``(ad, chunk, block)``.

    A payload too short for the address raises
    :class:`~repro.errors.ProtocolError`; an entry that fails any check
    of :func:`repro.rrset.block.parse` raises :class:`FrameIntegrityError`.
    The block's arrays are views over ``payload`` (read-only for a
    ``bytes`` payload) and its digest was verified over exactly those
    views — so the caller records it instead of hashing again."""
    if len(payload) < ADDRESS_SIZE:
        raise ProtocolError(
            f"RESULT payload truncated: {len(payload)} bytes is shorter "
            f"than the {ADDRESS_SIZE}-byte address"
        )
    ad, chunk_index = _ADDRESS.unpack_from(payload)
    try:
        return ad, chunk_index, parse(payload, ADDRESS_SIZE)
    except CorruptBlockError as exc:
        raise FrameIntegrityError(
            f"RESULT block for (ad={ad}, chunk={chunk_index}): {exc}"
        ) from exc
