"""Content digests for graphs and arrays (the shard-cache key footing).

The shard cache (:mod:`repro.store`) addresses cached RR-set blocks by
the inputs that determine their bytes.  ``DirectedGraph.__hash__`` is
shape-only (it exists for container identity, not content), so the
cache needs a real content digest: :func:`graph_digest` hashes the
canonical edge arrays, and :func:`array_digest` hashes any numeric
array (the per-ad edge-probability rows) including dtype and shape, so
two arrays with equal bytes but different widths never collide.

Digests are blake2b hexdigests at the same 16-byte width as the dsan
chunk digests (:data:`repro.rrset.dsan.DIGEST_SIZE`) — collision
resistance far beyond what a content-addressed cache needs, at a cost
of one linear pass over the bytes.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: blake2b digest width (bytes), matching the dsan chunk digests.
DIGEST_SIZE = 16


def immutable(array: np.ndarray) -> np.ndarray:
    """``array`` backed by an immutable ``bytes`` buffer, so a digest
    cached over it cannot go stale: an in-place write raises
    ``ValueError``, and so does ``flags.writeable = True`` — on the
    array, on its views and on its base.  Clearing ``writeable`` alone
    would not do: the flag can be set again.  An array already backed
    by ``bytes`` (or a view of one) is returned as it is; any other is
    copied once."""
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    if isinstance(base, bytes):
        return array
    return np.frombuffer(array.tobytes(), array.dtype).reshape(array.shape)


def array_digest(array, *, label: str = "") -> str:
    """Content digest of one numeric array: dtype, shape, then bytes.

    ``label`` namespaces the digest (e.g. ``"probs"``), so digests of
    different fields never collide even for equal bytes.
    """
    array = np.ascontiguousarray(array)
    digest = hashlib.blake2b(digest_size=DIGEST_SIZE)
    digest.update(label.encode())
    digest.update(str(array.dtype.str).encode())
    digest.update(str(array.shape).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


def graph_digest(graph) -> str:
    """Content digest of a :class:`~repro.graph.digraph.DirectedGraph`,
    hashed on the first call and cached on the graph (its arrays are
    read-only, so the digest cannot go stale).

    Hashes the dimensions plus the canonical edge arrays
    (``edge_sources``/``edge_targets``, in edge-id order) — exactly the
    identity per-ad probability rows index into, so together with
    :func:`array_digest` of a probability row it pins every input of an
    RR-set chunk besides the stream address.  Falls back to the in-CSR
    arrays for graphs built without the canonical edge list (e.g. a
    dialled worker's PAYLOAD reconstruction, which ships only the
    in-CSR).
    """
    cached = getattr(graph, "_digest", None)
    if cached is not None:
        return cached
    digest = hashlib.blake2b(digest_size=DIGEST_SIZE)
    digest.update(f"graph:{graph.num_nodes}:{graph.num_edges};".encode())
    sources = getattr(graph, "edge_sources", None)
    targets = getattr(graph, "edge_targets", None)
    if sources is not None and targets is not None:
        digest.update(np.ascontiguousarray(sources).tobytes())
        digest.update(np.ascontiguousarray(targets).tobytes())
    else:  # pragma: no cover - payload-rebuilt graphs never reach the cache
        digest.update(np.ascontiguousarray(graph.in_indptr).tobytes())
        digest.update(np.ascontiguousarray(graph.in_sources).tobytes())
        digest.update(np.ascontiguousarray(graph.in_edge_ids).tobytes())
    graph._digest = digest.hexdigest()
    return graph._digest
