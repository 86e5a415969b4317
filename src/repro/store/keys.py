"""Shard-cache key schema: what addresses a cached RR-set block.

A cached block must be reusable by *any* run that would compute the
same bytes, and by no other.  The key therefore digests exactly the
inputs the block bytes are a pure function of — and deliberately
excludes everything the determinism contract says is byte-identical
substrate (engine, worker count, backend, how workers start and how
blocks travel home): those are provenance, recorded in the catalog, never part of
the address (the provenance-not-contract rule of
``docs/architecture.md``).

``sample_chunk_block`` is a pure function of
``(entropy, ad, chunk_size, chunk_index)`` given the graph and the ad's
edge probabilities.  The key digests
``(graph_digest, probs_digest, entropy, ad, chunk_size)`` under the
stream contract's names; the chunk index addresses entries *within* the
key's directory.
"""

from __future__ import annotations

import hashlib

from repro.rrset.sampler import STREAM_MODE, STREAM_RNG

#: blake2b key width (bytes): 16 matches the dsan / content digests.
KEY_DIGEST_SIZE = 16


def philox_shard_key(
    *, graph_hash: str, probs_hash: str, entropy: int, ad: int, chunk_size: int,
) -> str:
    """Content address of one ad's chunk stream.

    The stream contract's names frame the digested text, so changing a
    byte of either re-addresses — i.e. cold-starts — every cache
    directory ever written (``tests/store/test_keys.py`` pins a literal
    key).
    """
    text = (
        f"{STREAM_RNG}|graph={graph_hash}|probs={probs_hash}"
        f"|entropy={int(entropy)}|ad={int(ad)}|chunk_size={int(chunk_size)}"
        f"|mode={STREAM_MODE}"
    )
    return hashlib.blake2b(text.encode(), digest_size=KEY_DIGEST_SIZE).hexdigest()
