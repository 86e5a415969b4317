"""Key schema: content addresses are stable, collision-free across the
fields they digest, and insensitive to substrate knobs by construction
(the function simply takes no substrate parameters)."""

from __future__ import annotations

from repro.store.keys import philox_shard_key


def _philox(**overrides):
    base = dict(
        graph_hash="g" * 32, probs_hash="p" * 32, entropy=12345, ad=0,
        chunk_size=1024,
    )
    base.update(overrides)
    return philox_shard_key(**base)


def test_philox_key_is_deterministic():
    assert _philox() == _philox()
    assert len(_philox()) == 32  # 16-byte blake2b hexdigest


def test_philox_key_varies_with_every_field():
    base = _philox()
    assert _philox(graph_hash="h" * 32) != base
    assert _philox(probs_hash="q" * 32) != base
    assert _philox(entropy=12346) != base
    assert _philox(ad=1) != base
    assert _philox(chunk_size=512) != base


def test_philox_key_is_pinned_across_versions():
    """The key is an on-disk address: every cache directory already
    written is keyed by exactly this digest of exactly this text, so a
    change here — a reworded field, a dropped constant — silently
    cold-starts all of them.  The literal is the address existing
    caches hold for these inputs."""
    assert philox_shard_key(
        graph_hash="g" * 32, probs_hash="p" * 32,
        entropy=12345678901234567890, ad=3, chunk_size=1024,
    ) == "ca90d1a09dc9bcd96eaa99a9d9946560"
