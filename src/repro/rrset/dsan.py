"""DSan — the runtime determinism sanitizer.

The static linter (:mod:`repro.analysis`) keeps nondeterminism *out of
the source*; DSan checks the contract *at runtime*: while the sharded
engine samples, a :class:`DsanRecorder` keeps a blake2 running digest
per ``(ad, chunk)`` over the bytes each chunk contributes to the pool —
the packed ``(lengths, members)`` block, which is itself a deterministic
function of every RNG draw the chunk consumed.  Two runs the contract
requires to be byte-identical (serial vs process vs dist, any worker
count, numpy vs numba, prefetched or not) must therefore produce *equal
digest maps*; when they do not, :func:`compare_digests` (or an ``expected=``
recorder checking inline) raises
:class:`~repro.errors.DeterminismError` naming the **first divergent
chunk** — turning a whole-pool equality failure into a pinpoint
diagnostic of one stream address.

Enablement: ``ShardedSamplingEngine(dsan=True)`` /
``TIRMAllocator(dsan=True)`` / CLI ``--dsan``, or the ``REPRO_DSAN=1``
environment variable (consulted when the knob is left at ``None``).
Recording never draws from any stream, so a sanitized run is
byte-identical to an unsanitized one — the digests are pure observation.

Chunk keys are stream addresses ``(ad, chunk_index)``, so digests are
comparable across *any* execution plan reaching the same targets.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from repro.errors import DeterminismError

#: blake2b digest width (bytes): 16 is plenty for corruption detection
#: and keeps digest maps cheap to store in stats/provenance.
DIGEST_SIZE = 16

#: Environment variable consulted when the ``dsan`` knob is ``None``.
ENV_VAR = "REPRO_DSAN"

_TRUTHY = {"1", "true", "yes", "on"}


def dsan_enabled(flag: bool | None = None) -> bool:
    """Resolve a tri-state ``dsan`` knob: explicit ``True``/``False``
    wins; ``None`` defers to the ``REPRO_DSAN`` environment variable."""
    if flag is not None:
        return bool(flag)
    return os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY


def digest_block(members: np.ndarray, lengths: np.ndarray) -> str:
    """The chunk digest: blake2b over the packed block's bytes.

    The layout is the packed block's — ``int64`` lengths, then
    ``int32`` members, exactly what a RESULT frame and a cache entry
    carry — so the digest is substrate-independent by construction.
    The contiguous arrays' buffers are hashed in place, never copied.
    """
    digest = hashlib.blake2b(digest_size=DIGEST_SIZE)
    digest.update(np.ascontiguousarray(lengths, dtype=np.int64))
    digest.update(np.ascontiguousarray(members, dtype=np.int32))
    return digest.hexdigest()


class DsanRecorder:
    """Per-engine digest ledger, keyed by ``(ad, chunk)``.

    Parameters
    ----------
    expected:
        Optional reference digest map (a prior run's :attr:`digests`).
        When given, every recorded chunk is checked inline and a
        mismatch raises immediately — the sampling call that spliced the
        divergent chunk gets the traceback, not some later consumer of
        the corrupted pool.
    label:
        Name for this run in error messages (e.g. ``"process"``).
    """

    def __init__(self, *, expected: dict | None = None, label: str = "run") -> None:
        self.digests: dict[tuple[int, int], str] = {}
        self.expected = dict(expected) if expected is not None else None
        self.label = label

    def record(self, ad: int, chunk: int, members, lengths,
               digest: str | None = None) -> str:
        """Digest one full chunk block and check it against the ledger.

        ``digest`` is the block's digest when its arrival already
        verified one over these very arrays (a cache entry's stored
        digest, a RESULT frame's stamp); the block is hashed only
        without it.  Returns the recorded digest.

        Raises
        ------
        DeterminismError
            If this engine already recorded a *different* digest for the
            same key (a chunk recomputed differently within one run —
            an impure sampler), or if ``expected`` disagrees.
        """
        key = (int(ad), int(chunk))
        if digest is None:
            digest = digest_block(members, lengths)
        previous = self.digests.get(key)
        if previous is not None and previous != digest:
            raise DeterminismError(
                f"dsan: chunk (ad={key[0]}, chunk={key[1]}) recomputed with a "
                f"different digest within one engine ({previous} -> {digest}) "
                f"— the sampler is not a pure function of the stream address",
                ad=key[0],
                chunk=key[1],
            )
        self.digests[key] = digest
        if self.expected is not None:
            reference = self.expected.get(key)
            if reference is not None and reference != digest:
                raise DeterminismError(
                    f"dsan: first divergent chunk (ad={key[0]}, "
                    f"chunk={key[1]}): {self.label} digest {digest} != "
                    f"expected {reference}",
                    ad=key[0],
                    chunk=key[1],
                )
        return digest

    def root_digest(self) -> str:
        """One digest over the whole ledger (sorted by key): the compact
        stats/provenance fingerprint of every RR byte this engine spliced."""
        digest = hashlib.blake2b(digest_size=DIGEST_SIZE)
        for (ad, chunk), value in sorted(self.digests.items()):
            digest.update(f"{ad}:{chunk}:{value};".encode())
        return digest.hexdigest()

    def __len__(self) -> int:
        return len(self.digests)

    def __repr__(self) -> str:
        return (
            f"DsanRecorder(label={self.label!r}, chunks={len(self.digests)}, "
            f"root={self.root_digest()})"
        )


def compare_digests(
    reference: dict, other: dict, *,
    reference_label: str = "reference", other_label: str = "other",
) -> None:
    """Assert two digest maps describe byte-identical sampling runs.

    Walks the union of keys in sorted ``(ad, chunk)`` order and raises
    :class:`~repro.errors.DeterminismError` at the **first** key where
    the maps disagree — a differing digest, or a chunk recorded by only
    one run.  Returns ``None`` when the maps match exactly.
    """
    for key in sorted(set(reference) | set(other)):
        ad, chunk = key
        left, right = reference.get(key), other.get(key)
        if left == right:
            continue
        if left is None or right is None:
            missing, present = (
                (reference_label, other_label) if left is None
                else (other_label, reference_label)
            )
            raise DeterminismError(
                f"dsan: chunk (ad={ad}, chunk={chunk}) was sampled by "
                f"{present} but never by {missing} — the runs did not reach "
                f"the same targets",
                ad=ad,
                chunk=chunk,
            )
        raise DeterminismError(
            f"dsan: first divergent chunk (ad={ad}, chunk={chunk}): "
            f"{reference_label} digest {left} != {other_label} digest {right}",
            ad=ad,
            chunk=chunk,
        )
