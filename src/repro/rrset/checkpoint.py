"""Crash-safe checkpoint/resume for in-flight TIRM allocations.

A long allocation on an LJ-scale graph can run for hours revising each
ad's sample size ``θ_i`` (Algorithms 2–4); losing all of it to a crash
or preemption is what this module prevents.  A checkpoint is a *small*,
versioned artifact snapshotted at iteration boundaries: it records the
RNG provenance (master ``seed``, the stream contract's recorded names,
``chunk_size``, per-ad stream entropies), the per-ad ``θ_i`` targets,
the chosen seeds in selection order, the marginal-coverage/revenue
state, and the per-shard alive masks — and, crucially, **no RR-set
members**.

Why no members?  Counter-based addressing makes every RR set a pure
function of ``(seed, ad, set_index)`` (see
:class:`~repro.rrset.sampler.StreamPlan`), so
:meth:`~repro.rrset.sharded.ShardedSamplingEngine.ensure` re-derives the
exact shard contents byte-identically on load — the checkpoint only
needs to name the targets.  Heaps are likewise *derived* state: the lazy
selector's answers are pure functions of the coverage counters, so the
restore path rebuilds them instead of persisting them.

The compatibility config also records the *resolved* sampling
``backend`` (``repro.rrset.backends``) and the engine substrate's
``transport`` name (``repro.rrset.sharded``) as provenance, but
deliberately does **not** match on either at resume time: backends and
substrates are byte-identical for the same streams, so a checkpoint
written under the numpy backend in-process resumes under the numba
backend on a socket fleet (and vice versa) with an unchanged allocation
— whatever ``transport`` value the artifact carries — and
only the RNG contract (``rng``, ``sampler_mode``, ``chunk_size``, seed,
stream entropies) pins the samples.  ``rng`` and ``sampler_mode`` have
one value each in this build (:data:`~repro.rrset.sampler.STREAM_RNG`,
:data:`~repro.rrset.sampler.STREAM_MODE`); they stay in the config and
in the match list so an artifact whose samples came from any other
stream is refused by name instead of resumed onto different sets.

Artifact layout (``format_version`` 1)
--------------------------------------

One uncompressed ``.npz`` written atomically (temp file + ``os.replace``):

* ``meta_json`` — version, the allocator/problem compatibility config,
  iteration count, resume lineage, and the per-ad stream entropies;
* ``theta`` / ``revenue`` / ``seed_size_estimate`` / ``active`` — per-ad
  vectors;
* ``seeds_{i}`` — ad ``i``'s chosen seeds in selection order;
* ``marginal_nodes_{i}`` / ``marginal_counts_{i}`` — the Algorithm-4
  marginal-coverage map in insertion order (the order matters: revenue
  re-estimation sums floats in it);
* ``alive_{i}`` — the shard's alive mask, bit-packed.
"""

from __future__ import annotations

import json
import os
import zipfile

import numpy as np

from repro.errors import CheckpointError, ConfigurationError
from repro.rrset.sharded import ShardedSamplingEngine

#: Bump on any incompatible artifact change; loaders refuse unknown
#: versions instead of guessing.
CHECKPOINT_FORMAT_VERSION = 1

#: Config keys that must match exactly between the checkpointed run and
#: the resuming allocator/problem — any drift would silently change the
#: allocation the resumed run converges to.  ``backend`` and
#: ``transport`` are stored but intentionally absent here: both are
#: byte-identical substrates, so cross-backend and cross-substrate
#: resume is sound (and pinned by tests).
_MATCH_KEYS = (
    "algorithm",
    "rng",
    "sampler_mode",
    "select_rule",
    "epsilon",
    "ell",
    "initial_pilot",
    "min_rr_sets_per_ad",
    "max_rr_sets_per_ad",
    "num_ads",
    "num_nodes",
    "num_edges",
    "chunk_size",
)


def _atomic_write(target: str, writer) -> None:
    """Write via ``writer(open file)`` to a temp sibling, then rename."""
    tmp = f"{target}.tmp"
    try:
        with open(tmp, "wb") as handle:
            writer(handle)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def build_snapshot(
    *,
    config: dict,
    engine: ShardedSamplingEngine,
    per_ad: list[dict],
    iterations: int,
    lineage: list[dict],
) -> dict:
    """The checkpoint payload as one JSON-friendly dict — no file.

    This is the single serializer behind both snapshot consumers: the
    on-disk artifact (:func:`save_checkpoint` writes exactly these
    fields, adding only the bulk alive masks) and
    the live progress reports of
    :meth:`~repro.algorithms.session.AllocationSession.progress` (the
    service's ``query-progress`` answers are this dict verbatim).  One
    serializer means the two views cannot drift: a field added here
    shows up in both the artifact and the wire format.

    ``per_ad`` takes one dict per advertiser with keys ``seeds``,
    ``marginal_nodes``, ``marginal_counts``, ``revenue``,
    ``seed_size_estimate`` and ``active`` — insertion order of the
    marginal maps is preserved (revenue re-estimation sums floats in
    it).  Everything is plain ints/floats/lists, so ``json.dumps``
    round-trips the snapshot unchanged.
    """
    h = engine.num_ads
    if len(per_ad) != h:
        raise ValueError(f"got {len(per_ad)} per-ad records for {h} shards")
    snapshot: dict = {
        "format": "tirm-checkpoint",
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": dict(config),
        "iterations": int(iterations),
        "lineage": list(lineage),
        "theta": [int(engine.shard(ad).num_total) for ad in range(h)],
        "revenue": [float(p["revenue"]) for p in per_ad],
        "seed_size_estimate": [int(p["seed_size_estimate"]) for p in per_ad],
        "active": [bool(p["active"]) for p in per_ad],
        "seeds": [[int(v) for v in p["seeds"]] for p in per_ad],
        "marginal_nodes": [
            [int(v) for v in p["marginal_nodes"]] for p in per_ad
        ],
        "marginal_counts": [
            [int(v) for v in p["marginal_counts"]] for p in per_ad
        ],
        "entropies": [engine.stream_entropy(ad) for ad in range(h)],
    }
    return snapshot


def save_checkpoint(
    path,
    *,
    config: dict,
    engine: ShardedSamplingEngine,
    per_ad: list[dict],
    iterations: int,
    lineage: list[dict],
) -> None:
    """Snapshot an in-flight allocation to ``path`` (atomic overwrite).

    ``config`` is the allocator/problem compatibility record (validated
    on resume), ``per_ad`` one dict per advertiser with keys ``seeds``,
    ``marginal_nodes``, ``marginal_counts``, ``revenue``,
    ``seed_size_estimate`` and ``active``, and ``lineage`` the list of
    resume events this run inherited (recorded into
    ``Allocation.provenance`` by the allocator).  The payload fields
    come from :func:`build_snapshot`; this function only adds the bulk
    state a live progress report omits (bit-packed alive masks) and the
    atomic file plumbing.
    """
    path = os.fspath(path)
    h = engine.num_ads
    snapshot = build_snapshot(
        config=config,
        engine=engine,
        per_ad=per_ad,
        iterations=iterations,
        lineage=lineage,
    )
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    meta: dict = {
        key: snapshot[key]
        for key in (
            "format", "format_version", "config", "iterations", "lineage",
            "entropies",
        )
    }
    arrays: dict[str, np.ndarray] = {
        "theta": np.asarray(snapshot["theta"], dtype=np.int64),
        "revenue": np.asarray(snapshot["revenue"], dtype=np.float64),
        "seed_size_estimate": np.asarray(
            snapshot["seed_size_estimate"], dtype=np.int64
        ),
        "active": np.asarray(snapshot["active"], dtype=bool),
    }
    for ad in range(h):
        arrays[f"seeds_{ad}"] = np.asarray(snapshot["seeds"][ad], dtype=np.int64)
        arrays[f"marginal_nodes_{ad}"] = np.asarray(
            snapshot["marginal_nodes"][ad], dtype=np.int64
        )
        arrays[f"marginal_counts_{ad}"] = np.asarray(
            snapshot["marginal_counts"][ad], dtype=np.int64
        )
        arrays[f"alive_{ad}"] = np.packbits(engine.shard(ad).alive_mask())
    arrays["meta_json"] = np.array(json.dumps(meta))
    _atomic_write(path, lambda f: np.savez(f, **arrays))


class TIRMCheckpoint:
    """A loaded checkpoint artifact (see the module docstring for the
    on-disk layout).  Use :meth:`load`, then :meth:`validate_config`
    against the resuming allocator, then :meth:`restore_engine` on a
    freshly constructed engine."""

    def __init__(self, path: str, meta: dict, arrays: dict) -> None:
        self.path = path
        self.config: dict = meta["config"]
        self.iterations: int = int(meta["iterations"])
        self.lineage: list[dict] = list(meta.get("lineage", []))
        self.entropies = meta.get("entropies")
        self.num_ads: int = int(self.config["num_ads"])
        self.theta = arrays["theta"]
        self.revenue = arrays["revenue"]
        self.seed_size_estimate = arrays["seed_size_estimate"]
        self.active = arrays["active"]
        self._arrays = arrays

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path) -> "TIRMCheckpoint":
        """Load and structurally validate a checkpoint artifact."""
        path = os.fspath(path)
        if not os.path.exists(path):
            raise CheckpointError(f"no checkpoint artifact at {path!r}")
        try:
            # BadZipFile subclasses Exception directly (not OSError), so
            # it must be named: a truncated artifact raises it.
            with np.load(path, allow_pickle=False) as data:
                arrays = {name: data[name] for name in data.files}
        except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            raise CheckpointError(
                f"could not read checkpoint artifact {path!r}: {exc}"
            ) from exc
        if "meta_json" not in arrays:
            raise CheckpointError(
                f"{path!r} is not a TIRM checkpoint (no meta_json entry)"
            )
        try:
            meta = json.loads(str(arrays["meta_json"][()]))
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"corrupt checkpoint metadata in {path!r}") from exc
        if meta.get("format") != "tirm-checkpoint":
            raise CheckpointError(f"{path!r} is not a TIRM checkpoint")
        version = meta.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint format version {version!r} in {path!r} "
                f"(this build reads version {CHECKPOINT_FORMAT_VERSION})"
            )
        checkpoint = cls(path, meta, arrays)
        required = ["theta", "revenue", "seed_size_estimate", "active"]
        for ad in range(checkpoint.num_ads):
            required += [f"seeds_{ad}", f"marginal_nodes_{ad}",
                         f"marginal_counts_{ad}", f"alive_{ad}"]
        missing = [name for name in required if name not in arrays]
        if missing:
            raise CheckpointError(
                f"checkpoint {path!r} is missing entries: {missing}"
            )
        return checkpoint

    # ------------------------------------------------------------------
    # Per-ad accessors
    # ------------------------------------------------------------------
    def seeds_in_order(self, ad: int) -> list[int]:
        """Ad ``ad``'s chosen seeds in selection order."""
        return [int(v) for v in self._arrays[f"seeds_{ad}"]]

    def marginal_coverage(self, ad: int) -> dict[int, int]:
        """The Algorithm-4 marginal-coverage map, in insertion order."""
        return {
            int(node): int(count)
            for node, count in zip(
                self._arrays[f"marginal_nodes_{ad}"],
                self._arrays[f"marginal_counts_{ad}"],
            )
        }

    def alive_mask(self, ad: int) -> np.ndarray:
        """The shard's snapshotted alive mask, unpacked."""
        theta = int(self.theta[ad])
        return np.unpackbits(self._arrays[f"alive_{ad}"], count=theta).astype(bool)

    # ------------------------------------------------------------------
    # Validation and restore
    # ------------------------------------------------------------------
    def validate_config(self, config: dict) -> None:
        """Refuse to resume into an incompatible allocator/problem.

        Every key in ``_MATCH_KEYS`` must match exactly, and when both
        runs name an integer master ``seed`` the seeds must agree.
        """
        mismatches = [
            f"{key}: checkpoint={self.config.get(key)!r} vs run={config.get(key)!r}"
            for key in _MATCH_KEYS
            if self.config.get(key) != config.get(key)
        ]
        old_seed, new_seed = self.config.get("seed"), config.get("seed")
        if old_seed is not None and new_seed is not None and old_seed != new_seed:
            mismatches.append(f"seed: checkpoint={old_seed!r} vs run={new_seed!r}")
        if mismatches:
            raise ConfigurationError(
                "checkpoint is incompatible with this run: "
                + "; ".join(mismatches)
            )

    def restore_engine(self, engine: ShardedSamplingEngine) -> None:
        """Rebuild the snapshot's shards inside a *fresh* engine.

        The members are re-derived byte-identically from the
        counter-based streams (``engine.ensure`` to each ``θ_i`` —
        nothing was persisted).  The snapshot's alive masks are then
        re-applied, which also restores the coverage counters exactly.
        """
        if engine.num_ads != self.num_ads:
            raise ConfigurationError(
                f"engine has {engine.num_ads} shards, checkpoint {self.num_ads}"
            )
        if engine.total_sets():
            raise CheckpointError(
                "restore_engine needs a freshly constructed engine "
                f"(found {engine.total_sets()} existing sets)"
            )
        # An artifact with no (or too few) entropies was not sampled from
        # these streams; it mismatches like any other foreign root.
        roots = [engine.stream_entropy(ad) for ad in range(self.num_ads)]
        if list(self.entropies or ()) != roots:
            raise ConfigurationError(
                "engine stream entropies do not match the checkpoint; "
                "construct the engine from the checkpoint's entropies"
            )
        engine.ensure({ad: int(self.theta[ad]) for ad in range(self.num_ads)})
        for ad in range(self.num_ads):
            shard = engine.shard(ad)
            theta = int(self.theta[ad])
            if shard.num_total != theta:
                raise CheckpointError(
                    f"restored shard {ad} holds {shard.num_total} sets, "
                    f"checkpoint recorded {theta}"
                )
            shard.kill_sets(np.flatnonzero(~self.alive_mask(ad)))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(path={self.path!r}, "
            f"iterations={self.iterations}, rng={self.config.get('rng')!r}, "
            f"num_ads={self.num_ads})"
        )
