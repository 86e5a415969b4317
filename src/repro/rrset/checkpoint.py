"""Crash-safe checkpoint/resume for in-flight TIRM allocations.

A long allocation on an LJ-scale graph can run for hours revising each
ad's sample size ``θ_i`` (Algorithms 2–4); losing all of it to a crash
or preemption is what this module prevents.  A checkpoint is the
session's progress snapshot at an iteration boundary — the file is
exactly ``json.dumps(AllocationSession.progress())`` — so it holds only
what cannot be re-derived: the RNG provenance (master ``seed``, the
stream contract's recorded names, ``chunk_size``, per-ad stream
entropies), the per-ad ``θ_i`` targets, the chosen seeds in selection
order, and the marginal-coverage/revenue state.

Everything else is derived, and the restore re-derives it:

* **RR-set members.**  Counter-based addressing makes every RR set a
  pure function of ``(seed, ad, set_index)`` (see
  :class:`~repro.rrset.sampler.StreamPlan`), so
  :meth:`~repro.rrset.sharded.ShardedSamplingEngine.ensure` rebuilds
  the exact shard contents byte-identically on load.
* **Alive sets and coverage counters.**  At a boundary the sets alive
  in ad ``i``'s pool are exactly those in ``[0, θ_i)`` that none of
  ``S_i``'s seeds covers, and each seed's marginal coverage is the
  count ``remove_covered`` returns when the seeds are applied in
  selection order (Algorithm 4's recount).  The restore replays the
  seeds and checks every recount against the recorded
  ``marginal_counts`` — an integrity check on the artifact.
* **Heaps.**  The lazy selector's answers are pure functions of the
  coverage counters, so the session rebuilds them.

The compatibility config also records the sampling ``backend`` name
(``repro.rrset.backends``) and the engine substrate's ``transport``
name (``repro.rrset.sharded``) as provenance, but deliberately does
**not** match on either at resume time: substrates are byte-identical
for the same streams, so a checkpoint written in-process resumes on a
socket fleet (and vice versa) with an unchanged allocation — whatever
``backend`` or ``transport`` value the artifact carries, including
backend names an older build recorded — and only the RNG contract
(``rng``, ``sampler_mode``, ``chunk_size``, seed, stream entropies)
pins the samples.  ``rng`` and ``sampler_mode`` have
one value each in this build (:data:`~repro.rrset.sampler.STREAM_RNG`,
:data:`~repro.rrset.sampler.STREAM_MODE`); they stay in the config and
in the match list so an artifact whose samples came from any other
stream is refused by name instead of resumed onto different sets.

Artifact format (``format_version`` 2)
--------------------------------------

One JSON object, written atomically (temp sibling, ``flush`` +
``fsync``, ``os.replace``): the :func:`build_snapshot` fields —
``format``, ``format_version``, ``config``, ``iterations``,
``lineage``, ``entropies`` and the per-ad lists ``theta``,
``revenue``, ``seed_size_estimate``, ``active``, ``seeds``,
``marginal_nodes``, ``marginal_counts`` — plus the session's
``state`` (``"select"`` at a boundary), ``truncated`` and
``total_seeds``.  Its size does not depend on ``θ``.
"""

from __future__ import annotations

import json
import math
import os

from repro.errors import CheckpointError, ConfigurationError
from repro.rrset.sharded import ShardedSamplingEngine

#: Bump on any incompatible artifact change; loaders refuse unknown
#: versions instead of guessing.
CHECKPOINT_FORMAT_VERSION = 2

#: Config keys that must match exactly between the checkpointed run and
#: the resuming allocator/problem — any drift would silently change the
#: allocation the resumed run converges to.  ``backend`` and
#: ``transport`` are stored but intentionally absent here: neither
#: names anything that changes a sample, so resume under any recorded
#: value is sound (and pinned by tests).
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


def build_snapshot(
    *,
    config: dict,
    engine: ShardedSamplingEngine,
    per_ad: list[dict],
    iterations: int,
    lineage: list[dict],
) -> dict:
    """The checkpoint payload as one JSON-friendly dict — no file.

    This is the single serializer behind both snapshot consumers:
    :meth:`~repro.algorithms.session.AllocationSession.progress` (the
    snapshot a finished service job keeps and ``query-progress``
    returns) and the on-disk artifact, which is such a snapshot taken
    at an iteration boundary.  One serializer means the two views
    cannot drift.

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


def save_checkpoint(path, snapshot: dict) -> None:
    """Write ``snapshot`` (a :func:`build_snapshot` payload, normally
    ``AllocationSession.progress()`` at a boundary) to ``path`` as JSON.

    The write is atomic: a temp sibling is written and pushed to disk,
    then renamed over ``path``.  Without the ``fsync`` a host crash can
    persist the rename before the data and leave an empty artifact.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _is_int(value) -> bool:
    return type(value) is int  # a JSON true/false parses to bool, an int subclass


class TIRMCheckpoint:
    """A loaded checkpoint artifact (see the module docstring for the
    format).  Use :meth:`load`, then :meth:`validate_config` against the
    resuming allocator, then :meth:`restore_engine` on a freshly
    constructed engine."""

    def __init__(self, path: str, snapshot: dict) -> None:
        self.path = path
        config = snapshot.get("config")
        if not isinstance(config, dict):
            self._refuse("has no config record")
        self.config: dict = config
        self.num_ads = config.get("num_ads")
        num_nodes = config.get("num_nodes")
        if not (_is_int(self.num_ads) and _is_int(num_nodes)):
            self._refuse("config must name integer num_ads and num_nodes")
        self.iterations = snapshot.get("iterations")
        if not _is_int(self.iterations) or self.iterations < 0:
            self._refuse(f"bad iteration count {self.iterations!r}")
        if snapshot.get("state", "select") != "select":
            self._refuse(
                f"was taken in state {snapshot['state']!r}, not at an "
                "iteration boundary"
            )
        self.lineage: list[dict] = snapshot.get("lineage", [])
        if not isinstance(self.lineage, list):
            self._refuse(f"has a bad lineage {self.lineage!r:.80}")
        self.entropies = snapshot.get("entropies")
        self.theta = self._per_ad(
            snapshot, "theta", lambda v: _is_int(v) and v >= 0
        )
        self.revenue = self._per_ad(
            snapshot, "revenue",
            lambda v: type(v) in (int, float) and math.isfinite(v),
        )
        self.seed_size_estimate = self._per_ad(
            snapshot, "seed_size_estimate", _is_int
        )
        self.active = self._per_ad(snapshot, "active", lambda v: type(v) is bool)
        self.seeds = self._per_ad(
            snapshot, "seeds",
            lambda v: isinstance(v, list)
            and all(_is_int(u) and 0 <= u < num_nodes for u in v)
            and len(set(v)) == len(v),
        )
        self.marginal_counts = self._per_ad(
            snapshot, "marginal_counts",
            lambda v: isinstance(v, list) and all(_is_int(c) and c >= 0 for c in v),
        )
        if snapshot.get("marginal_nodes") != self.seeds:
            self._refuse("has marginal_nodes that differ from its seeds")
        if list(map(len, self.marginal_counts)) != list(map(len, self.seeds)):
            self._refuse("has marginal_counts that do not match its seeds")

    def _refuse(self, reason: str):
        raise CheckpointError(f"checkpoint {self.path!r} {reason}")

    def _per_ad(self, snapshot: dict, key: str, valid) -> list:
        """``snapshot[key]``, refused unless it is one valid entry per ad."""
        values = snapshot.get(key)
        if not isinstance(values, list) or len(values) != self.num_ads:
            self._refuse(f"needs {key!r} as a list of {self.num_ads} entries")
        for ad, value in enumerate(values):
            if not valid(value):
                self._refuse(f"has a bad {key!r} entry for ad {ad}: {value!r:.80}")
        return values

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
            with open(path, "rb") as handle:
                snapshot = json.loads(handle.read())
        except (OSError, ValueError) as exc:
            # ValueError covers undecodable bytes and malformed JSON —
            # a truncated write or a version-1 zip archive.
            raise CheckpointError(
                f"could not read checkpoint artifact {path!r}: {exc}"
            ) from exc
        if not isinstance(snapshot, dict) or snapshot.get("format") != "tirm-checkpoint":
            raise CheckpointError(f"{path!r} is not a TIRM checkpoint")
        version = snapshot.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint format version {version!r} in {path!r} "
                f"(this build reads version {CHECKPOINT_FORMAT_VERSION})"
            )
        return cls(path, snapshot)

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
        nothing was persisted).  Each ad's seeds are then replayed in
        selection order through ``remove_covered``, which restores the
        alive sets and coverage counters; every recount must equal the
        recorded marginal count, or the artifact is refused.
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
        engine.ensure(dict(enumerate(self.theta)))
        for ad, theta in enumerate(self.theta):
            shard = engine.shard(ad)
            if shard.num_total != theta:
                raise CheckpointError(
                    f"restored shard {ad} holds {shard.num_total} sets, "
                    f"checkpoint recorded {theta}"
                )
            for seed, count in zip(self.seeds[ad], self.marginal_counts[ad]):
                recount = shard.remove_covered(seed)
                if recount != count:
                    self._refuse(
                        f"does not match its samples: ad {ad} seed {seed} "
                        f"covers {recount} re-derived sets, the artifact "
                        f"records {count}"
                    )
