"""Reverse-reachable-set machinery (§5.1–5.2).

* :mod:`repro.rrset.sampler` — random RR-sets (reverse BFS with lazy edge
  coins) for a fixed ad's Eq.-(1) probabilities, addressed by
  ``(seed, ad, set_index)``: the chunk kernel every sample in this
  package comes out of, always through a sharded engine;
* :mod:`repro.rrset.backends` — pluggable blocked-BFS backends behind
  one shared RNG-owning driver: ``numpy`` (reference), ``numba`` (JIT
  kernel, optional extra), ``auto`` — byte-identical by construction,
  selected via ``backend=`` on the sampler/engine/allocator or the CLI
  ``--backend``;
* :mod:`repro.rrset.rrc` — RRC-sets (§5.2): the engine's RR-sets thinned
  by one CTP coin per member, drawn from a child of each chunk's stream;
* :mod:`repro.rrset.pool` — the flat CSR storage engine: contiguous
  int32 member buffers, a bulk-built inverted index, and vectorized
  coverage/removal kernels (see ``docs/rrset_engine.md``);
* :mod:`repro.rrset.block` — the one encoding of a chunk block, the
  ``.blk`` entry a cache file holds and a RESULT frame carries:
  ``pack``, ``parse`` (every check) and the ``Block`` every arrival
  becomes;
* :mod:`repro.rrset.sharded` — the per-advertiser sharded sampling
  engine: one pool shard per ad, requests decomposed into counter-based
  ``(ad, chunk)`` stream tasks served serially or by a worker fleet
  (byte-identical for the same ``(seed, chunk_size)``, any worker
  count);
* :mod:`repro.rrset.dsan` — the runtime determinism sanitizer: blake2
  digests per ``(ad, chunk)`` block spliced by the sharded engine
  (``dsan=True`` / ``REPRO_DSAN=1``), with
  :func:`~repro.rrset.dsan.compare_digests` raising
  :class:`~repro.errors.DeterminismError` at the first divergent chunk;
* :mod:`repro.rrset.checkpoint` — crash-safe checkpoint/resume for
  in-flight TIRM allocations: a small versioned artifact that re-derives
  RR members from the counter-based streams on load;
* :mod:`repro.rrset.tim` — the TIM ingredients: ``L(s, ε)`` (Eq. 5), OPT
  lower-bound estimation, greedy max-cover, and a standalone TIM
  influence maximizer;
* :mod:`repro.rrset.estimator` — spread estimation ``n · F_R(S)``
  (Proposition 1 / Lemma 2).
"""

from repro.rrset.backends import (
    BACKEND_MODES,
    NumbaBackend,
    NumpyBackend,
    SamplingBackend,
    available_backends,
    numba_available,
    resolve_backend,
)
from repro.rrset.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    TIRMCheckpoint,
    save_checkpoint,
)
from repro.rrset.dsan import DsanRecorder, compare_digests, dsan_enabled
from repro.rrset.estimator import RRSetSpreadOracle, estimate_spread_from_sets
from repro.rrset.pool import CSRSetView, RRSetPool
from repro.rrset.rrc import sample_rrc_sets, thin
from repro.rrset.sampler import RRSetSampler, StreamPlan
from repro.rrset.sharded import ShardedSamplingEngine
from repro.rrset.tim import (
    TIMInfluenceMaximizer,
    greedy_max_coverage,
    log_binomial,
    required_rr_sets,
)

__all__ = [
    "RRSetSampler",
    "StreamPlan",
    "SamplingBackend",
    "NumpyBackend",
    "NumbaBackend",
    "BACKEND_MODES",
    "available_backends",
    "numba_available",
    "resolve_backend",
    "sample_rrc_sets",
    "thin",
    "RRSetPool",
    "CSRSetView",
    "ShardedSamplingEngine",
    "DsanRecorder",
    "compare_digests",
    "dsan_enabled",
    "TIRMCheckpoint",
    "save_checkpoint",
    "CHECKPOINT_FORMAT_VERSION",
    "estimate_spread_from_sets",
    "RRSetSpreadOracle",
    "required_rr_sets",
    "log_binomial",
    "greedy_max_coverage",
    "TIMInfluenceMaximizer",
]
