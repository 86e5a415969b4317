"""RRC-sets: RR-sets with click-through probabilities baked in (§5.2).

§5.2 builds an RRC-set with the RR-set's reverse BFS plus one extra,
independent coin per reached node: ``v`` enters the RRC-set only if its
CTP coin (probability ``δ(v)``) succeeds, and the traversal continues
through ``v`` either way — ``v``'s in-neighbors can still be valid seeds
that activate ``v`` en route to the root.  Since the coin never steers
the traversal, an RRC-set has exactly the law of its RR-set *thinned* by
one ``δ(v)`` coin per member, and that is how they are drawn here: the
engine's RR-sets, each member kept with probability ``δ(v)`` (:func:`thin`).

The coins of chunk ``c`` come from a child of that chunk's seed
sequence, ``plan.seed_sequence(c).spawn(1)[0]`` — a stream no RR chunk
draws from — one coin per member in order.  So an RRC-set is a pure
function of ``(seed, ad, set_index)``, like the RR-set under it, and a
shorter sample is a prefix of a longer one.

By Lemma 2, ``n · F_Q(S)`` is an unbiased estimator of the IC-CTP spread;
by Theorem 5, CTP-weighting marginal coverages of plain RR-sets gives the
same expectation while needing roughly two orders of magnitude fewer
samples (CTPs are 1–3%), which is why TIRM uses plain RR-sets.  RRC-sets
are kept for the Theorem-5 equivalence tests, the RRC spread oracle and
the AB1 ablation bench.
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import DirectedGraph
from repro.rrset.pool import RRSetPool
from repro.rrset.sharded import ShardedSamplingEngine
from repro.utils.validation import check_probability_array


def thin(
    members: np.ndarray, lengths: np.ndarray, ctps: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Keep each member ``v`` of a packed ``(members, lengths)`` block
    with probability ``ctps[v]``: one ``rng.random`` coin per member, in
    order.  Returns the thinned block; sets may come out empty.

    Examples
    --------
    With ``δ ≡ 1`` every member survives; with ``δ ≡ 0`` every set is
    emptied but still counted::

        >>> import numpy as np
        >>> from repro.rrset.rrc import thin
        >>> members, lengths = np.array([3, 0, 1, 2]), np.array([1, 3])
        >>> rng = np.random.default_rng(0)
        >>> kept, sizes = thin(members, lengths, np.ones(4), rng)
        >>> kept.tolist(), sizes.tolist()
        ([3, 0, 1, 2], [1, 3])
        >>> kept, sizes = thin(members, lengths, np.zeros(4), rng)
        >>> kept.tolist(), sizes.tolist()
        ([], [0, 0])
    """
    keep = rng.random(members.size) < ctps[members]
    owners = np.repeat(np.arange(lengths.size), lengths)
    return members[keep], np.bincount(owners[keep], minlength=lengths.size)


def thin_shard(
    engine: ShardedSamplingEngine, ad: int, ctps: np.ndarray
) -> RRSetPool:
    """The ad's shard as RRC-sets: every chunk's rows thinned by the
    coins of that chunk's child stream, into a new pool."""
    shard, plan = engine.shard(ad), engine.plan(ad)
    pool = RRSetPool(shard.num_nodes)
    for chunk, lo, hi in plan.chunk_tasks(0, shard.num_total):
        first = chunk * plan.chunk_size
        coins = np.random.Generator(
            np.random.Philox(plan.seed_sequence(chunk).spawn(1)[0])
        )
        members, lengths = shard.resident_rows(first + lo, first + hi)
        pool.add_flat(*thin(members, lengths, ctps, coins))
    return pool


def sample_rrc_sets(
    graph: DirectedGraph,
    edge_probabilities,
    ctps,
    count: int,
    *,
    seed=None,
) -> RRSetPool:
    """``count`` independent RRC-sets, as a pool: a serial engine's
    first ``count`` RR-sets under ``seed``, thinned (:func:`thin_shard`).
    RRC-sets may be empty; empty sets still count toward the pool's
    ``num_total`` (the ``F_Q`` denominator)."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    probs = check_probability_array("edge_probabilities", edge_probabilities)
    delta = check_probability_array("ctps", ctps)
    if probs.shape != (graph.num_edges,):
        raise ValueError(f"edge_probabilities must have shape ({graph.num_edges},)")
    if delta.shape != (graph.num_nodes,):
        raise ValueError(f"ctps must have shape ({graph.num_nodes},)")
    with ShardedSamplingEngine(graph, [probs], seeds=seed) as engine:
        engine.ensure({0: count})
        return thin_shard(engine, 0, delta)
