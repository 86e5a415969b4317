"""Seed-set allocations ``S = (S_1, ..., S_h)`` and their validity.

An allocation is *valid* (§3) when no user appears in more than ``κ_u``
seed sets.  Seed sets are stored as Python sets during construction (the
greedy algorithms mutate them seed-by-seed) with array views for the
vectorised evaluators, beside a per-ad membership mask and per-user
assignment counts that the compiled TIRM selector reads in place.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.advertising.attention import AttentionBounds
from repro.errors import AllocationError


class Allocation:
    """A mutable assignment of seed sets to ``h`` ads over ``n`` users."""

    __slots__ = (
        "num_nodes", "_seed_sets", "_seed_masks", "_user_counts", "_provenance"
    )

    def __init__(self, num_ads: int, num_nodes: int) -> None:
        if num_ads < 1:
            raise AllocationError("an allocation needs at least one ad")
        if num_nodes < 0:
            raise AllocationError("num_nodes must be >= 0")
        self.num_nodes = int(num_nodes)
        self._seed_sets: list[set[int]] = [set() for _ in range(num_ads)]
        self._seed_masks = np.zeros((num_ads, num_nodes), dtype=np.uint8)
        self._user_counts = np.zeros(num_nodes, dtype=np.int64)
        self._provenance: dict | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_seed_sets(
        cls,
        seed_sets: Sequence[Iterable[int]],
        num_nodes: int,
        *,
        bounds: AttentionBounds | None = None,
    ) -> "Allocation":
        """Build an allocation from explicit per-ad seed iterables.

        When ``bounds`` is given, the result is validated against the §3
        attention constraint: a deserialized allocation in which some
        user exceeds ``κ_u`` raises :class:`AllocationError` instead of
        silently entering the system as an invalid assignment.
        """
        allocation = cls(len(seed_sets), num_nodes)
        for ad, seeds in enumerate(seed_sets):
            for user in seeds:
                allocation.assign(int(user), ad)
        if bounds is not None and not allocation.is_valid(bounds):
            violators = allocation.violations(bounds).tolist()
            raise AllocationError(
                f"allocation violates attention bounds for users {violators}"
            )
        return allocation

    def assign(self, user: int, ad: int) -> None:
        """Add ``user`` to ad ``ad``'s seed set.

        Raises
        ------
        AllocationError
            If the user id is out of range or already assigned to the ad.
        """
        if not 0 <= user < self.num_nodes:
            raise AllocationError(f"user {user} out of range [0, {self.num_nodes})")
        seeds = self._seed_sets[ad]
        if user in seeds:
            raise AllocationError(f"user {user} is already a seed for ad {ad}")
        seeds.add(user)
        self._seed_masks[ad, user] = 1
        self._user_counts[user] += 1

    def unassign(self, user: int, ad: int) -> None:
        """Remove ``user`` from ad ``ad``'s seed set."""
        seeds = self._seed_sets[ad]
        if user not in seeds:
            raise AllocationError(f"user {user} is not a seed for ad {ad}")
        seeds.remove(user)
        self._seed_masks[ad, user] = 0
        self._user_counts[user] -= 1

    # ------------------------------------------------------------------
    # Provenance
    # ------------------------------------------------------------------
    def set_provenance(self, **info) -> None:
        """Record how this allocation was produced.

        Allocators attach their reproducibility contract here — e.g.
        TIRM records the RNG architecture (``rng``, ``chunk_size``,
        ``stream_entropy``) so the exact RR samples behind the seed sets
        can be re-derived later.  Repeated calls merge keys.  Provenance
        is metadata: it does not participate in equality.
        """
        if self._provenance is None:
            self._provenance = {}
        self._provenance.update(info)

    @property
    def provenance(self) -> dict | None:
        """The recorded production metadata, or ``None``."""
        return self._provenance

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_ads(self) -> int:
        """Number of ads ``h``."""
        return len(self._seed_sets)

    def seeds(self, ad: int) -> frozenset[int]:
        """The seed set ``S_i`` (as an immutable snapshot)."""
        return frozenset(self._seed_sets[ad])

    def seed_array(self, ad: int) -> np.ndarray:
        """``S_i`` as a sorted int64 array (for the vectorised simulators)."""
        return np.fromiter(sorted(self._seed_sets[ad]), dtype=np.int64)

    def seed_counts(self) -> np.ndarray:
        """``|S_i|`` for every ad."""
        return np.asarray([len(s) for s in self._seed_sets], dtype=np.int64)

    def user_assignment_counts(self) -> np.ndarray:
        """How many ads each user is a seed for (length ``n``)."""
        return self._user_counts.copy()

    def live_views(self, ad: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only views that follow every later ``assign`` /
        ``unassign``: ad ``ad``'s ``uint8`` membership mask (1 iff the
        user is its seed) and the ``int64`` per-user assignment counts,
        both C-contiguous of length ``n``."""
        views = (self._seed_masks[ad].view(), self._user_counts.view())
        for view in views:
            view.flags.writeable = False
        return views

    def ads_of_user(self, user: int) -> list[int]:
        """The ads that directly target ``user``."""
        return [ad for ad, seeds in enumerate(self._seed_sets) if user in seeds]

    def targeted_users(self) -> frozenset[int]:
        """Users targeted at least once — the Table-3 metric."""
        return frozenset(int(u) for u in np.flatnonzero(self._user_counts > 0))

    def total_seeds(self) -> int:
        """``Σ_i |S_i|`` (counts a user once per ad that targets it)."""
        return int(self.seed_counts().sum())

    def is_valid(self, bounds: AttentionBounds) -> bool:
        """True iff no user exceeds its attention bound ``κ_u``."""
        if bounds.num_nodes != self.num_nodes:
            raise AllocationError(
                f"bounds cover {bounds.num_nodes} users, allocation has {self.num_nodes}"
            )
        return bool(np.all(self._user_counts <= bounds.kappa))

    def violations(self, bounds: AttentionBounds) -> np.ndarray:
        """Ids of users whose attention bound is exceeded."""
        return np.flatnonzero(self._user_counts > bounds.kappa)

    def can_assign(self, user: int, ad: int, bounds: AttentionBounds) -> bool:
        """True iff ``user`` can still take ad ``ad`` without violating
        ``κ_u`` (and is not already a seed for it)."""
        return (
            user not in self._seed_sets[ad]
            and self._user_counts[user] < bounds.kappa[user]
        )

    # ------------------------------------------------------------------
    def copy(self) -> "Allocation":
        """Deep copy (provenance included)."""
        clone = Allocation(self.num_ads, self.num_nodes)
        for ad, seeds in enumerate(self._seed_sets):
            for user in seeds:
                clone.assign(user, ad)
        if self._provenance is not None:
            clone._provenance = dict(self._provenance)
        return clone

    def __iter__(self) -> Iterator[frozenset[int]]:
        return (frozenset(s) for s in self._seed_sets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Allocation):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and self._seed_sets == other._seed_sets
        )

    def __repr__(self) -> str:
        sizes = ", ".join(str(len(s)) for s in self._seed_sets)
        return f"Allocation(h={self.num_ads}, n={self.num_nodes}, sizes=[{sizes}])"
