"""Policies assigning each vocabulary word one of K recurrence-tensor slices.

Words are addressed by unigram frequency rank (1 = most frequent). Internal
slice indices are 0-based, so the rank-threshold policy `f` returns
min(rank, K) - 1, the modulus policy `fmod` returns rank mod K and
`identity` (K = V) returns rank - 1; all land in [0, K). `POLICIES` is the
one table from a policy's name to its rank-to-slice rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

POLICIES = {
    "f": lambda rank, k: np.minimum(rank, k) - 1,
    "fmod": lambda rank, k: rank % k,
    "identity": lambda rank, k: rank - 1,
}
POLICY_NAMES = tuple(POLICIES)


@dataclass(frozen=True)
class MappingPolicy:
    name: str  # a key of POLICIES
    k: int

    def __post_init__(self):
        if self.name not in POLICIES:
            raise ValueError(f"unknown policy name {self.name!r}; expected one of {POLICY_NAMES}")
        if self.k < 1:
            raise ValueError("slice count K must be at least 1")

    def validate_for(self, v: int) -> None:
        if self.k > v:
            raise ValueError(f"K={self.k} exceeds vocabulary size {v}")
        if self.name == "identity" and self.k != v:
            raise ValueError("identity mapping requires K = V")

    def slices(self, rank):
        """Slice of each rank (>= 1); an int for a scalar rank."""
        rank = np.asarray(rank, dtype=np.int64)
        if np.any(rank < 1):
            raise ValueError("rank must be at least 1")
        out = POLICIES[self.name](rank, self.k)
        return int(out) if out.ndim == 0 else out


def slice_assignments(v: int, policy: MappingPolicy) -> np.ndarray:
    """Per-word slice index, indexed by token id.

    Token ids are assigned in rank order (id = rank - 1), so the assignment
    for id i is the policy applied to rank i + 1.
    """
    policy.validate_for(v)
    return policy.slices(np.arange(1, v + 1))


def slice_histogram(vocab, policy: MappingPolicy) -> np.ndarray:
    """Number of words mapped to each slice; accepts a Vocabulary or an int V."""
    v = getattr(vocab, "size", vocab)
    return np.bincount(slice_assignments(int(v), policy), minlength=policy.k)
