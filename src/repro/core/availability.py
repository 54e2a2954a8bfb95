"""Availability calculus and the scalable-availability policy.

The motivating arithmetic of the paper: a bucket is available with
probability p, so a plain LH* file of M buckets is fully available with
probability p^M — 37% already at M=100, p=0.99.  With k parity buckets
per group of m, a group's data survives any ≤ k unavailable members, and
the file availability becomes a product of per-group survival
probabilities.  For fixed k that product still → 0 as M → ∞, hence
*scalable availability*: raise k as the file grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from repro.sim.rng import make_rng


def group_availability(m: int, k: int, p: float) -> float:
    """P(a group's data is servable): ≤ k of its m+k members down.

    ``m`` is the number of *existing* data buckets in the group (the last
    group of a file may be partial).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    n = m + k
    return sum(
        comb(n, f) * (p ** (n - f)) * ((1 - p) ** f) for f in range(k + 1)
    )


def groups_of_file(total_buckets: int, group_size: int) -> list[int]:
    """Sizes of the bucket groups of an M-bucket file (last may be partial)."""
    if total_buckets < 0 or group_size < 1:
        raise ValueError("need total_buckets >= 0 and group_size >= 1")
    full, rest = divmod(total_buckets, group_size)
    return [group_size] * full + ([rest] if rest else [])


def file_availability(
    total_buckets: int,
    group_size: int,
    p: float,
    k: int | None = None,
    k_per_group: list[int] | None = None,
) -> float:
    """P(every record of the file is servable).

    Pass a uniform ``k``, or ``k_per_group`` when groups carry different
    availability levels (scalable availability).  ``k=0`` with one
    giant group reproduces the plain-LH* p^M collapse.
    """
    sizes = groups_of_file(total_buckets, group_size)
    if k_per_group is None:
        if k is None:
            raise ValueError("pass k or k_per_group")
        k_per_group = [k] * len(sizes)
    if len(k_per_group) != len(sizes):
        raise ValueError(
            f"k_per_group has {len(k_per_group)} entries for {len(sizes)} groups"
        )
    out = 1.0
    for size, level in zip(sizes, k_per_group):
        out *= group_availability(size, level, p)
    return out


def monte_carlo_file_availability(
    total_buckets: int,
    group_size: int,
    p: float,
    k: int,
    trials: int = 10_000,
    seed: int | None = None,
) -> float:
    """Estimate :func:`file_availability` by sampling node failures.

    Used as the cross-check in experiment E5 (DESIGN.md invariant 6).
    """
    rng = make_rng(seed)
    sizes = groups_of_file(total_buckets, group_size)
    survived = 0
    for _ in range(trials):
        ok = True
        for size in sizes:
            failures = int(np.count_nonzero(rng.random(size + k) >= p))
            if failures > k:
                ok = False
                break
        survived += ok
    return survived / trials


@dataclass(frozen=True)
class AvailabilityPolicy:
    """How the availability level k scales with the file's group count.

    The level for a file of G groups is::

        k = base_level + #{ t : G >= first_threshold * growth**t, t >= 0 }

    capped at ``max_level``.  ``fixed(k)`` never scales.  Each time the
    level rises, newly created groups are born at the higher k, and each
    existing group is retrofitted at the next split of one of its buckets.
    """

    base_level: int = 1
    first_threshold: int | None = None
    growth: int = 8
    max_level: int = 4

    def __post_init__(self) -> None:
        if self.base_level < 0:
            raise ValueError("base_level cannot be negative")
        if self.first_threshold is not None and self.first_threshold < 1:
            raise ValueError("first_threshold must be >= 1")
        if self.growth < 2:
            raise ValueError("growth must be >= 2")
        if self.max_level < self.base_level:
            raise ValueError("max_level below base_level")

    @classmethod
    def fixed(cls, k: int) -> "AvailabilityPolicy":
        """Uncontrolled availability: k never changes."""
        return cls(base_level=k, first_threshold=None, max_level=k)

    @classmethod
    def scalable(
        cls, base_level: int = 1, first_threshold: int = 8,
        growth: int = 8, max_level: int = 4,
    ) -> "AvailabilityPolicy":
        """Scalable availability: +1 level at G = T, T*g, T*g^2, ..."""
        return cls(
            base_level=base_level,
            first_threshold=first_threshold,
            growth=growth,
            max_level=max_level,
        )

    def level_for(self, group_count: int) -> int:
        """Availability level k for a file with ``group_count`` groups."""
        if group_count < 0:
            raise ValueError("group_count cannot be negative")
        level = self.base_level
        if self.first_threshold is None:
            return min(level, self.max_level)
        threshold = self.first_threshold
        while group_count >= threshold and level < self.max_level:
            level += 1
            threshold *= self.growth
        return level
