"""Closed-form cost model (the papers' §3-style analysis).

Every figure the benchmarks measure has an analytic counterpart; this
module is those formulas as a first-class API, used by the experiment
assertions and available to capacity planners.  All costs are message
counts (network-invariant) unless stated otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Analytic message costs for an LH*RS file.

    Parameters mirror :class:`~repro.core.config.LHRSConfig`: ``m`` is
    the bucket-group size, ``k`` the availability level, ``b`` the
    bucket capacity and ``load`` the steady-state load factor.
    """

    m: int = 4
    k: int = 1
    b: int = 32
    load: float = 0.7

    # ------------------------------------------------------------------
    # failure-free operation costs
    # ------------------------------------------------------------------
    def search(self) -> float:
        """Key search from a converged client: request + record back."""
        return 2.0

    def search_worst_case(self) -> int:
        """Any stale image: request + ≤2 forwards + reply + IAM."""
        return 5

    def insert(self) -> float:
        """Insert: the record + one Δ-record per parity bucket."""
        return 1.0 + self.k

    update = insert
    delete = insert

    def delete_with_compaction(self) -> float:
        """§4.3 rank compaction adds one batch per parity bucket when a
        mid-range rank frees (the common case under churn)."""
        return 1.0 + 2.0 * self.k

    # ------------------------------------------------------------------
    # structure maintenance
    # ------------------------------------------------------------------
    def split(self) -> float:
        """One split: command round-trip + bulk move + one re-grouping
        batch to each parity bucket of the source and target groups."""
        return 2 + 1 + 2 * self.k

    def merge(self) -> float:
        """One merge: level reset + command round-trip + bulk move +
        re-grouping batches (source group deletes, absorber inserts) +
        one Δ-channel reset per parity bucket of the surviving group."""
        return 1 + 2 + 1 + 2 * self.k + self.k

    # ------------------------------------------------------------------
    # recovery costs
    # ------------------------------------------------------------------
    def group_recovery_messages(self, failed: int = 1,
                                parity_failed: int = 0) -> int:
        """Rebuild ``failed`` data + ``parity_failed`` parity buckets of
        one group: dump every survivor (a call = 2 messages), one bulk
        load per spare."""
        if failed + parity_failed > self.k:
            raise ValueError("beyond the availability level")
        survivors = (self.m - failed) + (self.k - parity_failed)
        return 2 * survivors + failed + parity_failed

    def group_recovery_records(self, failed: int = 1) -> float:
        """Expected records decoded: failed buckets' contents."""
        return failed * self.b * self.load

    def record_recovery_messages(self) -> int:
        """Degraded read: report + locate (2) + ≤(m-1) fetches (2 each)
        + result back to the client."""
        return 2 + 2 + 2 * (self.m - 1) + 1

    def certain_miss_messages(self) -> int:
        """Unsuccessful degraded search: report + locate + result."""
        return 4

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------
    def bucket_overhead(self) -> float:
        """Parity buckets per data bucket: exactly k/m."""
        return self.k / self.m

    def byte_overhead(self) -> float:
        """Parity bytes per data byte ≈ (k/m)/load: a group's rank space
        is as long as its fullest bucket, so parity stripes span the
        bucket capacity while data fills only to the load factor."""
        return (self.k / self.m) / self.load


def lhg_recovery_messages(total_buckets: int, group_size: int,
                          lost_records: int) -> float:
    """LH*g's bucket recovery (A4): scan all ~M/group_size parity
    buckets (multicast + one reply each), then fetch up to group_size-1
    members per lost record — the file-size-*dependent* cost LH*RS's
    group-local recovery removes."""
    parity_buckets = max(total_buckets // group_size, 1)
    return 1 + parity_buckets + 2 * lost_records * (group_size - 1) + 1


def mirroring_recovery_messages() -> int:
    """LH*m: one dump call + one load — the cost floor."""
    return 3
