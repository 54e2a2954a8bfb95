"""Configuration of an LH*RS file."""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

from repro.core.availability import AvailabilityPolicy
from repro.gf.field import GF
from repro.sim.faults import RetryPolicy


@dataclass(frozen=True)
class LHRSConfig:
    """All tunables of an LH*RS file.

    Attributes
    ----------
    group_size:
        m — data buckets per bucket group.  The file starts with one
        complete group (n0 = m), so the storage overhead is ~k/m from
        the beginning.
    availability:
        k — initial parity buckets per group (the availability level).
        ``availability=0`` degenerates to plain LH*.
    bucket_capacity:
        b — records per data bucket before an overflow report.
    field_width:
        w of GF(2^w) for the parity calculus (8 or 16 for byte payloads).
    generator:
        Parity matrix construction: "cauchy" (normalized: parity bucket 0
        is XOR) or "vandermonde" (the E13 ablation arm).
    policy:
        Scalable-availability policy; ``AvailabilityPolicy.fixed(k)`` by
        default.  When the policy raises the level as the file grows, new
        groups are born with the higher k, and each split raises its
        source's group to it (the split pointer paces the retrofit).
    compact_ranks:
        The §4.3-style deletion enhancement: when a rank below the
        bucket's maximum is freed (delete or split move-out), relocate
        the highest-ranked record into it.  Keeps every bucket's rank
        set dense ({1..size}), so record groups stay maximally occupied
        and the parity storage overhead does not degrade under heavy
        deletion — at the price of extra parity messages per freeing
        operation (benched in E12).
    degraded_reads:
        Serve key searches that hit an unavailable bucket via record
        recovery (A7-style) *before* bucket recovery completes.
    auto_recover:
        Recover failed buckets as soon as an operation or probe detects
        them (the coordinator's normal reaction).  Disable to exercise
        degraded mode in tests.
    spare_servers:
        Size of the hot-spare pool recoveries draw replacement servers
        from; ``None`` (default) models an unbounded pool.  With a
        finite pool, recovery raises :class:`RecoveryError` when no
        spare is left — the operational signal to provision hardware.
    parity_ack:
        Ship Δ-records as request/reply calls instead of fire-and-forget
        sends, retrying transient delivery faults under ``retry_policy``.
        Costs one extra message per Δ but makes parity maintenance
        survive *silently dropped* messages (duplicates and delays are
        already handled by the sequence numbers alone).  Off by default
        to preserve the paper's 1 + k messages per mutation.
    client_acks:
        Clients tag mutations with an ack token and the accepting server
        confirms (one extra message per mutation); unconfirmed mutations
        are retried under ``retry_policy`` and surface
        :class:`~repro.sdds.client.OperationFailed` when the budget runs
        out.  Off by default for the paper's message counts.
    retry_attempts / retry_backoff_base:
        The bounded-exponential-backoff discipline senders use against
        transient delivery faults (see
        :class:`~repro.sim.faults.RetryPolicy`, whose own defaults set
        the growth factor and the cap).  Backoff waits advance the
        simulated clock, maturing delayed messages and letting crash
        windows pass.
    coordinator_replicas:
        Number of standby coordinator replicas (0 = the classic
        singleton coordinator).  With replicas, every journal append is
        replicated synchronously, checkpoints land in parity-bucket
        headers, and a standby whose lease on the primary expires takes
        over the coordinator node id (see ``repro.core.standby``).
    heartbeat_interval:
        Logical-clock distance between the primary's lease renewals to
        its standbys.
    lease_timeout:
        How long a standby tolerates heartbeat silence before it
        suspects the primary (a direct ping confirms before takeover).
        Must exceed ``heartbeat_interval``.
    journal_checkpoint_interval:
        Replicated journal appends between parity-header checkpoints.
    read_deadline:
        Per-read latency budget in virtual time units (None disables
        the whole deadline/hedge/breaker discipline — the default, and
        a no-op anyway unless a
        :class:`~repro.sim.network.ServiceModel` is installed).  See
        :class:`~repro.core.client.RSClient` for the hedge and breaker
        it drives.
    bucket_queue_limit:
        Bounded inbound queue per bucket server (None = unbounded).
        With a service model installed, sheddable messages beyond the
        bound are refused with a typed ``busy`` reply
        (:class:`~repro.sim.network.NodeBusy`) that senders honor with
        a jittered backoff — load shedding instead of collapse.
    recovery_pace_rate / recovery_pace_burst:
        Token bucket pacing rebuild transfers (survivor dumps, spare
        loads): ``rate`` tokens accrue per clock unit up to ``burst``,
        one transfer costs one token, and a deficit makes recovery
        *wait* (advancing the clock, draining survivor queues) so a
        rebuild never starves foreground operations.  None (default)
        = unpaced, the pre-gray-failure behaviour.
    retry_jitter:
        Decorrelate sender backoff with deterministic jitter (see
        :class:`~repro.sim.faults.RetryPolicy`); off by default to
        keep the exact exponential schedule the pinned tests use.
    batch_max_ops:
        Ceiling on ops per ``ops.batch`` message.  The ``*_many`` client
        calls bin their operations by the client image into one such
        message per target bucket, chunked at this ceiling; servers
        apply each sub-batch op by op and ship its Δs as runs, one
        ``parity.batch`` per (bucket, parity-target) pair per client
        batch.  Bounds server-side admission cost per message and the
        shed/retry unit.
    durability:
        Give every data and parity bucket a local
        :class:`~repro.store.SimDisk` with a checksummed write-ahead
        log and periodic checkpoints (``repro.store``).  A crashed
        bucket that is *restored* (rather than replaced) then replays
        its durable prefix, rejoins through the coordinator's fencing
        handshake and fetches only the missed Δ tail from its peers —
        falling back to the full RS rebuild when the log is torn,
        rotted or too stale.  Off by default: with the knob off no
        disk exists, restores keep their legacy silent-rebirth
        semantics and every message trace is byte-identical to the
        non-durable code.
    wal_fsync_interval:
        WAL appends between fsync barriers.  1 (default) is strict
        durability: every logged mutation is on disk before the Δ
        fan-out.  Larger values amortize fsyncs at the price of a
        staleness window — a crash loses up to interval-1 logged
        mutations, which is exactly the tail delta catch-up refetches.
    durability_checkpoint_interval:
        WAL appends between local checkpoints (atomic whole-state
        replace + log truncate).  Bounds replay work and log growth.
    """

    group_size: int = 4
    availability: int = 1
    bucket_capacity: int = 32
    field_width: int = 8
    generator: str = "cauchy"
    policy: AvailabilityPolicy | None = None
    compact_ranks: bool = False
    degraded_reads: bool = True
    auto_recover: bool = True
    spare_servers: int | None = None
    parity_ack: bool = False
    client_acks: bool = False
    retry_attempts: int = 4
    retry_backoff_base: float = 1.0
    coordinator_replicas: int = 0
    heartbeat_interval: float = 4.0
    lease_timeout: float = 12.0
    journal_checkpoint_interval: int = 16
    read_deadline: float | None = None
    bucket_queue_limit: int | None = None
    recovery_pace_rate: float | None = None
    recovery_pace_burst: float = 8.0
    retry_jitter: bool = False
    batch_max_ops: int = 256
    durability: bool = False
    wal_fsync_interval: int = 1
    durability_checkpoint_interval: int = 128
    # Accepted, not stored: the e2e benchmark's ``bulk`` workload still
    # passes ``batch_ops=True``.  The default stays behind as a class
    # attribute (``dataclasses.replace`` reads it back), so
    # ``cfg.batch_ops`` reads True; nothing reads it.  Delete this shim
    # when the benchmark drops the argument (ROADMAP item 3).
    batch_ops: InitVar[bool] = True

    def __post_init__(self, batch_ops: bool) -> None:
        if batch_ops is not True:
            raise ValueError(
                "batch_ops is gone: the *_many calls always batch"
            )
        if self.group_size < 1:
            raise ValueError("group_size (m) must be >= 1")
        if self.availability < 0:
            raise ValueError("availability (k) cannot be negative")
        if self.bucket_capacity < 1:
            raise ValueError("bucket_capacity must be >= 1")
        if self.field_width not in (8, 16):
            raise ValueError(
                "field_width must be 8 or 16 for byte-payload parity"
            )
        if self.spare_servers is not None and self.spare_servers < 0:
            raise ValueError("spare_servers cannot be negative")
        if self.coordinator_replicas < 0:
            raise ValueError("coordinator_replicas cannot be negative")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.lease_timeout <= self.heartbeat_interval:
            raise ValueError(
                "lease_timeout must exceed heartbeat_interval or every "
                "renewal races its own expiry"
            )
        if self.journal_checkpoint_interval < 1:
            raise ValueError("journal_checkpoint_interval must be >= 1")
        if self.bucket_queue_limit is not None and self.bucket_queue_limit < 1:
            raise ValueError("bucket_queue_limit must be >= 1")
        if self.recovery_pace_rate is not None and self.recovery_pace_rate <= 0:
            raise ValueError("recovery_pace_rate must be positive")
        if self.recovery_pace_burst < 1:
            raise ValueError("recovery_pace_burst must be >= 1")
        if self.batch_max_ops < 1:
            raise ValueError("batch_max_ops must be >= 1")
        if self.wal_fsync_interval < 1:
            raise ValueError("wal_fsync_interval must be >= 1")
        if self.durability_checkpoint_interval < 1:
            raise ValueError("durability_checkpoint_interval must be >= 1")
        if self.read_deadline is not None and self.read_deadline <= 0:
            raise ValueError("read_deadline must be positive")
        self.retry_policy  # validate the retry knobs (RetryPolicy raises)
        limit = (1 << self.field_width) - self.group_size
        if self.max_availability > limit:
            raise ValueError(
                f"m + max k exceeds GF(2^{self.field_width}); use a wider field"
            )

    @property
    def retry_policy(self) -> RetryPolicy:
        """The sender-side retry/backoff discipline as a policy object."""
        return RetryPolicy(
            attempts=self.retry_attempts,
            backoff_base=self.retry_backoff_base,
            jitter=self.retry_jitter,
        )

    @property
    def effective_policy(self) -> AvailabilityPolicy:
        """The availability policy, defaulting to fixed(k)."""
        if self.policy is not None:
            return self.policy
        return AvailabilityPolicy.fixed(self.availability)

    @property
    def max_availability(self) -> int:
        """Upper bound on k this configuration can ever reach."""
        if self.policy is None:
            return self.availability
        return self.policy.max_level

    def make_field(self) -> GF:
        """The GF(2^w) instance for this file."""
        return GF(self.field_width)
