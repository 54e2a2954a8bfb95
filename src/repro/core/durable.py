"""The durability shell a data or parity bucket server owns.

A durable server holds one :class:`Durability` (``None`` = the RAM-only
server): its simulated disk and write-ahead log, the checkpoint cadence,
the fail-stop rule and the restart / rejoin handshake.  Both bucket
kinds run this one implementation; a server supplies only what differs
— its checkpoint image and loader, its replay of one logged frame, its
Δ ring and its rejoin payload.
"""

from __future__ import annotations

import weakref
import zlib
from collections.abc import Callable

from repro.core.config import LHRSConfig
from repro.sim.network import DeliveryFault, NodeUnavailable, UnknownNode
from repro.sim.node import Node
from repro.sim.rng import DEFAULT_SEED
from repro.store.simdisk import DiskError, SimDisk, disk_rng
from repro.store.wal import BucketLog

#: Ring bound, in Δs, on the in-memory Δ tail a server keeps for peers
#: catching up (``wal.tail`` / ``delta.tail``); a restarted bucket whose
#: staleness exceeds the ring falls back to the full rebuild.
DELTA_LOG_CAPACITY = 1024


class Durability:
    """Disk, WAL, checkpoint cadence, fail-stop, restart and rejoin."""

    def __init__(self, node: Node, config: LHRSConfig, coordinator_id: str):
        # The server owns this shell; a weak link back means one a rebuild
        # replaced is freed, disk and all, as soon as it is dropped.
        self._node = weakref.ref(node)
        self.coordinator_id = coordinator_id
        self.disk = SimDisk(
            node.node_id,
            rng=disk_rng(DEFAULT_SEED, node.node_id),
            profile=self._disk_profile,
        )
        self.wal = BucketLog(self.disk, fsync_interval=config.wal_fsync_interval)
        self.interval = config.durability_checkpoint_interval
        self.retry = config.retry_policy
        #: WAL appends since the last checkpoint
        self.appends = 0
        self.restarting = False

    @property
    def node(self) -> Node:
        return self._node()

    def _disk_profile(self) -> dict:
        """Current disk fault profile from the network's fault plane."""
        net = self.node.network
        if net is None or net.fault_plane is None:
            return {}
        return net.fault_plane.disk_profile(self.node.node_id, net.now)

    def log(self, entry: dict) -> None:
        """Append one WAL frame (a mutation or a ``ctl`` record).

        A ``ctl`` record is synced before this returns, whatever the
        fsync interval: Δ catch-up gives a restarted bucket records and
        Δs back, never a level or a closed channel.  A disk
        error is fail-stop: a bucket that cannot log must not keep
        mutating, or its disk diverges from its acked state.
        """
        try:
            self.wal.append(entry)
            if "ctl" in entry:
                self.wal.sync()
        except DiskError:
            self.fail_stop()
        self.appends += 1

    def due(self) -> bool:
        """Whether the periodic checkpoint is due.  Asked at the end of
        ``receive`` only: frames are logged in the middle of splits,
        merges and rank compaction, where a bucket's structures
        disagree.  A restarting bucket checkpoints when its catch-up
        lands, a fail-stopped one not at all."""
        return (
            self.appends >= self.interval
            and not self.restarting
            and self.node._net().is_available(self.node.node_id)
        )

    def fail_stop(self) -> None:
        """Crash the node rather than run past a disk write it lost."""
        net = self.node.network
        if net is not None and net.is_available(self.node.node_id):
            net.fail(self.node.node_id)
        raise NodeUnavailable(self.node.node_id)

    def checkpoint(self, image: dict, records: int) -> None:
        """Write a full-state checkpoint and truncate the WAL."""
        try:
            self.wal.checkpoint(image)
        except DiskError:
            self.fail_stop()
        self.appends = 0
        net = self.node.network
        if net is not None and net.tracer is not None:
            net.tracer.emit(
                "disk.checkpoint", self.node.node_id, self.wal.lsn, records
            )
        if net is not None and net.metrics is not None:
            net.metrics.counter(
                "disk.checkpoints", "bucket checkpoints written"
            ).inc()

    def read_back(self, kind: str) -> tuple[dict | None, list[dict], bool]:
        """``(image, tail, clean)`` as the disk holds them after a crash.

        The crash is applied to the disk *here*: a failed node runs no
        code in the simulation, so dropping the unsynced tail (and any
        torn-write / bit-rot rule) at restore time is equivalent to
        dropping it at crash time.  Without a readable checkpoint of
        this ``kind`` the tail has no base to replay onto and everything
        on disk is suspect: ``(None, [], False)``.
        """
        self.disk.crash()
        state, tail, clean = self.wal.recover()
        self.appends = 0
        net = self.node.network
        if net is not None and net.metrics is not None:
            net.metrics.counter("disk.restarts", "bucket restart replays").inc()
        if state is None or state.get("kind") != kind:
            return None, [], False
        return state, tail, clean

    def restored(self, restart: Callable[[], None]) -> None:
        """Run ``restart`` once per reboot (the ``on_restored`` hook)."""
        if self.restarting:
            return
        self.restarting = True
        try:
            restart()
        except NodeUnavailable:
            # A disk fail-stop (or a coordinator verdict) put the node
            # back down mid-restart; the probe sweep will rebuild it.
            pass
        finally:
            self.restarting = False

    def rejoin(self, payload: dict) -> None:
        """Report the restart; the coordinator catches us up or rebuilds.

        The verdict travels out-of-band: a ``catchup.load`` /
        ``catchup.parity`` arriving mid-call unfences the node, a
        rebuild replaces it under its own node id.  The reply is
        informational, so a lost one changes nothing.
        """
        node = self.node
        net = node._net()
        policy = self.retry
        for attempt in range(policy.attempts):
            try:
                node.call(self.coordinator_id, "rejoin", payload)
                return
            except DeliveryFault as fault:
                if fault.stage == "reply":
                    return  # the coordinator acted; only the ack was lost
            except (NodeUnavailable, UnknownNode):
                pass  # coordinator dark (pre-takeover window)
            if attempt + 1 < policy.attempts:
                net.advance(policy.delay(
                    attempt, zlib.crc32(f"{node.node_id}->rejoin".encode()),
                ))
        # Could not reach the coordinator: stay down — a fenced bucket
        # nobody knows about is indistinguishable from a dead one, and
        # the probe sweep will find and rebuild it.  Guard on identity:
        # if a rebuild already replaced us under this id, failing the id
        # would kill the healthy replacement.
        if net.nodes.get(node.node_id) is node:
            net.fail(node.node_id)
        raise NodeUnavailable(node.node_id)
