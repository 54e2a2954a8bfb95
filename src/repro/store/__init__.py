"""Durable bucket storage: simulated disk + write-ahead log.

``repro.store`` gives every bucket a local, fault-injectable storage
plane: :class:`~repro.store.simdisk.SimDisk` models a disk with
explicit fsync barriers and crash-at-any-unsynced-point semantics,
:class:`~repro.store.wal.BucketLog` layers a checksummed write-ahead
log plus periodic checkpoints on top of it, and :mod:`repro.store.codec`
is the one encoding of what goes into a frame: a typed, tagged binary
form with two packed column shapes, so a checkpoint image written as a
few long columns costs a few array passes.  All three are
deterministic: every fault decision (torn write, bit rot, io-error)
comes from a seeded per-node generator and equal values encode to
equal bytes, so crash/restart schedules replay exactly.

See ``docs/durability.md`` for the disk model, the byte layout of
frames and images and the restart-with-delta-catch-up protocol built
on top.
"""

from repro.store import codec
from repro.store.simdisk import DiskError, SimDisk, disk_rng
from repro.store.wal import (
    BucketLog,
    decode_blob,
    decode_frames,
    encode_blob,
    encode_frame,
)

__all__ = [
    "BucketLog",
    "DiskError",
    "SimDisk",
    "codec",
    "decode_blob",
    "decode_frames",
    "disk_rng",
    "encode_blob",
    "encode_frame",
]
