"""A deterministic simulated disk with explicit fsync barriers.

The model is the smallest one that captures the crash semantics real
storage engines defend against:

* ``append(name, data)`` buffers bytes in an *unsynced* tail; only
  ``fsync(name)`` moves them to the durable image.  A crash drops every
  unsynced append — and, under a ``torn_write`` fault rule, may leave a
  seeded *prefix* of the first dropped append behind (a torn frame the
  WAL checksum must catch).
* ``write_file(name, data)`` stages an atomic whole-file replace that
  takes effect at the next ``fsync`` — the checkpoint primitive.  A
  crash before the fsync leaves the old image untouched.
* ``read(name)`` at restart may return a bit-rotted image under a
  ``bitrot`` rule: a seeded handful of byte flips in the durable bytes,
  applied once per crash (again: the per-frame checksum's job).
* ``append``/``fsync`` may raise :class:`DiskError` under a transient
  ``io_error`` rule; callers treat it as fail-stop for the node.

Every fault draw comes from a seeded per-node generator
(:func:`disk_rng`), *not* from the shared network RNG, so disk
decisions are independent of message interleaving and replay exactly.
"""

from __future__ import annotations

import zlib
from typing import Callable

import numpy as np

#: Neutral fault profile: crashes still lose the unsynced tail (that is
#: the core semantics, not a fault), but writes never tear, bits never
#: rot, io never errors and the disk is full speed.
NEUTRAL_PROFILE: dict[str, float] = {
    "torn_write": 0.0,
    "bitrot": 0.0,
    "bitrot_flips": 1,
    "io_error": 0.0,
    "slow_factor": 1.0,
}


class DiskError(Exception):
    """A transient io-error injected by the fault plane."""


def disk_rng(seed: int, node_id: str) -> np.random.Generator:
    """Per-node disk generator: seeded by ``(seed, crc32(node_id))``.

    Keyed off the node id so each disk's fault stream is independent of
    every other disk and of the shared network RNG draw order.
    """
    return np.random.default_rng(
        [int(seed) & 0xFFFFFFFF, zlib.crc32(node_id.encode("utf-8"))]
    )


class SimDisk:
    """Named byte files with a durable image and an unsynced tail."""

    def __init__(
        self,
        node_id: str,
        rng: np.random.Generator | None = None,
        profile: Callable[[], dict[str, float]] | None = None,
    ) -> None:
        self.node_id = node_id
        self.rng = rng if rng is not None else np.random.default_rng(0)
        #: callable returning the current fault profile (merged disk
        #: rules from the fault plane); None = NEUTRAL_PROFILE.
        self.profile = profile
        #: durable images: a replaced file is the ``bytes`` it was staged
        #: as; the first append at fsync makes it a ``bytearray`` that
        #: later ones extend in place (:meth:`_mutable`)
        self._durable: dict[str, bytes | bytearray] = {}
        self._unsynced: dict[str, list[bytes]] = {}
        self._staged: dict[str, bytes] = {}
        # counters (benchmarks and metrics read these)
        self.fsyncs = 0
        self.appends = 0
        self.bytes_written = 0
        #: virtual io time: bytes fsynced x slow_factor (a slow-disk
        #: rule makes the same durability work "cost" more).
        self.io_time = 0.0

    # ------------------------------------------------------------------
    # fault profile
    # ------------------------------------------------------------------
    def _profile(self) -> dict[str, float]:
        """The fault profile in force: read once per disk call (a node
        with no disk rule gets ``NEUTRAL_PROFILE`` itself, unmerged)."""
        rules = self.profile() if self.profile is not None else None
        if not rules:
            return NEUTRAL_PROFILE
        return {**NEUTRAL_PROFILE, **rules}

    def _maybe_io_error(self, op: str, name: str) -> dict[str, float]:
        """Draw the call's io-error; returns the profile it read."""
        profile = self._profile()
        prob = profile["io_error"]
        if prob > 0.0 and float(self.rng.random()) < prob:
            raise DiskError(f"{self.node_id}: injected io-error on {op}:{name}")
        return profile

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def append(self, name: str, data: bytes) -> None:
        """Buffer ``data`` at the end of ``name`` (durable after fsync)."""
        self._maybe_io_error("append", name)
        self._unsynced.setdefault(name, []).append(bytes(data))
        self.appends += 1
        self.bytes_written += len(data)

    def write_file(self, name: str, data: bytes) -> None:
        """Stage an atomic whole-file replace (applied at fsync).

        Supersedes any appends buffered so far — the replace rewrites
        the whole file, so an older unsynced tail must not resurface
        behind it.  Appends issued *after* the stage accumulate on top
        of the new image.
        """
        self._maybe_io_error("write", name)
        self._staged[name] = bytes(data)
        self._unsynced.pop(name, None)
        self.bytes_written += len(data)

    def truncate(self, name: str) -> None:
        """Stage an atomic truncate-to-empty (applied at fsync)."""
        self.write_file(name, b"")

    def fsync(self, name: str) -> None:
        """Make every staged/unsynced byte of ``name`` durable."""
        profile = self._maybe_io_error("fsync", name)
        synced = 0
        if name in self._staged:
            # a staged replace supersedes appends buffered before it
            self._durable[name] = self._staged.pop(name)
            synced += len(self._durable[name])
        chunks = self._unsynced.pop(name, ())
        if chunks:
            image = self._mutable(name)
            for chunk in chunks:
                image += chunk
                synced += len(chunk)
        self.fsyncs += 1
        self.io_time += synced * float(profile["slow_factor"])

    def _mutable(self, name: str) -> bytearray:
        """The durable image of ``name`` as a ``bytearray`` to change in
        place.  A replaced file stays the ``bytes`` it was staged as
        until something is appended to it (a checkpoint never is)."""
        image = self._durable.get(name, b"")
        if not isinstance(image, bytearray):
            image = self._durable[name] = bytearray(image)
        return image

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def read(self, name: str) -> bytes:
        """Current contents: durable image plus the unsynced tail."""
        staged = self._staged.get(name)
        base = staged if staged is not None else self._durable.get(name, b"")
        tail = self._unsynced.get(name)
        if tail or not isinstance(base, bytes):
            return bytes(base) + b"".join(tail or ())
        return base

    def exists(self, name: str) -> bool:
        return (
            name in self._durable
            or name in self._staged
            or name in self._unsynced
        )

    def unsynced_bytes(self, name: str) -> int:
        return sum(len(chunk) for chunk in self._unsynced.get(name, ()))

    # ------------------------------------------------------------------
    # crash semantics
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Lose everything that was never fsynced; maybe tear / rot.

        Always: staged replaces vanish, unsynced appends vanish.  Under
        a ``torn_write`` rule, the *first* dropped append may survive as
        a seeded-length prefix glued onto the durable image — exactly
        the torn frame a WAL checksum exists to reject.  Under a
        ``bitrot`` rule, a seeded handful of bytes in one durable file
        flip — the at-rest corruption a per-frame checksum catches at
        replay.
        """
        profile = self._profile()
        self._staged.clear()
        for name in sorted(self._unsynced):
            dropped = self._unsynced[name]
            if (
                dropped
                and profile["torn_write"] > 0.0
                and float(self.rng.random()) < profile["torn_write"]
            ):
                first = dropped[0]
                if len(first) > 1:
                    keep = 1 + int(self.rng.integers(len(first) - 1))
                    self._mutable(name).extend(first[:keep])
        self._unsynced.clear()
        if profile["bitrot"] > 0.0 and float(self.rng.random()) < profile["bitrot"]:
            victims = sorted(
                name for name, data in self._durable.items() if data
            )
            if victims:
                name = victims[int(self.rng.integers(len(victims)))]
                image = self._mutable(name)
                flips = max(1, int(profile["bitrot_flips"]))
                for _ in range(flips):
                    pos = int(self.rng.integers(len(image)))
                    image[pos] ^= 1 << int(self.rng.integers(8))
