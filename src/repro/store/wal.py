"""Checksummed write-ahead log frames and checkpoints over a SimDisk.

Frame format (little-endian)::

    <u32 body length> <u32 crc32(body)> <body ...>
    body = <u8 format version> <value: [lsn, record]>

The value is written by :mod:`repro.store.codec` — a deterministic
tagged binary encoding, so identical records serialize to identical
bytes and every value comes back with the type it went in with.  The
``lsn`` (apply-LSN, or None for an unstamped frame) travels beside the
record and is put back into it as ``record["lsn"]`` on decode: replay
skips frames at or below the checkpoint's LSN high-water, which closes
the checkpoint/truncate crash window (a crash between checkpoint fsync
and log truncate must not double-apply the tail).

Replay stops at the *first* frame that is short, torn, fails its
checksum or carries a format version this code does not read —
everything before it is the durable prefix, everything after is
untrusted.  :meth:`BucketLog.recover` reports whether the stop was a
clean end-of-log or a torn/rotted tail so the caller can decide between
delta catch-up and a full rebuild.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Callable
from typing import Any

from repro.store import codec
from repro.store.simdisk import SimDisk

_HEADER = struct.Struct("<II")
_VERSION = bytes([codec.VERSION])
_VERSION_CRC = zlib.crc32(_VERSION)

#: sanity cap — a rotted length field must not make replay allocate GBs
_MAX_FRAME = 1 << 26


def encode_frame(record: dict[str, Any], lsn: int | None = None) -> bytes:
    """One checksummed frame: header + version byte + ``[lsn, record]``.

    The frame a scalar durable write logs — a one-record ``prun``, the
    same at a data bucket and at each of its parity buckets — is written
    by the packer below; every other record (and any such frame off its
    usual types) goes through the codec's walker.  Both give the same
    bytes.
    """
    value = None
    if "prun" in record:
        try:
            value = _PACK_PRUN[record["prun"][0]](lsn, record)
        except (struct.error, LookupError, TypeError, ValueError):
            pass  # not the scalar shape after all
    if value is None:
        value = codec.encode((lsn, record))
    crc = zlib.crc32(value, _VERSION_CRC)
    return _HEADER.pack(1 + len(value), crc) + _VERSION + value


# -- the scalar frame packer -------------------------------------------
# A scalar frame body is mostly fixed text — tags, counts, dict keys —
# that the walker re-derives per frame.  The packer keeps that text as
# byte strings cut from the walker's own output (the tag set stays the
# codec's alone) and writes each stretch of it, with the field that
# follows, through a precompiled Struct.  ``q`` is the codec's int form
# for a signed 64-bit word: an int beyond it raises ``struct.error``, a
# value of another type fails the guard (``True`` is not ``1``), and the
# frame takes the walker.
_Packer = Callable[[Any, dict[str, Any]], "bytes | None"]


def _opens(container: Any) -> bytes:
    """The tag and count a list or dict of this size starts with."""
    return codec.encode(container)[:5]


def _layout(texts: tuple[bytes, ...], codes: str) -> Callable[..., bytes]:
    """``pack(text, field, text, field, ...)`` for these fixed byte
    strings, each followed by one field of its struct code."""
    return struct.Struct(
        "<" + "".join(f"{len(text)}s{code}" for text, code in zip(texts, codes))
    ).pack


_INT, _BYTES = codec.encode(0)[:1], codec.encode(b"")[:1]
_LIST1, _LIST2, _LIST7 = (_opens([None] * count) for count in (1, 2, 7))
_DICT1 = _opens({0: None})
_LSN = _LIST2 + _INT  # "[lsn, ..."


def _prun_packer(action: str) -> _Packer:
    """``[lsn, {"prun": [action, pos, seq0, [key], [rank], [delta],
    [length]]}]`` — a run of one Δ, as either bucket kind logs it."""
    text = codec.encode
    t_pos = _DICT1 + text("prun") + _LIST7 + text(action) + _INT
    t_one, t_delta = _LIST1 + _INT, _LIST1 + _BYTES
    head = _layout((_LSN, t_pos, _INT, t_one, t_one, t_delta), "qqqqqI")
    tail = _layout((t_one,), "q")

    def pack(lsn: Any, record: dict[str, Any]) -> bytes | None:
        run = record["prun"]
        _, pos, seq0, keys, ranks, deltas, lengths = run
        (key,), (rank,), (delta,), (length,) = keys, ranks, deltas, lengths
        if (
            len(record) != 1 or type(delta) is not bytes
            or type(run) is not list or type(keys) is not list
            or type(ranks) is not list or type(deltas) is not list
            or type(lengths) is not list
            or type(lsn) is not int or type(pos) is not int
            or type(seq0) is not int or type(key) is not int
            or type(rank) is not int or type(length) is not int
        ):
            return None
        return b"".join((
            head(_LSN, lsn, t_pos, pos, _INT, seq0, t_one, key, t_one, rank,
                 t_delta, len(delta)),
            delta,
            tail(t_one, length),
        ))

    return pack


_PACK_PRUN = {
    action: _prun_packer(action) for action in ("insert", "update", "delete")
}


def decode_frames(data: bytes) -> tuple[list[dict[str, Any]], bool]:
    """``(records, clean)`` — the durable prefix, never beyond.

    ``clean`` is False when the scan stopped at a torn or corrupt frame
    rather than the exact end of the log.
    """
    records: list[dict[str, Any]] = []
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _HEADER.size > total:
            return records, False  # torn header
        length, crc = _HEADER.unpack_from(data, offset)
        if length > _MAX_FRAME or offset + _HEADER.size + length > total:
            return records, False  # torn / rotted length
        body = data[offset + _HEADER.size:offset + _HEADER.size + length]
        if zlib.crc32(body) != crc or body[:1] != _VERSION:
            return records, False  # rotted body / unknown format
        try:
            lsn, record = codec.decode(body, 1)
            if lsn is not None:
                record["lsn"] = lsn
        except (ValueError, TypeError):
            return records, False  # not a [lsn, record] value
        records.append(record)
        offset += _HEADER.size + length
    return records, True


def encode_blob(state: dict[str, Any], lsn: int | None = None) -> bytes:
    """A whole-file checksummed blob (checkpoints): one frame."""
    return encode_frame(state, lsn)


def decode_blob(data: bytes) -> dict[str, Any] | None:
    """Inverse of :func:`encode_blob`; None when torn/rotted/absent."""
    if not data:
        return None
    records, clean = decode_frames(data)
    if len(records) != 1 or not clean:
        return None
    return records[0]


# ----------------------------------------------------------------------
# per-bucket log
# ----------------------------------------------------------------------
class BucketLog:
    """WAL + checkpoint discipline for one bucket over a SimDisk.

    ``append(record)`` stamps a monotonically increasing ``lsn`` into
    the record and fsyncs every ``fsync_interval`` appends (1 = every
    append, the strict default).  ``checkpoint(state)`` stages an
    atomic whole-file replace carrying the current LSN high-water and
    truncates the log in the same fsync barrier.  ``recover()`` replays
    checkpoint + log to the last durable prefix.
    """

    LOG = "wal"
    CHECKPOINT = "checkpoint"

    def __init__(self, disk: SimDisk, fsync_interval: int = 1) -> None:
        self.disk = disk
        self.fsync_interval = max(1, int(fsync_interval))
        self.lsn = 0
        self._unsynced_appends = 0

    def append(self, record: dict[str, Any]) -> int:
        """Log one record; returns the LSN it was stamped with."""
        self.lsn += 1
        self.disk.append(self.LOG, encode_frame(record, self.lsn))
        self._unsynced_appends += 1
        if self._unsynced_appends >= self.fsync_interval:
            self.sync()
        return self.lsn

    def sync(self) -> None:
        """Explicit fsync barrier on the log."""
        if self._unsynced_appends:
            self.disk.fsync(self.LOG)
            self._unsynced_appends = 0

    def checkpoint(self, state: dict[str, Any]) -> None:
        """Atomically persist ``state`` and truncate the log.

        The blob carries ``lsn`` (high-water of everything folded into
        the state) so replay can skip already-applied frames if a crash
        lands between the two fsync barriers below.
        """
        self.sync()
        self.disk.write_file(self.CHECKPOINT, encode_blob(state, self.lsn))
        self.disk.fsync(self.CHECKPOINT)
        # A crash exactly here leaves checkpoint *and* full log; the
        # LSN skip in recover() makes the overlap harmless.
        self.disk.truncate(self.LOG)
        self.disk.fsync(self.LOG)

    def recover(self) -> "tuple[dict[str, Any] | None, list[dict[str, Any]], bool]":
        """``(checkpoint_state, tail_records, clean)`` after a crash.

        ``checkpoint_state`` is None when no checkpoint survived (or it
        was torn/rotted).  ``tail_records`` are the WAL frames after the
        checkpoint's LSN high-water, in order.  ``clean`` is False when
        the WAL scan hit a torn or corrupt frame — the durable prefix
        is still trustworthy, but the caller knows bytes were lost in a
        way fsync accounting alone does not explain.
        """
        state = decode_blob(self.disk.read(self.CHECKPOINT))
        base_lsn = int(state["lsn"]) if state is not None else 0
        records, clean = decode_frames(self.disk.read(self.LOG))
        tail = [rec for rec in records if int(rec.get("lsn", 0)) > base_lsn]
        top = max(
            [base_lsn] + [int(rec.get("lsn", 0)) for rec in records]
        )
        self.lsn = top
        self._unsynced_appends = 0
        return state, tail, clean
