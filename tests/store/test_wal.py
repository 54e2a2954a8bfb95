"""WAL frames, checkpoints and replay — including the crash sweep.

The load-bearing property (the tentpole's acceptance bar): crash at
*every* fsync boundary and replay recovers exactly the durable prefix —
never a record beyond it, never a torn frame mistaken for data.  A
hypothesis sweep drives record shapes, fsync intervals, checkpoint
cadences and crash points through that invariant.
"""

import struct
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import (
    BucketLog,
    SimDisk,
    codec,
    decode_blob,
    decode_frames,
    disk_rng,
    encode_blob,
    encode_frame,
)


def make_disk(profile=None, seed=3, node="n1"):
    return SimDisk(
        node,
        rng=disk_rng(seed, node),
        profile=(lambda: profile) if profile is not None else None,
    )


# ----------------------------------------------------------------------
# frame codec
# ----------------------------------------------------------------------
class TestFrames:
    def test_roundtrip_preserves_types(self):
        record = {
            "op": "insert",
            "key": 17,
            "delta": b"\x00\xffpayload",
            "nested": {"ranks": {3: 9}, "items": [1, b"x", "s"]},
        }
        frames, clean = decode_frames(encode_frame(record))
        assert clean
        assert frames == [record]

    def test_dict_keys_keep_their_type(self):
        record = {"seqs": {0: 5, 2: 9}, "names": {"0": 5, "-2": 9}}
        frames, _ = decode_frames(encode_frame(record))
        assert frames == [record]
        assert list(frames[0]["seqs"]) == [0, 2]
        assert list(frames[0]["names"]) == ["-2", "0"]

    def test_identical_records_serialize_identically(self):
        record = {"b": 1, "a": b"xy"}
        assert encode_frame(record) == encode_frame(dict(record))
        assert encode_frame(record) == encode_frame({"a": b"xy", "b": 1})

    def test_lsn_travels_beside_the_record(self):
        record = {"op": "a"}
        frames, clean = decode_frames(encode_frame(record, 7))
        assert clean and frames == [{"op": "a", "lsn": 7}]
        assert record == {"op": "a"}  # stamped into the frame, not the dict

    def test_value_that_is_not_a_record_stops_scan_unclean(self):
        body = bytes([codec.VERSION]) + codec.encode([1, 2, 3])
        frame = struct.pack("<II", len(body), zlib.crc32(body)) + body
        assert decode_frames(encode_frame({"n": 1}) + frame) == ([{"n": 1}], False)

    def test_concatenated_frames_decode_in_order(self):
        data = encode_frame({"n": 1}) + encode_frame({"n": 2})
        frames, clean = decode_frames(data)
        assert clean
        assert [f["n"] for f in frames] == [1, 2]

    def test_torn_tail_stops_scan_unclean(self):
        data = encode_frame({"n": 1}) + encode_frame({"n": 2})[:-3]
        frames, clean = decode_frames(data)
        assert not clean
        assert [f["n"] for f in frames] == [1]

    def test_torn_header_stops_scan_unclean(self):
        data = encode_frame({"n": 1}) + b"\x01\x02"
        frames, clean = decode_frames(data)
        assert not clean
        assert [f["n"] for f in frames] == [1]

    def test_bitflip_fails_checksum(self):
        data = bytearray(encode_frame({"n": 1}) + encode_frame({"n": 2}))
        data[len(data) - 2] ^= 0x40  # flip a bit in the second body
        frames, clean = decode_frames(bytes(data))
        assert not clean
        assert [f["n"] for f in frames] == [1]

    def test_rotted_length_field_rejected(self):
        data = bytearray(encode_frame({"n": 1}))
        data[3] ^= 0x80  # blow up the length field far past the log end
        frames, clean = decode_frames(bytes(data))
        assert not clean
        assert frames == []

    def test_blob_roundtrip_and_rejection(self):
        blob = encode_blob({"kind": "data", "records": [b"p"]})
        assert decode_blob(blob) == {"kind": "data", "records": [b"p"]}
        assert decode_blob(b"") is None
        assert decode_blob(blob[:-1]) is None


# ----------------------------------------------------------------------
# BucketLog
# ----------------------------------------------------------------------
class TestBucketLog:
    def test_append_stamps_monotonic_lsns(self):
        log = BucketLog(make_disk())
        assert [log.append({"op": "a"}), log.append({"op": "b"})] == [1, 2]

    def test_append_does_not_mutate_caller_record(self):
        log = BucketLog(make_disk())
        record = {"op": "a"}
        log.append(record)
        assert record == {"op": "a"}

    def test_recover_replays_appends(self):
        disk = make_disk()
        log = BucketLog(disk)
        log.append({"op": "a"})
        log.append({"op": "b"})
        disk.crash()
        state, tail, clean = BucketLog(disk).recover()
        assert state is None
        assert clean
        assert [rec["op"] for rec in tail] == ["a", "b"]

    def test_fsync_interval_batches_durability(self):
        disk = make_disk()
        log = BucketLog(disk, fsync_interval=3)
        for op in "abcde":
            log.append({"op": op})
        disk.crash()  # 'd', 'e' were never fsynced
        _, tail, clean = BucketLog(disk).recover()
        assert clean
        assert [rec["op"] for rec in tail] == ["a", "b", "c"]

    def test_checkpoint_retires_log_and_skips_duplicates(self):
        disk = make_disk()
        log = BucketLog(disk)
        log.append({"op": "a"})
        log.checkpoint({"kind": "data", "count": 1})
        log.append({"op": "b"})
        disk.crash()
        state, tail, clean = BucketLog(disk).recover()
        assert clean
        assert state["count"] == 1
        assert state["lsn"] == 1
        assert [rec["op"] for rec in tail] == ["b"]

    def test_recover_resumes_lsn_past_checkpoint_highwater(self):
        disk = make_disk()
        log = BucketLog(disk)
        log.append({"op": "a"})
        log.checkpoint({"kind": "data"})
        disk.crash()
        replay = BucketLog(disk)
        replay.recover()
        assert replay.append({"op": "b"}) == 2

    def test_torn_wal_reports_unclean(self):
        disk = make_disk({"torn_write": 1.0}, seed=11)
        log = BucketLog(disk, fsync_interval=10)
        log.append({"op": "a"})
        log.sync()
        log.append({"op": "doomed-but-long-enough-to-tear"})
        disk.crash()
        _, tail, clean = BucketLog(disk).recover()
        assert not clean
        assert [rec["op"] for rec in tail] == ["a"]

    def test_rotted_wal_reports_unclean(self):
        disk = make_disk({"bitrot": 1.0, "bitrot_flips": 8}, seed=13)
        log = BucketLog(disk)
        for op in "abcdef":
            log.append({"op": op, "pad": b"x" * 32})
        disk.crash()
        _, tail, clean = BucketLog(disk).recover()
        # flips landed in the only non-empty durable file: the log
        assert not clean
        assert [rec["op"] for rec in tail] == list("abcdef")[:len(tail)]


# ----------------------------------------------------------------------
# the crash sweep (acceptance bar)
# ----------------------------------------------------------------------
RECORDS = st.lists(
    st.fixed_dictionaries(
        {
            "op": st.sampled_from(["insert", "update", "delete"]),
            "key": st.integers(0, 99),
            "delta": st.binary(max_size=12),
        }
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=60, deadline=None)
@given(
    records=RECORDS,
    fsync_interval=st.integers(1, 5),
    checkpoint_every=st.integers(0, 7),
)
def test_crash_at_every_boundary_replays_exactly_durable_prefix(
    records, fsync_interval, checkpoint_every
):
    """Crash after every single append: replay ≡ durable prefix.

    For each crash point the durable prefix is computed from first
    principles — every record up to the last fsync barrier (interval
    boundary, explicit checkpoint, or both) — and replay must produce
    exactly that sequence: nothing beyond it (no resurrecting unsynced
    appends), nothing torn, and the checkpoint state folded in.
    """
    for crash_after in range(len(records) + 1):
        disk = SimDisk("sweep", rng=disk_rng(1, "sweep"))
        log = BucketLog(disk, fsync_interval=fsync_interval)
        durable = 0  # records protected by the last fsync barrier
        checkpointed = 0  # records folded into the checkpoint state
        since_sync = 0
        for i, record in enumerate(records[:crash_after]):
            log.append(record)
            since_sync += 1
            if since_sync >= fsync_interval:
                durable = i + 1
                since_sync = 0
            if checkpoint_every and (i + 1) % checkpoint_every == 0:
                log.checkpoint({"applied": i + 1})
                durable = checkpointed = i + 1
                since_sync = 0
        disk.crash()

        state, tail, clean = BucketLog(disk).recover()
        assert clean  # no torn-write rule: the prefix ends exactly
        replayed = (state["applied"] if state is not None else 0) + len(tail)
        assert replayed == durable
        assert (state is None) == (checkpointed == 0)
        expected_tail = records[checkpointed:durable]
        assert [
            {k: rec[k] for k in ("op", "key", "delta")} for rec in tail
        ] == expected_tail
