"""Tests for signature-based scrubbing: detect, localize, repair."""

import pytest

from repro.core import LHRSConfig, LHRSFile
from repro.sim.rng import make_rng


def build(k=2, count=200, capacity=8, seed=27, **kw):
    file = LHRSFile(
        LHRSConfig(group_size=4, availability=k, bucket_capacity=capacity, **kw)
    )
    rng = make_rng(seed)
    keys = [int(x) for x in rng.choice(10**9, size=count, replace=False)]
    for key in keys:
        file.insert(key, key.to_bytes(8, "big") * 3)
    return file, keys


def corrupt_data_record(file, bucket):
    """Silently flip bytes in one stored record (bit rot)."""
    server = file.data_servers()[bucket]
    key = next(iter(server.bucket.records))
    payload = bytearray(server.bucket.records[key])
    payload[0] ^= 0xFF
    payload[-1] ^= 0x0F
    server.bucket.records[key] = bytes(payload)
    return key, server.ranks[key]


def corrupt_parity_record(file, group, index):
    server = file.parity_servers(group)[index]
    rank = next(iter(server._store))
    # Flip bits in the *stored* symbols: the row view writes into the
    # bucket's matrix, so the rot lands in place, where dumps and scans
    # read.
    server._store.view(rank)[0] ^= 0x3C
    return rank


class TestAuditDetection:
    def test_clean_file_audits_clean(self):
        file, _ = build()
        report = file.audit()
        assert report["clean"] and report["reports"] == []

    def test_detects_data_corruption(self):
        file, _ = build()
        key, rank = corrupt_data_record(file, bucket=1)
        report = file.audit_group(0)
        assert not report["clean"]
        assert rank in report["mismatched_ranks"]

    def test_localizes_data_corruption_with_k2(self):
        file, _ = build(k=2)
        key, rank = corrupt_data_record(file, bucket=2)
        report = file.audit_group(0)
        assert report["suspects"][rank] == 2  # position of bucket 2

    def test_localizes_parity_corruption(self):
        file, _ = build(k=2)
        rank = corrupt_parity_record(file, group=0, index=1)
        report = file.audit_group(0)
        assert rank in report["mismatched_ranks"]
        assert report["suspects"][rank] == 4 + 1  # m + parity index

    def test_k1_detects_but_cannot_localize(self):
        file, _ = build(k=1)
        _, rank = corrupt_data_record(file, bucket=0)
        report = file.audit_group(0)
        assert rank in report["mismatched_ranks"]
        assert report["suspects"][rank] is None

    def test_audit_file_scans_every_group(self):
        file, _ = build()
        groups = sorted(file.group_levels())
        corrupt_data_record(file, bucket=groups[-1] * 4)
        report = file.audit()
        assert not report["clean"]
        assert report["reports"][0]["group"] == groups[-1]

    def test_audit_moves_constant_bytes_per_record(self):
        """The scrub's selling point: wire bytes ≪ a full dump (the gap
        is the payload size; signatures are constant-size)."""
        file = LHRSFile(LHRSConfig(group_size=4, availability=2,
                                   bucket_capacity=32))
        rng = make_rng(28)
        for key in rng.choice(10**9, size=400, replace=False):
            file.insert(int(key), int(key).to_bytes(8, "big") * 40)  # 320 B
        with file.stats.measure("audit") as audit_w:
            file.audit_group(0)
        coordinator = file.rs_coordinator
        with file.stats.measure("dump") as dump_w:
            for bucket in range(4):
                coordinator.call(f"f.d{bucket}", "bucket.dump")
        assert audit_w.bytes < dump_w.bytes / 3


class TestRepair:
    def test_repair_data_corruption(self):
        file, _ = build(k=2)
        key, rank = corrupt_data_record(file, bucket=1)
        report = file.audit_group(0)
        position = report["suspects"][rank]
        file.repair_corruption(0, position)
        assert file.audit_group(0)["clean"]
        assert file.search(key).value == key.to_bytes(8, "big") * 3
        assert file.verify_parity_consistency() == []

    def test_repair_parity_corruption(self):
        file, _ = build(k=2)
        rank = corrupt_parity_record(file, group=1, index=0)
        report = file.audit_group(1)
        file.repair_corruption(1, report["suspects"][rank])
        assert file.audit_group(1)["clean"]
        assert file.verify_parity_consistency() == []

    def test_scrub_loop_heals_scattered_corruption(self):
        """The operational loop: audit -> repair every finding -> clean."""
        file, _ = build(k=2, count=300)
        groups = sorted(file.group_levels())
        corrupt_data_record(file, bucket=0)
        corrupt_data_record(file, bucket=groups[1] * 4 + 1)
        corrupt_parity_record(file, group=groups[2], index=1)
        report = file.audit()
        assert not report["clean"]
        for group_report in report["reports"]:
            positions = {
                p for p in group_report["suspects"].values() if p is not None
            }
            for position in positions:
                file.repair_corruption(group_report["group"], position)
        assert file.audit()["clean"]
        assert file.verify_parity_consistency() == []

    def test_lazy_mode_audit_flushes_first(self):
        file, keys = build(k=2)
        # A fresh write's Δ is at parity before the audit can look.
        file.update(keys[0], b"freshly-written-update!")
        assert file.audit()["clean"]
