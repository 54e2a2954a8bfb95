"""Tests for the LH*g record-grouping baseline (the predecessor scheme)."""

import pytest

from repro.baselines import LHGConfig, LHGFile
from repro.baselines.lhg import decode_group_key, encode_group_key, xor_into
from repro.sdds.server import DataServer
from repro.sim.rng import make_rng


def build(count=250, group_size=4, capacity=8, seed=6):
    file = LHGFile(LHGConfig(group_size=group_size, bucket_capacity=capacity))
    rng = make_rng(seed)
    keys = [int(x) for x in rng.choice(10**9, size=count, replace=False)]
    for key in keys:
        file.insert(key, key.to_bytes(8, "big") * 2)
    return file, keys


class TestGroupKeys:
    def test_encode_decode(self):
        gkey = encode_group_key(5, 123)
        assert decode_group_key(gkey) == (5, 123)

    def test_rank_space_guard(self):
        with pytest.raises(ValueError):
            encode_group_key(0, 1 << 30)

    def test_xor_into_grows(self):
        acc = bytearray(b"\x01")
        xor_into(acc, b"\x01\x02")
        assert acc == bytearray(b"\x00\x02")


class TestStructure:
    def test_parity_consistent_after_growth(self):
        file, _ = build()
        assert file.verify_parity_consistency() == []

    def test_group_keys_invariant_under_splits(self):
        """Moved records keep their insert-time group; so some records'
        group differs from their current bucket's group (impossible
        before any split)."""
        file, _ = build()
        moved = 0
        for server in file.data_servers():
            for key, (gkey, _) in server.bucket.records.items():
                group, _rank = decode_group_key(gkey)
                if group != server.number // 4:
                    moved += 1
        assert moved > 0

    def test_members_of_group_in_distinct_buckets(self):
        """Proposition 1 of the LH*g paper."""
        file, _ = build()
        location: dict[int, int] = {}
        groups: dict[int, list[int]] = {}
        for server in file.data_servers():
            for key, (gkey, _) in server.bucket.records.items():
                location[key] = server.number
                groups.setdefault(gkey, []).append(key)
        for gkey, members in groups.items():
            buckets = [location[k] for k in members]
            assert len(buckets) == len(set(buckets)), (gkey, buckets)

    def test_group_size_bounds_members(self):
        file, _ = build()
        for server in file.parity_servers():
            for record in server.bucket.records.values():
                assert 1 <= len(record.keys) <= 4

    def test_parity_file_splits_as_it_grows(self):
        file, _ = build(count=600)
        assert file.parity_coordinator.state.bucket_count > 1
        assert file.verify_parity_consistency() == []

    def test_storage_overhead_near_one_over_group_size(self):
        file, _ = build(count=800, capacity=16)
        assert file.storage_overhead() == pytest.approx(1 / 4, rel=0.55)


class TestOperations:
    def test_search_update_delete(self):
        file, keys = build()
        assert file.search(keys[0]).value == keys[0].to_bytes(8, "big") * 2
        file.update(keys[0], b"changed!")
        assert file.search(keys[0]).value == b"changed!"
        file.delete(keys[1])
        assert not file.search(keys[1]).found
        assert file.verify_parity_consistency() == []

    def test_scan(self):
        file, keys = build(count=100)
        result = file.scan()
        assert result.complete
        assert sorted(k for k, _ in result.records) == sorted(keys)

    def test_splits_send_no_parity_messages(self):
        """The scheme's hallmark: a split is parity-silent."""
        file, _ = build(count=100)
        coordinator = file.coordinator
        with file.stats.measure("split") as window:
            coordinator.split_once()
        assert window.by_kind.get("gparity.apply", 0) == 0
        assert file.verify_parity_consistency() == []


class TestRecovery:
    def test_primary_bucket_recovery(self):
        file, keys = build()
        victims = {k: file.search(k).value
                   for k in keys if file.find_bucket_of(k) == 2}
        node = file.fail_data_bucket(2)
        file.recover([node])
        for key, value in victims.items():
            assert file.search(key).value == value
        assert file.verify_parity_consistency() == []

    def test_recovery_scans_whole_parity_file(self):
        """LH*g's recovery cost: a scan of all of F2 (vs LH*RS's m-1+k
        group-local reads)."""
        file, _ = build(count=600)
        parity_buckets = file.parity_coordinator.state.bucket_count
        assert parity_buckets > 1
        node = file.fail_data_bucket(2)
        with file.stats.measure("recovery") as window:
            file.recover([node])
        assert window.by_kind["gparity.scan_for_bucket"] >= 1
        assert window.by_kind["gparity.scan_for_bucket.reply"] == parity_buckets

    def test_a_resent_split_brings_back_no_old_value(self, monkeypatch):
        """m = 2, b = 4, keys 0–39, then key 15 updated: a second
        delivery of the last split's ``records.bulk`` must not put the
        old value back — before or after a rebuild of its bucket, whose
        parity holds the update."""
        file = LHGFile(LHGConfig(group_size=2, bucket_capacity=4))
        moves = []
        handle = DataServer.handle_records_bulk

        def spy(server, message):
            moves.append(message)
            return handle(server, message)

        monkeypatch.setattr(DataServer, "handle_records_bulk", spy)
        for key in range(40):
            file.insert(key, b"v%d" % key)
        monkeypatch.undo()
        file.update(15, b"newer")
        last = moves[-1]
        assert 15 in dict(last.payload["records"])
        file.network.send(last.sender, last.recipient, last.kind, last.payload)
        assert file.search(15).value == b"newer"
        assert file.verify_parity_consistency() == []
        file.recover([file.fail_data_bucket(file.find_bucket_of(15))])
        assert file.search(15).value == b"newer"

    def test_parity_bucket_recovery(self):
        file, keys = build(count=600)
        node = file.fail_parity_bucket(0)
        file.recover([node])
        assert file.verify_parity_consistency() == []

    def test_degraded_read_through_client(self):
        file, keys = build()
        target = next(k for k in keys if file.find_bucket_of(k) == 1)
        node = file.fail_data_bucket(1)
        outcome = file.search(target)
        assert outcome.found
        assert outcome.value == target.to_bytes(8, "big") * 2
        assert file.network.is_available(node)

    def test_certain_miss_during_unavailability(self):
        file, _ = build()
        absent = 10**9 + 13
        file.fail_data_bucket(file.find_bucket_of(absent))
        assert not file.search(absent).found

    def test_two_failures_sharing_a_record_group_fatal(self):
        """1-availability: LH*g cannot recover two buckets whose records
        share a record group (contrast with LH*RS k≥2).  §2.7 of the
        paper: only "good cases" — no group spanning both losses — are
        recoverable under multiple failures."""
        from repro.sim.network import NodeUnavailable

        file, _ = build()
        # Oracle: find a record group with >= 2 members and fail the two
        # buckets currently holding them.
        location = {}
        for server in file.data_servers():
            for key in server.bucket.records:
                location[key] = server.number
        spanning = next(
            record
            for server in file.parity_servers()
            for record in server.bucket.records.values()
            if len(record.keys) >= 2
        )
        members = list(spanning.keys)[:2]
        b1, b2 = location[members[0]], location[members[1]]
        assert b1 != b2  # Proposition 1
        file.fail_data_bucket(b1)
        file.fail_data_bucket(b2)
        with pytest.raises((NodeUnavailable, RuntimeError)):
            file.recover([f"g.d{b1}", f"g.d{b2}"])

    def test_mutation_during_unavailability_recovers_first(self):
        file, keys = build()
        target = next(k for k in keys if file.find_bucket_of(k) == 3)
        file.fail_data_bucket(3)
        file.update(target, b"updated-during-failure")
        assert file.search(target).value == b"updated-during-failure"
        assert file.verify_parity_consistency() == []

    def test_parity_failure_healed_on_mutation(self):
        file, keys = build()
        # Pick a key whose parity record lives in the bucket we fail.
        victim_server = file.parity_servers()[0]
        record = next(iter(victim_server.bucket.records.values()))
        target = next(iter(record.keys))
        node = file.fail_parity_bucket(0)
        file.update(target, b"poke-parity")
        assert file.network.is_available(node)
        assert file.verify_parity_consistency() == []
