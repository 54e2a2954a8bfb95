"""Tests of the LH*RS recovery machinery.

DESIGN.md invariant 4: fail any ≤ k buckets per group — data, parity or
both — recover, and the file is byte-identical to before, including
ranks, counters and parity.  Beyond k, recovery fails loudly (never a
silent loss).  Degraded reads serve searches while buckets are down.
"""

import pytest

from repro.core import LHRSConfig, LHRSFile, RecoveryError
from repro.core.recovery import parse_node_id, reconstruct_state
from repro.lh import FileState
from repro.sim.network import NodeUnavailable
from repro.sim.rng import make_rng


def build_file(m=4, k=2, capacity=8, count=250, seed=2, **kw):
    cfg = LHRSConfig(group_size=m, availability=k, bucket_capacity=capacity, **kw)
    file = LHRSFile(cfg)
    rng = make_rng(seed)
    keys = [int(x) for x in rng.choice(10**9, size=count, replace=False)]
    for key in keys:
        file.insert(key, key.to_bytes(8, "big") * 3)
    return file, keys


def snapshot(file):
    """Recovery-fidelity snapshot: records, ranks and levels.

    Counters/free-lists are deliberately excluded: recovery reconstructs
    the *behaviourally equivalent* minimal form (counter = max used
    rank), not the historical one; rank bookkeeping validity is asserted
    separately via check_rank_bookkeeping.
    """
    return file.census_with_ranks(), file.levels_census()


def check_rank_bookkeeping(file):
    for server in file.data_servers():
        used = set(server.ranks.values())
        free = set(server._free_ranks)
        assert not used & free
        assert used | free == set(range(1, server._rank_counter + 1))


class TestSingleDataBucketRecovery:
    def test_explicit_recovery_restores_exact_state(self):
        file, _ = build_file()
        before = snapshot(file)
        node = file.fail_data_bucket(5)
        summary = file.recover([node])
        assert summary == {
            "groups": 1, "data_buckets": 1, "parity_buckets": 0,
            "records": summary["records"],
        }
        assert snapshot(file) == before
        check_rank_bookkeeping(file)
        assert file.verify_parity_consistency() == []

    def test_recovery_restores_free_rank_equivalence(self):
        """Recovered counter/free-list may differ in history but must be
        behaviourally equivalent: next insert gets a sane fresh rank."""
        file, keys = build_file()
        victims = [k for k in keys if file.find_bucket_of(k) == 3][:3]
        for key in victims:
            file.delete(key)
        node = file.fail_data_bucket(3)
        file.recover([node])
        assert file.verify_parity_consistency() == []
        file.insert(10**9 + 123, b"fresh-record")
        assert file.verify_parity_consistency() == []

    def test_operations_work_after_recovery(self):
        file, keys = build_file()
        node = file.fail_data_bucket(2)
        file.recover([node])
        sample = [k for k in keys if file.find_bucket_of(k) == 2][:5]
        for key in sample:
            assert file.search(key).found
        file.update(sample[0], b"post-recovery")
        assert file.search(sample[0]).value == b"post-recovery"
        assert file.verify_parity_consistency() == []

    def test_empty_bucket_recovery(self):
        file, _ = build_file(count=3)  # most buckets empty
        empty = next(
            s.number for s in file.data_servers() if len(s.bucket) == 0
        )
        node = file.fail_data_bucket(empty)
        file.recover([node])
        assert len(file.data_servers()[empty].bucket) == 0
        assert file.verify_parity_consistency() == []


class TestMultiFailureRecovery:
    @pytest.mark.parametrize("buckets", [(0, 1), (1, 3), (0, 2)])
    def test_two_data_buckets_same_group(self, buckets):
        file, _ = build_file(k=2)
        before = snapshot(file)
        nodes = [file.fail_data_bucket(b) for b in buckets]
        file.recover(nodes)
        assert snapshot(file) == before
        check_rank_bookkeeping(file)
        assert file.verify_parity_consistency() == []

    def test_data_plus_parity_same_group(self):
        file, _ = build_file(k=2)
        before = snapshot(file)
        nodes = [file.fail_data_bucket(1), file.fail_parity_bucket(0, 1)]
        file.recover(nodes)
        assert snapshot(file) == before
        check_rank_bookkeeping(file)
        assert file.verify_parity_consistency() == []

    def test_failures_across_groups_recover_independently(self):
        """k failures per group is fine even when many groups are hit."""
        file, _ = build_file(k=1)
        before = snapshot(file)
        nodes = [file.fail_data_bucket(b) for b in (0, 5, 9)]  # 3 groups
        summary = file.recover(nodes)
        assert summary["groups"] == 3
        assert snapshot(file) == before
        check_rank_bookkeeping(file)
        assert file.verify_parity_consistency() == []

    def test_parity_only_recovery_reencodes(self):
        file, _ = build_file(k=2)
        node = file.fail_parity_bucket(1, 0)
        file.recover([node])
        assert file.verify_parity_consistency() == []

    def test_all_parity_of_group_recoverable(self):
        """k parity buckets lost, all data alive: pure re-encode."""
        file, _ = build_file(k=2)
        nodes = [file.fail_parity_bucket(0, 0), file.fail_parity_bucket(0, 1)]
        file.recover(nodes)
        assert file.verify_parity_consistency() == []

    def test_three_availability_three_data_losses(self):
        file, _ = build_file(k=3, count=150)
        before = snapshot(file)
        nodes = [file.fail_data_bucket(b) for b in (0, 1, 2)]
        file.recover(nodes)
        assert snapshot(file) == before
        check_rank_bookkeeping(file)
        assert file.verify_parity_consistency() == []


class TestBeyondAvailability:
    def test_k_plus_one_failures_raise(self):
        file, _ = build_file(k=1)
        file.fail_data_bucket(0)
        file.fail_data_bucket(1)
        with pytest.raises(RecoveryError, match="exceeds availability"):
            file.recover(["f.d0", "f.d1"])

    def test_undeclared_extra_failure_detected(self):
        """Recovery widens to other failed group members it finds."""
        file, _ = build_file(k=1)
        file.fail_data_bucket(0)
        file.fail_data_bucket(2)  # same group, not declared
        with pytest.raises(RecoveryError, match="exceeds availability"):
            file.recover(["f.d0"])

    def test_k0_data_loss_unrecoverable(self):
        file, _ = build_file(k=0)
        file.fail_data_bucket(0)
        with pytest.raises(RecoveryError):
            file.recover(["f.d0"])

    def test_foreign_node_rejected(self):
        file, _ = build_file()
        with pytest.raises(RecoveryError, match="foreign"):
            file.recover(["other.d0"])

    def test_nonexistent_bucket_rejected(self):
        file, _ = build_file()
        with pytest.raises(RecoveryError, match="not an existing member"):
            file.rs_coordinator.recovery.recover_group(0, [999], [])

    def test_bad_parity_index_rejected(self):
        file, _ = build_file(k=1)
        with pytest.raises(RecoveryError, match="beyond"):
            file.rs_coordinator.recovery.recover_group(0, [], [5])


class TestTransparentRecoveryThroughOperations:
    def test_search_triggers_degraded_read_and_recovery(self):
        file, keys = build_file(k=1)
        target = [k for k in keys if file.find_bucket_of(k) == 1][0]
        node = file.fail_data_bucket(1)
        outcome = file.search(target)  # client reports; coordinator serves
        assert outcome.found
        assert outcome.value == target.to_bytes(8, "big") * 3
        assert file.network.is_available(node)  # recovered as a side effect
        assert file.verify_parity_consistency() == []

    def test_search_absent_key_in_failed_bucket_is_certain(self):
        """The parity directory proves absence: unsuccessful search
        terminates correctly during unavailability."""
        file, _ = build_file(k=1)
        absent = 10**9 + 17
        bucket = file.find_bucket_of(absent)
        file.fail_data_bucket(bucket)
        outcome = file.search(absent)
        assert not outcome.found

    def test_insert_into_failed_bucket_recovers_then_applies(self):
        file, keys = build_file(k=1)
        new_key = next(
            k for k in range(10**8, 10**8 + 10**4)
            if file.find_bucket_of(k) == 2 and k not in keys
        )
        file.fail_data_bucket(2)
        file.insert(new_key, b"inserted-while-down")
        assert file.search(new_key).value == b"inserted-while-down"
        assert file.verify_parity_consistency() == []

    def test_update_and_delete_during_unavailability(self):
        file, keys = build_file(k=1)
        target = [k for k in keys if file.find_bucket_of(k) == 3][0]
        file.fail_data_bucket(3)
        file.update(target, b"updated-while-down")
        assert file.search(target).value == b"updated-while-down"
        file.fail_data_bucket(3)
        file.delete(target)
        assert not file.search(target).found
        assert file.verify_parity_consistency() == []

    def test_parity_failure_healed_on_next_mutation(self):
        file, keys = build_file(k=1)
        node = file.fail_parity_bucket(0, 0)
        target = [k for k in keys if file.find_bucket_of(k) == 0][0]
        file.update(target, b"new-value-after-parity-loss")
        assert file.network.is_available(node)
        assert file.verify_parity_consistency() == []

    def test_auto_recover_disabled_blocks_mutations(self):
        file, keys = build_file(k=1, auto_recover=False)
        target = [k for k in keys if file.find_bucket_of(k) == 1][0]
        file.fail_data_bucket(1)
        # Degraded read still works...
        assert file.search(target).found
        # ...but a mutation raises instead of silently recovering.
        with pytest.raises(RecoveryError, match="auto_recover"):
            file.update(target, b"nope")

    def test_degraded_reads_disabled_falls_back_to_recovery(self):
        file, keys = build_file(k=1, degraded_reads=False)
        target = [k for k in keys if file.find_bucket_of(k) == 1][0]
        node = file.fail_data_bucket(1)
        outcome = file.search(target)
        assert outcome.found
        assert file.network.is_available(node)


class TestRecordRecovery:
    def test_direct_record_recovery(self):
        file, keys = build_file(k=2)
        target = [k for k in keys if file.find_bucket_of(k) == 0][0]
        file.config and file.fail_data_bucket(0)
        found, payload = file.recover_record(target)
        assert found and payload == target.to_bytes(8, "big") * 3

    def test_record_recovery_with_second_member_down(self):
        """k=2: the degraded read decodes around two missing members."""
        file, keys = build_file(k=2)
        target = [k for k in keys if file.find_bucket_of(k) == 0][0]
        file.fail_data_bucket(0)
        file.fail_data_bucket(1)
        found, payload = file.recover_record(target)
        assert found and payload == target.to_bytes(8, "big") * 3

    def test_record_recovery_without_parity_errors(self):
        file, keys = build_file(k=0)
        target = keys[0]
        file.fail_data_bucket(file.find_bucket_of(target))
        with pytest.raises(RecoveryError):
            file.recover_record(target)

    def test_record_recovery_beyond_k_errors(self):
        file, keys = build_file(k=1)
        target = [k for k in keys if file.find_bucket_of(k) == 0][0]
        # Ensure decoding is impossible: two data members down at k=1.
        file.fail_data_bucket(0)
        file.fail_data_bucket(1)
        parity_sees = file.parity_servers(0)[0]
        rank = next(
            r for r, rec in parity_sees.records.items()
            if rec.keys.get(0) == file.data_servers() and False
        ) if False else None
        # Only raise when the record group actually spans both buckets;
        # find such a key.
        groups = parity_sees.records
        spanning = next(
            (rec for rec in groups.values() if 0 in rec.keys and 1 in rec.keys),
            None,
        )
        if spanning is None:
            pytest.skip("no record group spans buckets 0 and 1 in this build")
        with pytest.raises(RecoveryError):
            file.recover_record(spanning.keys[0])


class TestFileStateRecovery:
    def test_reconstruct_matches_truth_through_growth(self):
        file, _ = build_file()
        assert file.check_reconstructed_state()
        assert file.reconstruct_file_state() == file.coordinator.state.as_tuple()

    def test_reconstruct_all_levels_equal(self):
        state = FileState(n0=4)
        levels = {m: 0 for m in range(4)}
        assert reconstruct_state(levels, 4) == (0, 0)

    def test_reconstruct_with_boundary(self):
        # n0=1, state (2, 2): buckets 0,1 at level 3; 2,3 at 2; 4,5 at 3.
        levels = {0: 3, 1: 3, 2: 2, 3: 2, 4: 3, 5: 3}
        assert reconstruct_state(levels, 1) == (2, 2)

    def test_reconstruct_with_lost_boundary_bucket(self):
        levels = {0: 3, 1: 3, 3: 2, 4: 3, 5: 3}  # bucket 2 (pointer) lost
        n, i = reconstruct_state(levels, 1)
        assert i == 2
        assert n in (2, 3)  # best effort without the boundary witness

    def test_reconstruct_empty_raises(self):
        with pytest.raises(RecoveryError):
            reconstruct_state({}, 1)


class TestSelfDetectedRecovery:
    def test_rejoin_current(self):
        file, _ = build_file()
        server = file.data_servers()[1]
        reply = server.call(f"{file.file_id}.coord", "rejoin",
                            {"node": server.node_id})
        assert reply["role"] == "current"

    def test_rejoin_after_replacement(self):
        file, _ = build_file()
        old_server = file.data_servers()[1]
        node = file.fail_data_bucket(1)
        file.recover([node])
        # The old server object was replaced; simulate its restart by
        # registering it under a probe id and asking about its old role.
        old_server.node_id = "f.old-d1"
        file.network.register(old_server)
        reply = old_server.call("f.coord", "rejoin", {"node": "f.d1"})
        assert reply["role"] == "spare"


class TestParseNodeId:
    def test_cases(self):
        assert parse_node_id("f", "f.d12") == ("data", 12)
        assert parse_node_id("f", "f.p3.1") == ("parity", 3, 1)
        assert parse_node_id("f", "f.coord") is None
        assert parse_node_id("f", "g.d1") is None
        assert parse_node_id("f", "f.client0") is None
        assert parse_node_id("f", "f.p3") is None


class TestRecoveryCosts:
    def test_single_bucket_recovery_message_shape(self):
        """Messages ≈ 2*(survivors dumped) + 1 load, content ∝ b."""
        file, _ = build_file(k=1, count=400, capacity=16)
        node = file.fail_data_bucket(0)
        with file.stats.measure("recovery") as window:
            file.recover([node])
        m, k = 4, 1
        # dumps: (m-1 data + k parity) calls = 2 msgs each; 1 bulk load.
        assert window.messages == 2 * (m - 1 + k) + 1

    def test_xor_fast_path_used_for_single_loss(self):
        """f=1 with parity 0 alive decodes by XOR (no matrix inversion)."""
        from repro.rs import decoder

        file, _ = build_file(k=1)
        decoder._decode_matrix.cache_clear()
        node = file.fail_data_bucket(0)
        file.recover([node])
        assert decoder._decode_matrix.cache_info().misses == 0


class TestRaiseIsRecoverysEncode:
    """A new parity bucket is built the way a lost one is rebuilt: from
    the members' dumps, delivered by ``parity.load``."""

    def test_one_level_on_a_full_group_message_shape(self):
        file, _ = build_file(k=1, spare_servers=3)
        file.enable_observability(audit=False)
        coordinator = file.rs_coordinator
        with file.stats.measure("raise") as window:
            coordinator.raise_group_level(0, 2)
        m = 4
        assert dict(window.by_kind) == {
            "bucket.dump": m, "bucket.dump.reply": m,
            "parity.load": 1, "config.parity": m,
        }
        # Nothing was lost: no spare, no recovery counted or logged.
        assert coordinator.spares_remaining == 3
        assert coordinator.recovery.groups_recovered == 0
        assert len(coordinator.health_log) == 0
        assert file.tracer.counts.get("recovery.start", 0) == 0
        assert file.verify_parity_consistency() == []

    def test_new_bucket_starts_on_the_members_channels(self):
        """Δs the members already issued arrive as duplicates at the new
        bucket, never as folds."""
        file, _ = build_file(k=1)
        file.rs_coordinator.raise_group_level(0, 3)
        for index in (1, 2):
            new = file.network.nodes[f"f.p0.{index}"]
            assert new._expected_seq == {
                s.position: s._parity_seq + 1 for s in file.data_servers()[:4]
            }
            assert new._expected_seq == file.network.nodes["f.p0.0"]._expected_seq
