"""Tests of the LH*RS recovery machinery.

DESIGN.md invariant 4: fail any ≤ k buckets per group — data, parity or
both — recover, and the file is byte-identical to before, including
ranks, counters and parity.  Beyond k, recovery fails loudly (never a
silent loss).  Degraded reads serve searches while buckets are down.
"""

import copy
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LHRSConfig, LHRSFile, RecoveryError
from repro.core.recovery import RecoveryPacer, parse_node_id, reconstruct_state
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


def parity_rows(image):
    """A parity store image row for row, by rank: each rank's key and
    length directory row and its stripe without the zero padding (a
    stripe's extent keeps the longest Δ it ever folded, which a rebuild
    from the current members cannot know, and what a row holds past its
    members' lengths is zero)."""
    slots, ranks = image["slots"], list(image["rank_of"])
    stride = len(image["matrix"]) // max(1, len(ranks))
    return {
        rank: (
            list(image["dir_keys"][row * slots : (row + 1) * slots]),
            list(image["dir_lengths"][row * slots : (row + 1) * slots]),
            image["matrix"][row * stride : (row + 1) * stride].rstrip(b"\0"),
        )
        for row, rank in enumerate(ranks) if rank >= 0
    }


def check_rank_bookkeeping(file):
    for server in file.data_servers():
        used = set(server.ranks.values())
        free = set(server._free_ranks)
        assert not used & free
        assert used | free == set(range(1, len(server._key_at)))
        assert server._key_at[0] is None
        assert {
            rank: key for rank, key in enumerate(server._key_at)
            if key is not None
        } == {rank: key for key, rank in server.ranks.items()}


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

    def test_vandermonde_single_loss_decodes_the_records(self):
        """The Vandermonde ablation's parity row 0 is not all ones: a
        single data loss must not ride the XOR fast path, neither in a
        degraded read nor in the rebuild."""
        file, keys = build_file(k=2, generator="vandermonde",
                                auto_recover=False)
        before = snapshot(file)
        node = file.fail_data_bucket(1)
        for key in (k for k in keys if file.find_bucket_of(k) == 1):
            assert file.recover_record(key) == (True, value_of(key))
        file.recover([node])
        assert snapshot(file) == before
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
        # Only raise when the record group actually spans both buckets;
        # find such a key.
        groups = map(parity_sees._store.snapshot, parity_sees._store)
        spanning = next(
            (rec for rec in groups if 0 in rec["keys"] and 1 in rec["keys"]),
            None,
        )
        if spanning is None:
            pytest.skip("no record group spans buckets 0 and 1 in this build")
        with pytest.raises(RecoveryError):
            file.recover_record(spanning["keys"][0])


def value_of(key):
    return key.to_bytes(8, "big") * 3


def directory(file, key, index=0):
    """``(rank, pos, listed)``: where parity bucket ``index`` of the
    key's group files it, and the positions its directory lists there."""
    m = file.config.group_size
    server = file.parity_servers(file.find_bucket_of(key) // m)[index]
    rank, pos = server._key_index[key]
    return rank, pos, set(server._store.snapshot(rank)["keys"])


def degraded_search(file, key):
    """A client search of ``key`` while its bucket is down, measured."""
    with file.stats.measure("degraded") as window:
        outcome = file.search(key)
    assert outcome.found and outcome.value == value_of(key)
    return window


def kinds(window):
    return {kind: count for kind, count in window.by_kind.items() if count}


class TestDegradedReadProtocol:
    """A degraded read is one ``parity.recover`` call to the group's
    first live parity bucket, which multicasts ``record.rank`` to the
    survivors its directory lists and adds a ``parity.rank`` share per
    member down or fenced."""

    def build(self, k=2, **kw):
        return build_file(k=k, auto_recover=False, **kw)

    def test_a_single_loss_costs_five_plus_r(self):
        file, keys = self.build()
        file.fail_data_bucket(0)
        seen = set()
        for key in (k for k in keys if file.find_bucket_of(k) == 0):
            _, pos, listed = directory(file, key)
            r = len(listed - {pos})
            window = degraded_search(file, key)
            # report, parity.recover (2), record.rank (1 + r replies), result
            assert window.messages == (5 + r if r else 4)
            assert kinds(window) == {
                "report.unavailable": 1, "parity.recover": 1,
                "parity.recover.reply": 1, "search.result": 1,
                **({"record.rank": 1, "record.rank.reply": r} if r else {}),
            }
            seen.add(r)
        assert {1, 2, 3} <= seen

    @pytest.mark.parametrize("down", [2, 3])
    def test_each_further_loss_adds_one_parity_rank_round_trip(self, down):
        file, keys = self.build(k=3)
        for bucket in range(down):
            file.fail_data_bucket(bucket)
        lost = set(range(down))
        key = next(  # a group with every lost member and a survivor
            k for k in keys if file.find_bucket_of(k) == 0
            and lost < directory(file, k)[2]
        )
        _, _, listed = directory(file, key)
        r = len(listed - lost)  # the listed survivors still up
        window = degraded_search(file, key)
        assert kinds(window)["parity.rank"] == down - 1
        assert kinds(window).get("record.rank.reply", 0) == r
        assert window.messages == 5 + r + 2 * (down - 1)

    def test_a_certain_miss_stays_at_four_messages(self):
        file, _ = self.build()
        file.fail_data_bucket(0)
        absent = next(
            key for key in range(10**9, 10**9 + 10**5)
            if file.find_bucket_of(key) == 0
        )
        with file.stats.measure("miss") as window:
            assert not file.search(absent).found
        assert window.messages == 4
        assert "record.rank" not in kinds(window)

    def test_with_parity_zero_down_parity_one_serves(self):
        file, keys = self.build()
        key = next(k for k in keys if file.find_bucket_of(k) == 0)
        file.fail_data_bucket(0)
        file.fail_parity_bucket(0, 0)
        served = served_by(file, key)
        assert served == [1]

    @pytest.mark.parametrize("fault", ["fenced", "dropped"])
    def test_a_failed_call_moves_to_the_next_parity_bucket(self, fault):
        """Only the call itself failing sends the coordinator on: a
        fenced parity bucket 0 refuses it, or the request is lost."""
        import numpy as np

        from repro.sim import FaultPlane

        file, keys = self.build()
        key = next(k for k in keys if file.find_bucket_of(k) == 0)
        file.fail_data_bucket(0)
        if fault == "fenced":
            file.parity_servers(0)[0].fenced = True
        else:
            plane = FaultPlane(rng=np.random.default_rng(0))
            plane.add_rule(kinds={"parity.recover"}, recipient="f.p0.0",
                           drop=1.0)
            file.network.install_fault_plane(plane)
        assert served_by(file, key) == [1]

    @pytest.mark.parametrize("fault", ["down", "fenced"])
    def test_a_member_down_or_fenced_is_replaced_by_a_parity_rank_share(
        self, fault
    ):
        file, keys = self.build()
        file.fail_data_bucket(0)
        key = next(
            k for k in keys if file.find_bucket_of(k) == 0
            and {0, 1} <= directory(file, k)[2]
        )
        if fault == "down":
            file.fail_data_bucket(1)
        else:
            file.data_servers()[1].fenced = True
        _, _, listed = directory(file, key)
        window = degraded_search(file, key)
        assert kinds(window)["parity.rank"] == 1
        assert kinds(window).get("record.rank.reply", 0) == len(listed) - 2

    def test_a_directory_and_bucket_key_mismatch_raises(self):
        file, keys = self.build()
        file.fail_data_bucket(0)
        key = next(
            k for k in keys if file.find_bucket_of(k) == 0
            and 1 in directory(file, k)[2]
        )
        rank, _, _ = directory(file, key)
        # bucket 1 swaps the ranks of two of its records behind the
        # parity buckets' back
        server = file.data_servers()[1]
        other = next(r for r in server.ranks.values() if r != rank)
        at = server._key_at
        at[rank], at[other] = at[other], at[rank]
        server.ranks.update({at[rank]: rank, at[other]: other})
        with pytest.raises(RecoveryError, match="but the bucket denies it"):
            file.recover_record(key)


def served_by(file, key):
    """The indices of the parity buckets whose ``parity.recover`` ran
    for one degraded read of ``key`` (which must come back right)."""
    from repro.core.parity_bucket import ParityServer

    served = []
    real = ParityServer.handle_parity_recover

    def spy(self, message):
        served.append(self.index)
        return real(self, message)

    with mock.patch.object(ParityServer, "handle_parity_recover", spy):
        assert file.recover_record(key) == (True, value_of(key))
    return served


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


def data_rows(content):
    """A data bucket's image by rank (its rank counter and free ranks
    follow from the ranks, so no image carries them)."""
    return {
        "records": dict(
            zip(content["ranks"], zip(content["keys"], content["payloads"]))
        ),
        "level": content["level"], "parity_seq": content["parity_seq"],
    }


def image_of(file, node_id):
    """The bucket at ``node_id`` as its kind's dump has it, row for row
    by rank (a parity bucket's untouched channels left out)."""
    server = file.network.nodes[node_id]
    if node_id.startswith("f.d"):
        return data_rows(server._content())
    dump = server.handle_parity_dump(None)
    return parity_rows(dump["store"]), {
        pos: seq for pos, seq in dump["expected_seqs"].items() if seq != 1
    }


def records_in(file, node_id):
    server = file.network.nodes[node_id]
    return len(server.bucket if node_id.startswith("f.d") else server._store)


GROUP = [f"f.d{b}" for b in range(4)] + ["f.p0.0", "f.p0.1"]
#: every loss pattern up to k = 2 of one group: data only, parity only, mixed
PATTERNS = [
    list(lost) for size in (1, 2) for lost in combinations(GROUP, size)
]


@st.composite
def group_histories(draw):
    """Inserts, updates and deletes over one group's keys: empty and
    mixed-length payloads, rows freed by deletes."""
    return draw(st.lists(
        st.tuples(
            st.sampled_from(["insert", "insert", "update", "delete"]),
            st.integers(0, 40),
            st.binary(max_size=24),
        ),
        max_size=80,
    ))


class TestRebuildIsTheLostImage:
    """A rebuild decodes columns into the lost bucket's image: every
    loss pattern up to k, and the parity bucket a raise adds."""

    @settings(max_examples=40, deadline=None)
    @given(
        history=group_histories(),
        width=st.sampled_from([8, 16]),
        compact=st.booleans(),
    )
    def test_every_loss_pattern(self, history, width, compact):
        file = LHRSFile(LHRSConfig(
            group_size=4, availability=2, bucket_capacity=64,
            field_width=width, compact_ranks=compact, recovery_pace_rate=1e9,
        ))
        for action, key, value in history:
            if action == "insert":
                file.insert(key, value)
            elif file.search(key).found:
                getattr(file, action)(*((key, value) if action == "update" else (key,)))
        assert file.bucket_count == 4  # one group, no split
        for lost in PATTERNS:
            before = {node: image_of(file, node) for node in lost}
            moved = sum(max(1, records_in(file, node)) for node in GROUP)
            charged = []
            real = RecoveryPacer.pace
            with mock.patch.object(
                RecoveryPacer, "pace",
                lambda pacer, cost=1.0: charged.append(cost) or real(pacer, cost),
            ):
                for node in lost:
                    file.network.fail(node)
                file.recover(lost)
            assert {node: image_of(file, node) for node in lost} == before
            # survivors dumped, rebuilt buckets loaded: records moved
            assert sum(charged) == moved
            assert file.verify_parity_consistency() == []
        file.rs_coordinator.raise_group_level(0, 3)
        assert file.verify_parity_consistency() == []
        raised = image_of(file, "f.p0.2")
        file.network.fail("f.p0.2")
        file.recover(["f.p0.2"])
        assert image_of(file, "f.p0.2") == raised
        assert file.verify_parity_consistency() == []

    def test_a_dump_is_a_copy(self):
        """Folding a Δ into a survivor after its dump leaves the dump as
        it was shipped."""
        file = one_group()
        for key in range(40):
            file.insert(key, b"v%d" % key)
        net, coordinator = file.network, file.rs_coordinator.node_id
        dumps = {
            node: net.call(coordinator, node, kind)
            for node, kind in (("f.d1", "bucket.dump"), ("f.p0.0", "parity.dump"),
                               ("f.p0.1", "parity.dump"))
        }
        shipped = copy.deepcopy(dumps)
        file.update(keys_in(file, 1, 1)[0], b"folded after the dump" * 4)
        file.insert(keys_in(file, 1, 1, start=1000)[0], b"a new rank")
        assert dumps == shipped
        assert net.call(coordinator, "f.p0.0", "parity.dump") != shipped["f.p0.0"]


class TestParityOracle:
    def test_a_wrong_length_cell_is_a_discrepancy(self):
        """The length directory is what a degraded read trims a decode
        to — and a rebuild writes — so the oracle checks it too."""
        file = LHRSFile(LHRSConfig(group_size=4, availability=2, bucket_capacity=8))
        for key in range(40):
            file.insert(key, b"v%d" % key)
        assert file.verify_parity_consistency() == []
        server = file.parity_servers(0)[0]
        # a record whose group holds a longer member: its decode is wider
        key, (rank, pos) = next(
            (key, where) for key, where in sorted(server._key_index.items())
            if max(server._store.snapshot(where[0])["lengths"].values())
            > len(b"v%d" % key)
        )
        store = server._store
        store.length_cells[store._row_of[rank] * store.slots + pos] += 5
        assert file.verify_parity_consistency() == [
            f"group 0 parity 0 rank {rank}: length directory mismatch"
        ]
        file.fail_data_bucket(file.find_bucket_of(key))
        found, value = file.recover_record(key)
        assert found and value != b"v%d" % key
        assert value.startswith(b"v%d" % key) and not value[len(b"v%d" % key):].strip(b"\0")


def one_group(**kw):
    """One full group of four buckets that will not split."""
    return LHRSFile(LHRSConfig(
        group_size=4, availability=2, bucket_capacity=64, **kw
    ))


def keys_in(file, bucket, count, start=0):
    """``count`` fresh keys the file places in ``bucket``."""
    found = []
    key = start
    while len(found) < count:
        if file.find_bucket_of(key) == bucket:
            found.append(key)
        key += 1
    return found


class TestRebuildEdges:
    def test_parity_survivors_with_rows_in_other_orders(self):
        """Each parity bucket numbers its rows as ranks arrive; a rebuilt
        one numbers them in rank order.  The images align by rank."""
        file = one_group()
        first = keys_in(file, 0, 5)
        for key in first:
            file.insert(key, b"first%d" % key)
        for key in first[3:]:  # ranks 4 and 5 release rows 3 and 4
            file.delete(key)
        for key in keys_in(file, 1, 5):  # ranks 4 and 5 take them back
            file.insert(key, b"second%d" % key)
        file.recover([file.fail_parity_bucket(0, 1)])
        rows = [file.network.nodes[f"f.p0.{i}"]._store.dump()["rank_of"]
                for i in (0, 1)]
        assert rows[0] != rows[1] and sorted(rows[0]) == rows[1]
        before = snapshot(file)
        file.recover([file.fail_data_bucket(0), file.fail_data_bucket(1)])
        assert snapshot(file) == before
        assert file.verify_parity_consistency() == []

    def test_a_narrow_parity_survivor_is_padded(self):
        """A long member deleted from a rank its others keep leaves the
        parity extent wide; a parity bucket rebuilt since is as narrow
        as the members left, and the rebuild pads it to the widest."""
        file = one_group()
        key0, key1 = keys_in(file, 0, 1)[0], keys_in(file, 1, 1)[0]
        file.insert(key0, b"x" * 300)
        file.insert(key1, b"short")
        file.delete(key0)
        file.insert(keys_in(file, 2, 1)[0], b"kept")
        file.recover([file.fail_parity_bucket(0, 1)])
        stores = [file.network.nodes[f"f.p0.{i}"]._store for i in (0, 1)]
        assert stores[0].extents.max() > stores[1].width
        file.recover([file.fail_data_bucket(1), file.fail_data_bucket(2)])
        assert file.search(key1).value == b"short"
        assert file.verify_parity_consistency() == []

    def test_a_group_short_of_members(self):
        """The last group of a file holds fewer than m buckets: its
        empty positions are zero shares."""
        file = LHRSFile(LHRSConfig(group_size=4, availability=1, bucket_capacity=4))
        rng = make_rng(5)
        while file.bucket_count % 4 not in (1, 2):
            key = int(rng.integers(10**9))
            file.insert(key, key.to_bytes(8, "big"))
        before = snapshot(file)
        file.recover([file.fail_data_bucket(file.bucket_count - 1)])
        assert snapshot(file) == before
        assert file.verify_parity_consistency() == []

    def test_a_survivor_that_disagrees_stops_the_rebuild(self):
        """A data bucket holding a record its parity never saw is not
        decoded through."""
        file = one_group()
        for key in range(40):
            file.insert(key, b"v%d" % key)
        server = file.data_servers()[1]
        key = next(iter(server.bucket.records))
        server.bucket.records[key] = b"changed behind the parity's back"
        with pytest.raises(RecoveryError, match="disagrees with the parity"):
            file.recover([file.fail_data_bucket(0)])

    def test_parity_directories_that_disagree_stop_the_rebuild(self):
        file = one_group()
        for key in range(40):
            file.insert(key, b"v%d" % key)
        store = file.network.nodes["f.p0.1"]._store
        store.length_cells[1] += 1
        with pytest.raises(RecoveryError, match="directories disagree"):
            file.recover([file.fail_data_bucket(0)])
