"""Idempotent Δ-parity: sequence numbers make retransmission safe.

The fold is its own inverse in GF(2^w), so re-applying a Δ silently
corrupts parity.  These tests pin the regression: a retransmitted Δ
changes parity exactly once, a gap triggers a self-reported rebuild,
and whole workloads under duplicating/dropping fault planes end
parity-consistent.
"""

import numpy as np
import pytest

from repro.core import LHRSConfig, LHRSFile
from repro.core.group import parity_node
from repro.sim import FaultPlane


def make_file(**overrides) -> LHRSFile:
    defaults = dict(group_size=2, availability=1, bucket_capacity=32)
    defaults.update(overrides)
    return LHRSFile(LHRSConfig(**defaults))


def last_op_of(server, key: int, value: bytes) -> dict:
    """Reconstruct the exact Δ message the server just sent for ``key``:
    an insert run of one."""
    return {"runs": [[
        "insert", server.position, server._parity_seq, [key],
        [server.ranks[key]], [value], [len(value)],
    ]]}


class TestDuplicateDelta:
    def test_retransmitted_delta_applies_exactly_once(self):
        file = make_file()
        file.insert(6, b"payload")
        server = file.network.nodes["f.d0"]
        parity = file.network.nodes[parity_node("f", 0, 0)]
        rank = server.ranks[6]
        before = parity.records[rank].parity_bytes(parity.field)

        op = last_op_of(server, 6, b"payload")
        for n in range(1, 4):
            reply = file.network.call(
                server.node_id, parity.node_id, "parity.update", op
            )
            assert reply["status"] == "duplicate"
            assert parity.duplicates_skipped == n
        after = parity.records[rank].parity_bytes(parity.field)
        assert after == before
        assert file.verify_parity_consistency() == []

    def test_gap_triggers_self_reported_rebuild(self):
        file = make_file()
        file.insert(6, b"payload")
        server = file.network.nodes["f.d0"]
        pnode = parity_node("f", 0, 0)

        # A Δ from the future proves earlier traffic was lost: the
        # parity bucket must not apply it, and must get itself rebuilt.
        op = last_op_of(server, 6, b"payload")
        op["runs"][0][2] = server._parity_seq + 5
        file.network.send(server.node_id, pnode, "parity.update", op)
        assert file.rs_coordinator.recovery.groups_recovered == 1
        assert file.verify_parity_consistency() == []
        # The rebuilt bucket resumes the channel where the data left it.
        rebuilt = file.network.nodes[pnode]
        assert rebuilt._expected_seq[server.position] == server._parity_seq + 1

    def test_duplicating_fault_plane_whole_workload(self):
        file = make_file(availability=2)
        plane = FaultPlane(rng=np.random.default_rng(5))
        plane.add_rule(kinds={"parity.update"}, duplicate=1.0)
        file.network.install_fault_plane(plane)

        for key in range(60):
            file.insert(key, bytes([key % 251]) * 9)
        for key in range(0, 60, 3):
            file.update(key, b"updated-" + bytes([key % 251]))
        for key in range(0, 60, 5):
            file.delete(key)

        skipped = sum(p.duplicates_skipped for p in file.parity_servers())
        assert skipped > 0  # the duplicates really arrived and were caught
        assert file.verify_parity_consistency() == []

    def test_dropping_fault_plane_heals_via_stale_reports(self):
        file = make_file(availability=1)
        plane = FaultPlane(rng=np.random.default_rng(11))
        plane.add_rule(kinds={"parity.update"}, drop=0.4)
        file.network.install_fault_plane(plane)

        for key in range(50):
            file.insert(key, bytes([key % 251]) * 7)
        # A silent drop only surfaces at the *next* Δ on that channel;
        # one clean pass over every key closes every channel.
        plane.clear_rules()
        for key in range(50):
            file.update(key, b"final-" + bytes([key % 251]))
        assert file.rs_coordinator.recovery.groups_recovered >= 1
        assert file.verify_parity_consistency() == []

    def test_ack_mode_retries_survive_transient_faults(self):
        file = make_file(availability=2, parity_ack=True,
                         retry_attempts=6, retry_backoff_base=0.25)
        plane = FaultPlane(rng=np.random.default_rng(23))
        # In ack mode the Δ is a call: drops and transient failures both
        # surface at the sender, which retries under backoff.
        plane.add_rule(kinds={"parity.update"}, drop=0.2, fail=0.2)
        file.network.install_fault_plane(plane)

        for key in range(60):
            file.insert(key, bytes([key % 251]) * 5)
        for key in range(0, 60, 2):
            file.update(key, b"v2-" + bytes([key % 251]))
        assert file.verify_parity_consistency() == []

    def test_merge_then_resplit_resets_the_channel(self):
        # A merge dissolves the last bucket; a later split re-creates it
        # as a fresh server whose sequence counter restarts.  The
        # coordinator's parity.reset must have closed the old channel,
        # or every Δ from the successor is skipped as a retransmission.
        file = make_file(group_size=4, availability=1, bucket_capacity=4)
        for key in range(24):
            file.insert(key, bytes([key % 251]) * 6)
        assert file.bucket_count > 5
        while file.bucket_count > 5:
            file.rs_coordinator.merge_once()
        dissolved = file.bucket_count  # the next split re-creates this
        assert file.verify_parity_consistency() == []

        for key in range(100, 140):
            file.insert(key, bytes([key % 251]) * 6)
        assert file.bucket_count > dissolved
        assert file.verify_parity_consistency() == []
        parity = file.network.nodes[parity_node("f", 1, 0)]
        assert parity.duplicates_skipped == 0

    def test_recovered_data_bucket_resumes_sequence(self):
        file = make_file(availability=1)
        for key in range(40):
            file.insert(key, bytes([key % 251]) * 6)
        server = file.network.nodes["f.d0"]
        seq_before = server._parity_seq
        assert seq_before > 0

        file.recover([file.fail_data_bucket(0)])
        rebuilt = file.network.nodes["f.d0"]
        assert rebuilt is not server
        assert rebuilt._parity_seq == seq_before
        # The resumed stream keeps flowing past the surviving parity's
        # expectations without tripping duplicate or gap detection.
        file.insert(1006, b"after-recovery")
        file.update(2, b"post")
        assert file.verify_parity_consistency() == []
        parity = file.network.nodes[parity_node("f", 0, 0)]
        assert parity.gaps_detected == 0
