"""Restart-with-catch-up: durable buckets rejoin from their own disk.

The tentpole's service-level contract, pinned end to end:

* a crashed bucket replays checkpoint + WAL to its durable prefix,
  reports per-channel sequence high-water to the coordinator, and
  fetches only the missed tail (delta catch-up) — no acked op is lost
  even when the WAL's unsynced tail died with the crash;
* a WAL that is torn, bit-rotted, or behind what the survivors demand
  falls back to the full RS rebuild, loudly (`catchup.fallback`);
* epoch fencing: a restarted bucket whose incarnation does not match
  the coordinator's fence can never serve reads or accept Δs — clients
  route around it through the degraded path until catch-up completes;
* `heal()` routes restored nodes through the rejoin handshake;
* in-flight payload corruption (the `corrupt` fault mode) is caught by
  the algebraic-signature audit and healed by `repair_corruption`;
* with every durability knob off, traces stay byte-identical run to
  run and contain no durable-plane event types at all.
"""

import gc
import itertools
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.check.soak import ExpectedState, settle, verify
from repro.core import LHRSConfig, LHRSFile
from repro.core.data_bucket import RSDataServer
from repro.core.parity_bucket import ParityServer
from repro.gf import GF
from repro.rs.generator import parity_matrix
from repro.sim import FaultPlane, Network
from repro.sim.network import NodeUnavailable
from repro.sim.stats import LatencyModel
from repro.store.simdisk import DiskError
from repro.core.stripe_store import NO_KEY
from repro.store import codec, decode_blob, encode_blob
from tests.core.test_parity_bucket import (
    MISS,
    Coord,
    Probe,
    as_blocks,
    delivery_schedule,
    dumped_records,
    delta_streams,
    lone_parity,
    op,
    recover,
    seq_op,
)


def build(durability=True, count=40, k=2, capacity=16, observe=True, **kw):
    config = LHRSConfig(
        group_size=4,
        availability=k,
        bucket_capacity=capacity,
        parity_ack=True,
        client_acks=True,
        durability=durability,
        **kw,
    )
    file = LHRSFile(config)
    tracer = None
    if observe:
        tracer, _, _ = file.enable_observability()
    for key in range(count):
        file.insert(key, b"v%d" % key)
    return file, tracer


def assert_all_readable(file, count=40):
    for key in range(count):
        outcome = file.search(key)
        assert outcome.found and outcome.value == b"v%d" % key, key


class TestDataRestartCatchUp:
    def test_clean_restart_catches_up_without_rebuild(self):
        file, tracer = build()
        file.failures.crash(["f.d1"])
        file.failures.heal(["f.d1"])
        server = file.network.nodes["f.d1"]
        assert not server.fenced
        assert tracer.counts.get("bucket.restart") == 1
        assert tracer.counts.get("catchup.data") == 1
        assert tracer.counts.get("catchup.fallback") is None
        assert_all_readable(file)
        assert file.verify_parity_consistency() == []

    def test_unsynced_wal_tail_refetched_from_parity(self):
        """fsync_interval > 1: the crash eats acked appends beyond the
        last barrier; the restarted bucket must pull exactly that missed
        tail back from the parity Δ-history — zero acked ops lost."""
        file, tracer = build(wal_fsync_interval=8)
        file.failures.crash(["f.d2"])
        file.failures.heal(["f.d2"])
        assert tracer.counts.get("catchup.data") == 1
        assert tracer.counts.get("catchup.fallback") is None
        assert_all_readable(file)
        assert file.verify_parity_consistency() == []

    def test_a_lost_tail_comes_back_as_runs_not_records(self):
        """The parity ring hands the restarted bucket the runs it issued
        and lost: one ``runs.catchup``, no record recovery per missed
        key (a parity.recover, its multicast and rank reads each)."""
        file, tracer = build(wal_fsync_interval=8)
        with file.stats.measure("catchup") as window:
            file.failures.crash(["f.d2"])
            file.failures.heal(["f.d2"])
        assert not {"parity.recover", "record.rank", "parity.rank"} & {
            kind for kind, count in window.by_kind.items() if count
        }
        assert window.by_kind["runs.catchup"] == 1
        (event,) = [e for e in tracer.events if e.type == "catchup.data"]
        assert event.attrs["applied"] > 0
        assert tracer.counts.get("catchup.fallback") is None
        assert_all_readable(file)
        assert file.verify_parity_consistency() == []

    def test_deltas_the_bucket_holds_are_not_replayed_twice(self):
        """A ``runs.catchup`` whose first run starts at the fenced
        bucket's durable prefix: that update Δ is an XOR the bucket
        already applied, so it is dropped and only the lost ones
        replay."""
        file, _ = build(wal_fsync_interval=10**6)
        server = file.network.nodes["f.d1"]
        key = next(k for k in range(40) if file.find_bucket_of(k) == 1)
        file.update(key, b"first")
        server.checkpoint_now()  # the update is durable, the next two not
        disk_seq = server._parity_seq
        file.update(key, b"second value")
        file.update(key, b"3rd")
        server._durable.rejoin = lambda payload: None  # no coordinator
        file.network.fail("f.d1")
        file.network.restore("f.d1")
        assert server.fenced and server._parity_seq == disk_seq
        coordinator = file.rs_coordinator.node_id
        tail = file.network.call(coordinator, "f.p0.0", "runs.tail",
                                 {"after": disk_seq - 1, "pos": server.position})
        assert tail["covered"] and tail["runs"][0][2] == disk_seq
        file.network.call(coordinator, "f.d1", "runs.catchup",
                          {"runs": tail["runs"]})
        assert not server.fenced and server._parity_seq == disk_seq + 2
        assert file.search(key).value == b"3rd"
        assert file.verify_parity_consistency() == []

    def test_delta_channel_numbering_survives_restart(self):
        """After catch-up the bucket resumes its Δ-sequence past the
        high-water the parities saw — fresh mutations must not reuse or
        skip sequence numbers (either would wedge the channel)."""
        file, tracer = build(wal_fsync_interval=8)
        file.failures.crash(["f.d1"])
        file.failures.heal(["f.d1"])
        for key in range(100, 115):
            file.insert(key, b"w%d" % key)
        for key in range(100, 115):
            outcome = file.search(key)
            assert outcome.found and outcome.value == b"w%d" % key
        assert file.verify_parity_consistency() == []
        # the fresh traffic went through the Δ channel, not a rebuild
        assert tracer.counts.get("catchup.fallback") is None

    def test_repeated_restarts_of_same_bucket(self):
        file, tracer = build(wal_fsync_interval=4)
        for round_ in range(3):
            file.failures.crash(["f.d0"])
            file.failures.heal(["f.d0"])
            file.insert(1000 + round_, b"r%d" % round_)
        assert tracer.counts.get("bucket.restart") == 3
        assert tracer.counts.get("catchup.fallback") is None
        assert_all_readable(file)
        assert file.verify_parity_consistency() == []


class TestParityRestartCatchUp:
    def test_parity_refetches_lost_wal_tail_from_data(self):
        """A parity that loses its unsynced Δ-fold tail pulls the
        original Δ ops back from the data buckets' histories."""
        file, tracer = build(wal_fsync_interval=16)
        before = dict(file.network.nodes["f.p0.0"]._expected_seq)
        file.failures.crash(["f.p0.0"])
        file.failures.heal(["f.p0.0"])
        server = file.network.nodes["f.p0.0"]
        assert not server.fenced and not server.stale
        assert dict(server._expected_seq) == before
        assert tracer.counts.get("catchup.parity") == 1
        assert tracer.counts.get("catchup.fallback") is None
        assert_all_readable(file)
        assert file.verify_parity_consistency() == []

    @pytest.mark.parametrize("fsync_interval", [1, 64])
    def test_parity_restart_after_a_merge(self, fsync_interval):
        """The merge's ``ctl reset`` frame — and with it the merge's Δs
        logged before it — is durable before ``handle_parity_reset``
        returns: a restart never comes back with the retired position's
        channel, which ``catch_up_parity`` (it asks the group's current
        members only) could not close."""
        file = LHRSFile(LHRSConfig(
            bucket_capacity=8, durability=True,
            wal_fsync_interval=fsync_interval,
            durability_checkpoint_interval=10**6,
        ))
        for key in range(60):
            file.insert(key * 7919, b"v%d" % key)
        assert file.bucket_count == 8
        for server in file.parity_servers():
            server.checkpoint_now()
        file.rs_coordinator.merge_once()  # bucket 7 dissolves, group 1 lives
        file.failures.crash(["f.p1.0"])
        file.failures.heal(["f.p1.0"])
        assert file.verify_parity_consistency() == []

    def test_parity_crashed_under_traffic_is_rebuilt_before_heal(self):
        """Mutations while a parity is down trip unavailability reports:
        the coordinator rebuilds it onto a spare long before the heal
        window closes, and the scheduled restore is then a no-op (the
        replacement must never be clobbered by a zombie rejoin)."""
        file, tracer = build()
        file.failures.crash(["f.p0.0"])
        for key in range(100, 120):
            file.insert(key, b"w%d" % key)
        file.failures.heal(["f.p0.0"])
        assert not file.network.nodes["f.p0.0"].stale
        assert file.verify_parity_consistency() == []
        assert_all_readable(file)


class TestFailStopInsideABatch:
    def test_logged_but_unshipped_deltas_are_resent_from_the_history_ring(
        self, monkeypatch
    ):
        """A disk error on the fifth WAL append of one ``ops.batch``:
        the bucket fail-stops with four Δs logged and held, and a dead
        node ships nothing.  Heal → the replay credits the durable
        prefix, the catch-up re-sends it from the history ring, every
        parity channel closes, and a rebuild of the bucket returns what
        the WAL said — keys no parity ring had seen included."""
        file, tracer = build(capacity=64)
        server = file.network.nodes["f.d0"]
        server.checkpoint_now()  # the 40 inserts leave the catch-up window
        old = [k for k in range(40) if file.find_bucket_of(k) == 0]
        new = [k for k in range(100, 900) if file.find_bucket_of(k) == 0]
        ops = [  # alternating kinds: each op closes the run before it
            {"op": "delete", "key": old[0]},
            {"op": "insert", "key": new[0], "value": b"new-0"},
            {"op": "update", "key": old[1], "value": b"changed"},
            {"op": "insert", "key": new[1], "value": b"new-1"},
            {"op": "delete", "key": old[2]},  # its append fails
            {"op": "update", "key": old[3], "value": b"never"},
        ]
        expected = {key: b"v%d" % key for key in range(40)}
        del expected[old[0]]
        expected.update({new[0]: b"new-0", old[1]: b"changed", new[1]: b"new-1"})
        wal = server._durable.wal
        append, appends = wal.append, itertools.count(1)

        def fifth_append_fails(entry):
            if next(appends) == 5:
                raise DiskError("injected")
            return append(entry)

        def channels():
            return [p._expected_seq[0] for p in file.parity_servers(0)]

        monkeypatch.setattr(wal, "append", fifth_append_fails)
        shipped = server._parity_seq
        with pytest.raises(NodeUnavailable):
            file.client.call("f.d0", "ops.batch", {"ops": ops})
        monkeypatch.undo()
        assert not file.network.is_available("f.d0")
        assert server._parity_queue == []
        assert channels() == [shipped + 1] * 2  # nothing left the dead node

        file.network.restore("f.d0")
        assert not server.fenced and server._parity_seq == shipped + 4
        assert channels() == [shipped + 5] * 2
        assert tracer.counts.get("catchup.fallback") is None
        file.recover([file.fail_data_bucket(0)])
        found = {k: file.search(k) for k in [*range(40), *new[:2]]}
        assert {k: o.value for k, o in found.items() if o.found} == expected
        assert file.verify_parity_consistency() == []


class TestCheckpointsUnderGrowth:
    """A periodic checkpoint falls due in the middle of a split, a
    merge or a rank compaction, where ``ranks`` and the record store
    disagree; it is taken at the end of the message instead."""

    @pytest.mark.parametrize("compact", [False, True])
    @pytest.mark.parametrize("capacity", [8, 32])
    def test_durable_file_grows_through_crashes(self, capacity, compact):
        rng = random.Random(1)
        file = LHRSFile(LHRSConfig(
            bucket_capacity=capacity, durability=True, compact_ranks=compact,
        ))
        oracle = {}
        for count in range(1, 3001):
            key, value = rng.randrange(2**40), rng.randbytes(64)
            file.insert(key, value)
            oracle[key] = value
            if count % 500 == 0:
                nodes = [s.node_id for s in file.data_servers()]
                nodes += [s.node_id for s in file.parity_servers()]
                victim = nodes[count // 500 * 7 % len(nodes)]
                file.failures.crash([victim])
                file.failures.heal([victim])
        assert len(file.data_servers()) > 100
        assert [k for k, v in oracle.items() if file.search(k).value != v] == []
        assert file.verify_parity_consistency() == []

    def test_a_split_outlives_a_crash_between_fsyncs(self):
        """``wal_fsync_interval`` > 1: no parity ring gives a split's
        level back, so its frame is synced at once (a bucket restarted
        at a stale level accepts keys that belong to its offspring)."""
        file = LHRSFile(LHRSConfig(
            bucket_capacity=8, durability=True, wal_fsync_interval=64,
            durability_checkpoint_interval=10**6,
        ))
        for key in range(120):
            file.insert(key * 7919, b"v%d" % key)
        levels = file.levels_census()
        for node in [server.node_id for server in file.data_servers()]:
            file.failures.crash([node])
            file.failures.heal([node])
        assert file.levels_census() == levels
        for key in range(120, 240):
            file.insert(key * 7919, b"v%d" % key)
        assert all(file.search(key * 7919).found for key in range(240))
        assert file.verify_parity_consistency() == []

    def test_checkpoint_waits_for_the_end_of_the_message(self, monkeypatch):
        """With a checkpoint due after every append, a split still sees
        none until its bucket is whole again."""
        image = RSDataServer._image
        images = []

        def whole_bucket_image(server):
            assert set(server.ranks) == set(server.bucket.records)
            assert {
                r: k for r, k in enumerate(server._key_at) if k is not None
            } == {r: k for k, r in server.ranks.items()}
            images.append(server.node_id)
            return image(server)

        monkeypatch.setattr(RSDataServer, "_image", whole_bucket_image)
        file = LHRSFile(LHRSConfig(
            bucket_capacity=8, durability=True,
            durability_checkpoint_interval=1,
        ))
        for key in range(200):
            file.insert(key * 7919, b"v%d" % key)
        assert len(file.data_servers()) > 8 and len(images) > 200


def next_ranks(server, count=64):
    """The ``count`` ranks a data bucket hands out next, not taken: its
    free ranks smallest first, then the ones above its counter."""
    top = len(server._key_at) - 1
    ranks = sorted(server._free_ranks) + list(range(top + 1, top + 1 + count))
    return ranks[:count]


def parity_state(server):
    """Everything a parity bucket holds, its dump's records in rank
    order."""
    dump = server.handle_parity_dump(None)
    return (
        dumped_records(dump, server.field), dump["expected_seqs"], server.stale,
        server.coord_checkpoint,
    )


def directory_of(server):
    """``{key: (rank, pos)}`` as the records spell it."""
    return {
        key: (rank, pos)
        for rank in server._store
        for pos, key in server._store.snapshot(rank)["keys"].items()
    }


def checkpoint_and_restart(net, server):
    """``checkpoint_now`` → crash → restart; the bucket must come back
    as it was, with the locate index rebuilt from the directory."""
    before = parity_state(server)
    server.checkpoint_now()
    net.fail(server.node_id)
    net.restore(server.node_id)  # -> on_restored() -> Durability.restart()
    assert server.fenced and parity_state(server) == before
    assert server._key_index == directory_of(server)
    return before


class TestImageEqualsLiveState:
    """``checkpoint_now`` → crash → replay gives back the bucket that
    was checkpointed, field for field."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.sampled_from([8, 16]),
        index=st.sampled_from([0, 1]),
        positions=st.sets(st.integers(0, 3), min_size=1),
    )
    @example(seed=498803173, width=8, index=0, positions={0, 1, 2, 3})
    def test_parity_bucket(self, seed, width, index, positions):
        field, rng = GF(width), random.Random(seed)
        net, server, probe = lone_parity(field, index)
        # ragged and zero-length payloads, resends, a final gap
        streams = delta_streams(rng, sorted(positions))
        slices = delivery_schedule(rng, streams)
        for step, (pos, lo, hi) in enumerate(slices):
            if step == len(slices) // 2 and len(positions) > 1:
                # one channel closes mid-stream; the first stays open
                probe.send("f.p0.0", "parity.reset",
                           {"positions": [rng.choice(sorted(positions)[1:])]})
            ops = streams[pos][lo:hi]
            entries = as_blocks(ops) if rng.random() < 0.5 else ops
            probe.call("f.p0.0", "parity.batch", {"runs": entries})
        probe.send("f.p0.0", "coord.checkpoint",
                   {"lsn": 4, "n": 1, "i": 2, "group_levels": {0: 2, 1: 1}})
        # A member whose length is known and whose key is not (an update
        # of a slot this bucket never saw inserted), among known ones.
        pos = min(positions)
        probe.call("f.p0.0", "parity.update",
                   op("update", 77, rng.choice(range(8, 12)), pos, b"xy"))
        assert server.stale
        before = checkpoint_and_restart(net, server)
        assert any(
            set(record["lengths"]) - set(record["keys"])
            for record in before[0]
        )
        # (The live locate index is not compared: this generator inserts
        # onto occupied slots, which no data bucket does, and that
        # leaves the displaced key behind in it — the pinned example.)

    def test_one_unknown_key_leaves_the_key_column_packed(self):
        net, server, probe = lone_parity(GF(8))
        for rank in range(1, 40):
            probe.call("f.p0.0", "parity.update",
                       seq_op(rank, "insert", 2**40 + rank, rank, 0, b"abc"))
        probe.call("f.p0.0", "parity.update", op("update", 5, 50, 2, b"zz"))
        assert server._store.snapshot(50)["lengths"] == {2: 2}
        assert server._store.snapshot(50)["keys"] == {}
        image = server._image()["store"]
        packed = codec.encode(image["dir_keys"])
        assert packed[0] == 0x0A and packed[1] == 8  # one packed column
        assert len(packed) == 6 + 8 * len(image["dir_keys"])
        del image
        checkpoint_and_restart(net, server)
        probe.call("f.p0.0", "runs.catchup", {"runs": []})  # unfence
        assert probe.call("f.p0.0", "parity.recover", recover(5)) == MISS

    def test_empty_bucket(self):
        net, server, probe = lone_parity(GF(16), index=1)
        before = checkpoint_and_restart(net, server)
        assert before[0] == [] and len(server._store) == 0
        probe.call("f.p0.0", "runs.catchup", {"runs": []})
        probe.call("f.p0.0", "parity.update", seq_op(1, "insert", 9, 1, 0, b"ab"))
        checkpoint_and_restart(net, server)
        assert directory_of(server) == {9: (1, 0)}

    def test_after_a_channel_reset(self):
        net, server, probe = lone_parity(GF(8))
        for pos in (0, 1):
            for seq in (1, 2, 3):
                probe.call("f.p0.0", "parity.update", seq_op(
                    seq, "insert", 10 * pos + seq, seq, pos, b"p%d" % seq))
        probe.send("f.p0.0", "parity.reset", {"positions": [1]})
        before = checkpoint_and_restart(net, server)
        assert before[1] == {0: 4}
        assert len(directory_of(server)) == 6  # a reset keeps the members

    def test_after_the_store_grew_rows_and_width(self):
        net, server, probe = lone_parity(GF(16))
        store = server._store
        probe.call("f.p0.0", "parity.update", seq_op(1, "insert", 500, 0, 3, b"ab"))
        rows, width = store.matrix.shape
        ranks = list(range(1, 3 * rows))
        probe.call("f.p0.0", "parity.batch", {"runs": [[
            "insert", 1, 1, [1000 + rank for rank in ranks], ranks,
            [bytes([rank]) * (4 * width + rank) for rank in ranks],
            [4 * width + rank for rank in ranks],
        ]]})
        assert store.matrix.shape[0] > rows and store.width > width
        assert server._store.snapshot(0)["keys"] == {3: 500}  # carried across
        checkpoint_and_restart(net, server)
        assert server._store.matrix.shape == (len(ranks) + 1, store.width)

    def test_a_reused_row_does_not_leak_its_old_keys(self):
        net, server, probe = lone_parity(GF(8))
        for seq, (action, key, rank, pos) in enumerate([
            ("insert", 11, 1, 0), ("insert", 12, 2, 0), ("insert", 13, 3, 0),
            ("delete", 12, 2, 0),
        ], start=1):
            probe.call("f.p0.0", "parity.update",
                       seq_op(seq, action, key, rank, pos, b"same"))
        probe.call("f.p0.0", "parity.update",
                   seq_op(1, "insert", 21, 1, 1, b"mate"))
        row = server._store._row_of[3]
        probe.call("f.p0.0", "parity.update",
                   seq_op(5, "delete", 13, 3, 0, b"same"))
        # the tombstoned row is blank in every column of the image ...
        image = server._image()["store"]
        slots = image["slots"]
        assert image["rank_of"][row] == -1 and image["extents"][row] == 0
        assert set(image["dir_keys"][row * slots:(row + 1) * slots]) == {NO_KEY}
        assert set(image["dir_lengths"][row * slots:(row + 1) * slots]) == {-1}
        del image
        assert probe.call("f.p0.0", "parity.recover", recover(13)) == MISS
        # ... and its next tenant starts from nothing
        probe.call("f.p0.0", "parity.update",
                   seq_op(2, "insert", 31, 7, 1, b"new"))
        assert server._store._row_of[7] == row
        assert server._store.snapshot(7)["keys"] == {1: 31}
        assert server._store.snapshot(7)["lengths"] == {1: 3}
        assert server._store.snapshot(7)["parity"] == b"new"
        checkpoint_and_restart(net, server)
        probe.call("f.p0.0", "runs.catchup", {"runs": []})  # unfence
        assert server._key_index[31] == (7, 1)
        located = probe.call("f.p0.0", "parity.recover", recover(31))
        assert located == {"found": True, "value": b"new"}
        assert probe.call("f.p0.0", "parity.recover", recover(12)) == MISS

    def test_an_image_costs_the_same_calls_whatever_the_bucket_holds(self):
        """Timing-free cost guard: building and encoding the image runs
        the same number of calls (Python and C functions alike) at 100
        and at 2 000 record groups — nothing walks the records."""
        def calls_to_image(groups):
            _, server, probe = lone_parity(GF(8))
            for pos in range(4):
                ranks = list(range(1, groups + 1))
                probe.call("f.p0.0", "parity.batch", {"runs": [[
                    "insert", pos, 1, [10 * rank + pos for rank in ranks],
                    ranks, [b"%04d" % rank for rank in ranks], [4] * groups,
                ]]})
            assert len(server._store) == groups
            count = 0

            def profiler(frame, event, arg):
                nonlocal count
                count += event in ("call", "c_call")

            gc.disable()  # a collection's finalizers are no calls of ours
            sys.setprofile(profiler)
            try:
                blob = encode_blob(server._image(), 9)
            finally:
                sys.setprofile(None)
                gc.enable()
            assert len(decode_blob(blob)["store"]["rank_of"]) == groups
            return count

        assert calls_to_image(100) == calls_to_image(2000) > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_data_bucket(self, seed):
        rng = random.Random(seed)
        file = LHRSFile(LHRSConfig(
            group_size=4, availability=2, bucket_capacity=4096,
            durability=True, durability_checkpoint_interval=10**6,
        ))
        keys = [rng.randrange(2**40) for _ in range(120)]
        for key in keys:
            file.insert(key, rng.randbytes(rng.randrange(0, 24)))
        for key in keys[:30]:  # frees ranks
            file.delete(key)
        for key in rng.sample(keys[30:], 60):
            file.update(key, rng.randbytes(rng.randrange(0, 24)))
        server = max(file.data_servers(), key=lambda s: len(s._free_ranks))
        assert server._free_ranks and "queue" not in server._image()

        def live():
            return (
                dict(server.bucket.records), list(server.bucket.records),
                dict(server.ranks),
                {r: k for r, k in enumerate(server._key_at) if k is not None},
                next_ranks(server), server._parity_seq, server.bucket.level,
                server.epoch,
            )

        before = live()
        server.checkpoint_now()
        server._durable.rejoin = lambda payload: None  # what replay leaves
        server._durable.restart()
        assert server.fenced and live() == before


class TestFallbackToFullRebuild:
    def test_garbage_wal_tail_falls_back(self):
        """A WAL whose replay stops unclean (torn frame) cannot prove
        its durable prefix — the rejoin must take the full rebuild."""
        file, tracer = build()
        server = file.network.nodes["f.d1"]
        disk = server._durable.disk
        disk.append(server._durable.wal.LOG, b"\x99\x07torn-frame-junk")
        disk.fsync(server._durable.wal.LOG)
        file.failures.crash(["f.d1"])
        file.failures.heal(["f.d1"])
        assert tracer.counts.get("catchup.fallback") == 1
        assert_all_readable(file)
        assert file.verify_parity_consistency() == []

    def test_bitrot_falls_back(self):
        file, tracer = build(k=1, count=30)
        plane = FaultPlane(rng=np.random.default_rng(7))
        plane.add_disk_rule(node="f.d1", bitrot=1.0, bitrot_flips=4)
        file.network.install_fault_plane(plane)
        file.failures.crash(["f.d1"])
        file.failures.heal(["f.d1"])
        assert tracer.counts.get("catchup.fallback") == 1
        assert tracer.counts.get("bucket.restart") == 1
        for key in range(30):
            outcome = file.search(key)
            assert outcome.found and outcome.value == b"v%d" % key
        assert file.verify_parity_consistency() == []

    def test_epoch_mismatch_forces_rebuild(self):
        """The incarnation fence: when the coordinator's epoch moved past
        what the restarted bucket persisted, its disk state is from a
        dead incarnation and must not be trusted — full rebuild."""
        file, tracer = build()
        file.rs_coordinator.bump_epoch("f.d1")
        file.failures.crash(["f.d1"])
        file.failures.heal(["f.d1"])
        assert tracer.counts.get("catchup.fallback") == 1
        assert tracer.counts.get("catchup.data") is None
        assert_all_readable(file)
        assert file.verify_parity_consistency() == []


class TestCatchUpBeatsRebuild:
    """The service-level claim of restart-with-catch-up, in simulated
    repair time (:class:`LatencyModel` over the message window) and
    bytes moved, so exact: a bucket that missed a small tail rejoins far
    cheaper than a rebuild, at a cost that follows the tail, not the
    bucket.  (Wall-clock restart is ``durable/restart_mean_ms`` in
    ``benchmarks/e2e``.)"""

    COUNT = 240
    FRACTIONS = (0.02, 0.05, 0.1, 0.2, 0.4)

    def stale_file(self, fraction):
        """A durable file whose WAL never syncs by itself, checkpointed,
        then ``fraction`` of bucket 1's records updated: acked, folded
        into parity, and in an unsynced tail a crash will eat."""
        rng = random.Random(7)
        items = [(key, rng.randbytes(128))
                 for key in rng.sample(range(10**9), self.COUNT)]
        file = LHRSFile(LHRSConfig(
            group_size=4, availability=2, bucket_capacity=256,
            parity_ack=True, client_acks=True, durability=True,
            wal_fsync_interval=10**9,
        ))
        for key, value in items:
            file.insert(key, value)
        for server in file.data_servers() + file.parity_servers():
            server.checkpoint_now()
        victims = [(key, value) for key, value in items
                   if file.find_bucket_of(key) == 1]
        updated = [(key, value[::-1]) for key, value
                   in victims[:max(1, round(fraction * len(victims)))]]
        for key, value in updated:
            file.update(key, value)
        file.stats.reset()
        return file, updated

    def both_arms(self, fraction):
        file, updated = self.stale_file(fraction)
        tracer, _, _ = file.enable_observability(audit=False)
        with file.stats.measure("catchup") as catchup:
            file.failures.crash(["f.d1"])
            file.failures.heal(["f.d1"])
        assert "catchup.fallback" not in tracer.counts
        for key, value in updated:
            assert file.search(key).value == value
        assert file.verify_parity_consistency() == []

        file, _ = self.stale_file(fraction)
        victim = file.fail_data_bucket(1)
        with file.stats.measure("rebuild") as rebuild:
            file.recover([victim])
        assert file.verify_parity_consistency() == []
        return catchup, rebuild

    def test_catch_up_cost_follows_the_missed_tail(self):
        model = LatencyModel()
        sweep = [self.both_arms(fraction) for fraction in self.FRACTIONS]
        for fraction, (catchup, rebuild) in zip(self.FRACTIONS, sweep):
            if fraction <= 0.05:
                ratio = model.window_time(catchup) / model.window_time(rebuild)
                assert ratio <= 0.3, (fraction, ratio)
                assert catchup.bytes < rebuild.bytes, fraction
        moved = [catchup.bytes for catchup, _ in sweep]
        assert moved == sorted(moved) and moved[0] < moved[-1]


class TestFencing:
    def test_fenced_bucket_refuses_reads_and_client_degrades(self):
        """An epoch-fenced bucket must never serve a read; the client
        forwards the fenced refusal and the coordinator answers through
        parity reconstruction — without rebuilding the live node."""
        file, tracer = build()
        server = file.network.nodes["f.d1"]
        victim = next(
            key for key in range(40)
            if file.find_bucket_of(key) == server.number
        )
        server.fenced = True
        try:
            outcome = file.search(victim)
        finally:
            server.fenced = False
        assert outcome.found and outcome.value == b"v%d" % victim
        # the node was fenced, not dead: no rebuild happened
        assert file.network.nodes["f.d1"] is server
        assert tracer.counts.get("client.unavailable") == 1

    def test_fenced_parity_refuses_deltas(self):
        from repro.sim.network import NodeUnavailable

        file, _ = build()
        server = file.network.nodes["f.p0.1"]
        server.fenced = True
        with pytest.raises(NodeUnavailable) as exc:
            file.network.call(
                "f.coord", "f.p0.1", "parity.dump", {}
            )
        assert getattr(exc.value, "fenced", False)
        # the status probe must keep working on a fenced node
        reply = file.network.call("f.coord", "f.p0.1", "status")
        assert reply["fenced"] and reply["group"] == 0
        server.fenced = False


class TestHealRestoreRouting:
    def test_heal_refuses_nodes_it_did_not_fail(self):
        file, _ = build()
        node = file.fail_data_bucket(1)
        with pytest.raises(ValueError):
            file.failures.heal([node])
        file.network.restore(node)
        assert_all_readable(file)

    def test_nondurable_heal_keeps_legacy_silence(self):
        """With durability off there is no disk to replay: a heal
        brings the node back with its RAM state, and nothing restarts."""
        file, tracer = build(durability=False)
        file.failures.crash(["f.d1"])
        file.failures.heal(["f.d1"])
        assert tracer.counts.get("bucket.restart") is None
        assert_all_readable(file)
        assert file.verify_parity_consistency() == []


class TestCorruptDeliveryAuditRepair:
    def test_inflight_corruption_detected_localized_repaired(self):
        """`corrupt` fault mode end to end: a Δ arrives with flipped
        bytes, the signature audit localizes the poisoned parity
        column, and repair_corruption rebuilds it from the clean
        remainder."""
        file, _ = build(durability=False, count=30, observe=False)
        plane = FaultPlane(rng=np.random.default_rng(13))
        plane.add_rule(
            kinds={"parity.update"}, recipient="f.p0.0", corrupt=1.0
        )
        file.network.install_fault_plane(plane)
        victim = next(
            key for key in range(30) if file.find_bucket_of(key) < 4
        )
        file.update(victim, b"poisoned-delta-payload")
        plane.clear_rules()
        assert plane.counters["corrupted"] >= 1

        report = file.audit_group(0)
        assert not report["clean"]
        m = file.config.group_size
        positions = {
            pos for pos in report["suspects"].values() if pos is not None
        }
        assert positions == {m + 0}  # parity column 0, localized
        file.repair_corruption(0, m + 0)
        assert file.audit_group(0)["clean"]
        assert file.verify_parity_consistency() == []
        outcome = file.search(victim)
        assert outcome.found and outcome.value == b"poisoned-delta-payload"


class TestKnobsOffTraces:
    @staticmethod
    def _run_workload(durability):
        config = LHRSConfig(
            group_size=4, availability=2, bucket_capacity=8,
            parity_ack=True, client_acks=True, durability=durability,
        )
        file = LHRSFile(config)
        tracer, _, _ = file.enable_observability()
        rng = np.random.default_rng(3)
        for i in range(300):
            key = int(rng.integers(0, 120))
            roll = rng.random()
            if roll < 0.5:
                file.insert(key, b"x%d" % i)
            elif roll < 0.7:
                file.delete(key)
            else:
                file.search(key)
        return tracer.to_jsonl()

    def test_durability_off_is_byte_identical_run_to_run(self):
        first = self._run_workload(False)
        assert first == self._run_workload(False)
        for event in ("disk.checkpoint", "bucket.restart", "catchup."):
            assert event not in first

    def test_durability_on_stays_deterministic(self):
        assert self._run_workload(True) == self._run_workload(True)


class TestRestartSoak:
    def test_soak_with_crash_restart_windows(self):
        """Crash windows close through the rejoin handshake while the
        workload runs: every acked write must survive the restarts."""
        file, tracer = build(count=0, wal_fsync_interval=4)
        injector = file.failures
        victims = ["f.d0", "f.d1", "f.d2", "f.p0.0", "f.p0.1"]
        for w, at in enumerate(range(80, 500, 60)):
            injector.schedule_crash(
                victims[w % len(victims)], at=float(at), duration=40.0
            )

        rng = np.random.default_rng(17)
        expected = ExpectedState()
        for t in range(400):
            key = int(rng.integers(0, 150))
            roll = float(rng.random())
            if roll < 0.55:
                expected.call(file, "insert", key, b"s%d-%d" % (t, key))
            elif roll < 0.75:
                expected.call(file, "delete", key)
            else:
                expected.call(file, "search", key)

        settle(file)
        verify(file, expected)
        # restarts really happened (windows closed through the
        # handshake, not through report-driven rebuilds alone)
        assert tracer.counts.get("bucket.restart", 0) >= 1
