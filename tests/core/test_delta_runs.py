"""The one Δ unit, end to end.

A data bucket creates every Δ as a run ``[action, pos, seq0, keys,
ranks, deltas, lengths]`` — a scalar mutation a run of one, a split's
movers, a merge, a ``records.bulk`` and a compaction one run per action
— and logs, holds, ships and folds that run.  Pinned here:

* random mixes (scalar ops, ``ops.batch`` with repeated keys, splits,
  merges, raises, crash/restart) keep parity consistent, and a durable
  data bucket's WAL replays to its live records;
* a ``parity.batch`` folds one run per ``_fold_run`` call, and no two
  neighbouring runs could have been folded as one;
* no run an ``ops.batch`` holds shares a list with a run the history
  ring keeps: joining one must never rewrite history;
* a Δ, a catch-up or a moved-records message delivered twice changes
  nothing;
* a bucket reloaded from its image hands out the ranks the live one
  would, and a restarted bucket puts no disk LSN on the wire;
* the batch queue and the history ring add no attribute to a data
  bucket, which stays under CPython's inline-attribute limit.
"""

import random
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LHRSConfig, LHRSFile, durable
from repro.core.data_bucket import RSDataServer
from repro.core.parity_bucket import ParityServer
from repro.sim import FaultPlane
from repro.sim.messages import _SIZERS
from repro.store.wal import decode_blob, decode_frames
from tests.core.test_restart import next_ranks, parity_state


def fresh_data_server():
    """An empty data bucket on no network, to load images into."""
    return RSDataServer(
        "twin", "f", number=0, level=0, capacity=8, n0=4, group_size=4
    )


def rows(server):
    """A data bucket as ``(level, {key: (rank, payload)})``."""
    return server.bucket.level, {
        key: (server.ranks[key], payload)
        for key, payload in server.bucket.records.items()
    }


def replayed(server):
    """The bucket ``server``'s disk holds: its checkpoint image with every
    WAL frame past it replayed onto a fresh bucket."""
    disk, wal = server._durable.disk, server._durable.wal
    image = decode_blob(disk.read(wal.CHECKPOINT))
    frames, clean = decode_frames(disk.read(wal.LOG))
    assert clean
    twin = fresh_data_server()
    twin._load_image(image)  # with the empty ring the replay refills
    for frame in frames:
        if frame["lsn"] > image["lsn"]:
            twin._replay_frame(frame)
    return twin


def joinable(first, then):
    """Whether run ``then`` continues run ``first``, so that one fold
    could take both: same action and position, the next sequence
    number, distinct ranks."""
    return (
        then[:2] == first[:2]
        and then[2] == first[2] + len(first[4])
        and set(first[4]).isdisjoint(then[4])
    )


@contextmanager
def watched():
    """Spy on the Δ path for a ``with`` block.  Yields the list of
    ``(runs, folds)`` of every ``parity.batch`` delivered — its runs and
    the ``_fold_run`` calls it made — and checks at every flush that no
    held run shares a list with a run in the history ring."""
    batches, stack = [], []
    handle = ParityServer.handle_parity_update
    fold = ParityServer._fold_run
    flush = RSDataServer.flush_parity

    def counted_fold(self, *args, **kwargs):
        if stack:
            stack[-1] += 1
        return fold(self, *args, **kwargs)

    def counted_handle(self, message):
        stack.append(0)
        try:
            reply = handle(self, message)
        finally:
            folds = stack.pop()
        if message.kind == "parity.batch":
            batches.append((message.payload["runs"], folds))
        return reply

    def checked_flush(self):
        ring = {
            id(run[column])
            for run in getattr(self._delta_history, "runs", ())
            for column in range(3, 7)
        }
        assert not any(
            id(run[column]) in ring
            for run, _ in self._parity_queue for column in range(3, 7)
        )
        flush(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ParityServer, "_fold_run", counted_fold)
        patch.setattr(ParityServer, "handle_parity_update", counted_handle)
        patch.setattr(ParityServer, "handle_parity_batch", counted_handle)
        patch.setattr(RSDataServer, "flush_parity", checked_flush)
        yield batches


class TestDeltaStream:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.sampled_from([8, 16]),
        compact=st.booleans(),
        durable=st.booleans(),
    )
    def test_random_mixes_keep_one_delta_form(self, seed, width, compact,
                                              durable):
        rng = random.Random(seed)
        file = LHRSFile(LHRSConfig(
            group_size=4, availability=1, bucket_capacity=8,
            field_width=width, compact_ranks=compact, batch_ops=True,
            durability=durable, wal_fsync_interval=rng.choice([1, 4]),
            durability_checkpoint_interval=rng.choice([16, 10**6]),
            parity_ack=True, client_acks=True,
        ))
        coordinator = file.rs_coordinator
        oracle = {}

        def value():
            return rng.randbytes(rng.randrange(0, 24))

        with watched() as batches:
            for _ in range(60):
                roll, keys = rng.random(), sorted(oracle)
                if roll < 0.3 or not keys:
                    key = rng.randrange(500)
                    oracle[key] = value()
                    file.insert(key, oracle[key])
                elif roll < 0.4:
                    key = rng.choice(keys)
                    oracle[key] = value()
                    file.update(key, oracle[key])
                elif roll < 0.5:
                    key = rng.choice(keys)
                    del oracle[key]
                    file.delete(key)
                elif roll < 0.7:
                    # keys named twice: the same rank twice in one action
                    # must not join into one run
                    items = [(rng.choice(keys), value())
                             for _ in range(rng.randint(2, 10))]
                    items += [(rng.randrange(500), value())
                              for _ in range(rng.randint(0, 10))]
                    assert file.update_many(items).ok
                    oracle.update(items)
                elif roll < 0.78:
                    doomed = rng.sample(keys, min(len(keys), rng.randint(1, 6)))
                    assert file.delete_many(doomed).ok
                    for key in doomed:
                        del oracle[key]
                elif roll < 0.84:
                    coordinator.split_once()
                elif roll < 0.88:
                    if file.bucket_count > 4:
                        coordinator.merge_once()
                elif roll < 0.92:
                    group = rng.randrange((file.bucket_count + 3) // 4)
                    level = coordinator.group_level(group)
                    if level < 3:
                        coordinator.raise_group_level(group, level + 1)
                elif durable:
                    victim = rng.choice(
                        [s.node_id for s in file.data_servers()]
                        + [s.node_id for s in file.parity_servers()]
                    )
                    file.failures.crash([victim])
                    file.failures.heal([victim])
        assert file.verify_parity_consistency() == []
        assert {key: file.search(key).value for key in oracle} == oracle
        assert batches
        for runs, folds in batches:
            assert folds == len(runs)
            assert not any(joinable(a, b) for a, b in zip(runs, runs[1:]))
        if durable:
            for server in file.data_servers():
                twin = replayed(server)
                assert rows(twin) == rows(server)
                assert twin._take_ranks(8) == next_ranks(server, 8)


class TestDuplicateDelivery:
    def test_deltas_and_moved_records_delivered_twice(self):
        file = LHRSFile(LHRSConfig(
            group_size=4, availability=2, bucket_capacity=8,
            batch_ops=True, compact_ranks=True,
        ))
        plane = FaultPlane(rng=np.random.default_rng(5))
        plane.add_rule(
            kinds={"parity.update", "parity.batch", "records.bulk"},
            duplicate=1.0,
        )
        file.network.install_fault_plane(plane)
        oracle = {key: b"v%d" % key for key in range(60)}
        for key, value in oracle.items():
            file.insert(key, value)
        fresh = {key: b"w%d" % key for key in range(60, 120)}
        assert file.insert_many(list(fresh.items())).ok
        oracle.update(fresh)
        for key in range(0, 120, 3):
            del oracle[key]
            file.delete(key)
        while file.bucket_count > 8:
            file.rs_coordinator.merge_once()
        assert plane.counters["duplicated"] > 0
        assert file.verify_parity_consistency() == []
        assert {key: file.search(key).value for key in oracle} == oracle
        for server in file.data_servers():
            ranks = sorted(server.ranks.values())
            assert ranks == list(range(1, len(ranks) + 1))

    def test_a_duplicated_records_bulk_changes_nothing(self):
        """m = 4, k = 2, b = 8, 40 inserts, then one bucket's first two
        records re-sent to it as ``records.bulk``: it holds both keys,
        so it takes no rank and ships no Δ."""
        file = LHRSFile(LHRSConfig(
            group_size=4, availability=2, bucket_capacity=8,
        ))
        for key in range(40):
            file.insert(key, b"v%d" % key)
        server = file.network.nodes["f.d1"]
        before = rows(server), next_ranks(server), server._parity_seq
        moved = list(server.bucket.records.items())[:2]
        assert len(moved) == 2
        file.network.send(
            "f.d0", "f.d1", "records.bulk", {"records": moved, "source": 0}
        )
        assert (rows(server), next_ranks(server), server._parity_seq) == before
        assert {r: k for r, k in enumerate(server._key_at) if k is not None} == {
            r: k for k, r in server.ranks.items()
        }
        assert file.verify_parity_consistency() == []
        file.recover([file.fail_data_bucket(1)])
        assert rows(file.network.nodes["f.d1"]) == before[0]

    @pytest.mark.parametrize("node", ["f.d1", "f.p0.0"])
    def test_runs_catchup_delivered_twice(self, node):
        """A restarted bucket of either kind that gets its ``runs.catchup``
        again applies none of it: the data bucket drops the Δs it holds,
        the parity bucket's channel check skips them."""
        file = LHRSFile(LHRSConfig(
            group_size=4, availability=2, bucket_capacity=16,
            durability=True, wal_fsync_interval=64,
            durability_checkpoint_interval=10**6,
            parity_ack=True, client_acks=True,
        ))
        for key in range(40):
            file.insert(key, b"v%d" % key)
        kind = type(file.network.nodes[node])
        sent = []
        catch_up = kind.handle_runs_catchup

        def spy(server, message):
            sent.append(message.payload)
            return catch_up(server, message)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kind, "handle_runs_catchup", spy)
            file.failures.crash([node])
            file.failures.heal([node])
        server = file.network.nodes[node]
        assert len(sent) == 1 and sent[0]["runs"] and not server.fenced

        def state(server):
            if kind is ParityServer:
                return parity_state(server)
            return rows(server), next_ranks(server), server._parity_seq

        before = state(server)
        reply = file.network.call(
            file.rs_coordinator.node_id, node, "runs.catchup", sent[0]
        )
        assert reply["ok"] and reply["applied"] == 0
        assert state(server) == before
        assert file.verify_parity_consistency() == []


class TestRanksFollowFromTheImage:
    @settings(max_examples=25, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(["insert", "insert", "delete", "split",
                                 "merge"]),
                st.integers(0, 2**20),
            ),
            max_size=50,
        ),
        compact=st.booleans(),
    )
    def test_a_reloaded_bucket_hands_out_the_live_ranks(self, steps, compact):
        file = LHRSFile(LHRSConfig(
            group_size=4, availability=1, bucket_capacity=8,
            compact_ranks=compact,
        ))
        held = []
        for action, number in steps:
            if action == "insert":
                file.insert(number, b"v%d" % number)
                held.append(number)
            elif action == "delete" and held:
                file.delete(held.pop(number % len(held)))
            elif action == "split":
                file.rs_coordinator.split_once()
            elif action == "merge" and file.bucket_count > 4:
                file.rs_coordinator.merge_once()
            for server in file.data_servers():
                twin = fresh_data_server()
                twin._load_content(server._content())
                assert twin._take_ranks(8) == next_ranks(server, 8)
        assert file.verify_parity_consistency() == []


def test_the_history_ring_is_bounded_in_deltas(monkeypatch):
    """The ring keeps at most ``DELTA_LOG_CAPACITY`` Δs however they are
    grouped: a split's movers are one run but count as many Δs, and the
    oldest runs retire whole, leaving a contiguous newest tail."""
    monkeypatch.setattr(durable, "DELTA_LOG_CAPACITY", 48)
    file = LHRSFile(LHRSConfig(
        group_size=4, availability=1, bucket_capacity=32, durability=True,
        durability_checkpoint_interval=10**6,
    ))
    def ringed(server):
        return sum(len(run[3]) for run in server._delta_history.runs)

    longest = 0
    for key in range(300):
        file.insert(key, b"v%d" % key)
        for server in file.data_servers():
            ring = list(server._delta_history.runs)
            assert ringed(server) <= 48
            assert all(
                a[2] + len(a[3]) == b[2] for a, b in zip(ring, ring[1:])
            )
            longest = max(longest, *(len(run[3]) for run in ring), 0)
    assert file.bucket_count > 4 and longest > 1
    coordinator = file.rs_coordinator.node_id
    for server in file.data_servers():
        live, held = server._parity_seq, ringed(server)
        reply = file.network.call(
            coordinator, server.node_id, "runs.tail", {"after": live - held}
        )
        assert reply["covered"]
        if live > held:
            reply = file.network.call(
                coordinator, server.node_id, "runs.tail",
                {"after": live - held - 1},
            )
            assert not reply["covered"]


def test_a_run_longer_than_the_ring_is_logged_once(monkeypatch):
    """The ring's newest run marks the last logged sequence number, so it
    stays even when longer than the ring's bound: a split inside an
    ``ops.batch`` whose movers outnumber the bound is logged once, and
    the batch's later runs start past it."""
    monkeypatch.setattr(durable, "DELTA_LOG_CAPACITY", 4)
    file = LHRSFile(LHRSConfig(
        group_size=4, availability=1, bucket_capacity=16, durability=True,
        durability_checkpoint_interval=10**6, batch_ops=True,
    ))
    server = file.network.nodes["f.d0"]
    for key in range(0, 64, 4):
        file.insert(key, b"v%d" % key)
    frames = []
    append = server._durable.wal.append

    def spy(entry):
        frames.append(entry)
        return append(entry)

    monkeypatch.setattr(server._durable.wal, "append", spy)
    ops = [{"op": "insert", "key": k, "value": b"w"} for k in range(64, 160, 8)]
    file.client.call("f.d0", "ops.batch", {"ops": ops})
    assert server.level == 1  # split inside the batch
    spans = [(run[2], run[2] + len(run[3]) - 1)
             for run in (frame["prun"] for frame in frames if "prun" in frame)]
    assert max(hi - lo for lo, hi in spans) >= 4  # the split's movers
    assert [lo for lo, _ in spans[1:]] == [hi + 1 for _, hi in spans[:-1]]
    assert spans[-1][1] == server._parity_seq
    assert file.verify_parity_consistency() == []


def test_a_restarted_data_bucket_puts_no_lsn_on_the_wire():
    """The history ring a restart refills holds the logged runs, not the
    decoded frames: a ``runs.tail`` reply and a catch-up resend stay on
    their declared shapes and are sized by the compiled sizers."""
    file = LHRSFile(LHRSConfig(
        group_size=4, availability=2, bucket_capacity=16, durability=True,
        durability_checkpoint_interval=10**6, parity_ack=True,
        client_acks=True,
    ))
    for key in range(40):
        file.insert(key, b"v%d" % key)
    file.failures.crash(["f.d1"])
    file.failures.heal(["f.d1"])
    server = file.network.nodes["f.d1"]
    assert not server.fenced and server._delta_history.runs
    reply = file.network.call(
        file.rs_coordinator.node_id, "f.d1", "runs.tail", {"after": 0}
    )
    assert reply["covered"] and reply["runs"]
    assert all(type(run) is list and len(run) == 7 for run in reply["runs"])
    assert _SIZERS["runs.tail.reply"](reply) >= 0
    assert _SIZERS["parity.batch"]({"runs": list(server._delta_history.runs)}) >= 0


def test_a_data_bucket_keeps_its_attributes_inline():
    """At 30 instance attributes CPython 3.11 gives every data bucket a
    dict of its own: +11 MB of peak RSS on the ``growth`` workload and
    slower attribute reads on every message."""
    file = LHRSFile(LHRSConfig(
        group_size=4, availability=2, durability=True, parity_ack=True,
        client_acks=True,
    ))
    for key in range(40):
        file.insert(key, b"v%d" % key)
    file.failures.crash(["f.d1"])
    file.failures.heal(["f.d1"])
    assert max(len(vars(server)) for server in file.data_servers()) <= 29
