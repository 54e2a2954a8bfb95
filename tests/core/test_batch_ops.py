"""Bulk scatter-gather data plane: batched ops ≡ scalar ops.

The batch plane's contract is *not* "same result as looping in
submission order" — re-binning refused sub-batches changes the order
in which ops reach their buckets, which legitimately shifts split
timing.  The contract is stronger where it matters and precise where
it must be:

* **Replay equivalence** — applying the ops of every batch in the
  batch's actual confirmation order (``BatchOutcome.applied_order``)
  through a scalar-only file produces a byte-identical file: same
  bucket layout, same records, same ranks, same parity symbols.  The
  Δ-runs a batch's ops join into, the coalesced ``parity.batch`` folds
  and the O(moves) ``_compact`` are all invisible.
* **Exactly-once under faults** — dropped/duplicated ``ops.batch`` and
  ``parity.batch`` messages leave the file logically correct and
  parity-consistent (per-(data, position) sequence numbers).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import LHRSConfig, LHRSFile
from repro.core.data_bucket import RSDataServer
from repro.sdds.client import OperationFailed
from repro.sim import FaultPlane

KEYS = st.integers(min_value=0, max_value=300)
PAYLOADS = st.binary(min_size=0, max_size=24)


def _cfg(m=2, k=2, capacity=8, compact=True, **kw) -> LHRSConfig:
    return LHRSConfig(
        group_size=m,
        availability=k,
        bucket_capacity=capacity,
        compact_ranks=compact,
        **kw,
    )


def _parity_snapshot(file: LHRSFile) -> dict:
    """{parity node -> {rank -> (keys, lengths, normalized symbols)}}.

    Parity byte strings are right-stripped of zero padding: a record
    that grew through a longer intermediate value keeps trailing zero
    symbols a never-grown twin lacks, and zero symbols carry no data.
    """
    snap = {}
    for node_id in sorted(file.network.nodes):
        if ".p" not in node_id:
            continue
        node = file.network.nodes[node_id]
        if not hasattr(node, "_store"):
            continue
        records = map(node._store.snapshot, node._store)
        snap[node_id] = {
            record["rank"]: (
                record["keys"], record["lengths"],
                record["parity"].rstrip(b"\0"),
            )
            for record in records
        }
    return snap


def _apply_batches(file: LHRSFile, batches) -> list[list[int]]:
    """Run each batch through the ``*_many`` plane; return apply orders."""
    orders = []
    for kind, items in batches:
        if kind == "insert":
            out = file.insert_many(items)
        elif kind == "update":
            out = file.update_many(items)
        elif kind == "delete":
            out = file.delete_many(items)
        else:
            out = file.search_many(items)
        assert out.ok, f"{kind} batch failed for keys {out.failed_keys}"
        assert sorted(out.applied_order) == list(range(len(items)))
        orders.append(out.applied_order)
    return orders


def _replay_scalar(file: LHRSFile, batches, orders) -> None:
    """Apply the same ops scalar-style, in the batches' apply order."""
    for (kind, items), order in zip(batches, orders):
        for idx in order:
            item = items[idx]
            try:
                if kind == "insert":
                    file.insert(*item)
                elif kind == "update":
                    file.update(*item)
                elif kind == "delete":
                    file.delete(item)
                else:
                    file.search(item)
            except OperationFailed:
                pass  # upsert-of-absent surfaces as an error; op applied


def _batches_strategy():
    pairs = st.lists(st.tuples(KEYS, PAYLOADS), min_size=1, max_size=40)
    keys = st.lists(KEYS, min_size=1, max_size=40)
    return st.lists(
        st.one_of(
            st.tuples(st.just("insert"), pairs),
            st.tuples(st.just("update"), pairs),
            st.tuples(st.just("delete"), keys),
            st.tuples(st.just("search"), keys),
        ),
        min_size=1,
        max_size=5,
    )


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    batches=_batches_strategy(),
    m=st.sampled_from([2, 4]),
    k=st.sampled_from([1, 2]),
    compact=st.booleans(),
)
def test_batched_ops_equal_scalar_replay(batches, m, k, compact):
    """Byte-equality oracle, including mid-batch splits (capacity 8
    with up to 200 inserts forces splits *inside* ``insert_many``)."""
    batched = LHRSFile(_cfg(m=m, k=k, compact=compact))
    orders = _apply_batches(batched, batches)

    scalar = LHRSFile(_cfg(m=m, k=k, compact=compact))
    _replay_scalar(scalar, batches, orders)

    assert batched.census_with_ranks() == scalar.census_with_ranks()
    assert _parity_snapshot(batched) == _parity_snapshot(scalar)
    assert batched.verify_parity_consistency() == []
    assert scalar.verify_parity_consistency() == []


def test_batched_growth_scenario_equals_scalar_replay():
    """A deterministic end-to-end pass (the hypothesis test shrunk):
    bulk load → bulk upsert → bulk delete across many splits."""
    items = [(k, bytes([k % 251]) * (4 + k % 7)) for k in range(150)]
    batches = [
        ("insert", items),
        ("update", [(k, b"u" * (3 + k % 5)) for k, _ in items[::3]]),
        ("search", [k for k, _ in items[::4]]),
        ("delete", [k for k, _ in items[::5]]),
    ]
    batched = LHRSFile(_cfg(m=4, k=2, capacity=8))
    orders = _apply_batches(batched, batches)

    scalar = LHRSFile(_cfg(m=4, k=2, capacity=8))
    _replay_scalar(scalar, batches, orders)

    assert batched.bucket_count > 4  # splits actually happened mid-batch
    assert batched.census_with_ranks() == scalar.census_with_ranks()
    assert _parity_snapshot(batched) == _parity_snapshot(scalar)


def test_batch_plane_uses_fewer_messages():
    """The point of the PR: one ``ops.batch`` per bucket replaces one
    round trip per record."""
    items = [(k, b"payload-%d" % k) for k in range(128)]

    batched = LHRSFile(_cfg(m=4, k=2, capacity=512))
    out = batched.insert_many(items)
    assert out.ok and out.batched_ops == len(items) and out.scalar_ops == 0
    batched_msgs = batched.stats.total.by_kind.get("ops.batch", 0)

    scalar = LHRSFile(_cfg(m=4, k=2, capacity=512))
    for k, v in items:
        scalar.insert(k, v)

    assert batched_msgs <= 4  # one call per addressed bucket
    assert out.messages <= 2 * batched_msgs
    assert scalar.stats.total.by_kind.get("insert", 0) == len(items)


def test_dropped_and_duplicated_batches_apply_exactly_once():
    """Per-(data, position) sequence numbers + retry ladder: the batch
    plane survives the chaos rules mutations get in the soak tests."""
    config = _cfg(
        m=4, k=2, capacity=8,
        parity_ack=True, retry_attempts=8, retry_backoff_base=0.25,
    )
    file = LHRSFile(config)
    plane = FaultPlane(rng=np.random.default_rng(11))
    plane.add_rule(
        kinds={"ops.batch", "parity.batch"},
        drop=0.05, fail=0.05, duplicate=0.15,
    )
    file.network.install_fault_plane(plane)

    oracle: dict[int, bytes] = {}
    items = [(k, b"v-%d" % k) for k in range(120)]
    out = file.insert_many(items)
    assert out.ok
    oracle.update(items)
    updates = [(k, b"u-%d" % k) for k, _ in items[::2]]
    out = file.update_many(updates)
    assert out.ok
    oracle.update(updates)
    deletes = [k for k, _ in items[::3]]
    out = file.delete_many(deletes)
    assert out.ok
    for key in deletes:
        oracle.pop(key, None)

    assert plane.counters["duplicated"] > 0
    assert plane.counters["dropped"] + plane.counters["failed"] > 0

    logical = {
        key: value
        for bucket in file.census_with_ranks().values()
        for key, (_, value) in bucket.items()
    }
    assert logical == oracle
    assert file.verify_parity_consistency() == []


@pytest.mark.parametrize("victim", ["f.d0", "f.p0.0"])
def test_dump_inside_a_batch_ships_the_held_deltas_first(victim, monkeypatch):
    """A split fired from inside bucket 1's ``ops.batch`` finds a dead
    member of its group, and the recovery that follows dumps bucket 1
    while it still holds that batch's Δs: the dump ships them first, so
    the decoder is not fed a survivor ahead of its parity (without that
    flush a lost data bucket is unrecoverable here: every parity lags)."""
    file = LHRSFile(_cfg(m=4, k=2, compact=False, client_acks=True))
    oracle = {key: b"v%d" % key for key in range(16)}
    for key, value in oracle.items():
        file.insert(key, value)
    assert file.bucket_count == 4 and file.coordinator.state.n == 0
    shipped_by_a_dump = set()
    dump = RSDataServer.handle_bucket_dump

    def spy(server, message):
        if server._parity_queue:
            assert server._in_batch
            shipped_by_a_dump.add(server.node_id)
        reply = dump(server, message)
        assert not server._parity_queue
        return reply

    monkeypatch.setattr(RSDataServer, "handle_bucket_dump", spy)
    file.network.fail(victim)  # silently: the split is what finds it
    fresh = [k for k in range(100, 2000) if file.find_bucket_of(k) == 1][:12]
    assert file.insert_many([(k, b"w%d" % k) for k in fresh]).ok
    oracle.update((k, b"w%d" % k) for k in fresh)
    assert file.bucket_count > 4 and shipped_by_a_dump == {"f.d1"}
    assert file.network.is_available(victim)  # rebuilt onto a spare
    assert [k for k, v in oracle.items() if file.search(k).value != v] == []
    assert file.verify_parity_consistency() == []


class TestOpByOp:
    """An ``ops.batch`` applies op by op through the scalar primitives;
    its Δs still travel and are logged as the parity bucket's runs."""

    @staticmethod
    def _fresh(file, bucket, count, start=1000):
        keys = (k for k in range(start, 100 * start)
                if file.find_bucket_of(k) == bucket)
        return [next(keys) for _ in range(count)]

    def test_a_durable_batch_of_one_action_logs_one_frame(self, monkeypatch):
        file = LHRSFile(_cfg(
            m=4, k=2, capacity=128, durability=True,
            durability_checkpoint_interval=10**6,
        ))
        server = file.network.nodes["f.d2"]
        frames = []
        append = server._durable.wal.append

        def spy(entry):
            frames.append(entry)
            return append(entry)

        monkeypatch.setattr(server._durable.wal, "append", spy)
        keys = self._fresh(file, 2, 50)
        ops = [{"op": "insert", "key": k, "value": b"v%d" % k} for k in keys]
        reply = file.client.call("f.d2", "ops.batch", {"ops": ops})
        assert reply["results"] == ["applied"] * 50
        assert [list(frame) for frame in frames] == [["prun"]]
        action, _, seq0, logged, *_ = frames[0]["prun"]
        assert (action, seq0, logged) == ("insert", 1, keys)
        assert server._delta_history.runs[-1][3] == keys

    def test_a_plain_applied_mutation_answers_bare_applied(self):
        file = LHRSFile(_cfg(m=4, k=2, capacity=64))
        old = self._fresh(file, 1, 3, start=10)
        for key in old:
            file.insert(key, b"old")
        (new,) = self._fresh(file, 1, 1, start=5000)
        (absent,) = self._fresh(file, 1, 1, start=9000)
        ops = [
            {"op": "insert", "key": new, "value": b"n"},
            {"op": "update", "key": old[0], "value": b"u"},
            {"op": "delete", "key": old[1]},
            {"op": "insert", "key": old[2], "value": b"upsert"},
            {"op": "delete", "key": old[1]},  # already gone
            {"op": "update", "key": absent, "value": b"a"},
            {"op": "search", "key": old[0]},
        ]
        reply = file.client.call("f.d1", "ops.batch", {"ops": ops})
        assert reply["results"] == ["applied"] * 5 + [
            {"status": "applied", "error": "update of absent key"},
            {"status": "found", "value": b"u"},
        ]
        assert file.verify_parity_consistency() == []

    def test_a_full_bucket_verifies_each_op_once(self, monkeypatch):
        file = LHRSFile(_cfg(m=4, k=2, capacity=8))
        for key in self._fresh(file, 3, 8, start=10):
            file.insert(key, b"full")
        server = file.network.nodes["f.d3"]
        assert len(server.bucket) == server.bucket.capacity
        verified = []
        verify = RSDataServer._verify

        def counted(self, key):
            if self is server:
                verified.append(key)
            return verify(self, key)

        monkeypatch.setattr(RSDataServer, "_verify", counted)
        keys = self._fresh(file, 3, 20)
        ops = [{"op": "insert", "key": k, "value": b"v"} for k in keys]
        file.client.call("f.d3", "ops.batch", {"ops": ops})
        assert verified == keys


class TestRankIndex:
    """The rank→key reverse index behind the O(moves) ``_compact``."""

    @staticmethod
    def _servers(file):
        return [
            file.network.nodes[f"f.d{m}"]
            for m in range(file.bucket_count)
        ]

    def _assert_index_consistent(self, file):
        for server in self._servers(file):
            assert server._key_at[0] is None
            assert {
                rank: key for rank, key in enumerate(server._key_at)
                if key is not None
            } == {rank: key for key, rank in server.ranks.items()}

    def test_index_mirrors_ranks_through_restructuring(self):
        file = LHRSFile(_cfg(m=4, k=2, capacity=8))
        file.insert_many([(k, b"x%d" % k) for k in range(200)])
        self._assert_index_consistent(file)
        file.delete_many(list(range(0, 200, 2)))
        self._assert_index_consistent(file)
        while file.bucket_count > 8:
            file.rs_coordinator.merge_once()
        self._assert_index_consistent(file)
        file.insert_many([(k, b"y%d" % k) for k in range(200, 320)])
        self._assert_index_consistent(file)
        assert file.verify_parity_consistency() == []

    def test_compact_keeps_ranks_dense(self):
        file = LHRSFile(_cfg(m=2, k=1, capacity=32))
        for key in range(24):
            file.insert(key, b"r%d" % key)
        for key in range(0, 24, 3):
            file.delete(key)
        for server in self._servers(file):
            ranks = sorted(server.ranks.values())
            # dense {1..size} again after every delete's compaction
            assert ranks == list(range(1, len(ranks) + 1))
        self._assert_index_consistent(file)


class TestArithmeticSizes:
    """The batch plane ships the fattest messages of the stack — op
    lists, columnar Δ-blocks, per-op result lists — and fans each Δ
    batch out with a size handed along (``size=``).  All of it must
    weigh what :func:`~repro.sim.messages.estimate_size` walks, or the
    latency/stats model silently drifts between the batch and scalar
    arms: the suite-wide ``wire_sizes`` fixture (tests/conftest.py)
    checks every message this workload sends."""

    def test_precomputed_sizes_match_estimator(self, wire_sizes):
        # Small capacity: splits land mid-batch, so structural parity
        # batches (per-op dicts) and compaction ride alongside the
        # columnar insert/update blocks and per-op delete Δs.
        file = LHRSFile(_cfg(m=4, k=2, capacity=8))
        items = [(k, bytes([k % 251]) * (k % 17)) for k in range(120)]
        assert file.insert_many(items).ok
        assert file.update_many(
            [(k, b"x" * (k % 11)) for k, _ in items[:60]]
        ).ok
        assert file.delete_many([k for k, _ in items[::3]]).ok
        assert file.search_many([k for k, _ in items[:40]]).ok

        assert wire_sizes["ops.batch", False] > 0
        assert wire_sizes["ops.batch.reply", False] > 0
        # a fan-out sizes its batch once and hands the number to each copy
        assert wire_sizes["parity.batch", True] > 0
