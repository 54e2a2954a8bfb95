"""Unit tests of the parity bucket server in isolation."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LHRSConfig
from repro.core.parity_bucket import ParityServer
from repro.core.stripe_store import ABSENT, NO_KEY, StripeStore
from repro.gf import GF
from repro.rs.encoder import delta_payload, fold_delta
from repro.rs.generator import parity_matrix
from repro.sim import Network, Node


class Probe(Node):
    """A bare sender node for driving the parity server.  A run built
    without a sequence number (:func:`op`) is numbered with the
    target's next expected one on the way out, so it folds in order."""

    def send(self, recipient, kind, payload=None, size=0):
        super().send(recipient, kind, self._numbered(recipient, payload), size)

    def call(self, recipient, kind, payload=None, size=0):
        return super().call(
            recipient, kind, self._numbered(recipient, payload), size
        )

    def _numbered(self, recipient, payload):
        if not isinstance(payload, dict) or "runs" not in payload:
            return payload
        channels = self._net().nodes[recipient]._expected_seq
        return {"runs": [
            run if run[2] is not None
            else [run[0], run[1], channels.get(run[1], 1), *run[3:]]
            for run in payload["runs"]
        ]}


@pytest.fixture
def setup():
    net = Network()
    field = GF(8)
    row0 = parity_matrix(field, 4, 1).row(0)  # all ones (XOR bucket)
    row1 = parity_matrix(field, 4, 2).row(1)
    p0 = ParityServer("f.p0.0", "f", group=0, index=0, row=row0, field=field)
    p1 = ParityServer("f.p0.1", "f", group=0, index=1, row=row1, field=field)
    probe = Probe("probe")
    for node in (p0, p1, probe):
        net.register(node)
    return net, p0, p1, probe


def dumped_records(dump, field):
    """A ``parity.dump`` reply as per-rank record snapshots, rank order."""
    store = StripeStore(field, dump["store"]["slots"])
    store.load_image(dump["store"])
    return [store.snapshot(rank) for rank in sorted(store)]


def run(action, key, rank, pos, delta, length=None, seq=None):
    """One Δ as the run of one its data bucket creates; ``seq`` None
    leaves the numbering to :class:`Probe`."""
    return [action, pos, seq, [key], [rank], [delta],
            [len(delta) if length is None else length]]


def op(*args, **kwargs):
    """A ``parity.update`` payload: one Δ, a run of one."""
    return {"runs": [run(*args, **kwargs)]}


def recover(key):
    """A ``parity.recover`` payload for a lone parity bucket 0 of a
    group at level 1 (no data bucket is registered: only a key alone in
    its record group decodes)."""
    return {"key": key, "level": 1, "parity": []}


MISS = {"found": False, "value": None}


class TestApply:
    def test_insert_creates_record(self, setup):
        _, p0, _, probe = setup
        probe.send("f.p0.0", "parity.update", op("insert", 9, 1, 0, b"abcd"))
        record = p0._store.snapshot(1)
        assert record["keys"] == {0: 9}
        assert record["lengths"] == {0: 4}
        assert record["parity"] == b"abcd"

    def test_xor_bucket_accumulates_xor(self, setup):
        _, p0, _, probe = setup
        probe.send("f.p0.0", "parity.update", op("insert", 9, 1, 0, b"ab"))
        probe.send("f.p0.0", "parity.update", op("insert", 8, 1, 1, b"cd"))
        expected = bytes(x ^ y for x, y in zip(b"ab", b"cd"))
        assert p0._store.snapshot(1)["parity"] == expected
        assert p0.xor_folds == 2 and p0.general_folds == 0

    def test_second_parity_uses_general_gf(self, setup):
        _, _, p1, probe = setup
        probe.send("f.p0.1", "parity.update", op("insert", 9, 1, 1, b"zz"))
        assert p1.general_folds == 1  # row 1, position 1: coefficient != 1

    def test_first_column_is_xor_on_any_parity(self, setup):
        """All-ones first column: position 0 folds by XOR everywhere."""
        _, _, p1, probe = setup
        probe.send("f.p0.1", "parity.update", op("insert", 9, 1, 0, b"zz"))
        assert p1.xor_folds == 1
        assert p1._store.snapshot(1)["parity"] == b"zz"

    def test_update_changes_parity_and_length(self, setup):
        _, p0, _, probe = setup
        probe.send("f.p0.0", "parity.update", op("insert", 9, 1, 0, b"aaaa"))
        delta = bytes(x ^ y for x, y in zip(b"aaaa", b"bb\0\0"))
        probe.send("f.p0.0", "parity.update", op("update", 9, 1, 0, delta, 2))
        record = p0._store.snapshot(1)
        assert record["lengths"] == {0: 2}
        assert record["parity"][:2] == b"bb"

    def test_delete_last_member_removes_record(self, setup):
        _, p0, _, probe = setup
        probe.send("f.p0.0", "parity.update", op("insert", 9, 1, 0, b"abcd"))
        probe.send("f.p0.0", "parity.update", op("delete", 9, 1, 0, b"abcd", 0))
        assert 1 not in p0._store

    def test_delete_keeps_record_with_other_members(self, setup):
        _, p0, _, probe = setup
        probe.send("f.p0.0", "parity.update", op("insert", 9, 1, 0, b"ab"))
        probe.send("f.p0.0", "parity.update", op("insert", 8, 1, 2, b"cd"))
        probe.send("f.p0.0", "parity.update", op("delete", 9, 1, 0, b"ab", 0))
        assert p0._store.snapshot(1)["keys"] == {2: 8}
        assert p0._store.snapshot(1)["parity"] == b"cd"

    def test_batch(self, setup):
        _, p0, _, probe = setup
        probe.send(
            "f.p0.0", "parity.batch",
            {"runs": [run("insert", 9, 1, 0, b"ab"), run("insert", 8, 2, 1, b"cd")]},
        )
        assert set(p0._store) == {1, 2}

    def test_bad_position_rejected(self, setup):
        _, _, _, probe = setup
        with pytest.raises(ValueError):
            probe.send("f.p0.0", "parity.update", op("insert", 9, 1, 7, b"ab"))

    def test_bad_action_rejected(self, setup):
        _, _, _, probe = setup
        with pytest.raises(ValueError, match="unknown parity op"):
            probe.send("f.p0.0", "parity.update", op("frobnicate", 9, 1, 0, b"ab"))

    def test_symbol_ops_counted(self, setup):
        _, p0, _, probe = setup
        probe.send("f.p0.0", "parity.update", op("insert", 9, 1, 0, b"abcdef"))
        assert p0.symbol_ops == 6


class TestQueries:
    def test_locate_found_and_absent(self, setup):
        _, p0, _, probe = setup
        probe.send("f.p0.0", "parity.update", op("insert", 42, 3, 1, b"xy"))
        hit = probe.call("f.p0.0", "parity.recover", recover(42))
        assert hit == {"found": True, "value": b"xy"}
        assert p0._key_index[42] == (3, 1)
        assert probe.call("f.p0.0", "parity.recover", recover(99)) == MISS

    def test_rank_query(self, setup):
        _, _, _, probe = setup
        probe.send("f.p0.0", "parity.update", op("insert", 42, 3, 1, b"xy"))
        snap = probe.call("f.p0.0", "parity.rank", {"rank": 3})
        assert snap["keys"] == {1: 42}
        assert probe.call("f.p0.0", "parity.rank", {"rank": 4}) is None

    def test_dump_and_load_roundtrip(self, setup):
        net, p0, _, probe = setup
        probe.send("f.p0.0", "parity.update", op("insert", 42, 3, 1, b"xy"))
        probe.send("f.p0.0", "parity.update", op("insert", 41, 2, 0, b"zw"))
        dump = probe.call("f.p0.0", "parity.dump")
        fresh = ParityServer("f.p0.9", "f", 0, 0, p0.row, p0.field)
        net.register(fresh)
        probe.send("f.p0.9", "parity.load", dump)
        assert set(fresh._store) == {2, 3}
        assert fresh._store.snapshot(3)["keys"] == {1: 42}

    def test_status(self, setup):
        _, _, _, probe = setup
        probe.send("f.p0.0", "parity.update", op("insert", 42, 3, 1, b"xyz"))
        status = probe.call("f.p0.0", "status")
        assert status["records"] == 1
        assert status["parity_bytes"] == 3


class TestKeyIndex:
    """§4.1's in-bucket secondary index (key -> (rank, pos))."""

    def test_index_tracks_membership(self, setup):
        _, p0, _, probe = setup
        probe.send("f.p0.0", "parity.update", op("insert", 9, 1, 0, b"ab"))
        probe.send("f.p0.0", "parity.update", op("insert", 8, 2, 1, b"cd"))
        assert p0._key_index == {9: (1, 0), 8: (2, 1)}
        probe.send("f.p0.0", "parity.update", op("delete", 9, 1, 0, b"ab", 0))
        assert p0._key_index == {8: (2, 1)}

    def test_index_rebuilt_on_load(self, setup):
        net, p0, _, probe = setup
        probe.send("f.p0.0", "parity.update", op("insert", 42, 3, 1, b"xy"))
        dump = probe.call("f.p0.0", "parity.dump")
        fresh = ParityServer("f.p0.7", "f", 0, 0, p0.row, p0.field)
        net.register(fresh)
        probe.send("f.p0.7", "parity.load", dump)
        assert fresh._key_index == {42: (3, 1)}
        assert probe.call("f.p0.7", "parity.recover", recover(42))["value"] == b"xy"

    def test_locate_uses_index_consistently(self, setup):
        """Index answers must match a full scan of the records."""
        _, p0, _, probe = setup
        for i, key in enumerate((10, 11, 12, 13)):
            probe.send("f.p0.0", "parity.update",
                       op("insert", key, i + 1, i % 4, b"zz"))
        for key in (10, 11, 12, 13):
            hit = probe.call("f.p0.0", "parity.recover", recover(key))
            scan_hit = next(
                (rank for rank in p0._store
                 if key in p0._store.snapshot(rank)["keys"].values()),
                None,
            )
            assert p0._key_index[key][0] == scan_hit
            assert hit == {"found": True, "value": b"zz"}


def seq_op(seq, *args, **kwargs):
    """:func:`op` numbered ``seq``."""
    return op(*args, seq=seq, **kwargs)


def make_server():
    net = Network()
    field = GF(8)
    row = parity_matrix(field, 4, 1).row(0)
    server = ParityServer("f.p0.0", "f", group=0, index=0, row=row,
                          field=field)
    probe = Probe("probe")
    net.register(server)
    net.register(probe)
    return server, probe


class TestCrashConsistency:
    """A Δ-fold that dies mid-apply must leave no half-born state.

    ``_fold_run`` allocates a fresh rank's store row while folding but
    enters the key directory and ``_key_index`` only after.  A crash in
    between used to strand an allocated row that ``parity.recover`` and
    ``parity.dump`` could see with no keys; and a sequenced Δ that was
    rejected or died mid-fold used to leave its channel advanced, so
    the sender's retry came back ``duplicate`` and never applied.
    """

    @pytest.fixture
    def crashing(self, monkeypatch):
        server, probe = make_server()
        armed = {"on": False}
        real = GF.scale_accumulate

        def explode(*args, **kwargs):
            if armed["on"]:
                raise RuntimeError("simulated crash during fold")
            return real(*args, **kwargs)

        monkeypatch.setattr(GF, "scale_accumulate", explode)
        return server, probe, armed

    def test_crash_on_fresh_rank_leaves_locate_consistent(self, crashing):
        server, probe, armed = crashing
        armed["on"] = True
        with pytest.raises(RuntimeError, match="simulated crash"):
            probe.send("f.p0.0", "parity.update", op("insert", 9, 1, 0, b"ab"))
        # No half-born record anywhere recovery looks.
        assert 1 not in server._store
        assert 9 not in server._key_index
        assert probe.call("f.p0.0", "parity.recover", recover(9)) == MISS
        assert probe.call("f.p0.0", "parity.dump")["store"]["rank_of"] == []
        assert 1 not in server._store
        # The bucket still works: a clean retry of the same op succeeds.
        armed["on"] = False
        probe.send("f.p0.0", "parity.update", op("insert", 9, 1, 0, b"ab"))
        assert server._key_index[9] == (1, 0)
        assert probe.call("f.p0.0", "parity.recover", recover(9))["value"] == b"ab"
        assert server._store.snapshot(1)["parity"] == b"ab"

    def test_crash_on_existing_rank_keeps_old_record_intact(self, crashing):
        server, probe, armed = crashing
        probe.send("f.p0.0", "parity.update", op("insert", 9, 1, 0, b"ab"))
        before = server._store.snapshot(1)["parity"]
        armed["on"] = True
        with pytest.raises(RuntimeError):
            probe.send("f.p0.0", "parity.update", op("insert", 8, 1, 1, b"cd"))
        armed["on"] = False
        record = server._store.snapshot(1)
        assert record["keys"] == {0: 9}
        assert 8 not in server._key_index
        assert record["parity"] == before

    def test_unknown_action_rejected_before_any_fold(self):
        """Validation precedes mutation: a bad action folds nothing."""
        server, probe = make_server()
        probe.send("f.p0.0", "parity.update", op("insert", 9, 1, 0, b"ab"))
        before = server._store.snapshot(1)["parity"]
        ops_before = server.symbol_ops
        with pytest.raises(ValueError, match="unknown parity op"):
            probe.send("f.p0.0", "parity.update",
                       op("frobnicate", 8, 1, 1, b"cd"))
        assert server._store.snapshot(1)["parity"] == before
        assert server.symbol_ops == ops_before
        assert 2 not in server._store
        with pytest.raises(ValueError):
            probe.send("f.p0.0", "parity.update",
                       op("frobnicate", 7, 2, 0, b"zz"))
        assert 2 not in server._store  # fresh rank not allocated either

    @pytest.mark.parametrize("kind", ["parity.update", "parity.batch"])
    def test_rejected_sequenced_delta_leaves_channel_for_the_retry(self, kind):
        server, probe = make_server()

        def ship(payload):
            return probe.call("f.p0.0", kind, payload)

        assert ship(seq_op(1, "insert", 9, 1, 0, b"ab"))["status"] == "applied"
        with pytest.raises(ValueError, match="unknown parity op"):
            ship(seq_op(2, "frobnicate", 8, 2, 0, b"cd"))
        assert server._expected_seq == {0: 2}
        # The sender's retry of the corrected Δ is not a retransmission.
        reply = ship(seq_op(2, "insert", 8, 2, 0, b"cd"))
        assert reply["status"] == "applied"
        assert server._expected_seq[0] == 3
        assert server._store.snapshot(2)["parity"] == b"cd"
        assert not server.stale and server.duplicates_skipped == 0

    def test_sequenced_delta_dying_mid_fold_applies_on_retry(self, crashing):
        server, probe, armed = crashing
        armed["on"] = True
        with pytest.raises(RuntimeError, match="simulated crash"):
            probe.call("f.p0.0", "parity.update",
                       seq_op(1, "insert", 9, 1, 0, b"ab"))
        assert server._expected_seq.get(0, 1) == 1
        assert 1 not in server._store
        armed["on"] = False
        reply = probe.call("f.p0.0", "parity.update",
                           seq_op(1, "insert", 9, 1, 0, b"ab"))
        assert reply == {"status": "applied", "applied": 1}
        assert server._store.snapshot(1)["parity"] == b"ab"
        # ... and the retransmission of an applied Δ still is a duplicate.
        reply = probe.call("f.p0.0", "parity.update",
                           seq_op(1, "insert", 9, 1, 0, b"ab"))
        assert reply == {"status": "duplicate", "applied": 0}
        assert server._store.snapshot(1)["parity"] == b"ab"


class TestStoreViewLifecycle:
    """Stripe-store rows across record churn and reloads."""

    def test_deleted_rank_view_raises(self):
        server, probe = make_server()
        probe.send("f.p0.0", "parity.update", op("insert", 9, 1, 0, b"ab"))
        probe.send("f.p0.0", "parity.update", op("delete", 9, 1, 0, b"ab", 0))
        assert 1 not in server._store
        with pytest.raises(KeyError):
            server._store.view(1)

    def test_load_drops_old_ranks_and_serves_live_views(self):
        server, probe = make_server()
        probe.send("f.p0.0", "parity.update", op("insert", 9, 5, 0, b"old!"))
        dump = probe.call("f.p0.0", "parity.dump")
        assert dump["store"]["rank_of"] == [5]

        # Replace the content wholesale (the merge/recovery reload path).
        probe.send("f.p0.0", "parity.load", {
            "store": {
                "slots": 4, "width": 4, "rank_of": [2], "extents": [4],
                "matrix": b"newp", "dir_keys": [NO_KEY, 42, NO_KEY, NO_KEY],
                "dir_lengths": [ABSENT, 4, ABSENT, ABSENT],
            },
            "expected_seqs": {},
        })
        assert set(server._store) == {2}
        with pytest.raises(KeyError):
            server._store.view(5)
        assert probe.call("f.p0.0", "parity.recover", recover(9)) == MISS
        # The surviving record's symbols are live views of the new store:
        # folding through them writes through to the matrix.
        assert server._store.snapshot(2)["parity"] == b"newp"
        symbols = server._store.view(2)
        assert symbols.base is server._store.matrix.base or (
            symbols.base is server._store.matrix
        )


    def test_load_refuses_an_image_of_another_group_size(self):
        server, probe = make_server()
        image = StripeStore(server.field, slots=3).dump()
        with pytest.raises(ValueError, match="3 group positions"):
            probe.send("f.p0.0", "parity.load", {"store": image, "expected_seqs": {}})


class Coord(Node):
    """The coordinator as a lone parity bucket needs it."""

    def handle_rejoin(self, message):
        return {"role": "current"}

    def handle_report_stale(self, message):
        pass


def lone_parity(field, index=0, durable=True):
    """A parity bucket on a net of its own, with a sender and a
    coordinator stub; durable, it checkpoints only when asked (and at a
    restart or a catch-up), so a replay covers the same Δs whatever
    frames they came in."""
    net = Network()
    server = ParityServer(
        "f.p0.0", "f", group=0, index=index,
        row=parity_matrix(field, 4, index + 1).row(index), field=field,
    )
    probe = Probe("probe")
    for node in (server, probe, Coord("f.coord")):
        net.register(node)
    if durable:
        server.enable_durability(LHRSConfig(
            durability=True, durability_checkpoint_interval=10**6))
    return net, server, probe


class Oracle:
    """One parity bucket Δ by Δ: the scalar channel check and the
    ``rs.encoder.fold_delta`` reference, one array per record."""

    def __init__(self, field, row):
        self.field, self.row = field, row
        self.symbols, self.keys, self.lengths = {}, {}, {}
        self.expected, self.applied = {}, {}
        self.counters = dict.fromkeys(
            ("duplicates_skipped", "gaps_detected", "symbol_ops",
             "xor_folds", "general_folds"), 0)

    def deliver(self, delta):
        """One Δ, a run of one."""
        action, pos, seq, (key,), (rank,), (payload,), (length,) = delta
        expected = self.expected.get(pos, 1)
        if seq != expected:
            late = seq < expected
            self.counters["duplicates_skipped" if late else "gaps_detected"] += 1
            return
        self.expected[pos] = expected + 1
        self.applied.setdefault(pos, []).append((seq, action, key, rank))
        empty = np.zeros(0, dtype=self.field.symbol_dtype)
        self.symbols[rank] = fold_delta(
            self.field, self.symbols.get(rank, empty), self.row[pos], payload
        )
        self.counters["symbol_ops"] += self.field.symbol_length_for_bytes(
            len(payload))
        self.counters["xor_folds" if self.row[pos] == 1 else "general_folds"] += 1
        keys = self.keys.setdefault(rank, {})
        lengths = self.lengths.setdefault(rank, {})
        if action == "delete":
            del keys[pos], lengths[pos]
            if not keys:
                del self.symbols[rank], self.keys[rank], self.lengths[rank]
            return
        if action == "insert":
            keys[pos] = key
        lengths[pos] = length

    def replayed(self):
        """A restart re-folds (and re-counts) every Δ applied so far."""
        for name in ("symbol_ops", "xor_folds", "general_folds"):
            self.counters[name] *= 2

    def records(self):
        return [
            {"rank": rank, "keys": self.keys[rank],
             "lengths": self.lengths[rank],
             "parity": self.field.bytes_from_symbols(self.symbols[rank])}
            for rank in sorted(self.symbols)
        ]


def delta_streams(rng, positions):
    """One valid Δ stream (seq 1..n) per position over shared ranks."""
    streams, next_key = {}, 100
    for pos in positions:
        live, ops = {}, []
        for seq in range(1, rng.randint(3, 14) + 1):
            free = [rank for rank in range(6) if rank not in live]
            choice = rng.random()
            if not live or (free and choice < 0.5):
                rank, payload = rng.choice(free), rng.randbytes(rng.randint(0, 12))
                live[rank] = (next_key, payload)
                ops.append(run("insert", next_key, rank, pos, payload, seq=seq))
                next_key += 1
            elif choice < 0.8:
                rank = rng.choice(sorted(live))
                key, old = live[rank]
                new = rng.randbytes(rng.randint(0, 12))
                live[rank] = (key, new)
                ops.append(run("update", key, rank, pos,
                               delta_payload(old, new), len(new), seq=seq))
            else:
                rank = rng.choice(sorted(live))
                key, old = live.pop(rank)
                ops.append(run("delete", key, rank, pos, old, 0, seq=seq))
        streams[pos] = ops
    return streams


def delivery_schedule(rng, streams):
    """Slices ``(pos, lo, hi)`` of the streams in delivery order: every
    Δ at least once, channels interleaved, some slices resent — wholly,
    or running on into Δs not yet seen — and at the very end one Δ that
    skips a sequence number (the gap)."""
    cursor = dict.fromkeys(streams, 0)
    slices = []
    while open_channels := [p for p in streams if cursor[p] < len(streams[p])]:
        pos = rng.choice(open_channels)
        resend = cursor[pos] and rng.random() < 0.3
        lo = rng.randrange(cursor[pos]) if resend else cursor[pos]
        hi = min(len(streams[pos]), lo + rng.randint(1, 6))
        cursor[pos] = max(cursor[pos], hi)
        slices.append((pos, lo, hi))
    pos = rng.choice(sorted(streams))
    gap = run("insert", 99, 7, pos, b"gap", seq=len(streams[pos]) + 2)
    streams[pos].append(gap)
    slices.append((pos, len(streams[pos]) - 1, len(streams[pos])))
    return slices


def as_blocks(deltas):
    """Runs of one joined into maximal runs: same action and position,
    consecutive sequence numbers, distinct ranks."""
    blocks = []
    for delta in deltas:
        block = blocks[-1] if blocks else None
        if (
            block is None
            or block[:2] != delta[:2]
            or delta[4][0] in block[4]
            or delta[2] != block[2] + len(block[4])
        ):
            block = [*delta[:3], [], [], [], []]
            blocks.append(block)
        for column in range(3, 7):
            block[column].extend(delta[column])
    return blocks


class TestDeliveryShapes:
    """The wire shape a Δ stream arrives in is not part of its meaning."""

    SHAPES = ("update", "batch", "block", "mixed")

    def run_shape(self, shape, field, index, durable, streams, slices, cuts):
        net, server, probe = lone_parity(field, index, durable)
        oracle = Oracle(field, server.row)
        for step, (pos, lo, hi) in enumerate(slices):
            if durable and step == len(slices) // 2:
                net.fail("f.p0.0")
                net.restore("f.p0.0")
                assert server.fenced
                reply = probe.call("f.p0.0", "runs.catchup", {"runs": []})
                assert reply == {"ok": True, "applied": 0}
                oracle.replayed()
            deltas = streams[pos][lo:hi]
            for delta in deltas:
                oracle.deliver(delta)
            form = cuts.choice(self.SHAPES[:3]) if shape == "mixed" else shape
            if form == "update":
                for delta in deltas:
                    probe.call("f.p0.0", "parity.update", {"runs": [delta]})
                continue
            entries = as_blocks(deltas) if form == "block" else deltas
            while entries:
                cut = cuts.randint(1, len(entries))
                probe.call("f.p0.0", "parity.batch", {"runs": entries[:cut]})
                entries = entries[cut:]
        dump = probe.call("f.p0.0", "parity.dump")
        return server, dumped_records(dump, field), oracle

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.sampled_from([8, 16]),
        index=st.sampled_from([0, 1]),  # the XOR row and a general one
        durable=st.booleans(),
        positions=st.sets(st.integers(0, 3), min_size=1),
    )
    def test_every_shape_folds_the_same(self, seed, width, index, durable,
                                        positions):
        field, rng = GF(width), random.Random(seed)
        streams = delta_streams(rng, sorted(positions))
        slices = delivery_schedule(rng, streams)
        seen = []
        for shape in self.SHAPES:
            server, records, oracle = self.run_shape(
                shape, field, index, durable, streams, slices,
                random.Random(rng.random()),
            )
            assert records == oracle.records()
            assert server._expected_seq == oracle.expected
            counters = {name: getattr(server, name) for name in oracle.counters}
            assert counters == oracle.counters
            assert server.stale and oracle.counters["gaps_detected"] == 1
            if durable:  # the catch-up ring names every applied Δ, once
                assert {
                    pos: [
                        (run[2] + i, run[0], key, rank)
                        for run in ring.runs
                        for i, (key, rank) in enumerate(zip(run[3], run[4]))
                    ]
                    for pos, ring in server._delta_log.items()
                } == oracle.applied
            seen.append((records, counters))
        assert all(result == seen[0] for result in seen)


class TestNestedRows:
    def test_rows_nested_across_k(self):
        """Row i of the (m, k) Cauchy parity matrix is independent of k —
        raising availability never re-keys existing parity buckets."""
        field = GF(8)
        for m in (2, 4, 8):
            for i in range(3):
                rows = [
                    parity_matrix(field, m, k).row(i) for k in range(i + 1, 5)
                ]
                assert all(r == rows[0] for r in rows)
