"""The durability shell (``repro.core.durable``), checked once for both
bucket kinds: every test runs against a lone data server and a lone
parity server, each owning a :class:`Durability` at
``wal_fsync_interval=64`` — nothing but a ``ctl`` frame or a checkpoint
reaches the durable tier on its own.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import durable
from repro.core.config import LHRSConfig
from repro.core.data_bucket import DATA_FENCED_KINDS, RSDataServer
from repro.core.durable import RunRing
from repro.core.parity_bucket import PARITY_FENCED_KINDS, ParityServer
from repro.gf import GF
from repro.proto.schema import REGISTRY
from repro.proto.wire import HANDLER_NAMES
from repro.rs.generator import parity_matrix
from repro.sim import FaultPlane, Network, Node
from repro.sim.messages import Message
from repro.sim.network import NodeUnavailable

CONFIG = LHRSConfig(
    durability=True, wal_fsync_interval=64, durability_checkpoint_interval=4,
    retry_attempts=3,
)
#: the message that makes each kind log its ``ctl`` frame
CTL = {
    "data": ("level.set", {"level": 1}),
    "parity": ("parity.reset", {"positions": [3]}),
}


class Coord(Node):
    """The coordinator as a lone bucket needs it: it notes who rejoins."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.rejoins = []

    def handle_rejoin(self, message):
        self.rejoins.append(message.payload)
        return {"role": "current"}


def make_server(kind):
    if kind == "data":
        return RSDataServer(
            "f.d0", "f", number=0, level=0, capacity=64, n0=4, group_size=4
        )
    field = GF(8)
    return ParityServer(
        "f.p0.0", "f", group=0, index=0,
        row=parity_matrix(field, 4, 1).row(0), field=field,
    )


class Rig:
    def __init__(self, kind):
        self.kind = kind
        self.net = Network()
        self.server = make_server(kind)
        self.coord = Coord("f.coord")
        self.net.register(self.server)
        self.net.register(self.coord)
        self.server.enable_durability(CONFIG)
        self.node = self.server.node_id
        self.durable = self.server._durable
        self.disk, self.wal = self.durable.disk, self.durable.wal
        self.deltas = 0

    def mutate(self):
        """One logged Δ, applied below ``receive`` (no checkpoint)."""
        self.deltas += 1
        n = self.deltas
        if self.kind == "data":
            self.server.apply_insert(n, b"v%d" % n)
        else:
            self.server._fold_run("insert", 0, n, [n], [n], [b"v%d" % n], [2])

    def ctl(self):
        self.net.send("f.coord", self.node, *CTL[self.kind])

    def reboot(self):
        self.net.fail(self.node)
        self.net.restore(self.node)

    def break_disk(self):
        plane = FaultPlane(rng=np.random.default_rng(1))
        plane.add_disk_rule(node=self.node, io_error=1.0)
        self.net.install_fault_plane(plane)


@pytest.fixture(params=["data", "parity"])
def rig(request):
    return Rig(request.param)


def test_a_ctl_frame_is_durable_when_log_returns(rig):
    """And with it every frame logged before it: the crash that follows
    loses nothing, where a Δ frame alone stays in the unsynced tail."""
    rig.mutate()
    rig.mutate()
    assert rig.disk.unsynced_bytes(rig.wal.LOG) > 0
    rig.ctl()
    assert rig.disk.unsynced_bytes(rig.wal.LOG) == 0
    state, tail, clean = rig.durable.read_back(rig.kind)
    assert state["kind"] == rig.kind and clean
    assert ["ctl" in frame for frame in tail] == [False, False, True]


def test_a_delta_frame_alone_dies_with_the_crash(rig):
    rig.mutate()
    assert rig.durable.read_back(rig.kind)[1] == []


@pytest.mark.parametrize("write", ["append", "checkpoint"])
def test_a_disk_error_is_fail_stop(rig, write):
    rig.break_disk()
    if rig.kind == "data" and write == "append":
        # a batch's open run: (run, ranks), its one Δ not yet logged
        rig.server._parity_queue.append(
            (["insert", 0, 1, [9], [1], [b"v9"], [2]], {1})
        )
    failing = rig.mutate if write == "append" else rig.server.checkpoint_now
    with pytest.raises(NodeUnavailable):
        failing()
    assert not rig.net.is_available(rig.node)
    if rig.kind == "data" and write == "append":
        assert rig.server._parity_queue == []  # a dead node ships nothing
    # failing an already failed node again is not an error either
    with pytest.raises(NodeUnavailable):
        rig.durable.fail_stop()


def test_checkpoints_fall_due_between_messages_only(rig):
    for _ in range(CONFIG.durability_checkpoint_interval):
        assert not rig.durable.due()
        rig.mutate()
    assert rig.durable.due() and rig.durable.appends == 4
    rig.durable.restarting = True
    assert not rig.durable.due()
    rig.durable.restarting = False
    rig.net.call("f.coord", rig.node, "status")  # any message: receive() ends
    assert not rig.durable.due() and rig.durable.appends == 0
    assert rig.disk.unsynced_bytes(rig.wal.LOG) == 0
    for _ in range(CONFIG.durability_checkpoint_interval):
        rig.mutate()
    rig.net.fail(rig.node)
    assert not rig.durable.due()  # a failed node writes nothing


@pytest.mark.parametrize("damage", ["rotted", "missing", "foreign"])
def test_read_back_without_a_usable_image(rig, damage):
    """No base to replay onto: the synced tail is not returned either,
    and the server restarts empty, fenced and asking for a rebuild."""
    rig.mutate()
    rig.ctl()  # the tail is on disk
    kind = rig.kind
    if damage == "rotted":
        image = bytearray(rig.disk.read(rig.wal.CHECKPOINT))
        image[len(image) // 2] ^= 0x55
        rig.disk.write_file(rig.wal.CHECKPOINT, bytes(image))
        rig.disk.fsync(rig.wal.CHECKPOINT)
    elif damage == "missing":
        rig.disk.write_file(rig.wal.CHECKPOINT, b"")
        rig.disk.fsync(rig.wal.CHECKPOINT)
    else:
        kind = {"data": "parity", "parity": "data"}[kind]
    assert rig.durable.read_back(kind) == (None, [], False)
    if damage != "foreign":
        rig.reboot()
        assert rig.coord.rejoins[-1]["clean"] is False
        assert rig.coord.rejoins[-1]["epoch"] == 0
        assert rig.server.fenced
        held = rig.server.ranks if rig.kind == "data" else rig.server._store
        assert len(held) == 0


def test_a_reboot_replays_once_and_rejoins(rig):
    rig.mutate()
    rig.ctl()
    rig.server.epoch = 5
    rig.server.checkpoint_now()
    rig.mutate()  # unsynced: lost
    rig.reboot()
    (asked,) = rig.coord.rejoins
    assert asked["node"] == rig.node
    assert asked["clean"] and asked["epoch"] == 5
    assert rig.server.fenced and not rig.durable.restarting
    # the hook is once-per-reboot: a restart that is told again mid-way
    # (a scheduled restore firing inside its backoff) does not nest
    rejoin = rig.durable.rejoin
    rig.durable.rejoin = lambda payload: rig.server.on_restored() or rejoin(payload)
    rig.reboot()
    assert len(rig.coord.rejoins) == 2 and not rig.durable.restarting


def rejoin_calls(rig, monkeypatch):
    calls = []
    call = rig.net.call

    def counted(sender, recipient, kind, *args, **kwargs):
        if kind == "rejoin":
            calls.append((sender, recipient))
        return call(sender, recipient, kind, *args, **kwargs)

    monkeypatch.setattr(rig.net, "call", counted)
    return calls


def test_rejoin_ladder_against_a_dark_coordinator(rig, monkeypatch):
    """Exactly ``retry_attempts`` asks, backed off, then it stays down."""
    calls = rejoin_calls(rig, monkeypatch)
    rig.net.fail("f.coord")
    before = rig.net.now
    rig.reboot()
    assert calls == [(rig.node, "f.coord")] * CONFIG.retry_attempts
    assert rig.net.now > before  # it backed off between the attempts
    assert not rig.net.is_available(rig.node) and rig.server.fenced


@pytest.mark.parametrize("lost, asks, up", [
    ("rejoin", CONFIG.retry_attempts, False),  # the handler never ran
    ("rejoin.reply", 1, True),  # the coordinator acted; only the ack is lost
])
def test_rejoin_over_a_lossy_link(rig, monkeypatch, lost, asks, up):
    calls = rejoin_calls(rig, monkeypatch)
    plane = FaultPlane(rng=np.random.default_rng(1))
    plane.add_rule(kinds={lost}, fail=1.0)
    rig.net.install_fault_plane(plane)
    rig.reboot()
    assert len(calls) == asks
    assert len(rig.coord.rejoins) == (1 if up else 0)
    assert rig.net.is_available(rig.node) is up and rig.server.fenced


def test_rejoin_never_fails_a_replacement_under_its_id(rig, monkeypatch):
    """A rebuild installed a spare under this node's id while it was
    down: the zombie's exhausted ladder must leave the spare alone."""
    calls = rejoin_calls(rig, monkeypatch)
    rig.net.fail("f.coord")
    rig.net.fail(rig.node)
    rig.net.unregister(rig.node)
    rig.net.register(make_server(rig.kind))
    rig.server.on_restored()
    assert len(calls) == CONFIG.retry_attempts
    assert rig.net.is_available(rig.node)


def test_a_ram_only_server_has_no_shell(rig):
    server = make_server(rig.kind)
    rig.net.unregister(rig.node)
    rig.net.register(server)
    assert server._durable is None
    server.on_restored()  # nothing to replay, nobody told
    assert rig.coord.rejoins == []
    status = rig.net.call("f.coord", rig.node, "status")
    assert "fenced" not in status


# ----------------------------------------------------------------------
# the receive path both kinds share
# ----------------------------------------------------------------------
FENCED_KINDS = {"data": DATA_FENCED_KINDS, "parity": PARITY_FENCED_KINDS}


def test_a_fenced_bucket_refuses_exactly_its_fenced_kinds(rig, monkeypatch):
    """Every kind the class handles is offered to the fenced bucket (the
    handlers stubbed): its kind set is refused, typed ``.fenced``, and
    everything else reaches its handler."""
    cls = type(rig.server)
    handled = [kind for kind in REGISTRY if hasattr(cls, HANDLER_NAMES[kind])]
    ran, refused = [], set()
    for kind in handled:
        monkeypatch.setattr(
            cls, HANDLER_NAMES[kind],
            lambda self, message: ran.append(message.kind),
        )
    rig.server.fenced = True
    for kind in handled:
        try:
            rig.server.receive(Message("f.coord", rig.node, kind))
        except NodeUnavailable as failure:
            assert failure.fenced and failure.node_id == rig.node
            refused.add(kind)
    assert refused == FENCED_KINDS[rig.kind]
    assert ran == [kind for kind in handled if kind not in refused]


def test_a_fenced_bucket_still_serves_its_catch_up(rig):
    rig.mutate()
    rig.ctl()
    rig.reboot()
    assert rig.server.fenced
    with pytest.raises(NodeUnavailable):
        rig.net.call("f.coord", rig.node, sorted(FENCED_KINDS[rig.kind])[0])
    reply = rig.net.call("f.coord", rig.node, "runs.catchup", {"runs": []})
    assert reply["ok"] and not rig.server.fenced


def test_a_due_checkpoint_is_taken_once_per_receive(rig, monkeypatch):
    taken = []
    checkpoint_now = type(rig.server).checkpoint_now
    monkeypatch.setattr(
        type(rig.server), "checkpoint_now",
        lambda self: taken.append(self) or checkpoint_now(self),
    )
    rig.net.call("f.coord", rig.node, "status")
    assert taken == []  # not due
    for _ in range(CONFIG.durability_checkpoint_interval):
        rig.mutate()
    assert rig.durable.due()
    rig.net.call("f.coord", rig.node, "status")
    assert taken == [rig.server] and not rig.durable.due()
    monkeypatch.setattr(rig.durable, "due", lambda: True)
    for receives in range(2, 5):
        rig.net.call("f.coord", rig.node, "status")
        assert len(taken) == receives


def test_a_handler_swapped_on_the_class_later_is_the_one_that_runs(
    rig, monkeypatch
):
    """What the span recorder and the mutants rely on: dispatch is
    late-bound, on instances already serving."""
    assert isinstance(rig.net.call("f.coord", rig.node, "status"), dict)
    monkeypatch.setattr(
        type(rig.server), "handle_status", lambda self, message: "swapped"
    )
    assert rig.net.call("f.coord", rig.node, "status") == "swapped"


class TestRunRing:
    """The history ring both kinds keep, against a list of Δ
    descriptors ``(seq, action, key, rank)``."""

    CAPACITY = 32

    @settings(max_examples=100, deadline=None)
    @given(
        # (sequence numbers skipped before the run, its length)
        runs=st.lists(
            st.tuples(st.sampled_from([0, 0, 0, 1, 5]), st.integers(1, 40)),
            min_size=1, max_size=12,
        ),
        afters=st.lists(st.integers(0, 400), min_size=1, max_size=4),
        lag=st.integers(0, 2),
    )
    def test_matches_a_list_of_descriptors(self, runs, afters, lag):
        ring, logged, seq = RunRing(), [], 1
        with mock.patch.object(durable, "DELTA_LOG_CAPACITY", self.CAPACITY):
            for step, (skipped, count) in enumerate(runs):
                seq += skipped
                keys = [1000 * step + i for i in range(count)]
                ranks = [(seq + i) % 50 for i in range(count)]
                ring.remember(["update", 0, seq, keys, ranks,
                               [b"d"] * count, [1] * count])
                logged.append([
                    (seq + i, "update", key, rank)
                    for i, (key, rank) in enumerate(zip(keys, ranks))
                ])
                seq += count
                # old runs retire whole by Δ count; the newest stays
                # whatever its length
                kept = [logged[-1]]
                for older in reversed(logged[:-1]):
                    if sum(map(len, kept)) + len(older) > self.CAPACITY:
                        break
                    kept.insert(0, older)
                assert [self.descriptors(run) for run in ring.runs] == kept
                assert ring.held == sum(map(len, kept))
                assert ring.last == seq - 1
                held = {entry[0] for run in kept for entry in run}
                live = seq - 1 + lag  # a sender may be past its ring
                for after in afters:
                    reply = ring.tail(after, live)
                    returned = [
                        entry[0]
                        for run in reply["runs"] for entry in self.descriptors(run)
                    ]
                    first = returned[0] if returned else after + 1
                    assert reply["covered"] == (
                        first <= after + 1
                        and returned == list(range(first, live + 1))
                    )
                    assert reply["covered"] == (
                        set(range(after + 1, live + 1)) <= held
                    )
                    assert reply["live"] == live

    @staticmethod
    def descriptors(run):
        action, _, seq0, keys, ranks = run[:5]
        return [
            (seq0 + i, action, key, rank)
            for i, (key, rank) in enumerate(zip(keys, ranks))
        ]
