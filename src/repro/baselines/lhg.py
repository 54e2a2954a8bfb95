"""LH*g: high availability by record grouping (the LH*RS predecessor).

The scheme LH*RS generalizes: primary records carry an invariant *record
group key* (g, r) — g the bucket group where the record was inserted, r
the inserting bucket's counter — and a separate LH* **parity file** F2
holds one XOR parity record per record group, keyed by (g, r).

Hallmarks reproduced here, as contrasts for experiment E10:

* splits move primary records with their group keys unchanged → **zero
  parity traffic on splits** (LH*RS pays Δ-deletes/inserts instead, but
  gains direct group→parity addressing);
* 1-availability only — a second loss in a group is unrecoverable;
* recovery must **scan the whole parity file** (its location for a given
  bucket is not computable), ~M/group_size messages, where LH*RS reads
  exactly its group's m−1+k survivors.

Primary buckets act as LH* clients of F2: they address parity records
through their own images of F2's state and converge via IAMs, and F2
grows by its own splits — both LH* mechanisms reused verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.lh import addressing
from repro.lh.image import ClientImage
from repro.sdds.client import Client, SearchOutcome
from repro.sdds.coordinator import Coordinator, SplitPolicy
from repro.sdds.file import LHStarFile
from repro.sdds.server import DataServer
from repro.sim.messages import Message
from repro.sim.network import Network, NodeUnavailable

#: rank space per bucket group in the encoded parity key
RANK_BITS = 24


def encode_group_key(group: int, rank: int) -> int:
    """The parity file's integer key for record group (g, r)."""
    if rank >= (1 << RANK_BITS):
        raise ValueError("rank exceeds the encodable space")
    return (group << RANK_BITS) | rank


def decode_group_key(gkey: int) -> tuple[int, int]:
    """Inverse of :func:`encode_group_key`."""
    return gkey >> RANK_BITS, gkey & ((1 << RANK_BITS) - 1)


def xor_into(acc: bytearray, data: bytes) -> bytearray:
    """acc ^= data, growing acc to fit (the paper's zero-padding rule)."""
    if len(data) > len(acc):
        acc.extend(b"\0" * (len(data) - len(acc)))
    for i, byte in enumerate(data):
        acc[i] ^= byte
    return acc


@dataclass
class GParityRecord:
    """One XOR parity record of F2: key directory + parity bits."""

    gkey: int
    keys: dict[int, int]      # primary key -> payload length
    parity: bytearray

    def wire_size(self) -> int:
        return 24 * len(self.keys) + len(self.parity)


class GParityServer(DataServer):
    """An F2 bucket: stores parity records, folds XOR deltas.

    Inherits the LH* server machinery (A2 verification on the encoded
    group key, forwarding, splits, overflow reports) — F2 *is* an LH*
    file, exactly as the paper specifies.
    """

    def handle_gparity_apply(self, message: Message) -> None:
        payload = message.payload
        gkey = payload["gkey"]
        forward_to = self._verify(gkey)
        if forward_to is not None:
            self.forwards += 1
            hopped = dict(payload)
            hopped["hops"] = hopped.get("hops", 0) + 1
            self.send(self._data_node(forward_to), "gparity.apply", hopped)
            return
        record: GParityRecord | None = self.bucket.records.get(gkey)
        action = payload["op"]
        if record is None:
            record = GParityRecord(gkey=gkey, keys={}, parity=bytearray())
            self.bucket.put(gkey, record)
        xor_into(record.parity, payload["delta"])
        key = payload["key"]
        if action == "insert":
            record.keys[key] = payload["length"]
        elif action == "update":
            record.keys[key] = payload["length"]
        elif action == "delete":
            record.keys.pop(key, None)
            if not record.keys:
                self.bucket.delete(gkey)
        else:
            raise ValueError(f"unknown parity op {action!r}")
        if payload.get("hops") and payload.get("sender"):
            # IAM back to the primary server acting as our client.
            self.send(
                payload["sender"], "gparity.iam",
                {"j": self.level, "a": self.number},
            )
        self._report_overflow_if_needed()

    # ------------------------------------------------------------------
    # recovery queries
    # ------------------------------------------------------------------
    def handle_gparity_scan_for_bucket(self, message: Message) -> list[dict]:
        """A4 step: parity records with a member currently at bucket m."""
        n, i = message.payload["state"]
        n0 = message.payload["n0"]
        target = message.payload["bucket"]
        out = []
        for record in self.bucket.records.values():
            members = [
                key for key in record.keys
                if addressing.lh_address(key, n, i, n0) == target
            ]
            if members:
                out.append(self._snapshot(record))
        return out

    def handle_gparity_locate(self, message: Message) -> dict | None:
        """A7 step: the parity record containing a primary key."""
        key = message.payload["key"]
        for record in self.bucket.records.values():
            if key in record.keys:
                return self._snapshot(record)
        return None

    @staticmethod
    def _snapshot(record: GParityRecord) -> dict:
        return {
            "gkey": record.gkey,
            "keys": dict(record.keys),
            "parity": bytes(record.parity),
        }

    def handle_gparity_load(self, message: Message) -> None:
        for snap in message.payload["records"]:
            self.bucket.put(
                snap["gkey"],
                GParityRecord(
                    gkey=snap["gkey"],
                    keys=dict(snap["keys"]),
                    parity=bytearray(snap["parity"]),
                ),
            )


class LHGDataServer(DataServer):
    """A primary (F1) bucket: stamps group keys, maintains F2 parity."""

    def __init__(self, node_id: str, file_id: str, number: int, level: int,
                 capacity: int, n0: int, group_size: int, parity_file_id: str):
        super().__init__(node_id, file_id, number, level, capacity, n0)
        self.group_size = group_size
        self.parity_file_id = parity_file_id
        self.group = number // group_size
        self.counter = 0
        #: this server's LH* image of the parity file's state
        self.parity_image = ClientImage(n0=1)

    # ------------------------------------------------------------------
    def _parity_send(self, op: dict) -> None:
        address = self.parity_image.address(op["gkey"])
        op = dict(op, sender=self.node_id)
        try:
            self.send(f"{self.parity_file_id}.d{address}", "gparity.apply", op)
        except NodeUnavailable as failure:
            # Parity bucket down — possibly a forwarding hop beyond the
            # image-addressed one, hence failure.node_id, not address.
            # The coordinator rebuilds it from the primary file (A5);
            # current primary state already includes this mutation, so
            # no resend (same rule as LH*RS).
            self.send(
                self._coordinator(), "report.unavailable",
                {"node": failure.node_id, "kind": None, "op": None},
            )

    def handle_gparity_iam(self, message: Message) -> None:
        self.parity_image.adjust(message.payload["j"], message.payload["a"])

    # ------------------------------------------------------------------
    def apply_insert(self, key: int, value: bytes) -> None:
        if key in self.bucket:
            self.apply_update(key, value)
            return
        self.counter += 1
        gkey = encode_group_key(self.group, self.counter)
        self.bucket.put(key, (gkey, value))
        self._parity_send(
            {"gkey": gkey, "op": "insert", "key": key,
             "delta": value, "length": len(value)}
        )

    def apply_update(self, key: int, value: bytes) -> None:
        if key not in self.bucket:
            self.apply_insert(key, value)
            return
        gkey, old = self.bucket.get(key)
        delta = bytes(
            a ^ b for a, b in zip(old.ljust(len(value), b"\0"),
                                  value.ljust(len(old), b"\0"))
        )
        self.bucket.put(key, (gkey, value))
        self._parity_send(
            {"gkey": gkey, "op": "update", "key": key,
             "delta": delta, "length": len(value)}
        )

    def apply_delete(self, key: int) -> None:
        if key not in self.bucket:
            return
        gkey, payload = self.bucket.delete(key)
        self._parity_send(
            {"gkey": gkey, "op": "delete", "key": key,
             "delta": payload, "length": 0}
        )

    # Splits: base handle_split moves (key, (gkey, payload)) items with
    # group keys untouched — the scheme's zero-parity-traffic hallmark.

    # ------------------------------------------------------------------
    def _stored_value(self, key: int) -> bytes | None:
        """Searches return the payload, never the group key beside it."""
        stored = self.bucket.records.get(key)
        return stored[1] if stored is not None else None

    def scan_matches(self, payload: dict) -> list[tuple[int, Any]]:
        predicate = payload.get("predicate")
        out = []
        for key, (gkey, value) in self.bucket.records.items():
            if predicate is None or predicate(key, value):
                out.append((key, value))
        return out

    def handle_record_fetch(self, message: Message) -> dict:
        key = message.payload["key"]
        if key in self.bucket:
            return {"found": True, "payload": self.bucket.get(key)[1]}
        return {"found": False, "payload": None}

    def handle_contributions_for_parity_bucket(self, message: Message) -> list:
        """A5 step: my records whose parity record lives at F2 bucket m."""
        n, i = message.payload["state"]
        target = message.payload["bucket"]
        out = []
        for key, (gkey, payload) in self.bucket.records.items():
            if addressing.lh_address(gkey, n, i, 1) == target:
                out.append((gkey, key, payload))
        return out

    def handle_bucket_load(self, message: Message) -> None:
        self.bucket.records = dict(message.payload["records"])
        self.bucket.level = message.payload["level"]
        self.counter = message.payload["counter"]

    def handle_status(self, message: Message) -> dict:
        status = super().handle_status(message)
        status["counter"] = self.counter
        return status


class LHGParityCoordinator(Coordinator):
    """Coordinator of the parity file F2 (its buckets store parity records)."""

    def make_server(self, number: int, level: int) -> GParityServer:
        return GParityServer(
            node_id=self._data_node(number),
            file_id=self.file_id,
            number=number,
            level=level,
            capacity=self.capacity,
            n0=self.state.n0,
        )


class LHGCoordinator(Coordinator):
    """Coordinator of the primary file F1; also drives LH*g recovery.

    The paper keeps a single coordinator managing both files' states; we
    model F2's split bookkeeping as a sub-coordinator object on the same
    logical node group, reached by counted messages like everything else.
    """

    def __init__(self, node_id: str, file_id: str, capacity: int,
                 n0: int = 1, policy: SplitPolicy | None = None,
                 group_size: int = 4, parity_capacity: int | None = None):
        super().__init__(node_id, file_id, capacity=capacity, n0=n0,
                         policy=policy)
        self.group_size = group_size
        self.parity_capacity = parity_capacity or capacity
        self.parity_file_id = f"{file_id}q"

    def make_server(self, number: int, level: int) -> LHGDataServer:
        return LHGDataServer(
            node_id=self._data_node(number),
            file_id=self.file_id,
            number=number,
            level=level,
            capacity=self.capacity,
            n0=self.state.n0,
            group_size=self.group_size,
            parity_file_id=self.parity_file_id,
        )

    def merge_once(self) -> tuple[int, int]:
        raise NotImplementedError(
            "LH*g merges need the §4.3 re-grouping of records merging back "
            "into their insert bucket (else one bucket could hold two "
            "members of a record group, breaking 1-availability); the "
            "paper sketches it, this baseline does not implement it"
        )

    # ------------------------------------------------------------------
    @property
    def parity_coordinator(self) -> "LHGParityCoordinator":
        return self._net().nodes[f"{self.parity_file_id}.coord"]

    def parity_state(self):
        return self.parity_coordinator.state

    def _parity_nodes(self) -> list[str]:
        return [
            f"{self.parity_file_id}.d{m}"
            for m in self.parity_state().buckets()
        ]

    # ------------------------------------------------------------------
    # unavailability handling (1-availability)
    # ------------------------------------------------------------------
    def handle_report_unavailable(self, message: Message) -> None:
        payload = message.payload
        kind, op = payload.get("kind"), payload.get("op")
        if kind == "search" and op:
            found, value = self.recover_record(op["key"])
            self.send(
                op["client"], "search.result",
                {"request": op["request"], "key": op["key"],
                 "found": found, "value": value},
            )
            op = None
        node_id = payload["node"]
        if not self._net().is_available(node_id):
            self.recover_node(node_id)
        if op is not None:
            self.deliver_routed(
                kind, dict(op, hops=op.get("hops", 0) + 1),
                self.state.address(op["key"]),
            )

    def recover_node(self, node_id: str) -> None:
        if node_id.startswith(f"{self.parity_file_id}.d"):
            self.recover_parity_bucket(int(node_id.rsplit("d", 1)[1]))
        elif node_id.startswith(f"{self.file_id}.d"):
            self.recover_primary_bucket(int(node_id.rsplit("d", 1)[1]))
        else:
            raise ValueError(f"cannot recover node {node_id!r}")

    # ------------------------------------------------------------------
    # Algorithm A4: primary bucket recovery
    # ------------------------------------------------------------------
    def recover_primary_bucket(self, bucket: int) -> int:
        """Scan F2 for members currently addressed to ``bucket``, fetch
        each record group's other members, XOR-reconstruct, install."""
        net = self._net()
        replies, missing = net.multicast(
            self.node_id,
            self._parity_nodes(),
            "gparity.scan_for_bucket",
            {
                "bucket": bucket,
                "state": self.state.as_tuple(),
                "n0": self.state.n0,
            },
        )
        if missing:
            raise RuntimeError(
                f"LH*g is 1-available: parity buckets {missing} are also down"
            )
        records: list[tuple[int, int, bytes]] = []  # (key, gkey, payload)
        max_rank = 0
        level = self.state.level_of(bucket)
        for snaps in replies.values():
            for snap in snaps:
                member_keys = [
                    key for key in snap["keys"]
                    if self.state.address(key) == bucket
                ]
                # Proposition 1: members sit in distinct buckets, so at
                # most one member of a group can live at ``bucket``.
                assert len(member_keys) <= 1
                acc = bytearray(snap["parity"])
                for other in snap["keys"]:
                    if other in member_keys:
                        continue
                    reply = net.call(
                        self.node_id,
                        f"{self.file_id}.d{self.state.address(other)}",
                        "record.fetch",
                        {"key": other},
                    )
                    xor_into(acc, reply["payload"])
                group, rank = decode_group_key(snap["gkey"])
                # A4 counter rule: ranks of groups in this bucket's own
                # bucket group that could have been stamped here.
                if group == bucket // self.group_size and any(
                    addressing.h(l, key) == bucket
                    for key in snap["keys"]
                    for l in range(level + 1)
                ):
                    max_rank = max(max_rank, rank)
                if member_keys:
                    key = member_keys[0]
                    payload = bytes(acc[: snap["keys"][key]])
                    records.append((key, snap["gkey"], payload))

        node_id = f"{self.file_id}.d{bucket}"
        net.unregister(node_id)
        net.register(self.make_server(bucket, level))
        net.send(
            self.node_id, node_id, "bucket.load",
            {
                "records": [(key, (gkey, payload)) for key, gkey, payload in records],
                "level": level,
                "counter": max_rank,
            },
        )
        return len(records)

    # ------------------------------------------------------------------
    # Algorithm A5: parity bucket recovery
    # ------------------------------------------------------------------
    def recover_parity_bucket(self, bucket: int) -> int:
        """Scan F1 for records whose parity record belongs at ``bucket``;
        re-encode and install a spare."""
        net = self._net()
        parity_state = self.parity_state()
        targets = [f"{self.file_id}.d{m}" for m in self.state.buckets()]
        replies, missing = net.multicast(
            self.node_id,
            targets,
            "contributions.for_parity_bucket",
            {"bucket": bucket, "state": parity_state.as_tuple()},
        )
        if missing:
            raise RuntimeError(
                f"LH*g is 1-available: primary buckets {missing} are also down"
            )
        rebuilt: dict[int, dict] = {}
        for contributions in replies.values():
            for gkey, key, payload in contributions:
                snap = rebuilt.setdefault(
                    gkey, {"gkey": gkey, "keys": {}, "parity": bytearray()}
                )
                snap["keys"][key] = len(payload)
                xor_into(snap["parity"], payload)

        node_id = f"{self.parity_file_id}.d{bucket}"
        level = parity_state.level_of(bucket)
        net.unregister(node_id)
        net.register(self.parity_coordinator.make_server(bucket, level))
        net.send(
            self.node_id, node_id, "gparity.load",
            {"records": [
                {"gkey": s["gkey"], "keys": s["keys"], "parity": bytes(s["parity"])}
                for s in rebuilt.values()
            ]},
        )
        return len(rebuilt)

    # ------------------------------------------------------------------
    # Algorithm A7: record recovery (degraded reads)
    # ------------------------------------------------------------------
    def recover_record(self, key: int) -> tuple[bool, bytes | None]:
        """Scan F2 for the parity record holding ``key``; XOR it out."""
        net = self._net()
        replies, missing = net.multicast(
            self.node_id, self._parity_nodes(), "gparity.locate", {"key": key}
        )
        if missing:
            raise RuntimeError(
                f"LH*g is 1-available: parity buckets {missing} are also down"
            )
        snap = next((s for s in replies.values() if s is not None), None)
        if snap is None:
            return False, None  # certain miss: F2 is authoritative
        acc = bytearray(snap["parity"])
        for other in snap["keys"]:
            if other == key:
                continue
            reply = net.call(
                self.node_id,
                f"{self.file_id}.d{self.state.address(other)}",
                "record.fetch",
                {"key": other},
            )
            xor_into(acc, reply["payload"])
        return True, bytes(acc[: snap["keys"][key]])


class LHGClient(Client):
    """Client reporting failures to the coordinator (degraded reads)."""

    def on_unavailable(self, kind, payload, failure):
        self.send(
            f"{self.file_id}.coord",
            "report.unavailable",
            {"kind": kind, "op": payload, "node": failure.node_id},
        )


@dataclass(frozen=True)
class LHGConfig:
    """Tunables of an LH*g file (the paper's k is ``group_size``)."""

    group_size: int = 4
    bucket_capacity: int = 32
    parity_capacity: int | None = None


class LHGFile(LHStarFile):
    """A running LH*g file: primary file F1 plus XOR parity file F2."""

    coordinator_class = LHGCoordinator
    client_class = LHGClient
    availability_level = 1

    def __init__(self, config: LHGConfig | None = None, file_id: str = "g",
                 split_policy: SplitPolicy | None = None, network=None):
        self.config = config or LHGConfig()
        network = network or Network()
        # F2 first: primary servers address it from their first insert.
        parity_coordinator = LHGParityCoordinator(
            node_id=f"{file_id}q.coord",
            file_id=f"{file_id}q",
            capacity=self.config.parity_capacity or self.config.bucket_capacity,
            n0=1,
        )
        network.register(parity_coordinator)
        parity_coordinator.bootstrap()
        self.parity_coordinator = parity_coordinator
        super().__init__(
            file_id=file_id,
            capacity=self.config.bucket_capacity,
            n0=self.config.group_size,
            policy=split_policy,
            network=network,
            group_size=self.config.group_size,
            parity_capacity=self.config.parity_capacity,
        )

    # ------------------------------------------------------------------
    def parity_servers(self) -> list[GParityServer]:
        state = self.parity_coordinator.state
        return [
            self.network.nodes[f"{self.file_id}q.d{m}"]
            for m in state.buckets()
        ]

    def storage_overhead(self) -> float:
        """Parity bytes / data bytes ≈ 1/group_size (for full groups)."""
        data = sum(
            len(value[1])
            for s in self.data_servers()
            for value in s.bucket.records.values()
        )
        parity = sum(
            len(record.parity)
            for s in self.parity_servers()
            for record in s.bucket.records.values()
        )
        return parity / data if data else 0.0

    def redundancy_bucket_count(self) -> int:
        return self.parity_coordinator.state.bucket_count

    # ------------------------------------------------------------------
    def fail_data_bucket(self, bucket: int) -> str:
        node_id = f"{self.file_id}.d{bucket}"
        self.network.fail(node_id)
        return node_id

    def fail_parity_bucket(self, bucket: int) -> str:
        node_id = f"{self.file_id}q.d{bucket}"
        self.network.fail(node_id)
        return node_id

    def recover(self, node_ids: list[str]) -> None:
        for node_id in node_ids:
            self.coordinator.recover_node(node_id)

    def recover_record(self, key: int) -> tuple[bool, bytes | None]:
        return self.coordinator.recover_record(key)

    # ------------------------------------------------------------------
    def verify_parity_consistency(self) -> list[str]:
        """Oracle: recompute every record group's XOR from primary data."""
        expected: dict[int, dict] = {}
        for server in self.data_servers():
            for key, (gkey, payload) in server.bucket.records.items():
                snap = expected.setdefault(
                    gkey, {"keys": {}, "parity": bytearray()}
                )
                snap["keys"][key] = len(payload)
                xor_into(snap["parity"], payload)
        actual: dict[int, GParityRecord] = {}
        for server in self.parity_servers():
            for gkey, record in server.bucket.records.items():
                actual[gkey] = record
        problems = []
        if set(expected) != set(actual):
            problems.append(
                f"group keys differ: {len(expected)} expected, {len(actual)} stored"
            )
            return problems
        for gkey, snap in expected.items():
            record = actual[gkey]
            if record.keys != snap["keys"]:
                problems.append(f"gkey {gkey}: key directory mismatch")
            length = max(len(record.parity), len(snap["parity"]))
            if (bytes(record.parity).ljust(length, b"\0")
                    != bytes(snap["parity"]).ljust(length, b"\0")):
                problems.append(f"gkey {gkey}: parity bits mismatch")
        return problems

    def split_parity_message_count(self) -> int:
        """Parity messages caused by splits: zero by design (the scheme's
        hallmark, contrasted with LH*RS in E10/E11)."""
        return 0
