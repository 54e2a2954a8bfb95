"""Write-ahead journal of coordinator state transitions.

LH*RS makes every *data* component expendable, but the reproduction's
coordinator was a singleton Python object: kill it and the file state
``(n, i)``, the per-group parity levels and any in-flight split or
recovery die with it.  This module is the durable half of the fix — a
tiny write-ahead journal the active coordinator appends to before it
acts, replicates synchronously to standby coordinator replicas
(``coord.journal.append``) and periodically checkpoints into the parity
buckets' headers (``coord.checkpoint``).

Record taxonomy (``RECORD_TYPES``):

``file.state``
    Absolute ``{n, i}`` — journaled at bootstrap and after every
    committed split/merge.
``group.level``
    Absolute ``{group, level}``; ``level == RETIRED`` marks a parity
    group dismantled by a merge.
``spares``
    Absolute ``{remaining}`` spare-pool balance after a claim.
``bucket.epoch``
    Absolute ``{node, epoch}`` incarnation of a bucket address — the
    fence behind a spare install, or a merge a down parity bucket
    missed (durable restart, docs/durability.md).
``intent.begin`` / ``intent.end``
    Bracket a restructuring operation (``op`` ∈ split / merge / raise /
    recover).  A ``begin`` whose LSN is never named by an ``end`` is an
    *open intent*: the operation was in flight when the journal stopped.
    A split or merge carries its plan ``{source, target, level}``; a
    takeover re-enters the command when the replayed state still
    yields that plan and closes the intent as aborted otherwise.
``takeover``
    A standby assumed the coordinator identity at ``{term}``.

Replay semantics are deliberately boring: records are sorted by LSN,
deduplicated by LSN, and every state-bearing record carries *absolute*
values — so replay is idempotent and insensitive to delivery order
within an LSN prefix (the property tests in
``tests/core/test_journal.py`` pin both).

:class:`JournalState` is the coordinator's *whole* durable state and
:meth:`JournalState.apply` its only writer: the live coordinator applies
each record as it appends it, replay folds the same function over a
prefix, and ``snapshot()`` / ``from_snapshot()`` are its one serial form
(the parity-header checkpoint, the whole-file backup, the test oracle);
``records()`` turns a state back into absolute records, which is how a
takeover without a journal adopts a checkpoint — by journaling it.
A field that is not in this class does not survive a takeover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

#: ``group.level`` value marking a group dismantled by a merge.
RETIRED = -1

RECORD_TYPES = frozenset(
    {
        "file.state",
        "group.level",
        "spares",
        "bucket.epoch",
        "intent.begin",
        "intent.end",
        "takeover",
    }
)

#: Operations that bracket their work in intent records.
INTENT_OPS = frozenset({"split", "merge", "raise", "recover"})


@dataclass(frozen=True)
class JournalRecord:
    """One journal entry: a monotonically numbered state transition."""

    lsn: int
    type: str
    payload: Mapping[str, Any]

    def to_wire(self) -> dict[str, Any]:
        return {"lsn": self.lsn, "type": self.type, "payload": dict(self.payload)}

    @staticmethod
    def from_wire(data: Mapping[str, Any]) -> "JournalRecord":
        return JournalRecord(
            lsn=int(data["lsn"]),
            type=str(data["type"]),
            payload=dict(data["payload"]),
        )


@dataclass
class JournalState:
    """The coordinator's durable state: what a journal prefix says it was.

    ``n``/``i`` are None until a ``file.state`` record has been applied
    (a journal that never saw bootstrap); ``spares`` starts from the
    configured pool (None = unbounded) and ``intents`` holds the open
    ``intent.begin`` records by LSN, in LSN order.
    """

    n: int | None = None
    i: int | None = None
    group_levels: dict[int, int] = field(default_factory=dict)
    spares: int | None = None
    bucket_epochs: dict[str, int] = field(default_factory=dict)
    term: int = 0
    applied_lsn: int = 0
    intents: dict[int, JournalRecord] = field(default_factory=dict)

    @property
    def open_intents(self) -> list[JournalRecord]:
        """Operations in flight when the journal stopped, oldest first."""
        return list(self.intents.values())

    def apply(self, record: JournalRecord) -> None:
        """Fold one record in (O(1)); records arrive in LSN order."""
        kind, payload = record.type, record.payload
        if kind == "file.state":
            self.n, self.i = int(payload["n"]), int(payload["i"])
        elif kind == "group.level":
            group, level = int(payload["group"]), int(payload["level"])
            if level == RETIRED:
                self.group_levels.pop(group, None)
            else:
                self.group_levels[group] = level
        elif kind == "spares":
            self.spares = payload["remaining"]
        elif kind == "bucket.epoch":
            self.bucket_epochs[str(payload["node"])] = int(payload["epoch"])
        elif kind == "intent.begin":
            self.intents[record.lsn] = record
        elif kind == "intent.end":
            self.intents.pop(int(payload["begin"]), None)
        elif kind == "takeover":
            self.term = int(payload["term"])
        else:
            raise ValueError(f"unknown journal record type {kind!r}")
        self.applied_lsn = max(self.applied_lsn, record.lsn)

    def snapshot(self) -> dict[str, Any]:
        """The one serial form (``coord_state`` in ``proto/schema.py``)."""
        return {
            "lsn": self.applied_lsn,
            "n": self.n,
            "i": self.i,
            "group_levels": dict(sorted(self.group_levels.items())),
            "spares": self.spares,
            "bucket_epochs": dict(sorted(self.bucket_epochs.items())),
            "term": self.term,
            "intents": [record.to_wire() for record in self.open_intents],
        }

    def records(self) -> list[tuple[str, dict[str, Any]]]:
        """Absolute ``(type, payload)`` pairs that, appended in order to a
        journal without a state, replay to this one (intents: new LSNs)."""
        levels, epochs = self.group_levels, self.bucket_epochs
        return [
            ("takeover", {"term": self.term}),
            ("file.state", {"n": self.n, "i": self.i}),
            ("spares", {"remaining": self.spares}),
            *(("group.level", {"group": g, "level": levels[g]}) for g in levels),
            *(("bucket.epoch", {"node": n, "epoch": epochs[n]}) for n in epochs),
            *(("intent.begin", dict(r.payload)) for r in self.open_intents),
        ]

    @classmethod
    def from_snapshot(cls, data: Mapping[str, Any]) -> "JournalState":
        """Inverse of :meth:`snapshot`."""
        intents = [JournalRecord.from_wire(wire) for wire in data["intents"]]
        return cls(
            n=data["n"],
            i=data["i"],
            group_levels={int(g): int(k) for g, k in data["group_levels"].items()},
            spares=data["spares"],
            bucket_epochs=dict(data["bucket_epochs"]),
            term=int(data["term"]),
            applied_lsn=int(data["lsn"]),
            intents={record.lsn: record for record in intents},
        )


def replay_records(
    records: Iterable[JournalRecord],
    upto: int | None = None,
    spares: int | None = None,
) -> JournalState:
    """Fold records into a state seeded with the configured spare pool.

    Sorts by LSN and drops LSN duplicates first, so any permutation (or
    re-delivery) of the same prefix replays to the same state.
    """
    by_lsn: dict[int, JournalRecord] = {}
    for record in records:
        if upto is not None and record.lsn > upto:
            continue
        by_lsn.setdefault(record.lsn, record)
    state = JournalState(spares=spares)
    for lsn in sorted(by_lsn):
        state.apply(by_lsn[lsn])
    return state


class CoordinatorJournal:
    """An LSN-keyed record store with append / ingest / replay.

    The primary *appends* (allocating the next LSN); replicas *ingest*
    wire records, which may arrive out of order or more than once —
    LSN-keyed storage makes ingest naturally idempotent and
    ``gaps()``/``contiguous_lsn`` expose what a replica still has to
    fetch before its prefix is complete.
    """

    def __init__(
        self, records: Iterable[JournalRecord] = (), spares: int | None = None
    ):
        self._records: dict[int, JournalRecord] = {
            record.lsn: record for record in records
        }
        #: the configured spare pool every replay starts from
        self.spares = spares
        self._subscribers: list[Callable[[JournalRecord], None]] = []

    # ------------------------------------------------------------------
    @property
    def last_lsn(self) -> int:
        return max(self._records, default=0)

    @property
    def contiguous_lsn(self) -> int:
        """Largest L such that every LSN in 1..L is present."""
        lsn = 0
        while lsn + 1 in self._records:
            lsn += 1
        return lsn

    def gaps(self) -> list[int]:
        """LSNs missing below ``last_lsn`` (non-empty only on replicas)."""
        return [
            lsn for lsn in range(1, self.last_lsn) if lsn not in self._records
        ]

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------
    def append(self, type: str, **payload: Any) -> JournalRecord:
        """Primary-side append: allocate the next LSN and store."""
        if type not in RECORD_TYPES:
            raise ValueError(f"unknown journal record type {type!r}")
        record = JournalRecord(self.last_lsn + 1, type, payload)
        self._records[record.lsn] = record
        for subscriber in self._subscribers:
            subscriber(record)
        return record

    def ingest(self, wire_records: Iterable[Mapping[str, Any]]) -> list[JournalRecord]:
        """Replica-side merge of wire records; returns the new ones."""
        fresh: list[JournalRecord] = []
        for data in wire_records:
            record = JournalRecord.from_wire(data)
            if record.type not in RECORD_TYPES:
                raise ValueError(f"unknown journal record type {record.type!r}")
            if record.lsn not in self._records:
                self._records[record.lsn] = record
                fresh.append(record)
                for subscriber in self._subscribers:
                    subscriber(record)
        return fresh

    def records(self) -> list[JournalRecord]:
        return [self._records[lsn] for lsn in sorted(self._records)]

    def since(self, after: int) -> list[dict[str, Any]]:
        """Wire form of every record with ``lsn > after``."""
        return [
            self._records[lsn].to_wire()
            for lsn in sorted(self._records)
            if lsn > after
        ]

    def replay(self, upto: int | None = None) -> JournalState:
        return replay_records(self.records(), upto=upto, spares=self.spares)

    def clone(self) -> "CoordinatorJournal":
        return CoordinatorJournal(self.records(), spares=self.spares)

    def subscribe(self, callback: Callable[[JournalRecord], None]) -> None:
        """Observe every locally stored record (tests, snapshot capture)."""
        self._subscribers.append(callback)
