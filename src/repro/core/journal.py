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
    committed split/merge (and once per takeover).
``group.level``
    Absolute ``{group, level}``; ``level == RETIRED`` marks a parity
    group dismantled by a merge.
``spares``
    Absolute ``{remaining}`` spare-pool balance after a claim.
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
    """What a journal prefix says the coordinator state was.

    ``n``/``i`` are None until a ``file.state`` record has been applied
    (a journal that never saw bootstrap); ``spares_known`` separates
    "no spares record yet" from "the pool is unbounded (None)".
    """

    n: int | None = None
    i: int | None = None
    group_levels: dict[int, int] = field(default_factory=dict)
    spares_remaining: int | None = None
    spares_known: bool = False
    term: int = 0
    applied_lsn: int = 0
    open_intents: list[JournalRecord] = field(default_factory=list)

    def snapshot(self) -> dict[str, Any]:
        """Canonical comparison/serialization form of the applied state."""
        return {
            "lsn": self.applied_lsn,
            "n": self.n,
            "i": self.i,
            "group_levels": {
                str(group): level
                for group, level in sorted(self.group_levels.items())
            },
            "spares": self.spares_remaining if self.spares_known else None,
            "term": self.term,
        }


def replay_records(
    records: Iterable[JournalRecord], upto: int | None = None
) -> JournalState:
    """Fold records into a :class:`JournalState`.

    Sorts by LSN and drops LSN duplicates first, so any permutation (or
    re-delivery) of the same prefix replays to the same state.
    """
    by_lsn: dict[int, JournalRecord] = {}
    for record in records:
        if upto is not None and record.lsn > upto:
            continue
        by_lsn.setdefault(record.lsn, record)

    state = JournalState()
    begins: dict[int, JournalRecord] = {}
    ended: set[int] = set()
    for lsn in sorted(by_lsn):
        record = by_lsn[lsn]
        payload = record.payload
        if record.type == "file.state":
            state.n = int(payload["n"])
            state.i = int(payload["i"])
        elif record.type == "group.level":
            group = int(payload["group"])
            level = int(payload["level"])
            if level == RETIRED:
                state.group_levels.pop(group, None)
            else:
                state.group_levels[group] = level
        elif record.type == "spares":
            state.spares_remaining = payload["remaining"]
            state.spares_known = True
        elif record.type == "intent.begin":
            begins[lsn] = record
        elif record.type == "intent.end":
            ended.add(int(payload["begin"]))
        elif record.type == "takeover":
            state.term = int(payload["term"])
        state.applied_lsn = max(state.applied_lsn, lsn)
    state.open_intents = [
        begins[lsn] for lsn in sorted(begins) if lsn not in ended
    ]
    return state


class CoordinatorJournal:
    """An LSN-keyed record store with append / ingest / replay.

    The primary *appends* (allocating the next LSN); replicas *ingest*
    wire records, which may arrive out of order or more than once —
    LSN-keyed storage makes ingest naturally idempotent and
    ``gaps()``/``contiguous_lsn`` expose what a replica still has to
    fetch before its prefix is complete.
    """

    def __init__(self, records: Iterable[JournalRecord] = ()):  # noqa: D401
        self._records: dict[int, JournalRecord] = {
            record.lsn: record for record in records
        }
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
        return replay_records(self.records(), upto=upto)

    def clone(self) -> "CoordinatorJournal":
        return CoordinatorJournal(self.records())

    def subscribe(self, callback: Callable[[JournalRecord], None]) -> None:
        """Observe every locally stored record (tests, snapshot capture)."""
        self._subscribers.append(callback)
