"""Operation histories: invoke/response intervals for the checker.

A :class:`HistoryRecorder` hangs off a client (``client.recorder``) and
records every public operation as an interval on a private monotone
tick counter: ``invoke`` when the call enters the client, ``response``
when it returns with a definite outcome.  An operation that raises
:class:`~repro.sdds.client.OperationFailed` — the at-least-once timeout
case — stays **pending**: its interval is ``[invoke, ∞)`` and the
linearizability checker may place it anywhere after its invocation *or
nowhere at all*, exactly the two fates a timed-out mutation can have
(the ``op.ack`` may have been sent and lost, or the request dropped).

Ticks are the recorder's own counter, not the simulated clock: the
simulator's synchronous depth-first delivery means a client call
returns only after every consequence ran, so distinct completed
operations on one client never overlap — which the per-tick counter
encodes for free — while pending operations still overlap everything
after them.  Batched ``*_many`` calls invoke all their operations up
front (the scatter plane interleaves their effects), so ops inside one
batch genuinely overlap each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: op.status values a completed operation can carry
COMPLETED_STATUSES = frozenset({"ok", "found", "not_found"})


@dataclass
class OpRecord:
    """One recorded operation interval.

    ``status`` is ``"pending"`` (ambiguous — invoked, never definitely
    completed), ``"ok"`` (mutation confirmed), or ``"found"`` /
    ``"not_found"`` (search, with ``result`` the returned value).
    """

    op_id: int
    client: str
    kind: str  # insert | update | delete | search
    key: int
    value: Any = None  # payload of a mutation (None for delete/search)
    invoke: int = 0
    response: int | None = None
    status: str = "pending"
    result: Any = None  # value a search returned

    @property
    def completed(self) -> bool:
        return self.status in COMPLETED_STATUSES

    def to_dict(self) -> dict:
        """JSON-friendly form (bytes → latin-1 strings, flagged)."""
        out = {
            "op_id": self.op_id,
            "client": self.client,
            "kind": self.kind,
            "key": self.key,
            "invoke": self.invoke,
            "response": self.response,
            "status": self.status,
        }
        for name in ("value", "result"):
            raw = getattr(self, name)
            if isinstance(raw, bytes):
                out[name] = raw.decode("latin-1")
                out[f"{name}_bytes"] = True
            else:
                out[name] = raw
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "OpRecord":
        kwargs = {
            k: data.get(k)
            for k in (
                "op_id", "client", "kind", "key", "value",
                "invoke", "response", "status", "result",
            )
        }
        for name in ("value", "result"):
            if data.get(f"{name}_bytes") and kwargs[name] is not None:
                kwargs[name] = kwargs[name].encode("latin-1")
        return cls(**kwargs)


@dataclass
class HistoryRecorder:
    """Collects :class:`OpRecord` intervals from instrumented clients."""

    records: list[OpRecord] = field(default_factory=list)
    _tick: int = 0
    ambiguous_ops: int = 0

    def _next_tick(self) -> int:
        self._tick += 1
        return self._tick

    # ------------------------------------------------------------------
    def invoke(self, client: str, kind: str, key: int,
               value: Any = None) -> OpRecord:
        """Open one operation interval; returns the record to close."""
        record = OpRecord(
            op_id=len(self.records) + 1,
            client=client,
            kind=kind,
            key=key,
            value=value,
            invoke=self._next_tick(),
        )
        self.records.append(record)
        return record

    def complete(self, record: OpRecord, status: str,
                 result: Any = None) -> None:
        """Close an interval with a definite outcome."""
        if status not in COMPLETED_STATUSES:
            raise ValueError(f"not a completion status: {status!r}")
        record.response = self._next_tick()
        record.status = status
        record.result = result

    def ambiguous(self, record: OpRecord) -> None:
        """Leave an interval open: the op may or may not have applied."""
        self.ambiguous_ops += 1
        # status stays "pending", response stays None — the open interval

    # ------------------------------------------------------------------
    @property
    def completed_ops(self) -> int:
        return sum(1 for r in self.records if r.completed)

    def by_key(self) -> dict[int, list[OpRecord]]:
        """Partition the history by key (P-composition: a dictionary is
        linearizable iff each per-key sub-history is)."""
        keyed: dict[int, list[OpRecord]] = {}
        for record in self.records:
            keyed.setdefault(record.key, []).append(record)
        return keyed
