"""The soak harness: the one end check every randomized driver shares.
The paper's promise — with at most k buckets of a group unavailable at
a time, no acknowledged record is lost — is :class:`ExpectedState`'s
checked reads, then :func:`settle` and :func:`verify`.
"""

from __future__ import annotations

from typing import Any

from repro.sdds.client import OperationFailed

#: clock units one settle step advances
STEP = 60.0


class ExpectedState:
    """What the file must hold, fed by every call's outcome: ``values``
    (key -> its last confirmed write), ``written`` (every key a
    confirmed write touched), ``ambiguous`` (keys whose last mutation
    failed, so it may or may not have applied), ``acked`` (confirmed
    mutations) and ``failed`` (calls, reads included, that ended in a
    typed failure).  Every read of a key that is not ambiguous is
    checked on the spot."""

    def __init__(self) -> None:
        self.values: dict[int, bytes] = {}
        self.written: set[int] = set()
        self.ambiguous = set[int]()
        self.acked = self.failed = 0

    def call(
        self, file: Any, kind: str, key: int, value: bytes | None = None
    ) -> None:
        """One scalar call, its outcome recorded."""
        args = (key,) if value is None else (key, value)
        try:
            outcome = getattr(file, kind)(*args)
        except OperationFailed:
            self._failed(kind, key)
            return
        if kind == "search":
            self._read(key, outcome.found, outcome.value)
        else:
            self._applied(kind, key, value)

    def many(
        self, file: Any, kind: str, keys: list[int],
        values: list[bytes] | None = None,
    ) -> None:
        """One ``<kind>_many`` call, each op's outcome recorded."""
        out = getattr(file, f"{kind}_many")(
            keys if values is None else list(zip(keys, values))
        )
        for index, (key, res) in enumerate(zip(keys, out.outcomes)):
            if res is None or res.status == "failed":
                self._failed(kind, key)
            elif kind == "search":
                self._read(key, res.status == "found", res.value)
            else:
                self._applied(
                    kind, key, None if values is None else values[index]
                )

    def _applied(self, kind: str, key: int, value: bytes | None) -> None:
        self.acked += 1
        if kind == "delete":
            self.values.pop(key, None)
        else:
            self.values[key] = value
            self.written.add(key)
        self.ambiguous.discard(key)

    def _failed(self, kind: str, key: int) -> None:
        self.failed += 1
        if kind != "search":
            self.ambiguous.add(key)

    def _read(self, key: int, found: bool, value: bytes | None) -> None:
        if key in self.ambiguous:
            return
        if key in self.values:
            assert found and value == self.values[key], ("read", key)
        else:
            assert not found, ("read of an absent key", key)


def settle(file: Any) -> None:
    """No fault rule, no crash window pending, the coordinator and every
    failed node back, no message held; then three probe rounds that end
    clean."""
    net = file.network
    plane = net.fault_plane
    if plane is not None:
        plane.clear_rules()
    while file.failures.pending_events:
        net.advance(STEP)
    net.advance(STEP)
    if not net.is_available(file.rs_coordinator.node_id):
        file.await_takeover()
    file.failures.heal()
    assert plane is None or plane.pending == 0, "messages still held"
    last = file.rs_coordinator.run_probe_cycle(rounds=3)[-1]
    assert last["unavailable"] == [] and last["errors"] == [], last


def verify(file: Any, expected: ExpectedState) -> None:
    """Parity consistent; every key that is not ambiguous reads back
    (deleted ones as absent); the census equals the expected state
    outside the ambiguous keys, with no key in two buckets; the auditor
    silent."""
    assert file.verify_parity_consistency() == [], "parity != data"
    ambiguous = expected.ambiguous
    for key, value in expected.values.items():
        if key not in ambiguous:
            outcome = file.search(key)
            assert outcome.found and outcome.value == value, ("lost", key)
    for key in expected.written - set(expected.values) - ambiguous:
        assert not file.search(key).found, ("deleted, but found", key)
    stored: dict[int, bytes] = {}
    for records in file.census_with_ranks().values():
        twice = stored.keys() & records.keys()
        assert not twice, ("keys in two buckets", twice)
        stored.update((key, value) for key, (_, value) in records.items())
    for key in ambiguous:
        stored.pop(key, None)
    want = {k: v for k, v in expected.values.items() if k not in ambiguous}
    assert stored == want, "the census is not the expected state"
    auditor = file.auditor
    assert auditor.violations == [], auditor.violations
    problems = auditor.check_file(file)
    assert problems == [], problems
