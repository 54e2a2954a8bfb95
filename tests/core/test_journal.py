"""The coordinator's write-ahead journal.

Replay is the takeover's source of truth, so its algebra is pinned by
property tests: deduplicated-by-LSN, sorted, absolute-valued records
make replay idempotent and insensitive to delivery order within an LSN
prefix.  The end-to-end test drives a live file through splits, merges
and availability raises and checks that replaying the journal cut at
*every* LSN reproduces exactly the ``(n, i)`` the coordinator had
journaled at that point — the crash-anywhere guarantee a standby
relies on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LHRSConfig, LHRSFile
from repro.core.journal import (
    RETIRED,
    CoordinatorJournal,
    JournalRecord,
    JournalState,
    replay_records,
)


# ----------------------------------------------------------------------
# journal mechanics
# ----------------------------------------------------------------------
class TestJournalStore:
    def test_append_allocates_monotonic_lsns(self):
        journal = CoordinatorJournal()
        first = journal.append("file.state", n=0, i=0)
        second = journal.append("group.level", group=0, level=1)
        assert (first.lsn, second.lsn) == (1, 2)
        assert journal.last_lsn == 2
        assert journal.contiguous_lsn == 2
        assert journal.gaps() == []

    def test_append_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            CoordinatorJournal().append("banana", n=1)

    def test_ingest_rejects_unknown_type(self):
        """What replay could not apply is refused at the door, not
        stored and skipped."""
        journal = CoordinatorJournal()
        with pytest.raises(ValueError):
            journal.ingest([{"lsn": 1, "type": "banana", "payload": {}}])
        assert len(journal) == 0

    def test_ingest_is_idempotent_and_reports_fresh(self):
        journal = CoordinatorJournal()
        wire = [
            {"lsn": 1, "type": "file.state", "payload": {"n": 0, "i": 0}},
            {"lsn": 2, "type": "spares", "payload": {"remaining": 3}},
        ]
        assert len(journal.ingest(wire)) == 2
        assert journal.ingest(wire) == []  # replay of the same records
        assert len(journal) == 2

    def test_gaps_and_contiguous_lsn_expose_missing_prefix(self):
        journal = CoordinatorJournal()
        journal.ingest(
            [{"lsn": 3, "type": "file.state", "payload": {"n": 1, "i": 1}}]
        )
        assert journal.last_lsn == 3
        assert journal.contiguous_lsn == 0
        assert journal.gaps() == [1, 2]

    def test_since_returns_wire_suffix(self):
        journal = CoordinatorJournal()
        journal.append("file.state", n=0, i=0)
        journal.append("file.state", n=1, i=0)
        suffix = journal.since(1)
        assert [r["lsn"] for r in suffix] == [2]
        assert suffix[0]["payload"] == {"n": 1, "i": 0}

    def test_clone_is_independent(self):
        journal = CoordinatorJournal()
        journal.append("file.state", n=0, i=0)
        copy = journal.clone()
        journal.append("file.state", n=1, i=0)
        assert copy.last_lsn == 1
        assert journal.last_lsn == 2

    def test_subscribers_see_appends_and_ingests(self):
        journal = CoordinatorJournal()
        seen = []
        journal.subscribe(seen.append)
        journal.append("file.state", n=0, i=0)
        journal.ingest(
            [{"lsn": 2, "type": "spares", "payload": {"remaining": 1}}]
        )
        assert [r.lsn for r in seen] == [1, 2]


# ----------------------------------------------------------------------
# replay semantics
# ----------------------------------------------------------------------
class TestReplay:
    def test_group_level_retired_removes_group(self):
        records = [
            JournalRecord(1, "group.level", {"group": 4, "level": 2}),
            JournalRecord(2, "group.level", {"group": 4, "level": RETIRED}),
        ]
        assert replay_records(records).group_levels == {}

    def test_open_intents_are_begins_without_ends(self):
        records = [
            JournalRecord(1, "intent.begin", {"op": "split"}),
            JournalRecord(2, "intent.begin", {"op": "recover"}),
            JournalRecord(3, "intent.end", {"begin": 1}),
        ]
        state = replay_records(records)
        assert [r.lsn for r in state.open_intents] == [2]
        assert state.open_intents[0].payload["op"] == "recover"

    def test_apply_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            JournalState().apply(JournalRecord(1, "banana", {}))

    def test_bucket_epoch_is_absolute(self):
        records = [
            JournalRecord(1, "bucket.epoch", {"node": "f.d1", "epoch": 1}),
            JournalRecord(2, "bucket.epoch", {"node": "f.p0.1", "epoch": 1}),
            JournalRecord(3, "bucket.epoch", {"node": "f.d1", "epoch": 2}),
        ]
        assert replay_records(records).bucket_epochs == {"f.d1": 2, "f.p0.1": 1}

    def test_replay_starts_from_the_configured_spare_pool(self):
        journal = CoordinatorJournal(spares=4)
        assert journal.replay().spares == 4
        journal.append("spares", remaining=3)
        assert journal.replay().spares == 3
        assert journal.clone().replay(upto=0).spares == 4

    def test_upto_cuts_the_prefix(self):
        records = [
            JournalRecord(1, "file.state", {"n": 0, "i": 0}),
            JournalRecord(2, "file.state", {"n": 1, "i": 0}),
        ]
        assert replay_records(records, upto=1).n == 0
        assert replay_records(records, upto=1).applied_lsn == 1


# Strategy: a legal journal history — LSNs 1..N with state-bearing
# payloads.  Intent brackets are generated too (an end names an earlier
# begin) so open-intent computation is exercised by the properties.
@st.composite
def journal_histories(draw):
    length = draw(st.integers(min_value=1, max_value=24))
    records = []
    open_begins = []
    for lsn in range(1, length + 1):
        choices = ["file.state", "group.level", "spares", "bucket.epoch",
                   "intent.begin", "takeover"]
        if open_begins:
            choices.append("intent.end")
        kind = draw(st.sampled_from(choices))
        if kind == "file.state":
            payload = {
                "n": draw(st.integers(0, 63)),
                "i": draw(st.integers(0, 6)),
            }
        elif kind == "group.level":
            payload = {
                "group": draw(st.integers(0, 7)),
                "level": draw(st.sampled_from([RETIRED, 1, 2, 3])),
            }
        elif kind == "spares":
            payload = {"remaining": draw(st.integers(0, 10))}
        elif kind == "bucket.epoch":
            payload = {
                "node": draw(st.sampled_from(["f.d1", "f.d6", "f.p0.1"])),
                "epoch": draw(st.integers(1, 9)),
            }
        elif kind == "takeover":
            payload = {"term": draw(st.integers(1, 5))}
        elif kind == "intent.begin":
            payload = {"op": draw(st.sampled_from(["split", "merge",
                                                   "raise", "recover"]))}
            open_begins.append(lsn)
        else:  # intent.end
            payload = {"begin": open_begins.pop(0)}
        records.append(JournalRecord(lsn, kind, payload))
    return records


def canonical(state):
    """Every durable field, open intents included: the one serial form."""
    return state.snapshot()


class TestReplayProperties:
    @given(journal_histories(), st.data())
    def test_replay_is_duplication_insensitive(self, records, data):
        """Re-delivering any subset of records (the at-least-once wire)
        replays to the same state."""
        dupes = data.draw(
            st.lists(st.sampled_from(records), max_size=len(records))
        )
        assert canonical(replay_records(records + dupes)) == canonical(
            replay_records(records)
        )

    @given(journal_histories(), st.randoms(use_true_random=False))
    def test_replay_is_permutation_insensitive(self, records, rng):
        """Any delivery order of a complete LSN prefix replays to the
        same state."""
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert canonical(replay_records(shuffled)) == canonical(
            replay_records(records)
        )

    @given(journal_histories())
    def test_replay_of_replayed_prefix_is_fixed_point(self, records):
        """Replaying upto=L then extending to the full set equals one
        full replay — cut points never corrupt the fold."""
        full = replay_records(records)
        for cut in range(len(records) + 1):
            prefix = replay_records(records, upto=cut)
            assert prefix.applied_lsn <= full.applied_lsn
        assert canonical(replay_records(records, upto=len(records))) == (
            canonical(full)
        )

    @given(journal_histories())
    def test_snapshot_round_trips(self, records):
        """``from_snapshot`` inverts ``snapshot`` and the restored state
        keeps folding: a checkpoint plus the tail equals one replay."""
        cut = len(records) // 2
        restored = JournalState.from_snapshot(
            replay_records(records, upto=cut).snapshot()
        )
        assert restored == replay_records(records, upto=cut)
        for record in records[cut:]:
            restored.apply(record)
        assert restored == replay_records(records)

    @given(journal_histories())
    def test_records_replay_to_the_state(self, records):
        """``records()`` is what a journal-less takeover appends to adopt
        a checkpoint: folded into an empty journal they give every field
        back, the open intents under new LSNs."""
        born = JournalRecord(0, "file.state", {"n": 1, "i": 2})
        state = replay_records([born, *records], spares=5)
        journal = CoordinatorJournal(spares=9)
        for kind, payload in state.records():
            journal.append(kind, **payload)

        def fields(snapshot):
            intents = [wire["payload"] for wire in snapshot["intents"]]
            return dict(snapshot, lsn=None, intents=intents)

        assert fields(journal.replay().snapshot()) == fields(state.snapshot())

    @given(journal_histories())
    def test_ingest_path_equals_append_path(self, records):
        """A replica that ingested the wire form replays identically to
        the primary that authored the records."""
        replica = CoordinatorJournal()
        replica.ingest([r.to_wire() for r in records])
        assert canonical(replica.replay()) == canonical(
            replay_records(records)
        )


# ----------------------------------------------------------------------
# crash-at-every-LSN against a live file
# ----------------------------------------------------------------------
@settings(deadline=None)
@given(st.integers(min_value=0, max_value=0))  # single deterministic run
def test_replay_at_every_lsn_matches_journaled_truth(_):
    """Drive a file through growth, an availability raise and a merge;
    then for every ``file.state`` record the journal holds, replay the
    prefix cut at that LSN and check it reproduces exactly the (n, i)
    journaled — i.e. a standby crashing at ANY point replays to a state
    the coordinator really had."""
    file = LHRSFile(LHRSConfig(group_size=2, availability=1,
                               bucket_capacity=8))
    coordinator = file.rs_coordinator
    for key in range(150):
        file.insert(key, bytes([key % 251]) * 8)
    coordinator.raise_group_level(0, 2)
    for key in range(0, 120):
        file.delete(key)
    coordinator.merge_once()
    coordinator.merge_once()

    journal = coordinator.journal
    records = journal.records()
    assert records, "the coordinator journaled nothing"
    for record in records:
        if record.type != "file.state":
            continue
        replayed = journal.replay(upto=record.lsn)
        assert (replayed.n, replayed.i) == (
            record.payload["n"], record.payload["i"]
        ), f"replay cut at lsn {record.lsn} diverged"
    final = journal.replay()
    assert (final.n, final.i) == coordinator.state.as_tuple()
    assert final.group_levels == coordinator.group_levels
    assert final.open_intents == []  # every intent committed
    assert final == coordinator.durable  # the held state is the replay
