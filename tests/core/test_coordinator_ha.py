"""Coordinator high availability: leases, takeover, resumable intents.

The coordinator is LH*RS's one singleton; these tests kill it — cleanly
between operations and mid-split / mid-merge / mid-raise / mid-recovery
via the armed crash points — and check a standby replays the journal,
assumes the ``<file>.coord`` identity, rolls open intents forward, and
that clients fail over without losing a single record.
"""

import pytest

from repro.core import (
    AvailabilityPolicy,
    CoordinatorCrashed,
    LHRSConfig,
    LHRSFile,
    RecoveryError,
)
from repro.core.coordinator import RSCoordinator
from repro.core.group import parity_node
from repro.core.journal import CoordinatorJournal
from repro.sdds.file import LHStarFile
from repro.sim.faults import DEFAULT_PROTECTED_KINDS, FaultPlane
from repro.sim.rng import make_rng
from tests.core.test_merge_rs import emptied_last_bucket


def ha_file(replicas=1, **overrides) -> LHRSFile:
    defaults = dict(
        group_size=2,
        availability=1,
        bucket_capacity=8,
        coordinator_replicas=replicas,
        heartbeat_interval=3.0,
        lease_timeout=9.0,
        journal_checkpoint_interval=4,
    )
    defaults.update(overrides)
    return LHRSFile(LHRSConfig(**defaults))


def load(file: LHRSFile, count: int, start: int = 0) -> None:
    for key in range(start, start + count):
        file.insert(key, bytes([key % 251]) * 8)


def assert_intact(file: LHRSFile, count: int) -> None:
    missing = [k for k in range(count) if not file.search(k).found]
    assert missing == []
    assert file.verify_parity_consistency() == []
    assert file.check_reconstructed_state()


# ----------------------------------------------------------------------
# replication and leases
# ----------------------------------------------------------------------
class TestReplication:
    def test_standbys_mirror_the_journal_synchronously(self):
        file = ha_file(replicas=2)
        load(file, 60)
        primary = file.rs_coordinator
        assert primary.journal.last_lsn > 0
        for standby in file.standbys:
            assert standby.journal.last_lsn == primary.journal.last_lsn
            assert standby.journal.gaps() == []

    def test_checkpoints_land_in_parity_headers(self):
        file = ha_file(replicas=1)
        load(file, 60)
        file.rs_coordinator.checkpoint_to_parity()
        server = file.network.nodes[parity_node("f", 0, 0)]
        checkpoint = server.coord_checkpoint
        assert checkpoint is not None
        assert (checkpoint["n"], checkpoint["i"]) == (
            file.rs_coordinator.state.as_tuple()
        )

    def test_no_replicas_means_no_ha_traffic(self):
        file = ha_file(replicas=0)
        load(file, 40)
        kinds = file.network.stats.total.by_kind
        assert not any(k.startswith("coord.") for k in kinds)


class TestLeaseTakeover:
    def test_lease_expiry_promotes_a_standby(self):
        file = ha_file(replicas=1)
        load(file, 60)
        old = file.rs_coordinator
        expected = old.state.as_tuple()
        levels = dict(old.group_levels)
        file.fail_coordinator()
        new = file.await_takeover()
        assert new is not old
        assert new.node_id == "f.coord"
        assert new.state.as_tuple() == expected
        assert new.group_levels == levels
        assert new.term == old.term + 1
        assert sum(s.takeovers for s in file.standbys) == 1
        assert_intact(file, 60)

    def test_file_keeps_growing_under_the_new_primary(self):
        file = ha_file(replicas=1)
        load(file, 60)
        file.fail_coordinator()
        file.await_takeover()
        load(file, 120, start=60)  # forces splits through the new primary
        assert_intact(file, 180)

    def test_repeated_coordinator_kills(self):
        file = ha_file(replicas=2)
        load(file, 60)
        for round_ in range(3):
            file.fail_coordinator()
            file.await_takeover()
            load(file, 20, start=60 + 20 * round_)
        assert sum(s.takeovers for s in file.standbys) == 3
        assert_intact(file, 120)

    def test_whois_pull_path_promotes_for_a_blocked_client(self):
        """A client that needs the (dark) coordinator before any lease
        monitor fires drives succession through coord.whois: the standby
        reports the remaining lease, the client sits it out, the monitor
        promotes, the report is replayed against the new primary."""
        file = ha_file(replicas=1, lease_timeout=9.0)
        load(file, 60)
        key = next(
            k for k in range(60) if file.find_bucket_of(k) == 0
        )
        file.fail_data_bucket(0)
        file.fail_coordinator()
        # The search hits the dead bucket; report.unavailable needs the
        # coordinator, which is dark — the whois pull path must carry
        # the op through the takeover (degraded read + bucket rebuild).
        outcome = file.search(key)
        assert outcome.found
        assert sum(s.takeovers for s in file.standbys) == 1
        assert file.network.is_available("f.d0")

    @pytest.mark.parametrize("missed", ["split", "merge"])
    def test_takeover_from_a_lagging_standby(self, missed):
        """The replica was down for a whole split (or merge) and a spare
        install, and the primary dies before it caught up: the takeover
        replays a strict prefix.  It re-enters the restructuring the
        buckets show it missed, and the epoch it never read of resolves
        in the safe direction — the rebuilt bucket's restart is refused
        its catch-up and rebuilt, never caught up by mistake."""
        file = ha_file(group_size=4, availability=2, durability=True,
                       spare_servers=8)
        file.enable_observability()
        load(file, 40)
        if missed == "merge":
            emptied_last_bucket(file)
        keys = {
            key for bucket in file.census_with_ranks().values() for key in bucket
        }
        standby = file.standbys[0]
        file.failures.crash([standby.node_id])
        old = file.rs_coordinator
        if missed == "merge":
            old.merge_once()
        else:
            buckets = file.bucket_count
            while file.bucket_count == buckets:
                keys.add(max(keys) + 1)
                file.insert(max(keys), b"w" * 8)
        file.recover([file.fail_data_bucket(1)])
        assert old.durable.bucket_epochs == {"f.d1": 1}
        assert standby.journal.last_lsn < old.journal.last_lsn
        file.fail_coordinator()
        file.failures.heal([standby.node_id])
        new = file.await_takeover()
        assert new.journal.records()[0].lsn == 1  # a prefix, then its own
        assert new.state.as_tuple() == old.state.as_tuple()
        assert new.group_levels == old.group_levels
        assert new.durable.snapshot() == new.journal.replay().snapshot()

        def stored():
            census = file.census_with_ranks().values()
            return {key for bucket in census for key in bucket}

        assert stored() == keys
        assert new.durable.bucket_epochs == {}  # the install it missed
        file.failures.crash(["f.d1"])
        file.failures.heal(["f.d1"])
        assert file.tracer.counts["catchup.fallback"] == 1
        assert "catchup.data" not in file.tracer.counts
        load(file, 60, start=1000)
        assert stored() == keys | set(range(1000, 1060))
        assert file.verify_parity_consistency() == []
        assert file.auditor.check_file(file) == []
        assert file.auditor.violations == []

    def test_takeover_without_journal_uses_survivor_probe(self):
        """A standby with an empty journal (checkpoints unreachable too)
        still reconstructs (n, i) A6-style from the data buckets."""
        from repro.core.journal import CoordinatorJournal

        file = ha_file(replicas=1)
        load(file, 60)
        expected = file.rs_coordinator.state.as_tuple()
        levels = dict(file.rs_coordinator.group_levels)
        standby = file.standbys[0]
        standby.journal = CoordinatorJournal()  # amnesiac replica
        for server in file.parity_servers():
            server.coord_checkpoint = None
        file.fail_coordinator()
        new = file.await_takeover()
        assert new.state.as_tuple() == expected
        assert new.group_levels == levels
        assert new.durable.snapshot() == new.journal.replay().snapshot()
        assert_intact(file, 60)

    def test_takeover_without_journal_adopts_the_parity_checkpoint(self):
        """An amnesiac replica journals what the newest parity-header
        checkpoint says, so the fence and the spare balance survive it —
        and the takeover after it, whose journal starts over at LSN 1
        under a higher term and must still out-rank the old headers."""
        file = ha_file(group_size=4, availability=2, durability=True,
                       spare_servers=8)
        file.enable_observability()
        load(file, 40)
        file.recover([file.fail_data_bucket(1)])
        old = file.rs_coordinator
        old.checkpoint_to_parity()
        kept = {k: v for k, v in old.durable.snapshot().items()
                if k not in ("lsn", "term")}
        assert kept["bucket_epochs"] == {"f.d1": 1} and kept["spares"] == 7
        for term in (1, 2):
            file.standbys[0].journal = CoordinatorJournal(spares=8)
            file.fail_coordinator()
            new = file.await_takeover()
            snapshot = new.durable.snapshot()
            assert snapshot == new.journal.replay().snapshot()
            assert snapshot["term"] == term and snapshot["lsn"] < old.journal.last_lsn
            assert {k: snapshot[k] for k in kept} == kept
            assert new.newest_checkpoint() == new.durable
        file.failures.crash(["f.d1"])
        file.failures.heal(["f.d1"])
        assert "catchup.fallback" not in file.tracer.counts
        assert new.spares_remaining == 7
        assert_intact(file, 40)


# ----------------------------------------------------------------------
# what a takeover keeps: every attribute is accounted for
# ----------------------------------------------------------------------
class TestAttributeClassification:
    """A takeover builds a fresh ``RSCoordinator`` and hands it
    ``durable`` + ``journal``; whatever else the object holds must be
    rebuilt from those, safe to lose, or not state at all.  A new
    attribute lands in one of these sets on purpose."""

    #: replicated to the standbys; the new primary is handed both
    DURABLE = {"durable", "journal"}
    #: the working (n, i) and splits_done, set from ``durable`` on adoption
    DERIVED = {"state"}
    SOFT = {
        "_sizes",  # load estimate: the next overflow reports refill it
        "_pending_overflows",  # a bucket still over capacity reports again
        "_draining",  # re-entrancy flag of a chain that died with the primary
        "health_log",  # probe telemetry, consumed by benchmarks only
        "_down_since",  # MTTR stopwatch: the next probe sees what is down
        "_appends_since_checkpoint",  # cadence: adoption checkpoints at once
        "_last_beat_sent",  # pacing: a new primary beats on its first tick
        "_hb_busy",  # re-entrancy flag of the heartbeat listener
        "recovery",  # RecoveryManager: counters + a back-reference
    }
    #: identity and configuration, the same for every incarnation
    WIRING = {
        "config", "field", "policy", "capacity", "file_id", "node_id",
        "network", "standby_ids", "inbound_queue_limit",
    }
    #: fault injection and what it observed
    INSTRUMENTATION = {"crash_points", "crash_log", "takeover_resumes"}

    @pytest.mark.parametrize("takeover", [False, True])
    def test_every_attribute_is_classified(self, takeover):
        file = ha_file(durability=True)
        if takeover:
            file.fail_coordinator()
            file.await_takeover()
        classes = [self.DURABLE, self.DERIVED, self.SOFT, self.WIRING,
                   self.INSTRUMENTATION]
        declared = set().union(*classes)
        assert len(declared) == sum(map(len, classes)), "classes overlap"
        names = set(vars(file.rs_coordinator))
        assert names - declared == set(), "does a takeover need these?"
        assert declared - names == set(), "stale classification"


# ----------------------------------------------------------------------
# crash points: resumable restructuring
# ----------------------------------------------------------------------
class TestResumableIntents:
    def test_crash_mid_split_resumes_after_takeover(self):
        file = ha_file(replicas=1)
        file.enable_observability(audit=False)
        load(file, 60)
        file.rs_coordinator.arm_crash("split.mid")
        key = 60
        while file.network.is_available("f.coord"):
            file.insert(key, b"x" * 8)
            key += 1
            assert key < 500, "split.mid never fired"
        new = file.await_takeover()
        assert [r["op"] for r in new.takeover_resumes] == ["split"]
        ends = [e for e in file.tracer.events if e.type == "coord.takeover.end"]
        assert [e.attrs["resumed"] for e in ends] == [1]
        assert new.journal.replay().open_intents == []
        assert_intact(file, key)

    def test_crash_mid_merge_resumes_after_takeover(self):
        file = ha_file(replicas=1)
        load(file, 120)
        before = file.bucket_count
        file.rs_coordinator.arm_crash("merge.mid")
        with pytest.raises(CoordinatorCrashed):
            file.rs_coordinator.merge_once()
        new = file.await_takeover()
        assert [r["op"] for r in new.takeover_resumes] == ["merge"]
        assert file.bucket_count == before - 1
        assert_intact(file, 120)

    def test_crash_mid_raise_aborts_and_redoes(self):
        file = ha_file(replicas=1)
        load(file, 40)
        file.rs_coordinator.arm_crash("raise.mid")
        with pytest.raises(CoordinatorCrashed):
            file.rs_coordinator.raise_group_level(0, 2)
        new = file.await_takeover()
        assert [r["op"] for r in new.takeover_resumes] == ["raise"]
        assert new.group_level(0) == 2
        assert_intact(file, 40)

    def test_crash_mid_recovery_resumes_after_takeover(self):
        file = ha_file(replicas=1, availability=2, bucket_capacity=16)
        load(file, 40)
        before = file.census_with_ranks()
        file.rs_coordinator.arm_crash("recover.mid")
        file.failures.crash(["f.d0"])
        with pytest.raises(CoordinatorCrashed):
            file.recover(["f.d0"])
        new = file.await_takeover()
        assert [r["op"] for r in new.takeover_resumes] == ["recover"]
        assert file.network.is_available("f.d0")
        assert file.census_with_ranks() == before
        assert_intact(file, 40)

    def test_split_target_lost_before_the_takeover_is_rebuilt_first(self):
        """The target of an interrupted split exists in no extent yet.
        Dead, it must be rebuilt (in the post-split extent) before the
        re-entered split ships the movers to it."""
        file = ha_file(replicas=1)
        load(file, 60)
        file.rs_coordinator.arm_crash("split.mid")
        _, target, _ = file.rs_coordinator.state.next_split()
        with pytest.raises(CoordinatorCrashed):
            file.rs_coordinator.split_once()
        file.failures.crash([f"f.d{target}"])
        new = file.await_takeover()
        assert new.journal.replay().open_intents == []
        assert file.network.is_available(f"f.d{target}")
        assert len(file.data_servers()[target].bucket) > 0
        assert_intact(file, 60)

    def test_byte_equal_state_after_mid_split_takeover(self):
        """The acceptance-criteria check in miniature: the state the
        standby was handed, plus what its roll-forward journaled, equals
        the journal's replay — every durable field, not a chosen few."""
        file = ha_file(replicas=1, durability=True)
        load(file, 60)
        file.rs_coordinator.arm_crash("split.mid")
        key = 60
        while file.network.is_available("f.coord"):
            file.insert(key, b"x" * 8)
            key += 1
        new = file.await_takeover()
        assert new.durable.snapshot() == new.journal.replay().snapshot()
        assert new.state.as_tuple() == (new.durable.n, new.durable.i)
        assert new.durable.open_intents == []


class TestStaleIntents:
    """An open intent is re-entered only when its plan still matches
    the replayed state; otherwise it is closed and the state left
    alone."""

    @pytest.mark.parametrize("parity_down", [True, False])
    def test_takeover_aborts_an_intent_the_file_has_outgrown(
        self, parity_down
    ):
        file = LHRSFile(LHRSConfig(
            group_size=4, bucket_capacity=8, availability=2,
            coordinator_replicas=1,
        ))
        last = emptied_last_bucket(file)
        if parity_down:
            file.fail_parity_bucket(last // 4, 1)
        file.rs_coordinator.merge_once()
        for key in range(10**6, 10**6 + 300):
            file.insert(key, b"w" * 8)
        # The merge finished, but its intent.end never reached the
        # standby: the takeover finds the intent open, 60 splits later.
        primary = file.rs_coordinator
        begin = next(
            r.lsn for r in primary.journal.records()
            if r.type == "intent.begin" and r.payload["op"] == "merge"
        )
        file.standbys[0].journal = CoordinatorJournal(
            r for r in primary.journal.records()
            if not (r.type == "intent.end" and r.payload["begin"] == begin)
        )
        truth = primary.state.as_tuple()
        file.fail_coordinator()
        new = file.await_takeover()
        assert new.takeover_resumes == [{"op": "merge", "lsn": begin}]
        assert new.journal.replay().open_intents == []
        assert new.state.as_tuple() == truth
        assert file.bucket_count == len(file.census_with_ranks())
        assert file.check_reconstructed_state()
        for key in range(2 * 10**6, 2 * 10**6 + 400):
            file.insert(key, b"x" * 8)
        assert file.bucket_count > len(file.group_levels()) * 2
        assert file.verify_parity_consistency() == []


# ----------------------------------------------------------------------
# resume is idempotent at every journal prefix
# ----------------------------------------------------------------------
def prefix_scenario(name: str, durable: bool):
    """Build a small file, run one command to completion; returns the
    file and the LSNs of the command's intent.begin and of the last
    intent.end (a split's, or that of the last retrofit it owed)."""
    file = LHRSFile(LHRSConfig(
        group_size=2, availability=1, bucket_capacity=8, spare_servers=6,
        durability=durable,
        policy=AvailabilityPolicy.scalable(
            base_level=1, first_threshold=4, growth=2, max_level=3
        ),
    ))
    file.enable_observability(trace_capacity=2_000)
    load(file, 70)
    coordinator = file.rs_coordinator
    journal = coordinator.journal
    mark = journal.last_lsn
    if name.startswith("split"):
        kind = None
        while kind != name:  # split on until one is of the wanted kind
            opens_group = coordinator.state.next_split()[1] % 2 == 0
            mark = journal.last_lsn
            coordinator.split_once()
            if any(r.payload.get("op") == "raise"
                   for r in journal.records() if r.lsn > mark):
                kind = "split-raising"
            else:
                kind = "split-new-group" if opens_group else "split-in-group"
    elif name.startswith("merge"):
        while (file.bucket_count - 1) % 2 != (name == "merge-in-group"):
            coordinator.merge_once()
        mark = journal.last_lsn
        coordinator.merge_once()
    elif name == "raise":
        coordinator.raise_group_level(1, coordinator.group_level(1) + 1)
    else:
        file.recover([file.fail_data_bucket(1)])
    begin = next(r.lsn for r in journal.records() if r.lsn > mark)
    assert journal.records()[-1].type == "intent.end"
    return file, begin, journal.last_lsn


def adopt_prefix(file: LHRSFile, lsn: int) -> RSCoordinator:
    """What ``StandbyCoordinator.take_over`` does, from the journal cut
    at ``lsn``: a fresh coordinator under the coordinator's id."""
    old = file.rs_coordinator
    journal = CoordinatorJournal(
        (r for r in old.journal.records() if r.lsn <= lsn),
        spares=file.config.spare_servers,
    )
    file.network.unregister(old.node_id)
    new = RSCoordinator(
        node_id=old.node_id, file_id=file.file_id, policy=old.policy,
        config=file.config,
    )
    new.journal = journal
    file.network.register(new)
    new.adopt_journal_state(journal.replay(), old.term + 1)
    return new


class TestResumeAtEveryJournalPrefix:
    @pytest.mark.parametrize("durable", [False, True], ids=["ram", "durable"])
    @pytest.mark.parametrize("name", [
        "split-in-group", "split-new-group", "split-raising",
        "merge-in-group", "merge-retiring", "raise", "recover",
    ])
    def test_resume_is_idempotent(self, name, durable):
        done, begin, end = prefix_scenario(name, durable)
        coordinator = done.rs_coordinator
        expected = (
            done.census_with_ranks(), coordinator.state.as_tuple(),
            coordinator.group_levels,
        )
        spares = coordinator.spares_remaining
        assert end - begin >= 2
        for lsn in range(begin, end + 1):
            file, _, _ = prefix_scenario(name, durable)
            known = file.rs_coordinator.journal.replay(upto=lsn)
            new = adopt_prefix(file, lsn)
            assert (
                file.census_with_ranks(), new.state.as_tuple(),
                new.group_levels,
            ) == expected, lsn
            # No spare consumed by the resume: the balance is the one
            # the prefix knows (the completed run's once it is in).
            assert new.spares_remaining == known.spares, lsn
            assert new.journal.replay().open_intents == [], lsn
            assert file.verify_parity_consistency() == [], lsn
            assert file.auditor.check_file(file) == [], lsn
            assert file.auditor.violations == [], lsn
        assert new.spares_remaining == spares


# ----------------------------------------------------------------------
# hardened file-state recovery (satellite)
# ----------------------------------------------------------------------
class TestHardenedFileStateRecovery:
    def test_unreachable_buckets_filled_from_parity_checkpoint(self):
        file = ha_file(replicas=1, availability=2, bucket_capacity=8)
        load(file, 80)
        expected = file.rs_coordinator.state.as_tuple()
        file.rs_coordinator.checkpoint_to_parity()
        # Kill a couple of data buckets WITHOUT recovering them: the
        # survivor probe alone may still pin the state, but the point is
        # the missing levels come from the checkpoint ghost.
        file.network.fail("f.d0")
        file.network.fail("f.d1")
        assert file.reconstruct_file_state() == expected

    def test_total_blackout_raises_typed_error_naming_evidence(self):
        file = ha_file(replicas=0, availability=1, bucket_capacity=32)
        load(file, 20)
        for server in file.data_servers():
            file.network.fail(server.node_id)
        for server in file.parity_servers():
            file.network.fail(server.node_id)
        with pytest.raises(RecoveryError) as excinfo:
            file.reconstruct_file_state()
        text = str(excinfo.value)
        assert "missing evidence" in text
        assert "data buckets" in text

    def test_survivors_alone_still_reconstruct(self):
        file = ha_file(replicas=0, availability=1, bucket_capacity=8)
        load(file, 80)
        expected = file.rs_coordinator.state.as_tuple()
        file.network.fail("f.d2")  # no checkpoint exists (replicas=0)
        assert file.reconstruct_file_state() == expected


# ----------------------------------------------------------------------
# probe MTTR accounting is metrics-independent (satellite)
# ----------------------------------------------------------------------
class TestProbeMetricsOff:
    def test_probe_mttr_bookkeeping_without_metrics(self):
        """The MTTR import is module-level: with NO metrics registry
        installed the probe's repair-time bookkeeping must still run
        (down-since tracked, then cleared on recovery) without error."""
        file = ha_file(replicas=0, availability=1, bucket_capacity=32)
        load(file, 20)
        assert file.network.metrics is None
        coordinator = file.rs_coordinator
        file.fail_data_bucket(0)
        coordinator.run_probe_cycle(rounds=2)
        assert file.network.is_available("f.d0")
        assert coordinator._down_since == {}

    def test_probe_mttr_histogram_when_metrics_on(self):
        file = ha_file(replicas=0, availability=1, bucket_capacity=32)
        load(file, 20)
        _, metrics, _ = file.enable_observability(audit=False)
        file.fail_data_bucket(0)
        file.rs_coordinator.run_probe_cycle(rounds=2)
        histogram = metrics.get("probe.mttr")
        assert histogram is not None
        assert histogram.count == 1


# ----------------------------------------------------------------------
# idempotence pins under the fault plane (satellite)
# ----------------------------------------------------------------------
class TestHandlerIdempotence:
    def _unprotect(self, file: LHRSFile, kinds: set[str]) -> FaultPlane:
        """Install a plane that duplicates exactly ``kinds`` (removing
        them from the protected set so the rule can bite)."""
        plane = FaultPlane(
            rng=make_rng(7),
            protected_kinds=DEFAULT_PROTECTED_KINDS - kinds,
        )
        plane.add_rule(kinds=kinds, duplicate=1.0)
        file.network.install_fault_plane(plane)
        return plane

    def test_duplicated_report_unavailable_is_idempotent(self):
        """Every delivery of report.unavailable re-runs recovery; the
        second finds the node healthy and must be a no-op."""
        file = ha_file(replicas=0, availability=1, bucket_capacity=32)
        load(file, 20)
        before = file.census_with_ranks()
        plane = self._unprotect(file, {"report.unavailable"})
        file.fail_data_bucket(0)
        file.network.send(
            "f.client0", "f.coord", "report.unavailable", {"node": "f.d0"}
        )
        assert plane.counters["duplicated"] >= 1
        assert file.network.is_available("f.d0")
        assert file.census_with_ranks() == before
        assert file.verify_parity_consistency() == []

    @pytest.mark.parametrize("rs", [False, True], ids=["DataServer", "RSDataServer"])
    def test_resent_split_moves_nothing(self, rs):
        """``new_level`` makes the split command idempotent: a bucket
        already there answers at once — no records.bulk, no Δ, no
        ``ctl level`` frame."""
        if rs:
            file = ha_file(replicas=0, durability=True)
        else:
            file = LHStarFile(capacity=8)
        for key in range(60):
            file.insert(key, bytes([key]) * 8)
        coordinator = file.coordinator
        source, target, new_level = coordinator.state.next_split()
        coordinator.split_once()
        server = file.network.nodes[f"f.d{source}"]
        held = dict(server.bucket.records)
        written = server._durable.disk.bytes_written if rs else None
        with file.stats.measure("resend") as window:
            reply = file.network.call(
                "f.coord", server.node_id, "split",
                {"target": target, "new_level": new_level},
            )
        assert reply == {"moved": 0, "kept": len(held)}
        assert dict(window.by_kind) == {"split": 1, "split.reply": 1}
        assert (server.level, dict(server.bucket.records)) == (new_level, held)
        if rs:
            assert server._durable.disk.bytes_written == written
            assert file.verify_parity_consistency() == []

    def test_duplicated_rejoin_is_idempotent(self):
        """rejoin is a pure read of the registry: duplicated delivery
        changes nothing and the reply stays stable."""
        file = ha_file(replicas=0, availability=1, bucket_capacity=32)
        load(file, 20)
        self._unprotect(file, {"rejoin"})
        census = file.census_with_ranks()
        server = file.data_servers()[0]
        first = file.network.call(
            server.node_id, "f.coord", "rejoin", {"node": server.node_id}
        )
        second = file.network.call(
            server.node_id, "f.coord", "rejoin", {"node": server.node_id}
        )
        assert first == second == {"role": "current"}
        assert file.census_with_ranks() == census

    @pytest.mark.parametrize("takeover", [False, True])
    def test_rejoin_of_a_rebuilt_bucket_catches_up(self, takeover):
        """A spare install moves the address's epoch, and the spare is
        that incarnation: when it restarts, a primary that knows the
        epoch only from the journal still catches it up instead of
        burning a second spare on a full rebuild."""
        file = ha_file(group_size=4, availability=2, durability=True,
                       spare_servers=4)
        file.enable_observability(audit=False)
        load(file, 40)
        file.recover([file.fail_data_bucket(1)])
        assert file.rs_coordinator.spares_remaining == 3
        if takeover:
            file.fail_coordinator()
            file.await_takeover()
        coordinator = file.rs_coordinator
        replies = []
        handle = coordinator.handle_rejoin
        coordinator.handle_rejoin = (
            lambda message: replies.append(handle(message)) or replies[-1]
        )
        file.failures.crash(["f.d1"])
        file.failures.heal(["f.d1"])
        assert replies == [{"role": "caught-up"}]
        assert "catchup.fallback" not in file.tracer.counts
        assert coordinator.spares_remaining == 3
        assert_intact(file, 40)

    def test_rejoin_of_replaced_server_reports_spare(self):
        file = ha_file(replicas=0, availability=1, bucket_capacity=32)
        load(file, 20)
        self._unprotect(file, {"rejoin"})
        old = file.data_servers()[0]
        file.fail_data_bucket(0)
        file.recover(["f.d0"])  # a spare now carries bucket 0
        reply = file.network.call(
            "f.client0", "f.coord", "rejoin", {"node": old.node_id}
        )
        assert reply["role"] == "spare"
