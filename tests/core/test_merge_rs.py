"""Tests for LH*RS bucket merges: parity maintained through shrink."""

import pytest

from repro.core import LHRSConfig, LHRSFile
from repro.sdds.coordinator import SplitPolicy
from repro.sim.rng import make_rng


def build(count=250, m=4, k=2, capacity=8, seed=9, split_policy=None, **kw):
    file = LHRSFile(
        LHRSConfig(group_size=m, availability=k, bucket_capacity=capacity, **kw),
        split_policy=split_policy,
    )
    rng = make_rng(seed)
    keys = [int(x) for x in rng.choice(10**9, size=count, replace=False)]
    for key in keys:
        file.insert(key, key.to_bytes(8, "big") * 2)
    return file, keys


class TestRSMerge:
    def test_single_merge_keeps_parity_consistent(self):
        file, keys = build()
        before = file.bucket_count
        file.rs_coordinator.merge_once()
        assert file.bucket_count == before - 1
        assert file.total_records() == len(keys)
        assert file.verify_parity_consistency() == []

    def test_merge_retires_singleton_group(self):
        file, _ = build()
        # Merge until the last bucket is a group's first (number % m == 0).
        while (file.bucket_count - 1) % 4 != 0:
            file.rs_coordinator.merge_once()
        groups_before = len(file.group_levels())
        dying = (file.bucket_count - 1) // 4
        file.rs_coordinator.merge_once()
        assert len(file.group_levels()) == groups_before - 1
        assert f"f.p{dying}.0" not in file.network.nodes
        assert file.verify_parity_consistency() == []

    def test_deep_shrink_and_regrow(self):
        file, keys = build(count=150)
        # Empty the file first; merging an over-full file would be
        # fought (correctly) by the coordinator's load control.
        for key in keys[:140]:
            file.delete(key)
        survivors = keys[140:]
        while file.bucket_count > 4:
            file.rs_coordinator.merge_once()
        assert file.total_records() == 10
        assert file.verify_parity_consistency() == []
        assert list(file.group_levels()) == [0]
        for key in survivors:
            assert file.search(key).found
        # Regrow: groups and their parity come back.
        rng = make_rng(10)
        for key in rng.choice(10**8, size=200, replace=False):
            file.insert(int(key), b"z" * 16)
        assert len(file.group_levels()) > 1
        assert file.verify_parity_consistency() == []

    def test_recovery_still_works_after_merges(self):
        file, keys = build()
        for _ in range(3):
            file.rs_coordinator.merge_once()
        node = file.fail_data_bucket(1)
        file.recover([node])
        assert file.verify_parity_consistency() == []
        sample = [k for k in keys if file.find_bucket_of(k) == 1][:5]
        for key in sample:
            assert file.search(key).found

    def test_merge_cost_includes_regrouping(self):
        """LH*RS merges pay parity re-grouping (contrast: LH*g's merges
        of never-moved records would not); one delete-batch per source
        parity bucket and one insert-batch per absorber parity bucket."""
        file, _ = build(k=2)
        with file.stats.measure("merge") as window:
            file.rs_coordinator.merge_once()
        assert window.by_kind.get("parity.batch", 0) >= 2

    def test_underflow_policy_shrinks_rs_file(self):
        file, keys = build(
            count=600,
            capacity=16,
            split_policy=SplitPolicy(threshold=0.58, merge_threshold=0.25),
        )

        grown = file.bucket_count
        for key in keys[: int(len(keys) * 0.92)]:
            file.delete(key)
        assert file.bucket_count < grown
        assert file.verify_parity_consistency() == []
        survivors = keys[int(len(keys) * 0.92):]
        for key in survivors[::7]:
            assert file.search(key).found


def emptied_last_bucket(file: LHRSFile) -> int:
    """Grow until the last bucket is not its group's first, then delete
    every record it holds; returns its number."""
    key = 0
    while file.bucket_count < 6 or (file.bucket_count - 1) % 4 == 0:
        file.insert(key, b"v" * 8)
        key += 1
    last = file.bucket_count - 1
    for stored in list(file.data_servers()[last].bucket.records):
        file.delete(stored)
    return last


class TestMergeWithParityDown:
    """An empty bucket ships no Δ, so nothing heals a dead parity bucket
    of its group on the way: the merge has to deal with it itself."""

    def build(self, **kw):
        file = LHRSFile(LHRSConfig(
            group_size=4, bucket_capacity=8, availability=2,
            coordinator_replicas=1, **kw,
        ))
        last = emptied_last_bucket(file)
        return file, last, f"f.p{last // 4}.1"

    def check_closed_and_regrows(self, file, last):
        journal = file.rs_coordinator.journal
        assert journal.records()[-1].type == "intent.end"
        assert journal.replay().open_intents == []
        for key in range(10**6, 10**6 + 100):
            file.insert(key, b"w" * 8)
        assert file.bucket_count > last + 1  # the position is back
        assert file.verify_parity_consistency() == []

    def test_the_dead_parity_bucket_is_rebuilt_first(self):
        file, last, dead = self.build()
        file.failures.crash([dead])
        with file.stats.measure("merge") as window:
            file.rs_coordinator.merge_once()
        assert file.bucket_count == last
        assert file.network.is_available(dead)
        assert window.by_kind["parity.reset"] == 2
        self.check_closed_and_regrows(file, last)

    @pytest.mark.parametrize("takeover", [False, True, "lagging"])
    @pytest.mark.parametrize("durability", [False, True])
    def test_without_auto_recover_the_merge_works_around_it(
        self, durability, takeover
    ):
        """A down parity bucket gets no ``parity.reset``: rebuilt from
        data it has no channel for the dissolved position, and a durable
        restart is fenced into that rebuild instead of catching up onto
        the dead channel — by a primary that only read of the fence in
        the journal just the same, and by one whose replica was down for
        the merge: it re-enters the merge the extent shows it missed and
        raises the fence itself."""
        file, last, dead = self.build(auto_recover=False, durability=durability)
        file.enable_observability(audit=False)
        standby = file.standbys[0].node_id
        file.failures.crash([dead] + [standby] * (takeover == "lagging"))
        with file.stats.measure("merge") as window:
            file.rs_coordinator.merge_once()
        assert file.bucket_count == last
        assert not file.network.is_available(dead)
        assert window.by_kind["parity.reset"] == 1  # the live one
        if takeover:
            file.fail_coordinator()
            if takeover == "lagging":
                file.failures.heal([standby])
            new = file.await_takeover()
            assert new.state.bucket_count == last
            assert new.durable.bucket_epochs == {dead: 1}
            assert new.durable.snapshot() == new.journal.replay().snapshot()
        if durability:
            file.failures.heal([dead])
            assert file.tracer.counts["catchup.fallback"] == 1
        else:
            file.recover([dead])
        assert last % 4 not in file.network.nodes[dead]._expected_seq
        self.check_closed_and_regrows(file, last)
