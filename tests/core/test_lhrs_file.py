"""Integration tests of the LH*RS file in failure-free operation.

The paper's core failure-free claims: key search and scan cost exactly
what LH* charges (parity untouched); an insert costs 1 + k messages; an
update/delete costs 1 + k; parity stays consistent through any growth.
"""

import pytest

from repro.core import LHRSConfig, LHRSFile
from repro.core.availability import AvailabilityPolicy
from repro.sim.rng import make_rng


def build_file(m=4, k=2, capacity=8, count=300, seed=1, value_bytes=24, **kw):
    cfg = LHRSConfig(
        group_size=m, availability=k, bucket_capacity=capacity, **kw
    )
    file = LHRSFile(cfg)
    rng = make_rng(seed)
    keys = [int(x) for x in rng.choice(10**9, size=count, replace=False)]
    for key in keys:
        file.insert(key, key.to_bytes(8, "big") * (value_bytes // 8))
    return file, keys


class TestGrowthConsistency:
    def test_parity_consistent_after_growth(self):
        file, _ = build_file()
        assert file.verify_parity_consistency() == []

    def test_every_group_has_its_parity_buckets(self):
        file, _ = build_file()
        levels = file.group_levels()
        from repro.core.group import group_count

        assert len(levels) == group_count(file.bucket_count, 4)
        assert all(level == 2 for level in levels.values())
        assert file.parity_bucket_count() == 2 * len(levels)

    def test_all_records_searchable(self):
        file, keys = build_file()
        for key in keys[::7]:
            assert file.search(key).found

    def test_record_group_members_in_distinct_buckets(self):
        """Proposition-1 analogue: within a group, each rank has at most
        one member per bucket and members sit in distinct buckets."""
        file, _ = build_file()
        for server in file.parity_servers():
            if server.index:
                continue
            for rank in server._store:
                positions = list(server._store.snapshot(rank)["keys"])
                assert len(positions) == len(set(positions))
                assert all(0 <= p < 4 for p in positions)

    def test_rank_sets_dense_with_compaction(self):
        """§4.3 rank compaction keeps each bucket's ranks = {1..size}
        through splits and deletes."""
        file, keys = build_file(compact_ranks=True)
        for key in keys[::4]:
            file.delete(key)
        for server in file.data_servers():
            ranks = sorted(server.ranks.values())
            assert ranks == list(range(1, len(ranks) + 1))
        assert file.verify_parity_consistency() == []

    def test_rank_bookkeeping_without_compaction(self):
        """Without compaction: used ∪ free ranks = {1..counter}."""
        file, keys = build_file()
        for key in keys[::4]:
            file.delete(key)
        for server in file.data_servers():
            used = set(server.ranks.values())
            free = set(server._free_ranks)
            assert not used & free
            assert used | free == set(range(1, len(server._key_at)))

    def test_mutations_preserve_consistency(self):
        file, keys = build_file()
        for key in keys[::3]:
            file.update(key, b"updated" * 3)
        for key in keys[::5]:
            file.delete(key)
        assert file.verify_parity_consistency() == []

    def test_k0_degenerates_to_plain_lhstar(self):
        file, keys = build_file(k=0)
        assert file.parity_bucket_count() == 0
        assert file.verify_parity_consistency() == []
        assert all(file.search(k).found for k in keys[::11])


class TestFailureFreeCosts:
    def converge(self, file, keys):
        for key in keys:
            file.search(key)

    def test_search_cost_independent_of_k(self):
        """Failure-free search = LH* search: parity plays no part."""
        costs = {}
        for k in (0, 1, 2, 3):
            file, keys = build_file(k=k, count=200, seed=3)
            self.converge(file, keys)
            with file.stats.measure("s") as window:
                for key in keys[:50]:
                    file.search(key)
            costs[k] = window.messages / 50
        assert costs[0] == costs[1] == costs[2] == costs[3]
        assert costs[0] == pytest.approx(2.0)

    def test_insert_cost_is_one_plus_k(self):
        for k in (0, 1, 2, 3):
            file, keys = build_file(k=k, count=200, seed=3)
            self.converge(file, keys)
            state = file.coordinator.state
            fresh = [
                key for key in range(10**6, 10**6 + 2000)
                if file.client.image.address(key) == state.address(key)
                and len(file.data_servers()[state.address(key)].bucket)
                + 3 < file.config.bucket_capacity
            ][:20]
            assert fresh, "no safe keys found"
            with file.stats.measure("i") as window:
                for key in fresh:
                    file.insert(key, b"x" * 16)
            assert window.messages / len(fresh) == pytest.approx(1 + k)

    def test_update_and_delete_cost_one_plus_k(self):
        k = 2
        file, keys = build_file(k=k, count=200, seed=3)
        self.converge(file, keys)
        state = file.coordinator.state
        # One key per well-filled bucket: deleting it neither overflows
        # nor underflows, so the cost is the bare 1 + k protocol.
        seen_buckets: set[int] = set()
        safe = []
        for key in keys:
            bucket = state.address(key)
            if (
                file.client.image.address(key) == bucket
                and bucket not in seen_buckets
                and len(file.data_servers()[bucket].bucket)
                > file.config.bucket_capacity * 0.25 + 1
            ):
                seen_buckets.add(bucket)
                safe.append(key)
        safe = safe[:20]
        with file.stats.measure("u") as window:
            for key in safe:
                file.update(key, b"y" * 16)
        assert window.messages / len(safe) == pytest.approx(1 + k)
        with file.stats.measure("d") as window:
            for key in safe:
                file.delete(key)
        assert window.messages / len(safe) == pytest.approx(1 + k)

    def test_scan_cost_unaffected_by_parity(self):
        file_k0, _ = build_file(k=0, count=200, seed=3)
        file_k2, _ = build_file(k=2, count=200, seed=3)
        with file_k0.stats.measure("scan") as w0:
            r0 = file_k0.scan()
        with file_k2.stats.measure("scan") as w2:
            r2 = file_k2.scan()
        assert r0.complete and r2.complete
        assert len(r0.records) == len(r2.records) == 200
        # Same bucket count (same inserts/capacity) => same scan cost.
        assert file_k0.bucket_count == file_k2.bucket_count
        assert w0.messages == w2.messages


class TestStorageOverhead:
    def test_parity_buckets_are_k_over_m_of_data(self):
        for m, k in [(4, 1), (4, 2), (8, 1)]:
            file, _ = build_file(m=m, k=k, capacity=16, count=600)
            groups = len(file.group_levels())
            assert file.parity_bucket_count() == k * groups
            ratio = file.parity_bucket_count() / file.bucket_count
            # Allocated overhead ~ k/m (last partial group adds a bit).
            assert ratio == pytest.approx(k / m, rel=0.35)

    def test_byte_overhead_tracks_k_over_m_over_load(self):
        file, _ = build_file(m=4, k=1, capacity=32, count=3000)
        load = file.load_factor()
        expected = (1 / 4) / load
        assert file.storage_overhead() == pytest.approx(expected, rel=0.15)


class TestGroupLevelsAndPolicy:
    def test_fixed_policy_uniform_levels(self):
        file, _ = build_file(k=3, count=200)
        assert set(file.group_levels().values()) == {3}

    def test_split_pointer_paces_the_retrofit(self):
        """Each split raises at most its source's group, and one round
        after the last threshold crossing every group is at the level
        the policy asks for."""
        policy = AvailabilityPolicy.scalable(
            base_level=1, first_threshold=4, growth=4, max_level=3
        )
        file = LHRSFile(LHRSConfig(
            group_size=4, bucket_capacity=8, policy=policy
        ))
        tracer, _, _ = file.enable_observability(trace_capacity=0, audit=False)
        per_split: list[int] = []

        def count(event):
            if event.type == "split.start":
                per_split.append(0)
            else:
                per_split[-1] += 1  # a raise outside any split fails here

        tracer.subscribe(count, ["split.start", "availability.raise"])
        # The last crossing (G = 16, k = 3) comes at M = 61; the groups
        # born in that round first split in the next, which ends at 128.
        keys = iter(make_rng(5).choice(10**9, size=5_000, replace=False))
        while file.bucket_count < 128:
            file.insert(int(next(keys)), b"v" * 16)
        assert max(per_split) == 1
        levels = file.group_levels()
        assert set(levels.values()) == {policy.level_for(len(levels))} == {3}
        assert file.verify_parity_consistency() == []

    @pytest.mark.parametrize("auto_recover", [True, False])
    def test_retrofit_with_a_member_down(self, auto_recover):
        """A retrofit whose group has a data bucket down does not fail
        the split: the member is rebuilt and the group raised, or, with
        ``auto_recover`` off, the group waits for its next split."""
        file = LHRSFile(LHRSConfig(
            group_size=4, bucket_capacity=64, auto_recover=auto_recover,
            policy=AvailabilityPolicy.scalable(
                base_level=1, first_threshold=4, growth=4, max_level=3
            ),
        ))
        for key in range(100):
            file.insert(key, b"v" * 16)
        coordinator = file.rs_coordinator
        while file.bucket_count < 12:
            coordinator.split_once()
        assert coordinator.state.next_split()[0] == 4  # group 1's turn
        down = file.fail_data_bucket(5)
        coordinator.split_once()  # G = 4: the policy now asks for k = 2
        assert file.bucket_count == 13
        assert file.network.is_available(down) == auto_recover
        assert file.group_levels()[1] == (2 if auto_recover else 1)
        if auto_recover:
            assert file.verify_parity_consistency() == []
            assert all(file.search(key).found for key in range(100))

    def test_analytic_availability_reflects_levels(self):
        file, _ = build_file(k=2, count=200)
        p_k2 = file.analytic_availability(0.99)
        file0, _ = build_file(k=0, count=200)
        p_k0 = file0.analytic_availability(0.99)
        assert p_k2 > p_k0
        assert p_k2 > 0.999
