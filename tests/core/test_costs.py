"""The analytic cost model must match what the system actually does."""

import pytest

from repro.core import LHRSConfig, LHRSFile
from repro.core.costs import CostModel, lhg_recovery_messages, mirroring_recovery_messages
from repro.sim.rng import make_rng


def build(m=4, k=2, capacity=16, count=400, seed=23, **kw):
    file = LHRSFile(
        LHRSConfig(group_size=m, availability=k, bucket_capacity=capacity, **kw)
    )
    rng = make_rng(seed)
    keys = [int(x) for x in rng.choice(10**9, size=count, replace=False)]
    for key in keys:
        file.insert(key, b"c" * 32)
    return file, keys


class TestModelAgainstSystem:
    def test_search_and_insert(self):
        model = CostModel(m=4, k=2)
        file, keys = build(k=2)
        for key in keys:
            file.search(key)
        with file.stats.measure("s") as window:
            file.search(keys[0])
        assert window.messages == model.search()
        state = file.coordinator.state
        key = next(
            key for key in range(10**6, 10**6 + 10**5)
            if file.client.image.address(key) == state.address(key)
            and len(file.data_servers()[state.address(key)].bucket) + 2
            < file.config.bucket_capacity
        )
        with file.stats.measure("i") as window:
            file.insert(key, b"c" * 32)
        assert window.messages == model.insert()

    @pytest.mark.parametrize("failed,parity_failed", [(1, 0), (2, 0), (1, 1)])
    def test_group_recovery(self, failed, parity_failed):
        model = CostModel(m=4, k=2)
        file, _ = build(k=2)
        nodes = [file.fail_data_bucket(b) for b in range(failed)]
        nodes += [file.fail_parity_bucket(0, i) for i in range(parity_failed)]
        with file.stats.measure("r") as window:
            file.recover(nodes)
        assert window.messages == model.group_recovery_messages(
            failed, parity_failed
        )

    def test_group_recovery_bound_check(self):
        with pytest.raises(ValueError):
            CostModel(m=4, k=1).group_recovery_messages(failed=2)

    def test_record_recovery_upper_bound(self):
        model = CostModel(m=4, k=2)
        file, keys = build(k=2, auto_recover=False)
        for key in keys[:100]:
            file.search(key)
        target = next(k for k in keys if file.find_bucket_of(k) == 0)
        file.fail_data_bucket(0)
        with file.stats.measure("d") as window:
            assert file.search(target).found
        assert window.messages <= model.record_recovery_messages()

    def test_certain_miss(self):
        model = CostModel(m=4, k=1)
        file, _ = build(k=1, auto_recover=False)
        absent = next(
            key for key in range(10**6, 10**6 + 10**5)
            if file.find_bucket_of(key) == 0
            and file.client.image.address(key) == 0
        )
        file.fail_data_bucket(0)
        with file.stats.measure("m") as window:
            assert not file.search(absent).found
        assert window.messages == model.certain_miss_messages()

    def test_merge_cost(self):
        model = CostModel(m=4, k=2)
        file, _ = build(k=2)
        with file.stats.measure("merge") as window:
            file.rs_coordinator.merge_once()
        # The absorber may emit an incidental overflow report; the model
        # covers the merge protocol itself.
        protocol = window.messages - window.by_kind.get("overflow", 0)
        assert protocol == model.merge()

    def test_storage_formulas(self):
        model = CostModel(m=4, k=2, load=0.7)
        assert model.bucket_overhead() == 0.5
        assert model.byte_overhead() == pytest.approx(0.5 / 0.7)
        file, _ = build(m=4, k=2, capacity=32, count=2000)
        assert file.storage_overhead() == pytest.approx(
            CostModel(m=4, k=2, load=file.load_factor()).byte_overhead(),
            rel=0.15,
        )

    def test_baseline_formulas(self):
        assert mirroring_recovery_messages() == 3
        # LH*g cost grows with file size; LH*RS group recovery does not.
        small = lhg_recovery_messages(40, 4, lost_records=8)
        large = lhg_recovery_messages(400, 4, lost_records=8)
        assert large > small
        assert CostModel(m=4, k=1).group_recovery_messages(1) == 9
