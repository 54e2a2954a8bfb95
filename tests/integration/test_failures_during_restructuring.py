"""Failures landing *during* splits, merges and upgrades.

Structural operations move records and parity in multiple steps; these
tests pin that a parity (or mirror) site dying mid-operation leaves the
system consistent — the mutate-first / rebuild-from-current / no-resend
discipline at work.
"""

import pytest

from repro.baselines import LHMFile
from repro.check.soak import ExpectedState
from repro.core import LHRSConfig, LHRSFile
from repro.sim.rng import make_rng
from repro.workloads import OperationMix, generate_operations


def build(k=2, count=200, capacity=8, seed=53, **kw):
    file = LHRSFile(
        LHRSConfig(group_size=4, availability=k, bucket_capacity=capacity, **kw)
    )
    rng = make_rng(seed)
    keys = [int(x) for x in rng.choice(10**9, size=count, replace=False)]
    for key in keys:
        file.insert(key, key.to_bytes(8, "big"))
    return file, keys


class TestParityDownDuringStructuralOps:
    def test_split_with_source_group_parity_down(self):
        file, _ = build()
        source, target, _ = file.coordinator.state.next_split()
        source_group = source // 4
        node = file.fail_parity_bucket(source_group, 0)
        file.coordinator.split_once()
        assert file.network.is_available(node)  # healed by the batch send
        assert file.verify_parity_consistency() == []

    def test_split_with_target_group_parity_down(self):
        file, _ = build()
        # Grow until the next split's target lands in an existing group.
        while True:
            source, target, _ = file.coordinator.state.next_split()
            if target % 4 != 0:
                break
            file.coordinator.split_once()
        target_group = target // 4
        node = file.fail_parity_bucket(target_group, 1)
        file.coordinator.split_once()
        assert file.network.is_available(node)
        assert file.verify_parity_consistency() == []

    def test_merge_with_absorber_group_parity_down(self):
        file, _ = build()
        state = file.coordinator.state
        last = state.bucket_count - 1
        if last % 4 == 0:
            file.rs_coordinator.merge_once()  # make the next merge non-retiring
        source = state.copy()
        source.retreat_merge()
        absorber_group = source.n // 4
        node = file.fail_parity_bucket(absorber_group, 0)
        file.rs_coordinator.merge_once()
        assert file.network.is_available(node)
        assert file.verify_parity_consistency() == []

    def test_availability_raise_with_data_bucket_down(self):
        """Retrofitting a group reads its data; a dead member must be
        recovered first (the dump call reports it)."""
        from repro.core import RecoveryError

        file, _ = build(k=1)
        file.fail_data_bucket(1)
        # raise_group_level dumps bucket 1 -> NodeUnavailable surfaces;
        # recover first, then raising works.
        with pytest.raises(Exception):
            file.rs_coordinator.raise_group_level(0, 2)
        file.recover(["f.d1"])
        file.rs_coordinator.raise_group_level(0, 2)
        assert file.verify_parity_consistency() == []


class TestMirrorDuringStructuralOps:
    def test_split_with_mirror_down(self):
        file = LHMFile(capacity=8)
        rng = make_rng(54)
        for key in rng.choice(10**9, size=150, replace=False):
            file.insert(int(key), b"m")
        source, _, _ = file.coordinator.state.next_split()
        node = file.fail_mirror(source)
        file.coordinator.split_once()
        assert file.network.is_available(node)
        assert file.verify_mirror_consistency() == []


class TestWorkloadWithCrashes:
    def test_crash_soak(self):
        file, keys = build(k=2, capacity=16, count=300)
        expected = ExpectedState()
        expected.values.update((key, key.to_bytes(8, "big")) for key in keys)
        # Three crashes in three groups while the workload splits the
        # file; each bucket stays down until something rebuilds it.
        start = file.network.now
        for index, bucket in enumerate((1, 6, 11)):
            file.failures.schedule_crash(
                f"f.d{bucket}", at=start + 40 + 120 * index
            )
        ops = generate_operations(
            400, OperationMix(insert=1, search=2, update=1, delete=0.2),
            seed=56,
        )
        for op in ops:
            expected.call(file, *op)  # every read checked
        assert len(file.failures.event_log) == 3
        file.rs_coordinator.probe()
        assert file.verify_parity_consistency() == []
