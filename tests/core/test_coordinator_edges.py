"""Edge-case tests for the RS coordinator and its knobs."""

import pytest

from repro.core import LHRSConfig, LHRSFile
from repro.core.group import parity_node
from repro.gf import GF
from repro.rs.generator import parity_matrix
from repro.sim.rng import make_rng


def build(count=150, **kw):
    defaults = dict(group_size=4, availability=1, bucket_capacity=8)
    defaults.update(kw)
    file = LHRSFile(LHRSConfig(**defaults))
    rng = make_rng(19)
    keys = [int(x) for x in rng.choice(10**9, size=count, replace=False)]
    for key in keys:
        file.insert(key, key.to_bytes(8, "big"))
    return file, keys


class TestParityRows:
    def test_row_zero_is_all_ones(self):
        file, _ = build()
        assert file.rs_coordinator.parity_row(0) == [1, 1, 1, 1]

    def test_rows_match_matrix(self):
        file, _ = build(availability=3)
        matrix = parity_matrix(GF(8), 4, 3)
        for index in range(3):
            assert file.rs_coordinator.parity_row(index) == matrix.row(index)

    @pytest.mark.parametrize("width", [8, 16])
    def test_nested_rows_wide_field(self, width):
        field = GF(width)
        for i in range(4):
            rows = [parity_matrix(field, 8, k).row(i) for k in range(i + 1, 6)]
            assert all(r == rows[0] for r in rows)


class TestGroupLevelManagement:
    def test_group_level_unknown_group(self):
        file, _ = build()
        with pytest.raises(KeyError):
            file.rs_coordinator.group_level(999)

    def test_raise_group_level_noop_when_not_higher(self):
        file, _ = build(availability=2)
        before = dict(file.network.nodes)
        file.rs_coordinator.raise_group_level(0, 2)
        file.rs_coordinator.raise_group_level(0, 1)
        assert dict(file.network.nodes) == before

    def test_manual_raise_updates_targets_and_parity(self):
        file, _ = build(availability=1)
        file.rs_coordinator.raise_group_level(0, 3)
        assert file.rs_coordinator.group_level(0) == 3
        for bucket in range(4):
            server = file.data_servers()[bucket]
            assert server.parity_targets == [
                parity_node("f", 0, i) for i in range(3)
            ]
        assert file.verify_parity_consistency() == []

    def test_new_parity_buckets_recoverable_after_raise(self):
        file, _ = build(availability=1)
        file.rs_coordinator.raise_group_level(0, 2)
        node = file.fail_parity_bucket(0, 1)
        file.recover([node])
        assert file.verify_parity_consistency() == []

    def test_raised_level_gives_real_two_availability(self):
        file, _ = build(availability=1)
        file.rs_coordinator.raise_group_level(0, 2)
        before = file.census_with_ranks()
        nodes = [file.fail_data_bucket(0), file.fail_data_bucket(1)]
        file.recover(nodes)
        assert file.census_with_ranks() == before


class TestReportEdgeCases:
    def test_double_report_second_is_noop(self):
        file, keys = build()
        target1, target2 = [k for k in keys if file.find_bucket_of(k) == 1][:2]
        file.fail_data_bucket(1)
        assert file.search(target1).found  # reports + recovers
        assert file.search(target2).found  # normal path again
        assert file.verify_parity_consistency() == []

    def test_report_for_already_recovered_node(self):
        file, keys = build()
        file.fail_data_bucket(1)
        file.recover(["f.d1"])
        # A stale report about the already-recovered node must not harm.
        file.client.send(
            "f.coord", "report.unavailable",
            {"kind": None, "op": None, "node": "f.d1"},
        )
        assert file.verify_parity_consistency() == []


class TestStorageAccessors:
    def test_byte_accounting(self):
        file, keys = build(count=100)
        assert file.data_storage_bytes() == 8 * 100
        assert file.parity_storage_bytes() > 0
        assert file.storage_overhead() == pytest.approx(
            file.parity_storage_bytes() / file.data_storage_bytes()
        )

    def test_empty_file_overhead_zero(self):
        file = LHRSFile(LHRSConfig(bucket_capacity=8))
        assert file.storage_overhead() == 0.0
