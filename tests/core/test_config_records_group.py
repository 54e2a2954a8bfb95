"""Tests for LHRSConfig, record structures and group geometry."""

import dataclasses

import numpy as np
import pytest

from repro.core.availability import AvailabilityPolicy
from repro.core.config import LHRSConfig
from repro.core.group import (
    data_node,
    group_buckets,
    group_count,
    group_of,
    parity_node,
    position_of,
)
from repro.core.records import DataRecord, ParityRecord
from repro.gf import GF


class TestConfig:
    def test_defaults(self):
        cfg = LHRSConfig()
        assert cfg.group_size == 4
        assert cfg.availability == 1
        assert cfg.effective_policy.level_for(100) == 1
        assert cfg.max_availability == 1
        assert cfg.make_field() == GF(8)
        assert len(dataclasses.fields(LHRSConfig)) == 29

    def test_validation(self):
        with pytest.raises(ValueError):
            LHRSConfig(group_size=0)
        with pytest.raises(ValueError):
            LHRSConfig(availability=-1)
        with pytest.raises(ValueError):
            LHRSConfig(bucket_capacity=0)
        with pytest.raises(ValueError):
            LHRSConfig(field_width=4)

    def test_field_capacity_guard(self):
        with pytest.raises(ValueError, match="wider field"):
            LHRSConfig(group_size=250, availability=10, field_width=8)
        LHRSConfig(group_size=250, availability=6, field_width=8)
        LHRSConfig(group_size=250, availability=10, field_width=16)

    def test_policy_drives_max_availability(self):
        cfg = LHRSConfig(policy=AvailabilityPolicy.scalable(max_level=3))
        assert cfg.max_availability == 3
        assert cfg.effective_policy.level_for(8) == 2


class TestRecords:
    def test_data_record_wire_size(self):
        rec = DataRecord(key=7, payload=b"abcd", rank=3)
        assert rec.wire_size() == 20

    def test_parity_record_snapshot_roundtrip(self):
        gf = GF(8)
        rec = ParityRecord(
            rank=5,
            keys={0: 11, 2: 13},
            lengths={0: 4, 2: 2},
            symbols=np.array([1, 2, 3, 4], dtype=np.uint8),
        )
        snap = rec.snapshot(gf)
        back = ParityRecord.from_snapshot(snap, gf)
        assert back.rank == 5
        assert back.keys == rec.keys
        assert back.lengths == rec.lengths
        assert (back.symbols == rec.symbols).all()

    def test_parity_record_properties(self):
        rec = ParityRecord(rank=1, keys={0: 5}, lengths={0: 9})
        assert rec.member_count == 1
        assert rec.max_length == 9
        assert ParityRecord(rank=2).max_length == 0

    def test_wire_size_counts_directory_and_parity(self):
        rec = ParityRecord(
            rank=1, keys={0: 5, 1: 6}, lengths={0: 4, 1: 4},
            symbols=np.zeros(10, dtype=np.uint8),
        )
        assert rec.wire_size() == 2 * 24 + 10


class TestGroupGeometry:
    def test_group_of_and_position(self):
        assert group_of(0, 4) == 0
        assert group_of(7, 4) == 1
        assert position_of(7, 4) == 3
        with pytest.raises(ValueError):
            group_of(-1, 4)
        with pytest.raises(ValueError):
            position_of(-1, 4)

    def test_group_buckets_clipping(self):
        assert group_buckets(1, 4) == [4, 5, 6, 7]
        assert group_buckets(1, 4, total_buckets=6) == [4, 5]
        assert group_buckets(2, 4, total_buckets=6) == []
        with pytest.raises(ValueError):
            group_buckets(-1, 4)

    def test_group_count(self):
        assert group_count(0, 4) == 0
        assert group_count(4, 4) == 1
        assert group_count(5, 4) == 2

    def test_node_names(self):
        assert data_node("f", 3) == "f.d3"
        assert parity_node("f", 2, 1) == "f.p2.1"
