"""Tests for LHRSConfig and group geometry."""

import dataclasses

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
from repro.gf import GF


class TestConfig:
    def test_defaults(self):
        cfg = LHRSConfig()
        assert cfg.group_size == 4
        assert cfg.availability == 1
        assert cfg.effective_policy.level_for(100) == 1
        assert cfg.max_availability == 1
        assert cfg.make_field() == GF(8)
        assert len(dataclasses.fields(LHRSConfig)) == 27

    def test_batch_ops_is_accepted_only_as_true(self):
        cfg = LHRSConfig(batch_ops=True, group_size=2)
        assert "batch_ops" not in {f.name for f in dataclasses.fields(cfg)}
        assert "batch_ops" not in vars(cfg)
        assert LHRSConfig.batch_ops is True  # the InitVar's default only
        assert cfg == LHRSConfig(group_size=2)
        with pytest.raises(ValueError, match="always batch"):
            LHRSConfig(batch_ops=False)
        assert dataclasses.replace(cfg, group_size=4) == LHRSConfig()

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
