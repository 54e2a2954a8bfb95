"""Tests of the finite hot-spare pool."""

import pytest

from repro.core import LHRSConfig, LHRSFile, RecoveryError
from repro.sim.rng import make_rng


def build(spares, k=1, count=150):
    file = LHRSFile(
        LHRSConfig(group_size=4, availability=k, bucket_capacity=8,
                   spare_servers=spares)
    )
    rng = make_rng(17)
    for key in rng.choice(10**9, size=count, replace=False):
        file.insert(int(key), b"spare-me")
    return file


class TestSparePool:
    def test_unbounded_by_default(self):
        file = build(spares=None)
        for bucket in (0, 1, 2, 3, 4):
            node = file.fail_data_bucket(bucket)
            file.recover([node])
        assert file.rs_coordinator.spares_remaining is None

    def test_recoveries_consume_spares(self):
        file = build(spares=3)
        for bucket in (0, 5):
            node = file.fail_data_bucket(bucket)
            file.recover([node])
        assert file.rs_coordinator.spares_remaining == 1

    def test_exhaustion_raises(self):
        file = build(spares=1)
        node = file.fail_data_bucket(0)
        file.recover([node])
        node = file.fail_data_bucket(1)
        with pytest.raises(RecoveryError, match="spare pool exhausted"):
            file.recover([node])

    def test_parity_recovery_also_consumes(self):
        file = build(spares=2, k=2)
        nodes = [file.fail_parity_bucket(0, 0), file.fail_parity_bucket(0, 1)]
        file.recover(nodes)
        assert file.rs_coordinator.spares_remaining == 0

    def test_zero_spares_blocks_all_recovery(self):
        file = build(spares=0)
        node = file.fail_data_bucket(0)
        with pytest.raises(RecoveryError, match="spare pool exhausted"):
            file.recover([node])
        # Degraded reads still work: they need no spare.  Read a record
        # of the dead bucket itself via record recovery.
        parity = file.parity_servers(0)[0]
        records = map(parity._store.snapshot, parity._store)
        key = next(
            record["keys"][0] for record in records if 0 in record["keys"]
        )
        found, payload = file.recover_record(key)
        assert found and payload == b"spare-me"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LHRSConfig(spare_servers=-1)
