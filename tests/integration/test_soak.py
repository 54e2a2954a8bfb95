"""Long-run soak tests: everything at once.

These exercise interactions no unit test reaches: scalable availability
upgrades *while* failures land, GF(2^16) parity through a full lifecycle,
the Vandermonde generator at fixed k, growth + shrink + regrowth cycles,
multiple clients with diverging images, and coordinator probing.
"""

import pytest

from repro.check.soak import ExpectedState
from repro.core import AvailabilityPolicy, LHRSConfig, LHRSFile
from repro.sim.rng import make_rng
from repro.workloads import (
    KeyStream,
    OperationMix,
    PayloadShape,
    generate_operations,
)


class TestLifecycleSoak:
    def test_scalable_availability_under_failures(self):
        """Policy upgrades interleave with crashes and keep everything
        consistent and recoverable."""
        config = LHRSConfig(
            group_size=4,
            bucket_capacity=8,
            policy=AvailabilityPolicy.scalable(
                base_level=1, first_threshold=4, growth=4, max_level=3
            ),
        )
        file = LHRSFile(config)
        expected = ExpectedState()
        for op in generate_operations(500, OperationMix(insert=1), seed=41):
            expected.call(file, *op)
        # Five crashes 100 clock units apart, each in its own group; a
        # crashed bucket stays down until an operation touching it (or
        # the final probe) rebuilds it.
        victims = [f"f.d{5 * g}" for g in range(5)]
        start = file.network.now
        for index, node in enumerate(victims):
            file.failures.schedule_crash(node, at=start + 50 + 100 * index)
        ops = generate_operations(
            600, OperationMix(insert=1, search=2, update=1, delete=0.3),
            keys=KeyStream(seed=43, key_space=10**8), seed=43,
        )
        for op in ops:
            expected.call(file, *op)  # every read checked
        assert [n for _, action, n in file.failures.event_log] == victims
        # Recovery is reactive: nodes nothing touched stay down until a
        # probe round sweeps them up.
        file.rs_coordinator.probe()
        assert file.verify_parity_consistency() == []
        assert max(file.group_levels().values()) >= 2
        assert all(file.network.is_available(node) for node in victims)

    def test_gf16_full_lifecycle(self):
        """GF(2^16) parity: growth, mutations, multi-failure recovery."""
        file = LHRSFile(
            LHRSConfig(group_size=4, availability=2, bucket_capacity=8,
                       field_width=16)
        )
        rng = make_rng(44)
        keys = [int(x) for x in rng.choice(10**9, size=300, replace=False)]
        for key in keys:
            # Odd payload lengths stress the 2-byte-symbol padding.
            file.insert(key, key.to_bytes(8, "big") * 2 + b"!")
        for key in keys[::3]:
            file.update(key, b"gf16-" + key.to_bytes(8, "big"))
        assert file.verify_parity_consistency() == []
        before = file.census_with_ranks()
        nodes = [file.fail_data_bucket(0), file.fail_data_bucket(3)]
        file.recover(nodes)
        assert file.census_with_ranks() == before
        assert file.verify_parity_consistency() == []

    def test_vandermonde_generator_fixed_k(self):
        """The ablation generator is fully usable at fixed k."""
        file = LHRSFile(
            LHRSConfig(group_size=4, availability=2, bucket_capacity=8,
                       generator="vandermonde")
        )
        rng = make_rng(45)
        keys = [int(x) for x in rng.choice(10**9, size=250, replace=False)]
        for key in keys:
            file.insert(key, key.to_bytes(8, "big"))
        assert file.verify_parity_consistency() == []
        nodes = [file.fail_data_bucket(1), file.fail_data_bucket(2)]
        before = file.census_with_ranks()
        file.recover(nodes)
        assert file.census_with_ranks() == before
        assert file.verify_parity_consistency() == []

    def test_vandermonde_cannot_scale_availability(self):
        from repro.core import RecoveryError

        file = LHRSFile(
            LHRSConfig(group_size=4, availability=1, bucket_capacity=8,
                       generator="vandermonde")
        )
        with pytest.raises(RecoveryError, match="nested"):
            file.rs_coordinator.raise_group_level(0, 2)

    def test_grow_shrink_regrow_cycles(self):
        file = LHRSFile(LHRSConfig(group_size=4, availability=1,
                                   bucket_capacity=8))
        live = {}
        rng = make_rng(46)
        for cycle in range(3):
            fresh = [int(x) + cycle * 10**9 for x in
                     rng.choice(10**8, size=200, replace=False)]
            for key in fresh:
                file.insert(key, key.to_bytes(8, "big"))
                live[key] = key.to_bytes(8, "big")
            victims = list(live)[: int(len(live) * 0.8)]
            for key in victims:
                file.delete(key)
                del live[key]
            while file.bucket_count > 8:
                file.rs_coordinator.merge_once()
            assert file.verify_parity_consistency() == []
        assert file.total_records() == len(live)
        for key, value in list(live.items())[::9]:
            assert file.search(key).value == value

    def test_many_clients_diverging_images(self):
        file = LHRSFile(LHRSConfig(group_size=4, availability=1,
                                   bucket_capacity=8))
        clients = [file.new_client() for _ in range(5)]
        rng = make_rng(47)
        keys = [int(x) for x in rng.choice(10**9, size=400, replace=False)]
        for index, key in enumerate(keys):
            clients[index % 5].insert(key, key.to_bytes(8, "big"))
        # Every client can read every record regardless of whose image
        # drove the insert.
        for index, key in enumerate(keys[::13]):
            outcome = clients[(index + 3) % 5].search(key)
            assert outcome.found and outcome.value == key.to_bytes(8, "big")
        assert file.verify_parity_consistency() == []

    def test_coordinator_probe_recovers_silent_failures(self):
        file = LHRSFile(LHRSConfig(group_size=4, availability=2,
                                   bucket_capacity=8))
        rng = make_rng(48)
        for key in rng.choice(10**9, size=200, replace=False):
            file.insert(int(key), b"probe-me")
        before = file.census_with_ranks()
        # Silent failures: nobody touches these buckets.
        file.fail_data_bucket(2)
        file.fail_parity_bucket(1, 0)
        summary = file.rs_coordinator.probe()
        assert set(summary["unavailable"]) == {"f.d2", "f.p1.0"}
        assert summary["recovered"]["groups"] == 2
        assert file.census_with_ranks() == before
        assert file.verify_parity_consistency() == []

    def test_probe_clean_file_is_quiet(self):
        file = LHRSFile(LHRSConfig(bucket_capacity=8))
        for key in range(50):
            file.insert(key, b"x")
        summary = file.rs_coordinator.probe()
        assert summary["unavailable"] == []
        assert "recovered" not in summary
