"""Tests for workload generation, and a workload under a failure
schedule."""

import pytest

from repro.check.soak import ExpectedState
from repro.core import LHRSConfig, LHRSFile
from repro.workloads import (
    KeyStream,
    OperationMix,
    PayloadShape,
    generate_operations,
)


def drive(file, ops) -> ExpectedState:
    """Run an operation stream, checking every read as it goes."""
    expected = ExpectedState()
    for op in ops:
        expected.call(file, *op)
    return expected


class TestKeyStream:
    def test_uniform_unique_and_reproducible(self):
        a = KeyStream(seed=1).generate(100)
        b = KeyStream(seed=1).generate(100)
        assert a == b
        assert len(set(a)) == 100

    def test_sequential(self):
        assert KeyStream(kind="sequential").generate(5) == [0, 1, 2, 3, 4]

    def test_zipf_skew(self):
        keys = KeyStream(kind="zipf", seed=2).generate(2000)
        assert keys.count(1) > 200  # heavy head

    def test_clustered_runs(self):
        keys = KeyStream(kind="clustered", seed=3, cluster_span=8).generate(50)
        assert len(keys) == 50
        adjacent = sum(1 for a, b in zip(keys, keys[1:]) if b == a + 1)
        assert adjacent > 20

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            KeyStream(kind="nope").generate(1)


class TestPayloadShape:
    def test_fixed(self):
        payloads = PayloadShape(kind="fixed", size=37).generate([1, 2])
        assert all(len(p) == 37 for p in payloads)
        assert payloads[0] != payloads[1]  # key-derived

    def test_variable_bounds(self):
        payloads = PayloadShape(
            kind="variable", min_size=10, max_size=20, seed=4
        ).generate(list(range(200)))
        sizes = {len(p) for p in payloads}
        assert min(sizes) >= 10 and max(sizes) <= 20
        assert len(sizes) > 3

    def test_record_fields(self):
        (payload,) = PayloadShape(kind="record", seed=5).generate([42])
        parts = payload.split(b"|")
        assert int.from_bytes(parts[0], "big") == 42
        assert parts[1] == b"name-42"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PayloadShape(kind="nope").generate([1])


class TestOperationMix:
    def test_weights_normalized(self):
        mix = OperationMix(insert=2, search=2)
        assert mix.weights().sum() == pytest.approx(1.0)
        assert mix.weights()[0] == pytest.approx(0.5)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            OperationMix(insert=0).weights()

    def test_generate_operations_semantics(self):
        ops = list(
            generate_operations(
                300,
                OperationMix(insert=1, search=1, update=0.5, delete=0.25),
                seed=6,
            )
        )
        assert len(ops) == 300
        kinds = {op for op, _, _ in ops}
        assert kinds <= {"insert", "search", "update", "delete"}
        assert all(
            payload is not None
            for op, _, payload in ops
            if op in ("insert", "update")
        )
        assert all(
            payload is None for op, _, payload in ops if op in ("search", "delete")
        )

    def test_operations_drive_a_file(self):
        file = LHRSFile(LHRSConfig(bucket_capacity=8, availability=1))
        ops = generate_operations(
            200, OperationMix(insert=2, search=1, update=1, delete=0.5), seed=7
        )
        expected = drive(file, ops)
        assert expected.failed == 0 and expected.acked > 100
        assert file.verify_parity_consistency() == []


class TestFailureSchedule:
    def test_trace_with_failures_recovers_transparently(self):
        file = LHRSFile(LHRSConfig(bucket_capacity=8, availability=1))
        expected = drive(
            file, generate_operations(150, OperationMix(insert=1), seed=9)
        )
        start = file.network.now
        file.failures.schedule_crash("f.d1", at=start + 10)
        file.failures.schedule_crash("f.d2", at=start + 40)
        mixed = generate_operations(
            80, OperationMix(insert=1, search=2, update=0.5), seed=10
        )
        for op in mixed:
            expected.call(file, *op)
        assert len(file.failures.event_log) == 2
        assert expected.failed == 0
        assert file.verify_parity_consistency() == []
        assert file.network.is_available("f.d1")
