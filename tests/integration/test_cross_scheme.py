"""Cross-scheme integration: every scheme, same workload, same answers.

The schemes differ in redundancy machinery, never in semantics: an
identical operation stream must leave identical logical content in
LH*, LH*m, LH*s, LH*g and LH*RS files, and all must serve the same
reads — including through a failure of any single bucket.
"""

import pytest

from repro.baselines import LHGConfig, LHGFile, LHMFile, LHSFile, LHStarBaseline
from repro.check.soak import ExpectedState
from repro.core import LHRSConfig, LHRSFile
from repro.workloads import KeyStream, OperationMix, PayloadShape, generate_operations


def make_schemes():
    return {
        "lh*": LHStarBaseline(capacity=8),
        "lh*m": LHMFile(capacity=8),
        "lh*s": LHSFile(stripes=4, capacity=8),
        "lh*g": LHGFile(LHGConfig(group_size=4, bucket_capacity=8)),
        "lh*rs-k1": LHRSFile(LHRSConfig(group_size=4, availability=1,
                                        bucket_capacity=8)),
        "lh*rs-k2": LHRSFile(LHRSConfig(group_size=4, availability=2,
                                        bucket_capacity=8)),
    }


def run_workload(file, ops):
    """Apply the stream, checking every read; the expected content."""
    expected = ExpectedState()
    for op in ops:
        expected.call(file, *op)
    return expected.values


@pytest.fixture(scope="module")
def workload():
    return list(
        generate_operations(
            400,
            OperationMix(insert=2, search=1, update=1, delete=0.4),
            keys=KeyStream(kind="uniform", seed=31),
            payloads=PayloadShape(kind="variable", min_size=8, max_size=64,
                                  seed=31),
            seed=31,
        )
    )


class TestEquivalence:
    def test_all_schemes_agree_with_the_oracle(self, workload):
        for name, file in make_schemes().items():
            oracle = run_workload(file, workload)
            assert file.total_records() == len(oracle), name
            for key, payload in list(oracle.items())[::5]:
                outcome = file.search(key)
                assert outcome.found, (name, key)
                assert outcome.value == payload, (name, key)
            absent = 10**9 + 99
            assert not file.search(absent).found, name

    def test_redundant_schemes_survive_any_single_bucket(self, workload):
        """Fail bucket 1's server in each 1+-available scheme; a sample
        of reads must still return oracle values."""
        for name, file in make_schemes().items():
            if name in ("lh*", "lh*s"):
                continue  # no transparent client failover in these two
            oracle = run_workload(file, workload)
            file.network.fail(f"{file.file_id}.d1")
            sample = [
                (k, v) for k, v in oracle.items()
                if file.find_bucket_of(k) == 1
            ][:5]
            for key, payload in sample:
                outcome = file.search(key)
                assert outcome.found and outcome.value == payload, (name, key)

    def test_striping_survives_via_reconstruction(self, workload):
        file = LHSFile(stripes=4, capacity=8)
        oracle = run_workload(file, workload)
        key, payload = next(iter(oracle.items()))
        bucket = file.segments[2].find_bucket_of(key)
        file.fail_segment_bucket(2, bucket)
        outcome = file.search(key)
        assert outcome.found and outcome.value == payload

    def test_consistency_oracles_all_green(self, workload):
        schemes = make_schemes()
        for name, file in schemes.items():
            run_workload(file, workload)
        assert schemes["lh*m"].verify_mirror_consistency() == []
        assert schemes["lh*g"].verify_parity_consistency() == []
        assert schemes["lh*rs-k1"].verify_parity_consistency() == []
        assert schemes["lh*rs-k2"].verify_parity_consistency() == []
