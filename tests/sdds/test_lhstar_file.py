"""Integration-grade tests of the LH* SDDS: growth, addressing, costs.

These pin the published LH* behaviour that LH*RS inherits: correct
placement under any growth, ≤ 2 forwarding hops, ~1-message inserts and
~2-message searches from converged clients, O(log M) IAMs for fresh
clients, complete scans, ~70% load factor without load control.
"""

import math

import pytest

from repro.baselines import LHGConfig, LHGFile, LHMFile
from repro.lh import addressing
from repro.sdds import LHStarFile, SplitPolicy
from repro.sdds.server import DataServer
from repro.sim.rng import make_rng


def grow_file(file, count, value=b"x" * 16, key_space=10**9, seed=7):
    rng = make_rng(seed)
    keys = rng.choice(key_space, size=count, replace=False)
    for key in keys:
        file.insert(int(key), value)
    return [int(k) for k in keys]


class TestGrowthAndPlacement:
    def test_file_splits_under_inserts(self):
        file = LHStarFile(capacity=8)
        grow_file(file, 400)
        assert file.bucket_count > 16
        assert file.total_records() == 400

    def test_every_record_in_its_correct_bucket(self):
        """Placement invariant: key c sits in bucket h_{j}(c)."""
        file = LHStarFile(capacity=8)
        grow_file(file, 300)
        for server in file.data_servers():
            for key in server.bucket:
                assert addressing.h(server.level, key) == server.number

    def test_all_records_searchable_after_growth(self):
        file = LHStarFile(capacity=8)
        keys = grow_file(file, 250)
        for key in keys[::7]:
            outcome = file.search(key)
            assert outcome.found and outcome.value == b"x" * 16

    def test_search_absent_key(self):
        file = LHStarFile(capacity=8)
        grow_file(file, 100)
        assert not file.search(10**9 + 7).found

    def test_bucket_levels_match_file_state(self):
        file = LHStarFile(capacity=8)
        grow_file(file, 300)
        state = file.coordinator.state
        for server in file.data_servers():
            assert server.level == state.level_of(server.number)

    def test_n0_greater_than_one(self):
        file = LHStarFile(capacity=8, n0=4)
        keys = grow_file(file, 200)
        assert file.bucket_count >= 4
        for key in keys[::11]:
            assert file.search(key).found


class TestMessagingCosts:
    def test_converged_client_insert_is_one_message(self):
        file = LHStarFile(capacity=8)
        keys = grow_file(file, 300)
        client = file.client
        # Converge the client on the live key population.
        for key in keys:
            client.search(key)
        state = file.coordinator.state
        # Pick a key the image addresses correctly whose bucket will not
        # overflow: the insert then costs exactly one message.
        key = next(
            k for k in range(10**6)
            if client.image.address(k) == state.address(k)
            and len(file.data_servers()[state.address(k)].bucket) + 2
            < file.coordinator.capacity
        )
        with file.stats.measure("insert") as window:
            client.insert(key, b"v")
        assert window.messages == 1

    def test_converged_client_search_is_two_messages(self):
        file = LHStarFile(capacity=8)
        keys = grow_file(file, 300)
        for key in keys:
            file.search(key)  # converges the image
        with file.stats.measure("search") as window:
            file.search(keys[0])
        assert window.messages == 2

    def test_worst_case_search_at_most_four_messages_plus_iam(self):
        file = LHStarFile(capacity=8)
        keys = grow_file(file, 500)
        fresh = file.new_client()
        for key in keys[::3]:
            with file.stats.measure("search") as window:
                outcome = fresh.search(key)
            assert outcome.found
            # request + ≤2 forwards + reply + optional IAM
            assert window.messages <= 5
            assert window.by_kind["search"] <= 3  # ≤ 2 forwarding hops

    def test_fresh_client_converges_in_o_log_m_iams(self):
        file = LHStarFile(capacity=8)
        keys = grow_file(file, 600)
        fresh = file.new_client()
        for key in keys:
            fresh.search(key)
        m = file.bucket_count
        assert fresh.image.adjustments <= 2 * math.ceil(math.log2(m)) + 2

    def test_average_insert_cost_near_one(self):
        file = LHStarFile(capacity=16)
        rng = make_rng(3)
        before = file.stats.total.messages
        count = 600
        for key in rng.choice(10**9, size=count, replace=False):
            file.insert(int(key), b"payload")
        per_insert = (file.stats.total.messages - before) / count
        # Splits, forwards and IAMs add overhead; the paper reports ~1.
        assert per_insert < 2.0


class TestUpdatesAndDeletes:
    def test_update_changes_value(self):
        file = LHStarFile(capacity=8)
        file.insert(42, b"old")
        file.update(42, b"new")
        assert file.search(42).value == b"new"

    def test_update_absent_key_reports_error(self):
        file = LHStarFile(capacity=8)
        file.update(99, b"v")
        assert file.client.last_error is not None
        assert file.client.last_error["key"] == 99

    def test_delete_removes(self):
        file = LHStarFile(capacity=8)
        keys = grow_file(file, 120)
        file.delete(keys[5])
        assert not file.search(keys[5]).found
        assert file.total_records() == 119

    def test_delete_absent_is_idempotent(self):
        file = LHStarFile(capacity=8)
        file.delete(12345)
        assert file.total_records() == 0

    def test_a_resent_split_brings_back_no_old_value(self, monkeypatch):
        """b = 4, keys 0–39, then key 15 updated: the last split moved
        it with its old value, and a second delivery of that
        ``records.bulk`` must not put the old value back."""
        file = LHStarFile(capacity=4)
        moves = []
        handle = DataServer.handle_records_bulk

        def spy(server, message):
            moves.append(message)
            return handle(server, message)

        monkeypatch.setattr(DataServer, "handle_records_bulk", spy)
        for key in range(40):
            file.insert(key, b"v%d" % key)
        monkeypatch.undo()
        file.update(15, b"newer")
        last = moves[-1]
        assert 15 in dict(last.payload["records"])
        file.network.send(last.sender, last.recipient, last.kind, last.payload)
        assert file.search(15).value == b"newer"
        assert file.total_records() == 40


class TestScans:
    def test_deterministic_scan_returns_everything(self):
        file = LHStarFile(capacity=8)
        keys = grow_file(file, 200)
        result = file.scan()
        assert result.complete
        assert sorted(k for k, _ in result.records) == sorted(keys)
        assert result.buckets_heard == file.bucket_count

    def test_scan_from_stale_image_propagates(self):
        """A fresh client's scan reaches buckets it has never heard of."""
        file = LHStarFile(capacity=8)
        keys = grow_file(file, 300)
        fresh = file.new_client()
        assert fresh.image.bucket_count_estimate < file.bucket_count
        result = fresh.scan()
        assert result.complete
        assert len(result.records) == len(keys)

    def test_scan_with_predicate(self):
        file = LHStarFile(capacity=8)
        for key in range(100):
            file.insert(key, b"even" if key % 2 == 0 else b"odd")
        result = file.scan(lambda k, v: v == b"even")
        assert len(result.records) == 50
        assert all(v == b"even" for _, v in result.records)

    def test_probabilistic_scan_counts_only_matching_buckets(self):
        file = LHStarFile(capacity=8)
        grow_file(file, 200)
        file.insert(10**9 + 1, b"needle")
        with file.stats.measure("scan") as window:
            result = file.scan(lambda k, v: v == b"needle", deterministic=False)
        assert [k for k, _ in result.records] == [10**9 + 1]
        assert window.by_kind["scan.reply"] == 1

    def test_deterministic_scan_detects_unavailable_bucket(self):
        file = LHStarFile(capacity=8)
        grow_file(file, 200)
        victim = file.bucket_count - 1
        file.network.fail(f"f.d{victim}")
        result = file.scan()
        assert not result.complete
        assert victim in result.missing


class TestLoadControl:
    def test_default_load_factor_near_70_percent(self):
        """The papers report ~70% storage load in ordinary operation."""
        file = LHStarFile(capacity=32)
        grow_file(file, 4000)
        assert 0.60 <= file.load_factor() <= 0.80

    def test_polling_high_threshold_loads_more(self):
        """The paper's stronger load control pushes load toward ~85%."""
        default = LHStarFile(capacity=16)
        controlled = LHStarFile(
            capacity=16, policy=SplitPolicy(mode="poll", threshold=0.88)
        )
        grow_file(default, 1200)
        grow_file(controlled, 1200)
        assert controlled.bucket_count < default.bucket_count
        assert controlled.load_factor() > default.load_factor()
        assert controlled.load_factor() >= 0.8

    def test_every_overflow_is_most_eager(self):
        eager = LHStarFile(capacity=16, policy=SplitPolicy(mode="every_overflow"))
        default = LHStarFile(capacity=16)
        grow_file(eager, 1200)
        grow_file(default, 1200)
        assert eager.bucket_count >= default.bucket_count
        assert eager.load_factor() <= default.load_factor()

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SplitPolicy(mode="nonsense")
        with pytest.raises(ValueError):
            SplitPolicy(threshold=0.0)


def _lhg_file():
    return LHGFile(LHGConfig(group_size=4, bucket_capacity=8))


def _values(file):
    """{key -> value} over every data bucket (LH*g's group key dropped)."""
    values = {}
    for records in file.census().values():
        for key, stored in records.items():
            values[key] = stored[1] if isinstance(file, LHGFile) else stored
    return values


def _redundancy_problems(file):
    if isinstance(file, LHGFile):
        return file.verify_parity_consistency()
    if isinstance(file, LHMFile):
        return file.verify_mirror_consistency()
    return []


class TestBatchedOps:
    @pytest.mark.parametrize(
        "make", [lambda: LHStarFile(capacity=8), _lhg_file,
                 lambda: LHMFile(capacity=8)],
        ids=["lhstar", "lhg", "lhm"],
    )
    def test_many_calls_bin_into_ops_batch_and_equal_a_scalar_replay(self, make):
        """LH* and its baselines bin ``*_many`` into ``ops.batch``: 300
        inserts into capacity-8 buckets split mid-batch, ``search_many``
        returns what a scalar ``search`` returns, the parity or mirror
        stays consistent, and replaying each batch in its confirmation
        order through scalar calls stores the same values."""
        keys = [int(k) for k in make_rng(3).choice(10**9, 300, replace=False)]
        batches = [
            ("insert", [(k, b"v%d" % k) for k in keys]),
            ("update", [(k, b"u%d" % k) for k in keys[::2]]),
            ("delete", keys[::3]),
            ("search", keys[::5]),
        ]
        batched = make()
        outcomes = []
        for kind, items in batches:
            out = getattr(batched, f"{kind}_many")(items)
            assert out.ok and out.batched_ops > 0, kind
            assert sorted(out.applied_order) == list(range(len(items)))
            outcomes.append(out)
            if kind == "insert":
                assert batched.bucket_count > 16  # splits inside the call
        assert batched.stats.total.by_kind["ops.batch"] > len(batches)
        assert _redundancy_problems(batched) == []
        deleted, updated = set(keys[::3]), set(keys[::2])
        for key, res in zip(keys[::5], outcomes[-1].outcomes):
            if key in deleted:
                assert res.status == "not_found"
            else:
                value = (b"u%d" if key in updated else b"v%d") % key
                assert (res.status, res.value) == ("found", value)
            scalar_read = batched.search(key)
            assert (scalar_read.found, scalar_read.value) == (
                res.status == "found", res.value)

        scalar = make()
        for (kind, items), out in zip(batches, outcomes):
            call = getattr(scalar, kind)
            for idx in out.applied_order:
                args = items[idx] if kind in ("insert", "update") else [items[idx]]
                call(*args)
        assert "ops.batch" not in scalar.stats.total.by_kind
        assert _values(batched) == _values(scalar)
        if not isinstance(batched, LHGFile):  # LH*g's group keys differ
            assert batched.census() == scalar.census()


class TestOracleHelpers:
    def test_census_and_totals_agree(self):
        file = LHStarFile(capacity=8)
        keys = grow_file(file, 150)
        census = file.census()
        assert sum(len(b) for b in census.values()) == len(keys) == file.total_records()

    def test_find_bucket_of(self):
        file = LHStarFile(capacity=8)
        keys = grow_file(file, 150)
        for key in keys[:20]:
            assert key in file.data_servers()[file.find_bucket_of(key)].bucket
