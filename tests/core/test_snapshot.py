"""Tests for whole-file snapshot and restore."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AvailabilityPolicy, LHRSConfig, LHRSFile
from repro.core.snapshot import from_json, restore_file, snapshot_file, to_json
from repro.sim.rng import make_rng
from tests.core.test_recovery import parity_rows

#: ``to_json(snapshot_file(...))`` of :func:`v2_original`'s file, written
#: when a snapshot listed records one by one (version 2)
V2_FIXTURE = Path(__file__).parent / "fixtures" / "snapshot_v2.json"


def build(count=250, seed=31, **kw):
    defaults = dict(group_size=4, availability=2, bucket_capacity=8)
    defaults.update(kw)
    file = LHRSFile(LHRSConfig(**defaults))
    rng = make_rng(seed)
    keys = [int(x) for x in rng.choice(10**9, size=count, replace=False)]
    for key in keys:
        file.insert(key, key.to_bytes(8, "big") * 2)
    return file, keys


def v2_original():
    """The file the version-2 fixture was taken of, built again."""
    file, keys = build(count=40, seed=31)
    for key in keys[:5]:
        file.delete(key)
    file.update(keys[5], b"updated")
    return file


def bucket_images(snap):
    """What a restore installs: every bucket's image, without its place,
    a parity bucket's row for row by rank."""
    return (
        [{k: v for k, v in b.items() if k != "number"}
         for b in snap["data_buckets"]],
        [parity_rows(p["store"]) for p in snap["parity_buckets"]],
    )


class TestRoundtrip:
    def test_restore_is_byte_identical(self):
        original, _ = build()
        restored = restore_file(snapshot_file(original), file_id="r")
        assert restored.census_with_ranks() == original.census_with_ranks()
        assert restored.levels_census() == original.levels_census()
        assert restored.group_levels() == original.group_levels()
        assert restored.coordinator.state.as_tuple() == (
            original.coordinator.state.as_tuple()
        )
        assert restored.verify_parity_consistency() == []

    def test_restored_file_fully_operational(self):
        original, keys = build()
        restored = restore_file(snapshot_file(original), file_id="r")
        assert restored.search(keys[0]).found
        restored.insert(10**9 + 5, b"post-restore")
        restored.update(keys[1], b"changed")
        restored.delete(keys[2])
        assert restored.verify_parity_consistency() == []
        # And it can still recover from failures.
        node = restored.fail_data_bucket(1)
        restored.recover([node])
        assert restored.verify_parity_consistency() == []

    def test_json_roundtrip(self):
        original, _ = build(count=120)
        text = to_json(snapshot_file(original))
        assert isinstance(text, str)
        restored = restore_file(from_json(text), file_id="j")
        assert restored.census_with_ranks() == original.census_with_ranks()
        assert restored.verify_parity_consistency() == []

    def test_snapshot_flushes_lazy_queues(self):
        """The last write before a snapshot is in it, parity included."""
        original, keys = build()
        original.update(keys[0], b"written-then-snapshotted")
        snap = snapshot_file(original)
        restored = restore_file(snap, file_id="r")
        assert restored.search(keys[0]).value == b"written-then-snapshotted"
        assert restored.verify_parity_consistency() == []

    def test_scalable_levels_survive(self):
        policy = AvailabilityPolicy.scalable(
            base_level=1, first_threshold=4, growth=4, max_level=3
        )
        original, _ = build(count=400, availability=1, policy=policy)
        assert max(original.group_levels().values()) >= 2
        restored = restore_file(snapshot_file(original), file_id="r")
        assert restored.group_levels() == original.group_levels()
        assert restored.verify_parity_consistency() == []

    def test_state_is_the_coordinators_durable_state(self):
        """The image's ``state`` is ``JournalState.snapshot()`` — through
        JSON too."""
        from repro.core.journal import JournalState

        policy = AvailabilityPolicy.scalable(
            base_level=1, first_threshold=4, growth=4, max_level=3
        )
        original, _ = build(count=400, availability=1, policy=policy)
        snap = from_json(to_json(snapshot_file(original)))
        durable = original.rs_coordinator.durable
        assert JournalState.from_snapshot(snap["state"]) == durable
        assert snap["version"] == 3
        restored = restore_file(snap, file_id="r")
        assert restored.group_levels() == original.group_levels()
        assert restored.verify_parity_consistency() == []

    def test_gf16_snapshot(self):
        original, _ = build(field_width=16, count=150)
        restored = restore_file(snapshot_file(original), file_id="r")
        assert restored.census_with_ranks() == original.census_with_ranks()
        assert restored.verify_parity_consistency() == []


class TestDurableRoundtrip:
    def test_snapshot_carries_durability_config_and_channel_state(self):
        original, _ = build(count=120, durability=True,
                            wal_fsync_interval=4)
        snap = snapshot_file(original)
        assert snap["config"]["durability"] is True
        assert snap["config"]["wal_fsync_interval"] == 4
        # Δ-channel high-water marks travel with the image.
        assert any(b["parity_seq"] > 0 for b in snap["data_buckets"])
        assert any(p["expected_seqs"] for p in snap["parity_buckets"])

    def test_restored_durable_file_survives_restart_with_catchup(self):
        """The restored servers' disks hold a restart-consistent image
        from the load: an immediate crash + heal must go through delta
        catch-up, not a full rebuild."""
        original, keys = build(count=150, durability=True,
                               wal_fsync_interval=4)
        restored = restore_file(snapshot_file(original), file_id="r")
        tracer, _, _ = restored.enable_observability()
        restored.failures.crash(["r.d1"])
        restored.failures.heal(["r.d1"])
        assert tracer.counts.get("catchup.fallback") is None
        assert tracer.counts.get("bucket.restart") == 1
        assert restored.search(keys[0]).found
        assert restored.verify_parity_consistency() == []

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        count=st.integers(20, 160),
        durability=st.booleans(),
        capacity=st.sampled_from([4, 8, 16]),
    )
    def test_roundtrip_property(self, seed, count, durability, capacity):
        """Any (workload, config) point round-trips: census, ranks,
        levels and parity all byte-identical — the durable plane
        included."""
        original, keys = build(
            count=count, seed=seed, bucket_capacity=capacity,
            durability=durability,
        )
        rng = make_rng(seed + 1)
        for key in rng.choice(keys, size=min(10, count), replace=False):
            original.update(int(key), b"mutated")
        for key in rng.choice(keys, size=min(5, count), replace=False):
            original.delete(int(key))
        restored = restore_file(snapshot_file(original), file_id="r")
        assert restored.census_with_ranks() == original.census_with_ranks()
        assert restored.levels_census() == original.levels_census()
        assert restored.verify_parity_consistency() == []
        # the restored image re-snapshots to the same content
        snap = snapshot_file(original)
        resnap = snapshot_file(restored)
        assert resnap["data_buckets"] == snap["data_buckets"]
        # ... whose state is the restored coordinator's committed one,
        # so a restored file is itself a snapshot source
        coordinator = restored.rs_coordinator
        durable = coordinator.durable
        assert (coordinator.state.n, coordinator.state.i) == (durable.n, durable.i)
        assert durable.snapshot() == coordinator.journal.replay().snapshot()
        for key in ("n", "i", "group_levels", "splits_done"):
            assert resnap["state"][key] == snap["state"][key]
        again = restore_file(resnap, file_id="s")
        assert again.census_with_ranks() == original.census_with_ranks()


class TestOneBackupForm:
    """A snapshot holds each bucket in the form its kind has on disk and
    on the wire; the earlier per-record forms are converted on restore."""

    def test_v3_image_round_trips(self):
        original, _ = build(count=120, field_width=16)
        snap = snapshot_file(original)
        assert snap["version"] == 3
        assert set(snap["data_buckets"][0]) == {
            "number", "level", "counter", "free", "keys", "ranks",
            "payloads", "parity_seq",
        }
        assert set(snap["parity_buckets"][0]["store"]) == {
            "slots", "width", "rank_of", "extents", "matrix", "dir_keys",
            "dir_lengths",
        }
        restored = restore_file(from_json(to_json(snap)), file_id="r")
        assert restored.census_with_ranks() == original.census_with_ranks()
        assert restored.verify_parity_consistency() == []
        assert bucket_images(snapshot_file(restored)) == bucket_images(snap)

    @pytest.mark.parametrize("version", [2, 1])
    def test_earlier_version_restores(self, version):
        """The version-2 fixture — and the same image as version 1, the
        group levels beside the state — restores to the file it was
        taken of, and re-snapshots as that file does now."""
        snap = from_json(V2_FIXTURE.read_text())
        assert snap["version"] == 2
        if version == 1:
            snap["version"] = 1
            snap["group_levels"] = snap["state"].pop("group_levels")
        original = v2_original()
        restored = restore_file(snap, file_id="r")
        assert restored.census_with_ranks() == original.census_with_ranks()
        assert restored.group_levels() == original.group_levels()
        assert restored.verify_parity_consistency() == []
        assert bucket_images(snapshot_file(restored)) == bucket_images(
            snapshot_file(original)
        )


class TestValidation:
    def test_version_check(self):
        original, _ = build(count=30)
        snap = snapshot_file(original)
        snap["version"] = 99
        with pytest.raises(ValueError, match="version"):
            restore_file(snap)

    def test_retired_layout_key_is_dropped_on_restore(self):
        """Snapshots written before the per-record
        parity layout, the lazy-parity knob, the Δ-ring capacity or the
        health-log bound went away still name them; none was ever
        content."""
        original, keys = build(count=30)
        snap = snapshot_file(original)
        assert "parity_stripe_store" not in snap["config"]
        assert "delta_log_capacity" not in snap["config"]
        snap["config"]["parity_stripe_store"] = False
        snap["config"]["parity_batch_size"] = 16
        snap["config"]["delta_log_capacity"] = 1024
        snap["config"]["health_log_capacity"] = 512
        restored = restore_file(snap, file_id="r")
        assert restored.census_with_ranks() == original.census_with_ranks()
        assert restored.verify_parity_consistency() == []

    def test_state_consistency_check(self):
        original, _ = build(count=30)
        snap = snapshot_file(original)
        snap["state"]["n"] += 1
        with pytest.raises(ValueError, match="split count"):
            restore_file(snap)
