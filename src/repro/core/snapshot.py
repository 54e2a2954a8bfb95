"""Whole-file snapshot and restore (offline backup).

The SDDS literature's backup problem: capture a consistent image of a
distributed RAM file so it can be re-materialized later (possibly on a
different multicomputer).  A snapshot records the configuration, the
file state, every bucket group's availability level, and every bucket
in the one serial form its kind has on disk and on the wire: a data
bucket as its ``bucket.dump`` columns, a parity bucket as its store
image (``StripeStore.dump``) — enough to restore a byte-identical file,
verified by the same oracles the recovery tests use.

Snapshots are plain dicts of JSON-friendly values (bytes payloads are
kept as ``bytes``; use :func:`to_json` / :func:`from_json` when a text
encoding is needed).
"""

from __future__ import annotations

import base64
import dataclasses
import json
from typing import Any

from repro.core.config import LHRSConfig
from repro.core.file import LHRSFile
from repro.core.stripe_store import NO_KEY, StripeStore
from repro.gf.field import GF

#: 4: a data bucket keeps no rank counter or free ranks (both follow
#: from its ranks); 3: a bucket is its ``bucket.dump`` columns or its
#: store image, not a list of records; 2: ``state`` is
#: ``JournalState.snapshot()`` (1 kept the levels beside it)
SNAPSHOT_VERSION = 4


def snapshot_file(file: LHRSFile) -> dict:
    """Capture a consistent image of a running LH*RS file.

    Parity is current with every acknowledged mutation, so an image
    taken between operations is parity-consistent by construction.
    Each bucket carries its Δ-channel state: a data bucket its
    ``parity_seq``, a parity bucket its ``expected_seqs`` — a restored
    durable bucket must resume its per-channel numbering, not restart it.
    """
    config = file.config
    coordinator = file.rs_coordinator
    return {
        "version": SNAPSHOT_VERSION,
        "config": {
            "group_size": config.group_size,
            "availability": config.availability,
            "bucket_capacity": config.bucket_capacity,
            "field_width": config.field_width,
            "generator": config.generator,
            "compact_ranks": config.compact_ranks,
            "durability": config.durability,
            "wal_fsync_interval": config.wal_fsync_interval,
            "durability_checkpoint_interval":
                config.durability_checkpoint_interval,
        },
        # the coordinator's durable state in its one serial form, plus
        # the split count restore_file checks (n, i) against
        "state": dict(
            coordinator.durable.snapshot(),
            splits_done=coordinator.state.splits_done,
        ),
        "data_buckets": [
            {"number": server.number, **server._content()}
            for server in file.data_servers()
        ],
        "parity_buckets": [
            {
                "group": server.group,
                "index": server.index,
                "expected_seqs": dict(server._expected_seq),
                "store": server._store.dump(),
            }
            for server in file.parity_servers()
        ],
    }


def _upgrade(snapshot: dict, field: GF, slots: int) -> dict:
    """An earlier version's snapshot in the current form.

    Version 3 only adds a data bucket's ``counter`` and ``free``, which
    are dropped.  Versions 1 and 2 list a data bucket's records as
    ``(key, rank, payload)`` rows and a parity bucket's as per-rank
    snapshots (a member's length may be known while its key is not; a
    key without a length is no member); version 1 also keeps the group
    levels beside ``state``.
    """
    if snapshot["version"] == 3:
        return {
            **snapshot, "version": SNAPSHOT_VERSION,
            "data_buckets": [
                {k: v for k, v in bucket.items() if k not in ("counter", "free")}
                for bucket in snapshot["data_buckets"]
            ],
        }
    state = dict(snapshot["state"])
    if snapshot["version"] == 1:
        state["group_levels"] = snapshot["group_levels"]
    data = []
    for bucket in snapshot["data_buckets"]:
        keys, ranks, payloads = (
            [list(column) for column in zip(*bucket["records"])] or [[], [], []]
        )
        data.append({
            "number": bucket["number"],
            "level": bucket["level"],
            "keys": keys,
            "ranks": ranks,
            "payloads": payloads,
            "parity_seq": bucket.get("parity_seq", 0),
        })
    parity = []
    for bucket in snapshot["parity_buckets"]:
        records = bucket["records"]
        store = StripeStore(field, slots)
        store.bulk_load([(record["rank"], record["parity"]) for record in records])
        for row, record in enumerate(records):
            for pos, length in record["lengths"].items():
                store.length_cells[row * slots + pos] = length
                store.key_cells[row * slots + pos] = record["keys"].get(pos, NO_KEY)
        parity.append({
            "group": bucket["group"],
            "index": bucket["index"],
            "expected_seqs": bucket.get("expected_seqs", {}),
            "store": store.dump(),
        })
    return {
        **snapshot, "version": SNAPSHOT_VERSION, "state": state,
        "data_buckets": data, "parity_buckets": parity,
    }


def restore_file(snapshot: dict, file_id: str = "f",
                 network=None) -> LHRSFile:
    """Re-materialize a file from a snapshot.

    The restored file is structurally identical: same state, levels,
    records, ranks and parity — `census_with_ranks` and
    `verify_parity_consistency` match the original.
    """
    version = snapshot.get("version")
    if version not in (1, 2, 3, SNAPSHOT_VERSION):
        raise ValueError(f"unsupported snapshot version {version!r}")
    # Config keys this build does not have are dropped: earlier builds
    # also wrote since-retired knobs (the parity memory layout, the
    # Δ-ring and health-log capacities), which never were snapshot content.
    known = {field.name for field in dataclasses.fields(LHRSConfig)}
    config = LHRSConfig(
        **{k: v for k, v in snapshot["config"].items() if k in known}
    )
    file = LHRSFile(config, file_id=file_id, network=network)
    coordinator = file.rs_coordinator
    net = file.network
    if version != SNAPSHOT_VERSION:
        snapshot = _upgrade(snapshot, coordinator.field, config.group_size)

    # Replay the split sequence so the coordinator builds every bucket
    # and parity group through its ordinary machinery.
    target_splits = snapshot["state"]["splits_done"]
    for _ in range(target_splits):
        source, target, new_level = coordinator.state.next_split()
        coordinator.on_new_bucket(target, new_level)
        net.register(coordinator.make_server(target, new_level))
        coordinator.state.advance_split()
    restored_state = coordinator.state
    if (restored_state.n, restored_state.i) != (
        snapshot["state"]["n"], snapshot["state"]["i"]
    ):
        raise ValueError("snapshot state does not match its split count")
    coordinator._journal("file.state", n=restored_state.n, i=restored_state.i)

    # Raise group levels where the snapshot had higher availability.
    for group, level in sorted(snapshot["state"]["group_levels"].items()):
        group = int(group)
        current = coordinator.group_level(group)
        if level > current:
            coordinator.raise_group_level(group, level)

    # Load every bucket's image.  On a durable file, bucket.load /
    # parity.load end in a checkpoint, so the restored servers' disks
    # hold a restart-consistent image from the first instant.
    for bucket in snapshot["data_buckets"]:
        content = {key: value for key, value in bucket.items() if key != "number"}
        net.send(
            coordinator.node_id, f"{file_id}.d{bucket['number']}",
            "bucket.load", content,
        )
    for parity in snapshot["parity_buckets"]:
        net.send(
            coordinator.node_id,
            f"{file_id}.p{parity['group']}.{parity['index']}",
            "parity.load",
            {
                "store": parity["store"],
                "expected_seqs": {
                    int(pos): seq for pos, seq in parity["expected_seqs"].items()
                },
            },
        )
    return file


# ----------------------------------------------------------------------
# text encoding
# ----------------------------------------------------------------------
def _encode(value: Any) -> Any:
    if isinstance(value, bytes):
        return {"__bytes__": base64.b64encode(value).decode("ascii")}
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def _decode(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {"__bytes__"}:
            return base64.b64decode(value["__bytes__"])
        return {
            (int(k) if k.lstrip("-").isdigit() else k): _decode(v)
            for k, v in value.items()
        }
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def to_json(snapshot: dict) -> str:
    """Serialize a snapshot to a JSON string (bytes base64-encoded)."""
    return json.dumps(_encode(snapshot))


def from_json(text: str) -> dict:
    """Inverse of :func:`to_json`."""
    return _decode(json.loads(text))
