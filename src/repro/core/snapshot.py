"""Whole-file snapshot and restore (offline backup).

The SDDS literature's backup problem: capture a consistent image of a
distributed RAM file so it can be re-materialized later (possibly on a
different multicomputer).  A snapshot records the configuration, the
file state, every bucket group's availability level, every data
bucket's records/ranks/counter, and every parity bucket's records —
enough to restore a byte-identical file, verified by the same oracles
the recovery tests use.

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

#: 2: ``state`` is ``JournalState.snapshot()`` (1 kept the levels beside it)
SNAPSHOT_VERSION = 2


def snapshot_file(file: LHRSFile) -> dict:
    """Capture a consistent image of a running LH*RS file.

    Parity is current with every acknowledged mutation, so an image
    taken between operations is parity-consistent by construction.
    """
    config = file.config
    coordinator = file.rs_coordinator
    data = []
    for server in file.data_servers():
        data.append(
            {
                "number": server.number,
                "level": server.level,
                "counter": server._rank_counter,
                "free_ranks": sorted(server._free_ranks),
                # Δ-channel high-water: a restored durable bucket must
                # resume its per-channel numbering, not restart it.
                "parity_seq": server._parity_seq,
                "records": [
                    (key, server.ranks[key], payload)
                    for key, payload in server.bucket.records.items()
                ],
            }
        )
    parity = []
    for server in file.parity_servers():
        parity.append(
            {
                "group": server.group,
                "index": server.index,
                "expected_seqs": dict(server._expected_seq),
                "records": server._store.snapshots(),
            }
        )
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
        "data_buckets": data,
        "parity_buckets": parity,
    }


def restore_file(snapshot: dict, file_id: str = "f",
                 network=None) -> LHRSFile:
    """Re-materialize a file from a snapshot.

    The restored file is structurally identical: same state, levels,
    records, ranks and parity — `census_with_ranks` and
    `verify_parity_consistency` match the original.
    """
    version = snapshot.get("version")
    if version not in (1, SNAPSHOT_VERSION):
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
    levels = (snapshot if version == 1 else snapshot["state"])["group_levels"]
    for group, level in sorted(levels.items()):
        group = int(group)
        current = coordinator.group_level(group)
        if level > current:
            coordinator.raise_group_level(group, level)

    # Bulk-load contents.  On a durable file, bucket.load/parity.load
    # end in a checkpoint, so the restored servers' disks hold a
    # restart-consistent image from the first instant.
    for bucket in snapshot["data_buckets"]:
        net.send(
            coordinator.node_id,
            f"{file_id}.d{bucket['number']}",
            "bucket.load",
            {
                "records": bucket["records"],
                "counter": bucket["counter"],
                "free_ranks": bucket["free_ranks"],
                "level": bucket["level"],
                "parity_seq": bucket.get("parity_seq", 0),
            },
        )
    for parity in snapshot["parity_buckets"]:
        net.send(
            coordinator.node_id,
            f"{file_id}.p{parity['group']}.{parity['index']}",
            "parity.load",
            {
                "records": parity["records"],
                "expected_seqs": {
                    int(pos): seq
                    for pos, seq in parity.get("expected_seqs", {}).items()
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
