"""Trace-replay determinism: same seeds, byte-identical traces.

The tracer's contract is that events carry only deterministic inputs —
the simulated clock, a global sequence number, message metadata — never
wall-clock time or object ids.  Two chaos-smoke runs with identical
seeds must therefore serialize to byte-identical JSONL, which is what
makes a trace from a failed CI run *replayable*: re-running the seed
locally reproduces the exact same stream, event for event.
"""

import hashlib
import json

from repro.obs import Tracer
from tests.integration.test_chaos import run_chaos

#: sha256 of ``trace_of(700, 1234)``, re-anchored when a bucket's dump
#: and load became its image's columns: the sizes of ``bucket.dump``,
#: ``parity.dump`` (their replies), ``bucket.load`` and ``parity.load``
#: moved, nothing else did (see the pin below).
CHAOS_SMOKE_SHA256 = (
    "761820d3977a0c865b442dbec77bd5ee8d4da466c730a1d64bef85dd85e9368d"
)
#: sha256 of the same stream with every message size dropped
#: (:func:`without_sizes`): which messages travel, in what order, of
#: what kind, and what every other event says.  A change to a wire
#: shape moves only the pin above.
CHAOS_SMOKE_NO_SIZES_SHA256 = (
    "8670d98b5fd7fe399bc6851c0393ca425192405446deb985943cee0800943d0d"
)


def trace_of(operations: int, seed: int) -> str:
    file = run_chaos(operations, seed, trace_capacity=None)
    return file.tracer.to_jsonl()


def without_sizes(jsonl: str) -> str:
    """The stream re-serialized with each event's ``a.size`` dropped."""
    rows = [json.loads(line) for line in jsonl.splitlines()]
    return "".join(
        json.dumps(
            {k: v for k, v in row.items() if k != "a.size"},
            sort_keys=True, separators=(",", ":"),
        ) + "\n"
        for row in rows
    )


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_chaos_smoke_traces_are_byte_identical():
    first = trace_of(700, 1234)
    second = trace_of(700, 1234)
    assert first == second
    assert sha256(without_sizes(first)) == CHAOS_SMOKE_NO_SIZES_SHA256
    assert sha256(first) == CHAOS_SMOKE_SHA256
    # Sanity: the comparison covered a real stream, not a stub.
    assert first.count("\n") > 5_000
    assert '"type":"fault.injected"' in first
    assert '"type":"recovery.rank"' in first
    assert without_sizes(first) != first and '"a.size"' not in without_sizes(first)


def test_different_seeds_diverge():
    # The converse guard: if traces were seed-insensitive (constant or
    # empty), the identity test above would prove nothing.
    assert trace_of(700, 1234) != trace_of(700, 4321)


def test_jsonl_round_trips_through_parse():
    import json

    file = run_chaos(300, 99, trace_capacity=None)
    lines = file.tracer.to_jsonl().splitlines()
    seqs = [json.loads(line)["seq"] for line in lines]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


def test_tracer_events_survive_unbounded_capacity():
    tracer = Tracer(capacity=None)
    for _ in range(100_000):
        tracer.emit("msg.send")
    assert len(tracer) == 100_000
