"""A fault-tolerant key-value session log under continuous failures.

Models the workload the SDDS papers motivate: a large, growing
dictionary of session records served from distributed RAM, with servers
failing *while* the application keeps reading and writing.  The failure
injector's schedule crashes six servers at random points of a
3,000-operation mixed workload; the application never sees an error and
the file ends parity-consistent.

Run:  python examples/fault_tolerant_kv.py
"""

from collections import Counter

from repro.core import LHRSConfig, LHRSFile
from repro.sim.rng import make_rng
from repro.workloads import (
    KeyStream,
    OperationMix,
    PayloadShape,
    generate_operations,
)

config = LHRSConfig(group_size=4, availability=2, bucket_capacity=16)
file = LHRSFile(config)


def run(operations) -> Counter:
    """Apply an operation stream; count the operations per kind."""
    counts: Counter = Counter()
    for op, key, payload in operations:
        getattr(file, op)(*((key,) if payload is None else (key, payload)))
        counts[op] += 1
    return counts


print("Phase 1 — load 1,500 session records (structured payloads)...")
warmup = generate_operations(
    1_500,
    OperationMix(insert=1),
    keys=KeyStream(kind="uniform", seed=11),
    payloads=PayloadShape(kind="record", seed=11),
    seed=11,
)
run(warmup)
print(f"  file grew to {file.bucket_count} data buckets, "
      f"{file.parity_bucket_count()} parity buckets")

print("\nPhase 2 — 3,000 mixed operations with six server crashes...")
candidates = [f"f.d{b}" for b in range(file.bucket_count)] + [
    f"f.p{g}.{i}" for g, k in file.group_levels().items() for i in range(k)
]
rng = make_rng(12)
victims = [str(node) for node in rng.choice(candidates, size=6, replace=False)]
# The clock ticks about once per operation: crash times fall inside it.
start = file.network.now
for node, offset in zip(victims, sorted(rng.integers(0, 3_000, size=6))):
    file.failures.schedule_crash(node, at=start + float(offset))
    print(f"  will crash {node} at clock {start + offset:.0f}")

mixed = generate_operations(
    3_000,
    OperationMix(insert=1, search=3, update=1, delete=0.3),
    keys=KeyStream(kind="uniform", key_space=10**8, seed=13),
    payloads=PayloadShape(kind="record", seed=13),
    seed=13,
)
with file.stats.measure("phase2") as window:
    counts = run(mixed)

print(f"\n  operations executed: {dict(counts)}")
print(f"  crashes applied:     {len(file.failures.event_log)}")
print(f"  messages used:       {window.messages} "
      f"({window.messages / 3_000:.2f} per op)")
print(f"  groups recovered:    {file.rs_coordinator.recovery.groups_recovered}")
print(f"  degraded reads:      "
      f"{file.rs_coordinator.recovery.degraded_reads_served}")
print(f"  records rebuilt:     "
      f"{file.rs_coordinator.recovery.records_reconstructed}")
print(f"  parity consistent:   {not file.verify_parity_consistency()}")
file.rs_coordinator.probe()  # rebuild what no operation touched
print(f"  every crashed node back: "
      f"{all(file.network.is_available(node) for node in victims)}")
