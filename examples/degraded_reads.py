"""Degraded mode: serving reads while buckets stay down.

With automatic recovery disabled, the coordinator answers key searches
purely through Reed-Solomon record recovery, which the group's parity
bucket serves — the paper's point that a single requested record can be
rebuilt long before the whole bucket is.
The example compares the message cost of a normal search against a
degraded read at k=1 and k=2, and shows that *unsuccessful* searches
stay certain (the parity directory is authoritative).

Run:  python examples/degraded_reads.py
"""

from repro.core import LHRSConfig, LHRSFile

for k in (1, 2):
    print(f"\n=== availability level k={k} ===")
    config = LHRSConfig(
        group_size=4,
        availability=k,
        bucket_capacity=16,
        auto_recover=False,   # stay in degraded mode
    )
    file = LHRSFile(config)
    for key in range(800):
        file.insert(key, f"session-{key}".encode() * 2)

    victim_key = next(k2 for k2 in range(800) if file.find_bucket_of(k2) == 0)
    for key in range(800):   # converge the client image
        file.search(key)

    with file.stats.measure("normal") as normal:
        outcome = file.search(victim_key)
    assert outcome.found

    failed = [file.fail_data_bucket(0)]
    if k == 2:
        failed.append(file.fail_data_bucket(1))
    print(f"  failed buckets: {failed} (left down — degraded mode)")

    with file.stats.measure("degraded") as degraded:
        outcome = file.search(victim_key)
    assert outcome.found and outcome.value == f"session-{victim_key}".encode() * 2

    with file.stats.measure("miss") as miss:
        absent = file.search(10**9 + 7)  # addresses a dead bucket? maybe not;
    print(f"  normal search:   {normal.messages} messages")
    print(f"  degraded read:   {degraded.messages} messages "
          f"(one parity.recover; the parity bucket multicasts to "
          f"{4 - 1 - (k - 1)}+ members and decodes)")
    print(f"  still down:      {not file.network.is_available(failed[0])}")

    # Certain miss while the addressed bucket is dead:
    dead_bucket = 0
    absent_key = next(
        key for key in range(10**6, 10**6 + 10**4)
        if file.find_bucket_of(key) == dead_bucket
    )
    outcome = file.search(absent_key)
    print(f"  search(absent key at dead bucket) -> found={outcome.found} "
          f"(certain: parity directory is authoritative)")
