"""E8 — Record recovery / degraded reads (table).

Paper theme: a key search hitting an unavailable bucket is served by
reconstructing just that record.  The coordinator hands the key to the
group's first live parity bucket in one ``parity.recover`` call; that
bucket finds the record group in its key directory, fetches the
surviving members in one ``record.rank`` multicast (one request, ≤ m-1
replies), adds a ``parity.rank`` share from another parity bucket per
further member down, and decodes.  Cost is O(m + k) messages —
independent of the file size — versus the ~2 of a normal search: m + 4
for one bucket down (8 at m = 4), one more per further bucket down;
misses stay certain at 4.
"""

import pytest

from harness import build_lhrs, converge, fmt, save_table, scaled


def measure(m, k, extra_down):
    file, keys = build_lhrs(
        m=m, k=k, capacity=16, count=scaled(800), payload=64,
        auto_recover=False,
    )
    converge(file, keys, sample=scaled(200))
    target = next(key for key in keys if file.find_bucket_of(key) == 0)
    with file.stats.measure("normal") as normal:
        assert file.client.search(target).found
    file.fail_data_bucket(0)
    for bucket in range(1, 1 + extra_down):
        file.fail_data_bucket(bucket)
    with file.stats.measure("degraded") as degraded:
        outcome = file.client.search(target)
    assert outcome.found
    # Certain miss while down:
    absent = next(
        key for key in range(10**6, 10**6 + 10**5)
        if file.find_bucket_of(key) == 0
    )
    with file.stats.measure("miss") as miss:
        assert not file.client.search(absent).found
    return {
        "m": m,
        "k": k,
        "down": 1 + extra_down,
        "normal": normal.messages,
        "degraded": degraded.messages,
        "miss": miss.messages,
    }


def run_grid():
    rows = []
    for m, k, extra in ((4, 1, 0), (4, 2, 0), (4, 2, 1), (8, 1, 0), (8, 2, 1)):
        rows.append(measure(m, k, extra))
    return rows


def test_e8_degraded_reads(benchmark):
    rows = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    lines = [
        f"{'m':>3} {'k':>3} {'buckets down':>13} {'normal':>7} "
        f"{'degraded':>9} {'certain miss':>13}"
    ]
    for r in rows:
        lines.append(
            f"{r['m']:>3} {r['k']:>3} {r['down']:>13} {r['normal']:>7} "
            f"{r['degraded']:>9} {r['miss']:>13}"
        )
    save_table(
        "e8_degraded",
        "E8: degraded reads — O(m+k) messages, file-size independent; "
        "misses certain from the parity directory",
        lines,
    )
    for r in rows:
        assert r["normal"] == 2
        # report + parity.recover(2) + record.rank (1 + <= m-1 replies)
        # + parity.rank(2 per further bucket down) + result
        upper = 1 + 2 + 1 + (r["m"] - 1) + 2 * (r["down"] - 1) + 1
        assert r["normal"] < r["degraded"] <= upper
        # report + parity.recover + result: certainty is cheap
        assert r["miss"] == 4
