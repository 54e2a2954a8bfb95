"""E6 — Scalable availability (figure).

Paper theme: with fixed k the whole-file availability still goes to 0 as
M grows; a policy that raises k at group-count thresholds keeps it ~flat
at bounded extra storage.  Includes a measured run: a real file grown
through two policy thresholds with paced retrofits, its per-checkpoint
availability and overhead tabulated, consistency verified.
"""

import pytest

from harness import save_table, scaled
from repro.core import (
    AvailabilityPolicy,
    LHRSConfig,
    LHRSFile,
    file_availability,
)

P = 0.99
M_GROUP = 4
POLICY = AvailabilityPolicy.scalable(
    base_level=1, first_threshold=4, growth=4, max_level=4
)


def analytic_series():
    rows = []
    for exponent in range(2, 13):
        total = M_GROUP * (2 ** exponent)
        groups = total // M_GROUP
        level = POLICY.level_for(groups)
        rows.append(
            {
                "M": total,
                "fixed_k1": file_availability(total, M_GROUP, P, k=1),
                "level": level,
                "scalable": file_availability(
                    total, M_GROUP, P, k_per_group=[level] * groups
                ),
            }
        )
    return rows


def measured_run():
    config = LHRSConfig(
        group_size=M_GROUP,
        bucket_capacity=8,
        policy=POLICY,
    )
    file = LHRSFile(config)
    checkpoints, inserted = [], 0
    for target in (scaled(200), scaled(800), scaled(2400)):
        for key in range(inserted, target):
            file.insert(key, b"p" * 40)
        inserted = target
        checkpoints.append(
            {
                "records": inserted,
                "M": file.bucket_count,
                "min_k": min(file.group_levels().values()),
                "max_k": max(file.group_levels().values()),
                "P": file.analytic_availability(P),
                "overhead": file.storage_overhead(),
                "consistent": not file.verify_parity_consistency(),
            }
        )
    return checkpoints


def test_e6_scalable_availability(benchmark):
    rows = benchmark.pedantic(analytic_series, rounds=1, iterations=1)
    lines = [f"{'M':>7} {'P(k=1)':>10} {'k(M)':>5} {'P(scalable)':>12}"]
    for r in rows:
        lines.append(
            f"{r['M']:>7} {r['fixed_k1']:>10.6f} {r['level']:>5} "
            f"{r['scalable']:>12.6f}"
        )
    from plotting import ascii_chart

    lines.append("")
    lines.extend(
        ascii_chart(
            {
                "fixed k=1": [(r["M"], r["fixed_k1"]) for r in rows],
                "scalable k(M)": [(r["M"], r["scalable"]) for r in rows],
            },
            x_label="M (log)",
            y_label="P(all data servable)",
            logx=True,
        )
    )
    checkpoints = measured_run()
    lines.append("")
    lines.append("Measured file grown through policy thresholds "
                 "(paced retrofits):")
    lines.append(f"{'records':>8} {'M':>5} {'min k':>5} {'max k':>5} {'P':>10} "
                 f"{'overhead':>9} {'consistent':>11}")
    for c in checkpoints:
        lines.append(
            f"{c['records']:>8} {c['M']:>5} {c['min_k']:>5} {c['max_k']:>5} "
            f"{c['P']:>10.6f} "
            f"{c['overhead']:>9.3f} {str(c['consistent']):>11}"
        )
    save_table(
        "e6_scalable",
        "E6: fixed k=1 decays with M; scalable k(M) stays ~flat",
        lines,
    )
    fixed = [r["fixed_k1"] for r in rows]
    scalable = [r["scalable"] for r in rows]
    assert fixed == sorted(fixed, reverse=True)
    assert fixed[-1] < 0.35
    assert min(scalable) > 0.95
    for c in checkpoints:
        assert c["consistent"]
    first, last = checkpoints[0]["max_k"], checkpoints[-1]["max_k"]
    assert last > first or first >= 2
    assert checkpoints[-1]["P"] > 0.99
