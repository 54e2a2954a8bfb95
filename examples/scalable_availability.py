"""Scalable availability: raising k as the file grows.

Fixed-k availability decays toward 0 as a file scales (each new group is
another independent failure domain).  LH*RS's answer is a policy that
raises the availability level at group-count thresholds; this example
grows a file through two threshold crossings and tabulates, side by
side, the whole-file availability a fixed k=1 file would have.

Run:  python examples/scalable_availability.py
"""

from repro.core import AvailabilityPolicy, LHRSConfig, LHRSFile, file_availability

policy = AvailabilityPolicy.scalable(
    base_level=1,      # young files run at k=1
    first_threshold=4,  # +1 parity bucket per group at 4 groups...
    growth=4,           # ...and again at 16, 64, ...
    max_level=3,
)
config = LHRSConfig(
    group_size=4,
    bucket_capacity=8,
    policy=policy,  # a lagging group is raised when one of its buckets splits
)
file = LHRSFile(config)

P = 0.99  # per-node availability
print(f"{'records':>8} {'buckets':>8} {'groups':>7} {'k':>5} "
      f"{'P(scalable)':>12} {'P(fixed k=1)':>13} {'overhead':>9}")

checkpoints = [100, 300, 600, 1200, 2400, 4800]
inserted = 0
for target in checkpoints:
    for key in range(inserted, target):
        file.insert(key, f"payload-{key}".encode() * 3)
    inserted = target
    levels = file.group_levels()
    groups = len(levels)
    k_now = max(levels.values())
    p_scalable = file.analytic_availability(P)
    p_fixed = file_availability(file.bucket_count, 4, P, k=1)
    print(f"{inserted:>8} {file.bucket_count:>8} {groups:>7} {k_now:>5} "
          f"{p_scalable:>12.6f} {p_fixed:>13.6f} "
          f"{file.storage_overhead():>9.3f}")

assert file.verify_parity_consistency() == [], "parity must stay consistent"
print("\nEvery group after paced upgrades:", dict(sorted(
    (lvl, list(file.group_levels().values()).count(lvl))
    for lvl in set(file.group_levels().values())
)), "(level -> group count)")
print("Parity stayed consistent through every upgrade and split.")
