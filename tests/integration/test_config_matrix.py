"""Config-matrix composition sweep: every ``LHRSConfig`` in ``GRID``'s
product (240 configs) keeps every acknowledged operation through
growth, a 75 % shrink with up to three merges and a crash/heal process,
and rebuilds every bucket to the oracle's bytes.  The ``availability=1``
third raises one group to k = 2 before it shrinks; the ``"scalable"``
third grows under a scalable-availability policy, so splits retrofit
their groups from k = 1 to 3.  The ``coordinator_replicas=1`` half
loses its primary inside a split, a merge, a raise (the commanded one,
or the first retrofit) and a bucket rebuild; a standby's takeover
finishes each and must hold exactly the durable state its journal
replays.

One config is one seeded run of mixed scalar and ``*_many`` calls under
the strict auditor; node failures are a process (exponential gaps, a
random data or parity victim, a random outage), not hand-placed points.
After every call no data bucket may hold a Δ.  At the end: nothing was
raised but a typed ``OperationFailed``, the file equals the oracle,
parity and auditor are clean, and **every data bucket, failed and
rebuilt in turn, returns the oracle's bytes** — the check that catches
a Δ the parity side never saw, under restart.

Tier-1 runs :func:`tier1_slice`; CI runs the whole product as a script:
``python tests/integration/test_config_matrix.py [operations]``.
"""

import itertools
import random
import sys

import pytest

from repro.core import AvailabilityPolicy, CoordinatorCrashed, LHRSConfig, LHRSFile
from repro.sdds.client import OperationFailed

GRID = {
    "durability": (False, True),
    "compact_ranks": (False, True),
    "availability": (1, 2, "scalable"),
    "bucket_capacity": (8, 32),
    "field_width": (8, 16),
    "coordinator_replicas": (0, 1),
    # read, and so varied, with durability on only
    "wal_fsync_interval": (1, 4),
    "durability_checkpoint_interval": (16, 128),
}

#: what ``availability="scalable"`` runs: k = 1, 2 at 2 groups, 3 at 4
SCALABLE = AvailabilityPolicy.scalable(
    base_level=1, first_threshold=2, growth=2, max_level=3
)


def product() -> list[dict]:
    """The 240 configs, in a fixed order."""
    configs = (dict(zip(GRID, v)) for v in itertools.product(*GRID.values()))
    return [
        c for c in configs
        if c["durability"] or (
            c["wal_fsync_interval"], c["durability_checkpoint_interval"]
        ) == (1, 16)
    ]


def tier1_slice() -> list[dict]:
    """The eight durability × compaction × field-width corners, the
    other knobs rotated so that each value of each appears at least
    twice."""
    return [
        {
            "durability": durable, "compact_ranks": compact,
            "availability": (
                "scalable" if durable ^ wide and compact else 1 + (durable ^ wide)
            ),
            "bucket_capacity": 32 if compact else 8,
            "field_width": 16 if wide else 8,
            "coordinator_replicas": int(wide ^ compact),
            "wal_fsync_interval": 4 if wide else 1,
            "durability_checkpoint_interval": 128 if compact else 16,
        }
        for durable, compact, wide in itertools.product((False, True), repeat=3)
    ]


def durable_state_views(file: LHRSFile) -> tuple:
    """The coordinator's durable state as held and as its journal
    replays it, each beside the (n, i) that must agree with it — the
    working one, the committed one: equal outside an open intent."""
    coordinator = file.rs_coordinator
    durable = coordinator.durable
    return (
        (durable.snapshot(), coordinator.state.as_tuple()),
        (coordinator.journal.replay().snapshot(), (durable.n, durable.i)),
    )


class CrashPoints:
    """The crash points one run arms, and those its ``coord.crash``
    events say fired.  A point still armed when its primary dies at
    another one dies with it, so each takeover arms the pending points
    again on the successor: every point armed must fire by the end."""

    def __init__(self, file: LHRSFile) -> None:
        self.file = file
        self.armed: list[str] = []
        self.fired: list[str] = []
        file.tracer.subscribe(
            lambda event: self.fired.append(event.attrs["point"]),
            types=["coord.crash"],
        )

    def arm(self, point: str) -> None:
        self.armed.append(point)
        self.file.rs_coordinator.arm_crash(point)

    def pending(self) -> list[str]:
        return [point for point in self.armed if point not in self.fired]

    def await_takeover(self) -> None:
        self.file.await_takeover()
        held, replayed = durable_state_views(self.file)
        assert held == replayed, "the takeover forgot durable state"
        for point in self.pending():
            self.file.rs_coordinator.arm_crash(point)


def command(crashes: CrashPoints, owed: set[str], point: str, call) -> None:
    """One coordinator command.  If the config still owes the crash
    ``point``, the primary dies there and a standby's takeover has to
    finish the command."""
    coordinator = crashes.file.rs_coordinator
    if point not in owed:
        call(coordinator)
        return
    owed.remove(point)
    crashes.arm(point)
    with pytest.raises(CoordinatorCrashed):
        call(coordinator)
    crashes.await_takeover()


def run(params: dict, operations: int, seed: int) -> LHRSFile:
    """One config, one seeded run; raises AssertionError on any loss."""
    rng = random.Random(seed)
    scalable = params["availability"] == "scalable"
    config = dict(params, availability=1, policy=SCALABLE) if scalable else params
    file = LHRSFile(LHRSConfig(group_size=4, client_acks=True, **config))
    #: the structural crash points this config still owes (HA half)
    owed = (
        {"split.mid", "merge.mid", "raise.mid", "recover.mid"}
        if file.standbys else set()
    )
    _, _, auditor = file.enable_observability(trace_capacity=2_000)
    crashes = CrashPoints(file)
    if scalable and owed:
        owed.remove("raise.mid")  # the first retrofit kills the primary
        crashes.arm("raise.mid")
    oracle: dict[int, bytes] = {}
    ambiguous: set[int] = set()
    down: dict[str, int] = {}  # node -> the step its outage ends
    next_failure = rng.expovariate(1 / 400)
    done = 0
    phase, shrink_to = "grow", 0
    kinds = ("insert", "update", "search", "delete")
    mixes = {"grow": (60, 20, 15, 5), "shrink": (0, 0, 0, 1),
             "churn": (35, 30, 20, 15)}

    while done < operations:
        # ---- the failure process ------------------------------------
        for node in [n for n, until in down.items() if until <= done]:
            if node in file.network.nodes:  # else a merge dissolved it
                file.failures.heal([node])
            del down[node]
        if done >= next_failure and not down:
            nodes = [s.node_id for s in file.data_servers()]
            nodes += [s.node_id for s in file.parity_servers()]
            victim = rng.choice(nodes)
            file.failures.crash([victim])
            down[victim] = done + int(rng.expovariate(1 / 15))
            next_failure = done + rng.expovariate(1 / 400)

        # ---- the workload: grow, shrink by 75 %, carry on -----------
        if (
            "split.mid" in owed and done >= operations * 0.25
            and not crashes.pending()  # raise.mid fired
        ):
            owed.remove("split.mid")  # the next split kills the primary
            crashes.arm("split.mid")
        if phase == "grow" and done >= operations * 0.5:
            phase, shrink_to = "shrink", len(oracle) // 4
            if "split.mid" in crashes.pending():
                # No split ran since the point was armed, and the file
                # only shrinks from here: command one.
                file.rs_coordinator.probe()
                with pytest.raises(CoordinatorCrashed):
                    file.rs_coordinator.split_once()
                crashes.await_takeover()
            if params["availability"] == 1:
                # Every member must be up for a raise to read it.
                file.rs_coordinator.probe()
                group = len(file.group_levels()) // 2
                command(
                    crashes, owed, "raise.mid",
                    lambda c: c.raise_group_level(group, 2),
                )
        elif phase == "shrink" and len(oracle) <= shrink_to:
            phase = "churn"
            # The merge policy's load estimate barely moves under this
            # shrink, so the merges are commanded.
            for _ in range(3):
                if file.bucket_count > 5:
                    command(crashes, owed, "merge.mid", lambda c: c.merge_once())
            file.rs_coordinator.probe()  # one loss at a time, as for the raise
            lost = file.fail_data_bucket(file.bucket_count // 2)
            command(crashes, owed, "recover.mid", lambda c: file.recover([lost]))
        kind = rng.choices(kinds, mixes[phase])[0]
        many = rng.random() < 0.3
        count = rng.randrange(2, 49) if many else 1
        if kind == "insert" or not oracle:
            keys = [rng.randrange(2**40) for _ in range(count)]
        else:
            keys = rng.sample(sorted(oracle), min(count, len(oracle)))
            if many and kind != "update" and rng.random() < 0.1:
                keys.append(rng.randrange(2**40))  # an absent key
        items = [(k, rng.randbytes(rng.randrange(48))) for k in keys]
        done += len(keys)

        if many:
            call = getattr(file, f"{kind}_many")
            out = call(items if kind in ("insert", "update") else keys)
            results = [
                None if res is None or res.status == "failed" else res
                for res in out.outcomes
            ]
        else:
            args = items[0] if kind in ("insert", "update") else keys
            try:
                results = [getattr(file, kind)(*args) or True]
            except OperationFailed:
                results = [None]

        for (key, new), res in zip(items, results):
            if res is None:  # typed failure: may or may not have applied
                if kind != "search":
                    ambiguous.add(key)
            elif kind in ("insert", "update"):
                oracle[key] = new
                ambiguous.discard(key)
            elif kind == "delete":
                oracle.pop(key, None)
                ambiguous.discard(key)
            elif key not in ambiguous:
                found = res.found if not many else res.status == "found"
                assert found == (key in oracle), (kind, key)
                assert not found or res.value == oracle[key], (kind, key)

        if not file.network.is_available(file.rs_coordinator.node_id):
            crashes.await_takeover()  # split.mid or raise.mid fired in that call
        held = [s.node_id for s in file.data_servers() if s._parity_queue]
        assert not held, f"Δs held between calls by {held}"

    # ---- quiesce ----------------------------------------------------
    file.failures.heal()
    entries = file.rs_coordinator.run_probe_cycle(rounds=3)
    assert entries[-1]["unavailable"] == [] and entries[-1]["errors"] == []

    # ---- acceptance -------------------------------------------------
    assert len(ambiguous) <= operations // 100, len(ambiguous)
    assert phase == "churn" and file.bucket_count > 4, "no shrink or no growth"
    levels = sorted(set(file.group_levels().values()))
    if scalable:  # the file crossed both thresholds
        assert levels[-1] == SCALABLE.max_level, "the retrofits"
    else:
        assert (params["availability"] == 1) == (levels == [1, 2]), "the raise"
    assert owed <= {"raise.mid"}, f"never reached: {owed}"
    assert crashes.pending() == [], f"armed, never fired: {crashes.pending()}"
    assert sorted(crashes.fired) == sorted(crashes.armed)
    assert file.verify_parity_consistency() == []
    assert auditor.check_file(file) == [] and auditor.violations == []
    held, replayed = durable_state_views(file)
    assert held == replayed, "durable state is not what the journal replays"

    stored = {
        key: value
        for bucket in file.census_with_ranks().values()
        for key, (_, value) in bucket.items()
    }
    assert {k: v for k, v in stored.items() if k not in ambiguous} == {
        k: v for k, v in oracle.items() if k not in ambiguous
    }
    by_bucket: dict[int, list[int]] = {}
    for key in sorted(oracle.keys() - ambiguous):
        by_bucket.setdefault(file.find_bucket_of(key), []).append(key)
    for bucket in range(file.bucket_count):
        file.recover([file.fail_data_bucket(bucket)])
        for key in by_bucket.get(bucket, ()):
            assert file.search(key).value == oracle[key], (bucket, key)
    assert file.verify_parity_consistency() == []
    assert auditor.violations == []
    return file


@pytest.mark.parametrize(
    "params", tier1_slice(),
    ids=lambda p: "-".join(v if isinstance(v, str) else f"{v:d}" for v in p.values()),
)
def test_config_matrix_slice(params):
    run(params, operations=1_500, seed=18)


def main(operations: int = 3_000, seed: int = 18) -> int:
    failures = 0
    for index, params in enumerate(product()):
        try:
            run(params, operations, seed + index)
        except Exception as failure:  # report every config, then fail
            failures += 1
            print(f"FAIL {params}: {type(failure).__name__}: {failure}")
    print(f"{failures} of {len(product())} configs failed at {operations} ops")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:])))
