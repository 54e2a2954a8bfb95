"""The six workloads of the end-to-end benchmark: inputs, timed loops, oracle.

Every workload drives one ``LHRSFile`` through its public API only.  A
workload advances in *steps*: a step draws its operations from the seeded
generator (untimed), executes them with a ``perf_counter_ns`` pair around
every client call (timed), and compares every answer with the expected
key -> value map it keeps itself (untimed).  The same seed therefore gives
the same operations whatever the machine's speed; only how many steps fit
into the run's seconds varies.

README.md in this directory says why each workload exists and which layer
it is meant to load.
"""

from __future__ import annotations

import random
import time
from typing import Callable

from repro import LHRSConfig, LHRSFile

NOW = time.perf_counter_ns
KEY_SPACE = 1 << 40
SEARCH, UPDATE, INSERT, DELETE = range(4)

#: m = 4, k = 2, GF(2^8), Cauchy generator.  ``auto_recover`` is off so a
#: lost bucket stays lost until the benchmark calls ``file.recover``: the
#: searches in between are degraded reads and the rebuild window is the
#: benchmark's to time.  No main phase ever meets a failed node otherwise.
COMMON = dict(
    group_size=4,
    availability=2,
    field_width=8,
    generator="cauchy",
    auto_recover=False,
)

DEGRADED_READS = 16  # searches per failure cycle while the bucket is down
HEALTHY_OPS = 4  # searches, then updates, of rebuilt keys after the rebuild
PROBE_MIN_CYCLES = 24  # enough for a p95 where a rebuild takes 90 ms
PROBE_SLICE_NS = 50_000_000  # failure cycles between two speed readings

#: What ``spin`` takes on the container the baseline was recorded on, in
#: its usual clock regime.  Every duration is reported as if ``spin`` took
#: exactly this long while it was measured (see ``Workload.advance``).
SPIN_NOMINAL_NS = 3_750_000


def spin() -> int:
    """Time a fixed pure-Python loop: the machine's speed right now."""
    t0 = NOW()
    table: dict[int, tuple[int, str]] = {}
    for i in range(20_000):
        table[i & 1023] = (i, str(i))
        table.get((i * 7) & 1023)
    return NOW() - t0


def to_nominal(before: int, after: int) -> float:
    """Factor that turns a duration measured between two ``spin``
    readings into what it would have been at nominal machine speed."""
    return 2 * SPIN_NOMINAL_NS / (before + after)


class Samples:
    """Everything one phase of a run measured.  Times are ns, at nominal
    machine speed once absorbed; ``wall_ns`` alone stays as the clock
    read it."""

    def __init__(self) -> None:
        self.ops = 0  # client operations completed (keys, for *_many calls)
        self.failed = 0  # operations that gave a wrong or missing answer
        self.wall_ns = 0  # timed_ns + excluded_ns before any scaling
        self.timed_ns = 0.0  # wall time of the client operations
        self.excluded_ns = 0.0  # restart and rebuild windows, timed apart
        self.read_ns: list[float] = []
        self.write_ns: list[float] = []
        self.degraded_ns: list[int] = []
        self.restart_ns: list[int] = []
        #: (ns, records, messages, bytes) of every ``file.recover``
        self.rebuilds: list[tuple[int, int, int, int]] = []
        #: (ops, timed_ns, buckets, timed_ns + excluded_ns) after every step
        self.progress: list[tuple[int, float, int, float]] = []
        self.write_requests = 0  # write messages the client sent
        self.user_bytes = 0  # payload bytes the client wrote
        self.messages = 0  # messages, and their bytes, while client
        self.bytes = 0  # operations ran: not those of restarts and rebuilds

    def absorb(self, part: "Samples", factor: float) -> None:
        """Add what one slice recorded, its durations times ``factor``."""
        self.ops += part.ops
        self.failed += part.failed
        self.wall_ns += part.timed_ns + part.excluded_ns
        self.timed_ns += part.timed_ns * factor
        self.excluded_ns += part.excluded_ns * factor
        for name in ("read_ns", "write_ns", "degraded_ns", "restart_ns"):
            getattr(self, name).extend(
                ns * factor for ns in getattr(part, name)
            )
        self.rebuilds.extend(
            (ns * factor, *counts) for ns, *counts in part.rebuilds
        )
        self.write_requests += part.write_requests
        self.user_bytes += part.user_bytes
        self.messages += part.messages
        self.bytes += part.bytes


class Workload:
    """One file, its expected contents and the samples taken so far."""

    name = ""
    #: input stream; ``observed`` names ``steady`` to get identical inputs
    inputs = ""
    payload = 128
    config: dict = {}
    #: the traced run reports the spans of this window (see ``window``)
    report_window = "main"
    #: what the traced run divides a layer's time and calls by
    unit_of_work = "ops"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.rng = random.Random(f"{self.inputs or self.name}/{seed}")
        self.scale = scale
        self.oracle: dict[int, bytes] = {}
        self.used: set[int] = set()
        self.s = Samples()
        #: degraded reads and rebuilds: the probe's, or the main phase's
        self.avail = self.s
        self.steps = 0
        self.speed = 0  # the last ``spin`` reading
        self.file: LHRSFile = None  # type: ignore[assignment]

    # -- inputs ---------------------------------------------------------
    def n(self, full: int) -> int:
        """A size of the full-scale design, scaled."""
        return max(1, round(full * self.scale))

    def new_key(self) -> int:
        """Keys are drawn without replacement: a deleted key never returns."""
        while True:
            key = self.rng.randrange(KEY_SPACE)
            if key not in self.used:
                self.used.add(key)
                return key

    def new_record(self) -> tuple[int, bytes]:
        key, value = self.new_key(), self.rng.randbytes(self.payload)
        self.oracle[key] = value
        return key, value

    # -- set-up ---------------------------------------------------------
    def make_file(self) -> LHRSFile:
        return LHRSFile(LHRSConfig(**{**COMMON, **self.config}))

    def setup(self) -> None:
        """Build the file, preload it and converge the client image."""
        raise NotImplementedError

    def preload_scalar(self, count: int, warm: int) -> list[int]:
        file = self.file = self.make_file()
        keys = []
        for _ in range(count):
            key, value = self.new_record()
            file.insert(key, value)
            keys.append(key)
        for key in self.rng.choices(keys, k=warm):
            if file.search(key).value != self.oracle[key]:
                raise RuntimeError(f"{self.name}: warm-up search of {key} is wrong")
        return keys

    # -- the timed region -----------------------------------------------
    def step(self) -> None:
        """Generate, execute and check the next slice of the workload."""
        self.advance(self.s, self._step)
        self.steps += 1
        s = self.s
        s.progress.append(
            (s.ops, s.timed_ns, self.file.bucket_count,
             s.timed_ns + s.excluded_ns)
        )

    def _step(self, part: Samples) -> None:
        raise NotImplementedError

    def advance(self, into: Samples, body: Callable[[Samples], None]) -> None:
        """Run one slice between two readings of the machine's speed and
        add what it recorded to ``into`` at nominal speed.

        The container's speed moves by a tenth and more from one second to
        the next and ``spin`` moves with it, for numpy-bound and WAL-bound
        slices as for pure-Python ones: over ten runs the scaling cut the
        spread of ops/s and of the p50s to a half or a third on every one
        of the six workloads (README.md, "Nominal machine speed").
        """
        part = Samples()
        before = self.speed or spin()
        body(part)
        self.speed = spin()
        into.absorb(part, to_nominal(before, self.speed))

    def finished(self, seconds: float, ops: int) -> bool:
        """May the main phase end?  After ``ops`` operations if given,
        else after ``seconds`` of wall time."""
        if ops:
            return self.s.ops >= ops
        return self.s.wall_ns >= seconds * 1e9

    def window(self) -> str | None:
        """Label of the tracing window the next step falls in (None = the
        recorder stays off for it)."""
        return "main"

    def run_scalar(
        self, s: Samples, ops: list[tuple[int, int, bytes | None]]
    ) -> None:
        """Execute scalar ops, one timed client call each, then check the
        searches against the values expected when they were generated."""
        file = self.file
        search, insert, update, delete = (
            file.search, file.insert, file.update, file.delete
        )
        reads, writes = s.read_ns.append, s.write_ns.append
        found = []
        total = file.stats.total
        messages, size = total.messages, total.bytes
        begin = NOW()
        for kind, key, value in ops:
            if kind == SEARCH:
                t0 = NOW()
                outcome = search(key)
                t1 = NOW()
                reads(t1 - t0)
                found.append(outcome)
            elif kind == UPDATE:
                t0 = NOW()
                update(key, value)
                t1 = NOW()
                writes(t1 - t0)
            elif kind == INSERT:
                t0 = NOW()
                insert(key, value)
                t1 = NOW()
                writes(t1 - t0)
            else:
                t0 = NOW()
                delete(key)
                t1 = NOW()
                writes(t1 - t0)
        s.timed_ns += NOW() - begin
        s.messages += total.messages - messages
        s.bytes += total.bytes - size
        expected = [value for kind, _, value in ops if kind == SEARCH]
        s.failed += sum(
            not (outcome.found and outcome.value == value)
            for outcome, value in zip(found, expected)
        )
        s.ops += len(ops)
        s.write_requests += len(ops) - len(expected)
        s.user_bytes += sum(
            len(value) for kind, _, value in ops if kind in (UPDATE, INSERT)
        )

    # -- failures -------------------------------------------------------
    def failure_cycle(
        self,
        s: Samples,
        keys_of: dict[int, list[int]],
        buckets: list[int],
        parity: int | None = None,
    ) -> None:
        """Fail the buckets, read lost keys degraded, rebuild, then read
        and update rebuilt keys.  The rebuild window is timed apart."""
        file, rng, oracle = self.file, self.rng, self.oracle
        nodes = [file.fail_data_bucket(b) for b in buckets]
        if parity is not None:
            group = buckets[0] // file.config.group_size
            nodes.append(file.fail_parity_bucket(group, parity))
        lost = [key for b in buckets for key in keys_of[b]]
        keys = rng.choices(lost, k=DEGRADED_READS)
        rebuilt = keys[:HEALTHY_OPS]
        updates = [(key, rng.randbytes(self.payload)) for key in rebuilt]
        expected = [oracle[key] for key in keys + rebuilt]
        found = []
        total = file.stats.total
        s.messages -= total.messages
        s.bytes -= total.bytes
        begin = NOW()
        for key in keys:
            t0 = NOW()
            outcome = file.search(key)
            t1 = NOW()
            s.degraded_ns.append(t1 - t0)
            found.append(outcome)
        messages, size = total.messages, total.bytes
        r0 = NOW()
        report = file.recover(nodes)
        r1 = NOW()
        repair = (total.messages - messages, total.bytes - size)
        s.rebuilds.append((r1 - r0, report["records"], *repair))
        for key in rebuilt:
            t0 = NOW()
            outcome = file.search(key)
            t1 = NOW()
            s.read_ns.append(t1 - t0)
            found.append(outcome)
        for key, value in updates:
            t0 = NOW()
            file.update(key, value)
            t1 = NOW()
            s.write_ns.append(t1 - t0)
        end = NOW()
        s.messages += total.messages - repair[0]
        s.bytes += total.bytes - repair[1]
        s.excluded_ns += r1 - r0
        s.timed_ns += end - begin - (r1 - r0)
        s.failed += sum(
            not (outcome.found and outcome.value == value)
            for outcome, value in zip(found, expected)
        )
        oracle.update(updates)
        s.ops += len(found) + len(updates)
        s.write_requests += len(updates)
        s.user_bytes += sum(len(value) for _, value in updates)

    def probe(self, seconds: float) -> None:
        """Availability probe, after the main phase and outside its
        numbers: for about ``seconds``, lose one data bucket at a time.
        Gives every workload its degraded-read and rebuild figures in
        its own file shape."""
        keys_of = {b: list(r) for b, r in self.file.census().items() if r}
        buckets = sorted(keys_of)
        probe = self.avail = Samples()

        def cycles(part: Samples) -> None:
            while part.timed_ns + part.excluded_ns < PROBE_SLICE_NS:
                self.failure_cycle(part, keys_of, [self.rng.choice(buckets)])

        while (
            probe.wall_ns < seconds * 1e9
            or len(probe.rebuilds) < PROBE_MIN_CYCLES
        ):
            self.advance(probe, cycles)

    # -- end-of-run checks ----------------------------------------------
    def tally(self) -> tuple[int, int]:
        """(operations attempted, operations that failed), probe included."""
        phases = [self.s] if self.avail is self.s else [self.s, self.avail]
        return sum(p.ops for p in phases), sum(p.failed for p in phases)

    def verify(self) -> list[str]:
        """Census against the oracle and parity against the data; returns
        one line per discrepancy (outside every timed region)."""
        held: dict[int, bytes] = {}
        for records in self.file.census().values():
            held.update(records)
        problems = [
            f"key {key}: census disagrees with the oracle"
            for key in held.keys() | self.oracle.keys()
            if held.get(key) != self.oracle.get(key)
        ]
        return problems + self.file.verify_parity_consistency()

    def outages(self) -> list[float]:
        """Windows from a node's loss to its serving again: here, the
        rebuilds onto a spare."""
        return [window for window, *_ in self.avail.rebuilds]

    def flatness(self) -> float:
        """ops/s over the last third of the timed region / the first
        third: 1.0 when throughput holds up as the run goes on."""
        progress = self.s.progress
        total = progress[-1][1]
        a = next(p for p in progress if p[1] >= total / 3)
        b = next(p for p in progress if p[1] >= 2 * total / 3)
        if b is progress[-1]:
            b = a
        last = progress[-1]
        return ((last[0] - b[0]) / (last[1] - b[1])) / (a[0] / a[1])


class ScalarMix(Workload):
    """Closed-loop scalar traffic over a file whose record count stays at
    the preload size: inserts and deletes alternate around it."""

    preload = 0
    warm = 2000
    chunk = 2000
    search_share = 0.5
    update_share = 0.3  # the rest is inserts and deletes, half each

    def setup(self) -> None:
        self.live = self.preload_scalar(self.n(self.preload), self.n(self.warm))
        self.target = len(self.live)

    def _step(self, part: Samples) -> None:
        rng, live, oracle = self.rng, self.live, self.oracle
        searches = self.search_share
        updates = searches + self.update_share
        ops: list[tuple[int, int, bytes | None]] = []
        for _ in range(self.n(self.chunk)):
            r = rng.random()
            if r < searches:
                key = live[rng.randrange(len(live))]
                ops.append((SEARCH, key, oracle[key]))
            elif r < updates:
                key = live[rng.randrange(len(live))]
                value = oracle[key] = rng.randbytes(self.payload)
                ops.append((UPDATE, key, value))
            elif len(live) <= self.target:
                key, value = self.new_record()
                live.append(key)
                ops.append((INSERT, key, value))
            else:
                i = rng.randrange(len(live))
                key, live[i] = live[i], live[-1]
                live.pop()
                del oracle[key]
                ops.append((DELETE, key, None))
        self.run_scalar(part, ops)


class Steady(ScalarMix):
    name = "steady"
    config = dict(bucket_capacity=64)
    preload = 10_158


class Observed(Steady):
    name = "observed"
    inputs = "steady"

    def setup(self) -> None:
        super().setup()
        self.file.enable_observability(trace_capacity=10_000)


class Durable(ScalarMix):
    """Durability at its defaults (fsync every append, checkpoint every
    128).  b = 4096 keeps the file at its 8 initial buckets: durable
    files do not survive a split at this commit (ROADMAP open item 1)."""

    name = "durable"
    config = dict(durability=True, group_size=8, bucket_capacity=4096)
    preload = 6000
    chunk = 250  # one restart after every chunk
    search_share = 0.2
    update_share = 0.4

    def setup(self) -> None:
        super().setup()
        file = self.file
        self.nodes = [server.node_id for server in file.data_servers()]
        self.nodes += [server.node_id for server in file.parity_servers()]

    def _step(self, part: Samples) -> None:
        super()._step(part)
        failures = self.file.failures
        node = self.nodes[self.steps % len(self.nodes)]
        t0 = NOW()
        failures.crash([node])
        failures.heal([node])
        t1 = NOW()
        part.restart_ns.append(t1 - t0)
        part.excluded_ns += t1 - t0

    def outages(self) -> list[float]:
        """Crash -> heal windows, whole rounds over the nodes only: a
        parity bucket restarts several times slower than a data bucket."""
        restarts = self.s.restart_ns
        whole = len(restarts) // len(self.nodes) * len(self.nodes)
        return restarts[:whole] or restarts


class Bulk(Workload):
    """The scatter-gather plane as a loader uses it: 2048-key calls over
    15-16 fat buckets, about 128 ops per ``ops.batch`` message."""

    name = "bulk"
    config = dict(batch_ops=True, batch_max_ops=256, bucket_capacity=4096)
    preload = 40_632
    batch = 2048

    def setup(self) -> None:
        file = self.file = self.make_file()
        size = self.size = self.n(self.batch)
        self.order: list[int] = []  # keys in insertion order; live from head
        self.head = 0
        for _ in range(0, self.n(self.preload), size):
            items = [self.new_record() for _ in range(size)]
            if not file.insert_many(items).ok:
                raise RuntimeError("bulk: preload insert_many failed")
            self.order.extend(key for key, _ in items)

    def _step(self, s: Samples) -> None:
        """One round: insert a batch, delete the oldest batch, update two
        batches and search four.  It gives one read and one write sample,
        the time of its four calls of that kind per key: single calls sit
        astride a cliff, one in twenty of them meeting a full garbage
        collection that triples its time, and no percentile of them holds
        still."""
        rng, oracle, order, size = self.rng, self.oracle, self.order, self.size
        file = self.file
        inserts = [self.new_record() for _ in range(size)]
        oldest = order[self.head:self.head + size]
        self.head += size
        order.extend(key for key, _ in inserts)
        for key in oldest:
            del oracle[key]
        live = range(self.head, len(order))
        calls: list[tuple] = [
            (file.insert_many, inserts, None),
            (file.delete_many, oldest, None),
        ]
        for _ in range(2):
            items = [
                (order[i], rng.randbytes(self.payload))
                for i in rng.sample(live, size)
            ]
            oracle.update(items)
            calls.append((file.update_many, items, None))
        for _ in range(4):
            keys = [order[i] for i in rng.sample(live, size)]
            calls.append((file.search_many, keys, [oracle[k] for k in keys]))
        outcomes = []
        spent = [0, 0]  # ns in write calls, in read calls
        total = file.stats.total
        messages, volume = total.messages, total.bytes
        begin = NOW()
        for call, argument, expected in calls:
            t0 = NOW()
            outcome = call(argument)
            t1 = NOW()
            spent[expected is not None] += t1 - t0
            outcomes.append(outcome)
        s.timed_ns += NOW() - begin
        s.messages += total.messages - messages
        s.bytes += total.bytes - volume
        s.write_ns.append(spent[0] / (4 * size))
        s.read_ns.append(spent[1] / (4 * size))
        for (_, _, expected), outcome in zip(calls, outcomes):
            if expected is None:
                s.failed += sum(
                    o is None or o.status != "ok" for o in outcome.outcomes
                )
                s.write_requests += outcome.messages // 2
            else:
                s.failed += sum(
                    o is None or o.status != "found" or o.value != value
                    for o, value in zip(outcome.outcomes, expected)
                )
        s.ops += len(calls) * size
        s.user_bytes += 3 * size * self.payload


class Growth(Workload):
    """Scalar inserts into the empty 4-bucket file, one search of an
    earlier key after every 10th insert.  Runs on until the file has left
    the tail window even if the run's seconds are over: the flatness
    metric needs both windows whole."""

    name = "growth"
    config = dict(bucket_capacity=8)
    chunk = 200
    report_window = "tail"

    def setup(self) -> None:
        self.file = self.make_file()
        self.keys: list[int] = []
        #: bucket-count windows, whole linear-hashing rounds so that the
        #: phase of the split pointer cancels
        self.lo = (self.n(256), self.n(1024))
        self.tail = (self.n(2048), self.n(4096))
        # Op generation is the only set-up an empty file has: drawing here
        # the records it takes to leave the tail window gives setup_s
        # something steady to time.  They enter the oracle when inserted.
        self.ready = [
            (self.new_key(), self.rng.randbytes(self.payload))
            for _ in range(self.n(24_000))
        ]
        self.ready.reverse()

    def _step(self, part: Samples) -> None:
        rng, oracle, keys, ready = self.rng, self.oracle, self.keys, self.ready
        ops: list[tuple[int, int, bytes | None]] = []
        for _ in range(self.n(self.chunk)):
            key, value = (
                ready.pop() if ready
                else (self.new_key(), rng.randbytes(self.payload))
            )
            oracle[key] = value
            keys.append(key)
            ops.append((INSERT, key, value))
            if len(keys) % 10 == 0:
                key = keys[rng.randrange(len(keys))]
                ops.append((SEARCH, key, oracle[key]))
        self.run_scalar(part, ops)

    def finished(self, seconds: float, ops: int) -> bool:
        return (
            super().finished(seconds, ops)
            and self.file.bucket_count >= self.tail[1]
        )

    def window(self) -> str | None:
        buckets = self.file.bucket_count
        if self.lo[0] <= buckets < self.lo[1]:
            return "lo"
        if self.tail[0] <= buckets < self.tail[1]:
            return "tail"
        return None

    def rate(self, window: tuple[int, int]) -> float:
        """ops/s between the steps at which the file entered and left a
        bucket-count window."""
        progress = self.s.progress
        a = next(p for p in progress if p[2] >= window[0])
        b = next(p for p in progress if p[2] >= window[1])
        return (b[0] - a[0]) / (b[1] - a[1])

    def flatness(self) -> float:
        return self.rate(self.tail) / self.rate(self.lo)


class Recovery(Workload):
    """Failure cycles round-robin over the groups, the loss pattern
    cycling through two data buckets, one data bucket + parity bucket 1,
    and one data bucket (the XOR fast path)."""

    name = "recovery"
    payload = 1024
    config = dict(bucket_capacity=256)
    preload = 5079
    cycles_per_step = 5
    unit_of_work = "records"

    def setup(self) -> None:
        self.preload_scalar(self.n(self.preload), self.n(2000))
        # No insert or delete follows, so no bucket ever splits and the
        # key -> bucket map holds for the whole run.
        self.keys_of = {
            b: list(r) for b, r in self.file.census().items() if r
        }
        self.cycles = 0

    def probe(self, seconds: float) -> None:
        """The main phase is made of failure cycles already."""

    def _step(self, part: Samples) -> None:
        m = self.file.config.group_size
        groups = (self.file.bucket_count + m - 1) // m
        for _ in range(self.cycles_per_step):
            group, pattern = self.cycles % groups, self.cycles % 3
            self.cycles += 1
            members = [
                b for b in range(group * m, (group + 1) * m)
                if b in self.keys_of
            ]
            lose = 2 if pattern == 0 and len(members) > 1 else 1
            self.failure_cycle(
                part,
                self.keys_of,
                self.rng.sample(members, lose),
                parity=1 if pattern == 1 else None,
            )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (Steady, Observed, Bulk, Growth, Durable, Recovery)
}
