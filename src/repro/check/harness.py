"""Scenario running: a replayable (seed, schedule, fault-script) triple.

A :class:`Scenario` is everything one model-checking run needs, in
JSON-able form: a seed, a prefill size, a list of workload steps
(client operations interleaved with crash/restore/advance control
steps), a fault-rule script, and a scheduler spec.  Determinism is the
load-bearing property — :func:`run_scenario` builds a fresh cluster
from scratch every time, seeds every random source from the scenario,
and therefore replays *exactly*: the shrinker and the counterexample
``--replay`` path are just re-runs.

The workload generator mirrors the chaos-suite safety envelope:
mutation kinds get drop / transient-fail / duplicate (all survivable
under acked writes and Δ-sequence dedup) but never *delay* — a delayed
mutation could apply after a later completed operation on the same key,
which is a real at-least-once hazard but not one the acked-client
contract defends against.  Reply-and-ack kinds also get delay, which is
what feeds the schedulers held messages to reorder.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from repro.check import mutants
from repro.check.history import HistoryRecorder, OpRecord
from repro.check.linearize import Verdict, check_history
from repro.check.scheduler import build_scheduler
from repro.core.recovery import IntegrityError

#: Kinds the chaos envelope may drop / fail / duplicate (never delay).
MUTATION_KINDS = (
    "insert", "update", "delete", "search", "parity.update", "ops.batch",
)
#: Kinds that may additionally be delayed — replies, acks and IAMs; a
#: held reply is what gives a scheduler something to reorder.
REPLY_KINDS = ("search.result", "op.ack", "iam")

#: The harness cluster shape: small buckets (splits happen early),
#: k = 2 parity (two concurrent failures per group survivable), acked
#: writes (a returned mutation definitely applied — the property that
#: makes completed-op intervals meaningful).
DEFAULT_CONFIG: dict[str, Any] = {
    "group_size": 4,
    "availability": 2,
    "bucket_capacity": 16,
    "parity_ack": True,
    "client_acks": True,
    "retry_attempts": 6,
    "retry_backoff_base": 0.5,
}


@dataclass
class Scenario:
    """One replayable model-checking run."""

    seed: int = 0
    #: workload steps: ["insert", key, value] / ["update", key, value] /
    #: ["delete", key] / ["search", key] / ["batch", kind, items] /
    #: ["crash", node] / ["restore", node] (a heal: on a durable file,
    #: WAL replay + rejoin handshake) / ["advance", dt]
    ops: list = field(default_factory=list)
    #: FaultRule kwargs dicts (kinds as lists)
    fault_rules: list = field(default_factory=list)
    #: scheduler spec for build_scheduler (None = legacy pump order)
    scheduler: dict | None = None
    #: LHRSConfig overrides on top of DEFAULT_CONFIG
    config: dict = field(default_factory=dict)
    #: keys 0..prefill-1 are inserted (and recorded) before the steps
    prefill: int = 0
    #: trailing clock advance, maturing held messages
    settle: float = 12.0
    label: str = ""

    def client_op_count(self) -> int:
        """Steps that are client operations (the shrink budget metric)."""
        return sum(
            1 for step in self.ops
            if step[0] not in ("crash", "restore", "advance")
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        return cls(**{
            k: data[k] for k in (
                "seed", "ops", "fault_rules", "scheduler", "config",
                "prefill", "settle", "label",
            ) if k in data
        })


@dataclass
class RunResult:
    """Everything one scenario run produced."""

    ok: bool
    verdict: Verdict
    scenario: Scenario
    history: list[OpRecord]
    tracer: Any
    #: repr() of exceptions steps raised (OperationFailed excluded —
    #: those are recorded as ambiguous ops, not errors)
    errors: list[str] = field(default_factory=list)
    file: Any = None
    #: the errors that were the product refusing survivors that
    #: disagree (:class:`IntegrityError`): each fails the run
    integrity: list[str] = field(default_factory=list)


def _decode_rule(rule: dict) -> dict:
    decoded = dict(rule)
    if decoded.get("kinds") is not None:
        decoded["kinds"] = frozenset(decoded["kinds"])
    return decoded


def _apply_step(
    file, step: list, errors: list[str], integrity: list[str]
) -> None:
    from repro.sdds.client import OperationFailed

    op = step[0]
    net = file.network
    try:
        if op == "insert":
            file.insert(int(step[1]), step[2].encode("latin-1"))
        elif op == "update":
            file.update(int(step[1]), step[2].encode("latin-1"))
        elif op == "delete":
            file.delete(int(step[1]))
        elif op == "search":
            file.search(int(step[1]))
        elif op == "batch":
            kind, items = step[1], step[2]
            client = file.client
            if kind in ("insert", "update"):
                getattr(client, f"{kind}_many")(
                    [(int(k), v.encode("latin-1")) for k, v in items]
                )
            elif kind == "delete":
                client.delete_many([int(k) for k in items])
            else:
                client.search_many([int(k) for k in items])
        elif op == "crash":
            if step[1] in net.nodes:
                file.failures.crash([step[1]])
        elif op == "restore":
            node = step[1]
            if node in file.failures.currently_failed and node in net.nodes:
                file.failures.heal([node])
        elif op == "advance":
            net.advance(float(step[1]))
        else:
            raise ValueError(f"unknown scenario step {op!r}")
    except OperationFailed:
        pass  # the recorder already marked the op ambiguous
    except Exception as err:  # noqa: BLE001 - shrunk scenarios may be hostile
        # A shrunk scenario can strip the restore that made a crash
        # survivable; the run must stay evaluable (the verdict over the
        # recorded history is still meaningful), so step-level wreckage
        # is noted, not raised.  A refused rebuild is no wreckage: the
        # product caught survivors that disagree, so the run fails.
        errors.append(f"{op}: {err!r}")
        if isinstance(err, IntegrityError):
            integrity.append(errors[-1])


def run_scenario(
    scenario: Scenario,
    mutant: str | None = None,
    keep_file: bool = False,
    trace_capacity: int | None = 512,
) -> RunResult:
    """Build a fresh cluster, run the scenario, check the history."""
    from repro.core.config import LHRSConfig
    from repro.core.file import LHRSFile
    from repro.obs.trace import Tracer
    from repro.sim.faults import FaultPlane

    with mutants.enabled(mutant):
        config = LHRSConfig(**{**DEFAULT_CONFIG, **scenario.config})
        file = LHRSFile(config)
        net = file.network
        tracer = Tracer(capacity=trace_capacity)
        net.install_tracer(tracer)
        plane = FaultPlane(
            rng=np.random.default_rng(
                [scenario.seed & 0xFFFFFFFF, 0xFA173]
            )
        )
        for rule in scenario.fault_rules:
            plane.add_rule(**_decode_rule(rule))
        net.install_fault_plane(plane)
        net.install_scheduler(build_scheduler(scenario.scheduler))

        recorder = HistoryRecorder()
        file.client.recorder = recorder
        errors: list[str] = []
        integrity: list[str] = []
        # Prefill is recorded too: the checker's model starts empty, so
        # every value a later search may observe must be in the history.
        for key in range(scenario.prefill):
            _apply_step(file, ["insert", key, f"p{key}"], errors, integrity)
        for step in scenario.ops:
            _apply_step(file, step, errors, integrity)
        if scenario.settle > 0:
            net.advance(float(scenario.settle))

        verdict = check_history(recorder.records)
        return RunResult(
            ok=verdict.ok and not integrity,
            verdict=verdict,
            scenario=scenario,
            history=list(recorder.records),
            tracer=tracer,
            errors=errors,
            file=file if keep_file else None,
            integrity=integrity,
        )


# ----------------------------------------------------------------------
# workload generation
# ----------------------------------------------------------------------
def default_fault_rules(
    mutation_rate: float = 0.02,
    reply_delay: float = 0.25,
    delay_window: float = 4.0,
) -> list[dict]:
    """The chaos-envelope fault script (see module docstring)."""
    return [
        {
            "kinds": list(MUTATION_KINDS),
            "drop": mutation_rate,
            "fail": 1.5 * mutation_rate,
            "duplicate": mutation_rate,
        },
        {
            "kinds": list(REPLY_KINDS),
            "delay": reply_delay,
            "delay_window": delay_window,
        },
    ]


def make_workload(
    seed: int,
    ops: int = 120,
    keys: int = 24,
    prefill: int = 16,
    crash: bool = True,
    crash_rate: float = 0.05,
    batches: bool = True,
    scheduler: str | dict | None = "pct",
    label: str = "",
    config: dict | None = None,
) -> Scenario:
    """A mixed insert/update/delete/search (+kill) scenario.

    One crash window at a time, victims drawn from group 0's data and
    parity buckets (all of which exist from n0 = 4 regardless of file
    growth), restored a handful of steps later — staying within the
    k = 2 survivable envelope while exercising degraded reads, bucket
    rebuilds and Δ-parity recovery against the checker.  Under
    ``config={"durability": True}`` each restore is a durable restart:
    the node replays WAL + checkpoint and rejoins through the fenced
    delta-catch-up handshake.
    """
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 0x307AD])
    victims = [f"f.d{b}" for b in range(4)] + ["f.p0.0", "f.p0.1"]
    steps: list = []
    crashed: str | None = None
    restore_at = -1
    serial = 0
    for i in range(ops):
        if crashed is not None and i >= restore_at:
            steps.append(["restore", crashed])
            crashed = None
        elif crashed is None and crash and float(rng.random()) < crash_rate:
            crashed = victims[int(rng.integers(len(victims)))]
            restore_at = i + 4 + int(rng.integers(8))
            steps.append(["crash", crashed])
        draw = float(rng.random())
        key = int(rng.integers(keys))
        serial += 1
        value = f"v{serial}-{key}"
        if draw < 0.28:
            steps.append(["insert", key, value])
        elif draw < 0.50:
            steps.append(["update", key, value])
        elif draw < 0.62:
            steps.append(["delete", key])
        elif draw < 0.94 or not batches:
            steps.append(["search", key])
        else:
            kind = ("insert", "update", "delete", "search")[
                int(rng.integers(4))
            ]
            count = 2 + int(rng.integers(4))
            picked = [int(rng.integers(keys)) for _ in range(count)]
            if kind in ("insert", "update"):
                items = [[k, f"b{serial}-{j}-{k}"]
                         for j, k in enumerate(picked)]
            else:
                items = picked
            steps.append(["batch", kind, items])
        if float(rng.random()) < 0.05:
            steps.append(["advance", round(1.0 + 2.0 * float(rng.random()), 2)])
    if crashed is not None:
        steps.append(["restore", crashed])
    if isinstance(scheduler, str):
        scheduler_spec: dict | None = {"mode": scheduler, "seed": seed}
        if scheduler == "none":
            scheduler_spec = None
    else:
        scheduler_spec = scheduler
    return Scenario(
        seed=seed,
        ops=steps,
        fault_rules=default_fault_rules(),
        scheduler=scheduler_spec,
        config=dict(config or {}),
        prefill=prefill,
        label=label or f"workload-{seed}",
    )


# ----------------------------------------------------------------------
# counterexamples
# ----------------------------------------------------------------------
@dataclass
class Counterexample:
    """A minimal failing scenario plus the evidence, JSON round-trip."""

    scenario: dict
    failure: dict
    history: list[dict]
    trace_tail: list[str]
    mutant: str | None = None

    @classmethod
    def from_result(
        cls, result: RunResult, mutant: str | None = None,
        tail: int = 60,
    ) -> "Counterexample":
        return cls(
            scenario=result.scenario.to_dict(),
            failure={
                "failed_keys": result.verdict.failed_keys,
                "reason": result.verdict.describe(),
                "errors": result.errors,
                "integrity": result.integrity,
            },
            history=[record.to_dict() for record in result.history],
            trace_tail=[repr(e) for e in result.tracer.tail(tail)],
            mutant=mutant,
        )

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "scenario": self.scenario,
                    "failure": self.failure,
                    "history": self.history,
                    "trace_tail": self.trace_tail,
                    "mutant": self.mutant,
                },
                handle,
                indent=2,
            )

    @classmethod
    def load(cls, path: str) -> "Counterexample":
        with open(path) as handle:
            data = json.load(handle)
        return cls(
            scenario=data["scenario"],
            failure=data.get("failure", {}),
            history=data.get("history", []),
            trace_tail=data.get("trace_tail", []),
            mutant=data.get("mutant"),
        )

    def replay(self, mutant: str | None = None) -> RunResult:
        """Re-run the stored scenario (deterministic: same verdict)."""
        return run_scenario(
            Scenario.from_dict(self.scenario),
            mutant=mutant if mutant is not None else self.mutant,
        )
