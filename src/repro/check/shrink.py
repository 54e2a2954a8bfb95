"""Delta-debugging counterexample shrinking.

A failing scenario straight out of the workload generator carries a
hundred-odd steps, most of them irrelevant.  :func:`shrink_scenario`
reduces it with the classic ddmin loop — remove chunks, keep a removal
whenever the scenario *still fails*, refine the granularity — applied
in passes over the pieces of the (seed, schedule, fault-script) triple:

1. try downgrading the scheduler to plain FIFO (a counterexample that
   survives without schedule perturbation is strictly easier to read),
2. ddmin the workload steps,
3. ddmin the fault rules,
4. halve the prefill while the failure persists,
5. one final steps pass (earlier removals often unlock more).

Every probe is a full deterministic re-run, so the result is exact:
whatever ddmin returns *does* fail, and replaying the dumped
counterexample reproduces the verdict bit-for-bit.  The budget caps the
number of re-runs, not wall time; a typical mutant counterexample
shrinks from ~100 steps to well under 10 in a few dozen runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.check.harness import Scenario, run_scenario


@dataclass
class ShrinkStats:
    """Accounting for one shrink session."""

    runs: int = 0
    budget: int = 400
    initial_steps: int = 0
    final_steps: int = 0

    @property
    def exhausted(self) -> bool:
        return self.runs >= self.budget


def ddmin(
    items: list,
    still_fails: Callable[[list], bool],
    stats: ShrinkStats,
) -> list:
    """Zeller–Hildebrandt ddmin: a 1-minimal failing subsequence.

    ``still_fails(subset)`` must be pure (deterministic re-run).  The
    input is assumed failing; returns a subset that still fails and
    from which no *single* chunk at final granularity can be removed.
    """
    n = 2
    while len(items) >= 2:
        chunk = max(1, len(items) // n)
        reduced = False
        start = 0
        while start < len(items):
            if stats.exhausted:
                return items
            candidate = items[:start] + items[start + chunk:]
            stats.runs += 1
            if still_fails(candidate):
                items = candidate
                n = max(n - 1, 2)
                reduced = True
                break
            start += chunk
        if not reduced:
            if n >= len(items):
                break
            n = min(len(items), 2 * n)
    if len(items) == 1 and not stats.exhausted:
        stats.runs += 1
        if still_fails([]):
            return []
    return items


def shrink_scenario(
    scenario: Scenario,
    mutant: str | None = None,
    budget: int = 400,
    fails: Callable[[Scenario], bool] | None = None,
) -> tuple[Scenario, ShrinkStats]:
    """Reduce a failing scenario to a minimal one that still fails.

    ``fails`` defaults to "run_scenario reports a linearizability
    violation"; tests may inject cheaper predicates.  The input
    scenario must fail — raises ``ValueError`` otherwise (a shrinker
    fed a passing scenario would 'minimize' it to nothing and report
    success, the worst possible silent failure).
    """
    stats = ShrinkStats(budget=budget, initial_steps=len(scenario.ops))

    if fails is None:
        def fails(candidate: Scenario) -> bool:
            return not run_scenario(candidate, mutant=mutant).ok

    stats.runs += 1
    if not fails(scenario):
        raise ValueError("shrink_scenario needs a failing scenario")

    # Pass 1: drop the schedule perturbation if the bug survives it.
    if scenario.scheduler is not None and not stats.exhausted:
        candidate = replace(scenario, scheduler=None)
        stats.runs += 1
        if fails(candidate):
            scenario = candidate

    # Pass 2: the workload steps.
    def steps_fail(steps: list) -> bool:
        return fails(replace(scenario, ops=list(steps)))

    scenario = replace(
        scenario, ops=ddmin(list(scenario.ops), steps_fail, stats)
    )

    # Pass 3: the fault script.
    if scenario.fault_rules and not stats.exhausted:
        def rules_fail(rules: list) -> bool:
            return fails(replace(scenario, fault_rules=list(rules)))

        scenario = replace(
            scenario,
            fault_rules=ddmin(list(scenario.fault_rules), rules_fail, stats),
        )

    # Pass 4: halve the prefill while the failure persists.
    while scenario.prefill > 0 and not stats.exhausted:
        candidate = replace(scenario, prefill=scenario.prefill // 2)
        stats.runs += 1
        if not fails(candidate):
            break
        scenario = candidate

    # Pass 5: one more steps pass — smaller context often unlocks more.
    if not stats.exhausted:
        scenario = replace(
            scenario, ops=ddmin(list(scenario.ops), steps_fail, stats)
        )

    stats.final_steps = len(scenario.ops)
    return scenario, stats
