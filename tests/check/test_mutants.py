"""The checker's self-test: three seeded consistency bugs, each of
which the harness must catch within a bounded seed budget and shrink to
a replayable counterexample of at most ten operations.

A model checker that has never caught a bug proves nothing; these
mutants are the evidence the linearizability verdicts carry weight.
"""

import pytest

from repro.check import mutants
from repro.check.harness import make_workload, run_scenario
from repro.check.shrink import shrink_scenario

#: The bounded budget the ISSUE pins: every mutant must fall to one of
#: these seeds (the workload shape matches the CI mutant sweep).
SEED_BUDGET = 25
WORKLOAD = dict(ops=70, keys=8, prefill=12, crash_rate=0.10)


def first_failing_seed(mutant: str) -> int | None:
    for seed in range(SEED_BUDGET):
        scenario = make_workload(seed=seed, **WORKLOAD)
        if not run_scenario(scenario, mutant=mutant).ok:
            return seed
    return None


class TestRegistry:
    def test_enabled_scopes_and_restores(self):
        assert not mutants.is_active("drop_parity_seq")
        with mutants.enabled("drop_parity_seq"):
            assert mutants.is_active("drop_parity_seq")
        assert not mutants.is_active("drop_parity_seq")

    def test_enabled_none_is_a_no_op(self):
        with mutants.enabled(None):
            assert not mutants.ACTIVE

    def test_unknown_mutant_rejected(self):
        with pytest.raises(ValueError):
            mutants.enable("off_by_one_everywhere")
        assert not mutants.ACTIVE

    def test_disable_all(self):
        mutants.enable("drop_parity_seq")
        mutants.enable("double_apply_delete")
        mutants.disable_all()
        assert not mutants.ACTIVE


@pytest.mark.parametrize(
    "mutant", sorted(mutants.MUTANT_NAMES)
)
class TestMutantsAreCaught:
    def test_detected_shrunk_and_replayable(self, mutant):
        seed = first_failing_seed(mutant)
        assert seed is not None, (
            f"{mutant}: not detected within {SEED_BUDGET} seeds — the "
            "checker has gone blind"
        )
        scenario = make_workload(seed=seed, **WORKLOAD)

        # The same seed without the mutant is clean: the detection is
        # the mutant's fault, not a checker false positive.
        assert run_scenario(scenario).ok

        shrunk, stats = shrink_scenario(scenario, mutant=mutant)
        assert shrunk.client_op_count() <= 10, (
            f"{mutant}: shrunk to {shrunk.client_op_count()} client ops"
        )
        assert stats.final_steps <= stats.initial_steps

        # Replayable: the shrunk scenario deterministically re-fails.
        replay = run_scenario(shrunk, mutant=mutant)
        assert not replay.ok
        # a stale read, or recovery refusing survivors that disagree
        assert replay.verdict.failed_keys or replay.integrity


def test_clean_runs_have_no_false_positives():
    for seed in range(10):
        scenario = make_workload(seed=seed, **WORKLOAD)
        result = run_scenario(scenario)
        assert result.ok, f"seed {seed}: {result.verdict.describe()}"
