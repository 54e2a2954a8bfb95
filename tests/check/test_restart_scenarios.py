"""PCT-style scenarios interleaving crash → durable restart → catch-up
with client batches: the recorded history must stay linearizable.

Under a durability-on config every ``["restore", node]`` step of
`make_workload` heals through the injector's rejoin handshake, so every
schedule exercises the WAL replay + delta catch-up path under concurrent
client traffic.
"""

from repro.check.harness import make_workload, run_scenario


class TestRestartScenarios:
    def test_restart_catchup_histories_linearize(self):
        for seed in range(6):
            scenario = make_workload(
                seed=seed, ops=50, keys=12, prefill=10,
                config={"durability": True},
            )
            result = run_scenario(scenario)
            assert result.ok, (
                f"seed {seed}: {result.verdict.describe()}"
            )
            assert result.verdict.checked_ops > 0

    def test_unsynced_tail_restarts_linearize(self):
        """Larger fsync interval: reboots lose acked WAL tails, which
        catch-up must refetch — invisible to the linearizability
        oracle if (and only if) no acked op is lost."""
        for seed in (2, 7, 11):
            scenario = make_workload(
                seed=seed, ops=50, keys=10, prefill=8,
                config={"durability": True, "wal_fsync_interval": 6},
            )
            result = run_scenario(scenario)
            assert result.ok, (
                f"seed {seed}: {result.verdict.describe()}"
            )

    def test_reboot_workloads_are_deterministic(self):
        scenario = make_workload(
            seed=4, ops=40, keys=10, prefill=8,
            config={"durability": True},
        )
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert [r.to_dict() for r in first.history] == [
            r.to_dict() for r in second.history
        ]
        assert first.tracer.to_jsonl() == second.tracer.to_jsonl()
