"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e -q``.

Every workload at 1/50 scale, traced and untraced, in child processes as
the driver runs them.  Not collected by the tier-1 suite (``testpaths``).
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMALL = ["--seed", "3", "--seconds", "0.4", "--scale", "0.02"]


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--trace", str(trace), *SMALL],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def check_result(result: dict, declared: list[dict]) -> dict[str, float]:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"])
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload: str) -> None:
    values = check_result(run(workload, 0), SPEC["end_to_end"])
    assert all(value > 0 for value in values.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload: str) -> None:
    values = check_result(run(workload, 1), SPEC["per_layer"])
    assert values["trace.coverage"] >= 0.85
    assert values["trace.overhead_ratio"] > 1.0
    trace = HERE / "out" / f"trace-{workload}.jsonl"
    span = json.loads(trace.read_text().splitlines()[0])
    assert set(span) == {
        "id", "parent", "op", "layer", "name", "start_ns", "end_ns",
    }


def test_layers_carry_the_workloads_they_were_built_for() -> None:
    observed = check_result(run("observed", 1), SPEC["per_layer"])
    steady = check_result(run("steady", 1), SPEC["per_layer"])
    durable = check_result(run("durable", 1), SPEC["per_layer"])
    assert steady["obs.self_us_per_op"] == 0
    assert observed["obs.self_us_per_op"] > 0
    assert steady["store.calls_per_op"] == 0
    assert durable["store.fsyncs_per_op"] > 1
    assert durable["core.parity_bucket.delta_msgs_per_write"] == 2


def test_wrappers_are_gone_after_a_traced_run(capsys: pytest.CaptureFixture) -> None:
    sys.path.insert(0, str(HERE))
    try:
        import run as driver

        assert driver.main(["--workload", "observed", "--trace", "1", *SMALL]) == 0
        import spans
    finally:
        sys.path.remove(str(HERE))
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"]
    for _, target, _ in spans.TARGETS:
        module_name, _, class_name = target.partition(":")
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        wrapped = [
            name for name, value in vars(owner).items()
            if getattr(getattr(value, "__func__", value), "__module__", "") == "spans"
        ]
        assert not wrapped, (target, wrapped)


def test_untraced_run_never_imports_the_span_module() -> None:
    code = (
        "import runpy, sys\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        f"sys.argv = ['run.py', '--workload', 'steady', '--trace', '0', *{SMALL!r}]\n"
        "try:\n"
        f"    runpy.run_path({str(HERE / 'run.py')!r}, run_name='__main__')\n"
        "except SystemExit as done:\n"
        "    assert not done.code, done.code\n"
        "print('spans imported:', 'spans' in sys.modules, file=sys.stderr)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    assert "spans imported: False" in done.stderr
