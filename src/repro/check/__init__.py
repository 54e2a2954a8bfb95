"""repro.check — model-checking harness for the LH*RS simulator.

Five parts (see docs/testing.md):

* history recording (:mod:`repro.check.history`) off the instrumented
  clients (``client.recorder``),
* a sequential reference model plus a per-key Wing–Gong
  linearizability checker (:mod:`repro.check.model`,
  :mod:`repro.check.linearize`),
* pluggable delivery schedulers for the network pump
  (:mod:`repro.check.scheduler`): FIFO (byte-identical to none),
  seeded PCT-style perturbation, bounded-DFS exploration,
* scenario running and delta-debugging shrinking
  (:mod:`repro.check.harness`, :mod:`repro.check.shrink`),
* the soak harness the randomized drivers share: an expected-state
  tracker, a settle step and an end check (:mod:`repro.check.soak`).

Exports are lazy (PEP 562): importing one part (the CLI asks for
``repro.check.mutants`` alone) should not drag in the whole harness.
"""

from __future__ import annotations

_EXPORTS = {
    "mutants": ("repro.check.mutants", None),
    "OpRecord": ("repro.check.history", "OpRecord"),
    "HistoryRecorder": ("repro.check.history", "HistoryRecorder"),
    "ABSENT": ("repro.check.model", "ABSENT"),
    "KeyModel": ("repro.check.model", "KeyModel"),
    "DictModel": ("repro.check.model", "DictModel"),
    "KeyVerdict": ("repro.check.linearize", "KeyVerdict"),
    "Verdict": ("repro.check.linearize", "Verdict"),
    "linearize": ("repro.check.linearize", "linearize"),
    "check_history": ("repro.check.linearize", "check_history"),
    "Scheduler": ("repro.check.scheduler", "Scheduler"),
    "FifoScheduler": ("repro.check.scheduler", "FifoScheduler"),
    "PCTScheduler": ("repro.check.scheduler", "PCTScheduler"),
    "DFSScheduler": ("repro.check.scheduler", "DFSScheduler"),
    "explore": ("repro.check.scheduler", "explore"),
    "build_scheduler": ("repro.check.scheduler", "build_scheduler"),
    "Scenario": ("repro.check.harness", "Scenario"),
    "RunResult": ("repro.check.harness", "RunResult"),
    "run_scenario": ("repro.check.harness", "run_scenario"),
    "make_workload": ("repro.check.harness", "make_workload"),
    "default_fault_rules": ("repro.check.harness", "default_fault_rules"),
    "Counterexample": ("repro.check.harness", "Counterexample"),
    "ddmin": ("repro.check.shrink", "ddmin"),
    "shrink_scenario": ("repro.check.shrink", "shrink_scenario"),
    "ShrinkStats": ("repro.check.shrink", "ShrinkStats"),
    "ExpectedState": ("repro.check.soak", "ExpectedState"),
    "settle": ("repro.check.soak", "settle"),
    "verify": ("repro.check.soak", "verify"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.check' has no attribute {name!r}"
        ) from None
    import importlib

    module = importlib.import_module(module_name)
    value = module if attr is None else getattr(module, attr)
    globals()[name] = value  # cache for the next lookup
    return value


def __dir__():
    return __all__
