"""Workload generation for experiments.

Key streams (uniform / sequential / zipf / clustered), payload shapes
(fixed / variable / record-like) and operation mixes — everything
stochastic is seeded through `repro.sim.rng` so every benchmark run is
reproducible.  Failures are scheduled on the file's own injector
(``file.failures.schedule_crash``).
"""

from repro.workloads.generator import (
    KeyStream,
    OperationMix,
    PayloadShape,
    generate_operations,
)

__all__ = [
    "KeyStream",
    "PayloadShape",
    "OperationMix",
    "generate_operations",
]
