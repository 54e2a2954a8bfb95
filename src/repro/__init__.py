"""LH*RS — a high-availability scalable distributed data structure using
Reed-Solomon codes (SIGMOD 2000), reproduced as a Python library.

Quick start::

    from repro import LHRSConfig, LHRSFile

    file = LHRSFile(LHRSConfig(group_size=4, availability=2))
    file.insert(42, b"hello")
    assert file.search(42).value == b"hello"
    file.fail_data_bucket(0); file.fail_data_bucket(1)
    file.search(...)   # served via RS record recovery + bucket rebuild

Package map (bottom-up):

* ``repro.gf``        — GF(2^w) arithmetic (log/antilog tables, matrices)
* ``repro.rs``        — the (m+k, m) systematic RS erasure codec
* ``repro.lh``        — linear-hashing addressing math (A1/A2/A3, splits)
* ``repro.sim``       — message-counting multicomputer simulator
* ``repro.sdds``      — the LH* scalable distributed data structure
* ``repro.core``      — **LH*RS** (the paper's contribution)
* ``repro.baselines`` — LH*, LH*m mirroring, LH*s striping, LH*g grouping
* ``repro.workloads`` — key/payload/operation generators
"""

from repro.core import (
    AvailabilityPolicy,
    LHRSConfig,
    LHRSFile,
    RecoveryError,
    file_availability,
)
from repro.gf import GF
from repro.rs import RSCodec
from repro.sdds import LHStarFile

__version__ = "1.0.0"

__all__ = [
    "LHRSFile",
    "LHRSConfig",
    "AvailabilityPolicy",
    "RecoveryError",
    "RSCodec",
    "file_availability",
    "GF",
    "LHStarFile",
    "__version__",
]
