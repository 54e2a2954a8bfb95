"""Protocol-conformance & determinism static analysis (``repro.lint``).

AST-based checkers that make the repo's implicit contracts statically
enforceable instead of hand-synced or found-per-seed:

* ``proto``       — every send/call site, every ``handle_*`` method and
  the :mod:`repro.proto` registry must agree (kinds *and* payload
  fields);
* ``determinism`` — no wall-clock time, no unseeded randomness, no
  iteration over sets in ``src/repro`` (byte-identical seeded traces
  depend on it);
* ``taxonomy``    — every statically resolvable ``tracer.emit`` type is
  registered in ``EVENTS`` and passes exactly its declared values,
  positionally; metric names obey the naming grammar;
* ``seq-guard``   — Δ-applying handlers reference their per-channel
  sequence check;
* ``docs``        — the generated message-kind index in
  ``docs/protocol.md`` and the event taxonomy in
  ``docs/observability.md`` match their registries byte-for-byte;
* ``pragma``      — every ``# lint: allow[...]`` pragma is known and
  actually suppresses something.

Run it with ``python -m repro lint`` (``--strict`` in CI); suppress a
single finding with an inline ``# lint: allow[<rule>]`` pragma or
grandfather it in ``tools/lint_baseline.json``.  See
``docs/static_analysis.md``.
"""

from repro.lint.baseline import Baseline
from repro.lint.engine import CHECKS, LintResult, run_lint
from repro.lint.findings import Finding

__all__ = ["Baseline", "CHECKS", "Finding", "LintResult", "run_lint"]
