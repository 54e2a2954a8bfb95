"""Observability for the simulated LH*RS cluster.

Three cooperating pieces, all optional and all zero-overhead until
installed on a network:

* :class:`~repro.obs.trace.Tracer` — structured, replayable event
  stream (spans, typed events, sim-clock timestamps).
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  bounded-memory histograms, fed by the network and by every labelled
  `MessageStats` window.
* :class:`~repro.obs.audit.InvariantAuditor` — a tracer subscriber
  continuously checking cross-layer invariants and dumping the trace
  tail on violation.

See ``docs/observability.md`` for the taxonomy and usage.
"""

from repro.obs.audit import FAULT_EVIDENCE, InvariantAuditor, InvariantViolation
from repro.obs.metrics import (
    BYTE_BUCKETS,
    Counter,
    DEPTH_BUCKETS,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MESSAGE_BUCKETS,
    MetricsRegistry,
    MTTR_BUCKETS,
    QUEUE_DEPTH_BUCKETS,
    RETRY_BUCKETS,
    SYMBOL_BUCKETS,
    default_histograms,
)
from repro.obs.trace import (
    EVENT_TYPES,
    EVENTS,
    OMITTED,
    Span,
    TraceEvent,
    Tracer,
    UnknownEventType,
)

__all__ = [
    "BYTE_BUCKETS",
    "Counter",
    "DEPTH_BUCKETS",
    "EVENT_TYPES",
    "EVENTS",
    "FAULT_EVIDENCE",
    "Gauge",
    "Histogram",
    "InvariantAuditor",
    "InvariantViolation",
    "LATENCY_BUCKETS",
    "MESSAGE_BUCKETS",
    "MTTR_BUCKETS",
    "MetricsRegistry",
    "OMITTED",
    "QUEUE_DEPTH_BUCKETS",
    "RETRY_BUCKETS",
    "SYMBOL_BUCKETS",
    "Span",
    "TraceEvent",
    "Tracer",
    "UnknownEventType",
    "default_histograms",
]
