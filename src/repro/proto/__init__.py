"""Machine-readable protocol registry (the wire contract).

``repro.proto.schema`` is the single source of truth for every message
kind on the simulated network: typed payload fields, direction,
send/call mode, reply type and (for Δ-applying handlers) the
per-channel sequence guard the handler must consult.  Three readers:

* the product — ``repro.proto.wire`` compiles the message envelope from
  it once at import (a size function per kind and reply, the
  ``handle_*`` name table, the reply kinds) and ``repro.sim`` imports
  that; this package imports nothing else of ``repro``;
* the static-analysis suite (``repro.lint``), which cross-checks every
  send/call site and every ``handle_*`` method against the registry;
* ``docs/protocol.md``, whose message-kind index is generated from it
  byte-for-byte (``python -m repro lint --protocol-table``).
"""

from repro.proto.schema import (
    EVENT_NAME_RE,
    METRIC_NAME_RE,
    REGISTRY,
    SHAPES,
    TABLE_BEGIN,
    TABLE_END,
    MessageKind,
    Type,
    handler_name,
    kinds,
    parse_type,
    render_protocol_table,
    validate_registry,
)

__all__ = [
    "EVENT_NAME_RE",
    "METRIC_NAME_RE",
    "REGISTRY",
    "SHAPES",
    "TABLE_BEGIN",
    "TABLE_END",
    "MessageKind",
    "Type",
    "handler_name",
    "kinds",
    "parse_type",
    "render_protocol_table",
    "validate_registry",
]
