"""Taxonomy conformance: trace event types, their fields, metric names.

Every statically resolvable ``tracer.emit("<type>", ...)`` must name a
type registered in :data:`repro.obs.trace.EVENTS` (the runtime
raises too, but only when observability happens to be on — this makes
the typo a lint error on every run) and pass exactly the values the
registry declares for it, positionally: the named form of ``emit`` is
for tests and user code, and a library site that used it would build
the per-event dict the typed rows exist to avoid.  Every metric
instrument name must match :data:`repro.proto.schema.METRIC_NAME_RE` so
exporters and dashboards can rely on one grammar.  F-string names are validated on
their literal segments with placeholders treated as one segment body.
"""

from __future__ import annotations

import ast

from repro.lint.astutil import literal_strings, receiver_text, walk_calls
from repro.proto.schema import METRIC_NAME_RE

RULES = (
    "taxonomy.unknown-event",
    "taxonomy.event-fields",
    "taxonomy.metric-name",
)

_METRIC_ATTRS = {"counter", "gauge", "histogram"}

EVENT_TABLE_BEGIN = "<!-- BEGIN GENERATED: event-taxonomy -->"
EVENT_TABLE_END = "<!-- END GENERATED: event-taxonomy -->"


def _fstring_probe(node: ast.JoinedStr) -> str | None:
    """A grammar probe for an f-string name: placeholders become ``x``.

    Returns None when a placeholder abuts nothing checkable (empty
    literal parts only).
    """
    parts: list[str] = []
    for value in node.values:
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            parts.append(value.value)
        elif isinstance(value, ast.FormattedValue):
            parts.append("x")
        else:
            return None
    return "".join(parts)


def _check_fields(ctx, source, call: ast.Call, type: str) -> None:
    """One emission of a registered ``type`` against its declaration."""
    fields = ctx.event_types[type]

    def report(problem: str) -> None:
        ctx.report(
            "taxonomy.event-fields", source, call.lineno,
            f"trace event {type!r} {problem} (declared: "
            f"{', '.join(fields) or 'no attributes'})",
            symbol=type,
        )

    names = [kw.arg for kw in call.keywords]
    undeclared = [n for n in names if n is not None and n not in fields]
    if undeclared:
        report(f"names undeclared attribute(s) {', '.join(undeclared)}")
    elif names:
        report("names its attributes; library code passes them positionally")
    elif any(isinstance(arg, ast.Starred) for arg in call.args):
        ctx.bump("taxonomy.dynamic-events")
    elif len(call.args) - 1 != len(fields):
        report(
            f"passes {len(call.args) - 1} value(s) for {len(fields)} "
            "declared attribute(s); write OMITTED for an optional one "
            "left out"
        )


def _emissions(source):
    """Every ``<tracer>.emit(...)`` call of one source with its
    statically resolved event types (None = dynamic).  The tracer's own
    ``self.emit`` calls count too."""
    own = source.rel.endswith("obs/trace.py")
    for call in walk_calls(source.tree):
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr == "emit"):
            continue
        receiver = receiver_text(call).lower()
        if call.args and ("trace" in receiver or (own and receiver == "self")):
            yield call, literal_strings(call.args[0], None)


def render_event_table(sources, taxonomy=None) -> str:
    """The generated span/event taxonomy for docs/observability.md:
    type, declared attributes, emitting modules.  The docs-sync checker
    compares it byte-for-byte against the block between
    :data:`EVENT_TABLE_BEGIN` and :data:`EVENT_TABLE_END`."""
    if taxonomy is None:
        from repro.obs.trace import TAXONOMY as taxonomy
    emitters: dict[str, set[str]] = {}
    for source in sources:
        for _, types in _emissions(source):
            for type in types or ():
                emitters.setdefault(type, set()).add(
                    source.rel.removeprefix("src/repro/")
                )
    lines = ["| type | attributes | emitted by |", "|---|---|---|"]
    for group, types in taxonomy.items():
        lines.append(f"| **{group}** | | |")
        for type, spec in types.items():
            fields = ", ".join(f"`{name}`" for name in spec.split())
            modules = ", ".join(
                f"`{m}`" for m in sorted(emitters.get(type, ()))
            )
            lines.append(f"| `{type}` | {fields} | {modules or '—'} |")
    return "\n".join(lines) + "\n"


def check(ctx) -> None:
    for source in ctx.sources:
        for call, types in _emissions(source):
            if types is None:
                ctx.bump("taxonomy.dynamic-events")
                continue
            for type in sorted(types):
                if type not in ctx.event_types:
                    ctx.report(
                        "taxonomy.unknown-event", source, call.lineno,
                        f"trace event type {type!r} is not in "
                        "EVENTS (repro/obs/trace.py)",
                        symbol=type,
                    )
                elif isinstance(ctx.event_types, dict):
                    _check_fields(ctx, source, call, type)

        for call in walk_calls(source.tree):
            func = call.func
            if not isinstance(func, ast.Attribute):
                continue
            receiver = receiver_text(call).lower()

            # metric names -------------------------------------------------
            if func.attr in _METRIC_ATTRS and (
                "metric" in receiver or receiver.endswith("registry")
            ):
                if not call.args:
                    continue
                arg = call.args[0]
                if isinstance(arg, ast.Constant) and isinstance(
                    arg.value, str
                ):
                    name = arg.value
                elif isinstance(arg, ast.JoinedStr):
                    probe = _fstring_probe(arg)
                    if probe is None:
                        ctx.bump("taxonomy.dynamic-metrics")
                        continue
                    name = probe
                else:
                    ctx.bump("taxonomy.dynamic-metrics")
                    continue
                if not METRIC_NAME_RE.match(name):
                    ctx.report(
                        "taxonomy.metric-name", source, call.lineno,
                        f"metric name {name!r} violates the naming "
                        "grammar (dotted lowercase, [a-z0-9_] segments)",
                        symbol=name,
                    )
