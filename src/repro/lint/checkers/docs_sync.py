"""Docs sync: generated tables are generated, never hand-edited.

``docs/protocol.md`` carries the message-kind index between the
``protocol-kind-index`` markers; it must equal
:func:`repro.proto.schema.render_protocol_table` byte-for-byte
(``python -m repro lint --protocol-table`` after any registry change).
``docs/observability.md`` carries the span/event taxonomy between the
``event-taxonomy`` markers the same way
(``python -m repro lint --event-table``; checked wherever that file
exists).
"""

from __future__ import annotations

from repro.lint.checkers.taxonomy import (
    EVENT_TABLE_BEGIN,
    EVENT_TABLE_END,
    render_event_table,
)
from repro.proto.schema import TABLE_BEGIN, TABLE_END, render_protocol_table

RULES = ("docs.protocol-table", "docs.event-table")

DOCS_PATH = "docs/protocol.md"
EVENTS_PATH = "docs/observability.md"


def _check_table(ctx, rule, rel, begin_mark, end_mark, expected, flag) -> None:
    text = (ctx.root / rel).read_text()
    begin = text.find(begin_mark)
    end = text.find(end_mark)
    if begin < 0 or end < 0 or end < begin:
        ctx.report_global(
            rule, rel,
            f"generated-table markers missing ({begin_mark} ... "
            f"{end_mark}); insert them and paste the output of "
            f"`python -m repro lint {flag}`",
        )
    elif text[begin + len(begin_mark):end].strip("\n") != expected.strip("\n"):
        ctx.report_global(
            rule, rel,
            "the generated table is stale — regenerate it with "
            f"`python -m repro lint {flag}` and paste it "
            "between the markers",
        )


def check(ctx) -> None:
    if not (ctx.root / DOCS_PATH).exists():
        ctx.report_global(
            "docs.protocol-table", DOCS_PATH,
            "docs/protocol.md is missing",
        )
    else:
        _check_table(
            ctx, "docs.protocol-table", DOCS_PATH, TABLE_BEGIN, TABLE_END,
            render_protocol_table(ctx.registry.values()), "--protocol-table",
        )
    if (ctx.root / EVENTS_PATH).exists():
        _check_table(
            ctx, "docs.event-table", EVENTS_PATH, EVENT_TABLE_BEGIN,
            EVENT_TABLE_END, render_event_table(ctx.sources), "--event-table",
        )
