"""Docs-sync checker: the protocol.md kind index must match the
registry byte-for-byte."""

from repro.lint.checkers.taxonomy import (
    EVENT_TABLE_BEGIN,
    EVENT_TABLE_END,
    render_event_table,
)
from repro.lint.sources import SourceFile
from repro.proto.schema import TABLE_BEGIN, TABLE_END, render_protocol_table


def _docs(tmp_path, body):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "protocol.md").write_text(body)
    return tmp_path


class TestDocsSync:
    def test_missing_markers_fire(self, lint, tmp_path, toy_registry):
        root = _docs(tmp_path, "# Protocol\n\nno markers here\n")
        result = lint({}, checks=["docs"], root=root,
                      registry=toy_registry)
        assert [f.check for f in result.findings] == ["docs.protocol-table"]
        assert "markers missing" in result.findings[0].message

    def test_stale_table_fires(self, lint, tmp_path, toy_registry):
        body = (
            f"# Protocol\n\n{TABLE_BEGIN}\n| old | stale |\n{TABLE_END}\n"
        )
        root = _docs(tmp_path, body)
        result = lint({}, checks=["docs"], root=root,
                      registry=toy_registry)
        assert [f.check for f in result.findings] == ["docs.protocol-table"]
        assert "stale" in result.findings[0].message

    def test_matching_table_is_clean(self, lint, tmp_path, toy_registry):
        table = render_protocol_table(toy_registry.values())
        body = (
            f"# Protocol\n\n{TABLE_BEGIN}\n{table.rstrip()}\n{TABLE_END}\n"
        )
        root = _docs(tmp_path, body)
        result = lint({}, checks=["docs"], root=root,
                      registry=toy_registry)
        assert result.findings == []

    def test_missing_docs_file_fires(self, lint, tmp_path, toy_registry):
        result = lint({}, checks=["docs"], root=tmp_path,
                      registry=toy_registry)
        assert [f.check for f in result.findings] == ["docs.protocol-table"]

    def test_render_is_deterministic(self, toy_registry):
        first = render_protocol_table(toy_registry.values())
        second = render_protocol_table(
            list(reversed(list(toy_registry.values())))
        )
        assert first == second
        assert first.startswith("| kind |")


class TestEventTableSync:
    """docs/observability.md's taxonomy table is generated from the
    event registry and the emission sites."""

    TAXONOMY = {"ops": {"op.start": "node key hint?", "op.done": "node"}}
    CODE = (
        "class S:\n"
        "    def go(self):\n"
        "        self.tracer.emit('op.start', 'n1', 7, OMITTED)\n"
    )

    def test_table_lists_fields_and_emitting_modules(self):
        table = render_event_table(
            [SourceFile("src/repro/core/x.py", self.CODE)], self.TAXONOMY
        )
        assert table.splitlines()[2:] == [
            "| **ops** | | |",
            "| `op.start` | `node`, `key`, `hint?` | `core/x.py` |",
            "| `op.done` | `node` | — |",
        ]

    def _root(self, tmp_path, toy_registry, inner):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "protocol.md").write_text(
            f"{TABLE_BEGIN}\n"
            f"{render_protocol_table(toy_registry.values()).rstrip()}\n"
            f"{TABLE_END}\n"
        )
        (tmp_path / "docs" / "observability.md").write_text(inner)
        return tmp_path

    def test_stale_and_unmarked_tables_fire(self, lint, tmp_path, toy_registry):
        root = self._root(
            tmp_path, toy_registry,
            f"{EVENT_TABLE_BEGIN}\n| old |\n{EVENT_TABLE_END}\n",
        )
        result = lint({}, checks=["docs"], root=root, registry=toy_registry)
        assert [f.check for f in result.findings] == ["docs.event-table"]
        assert "stale" in result.findings[0].message
        (root / "docs" / "observability.md").write_text("no markers\n")
        result = lint({}, checks=["docs"], root=root, registry=toy_registry)
        assert "markers missing" in result.findings[0].message

    def test_matching_table_is_clean(self, lint, tmp_path, toy_registry):
        # No sources in the fixture run: every type shows no emitter.
        table = render_event_table([])
        root = self._root(
            tmp_path, toy_registry,
            f"{EVENT_TABLE_BEGIN}\n{table.rstrip()}\n{EVENT_TABLE_END}\n",
        )
        result = lint({}, checks=["docs"], root=root, registry=toy_registry)
        assert result.findings == []
