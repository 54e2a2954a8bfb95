"""The machine-readable protocol registry itself."""

import pytest

from repro.proto.schema import (
    EVENT_NAME_RE,
    METRIC_NAME_RE,
    REGISTRY,
    SHAPES,
    MessageKind,
    Type,
    handler_name,
    kinds,
    parse_type,
    render_protocol_table,
    resolve,
    validate_registry,
)


class TestMessageKind:
    def test_required_vs_optional_fields(self):
        entry = MessageKind("t.k", "a", "b", "send",
                            ("key", "value", "note?"))
        assert entry.required_fields() == {"key", "value"}
        assert entry.field_names() == {"key", "value", "note"}

    def test_payload_signature(self):
        entry = MessageKind("t.k", "a", "b", "send", ("key", "note?"))
        assert entry.payload_signature() == "{key, note?}"
        assert MessageKind("t.e", "a", "b", "send").payload_signature() == "—"

    def test_handler_name_mangling(self):
        assert handler_name("parity.update") == "handle_parity_update"
        assert handler_name("read.degraded") == "handle_read_degraded"
        # The mangling is lossy — which is exactly why the registry
        # validates mangled-name uniqueness.
        assert handler_name("op.ack") == handler_name("op_ack")


class TestTypeGrammar:
    def test_every_form_parses(self):
        parsed = parse_type(
            "{a:int, b?:[bytes|none], c:(int, str), d:{int->[float]}, e:any}"
        )
        assert parsed.tag == "struct"
        assert parsed.names == ("a", "b?", "c", "d", "e")
        assert [t.tag for t in parsed.items] == [
            "int", "list", "row", "map", "any",
        ]
        assert parsed.items[1].items[0] == Type(
            "union", (Type("bytes"), Type("none"))
        )
        assert parse_type("parity_snapshot|none").items[0] == Type(
            "ref", (), ("parity_snapshot",)
        )

    @pytest.mark.parametrize("bad", [
        "", "int|", "[int", "(int,)", "{int:}", "{a:int,}", "{int->}",
        "Int", "a?", "int int", "{a?int}", "[int]]",
    ])
    def test_grammar_violations_raise(self, bad):
        with pytest.raises(ValueError):
            parse_type(bad)

    def test_named_shapes_resolve_to_their_definitions(self):
        resolved = resolve(parse_type("[batch_op|parity_snapshot]"))
        assert [alt.tag for alt in resolved.items[0].items] == [
            "struct", "struct",
        ]
        for name in SHAPES:
            resolve(parse_type(name))  # no refs left dangling, no cycles
        with pytest.raises(ValueError, match="unknown shape"):
            resolve(parse_type("[no_such_shape]"))

    def test_payload_type_is_the_struct_of_the_fields(self):
        entry = REGISTRY["delete"]
        assert entry.payload_type() == parse_type(
            "{key:int, client:str, ack?:int, hops?:int}"
        )
        assert entry.reply_type() is None
        # another registered kind answers: nothing to size as a reply
        assert REGISTRY["search"].reply_type() is None
        assert REGISTRY["split"].reply_type() == parse_type(
            "{kept:int, moved:int}"
        )


class TestRegistry:
    def test_registry_is_internally_consistent(self):
        validate_registry()  # raises on any inconsistency

    def test_kinds_is_complete(self):
        assert kinds() == frozenset(REGISTRY)
        assert "insert" in kinds()
        assert "parity.update" in kinds()

    def test_every_kind_matches_the_grammar(self):
        for kind in REGISTRY:
            assert EVENT_NAME_RE.match(kind), kind

    def test_signature_dump_is_registered(self):
        # The audit probe was absent from the hand-written docs before
        # the registry existed; it must never drop out again.
        entry = REGISTRY["signature.dump"]
        assert entry.mode == "call"
        assert "count?:int" in entry.payload

    def test_metric_grammar_examples(self):
        assert METRIC_NAME_RE.match("op.insert.messages")
        assert METRIC_NAME_RE.match("disk.restarts")
        assert not METRIC_NAME_RE.match("Op.Insert")
        assert not METRIC_NAME_RE.match("op..x")


class TestRenderedTable:
    def test_contains_every_kind(self):
        table = render_protocol_table()
        for kind in REGISTRY:
            assert f"`{kind}`" in table

    def test_escapes_pipes_in_payload(self):
        entry = MessageKind("t.k", "a", "b", "send", ("x",),
                            reply="{a|b}")
        table = render_protocol_table((entry,))
        assert "\\|" in table

    def test_deterministic_across_input_order(self):
        entries = list(REGISTRY.values())
        assert render_protocol_table(tuple(entries)) == \
            render_protocol_table(tuple(reversed(entries)))

    @pytest.mark.parametrize("entry, problem", [
        (MessageKind("t.k", "a", "b", "send", ("key",), section="scans"),
         "carries no type"),
        (MessageKind("t.k", "a", "b", "send", ("key:integer",),
                     section="scans"), "unknown shape 'integer'"),
        (MessageKind("t.k", "a", "b", "send", ("key:int", "key?:str"),
                     section="scans"), "duplicate field 'key'"),
        (MessageKind("t.k", "a", "b", "send", ("Key:int",),
                     section="scans"), "violates the grammar"),
        (MessageKind("t.k", "a", "b", "call", ("key:int",),
                     section="scans"), "a call declares no reply"),
        (MessageKind("t.k", "a", "b", "call", (), reply="{ok:bool",
                     section="scans"), "reply: type"),
    ])
    def test_untyped_and_ill_typed_entries_rejected(
        self, monkeypatch, entry, problem
    ):
        import repro.proto.schema as schema

        monkeypatch.setattr(schema, "_ENTRIES", (entry,))
        monkeypatch.setattr(schema, "REGISTRY", {entry.kind: entry})
        with pytest.raises(ValueError, match=problem):
            schema.validate_registry()

    def test_self_containing_shape_rejected(self, monkeypatch):
        import repro.proto.schema as schema

        monkeypatch.setitem(schema.SHAPES, "tree", "{kids:[tree]}")
        with pytest.raises(ValueError, match="contains itself"):
            schema.validate_registry()

    def test_duplicate_mangles_rejected(self, monkeypatch):
        import repro.proto.schema as schema

        clash = (
            MessageKind("op.x", "a", "b", "send", section="scans"),
            MessageKind("op_x", "a", "b", "send", section="scans"),
        )
        monkeypatch.setattr(schema, "_ENTRIES", clash)
        monkeypatch.setattr(
            schema, "REGISTRY", {e.kind: e for e in clash}
        )
        with pytest.raises(ValueError, match="both dispatch"):
            schema.validate_registry()
