"""Taxonomy checker: trace events must be registered, metric names
must match the dotted-lowercase grammar."""

EVENTS = frozenset({"op.start", "op.done"})


class TestTraceEvents:
    def test_unknown_event_fires(self, lint):
        code = (
            "class S:\n"
            "    def go(self):\n"
            "        self.tracer.emit('op.bogus', node='n1')\n"
        )
        result = lint({"src/repro/x.py": code}, checks=["taxonomy"],
                      event_types=EVENTS)
        assert [(f.check, f.symbol) for f in result.findings] == [
            ("taxonomy.unknown-event", "op.bogus")
        ]

    def test_known_event_is_clean(self, lint):
        code = (
            "class S:\n"
            "    def go(self):\n"
            "        self.tracer.emit('op.start', node='n1')\n"
        )
        result = lint({"src/repro/x.py": code}, checks=["taxonomy"],
                      event_types=EVENTS)
        assert result.findings == []

    def test_non_trace_emit_is_ignored(self, lint):
        code = (
            "class S:\n"
            "    def go(self):\n"
            "        self.bus.emit('whatever')\n"
        )
        result = lint({"src/repro/x.py": code}, checks=["taxonomy"],
                      event_types=EVENTS)
        assert result.findings == []

    def test_dynamic_event_is_counted(self, lint):
        code = (
            "class S:\n"
            "    def go(self, name):\n"
            "        self.tracer.emit(name, node='n1')\n"
        )
        result = lint({"src/repro/x.py": code}, checks=["taxonomy"],
                      event_types=EVENTS)
        assert result.findings == []
        assert result.stats.get("taxonomy.dynamic-events") == 1


class TestMetricNames:
    def test_bad_metric_name_fires(self, lint):
        code = (
            "class S:\n"
            "    def go(self):\n"
            "        self.metrics.counter('Op.Insert', 1)\n"
        )
        result = lint({"src/repro/x.py": code}, checks=["taxonomy"],
                      event_types=EVENTS)
        assert [(f.check, f.symbol) for f in result.findings] == [
            ("taxonomy.metric-name", "Op.Insert")
        ]

    def test_good_metric_name_is_clean(self, lint):
        code = (
            "class S:\n"
            "    def go(self):\n"
            "        self.metrics.counter('op.insert.messages', 1)\n"
            "        self.metrics.gauge('disk.restarts', 2)\n"
            "        self.metrics.histogram('op.latency', 0.5)\n"
        )
        result = lint({"src/repro/x.py": code}, checks=["taxonomy"],
                      event_types=EVENTS)
        assert result.findings == []

    def test_fstring_metric_with_dynamic_part_is_clean(self, lint):
        # An f-string whose static skeleton fits the grammar is fine;
        # the dynamic hole is probed with a placeholder.
        code = (
            "class S:\n"
            "    def go(self, op):\n"
            "        self.metrics.counter(f'op.{op}.messages', 1)\n"
        )
        result = lint({"src/repro/x.py": code}, checks=["taxonomy"],
                      event_types=EVENTS)
        assert result.findings == []


class TestEventFields:
    """``taxonomy.event-fields``: with a type → fields registry, an
    emission passes exactly the declared values, positionally."""

    FIELDS = {"op.start": ("node", "key", "hint"), "op.done": ("node",)}

    def run(self, lint, call):
        code = (
            "class S:\n"
            "    def go(self, done):\n"
            f"        self.tracer.emit({call})\n"
        )
        result = lint({"src/repro/x.py": code}, checks=["taxonomy"],
                      event_types=self.FIELDS)
        return [(f.check, f.symbol) for f in result.findings], result

    def test_exact_positional_call_is_clean(self, lint):
        findings, _ = self.run(lint, "'op.start', 'n1', 7, OMITTED")
        assert findings == []

    def test_short_call_fires(self, lint):
        findings, result = self.run(lint, "'op.start', 'n1', 7")
        assert findings == [("taxonomy.event-fields", "op.start")]
        assert "passes 2 value(s) for 3" in result.findings[0].message

    def test_long_call_fires(self, lint):
        findings, _ = self.run(lint, "'op.done', 'n1', 7")
        assert findings == [("taxonomy.event-fields", "op.done")]

    def test_undeclared_keyword_fires(self, lint):
        findings, result = self.run(lint, "'op.done', nod='n1'")
        assert findings == [("taxonomy.event-fields", "op.done")]
        assert "undeclared attribute(s) nod" in result.findings[0].message

    def test_declared_keyword_is_still_not_library_form(self, lint):
        findings, result = self.run(lint, "'op.done', node='n1'")
        assert findings == [("taxonomy.event-fields", "op.done")]
        assert "positionally" in result.findings[0].message

    def test_every_branch_of_a_ternary_type_is_checked(self, lint):
        findings, _ = self.run(
            lint, "'op.done' if done else 'op.start', 'n1'"
        )
        assert findings == [("taxonomy.event-fields", "op.start")]
