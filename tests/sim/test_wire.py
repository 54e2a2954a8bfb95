"""The compiled message envelope against its references.

* sizes: for every registered kind and every declared reply, payloads
  drawn from the typed declaration weigh the same through the compiled
  size function as through the payload walker — and so do payloads
  pushed off the schema, which no sizer may refuse or guess at; the
  catch-up kinds merged into ``runs.tail`` and ``runs.catchup`` keep
  their cases: a retired name is walked, and its old payloads weigh
  the same under the kind that replaced it;
* dispatch: ``Node.receive`` reaches the method the name table names,
  late-bound, for every product node class.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.proto import wire
from repro.proto.schema import (
    REGISTRY, MessageKind, Type, handler_name, resolve,
)
from repro.sim.messages import _SIZERS, Message, estimate_size
from repro.sim.node import Node

#: every message the registry declares: kinds, and replies of calls
DECLARED = wire.declared_types()


def retired(kind: str, successor: str, payload: tuple[str, ...],
            reply: str) -> dict[str, tuple[str, Type]]:
    """A retired call kind and its reply, as they were declared, each
    with the registered message that replaced it."""
    entry = MessageKind(kind, "coordinator", "data/parity", "call",
                        payload, reply=reply)
    return {
        kind: (successor, resolve(entry.payload_type())),
        f"{kind}.reply": (f"{successor}.reply",
                          resolve(entry.reply_type())),
    }


#: the four catch-up kinds that ``runs.tail`` and ``runs.catchup``
#: replaced → (successor, old declared type)
RUNS_TAIL = "{covered:bool, live:int, runs:[delta_run]}"
RETIRED = {
    **retired("wal.tail", "runs.tail", ("after:int",), RUNS_TAIL),
    **retired("delta.tail", "runs.tail", ("pos:int", "after:int"),
              RUNS_TAIL),
    **retired("catchup.load", "runs.catchup",
              ("runs:[delta_run]", "resend_after?:int|none"),
              "{floor:int}"),
    **retired("catchup.parity", "runs.catchup", ("runs:[delta_run]",),
              "{ok:bool, applied:int}"),
}

#: values no declaration asks for; the walker has a rule for each
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.binary(max_size=4), st.text(max_size=4), st.just({}), st.just([]),
    st.lists(st.integers(), max_size=3).map(tuple),
    st.dictionaries(st.text(max_size=3), st.binary(max_size=3), max_size=2),
    st.sampled_from([np.int64(3), np.float64(0.5), bytearray(b"ab"),
                     frozenset({1, 2}), object()]),
)
SCALARS = {
    "int": st.integers(-(2**70), 2**70),
    "float": st.floats(allow_nan=False),
    "bool": st.booleans(),
    # zero-length, small, and GF(2^16)-sized (even, kilobytes) payloads
    "bytes": st.one_of(
        st.just(b""), st.binary(max_size=24),
        st.integers(1, 1024).map(lambda n: b"\x5a\xa5" * n),
    ),
    "str": st.text(max_size=12),
    "none": st.none(),
    "any": st.recursive(JUNK, lambda inner: st.lists(inner, max_size=3)),
}


def values(t: Type) -> st.SearchStrategy:
    """Values of a declared type: optional fields present and absent,
    every alternative of a union, collections empty, short and of a
    thousand elements, sequences as lists and as tuples."""
    if t.tag in SCALARS:
        return SCALARS[t.tag]
    inner = [values(item) for item in t.items]
    if t.tag == "list":
        few = st.lists(inner[0], max_size=4)
        many = st.lists(inner[0], min_size=1, max_size=4).map(
            lambda items: (items * 1000)[:1000]
        )
        return st.one_of(few, few.map(tuple), many)
    if t.tag == "row":
        return st.one_of(st.tuples(*inner), st.tuples(*inner).map(list))
    if t.tag == "map":
        return st.dictionaries(inner[0], inner[1], max_size=5)
    if t.tag == "union":
        return st.one_of(*inner)
    assert t.tag == "struct", t
    fields = {name.rstrip("?"): (name.endswith("?"), strategy)
              for name, strategy in zip(t.names, inner)}
    return st.fixed_dictionaries(
        {name: s for name, (optional, s) in fields.items() if not optional},
        optional={name: s for name, (optional, s) in fields.items()
                  if optional},
    )


def knocked_off(data: st.DataObject, value):
    """``value`` with one place in it, drawn at random, replaced by junk
    (a list where bytes were declared, a bare int for a struct, ...), or
    with a key added to or dropped from one of its dicts."""
    kids = (list(value) if isinstance(value, dict)
            else list(range(len(value))) if isinstance(value, (list, tuple))
            else [])
    move = data.draw(st.sampled_from(
        ["replace"] + (["descend"] if kids else [])
        + (["add", "drop"] if isinstance(value, dict) else [])
    ))
    if move == "replace":
        return data.draw(JUNK)
    if move == "add":
        return {**value, data.draw(st.sampled_from(["zz", "key", 7])):
                data.draw(JUNK)}
    where = data.draw(st.sampled_from(kids)) if kids else None
    if move == "drop":
        return {k: v for k, v in value.items() if k != where}
    if isinstance(value, dict):
        return {**value, where: knocked_off(data, value[where])}
    changed = list(value)
    changed[where] = knocked_off(data, changed[where])
    return type(value)(changed)


#: built once per kind: hypothesis validates a strategy anew each time
PAYLOADS = {kind: values(t) for kind, t in DECLARED.items()}
PAYLOADS.update({kind: values(t) for kind, (_, t) in RETIRED.items()})

QUICK = settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestCompiledSizes:
    def test_every_kind_and_declared_reply_is_compiled(self):
        assert set(_SIZERS) == set(DECLARED)
        assert len(REGISTRY) == 61

    @pytest.mark.parametrize("kind", sorted([*DECLARED, *RETIRED]))
    @QUICK
    @given(data=st.data())
    def test_declared_payloads_weigh_what_the_walker_says(self, kind, data):
        payload = data.draw(PAYLOADS[kind])
        if kind in RETIRED:
            successor = RETIRED[kind][0]
            assert kind not in _SIZERS and kind not in REGISTRY
            # the merged call takes each old request on the compiled
            # path; an old reply (a data bucket's bare ``{floor}``) may
            # lack a field its successor requires, and is walked
            if not kind.endswith(".reply"):
                assert _SIZERS[successor](payload) == estimate_size(payload)
            assert estimate_size(payload, successor) == estimate_size(payload)
        else:
            # drawn from the declaration, so the compiled function must
            # take it: a fallback here would make the equality vacuous
            assert _SIZERS[kind](payload) == estimate_size(payload)
        assert estimate_size(payload, kind) == estimate_size(payload)

    @pytest.mark.parametrize("kind", sorted([*DECLARED, *RETIRED]))
    @QUICK
    @given(data=st.data())
    def test_off_schema_payloads_are_walked_not_refused(self, kind, data):
        payload = knocked_off(data, data.draw(PAYLOADS[kind]))
        assert estimate_size(payload, kind) == estimate_size(payload)
        if kind in RETIRED:
            successor = RETIRED[kind][0]
            assert estimate_size(payload, successor) == estimate_size(payload)

    @pytest.mark.parametrize("payload", [7, None, {}, [], b"raw", "text"])
    def test_bare_values_under_every_kind(self, payload):
        for kind in DECLARED:
            assert estimate_size(payload, kind) == estimate_size(payload)

    def test_unregistered_kinds_are_walked(self):
        assert estimate_size({"k": b"xy"}, "ping") == 3
        assert Message("a", "b", "relay", "c").size == 32 + 1

    def test_exact_types_only(self):
        """What the walker weighs differently never passes for the
        declared type: a bool is 1 byte, a numpy integer an opaque 16."""
        insert = {"key": 1, "value": b"v", "client": "c"}
        assert _SIZERS["insert"](insert) == estimate_size(insert)
        for key in (True, np.int64(1), 1.0):
            odd = dict(insert, key=key)
            assert _SIZERS["insert"](odd) == -1
            assert estimate_size(odd, "insert") == estimate_size(odd)


def product_node_classes() -> list[type[Node]]:
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    found, pending = [], [Node]
    while pending:
        for cls in pending.pop().__subclasses__():
            if cls.__module__.startswith("repro.") and cls not in found:
                found.append(cls)
                pending.append(cls)
    return sorted(found, key=lambda cls: cls.__qualname__)


class TestDispatch:
    def test_table_holds_the_one_mangling_rule(self):
        for kind in REGISTRY:
            assert dict.get(wire.HANDLER_NAMES, kind) == handler_name(kind)
        # unregistered kinds (the toy nodes of these tests) on first use
        assert wire.HANDLER_NAMES["key.search"] == "handle_key_search"
        assert wire.REPLY_KINDS["ping"] == "ping.reply"
        assert wire.REPLY_KINDS["ops.batch"] is wire.REPLY_KINDS["ops.batch"]

    @pytest.mark.parametrize(
        "cls", product_node_classes(), ids=lambda cls: cls.__qualname__
    )
    def test_receive_reaches_the_named_handler(self, cls, monkeypatch):
        """For every kind the class handles.  The instance exists before
        the handler is swapped on its class: dispatch is late-bound."""
        node = cls.__new__(cls)
        node.node_id, node.fenced, node._durable = "n", False, None
        handled = [k for k in REGISTRY if hasattr(cls, handler_name(k))]
        assert handled, f"{cls.__qualname__} handles no registered kind"
        for kind in handled:
            got = []
            monkeypatch.setattr(
                cls, handler_name(kind),
                lambda self, message: got.append((self, message)) or kind,
            )
            message = Message("x", "n", kind)
            assert node.receive(message) == kind
            assert got == [(node, message)]

    def test_handler_patched_onto_the_class_later_is_the_one_that_runs(self):
        """What the traced benchmark run depends on: the span recorder
        installs its wrappers by ``setattr`` on classes whose instances
        are already serving."""

        class Toy(Node):
            def handle_ping(self, message):
                return "original"

        node = Toy("t")
        assert node.receive(Message("a", "t", "ping")) == "original"
        original = Toy.handle_ping
        try:
            Toy.handle_ping = lambda self, message: "wrapped"
            assert node.receive(Message("a", "t", "ping")) == "wrapped"
        finally:
            Toy.handle_ping = original
        assert node.receive(Message("a", "t", "ping")) == "original"

    def test_unhandled_kind_raises_as_before(self):
        with pytest.raises(NotImplementedError) as info:
            Node("plain").receive(Message("a", "plain", "parity.update"))
        assert str(info.value) == (
            "Node 'plain' has no handler for message kind 'parity.update'"
        )


def test_proto_imports_nothing_else_of_repro():
    """``sim`` imports ``proto``; the registry stays importable alone."""
    for path in sorted(Path(wire.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = (
                [alias.name for alias in node.names]
                if isinstance(node, ast.Import)
                else [node.module or ""] if isinstance(node, ast.ImportFrom)
                else []
            )
            for name in names:
                assert not name.startswith("repro") or name.startswith(
                    "repro.proto"
                ), f"{path.name} imports {name}"
