"""Protocol conformance: sent-set == handled-set == registry-set.

Walks every ``.send(...)`` / ``.call(...)`` / ``.multicast(...)`` site
and every ``handle_*`` definition under ``src/repro`` and cross-checks
them against :data:`repro.proto.schema.REGISTRY`:

* a statically resolvable kind at a send site that the registry does
  not know — ``proto.unregistered-kind``;
* a registry kind whose ``handle_*`` method exists nowhere —
  ``proto.unhandled-kind``;
* a ``handle_*`` definition (or alias assignment) no registry kind
  dispatches to — ``proto.dead-handler``;
* a registry kind with no send site *and* no string-literal evidence
  anywhere (a retired message nobody can emit) — ``proto.unsent-kind``;
* a dict-literal payload carrying a field the registry does not list —
  ``proto.payload-unknown-field`` — or missing a required field —
  ``proto.payload-missing-field``;
* a handler reading a payload field the registry does not list —
  ``proto.payload-unregistered-read``.

Kind arguments that are genuinely dynamic (``message.kind`` forwards,
parameterized helpers) are counted in ``stats["proto.dynamic-sites"]``
rather than guessed at.
"""

from __future__ import annotations

import ast

from repro.lint.astutil import (
    innermost_functions,
    literal_strings,
    receiver_text,
    walk_calls,
)
from repro.proto.schema import handler_name

RULES = (
    "proto.unregistered-kind",
    "proto.unhandled-kind",
    "proto.dead-handler",
    "proto.unsent-kind",
    "proto.payload-unknown-field",
    "proto.payload-missing-field",
    "proto.payload-unregistered-read",
)

#: Files whose string literals are not send evidence: the registry and
#: this suite mention every kind by construction.
EVIDENCE_EXEMPT = ("repro/proto/", "repro/lint/")

_SEND_ATTRS = {"send", "call", "multicast"}


def _kind_index(call: ast.Call) -> int:
    """Position of the ``kind`` argument at this site.

    ``Node.send/call(recipient, kind, ...)`` puts it second;
    ``Network.send/call(sender, recipient, kind, ...)`` and
    ``multicast(sender, targets, kind)`` put it third.  Network
    handles are invariably named ``net``/``network``/``self._net…`` —
    the naming convention the codebase already relies on for humans.
    """
    func = call.func
    assert isinstance(func, ast.Attribute)
    if func.attr == "multicast":
        return 2
    return 2 if "net" in receiver_text(call).lower() else 1


def _payload_expr(call: ast.Call, kind_index: int) -> ast.AST | None:
    for keyword in call.keywords:
        if keyword.arg == "payload":
            return keyword.value
    if len(call.args) > kind_index + 1:
        return call.args[kind_index + 1]
    return None


def _literal_dict_keys(expr: ast.AST) -> tuple[set[str], bool] | None:
    """(keys, closed) for a dict literal; None for anything else.

    ``closed`` is False when the literal contains ``**`` expansions or
    non-constant keys — then only the present literal keys are checked,
    not completeness.
    """
    if not isinstance(expr, ast.Dict):
        return None
    keys: set[str] = set()
    closed = True
    for key in expr.keys:
        if key is None:  # **expansion
            closed = False
        elif isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.add(key.value)
        else:
            closed = False
    return keys, closed


def _handler_defs(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every ``handle_*`` def and alias assignment."""
    out: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("handle_"):
                out.append((node.name, node.lineno))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id.startswith("handle_")
                ):
                    out.append((target.id, node.lineno))
    return out


def _payload_names(func: ast.AST) -> set[str]:
    """Local names bound to ``message.payload`` inside a handler."""
    names: set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "dict"
            and value.args
        ):
            value = value.args[0]
        if isinstance(value, ast.Attribute) and value.attr == "payload":
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _payload_reads(func: ast.AST) -> list[tuple[str, int]]:
    """(field, line) for every literal top-level payload access."""
    aliases = _payload_names(func)

    def is_payload(expr: ast.AST) -> bool:
        if isinstance(expr, ast.Attribute) and expr.attr == "payload":
            return True
        return isinstance(expr, ast.Name) and expr.id in aliases

    reads: list[tuple[str, int]] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Subscript) and is_payload(node.value):
            index = node.slice
            if isinstance(index, ast.Constant) and isinstance(
                index.value, str
            ):
                reads.append((index.value, node.lineno))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and is_payload(node.func.value)
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            reads.append((node.args[0].value, node.lineno))
    return reads


def check(ctx) -> None:
    registry = ctx.registry
    kind_of_handler = {handler_name(kind): kind for kind in registry}
    seen_handlers: set[str] = set()
    sent_kinds: set[str] = set()
    literal_evidence: set[str] = set()

    for source in ctx.sources:
        exempt = any(part in source.rel for part in EVIDENCE_EXEMPT)
        owner = innermost_functions(source.tree)

        # handler definitions --------------------------------------------
        for name, line in _handler_defs(source.tree):
            seen_handlers.add(name)
            if name not in kind_of_handler:
                ctx.report(
                    "proto.dead-handler", source, line,
                    f"{name}() matches no registered message kind "
                    "(register it in repro/proto/schema.py or remove it)",
                    symbol=name,
                )

        # string-literal evidence for the unsent check -------------------
        if not exempt:
            for node in ast.walk(source.tree):
                if isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ):
                    if node.value in registry:
                        literal_evidence.add(node.value)

        # send/call/multicast sites --------------------------------------
        for call in walk_calls(source.tree):
            func = call.func
            if (
                not isinstance(func, ast.Attribute)
                or func.attr not in _SEND_ATTRS
            ):
                continue
            kind_index = _kind_index(call)
            kind_expr = None
            for keyword in call.keywords:
                if keyword.arg == "kind":
                    kind_expr = keyword.value
            if kind_expr is None:
                if len(call.args) <= kind_index:
                    continue  # not a messaging call (too few args)
                kind_expr = call.args[kind_index]
            enclosing = owner.get(id(call))
            resolved = literal_strings(kind_expr, enclosing)
            if resolved is None:
                ctx.bump("proto.dynamic-sites")
                continue
            for kind in sorted(resolved):
                entry = registry.get(kind)
                if entry is None:
                    ctx.report(
                        "proto.unregistered-kind", source, call.lineno,
                        f"message kind {kind!r} is sent here but not "
                        "registered in repro/proto/schema.py",
                        symbol=kind,
                    )
                    continue
                sent_kinds.add(kind)
                shape = _literal_dict_keys(_payload_expr(call, kind_index))
                if shape is None:
                    continue
                keys, closed = shape
                allowed = entry.field_names()
                for name in sorted(keys - allowed):
                    ctx.report(
                        "proto.payload-unknown-field", source, call.lineno,
                        f"{kind!r} payload field {name!r} is not in the "
                        "registry entry",
                        symbol=f"{kind}.{name}",
                    )
                if closed and len(resolved) == 1:
                    for name in sorted(entry.required_fields() - keys):
                        ctx.report(
                            "proto.payload-missing-field", source,
                            call.lineno,
                            f"{kind!r} payload misses required field "
                            f"{name!r} (mark it optional with '?' in the "
                            "registry if senders may omit it)",
                            symbol=f"{kind}.{name}",
                        )

        # handler payload reads ------------------------------------------
        for node in ast.walk(source.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            kind = kind_of_handler.get(node.name)
            if kind is None:
                continue
            allowed = registry[kind].field_names()
            for field, line in _payload_reads(node):
                if field not in allowed:
                    ctx.report(
                        "proto.payload-unregistered-read", source, line,
                        f"handler for {kind!r} reads payload field "
                        f"{field!r} that the registry does not list",
                        symbol=f"{kind}.{field}",
                    )

    registry_path = "src/repro/proto/schema.py"
    for kind in sorted(registry):
        if handler_name(kind) not in seen_handlers:
            ctx.report_global(
                "proto.unhandled-kind", registry_path,
                f"registered kind {kind!r} has no {handler_name(kind)}() "
                "anywhere under src/repro",
                symbol=kind,
            )
        if kind not in sent_kinds and kind not in literal_evidence:
            ctx.report_global(
                "proto.unsent-kind", registry_path,
                f"registered kind {kind!r} is never sent (no send site, "
                "no literal evidence) — retire it or wire it up",
                symbol=kind,
            )
    ctx.bump("proto.kinds-sent", len(sent_kinds))
    ctx.bump("proto.handlers-seen", len(seen_handlers))
