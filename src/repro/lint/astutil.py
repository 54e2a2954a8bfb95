"""Small AST helpers shared by the checkers."""

from __future__ import annotations

import ast
from typing import Iterator


def innermost_functions(tree: ast.AST) -> dict[int, ast.AST]:
    """Map ``id(node)`` -> innermost enclosing function def (if any)."""
    owner: dict[int, ast.AST] = {}

    def visit(node: ast.AST, current: ast.AST | None) -> None:
        for child in ast.iter_child_nodes(node):
            if current is not None:
                owner[id(child)] = current
            nxt = (
                child
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                )
                else current
            )
            visit(child, nxt)

    visit(tree, None)
    return owner


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def receiver_text(call: ast.Call) -> str:
    """Source text of a method call's receiver (``''`` for bare names)."""
    if isinstance(call.func, ast.Attribute):
        try:
            return ast.unparse(call.func.value)
        except Exception:  # pragma: no cover - unparse is total on 3.10+
            return ""
    return ""


def literal_strings(
    expr: ast.AST, func: ast.AST | None, depth: int = 0
) -> set[str] | None:
    """Statically resolvable string values of ``expr`` (None = dynamic).

    Resolves constants, ``a if c else b`` ternaries, and local names
    whose every assignment in the enclosing function is itself
    resolvable — enough for the ``kind = "x" if flag else "y"`` pattern
    without building a real dataflow analysis.  Loop targets and
    parameters are dynamic by definition.
    """
    if depth > 4:
        return None
    if isinstance(expr, ast.Constant):
        return {expr.value} if isinstance(expr.value, str) else None
    if isinstance(expr, ast.IfExp):
        left = literal_strings(expr.body, func, depth + 1)
        right = literal_strings(expr.orelse, func, depth + 1)
        if left is not None and right is not None:
            return left | right
        return None
    if isinstance(expr, ast.Name) and func is not None:
        name = expr.id
        args = getattr(func, "args", None)
        if args is not None:
            params = {
                a.arg
                for a in (
                    list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)
                    + ([args.vararg] if args.vararg else [])
                    + ([args.kwarg] if args.kwarg else [])
                )
            }
            if name in params:
                return None
        values: list[ast.AST] = []
        for node in ast.walk(func):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
                for target in ast.walk(node.target):
                    if isinstance(target, ast.Name) and target.id == name:
                        return None
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        values.append(node.value)
                    elif not isinstance(target, ast.Name):
                        for sub in ast.walk(target):
                            if (
                                isinstance(sub, ast.Name)
                                and sub.id == name
                            ):
                                return None
            elif isinstance(node, ast.AnnAssign):
                target = node.target
                if isinstance(target, ast.Name) and target.id == name:
                    if node.value is None:
                        return None
                    values.append(node.value)
            elif isinstance(node, (ast.AugAssign, ast.NamedExpr)):
                target = node.target
                if isinstance(target, ast.Name) and target.id == name:
                    return None
        if not values:
            return None
        out: set[str] = set()
        for value in values:
            resolved = literal_strings(value, func, depth + 1)
            if resolved is None:
                return None
            out |= resolved
        return out
    return None


def walk_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node
