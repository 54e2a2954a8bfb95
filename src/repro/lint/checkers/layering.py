"""Layering: the product never imports the tooling built on top of it.

``repro.check`` (model checker, validation mutants) and ``repro.lint``
drive and inspect the product packages; the dependency points downward
only.  A product module that imports either one drags test tooling into
every production import and invites hooks like ``if name in
mutants.ACTIVE`` on hot paths — tooling reaches the product by wrapping
its seams from above (see :mod:`repro.check.mutants`), never the other
way round.
"""

from __future__ import annotations

import ast

RULES = ("layering.upward-import",)

#: product packages under ``src/repro`` (the simulator stack, bottom up)
PRODUCT = frozenset({"gf", "rs", "lh", "sim", "store", "sdds", "core"})
#: tooling packages no product module may import
TOOLING = ("repro.check", "repro.lint")


def _imported(node: ast.AST, package: str) -> list[str]:
    """Dotted names one import statement binds, relatives resolved
    against the importing module's ``package``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = node.module or ""
        if node.level:
            parents = package.split(".")
            parents = parents[: len(parents) - node.level + 1]
            base = ".".join(parents + ([base] if base else []))
        return [f"{base}.{alias.name}" for alias in node.names]
    return []


def check(ctx) -> None:
    for source in ctx.sources:
        parts = source.rel.split("/")
        if parts[:2] != ["src", "repro"] or parts[2] not in PRODUCT:
            continue
        package = ".".join(parts[1:-1])
        for node in ast.walk(source.tree):
            for name in _imported(node, package):
                upper = next(
                    (t for t in TOOLING if f"{name}.".startswith(f"{t}.")),
                    None,
                )
                if upper is not None:
                    ctx.report(
                        "layering.upward-import", source, node.lineno,
                        f"product package repro.{parts[2]} imports {name}: "
                        f"{upper} sits above the product and must reach "
                        "it from its own side",
                        symbol=name,
                    )
                    break
