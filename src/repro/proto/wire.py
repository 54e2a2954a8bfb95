"""The message envelope, compiled from the registry once at import.

Three tables the simulator's hot path reads instead of recomputing per
message:

* :data:`HANDLER_NAMES` — kind → ``"handle_…"`` method name;
* :data:`REPLY_KINDS` — kind → the interned ``"<kind>.reply"`` string;
* :func:`compile_sizers` — kind (and ``"<kind>.reply"``) → a size
  function generated from the kind's typed fields
  (:func:`declared_types`).

A size function returns the number of bytes the payload walker of
:func:`repro.sim.messages.estimate_size` would count — field-name bytes
and fixed-width values folded into constants, variable parts one
``len()`` per bytes field or one ``sum(map(len, column))`` per column —
or ``-1`` when the payload is not of the declared shape (an extra or
missing key, another type anywhere), in which case the caller walks it.
Exact types only: a ``bool`` is not an ``int`` and a numpy integer is
neither, because the walker weighs each differently.

Both name tables also answer for unregistered kinds (the toy nodes of
the ``sim`` tests), computing and remembering the name on first use.
"""

from __future__ import annotations

import sys
from typing import Any, Callable

from repro.proto.schema import (
    ATOMS,
    REGISTRY,
    Type,
    handler_name,
    resolve,
)

Sizer = Callable[[Any], int]


class _NameTable(dict[str, str]):
    """kind → derived name, filled for every registered kind and
    extended on first use of any other."""

    def __init__(self, derive: Callable[[str], str]) -> None:
        super().__init__((kind, derive(kind)) for kind in REGISTRY)
        self._derive = derive

    def __missing__(self, kind: str) -> str:
        name = self[kind] = self._derive(kind)
        return name


#: kind → the ``handle_*`` method ``Node.receive`` dispatches to.
HANDLER_NAMES = _NameTable(handler_name)
#: kind → the kind its call / multicast replies are accounted under.
REPLY_KINDS = _NameTable(lambda kind: sys.intern(f"{kind}.reply"))

_SEQUENCE = "type({v}) is not list and type({v}) is not tuple"


class _Emitter:
    """Generates the body of one size function, statement by statement.

    Every ``emit*`` method appends statements that verify ``var`` against
    a type and add its *variable* bytes to ``total`` (``return -1`` on a
    mismatch), and returns the type's *constant* bytes for the caller to
    fold into one addition.
    """

    def __init__(self, helpers: "_Helpers") -> None:
        self.lines: list[str] = []
        self.helpers = helpers
        self._temps = 0

    def temp(self) -> str:
        self._temps += 1
        return f"v{self._temps}"

    def line(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def emit(self, t: Type, var: str, depth: int) -> int:
        width = ATOMS.get(t.tag)
        if t.tag == "any":
            self.line(depth, f"total += walk({var})")
        elif t.tag == "none":
            self.line(depth, f"if {var} is not None: return -1")
        elif t.tag in ATOMS:
            self.line(depth, f"if type({var}) is not {t.tag}: return -1")
            if width is None:
                self.line(depth, f"total += len({var})")
        else:
            return getattr(self, f"emit_{t.tag}")(t, var, depth)
        return width or 0

    def emit_list(self, t: Type, var: str, depth: int) -> int:
        (inner,) = t.items
        self.line(depth, f"if {_SEQUENCE.format(v=var)}: return -1")
        item = self.temp()
        if inner.tag in ATOMS and inner.tag not in ("any", "none"):
            # A scalar column: a plain loop for the types (cheaper than
            # any set-of-types pass on the short columns most runs
            # carry), one C-level pass for the lengths.
            self.line(depth, f"for {item} in {var}:")
            self.line(depth + 1, f"if type({item}) is not {inner.tag}: return -1")
            width = ATOMS[inner.tag]
            self.line(depth, f"total += sum(map(len, {var}))" if width is None
                      else f"total += {width} * len({var})")
            return 0
        self.line(depth, f"for {item} in {var}:")
        constant = self.emit(inner, item, depth + 1)
        if constant:
            self.line(depth, f"total += {constant} * len({var})")
        return 0

    def emit_row(self, t: Type, var: str, depth: int) -> int:
        cells = [self.temp() for _ in t.items]
        self.line(
            depth,
            f"if ({_SEQUENCE.format(v=var)}) or len({var}) != {len(cells)}: "
            "return -1",
        )
        self.line(depth, f"{', '.join(cells)}, = {var}")
        return sum(
            self.emit(inner, cell, depth)
            for inner, cell in zip(t.items, cells)
        )

    def emit_map(self, t: Type, var: str, depth: int) -> int:
        key, value = self.temp(), self.temp()
        self.line(depth, f"if type({var}) is not dict: return -1")
        self.line(depth, f"for {key}, {value} in {var}.items():")
        constant = self.emit(t.items[0], key, depth + 1)
        constant += self.emit(t.items[1], value, depth + 1)
        if constant:
            self.line(depth, f"total += {constant} * len({var})")
        return 0

    def emit_struct(self, t: Type, var: str, depth: int) -> int:
        fields = [
            (name.rstrip("?"), name.endswith("?"), inner, self.temp())
            for name, inner in zip(t.names, t.items)
        ]
        required = [f for f in fields if not f[1]]
        optional = [f for f in fields if f[1]]
        self.line(depth, f"if type({var}) is not dict: return -1")
        if required:
            self.line(depth, "try:")
            for name, _, _, cell in required:
                self.line(depth + 1, f"{cell} = {var}[{name!r}]")
            self.line(depth, "except KeyError:")
            self.line(depth + 1, "return -1")
        constant = sum(len(name) for name, _, _, _ in required)
        for _, _, inner, cell in required:
            constant += self.emit(inner, cell, depth)
        if not optional:
            self.line(depth, f"if len({var}) != {len(required)}: return -1")
            return constant
        # Optional fields: every key beyond the required ones must be a
        # declared one, which the count of those found establishes.
        extra = self.temp()
        self.line(depth, f"{extra} = len({var}) - {len(required)}")
        self.line(depth, f"if {extra}:")
        for name, _, inner, cell in optional:
            self.line(depth + 1, f"{cell} = {var}.get({name!r}, absent)")
            self.line(depth + 1, f"if {cell} is not absent:")
            self.line(depth + 2, f"{extra} -= 1")
            width = len(name) + self.emit(inner, cell, depth + 2)
            self.line(depth + 2, f"total += {width}")
        self.line(depth + 1, f"if {extra}: return -1")
        return constant

    def emit_union(self, t: Type, var: str, depth: int) -> int:
        """Scalar alternatives as one chain of type tests; each other
        alternative tried in turn through a helper function."""
        scalars = [a for a in t.items if a.tag in ATOMS and a.tag != "any"]
        others = [a for a in t.items if a not in scalars]
        branch = "if"
        for scalar in scalars:
            test = (f"{var} is None" if scalar.tag == "none"
                    else f"type({var}) is {scalar.tag}")
            self.line(depth, f"{branch} {test}:")
            width = ATOMS[scalar.tag]
            self.line(depth + 1, f"total += len({var})" if width is None
                      else f"total += {width}" if width else "pass")
            branch = "elif"
        if scalars:
            self.line(depth, "else:")
            depth += 1
        if not others:
            self.line(depth, "return -1")
            return 0
        size = self.temp()
        for i, other in enumerate(others):
            call = f"{size} = {self.helpers.name_of(other)}({var})"
            self.line(depth, call if i == 0 else f"if {size} < 0: {call}")
        self.line(depth, f"if {size} < 0: return -1")
        self.line(depth, f"total += {size}")
        return 0


class _Helpers:
    """The namespace the generated functions live in, and the size
    functions of whole types (payloads, replies, union alternatives),
    compiled once per distinct type."""

    def __init__(self, walk: Sizer) -> None:
        self.namespace: dict[str, Any] = {"walk": walk, "absent": object()}
        self._names: dict[tuple[Type, bool], str] = {}

    def name_of(self, t: Type, message: bool = False) -> str:
        """The function sizing ``t``.  A whole ``message`` may also be
        None (a kind without fields travels as None as well as ``{}``,
        a handler may return nothing), which weighs nothing."""
        name = self._names.get((t, message))
        if name is None:
            name = self._names[t, message] = f"size_{len(self._names)}"
            emitter = _Emitter(self)
            constant = emitter.emit(t, "p", 1)
            source = "\n".join([
                f"def {name}(p):",
                *(["    if p is None: return 0"] if message else []),
                "    total = 0",
                *emitter.lines,
                f"    return total + {constant}",
            ])
            exec(compile(source, f"<wire:{name}>", "exec"), self.namespace)
        return name


def declared_types() -> dict[str, Type]:
    """Every message the registry declares — kind → payload type and
    ``"<kind>.reply"`` → reply type — with named shapes resolved."""
    types: dict[str, Type] = {}
    for kind, entry in REGISTRY.items():
        types[kind] = resolve(entry.payload_type())
        reply = entry.reply_type()
        if reply is not None:
            types[REPLY_KINDS[kind]] = resolve(reply)
    return types


def compile_sizers(walk: Sizer) -> dict[str, Sizer]:
    """A size function for each of :func:`declared_types`.  ``walk``
    sizes the fields declared ``any``."""
    helpers = _Helpers(walk)
    return {
        kind: helpers.namespace[helpers.name_of(t, message=True)]
        for kind, t in declared_types().items()
    }
