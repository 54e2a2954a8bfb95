"""Message envelope and size accounting.

The simulator charges each message a size: a fixed header plus the
payload's estimated wire size.  Sizes only feed the latency model — the
correctness of the protocols never depends on them.
"""

from __future__ import annotations

from typing import Any

from repro.proto.wire import Sizer, compile_sizers

#: Fixed per-message overhead (addressing, kind tag, ...), in bytes.
HEADER_BYTES = 32

#: kind -> size function compiled from the kind's registered format
#: (filled below, once ``estimate_size`` exists to size ``any`` fields).
_SIZERS: dict[str, Sizer] = {}


def estimate_size(payload: Any, kind: str | None = None) -> int:
    """Rough wire size of a message payload, in bytes.

    Counts byte strings at face value, numbers as 8 bytes, strings by
    length, and containers recursively.  Deliberately simple — it feeds a
    latency *model*, not an implementation.

    With the message ``kind`` given and registered, the size comes from
    the function :mod:`repro.proto.wire` compiled from the kind's
    declared format: constants plus a ``len()`` per variable field.  It
    is the walker's number by construction; a payload that is not of the
    declared shape (and every unregistered kind) is walked as before, so
    no payload is ever refused or guessed at.

    The walker uses an explicit stack and exact-type dispatch.
    Subclassed containers fall through to the general checks.
    """
    if kind is not None:
        sizer = _SIZERS.get(kind)
        if sizer is not None:
            total = sizer(payload)
            if total >= 0:
                return total
    total = 0
    stack = [payload]
    while stack:
        item = stack.pop()
        cls = type(item)
        if cls is int or cls is float:
            total += 8
        elif cls is str:
            total += len(item)
        elif cls is dict:
            stack.extend(item.keys())
            stack.extend(item.values())
        elif cls is bytes or cls is bytearray:
            total += len(item)
        elif cls is list or cls is tuple:
            stack.extend(item)
        elif item is None:
            continue
        elif cls is bool:
            total += 1
        # exact-type misses (subclasses, sets, opaque objects)
        elif isinstance(item, (bytes, bytearray)):
            total += len(item)
        elif isinstance(item, bool):
            total += 1
        elif isinstance(item, (int, float)):
            total += 8
        elif isinstance(item, str):
            total += len(item)
        elif isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif hasattr(item, "wire_size"):
            total += int(item.wire_size())
        else:
            total += 16  # opaque object
    return total


_SIZERS.update(compile_sizers(estimate_size))


class Message:
    """One simulated network message.

    ``size`` (header included) may be handed in by a sender that already
    sized this very payload for another copy of the message; 0 means
    "estimate for me".
    """

    __slots__ = ("sender", "recipient", "kind", "payload", "size")

    def __init__(self, sender: str, recipient: str, kind: str,
                 payload: Any = None, size: int = 0) -> None:
        self.sender = sender
        self.recipient = recipient
        self.kind = kind
        self.payload = payload
        self.size = size or HEADER_BYTES + estimate_size(payload, kind)

    def __repr__(self) -> str:
        return (
            f"Message({self.sender!r} -> {self.recipient!r}, {self.kind!r}, "
            f"{self.size} B)"
        )
