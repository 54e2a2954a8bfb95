"""Wall-clock span recorder for the traced run of the benchmark.

The layers are the repo's modules.  ``installed`` wraps, at run time and
from here only, the public entry points of each layer (``TARGETS``) with a
``perf_counter_ns`` span; nothing under ``src/`` knows.  Delivery in the
simulator is synchronous and depth-first, so spans nest: one client call
is one root span, its descendants share its op id, and a span's self time
is its duration minus its direct children's.  Aggregates are kept per
entry point; whole spans are kept for every ``SAMPLE_EVERY``-th op only.

Only traced runs import this module: an untraced run executes unmodified
``repro`` code.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types
from contextlib import contextmanager
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, Callable, Iterator

NOW = time.perf_counter_ns

_CLIENT = (
    "insert", "update", "delete", "search", "*_many", "scan",
    "on_unavailable", "handle_*",
)
_DATA = ("handle_*", "apply_*", "flush_parity", "checkpoint_now", "on_restored")
_COORDINATOR = ("handle_*", "split_once", "merge_once")
_GF = (
    "mul_symbols", "mul_matrix", "mul_arrays", "gf_matmul",
    "scale_accumulate", "stack_payloads", "symbols_from_bytes",
    "bytes_from_symbols", "add_bytes",
)

#: (layer, "module:Class" or "module", names).  A name is matched against
#: what the class or module itself defines; ``*`` never matches a private
#: name, so a private entry point has to be spelled out.
TARGETS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("sdds.client", "repro.sdds.client:Client", _CLIENT),
    ("sdds.client", "repro.core.client:RSClient", _CLIENT),
    ("lh", "repro.lh.image:ClientImage", ("address", "adjust")),
    ("lh", "repro.lh.state:FileState", ("address", "level_of", "advance_split")),
    ("lh", "repro.lh.addressing",
     ("h", "lh_address", "server_action", "adjust_image", "split_records")),
    ("sim.network", "repro.sim.network:Network",
     ("send", "call", "multicast", "advance")),
    ("sim.node", "repro.sim.node:Node", ("receive",)),
    ("sim.node", "repro.core.data_bucket:RSDataServer", ("receive",)),
    ("sim.node", "repro.core.parity_bucket:ParityServer", ("receive",)),
    ("sim.messages", "repro.sim.messages", ("estimate_size",)),
    ("core.data_bucket", "repro.sdds.server:DataServer", _DATA),
    ("core.data_bucket", "repro.core.data_bucket:RSDataServer", _DATA),
    ("core.parity_bucket", "repro.core.parity_bucket:ParityServer",
     ("handle_*", "checkpoint_now", "on_restored")),
    ("core.stripe_store", "repro.core.stripe_store:StripeStore", ("*",)),
    ("gf", "repro.gf.field:GF", _GF),
    ("rs", "repro.rs.codec:RSCodec", ("*",)),
    ("rs", "repro.rs.encoder", ("*",)),
    ("rs", "repro.rs.decoder", ("*",)),
    ("store", "repro.store.wal:BucketLog",
     ("append", "sync", "checkpoint", "recover")),
    ("store", "repro.store.simdisk:SimDisk", ("*",)),
    ("store", "repro.store.wal",
     ("encode_frame", "decode_frames", "encode_blob", "decode_blob")),
    ("core.coordinator", "repro.sdds.coordinator:Coordinator", _COORDINATOR),
    ("core.coordinator", "repro.core.coordinator:RSCoordinator", _COORDINATOR),
    ("core.coordinator", "repro.core.journal:CoordinatorJournal",
     ("append", "ingest", "replay")),
    ("core.recovery", "repro.core.recovery:RecoveryManager", ("*",)),
    ("obs", "repro.obs.trace:Tracer", ("emit", "span")),
    ("obs", "repro.obs.metrics:MetricsRegistry", ("observe_window",)),
    ("obs", "repro.obs.metrics:Histogram", ("observe",)),
    ("obs", "repro.obs.audit:InvariantAuditor", ("_on_event",)),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

#: whole spans are kept for one op in this many
SAMPLE_EVERY = 100
#: entry points whose every call duration is kept (medians of rare events)
KEEP_DURATIONS = frozenset({"RSCoordinator.split_once"})
#: entry points whose last argument is the bytes they write to disk
COUNT_BYTES = frozenset({"SimDisk.append", "SimDisk.write_file"})


class Entry:
    """Aggregate of one wrapped entry point."""

    __slots__ = (
        "layer", "name", "calls", "self_ns", "incl_ns", "children",
        "durations", "bytes",
    )

    def __init__(self, layer: str, name: str) -> None:
        self.layer = layer
        self.name = name
        self.durations: list[int] | None = (
            [] if name in KEEP_DURATIONS else None
        )
        self.clear()

    def clear(self) -> None:
        self.calls = self.self_ns = self.incl_ns = self.children = 0
        self.bytes = 0
        if self.durations is not None:
            self.durations = []

    def as_dict(self) -> dict[str, Any]:
        return {
            "layer": self.layer, "name": self.name, "calls": self.calls,
            "self_ns": self.self_ns, "incl_ns": self.incl_ns,
            "children": self.children, "durations": self.durations or [],
            "bytes": self.bytes,
        }


class Recorder:
    """Span stack, per-entry aggregates and the sampled whole spans."""

    def __init__(self) -> None:
        self.on = False  # wrappers pass straight through while off
        self.op = 0  # id of the current root span's operation
        self.sampling = False
        self.entries: list[Entry] = []
        self._stack: list[list[int]] = []
        #: (entry, start, end, depth, op), appended when a span ends
        self._kept: list[tuple[Entry, int, int, int, int]] = []

    def wrap(self, fn: Callable[..., Any], layer: str, name: str) -> Callable[..., Any]:
        entry = Entry(layer, name)
        self.entries.append(entry)
        sized = name in COUNT_BYTES
        rec, stack, kept = self, self._stack, self._kept

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not rec.on:
                return fn(*args, **kwargs)
            if not stack:
                rec.op += 1
                rec.sampling = rec.op % SAMPLE_EVERY == 0
            frame = [0, 0]  # ns inside direct children, their number
            stack.append(frame)
            t0 = NOW()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = NOW()
                stack.pop()
                duration = t1 - t0
                entry.calls += 1
                entry.self_ns += duration - frame[0]
                entry.incl_ns += duration
                entry.children += frame[1]
                if stack:
                    parent = stack[-1]
                    parent[0] += duration
                    parent[1] += 1
                if rec.sampling:
                    kept.append((entry, t0, t1, len(stack), rec.op))
                if entry.durations is not None:
                    entry.durations.append(duration)
                if sized:
                    entry.bytes += len(args[-1])

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def take(self) -> list[dict[str, Any]]:
        """The aggregates so far, which start again from zero."""
        taken = [entry.as_dict() for entry in self.entries if entry.calls]
        for entry in self.entries:
            entry.clear()
        return taken

    def write_trace(self, path: Path) -> int:
        """Write the sampled spans, one JSON object per line.  Spans were
        kept as they ended, children before parents, so a span's parent
        is the next one kept one level up."""
        rows: list[dict[str, Any]] = []
        orphans: dict[int, list[int]] = {}
        for i, (entry, start, end, depth, op) in enumerate(self._kept):
            for child in orphans.pop(depth + 1, ()):
                rows[child]["parent"] = i
            rows.append({
                "id": i, "parent": None, "op": op, "layer": entry.layer,
                "name": entry.name, "start_ns": start, "end_ns": end,
            })
            orphans.setdefault(depth, []).append(i)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for row in rows:
                out.write(json.dumps(row) + "\n")
        return len(rows)


def _matches(name: str, patterns: tuple[str, ...]) -> bool:
    return any(
        fnmatchcase(name, p) and (not name.startswith("_") or p.startswith("_"))
        for p in patterns
    )


@contextmanager
def installed(rec: Recorder) -> Iterator[None]:
    """Wrap every entry point of ``TARGETS``; undo it all on exit.

    Methods are replaced on the class that defines them.  A module
    function is replaced in every loaded ``repro`` module that bound it,
    since ``from x import f`` copies the reference.
    """
    undo: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, value: Any) -> None:
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    try:
        for layer, target, patterns in TARGETS:
            module_name, _, class_name = target.partition(":")
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            for attr, raw in list(vars(owner).items()):
                if not _matches(attr, patterns):
                    continue
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                if (
                    not isinstance(fn, types.FunctionType)
                    or fn.__module__ != module_name
                    or hasattr(fn, "__wrapped__")
                ):
                    continue
                if class_name:
                    wrapper = rec.wrap(fn, layer, f"{class_name}.{attr}")
                    if isinstance(raw, staticmethod):
                        wrapper = staticmethod(wrapper)
                    patch(owner, attr, wrapper)
                    continue
                wrapper = rec.wrap(fn, layer, f"{module_name[6:]}.{attr}")
                for name, user in list(sys.modules.items()):
                    if name.partition(".")[0] != "repro" or user is None:
                        continue
                    for bound, value in list(vars(user).items()):
                        if value is fn:
                            patch(user, bound, wrapper)
        yield
    finally:
        rec.on = False
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def calibrate() -> dict[str, float]:
    """The recorder's own cost per span, in ns: the part that falls inside
    the span (and so into its self time) and the part that falls outside
    (into its parent's).  Best of three rounds of 50 000 empty spans."""
    calls = 50_000

    def empty() -> None:
        pass

    best = {"span_ns": float("inf")}
    for _ in range(3):
        rec = Recorder()
        rec.on = True
        spanned = rec.wrap(empty, "calibration", "empty")

        def loop() -> None:
            for _ in range(calls):
                spanned()

        # The empty spans get a parent, as all but root spans have.
        parent = rec.wrap(loop, "calibration", "loop")
        t0 = NOW()
        for _ in range(calls):
            empty()
        bare = (NOW() - t0) / calls
        t0 = NOW()
        parent()
        span = (NOW() - t0) / calls - bare
        inside = max(0.0, rec.entries[0].incl_ns / calls - bare)
        if span < best["span_ns"]:
            best = {
                "span_ns": span,
                "inside_ns": min(inside, span),
                "outside_ns": max(0.0, span - inside),
            }
    return best
