"""The message-schema registry: every wire kind, machine-readable.

Each :class:`MessageKind` names one message kind, its top-level payload
fields (``"name:type"`` required at the sender, ``"name?:type"``
optional), the roles on both ends, whether it travels as a
fire-and-forget ``send``, a request/reply ``call``, or a multicast, the
type of a call's reply, and — for handlers that fold Δ-records — the
identifiers of the per-channel sequence guard the handler body must
reference (``repro.lint``'s seq-guard checker).

Field and reply types come from a small closed grammar
(:func:`parse_type`)::

    type  := alt ("|" alt)*
    alt   := int | float | bool | bytes | str | none | any
           | "[" type "]"                      list of type
           | "(" type ("," type)* ")"          fixed-arity row
           | "{" type "->" type "}"            map
           | "{" name["?"] ":" type, ... "}"   struct (a dict of fields)
           | NAME                              a named shape (SHAPES)

``any`` means "irregular: walk this value".  :mod:`repro.proto.wire`
compiles the per-kind size functions of the simulator's message
envelope from these declarations, so a message's size is a property of
its declared format.

Invariants (enforced by :func:`validate_registry`, which runs at import
and is pinned by ``tests/lint/test_registry.py``):

* kinds are unique and grammatical (``EVENT_NAME_RE``);
* the ``handle_<mangled>`` names derived from the kinds are unique —
  the dispatch mangling (:func:`handler_name`) is lossy (``.`` and
  ``_`` both mangle to ``_``), so two kinds may not collide;
* payload field names are unique per kind and grammatical, every field
  carries a type of the grammar, and every named shape resolves;
* a ``reply`` is a type of the grammar (call / multicast replies) or
  names the registered kind that answers asynchronously.

``repro.lint`` proves the live cross-check: sent-set == handled-set ==
registry-set over everything statically resolvable under ``src/repro``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, TypeVar

_T = TypeVar("_T")

#: Grammar for message kinds and trace event types: dotted lowercase.
EVENT_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")
#: Grammar for metric instrument names: dotted lowercase (digits may
#: lead inner segments: ``op.e19.messages``-style labels).
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9][a-z0-9_]*)*$")
#: Grammar for one payload field: a name (optional fields end in ``?``)
#: and, after a colon, its type.
FIELD_RE = re.compile(r"^([a-z][a-z0-9_]*\??)(?::(.+))?$")
#: Scalar types and what each weighs on the wire, in bytes (None: its
#: length; ``any`` is not a scalar but parses like one).
ATOMS: dict[str, "int | None"] = {
    "int": 8, "float": 8, "bool": 1, "bytes": None, "str": None,
    "none": 0, "any": None,
}

#: Markers bracketing the generated kind index in docs/protocol.md.
TABLE_BEGIN = "<!-- BEGIN GENERATED: protocol-kind-index -->"
TABLE_END = "<!-- END GENERATED: protocol-kind-index -->"


@dataclass(frozen=True)
class Type:
    """One parsed type of the field grammar (see the module docstring).

    ``tag`` is an atom name, ``list``, ``row``, ``map``, ``struct``,
    ``union`` or ``ref``; ``items`` holds the element / column / key and
    value / field / alternative types; ``names`` the field names of a
    struct (``?``-suffixed when optional) or the name a ``ref`` refers to.
    """

    tag: str
    items: "tuple[Type, ...]" = ()
    names: tuple[str, ...] = ()


_TOKEN_RE = re.compile(r"->|[a-z][a-z0-9_]*\??|[\[\](){}|,:]")


def parse_type(text: str) -> Type:
    """Parse one type expression; ``ValueError`` on a grammar violation."""
    tokens = _TOKEN_RE.findall(text)
    if "".join(tokens) != text.replace(" ", "") or not tokens:
        raise ValueError(f"type {text!r} violates the type grammar")
    pos = 0

    def peek() -> str:
        return tokens[pos] if pos < len(tokens) else ""

    def take(expected: str = "") -> str:
        nonlocal pos
        token = peek()
        if not token or (expected and token != expected):
            raise ValueError(
                f"type {text!r}: expected {expected or 'a type'!r} "
                f"at token {pos}, got {token!r}"
            )
        pos += 1
        return token

    def sequence(parse_one: "Callable[[], _T]", close: str) -> "list[_T]":
        out = [parse_one()]
        while peek() == ",":
            take()
            out.append(parse_one())
        take(close)
        return out

    def field() -> tuple[str, Type]:
        name = take()
        if not name[0].isalpha():
            raise ValueError(f"type {text!r}: {name!r} is no field name")
        take(":")
        return name, union()

    def alt() -> Type:
        token = take()
        if token == "[":
            inner = union()
            take("]")
            return Type("list", (inner,))
        if token == "(":
            return Type("row", tuple(sequence(union, ")")))
        if token == "{":
            if pos + 1 < len(tokens) and tokens[pos + 1] == ":":
                fields = sequence(field, "}")
                return Type(
                    "struct",
                    tuple(t for _, t in fields),
                    tuple(name for name, _ in fields),
                )
            key = union()
            take("->")
            value = union()
            take("}")
            return Type("map", (key, value))
        if not token[0].isalpha() or token.endswith("?"):
            raise ValueError(f"type {text!r}: unexpected {token!r}")
        return Type(token) if token in ATOMS else Type("ref", (), (token,))

    def union() -> Type:
        alts = [alt()]
        while peek() == "|":
            take()
            alts.append(alt())
        return alts[0] if len(alts) == 1 else Type("union", tuple(alts))

    parsed = union()
    if pos != len(tokens):
        raise ValueError(f"type {text!r}: trailing {peek()!r}")
    return parsed


def struct_of(fields: tuple[str, ...]) -> Type:
    """The struct type a tuple of ``name[?][:type]`` field declarations
    describes (a field without a type is ``any``)."""
    names: list[str] = []
    types: list[Type] = []
    for declared in fields:
        match = FIELD_RE.match(declared)
        if match is None:
            raise ValueError(f"field {declared!r} violates the grammar")
        names.append(match.group(1))
        types.append(parse_type(match.group(2) or "any"))
    return Type("struct", tuple(types), tuple(names))


@dataclass(frozen=True)
class MessageKind:
    """One registered wire-message kind."""

    kind: str
    #: short role names, e.g. ``client -> data`` (documentation only).
    sender: str
    receiver: str
    #: ``send`` | ``call`` | ``send/call`` | ``multicast`` | ``multicast/call``
    mode: str
    #: top-level payload fields, ``name:type``; a ``?`` after the name
    #: marks the field optional.
    payload: tuple[str, ...] = ()
    #: a call's (or collecting multicast's) reply type, or the registered
    #: kind that answers a send asynchronously.
    reply: str = ""
    #: grouping for the generated docs table.
    section: str = "misc"
    #: one-line description for the generated docs table.
    summary: str = ""
    #: identifiers the handler body must reference (per-channel
    #: sequence guard) — consumed by repro.lint's seq-guard checker.
    seq_guard: tuple[str, ...] = ()
    #: kinds of the LH*g / LH*m baseline planes (kept out of the LH*RS
    #: sections of the generated table but fully registered).
    baseline: bool = False

    def _names(self) -> list[str]:
        """Declared field names, ``?`` suffix kept, types dropped."""
        return [declared.partition(":")[0] for declared in self.payload]

    def required_fields(self) -> frozenset[str]:
        return frozenset(
            name for name in self._names() if not name.endswith("?")
        )

    def field_names(self) -> frozenset[str]:
        """Every legal top-level payload field (required + optional)."""
        return frozenset(name.rstrip("?") for name in self._names())

    def payload_signature(self) -> str:
        """Human-readable payload shape for the generated table."""
        if not self.payload:
            return "—"
        return "{" + ", ".join(self.payload) + "}"

    def payload_type(self) -> Type:
        """The payload as a struct type of the field grammar."""
        return struct_of(self.payload)

    def reply_type(self) -> "Type | None":
        """The reply's type; None when nothing is returned or another
        registered kind carries the answer."""
        if not self.reply or self.reply in REGISTRY:
            return None
        return parse_type(self.reply)


def handler_name(kind: str) -> str:
    """The ``handle_*`` method a kind dispatches to — the one copy of
    the mangling rule (``repro.proto.wire.HANDLER_NAMES`` tabulates it
    for ``Node.receive``)."""
    return "handle_" + "".join(
        ch if ch.isalnum() else "_" for ch in kind
    )


#: Ordered sections of the generated table.
SECTIONS: tuple[str, ...] = (
    "key operations",
    "client replies",
    "batched data plane",
    "routing & degraded reads",
    "file structure",
    "parity maintenance",
    "recovery",
    "durable restart & catch-up",
    "coordinator HA",
    "scans",
    "LH*g baseline",
    "LH*m baseline",
)

#: The coordinator's durable state, ``JournalState.snapshot()``: the
#: ``coord.checkpoint`` payload and, as the shape ``coord_state``, what
#: ``coord.checkpoint.fetch`` answers.
_COORD_STATE = (
    "lsn:int", "n:int", "i:int", "group_levels:{int->int}", "spares:int|none",
    "bucket_epochs:{str->int}", "term:int", "intents:[journal_record]",
)

#: Named shapes: the nested forms more than one kind ships.  A name is
#: shorthand for its type wherever a type may stand.
SHAPES: dict[str, str] = {
    # a key operation riding inside ``route`` / ``report.unavailable``
    "key_op": (
        "{key:int, value?:bytes, client:str, request?:int, ack?:int, "
        "hops?:int}"
    ),
    # one operation of an ``ops.batch`` and its per-op result (a bare
    # status string is the lean form of ``{status}``)
    "batch_op": "{op:str, key:int, value?:bytes}",
    "batch_result": "{status:str, value?:bytes|none, error?:str, to?:int}",
    # the one Δ unit, created, logged, shipped and folded as is: (action,
    # pos, seq0, keys, ranks, deltas, lengths) — one action at one group
    # position over parallel columns of distinct ranks, numbered seq0,
    # seq0 + 1, ...  A scalar mutation's Δ is a run of one.
    "delta_run": "(str, int, int, [int], [int], [bytes], [int])",
    # (key, rank, payload): a record with its place in a record group
    "record_row": "(int, int, bytes)",
    # (key, payload): a record on the move (split, merge, scan, mirror)
    "moved_row": "(int, bytes)",
    # one parity record; ``pos`` only in a ``parity.locate`` answer
    "parity_snapshot": (
        "{rank:int, keys:{int->int}, lengths:{int->int}, parity:bytes, "
        "pos?:int}"
    ),
    # a parity bucket's store as columns (``StripeStore.dump``): per row
    # its rank and extent, its stripe in ``matrix`` (``width`` symbols),
    # and ``slots`` key / length directory cells
    "parity_image": (
        "{slots:int, width:int, rank_of:[int], extents:[int], matrix:bytes, "
        "dir_keys:[int], dir_lengths:[int]}"
    ),
    # one coordinator-journal record; its body differs per record type
    "journal_record": "{lsn:int, type:str, payload:any}",
    "coord_state": "{" + ", ".join(_COORD_STATE) + "}",
    # LH*g: one grouped parity record
    "gparity_record": "{gkey:int, keys:{int->int}, parity:bytes}",
}

_ENTRIES: tuple[MessageKind, ...] = (
    # -- key operations (client -> data bucket) ------------------------
    MessageKind(
        "insert", "client", "data", "send",
        ("key:int", "value:bytes", "client:str", "ack?:int", "hops?:int"),
        section="key operations",
        summary="store a record; acceptor runs A2, forwards if misaddressed",
    ),
    MessageKind(
        "update", "client", "data", "send",
        ("key:int", "value:bytes", "client:str", "ack?:int", "hops?:int"),
        section="key operations",
        summary="upsert; absent key answers `op.error`",
    ),
    MessageKind(
        "delete", "client", "data", "send",
        ("key:int", "client:str", "ack?:int", "hops?:int"),
        section="key operations",
        summary="idempotent removal",
    ),
    MessageKind(
        "search", "client", "data", "send",
        ("key:int", "client:str", "request:int", "hops?:int"),
        reply="search.result",
        section="key operations",
        summary="point read; acceptor replies `search.result` to the client",
    ),
    # -- client replies ------------------------------------------------
    MessageKind(
        "search.result", "data", "client", "send",
        ("request:int", "key:int", "found:bool", "value:bytes|none"),
        section="client replies",
        summary="answer to `search` (also sent by mirror/degraded paths)",
    ),
    MessageKind(
        "op.ack", "data", "client", "send",
        ("token:int", "bucket:int"),
        section="client replies",
        summary="tokened-mutation confirmation (`client_acks` mode)",
    ),
    MessageKind(
        "op.error", "data", "client", "send",
        ("key:int", "reason:str"),
        section="client replies",
        summary="typed per-op refusal (e.g. update of an absent key)",
    ),
    MessageKind(
        "iam", "data", "client", "send",
        ("j:int", "a:int"),
        section="client replies",
        summary="acceptor's level and address — the A3 image adjustment",
    ),
    MessageKind(
        "iam.state", "coordinator", "client", "send",
        ("n:int", "i:int"),
        section="client replies",
        summary="authoritative image overwrite on routed deliveries",
    ),
    # -- batched data plane --------------------------------------------
    MessageKind(
        "ops.batch", "client", "data", "call",
        ("ops:[batch_op]", "client:str"),
        reply="{j:int, a:int, results:[str|batch_result]}",
        section="batched data plane",
        summary="one image-binned sub-batch; the reply doubles as an IAM",
    ),
    # -- routing & degraded reads --------------------------------------
    MessageKind(
        "route", "client", "coordinator", "send",
        ("kind:str", "op:key_op"),
        section="routing & degraded reads",
        summary="addressing failed; coordinator delivers by true state",
    ),
    MessageKind(
        "report.unavailable", "client/data", "coordinator", "send",
        ("kind:str|none", "op:key_op|none", "node:str", "fenced?:bool"),
        section="routing & degraded reads",
        summary="a dead node: serve the op degraded and rebuild the node",
    ),
    MessageKind(
        "read.degraded", "client", "coordinator", "call",
        ("key:int",),
        reply="{served:bool, found:bool, value:bytes|none}",
        section="routing & degraded reads",
        summary="record-recovery read for a live-but-slow bucket (hedge)",
    ),
    # -- file structure ------------------------------------------------
    MessageKind(
        "overflow", "data", "coordinator", "send",
        ("bucket:int", "size:int"),
        section="file structure",
        summary="level-triggered load report; split policy input",
    ),
    MessageKind(
        "underflow", "data", "coordinator", "send",
        ("bucket:int", "size:int"),
        section="file structure",
        summary="occupancy below the merge threshold",
    ),
    MessageKind(
        "split", "coordinator", "data", "call",
        ("target:int", "new_level:int"),
        reply="{kept:int, moved:int}",
        section="file structure",
        summary=(
            "move the upper half of the key range to a new bucket; "
            "`new_level` makes it idempotent (already there: no-op)"
        ),
    ),
    MessageKind(
        "records.bulk", "data", "data", "send",
        ("records:[moved_row]", "source:int"),
        section="file structure",
        summary="whole record move of a split/merge in one message",
    ),
    MessageKind(
        "merge", "coordinator", "data", "call",
        ("into:int",),
        reply="{moved:int}",
        section="file structure",
        summary="dissolve the last bucket into its sibling",
    ),
    MessageKind(
        "level.set", "coordinator", "data", "send",
        ("level:int",),
        section="file structure",
        summary="widen a merge source's hash coverage back",
    ),
    MessageKind(
        "status", "coordinator", "any bucket", "multicast/call",
        (),
        reply=(
            "{bucket:int, level:int, records:int, group?:int, position?:int, "
            "counter?:int, fenced?:bool, epoch?:int}|{group:int, index:int, "
            "records:int, parity_bytes:int, stale:bool, fenced?:bool, "
            "epoch?:int}"
        ),
        section="file structure",
        summary="probe: bucket number/level/size (A6, load polling)",
    ),
    MessageKind(
        "state", "client", "coordinator", "call",
        (),
        reply="{n:int, i:int, n0:int}",
        section="file structure",
        summary="authoritative file state for a fresh client image",
    ),
    # -- parity maintenance --------------------------------------------
    MessageKind(
        "parity.update", "data", "parity", "send/call",
        ("runs:[delta_run]",),
        reply="{status:str, applied:int}",
        section="parity maintenance",
        summary="a scalar mutation's Δ, a run of one; a `call` in `parity_ack` mode",
        seq_guard=("_fold_run", "_expected_seq"),
    ),
    MessageKind(
        "parity.batch", "data", "parity", "send/call",
        ("runs:[delta_run]",),
        reply="{status:str, applied:int}",
        section="parity maintenance",
        summary="the Δ-runs of one structural move or client batch",
        seq_guard=("_fold_run", "_expected_seq"),
    ),
    MessageKind(
        "parity.reset", "coordinator", "parity", "send",
        ("positions:[int]",),
        section="parity maintenance",
        summary="close retired positions' Δ-channels after a merge",
    ),
    MessageKind(
        "config.parity", "coordinator", "data", "send",
        ("targets:[str]",),
        section="parity maintenance",
        summary="new parity targets after an availability raise",
    ),
    MessageKind(
        "report.stale", "parity/data", "coordinator", "send",
        ("node:str",),
        section="parity maintenance",
        summary="a parity bucket missed Δ traffic — rebuild it from data",
    ),
    # -- recovery ------------------------------------------------------
    MessageKind(
        "bucket.dump", "coordinator", "data", "call",
        (),
        reply=(
            "{level:int, keys:[int], ranks:[int], payloads:[bytes], "
            "parity_seq:int}|{records:[moved_row], level:int}"
        ),
        section="recovery",
        summary=(
            "survivor data columns, the checkpoint image's content "
            "(ships batch-held Δs first)"
        ),
    ),
    MessageKind(
        "parity.dump", "coordinator", "parity", "call",
        (),
        reply="{store:parity_image, expected_seqs:{int->int}}",
        section="recovery",
        summary="a copy of the store image's used rows",
    ),
    MessageKind(
        "bucket.load", "coordinator", "data", "send",
        # the columns of ``bucket.dump``; the LH*g / LH*m baselines load
        # ``records`` and ``level`` instead (LH*g its insert ``counter``
        # too)
        ("level:int", "keys?:[int]", "ranks?:[int]", "payloads?:[bytes]",
         "parity_seq?:int", "records?:[moved_row]", "counter?:int"),
        section="recovery",
        summary="install decoded columns on a spare; resumes the Δ stream",
    ),
    MessageKind(
        "parity.load", "coordinator", "parity", "send",
        ("store:parity_image", "expected_seqs:{int->int}"),
        section="recovery",
        summary="install a rebuilt store image; aligns the Δ-channels",
    ),
    MessageKind(
        "parity.locate", "coordinator", "parity", "call",
        ("key:int",),
        reply="parity_snapshot|none",
        section="recovery",
        summary="which record group holds a key (record recovery step 1)",
    ),
    MessageKind(
        "parity.rank", "coordinator", "parity", "call",
        ("rank:int",),
        reply="parity_snapshot|none",
        section="recovery",
        summary="one rank's snapshot — extra shares for a degraded decode",
    ),
    MessageKind(
        "record.fetch", "coordinator", "data", "call",
        ("key:int",),
        reply="{found:bool, payload:bytes|none}",
        section="recovery",
        summary="direct payload fetch from a survivor (no A2)",
    ),
    MessageKind(
        "signature.dump", "auditor", "data/parity", "call",
        ("count?:int",),
        reply="{position?:int, index?:int, ranks:{int->[int]}}",
        section="recovery",
        summary="algebraic signatures per rank — the scrub/audit probe",
    ),
    MessageKind(
        "rejoin", "data/parity", "coordinator", "call",
        ("node:str", "kind?:str", "epoch?:int", "clean?:bool", "bucket?:int",
         "seq?:int", "group?:int", "index?:int", "expected_seqs?:{int->int}"),
        reply="{role:str, replacement?:str}",
        section="recovery",
        summary="restart handshake: current / spare / catch-up / rebuild",
    ),
    # -- durable restart & catch-up ------------------------------------
    MessageKind(
        "delta.tail", "coordinator", "parity", "call",
        ("pos:int", "after:int"),
        reply=(
            "{covered:bool, live:int, ops:[{seq:int, op:str, key:int, "
            "rank:int}]}"
        ),
        section="durable restart & catch-up",
        summary="Δ descriptors a restarted data bucket missed",
        seq_guard=("_expected_seq",),
    ),
    MessageKind(
        "catchup.load", "coordinator", "data", "call",
        ("set:[record_row]", "delete:[int]", "parity_seq:int",
         "resend_after?:int|none"),
        reply="{floor:int}",
        section="durable restart & catch-up",
        summary="final missed-key states; re-bases the Δ counter, unfences",
        seq_guard=("_parity_seq",),
    ),
    MessageKind(
        "wal.tail", "coordinator", "data", "call",
        ("after:int",),
        reply="{covered:bool, live:int, runs:[delta_run]}",
        section="durable restart & catch-up",
        summary="retained Δ-history past a parity bucket's durable prefix",
        seq_guard=("_parity_seq", "_seq_span"),
    ),
    MessageKind(
        "catchup.parity", "coordinator", "parity", "call",
        ("runs:[delta_run]",),
        reply="{ok:bool, applied:int}",
        section="durable restart & catch-up",
        summary="fold the missed Δs in channel order, then unfence",
        seq_guard=("_fold_run",),
    ),
    # -- coordinator HA ------------------------------------------------
    MessageKind(
        "coord.journal.append", "coordinator", "standby", "call",
        ("records:[journal_record]", "term:int"),
        reply="{lsn:int}",
        section="coordinator HA",
        summary="synchronous journal replication after each local append",
    ),
    MessageKind(
        "coord.journal.fetch", "standby", "coordinator/standby", "call",
        ("after:int",),
        reply="{records:[journal_record], term:int}",
        section="coordinator HA",
        summary="pull the journal suffix with lsn > after (gap fill)",
    ),
    MessageKind(
        "coord.checkpoint", "coordinator", "parity", "send",
        _COORD_STATE,
        section="coordinator HA",
        summary="durable coordinator state in the parity-bucket header",
    ),
    MessageKind(
        "coord.checkpoint.fetch", "coordinator", "parity", "call",
        (),
        reply="coord_state|none",
        section="coordinator HA",
        summary="journal-less takeover reads the newest header back",
    ),
    MessageKind(
        "coord.heartbeat", "coordinator", "standby", "send",
        ("term:int", "lsn:int"),
        section="coordinator HA",
        summary="lease renewal; a leading lsn triggers a fetch",
    ),
    MessageKind(
        "coord.ping", "standby", "coordinator", "call",
        (),
        reply="{term:int, lsn:int}",
        section="coordinator HA",
        summary="check-then-fence before a standby promotes itself",
    ),
    MessageKind(
        "coord.whois", "client", "standby", "call",
        (),
        reply="{primary:str, ready:bool, retry_after?:float|int}",
        section="coordinator HA",
        summary="who is primary? vouch / sit out the lease / promote inline",
    ),
    # -- scans ---------------------------------------------------------
    MessageKind(
        "scan", "client", "data", "multicast",
        ("scan:int", "client:str", "predicate:any", "deterministic:bool",
         "image:(int, int)", "assumed_level?:int"),
        reply="scan.reply",
        section="scans",
        summary="predicate scan; buckets forward to unknown descendants",
    ),
    MessageKind(
        "scan.reply", "data", "client", "send",
        ("scan:int", "bucket:int", "level:int", "matches:[moved_row]"),
        section="scans",
        summary="per-bucket matches (always sent under deterministic mode)",
    ),
    # -- LH*g baseline -------------------------------------------------
    MessageKind(
        "gparity.apply", "data", "parity file", "send",
        ("gkey:int", "op:str", "key:int", "delta:bytes", "length:int",
         "sender:str", "hops?:int"),
        section="LH*g baseline",
        summary="grouped-parity Δ addressed by the primary's F2 image",
        baseline=True,
    ),
    MessageKind(
        "gparity.iam", "parity file", "data", "send",
        ("j:int", "a:int"),
        section="LH*g baseline",
        summary="converges the primary's image of the parity file",
        baseline=True,
    ),
    MessageKind(
        "gparity.scan_for_bucket", "coordinator", "parity file", "multicast",
        ("bucket:int", "state:(int, int)", "n0:int"),
        reply="[gparity_record]",
        section="LH*g baseline",
        summary="A4: parity records with a member in the lost bucket",
        baseline=True,
    ),
    MessageKind(
        "gparity.locate", "coordinator", "parity file", "multicast",
        ("key:int",),
        reply="gparity_record|none",
        section="LH*g baseline",
        summary="A7 record recovery lookup",
        baseline=True,
    ),
    MessageKind(
        "gparity.load", "coordinator", "parity file", "send",
        ("records:[gparity_record]",),
        section="LH*g baseline",
        summary="rebuilt parity content onto a spare",
        baseline=True,
    ),
    MessageKind(
        "contributions.for_parity_bucket", "coordinator", "data",
        "multicast",
        ("bucket:int", "state:(int, int)"),
        reply="[(int, int, bytes)]",
        section="LH*g baseline",
        summary="A5: primary records whose parity lived at the lost bucket",
        baseline=True,
    ),
    # -- LH*m baseline -------------------------------------------------
    MessageKind(
        "mirror.insert", "data", "mirror", "send",
        ("key:int", "value:bytes"),
        section="LH*m baseline",
        summary="forwarded mutation (also `mirror.update`, same handler)",
        baseline=True,
    ),
    MessageKind(
        "mirror.update", "data", "mirror", "send",
        ("key:int", "value:bytes"),
        section="LH*m baseline",
        summary="forwarded upsert (aliased to the insert handler)",
        baseline=True,
    ),
    MessageKind(
        "mirror.delete", "data", "mirror", "send",
        ("key:int",),
        section="LH*m baseline",
        summary="forwarded removal",
        baseline=True,
    ),
    MessageKind(
        "mirror.bulk", "data", "mirror", "send",
        ("records:[moved_row]",),
        section="LH*m baseline",
        summary="forwarded split/merge record move",
        baseline=True,
    ),
    MessageKind(
        "mirror.split", "data", "mirror", "send",
        (),
        section="LH*m baseline",
        summary="drop the movers and bump the mirror's level",
        baseline=True,
    ),
    MessageKind(
        "mirror.search", "client", "mirror", "send",
        ("key:int", "client:str", "request:int"),
        reply="search.result",
        section="LH*m baseline",
        summary="degraded read while the primary is down",
        baseline=True,
    ),
    MessageKind(
        "mirror.dump", "coordinator", "mirror", "call",
        (),
        reply="{records:[moved_row], level:int}",
        section="LH*m baseline",
        summary="mirror snapshot for a primary rebuild",
        baseline=True,
    ),
    MessageKind(
        "mirror.load", "coordinator", "mirror", "send",
        ("records:[moved_row]", "level:int"),
        section="LH*m baseline",
        summary="install a copy on a rebuilt mirror",
        baseline=True,
    ),
)

#: The registry: kind -> :class:`MessageKind`.
REGISTRY: dict[str, MessageKind] = {entry.kind: entry for entry in _ENTRIES}


def kinds() -> frozenset[str]:
    """Every registered message kind."""
    return frozenset(REGISTRY)


def validate_registry() -> None:
    """Raise ``ValueError`` on an internally inconsistent registry."""
    problems: list[str] = []
    if len(REGISTRY) != len(_ENTRIES):
        problems.append("duplicate kinds in the registry")
    handlers: dict[str, str] = {}
    for entry in _ENTRIES:
        if not EVENT_NAME_RE.match(entry.kind):
            problems.append(f"kind {entry.kind!r} violates the kind grammar")
        mangled = handler_name(entry.kind)
        prior = handlers.get(mangled)
        # The dispatch mangling is lossy; aliased handlers (mirror.update
        # -> handle_mirror_insert in code) still get distinct mangles.
        if prior is not None:
            problems.append(
                f"kinds {prior!r} and {entry.kind!r} both dispatch to "
                f"{mangled}()"
            )
        handlers[mangled] = entry.kind
        for declared in entry.payload:
            match = FIELD_RE.match(declared)
            if match is not None and match.group(2) is None:
                problems.append(
                    f"{entry.kind}: field {declared!r} carries no type"
                )
        if not entry.reply and "call" in entry.mode:
            problems.append(f"{entry.kind}: a call declares no reply")
        for what, build in (
            ("payload", entry.payload_type), ("reply", entry.reply_type),
        ):
            problems.extend(
                f"{entry.kind}: {what}: {p}" for p in _type_problems(build)
            )
        if entry.section not in SECTIONS:
            problems.append(
                f"{entry.kind}: unknown section {entry.section!r}"
            )
    for name, text in SHAPES.items():
        if name in ATOMS or name in REGISTRY:
            problems.append(f"shape {name!r} shadows a type or a kind")
        problems.extend(
            f"shape {name}: {p}"
            for p in _type_problems(lambda: parse_type(text))
        )
    if problems:
        raise ValueError("; ".join(problems))


def resolve(parsed: Type, _open: tuple[str, ...] = ()) -> Type:
    """``parsed`` with every named shape replaced by its definition."""
    if parsed.tag == "ref":
        name = parsed.names[0]
        if name not in SHAPES:
            raise ValueError(f"unknown shape {name!r}")
        if name in _open:
            raise ValueError(f"shape {name!r} contains itself")
        return resolve(parse_type(SHAPES[name]), _open + (name,))
    return Type(
        parsed.tag,
        tuple(resolve(item, _open) for item in parsed.items),
        parsed.names,
    )


def _type_problems(build: "Callable[[], Type | None]") -> list[str]:
    """Grammar violations, unknown shapes and duplicate struct fields of
    the type ``build`` parses (None: nothing declared)."""
    try:
        parsed = build()
        pending = [] if parsed is None else [resolve(parsed)]
    except ValueError as error:
        return [str(error)]
    problems: list[str] = []
    while pending:
        parsed = pending.pop()
        pending.extend(parsed.items)
        stripped = [name.rstrip("?") for name in parsed.names]
        problems.extend(
            f"duplicate field {name!r}"
            for name in sorted(set(stripped))
            if stripped.count(name) > 1
        )
    return problems


def render_protocol_table(
    entries: "tuple[MessageKind, ...] | None" = None,
) -> str:
    """The generated message-kind index for docs/protocol.md.

    Deterministic: sorted by (section order, kind), fixed columns —
    the docs-sync checker compares this byte-for-byte against the block
    between :data:`TABLE_BEGIN` and :data:`TABLE_END`.
    """
    source = _ENTRIES if entries is None else tuple(entries)
    lines = [
        "| kind | flow | mode | payload | reply | notes |",
        "|---|---|---|---|---|---|",
    ]
    rank = {name: i for i, name in enumerate(SECTIONS)}
    entries_sorted = sorted(
        source, key=lambda e: (rank.get(e.section, len(SECTIONS)), e.kind)
    )
    current = None
    for entry in entries_sorted:
        if entry.section != current:
            current = entry.section
            lines.append(
                f"| **{current}** | | | | | |"
            )
        reply = (
            "`" + entry.reply.replace("|", "\\|") + "`" if entry.reply
            else "—"
        )
        payload = entry.payload_signature().replace("|", "\\|")
        lines.append(
            f"| `{entry.kind}` | {entry.sender} → {entry.receiver} "
            f"| {entry.mode} | `{payload}` | {reply} | {entry.summary} |"
        )
    return "\n".join(lines) + "\n"


validate_registry()
