"""The message-schema registry: every wire kind, machine-readable.

Each :class:`MessageKind` names one message kind, its top-level payload
fields (``"name"`` required at the sender, ``"name?"`` optional), the
roles on both ends, whether it travels as a fire-and-forget ``send``, a
request/reply ``call``, or a multicast, and — for handlers that fold
Δ-records — the identifiers of the per-channel sequence guard the
handler body must reference (``repro.lint``'s seq-guard checker).

Invariants (enforced by :func:`validate_registry`, which runs at import
and is pinned by ``tests/lint/test_registry.py``):

* kinds are unique and grammatical (``EVENT_NAME_RE``);
* the ``handle_<mangled>`` names derived from the kinds are unique —
  the dispatch mangling in :class:`repro.sim.node.Node` is lossy
  (``.`` and ``_`` both mangle to ``_``), so two kinds may not collide;
* payload field names are unique per kind and grammatical.

``repro.lint`` proves the live cross-check: sent-set == handled-set ==
registry-set over everything statically resolvable under ``src/repro``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

#: Grammar for message kinds and trace event types: dotted lowercase.
EVENT_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")
#: Grammar for metric instrument names: dotted lowercase (digits may
#: lead inner segments: ``op.e19.messages``-style labels).
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9][a-z0-9_]*)*$")
#: Grammar for one payload field name (optional fields end in ``?``).
FIELD_RE = re.compile(r"^[a-z][a-z0-9_]*\??$")

#: Markers bracketing the generated kind index in docs/protocol.md.
TABLE_BEGIN = "<!-- BEGIN GENERATED: protocol-kind-index -->"
TABLE_END = "<!-- END GENERATED: protocol-kind-index -->"


@dataclass(frozen=True)
class MessageKind:
    """One registered wire-message kind."""

    kind: str
    #: short role names, e.g. ``client -> data`` (documentation only).
    sender: str
    receiver: str
    #: ``send`` | ``call`` | ``send/call`` | ``multicast`` | ``multicast/call``
    mode: str
    #: top-level payload field names; ``?`` suffix marks optional.
    payload: tuple[str, ...] = ()
    #: reply shape for calls / the named reply kind for async replies.
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

    def required_fields(self) -> frozenset[str]:
        return frozenset(
            name for name in self.payload if not name.endswith("?")
        )

    def field_names(self) -> frozenset[str]:
        """Every legal top-level payload field (required + optional)."""
        return frozenset(name.rstrip("?") for name in self.payload)

    def payload_signature(self) -> str:
        """Human-readable payload shape for the generated table."""
        if not self.payload:
            return "—"
        return "{" + ", ".join(self.payload) + "}"


def handler_name(kind: str) -> str:
    """The ``handle_*`` method a kind dispatches to (Node.receive)."""
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

_ENTRIES: tuple[MessageKind, ...] = (
    # -- key operations (client -> data bucket) ------------------------
    MessageKind(
        "insert", "client", "data", "send",
        ("key", "value", "client", "ack?", "hops?"),
        section="key operations",
        summary="store a record; acceptor runs A2, forwards if misaddressed",
    ),
    MessageKind(
        "update", "client", "data", "send",
        ("key", "value", "client", "ack?", "hops?"),
        section="key operations",
        summary="upsert; absent key answers `op.error`",
    ),
    MessageKind(
        "delete", "client", "data", "send",
        ("key", "client", "ack?", "hops?"),
        section="key operations",
        summary="idempotent removal",
    ),
    MessageKind(
        "search", "client", "data", "send",
        ("key", "client", "request", "hops?"),
        reply="search.result",
        section="key operations",
        summary="point read; acceptor replies `search.result` to the client",
    ),
    # -- client replies ------------------------------------------------
    MessageKind(
        "search.result", "data", "client", "send",
        ("request", "key", "found", "value"),
        section="client replies",
        summary="answer to `search` (also sent by mirror/degraded paths)",
    ),
    MessageKind(
        "op.ack", "data", "client", "send",
        ("token", "bucket"),
        section="client replies",
        summary="tokened-mutation confirmation (`client_acks` mode)",
    ),
    MessageKind(
        "op.error", "data", "client", "send",
        ("key", "reason"),
        section="client replies",
        summary="typed per-op refusal (e.g. update of an absent key)",
    ),
    MessageKind(
        "iam", "data", "client", "send",
        ("j", "a"),
        section="client replies",
        summary="acceptor's level and address — the A3 image adjustment",
    ),
    MessageKind(
        "iam.state", "coordinator", "client", "send",
        ("n", "i"),
        section="client replies",
        summary="authoritative image overwrite on routed deliveries",
    ),
    # -- batched data plane --------------------------------------------
    MessageKind(
        "ops.batch", "client", "data", "call",
        ("ops", "client"),
        reply="{j, a, results}",
        section="batched data plane",
        summary="one image-binned sub-batch; the reply doubles as an IAM",
    ),
    # -- routing & degraded reads --------------------------------------
    MessageKind(
        "route", "client", "coordinator", "send",
        ("kind", "op"),
        section="routing & degraded reads",
        summary="addressing failed; coordinator delivers by true state",
    ),
    MessageKind(
        "report.unavailable", "client/data", "coordinator", "send",
        ("kind", "op", "node"),
        section="routing & degraded reads",
        summary="a dead node: serve the op degraded and rebuild the node",
    ),
    MessageKind(
        "read.degraded", "client", "coordinator", "call",
        ("key",),
        reply="{served, found, value}",
        section="routing & degraded reads",
        summary="record-recovery read for a live-but-slow bucket (hedge)",
    ),
    # -- file structure ------------------------------------------------
    MessageKind(
        "overflow", "data", "coordinator", "send",
        ("bucket", "size"),
        section="file structure",
        summary="level-triggered load report; split policy input",
    ),
    MessageKind(
        "underflow", "data", "coordinator", "send",
        ("bucket", "size"),
        section="file structure",
        summary="occupancy below the merge threshold",
    ),
    MessageKind(
        "split", "coordinator", "data", "call",
        ("target", "new_level"),
        reply="{kept, moved}",
        section="file structure",
        summary="move the upper half of the key range to a new bucket",
    ),
    MessageKind(
        "records.bulk", "data", "data", "send",
        ("records", "source"),
        section="file structure",
        summary="whole record move of a split/merge in one message",
    ),
    MessageKind(
        "merge", "coordinator", "data", "call",
        ("into", "retiring?"),
        reply="{moved}",
        section="file structure",
        summary="dissolve the last bucket into its sibling",
    ),
    MessageKind(
        "level.set", "coordinator", "data", "send",
        ("level",),
        section="file structure",
        summary="widen a merge source's hash coverage back",
    ),
    MessageKind(
        "status", "coordinator", "any bucket", "multicast/call",
        (),
        reply="{level, size, ...}",
        section="file structure",
        summary="probe: bucket number/level/size (A6, load polling)",
    ),
    MessageKind(
        "state", "client", "coordinator", "call",
        (),
        reply="{n, i, n0}",
        section="file structure",
        summary="authoritative file state for a fresh client image",
    ),
    # -- parity maintenance --------------------------------------------
    MessageKind(
        "parity.update", "data", "parity", "send/call",
        ("op", "key", "rank", "pos", "delta", "length", "seq"),
        reply="{status, expected?}",
        section="parity maintenance",
        summary="one Δ-record; a `call` in `parity_ack` mode",
        seq_guard=("_fold_run", "_expected_seq"),
    ),
    MessageKind(
        "parity.batch", "data/coordinator", "parity", "send/call",
        ("ops", "expected_seqs?"),
        reply="{status, applied}",
        section="parity maintenance",
        summary="Δ-op list or columnar Δ-blocks; encode batches re-base",
        seq_guard=("_fold_run", "_expected_seq"),
    ),
    MessageKind(
        "parity.flush", "any", "data", "call",
        (),
        reply="{flushed}",
        section="parity maintenance",
        summary="force a lazy-mode Δ-queue flush",
    ),
    MessageKind(
        "parity.reset", "coordinator", "parity", "send",
        ("positions",),
        section="parity maintenance",
        summary="close retired positions' Δ-channels after a merge",
    ),
    MessageKind(
        "config.parity", "coordinator", "data", "send",
        ("targets",),
        section="parity maintenance",
        summary="new parity targets after an availability raise",
    ),
    MessageKind(
        "report.stale", "parity/data", "coordinator", "send",
        ("node",),
        section="parity maintenance",
        summary="a parity bucket missed Δ traffic — rebuild it from data",
    ),
    # -- recovery ------------------------------------------------------
    MessageKind(
        "bucket.dump", "coordinator", "data", "call",
        (),
        reply="{records, counter, free_ranks, level, ...}",
        section="recovery",
        summary="survivor data snapshot (flushes lazy Δs first)",
    ),
    MessageKind(
        "parity.dump", "coordinator", "parity", "call",
        (),
        reply="{records}",
        section="recovery",
        summary="all parity-record snapshots",
    ),
    MessageKind(
        "bucket.load", "coordinator", "data", "send",
        ("records", "counter", "free_ranks?", "level", "parity_seq?"),
        section="recovery",
        summary="install decoded state on a spare; resumes the Δ stream",
    ),
    MessageKind(
        "parity.load", "coordinator", "parity", "send",
        ("records", "expected_seqs"),
        section="recovery",
        summary="install rebuilt parity; aligns the Δ-channels",
    ),
    MessageKind(
        "parity.locate", "coordinator", "parity", "call",
        ("key",),
        reply="{rank, members} | None",
        section="recovery",
        summary="which record group holds a key (record recovery step 1)",
    ),
    MessageKind(
        "parity.rank", "coordinator", "parity", "call",
        ("rank",),
        reply="record snapshot | None",
        section="recovery",
        summary="one rank's snapshot — extra shares for a degraded decode",
    ),
    MessageKind(
        "record.fetch", "coordinator", "data", "call",
        ("key",),
        reply="{found, payload}",
        section="recovery",
        summary="direct payload fetch from a survivor (no A2)",
    ),
    MessageKind(
        "signature.dump", "auditor", "data/parity", "call",
        ("count?",),
        reply="{position|index, ranks}",
        section="recovery",
        summary="algebraic signatures per rank — the scrub/audit probe",
    ),
    MessageKind(
        "rejoin", "data/parity", "coordinator", "call",
        ("node", "epoch?", "clean?", "bucket?", "seq?",
         "group?", "index?", "expected_seqs?"),
        reply="{role}",
        section="recovery",
        summary="restart handshake: current / spare / catch-up / rebuild",
    ),
    # -- durable restart & catch-up ------------------------------------
    MessageKind(
        "delta.tail", "coordinator", "parity", "call",
        ("pos", "after"),
        reply="{covered, live, ops}",
        section="durable restart & catch-up",
        summary="Δ descriptors a restarted data bucket missed",
        seq_guard=("_expected_seq",),
    ),
    MessageKind(
        "catchup.load", "coordinator", "data", "call",
        ("set", "delete", "parity_seq", "resend_after?"),
        reply="{floor}",
        section="durable restart & catch-up",
        summary="final missed-key states; re-bases the Δ counter, unfences",
        seq_guard=("_parity_seq",),
    ),
    MessageKind(
        "wal.tail", "coordinator", "data", "call",
        ("after",),
        reply="{covered, live, ops}",
        section="durable restart & catch-up",
        summary="retained Δ-history past a parity bucket's durable prefix",
        seq_guard=("_parity_seq", "_entry_seq_range"),
    ),
    MessageKind(
        "catchup.parity", "coordinator", "parity", "call",
        ("ops",),
        reply="{ok, applied}",
        section="durable restart & catch-up",
        summary="fold the missed Δs in channel order, then unfence",
        seq_guard=("_fold_run",),
    ),
    # -- coordinator HA ------------------------------------------------
    MessageKind(
        "coord.journal.append", "coordinator", "standby", "call",
        ("records", "term"),
        reply="{lsn}",
        section="coordinator HA",
        summary="synchronous journal replication after each local append",
    ),
    MessageKind(
        "coord.journal.fetch", "standby", "coordinator/standby", "call",
        ("after",),
        reply="{records, term}",
        section="coordinator HA",
        summary="pull the journal suffix with lsn > after (gap fill)",
    ),
    MessageKind(
        "coord.checkpoint", "coordinator", "parity", "send",
        ("lsn", "n", "i", "group_levels", "spares", "term"),
        section="coordinator HA",
        summary="durable coordinator state in the parity-bucket header",
    ),
    MessageKind(
        "coord.checkpoint.fetch", "coordinator", "parity", "call",
        (),
        reply="checkpoint | None",
        section="coordinator HA",
        summary="journal-less takeover reads the newest header back",
    ),
    MessageKind(
        "coord.heartbeat", "coordinator", "standby", "send",
        ("term", "lsn"),
        section="coordinator HA",
        summary="lease renewal; a leading lsn triggers a fetch",
    ),
    MessageKind(
        "coord.ping", "standby", "coordinator", "call",
        (),
        reply="{term, lsn}",
        section="coordinator HA",
        summary="check-then-fence before a standby promotes itself",
    ),
    MessageKind(
        "coord.whois", "client", "standby", "call",
        (),
        reply="{primary, ready, retry_after?}",
        section="coordinator HA",
        summary="who is primary? vouch / sit out the lease / promote inline",
    ),
    # -- scans ---------------------------------------------------------
    MessageKind(
        "scan", "client", "data", "multicast",
        ("scan", "client", "predicate", "deterministic", "image",
         "assumed_level?"),
        reply="scan.reply",
        section="scans",
        summary="predicate scan; buckets forward to unknown descendants",
    ),
    MessageKind(
        "scan.reply", "data", "client", "send",
        ("scan", "bucket", "level", "matches"),
        section="scans",
        summary="per-bucket matches (always sent under deterministic mode)",
    ),
    # -- LH*g baseline -------------------------------------------------
    MessageKind(
        "gparity.apply", "data", "parity file", "send",
        ("gkey", "op", "key", "delta", "length", "sender", "hops?"),
        section="LH*g baseline",
        summary="grouped-parity Δ addressed by the primary's F2 image",
        baseline=True,
    ),
    MessageKind(
        "gparity.iam", "parity file", "data", "send",
        ("j", "a"),
        section="LH*g baseline",
        summary="converges the primary's image of the parity file",
        baseline=True,
    ),
    MessageKind(
        "gparity.scan_for_bucket", "coordinator", "parity file", "multicast",
        ("bucket", "state", "n0"),
        reply="[records]",
        section="LH*g baseline",
        summary="A4: parity records with a member in the lost bucket",
        baseline=True,
    ),
    MessageKind(
        "gparity.locate", "coordinator", "parity file", "multicast",
        ("key",),
        reply="record | None",
        section="LH*g baseline",
        summary="A7 record recovery lookup",
        baseline=True,
    ),
    MessageKind(
        "gparity.load", "coordinator", "parity file", "send",
        ("records",),
        section="LH*g baseline",
        summary="rebuilt parity content onto a spare",
        baseline=True,
    ),
    MessageKind(
        "contributions.for_parity_bucket", "coordinator", "data",
        "multicast",
        ("bucket", "state"),
        reply="[records]",
        section="LH*g baseline",
        summary="A5: primary records whose parity lived at the lost bucket",
        baseline=True,
    ),
    # -- LH*m baseline -------------------------------------------------
    MessageKind(
        "mirror.insert", "data", "mirror", "send",
        ("key", "value"),
        section="LH*m baseline",
        summary="forwarded mutation (also `mirror.update`, same handler)",
        baseline=True,
    ),
    MessageKind(
        "mirror.update", "data", "mirror", "send",
        ("key", "value"),
        section="LH*m baseline",
        summary="forwarded upsert (aliased to the insert handler)",
        baseline=True,
    ),
    MessageKind(
        "mirror.delete", "data", "mirror", "send",
        ("key",),
        section="LH*m baseline",
        summary="forwarded removal",
        baseline=True,
    ),
    MessageKind(
        "mirror.bulk", "data", "mirror", "send",
        ("records",),
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
        ("key", "client", "request"),
        reply="search.result",
        section="LH*m baseline",
        summary="degraded read while the primary is down",
        baseline=True,
    ),
    MessageKind(
        "mirror.dump", "coordinator", "mirror", "call",
        (),
        reply="{records, level}",
        section="LH*m baseline",
        summary="mirror snapshot for a primary rebuild",
        baseline=True,
    ),
    MessageKind(
        "mirror.load", "coordinator", "mirror", "send",
        ("records", "level"),
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
        seen: set[str] = set()
        for name in entry.payload:
            if not FIELD_RE.match(name):
                problems.append(
                    f"{entry.kind}: field {name!r} violates the grammar"
                )
            stripped = name.rstrip("?")
            if stripped in seen:
                problems.append(f"{entry.kind}: duplicate field {stripped!r}")
            seen.add(stripped)
        if entry.section not in SECTIONS:
            problems.append(
                f"{entry.kind}: unknown section {entry.section!r}"
            )
    if problems:
        raise ValueError("; ".join(problems))


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
        reply = entry.reply.replace("|", "\\|") if entry.reply else "—"
        payload = entry.payload_signature().replace("|", "\\|")
        lines.append(
            f"| `{entry.kind}` | {entry.sender} → {entry.receiver} "
            f"| {entry.mode} | `{payload}` | {reply} | {entry.summary} |"
        )
    return "\n".join(lines) + "\n"


validate_registry()
