"""Bucket, record and file-state recovery for LH*RS.

All recovery is coordinated from the coordinator's node (the paper's
design: unavailability reports converge there, spares are allocated
there).  Every step that would be a network interaction *is* one — dumps
and loads travel as counted messages — so the experiments read recovery
costs straight off the accounting windows.

* **Group recovery** (`recover_group`): any ≤ k lost buckets of one
  bucket group, data and/or parity, rebuilt in one pass: dump the
  survivors, decode each record group (rank) with the RS codec — the
  single-data-loss case rides the XOR fast path — and bulk-load fresh
  servers registered under the lost buckets' logical addresses.
* **Record recovery** (`recover_record`): the degraded-mode fast path
  serving one key search while bucket recovery would still be running;
  also delivers *certain* unsuccessful searches (the parity directory is
  authoritative about which keys exist).  The group's parity bucket does
  the work (``parity.recover``); the coordinator only picks which one.
* **Delta catch-up** (`catch_up_data` / `catch_up_parity`): a cleanly
  restarted bucket gets the Δ-runs it lost back from the other kind's
  history rings (`runs.tail`), in one `runs.catchup` either way.
* **File-state reconstruction** (`reconstruct_state`): the A6-style
  procedure computing (n, i) from surviving buckets' levels.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from repro.core.group import data_node, group_buckets, group_of, parity_node, position_of
from repro.core.stripe_store import ABSENT, NO_KEY
from repro.rs.codec import RSCodec
from repro.sim.network import DeliveryFault, NodeUnavailable

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.coordinator import RSCoordinator


class RecoveryError(RuntimeError):
    """Recovery impossible (too many failures) or inconsistent state.

    The algorithms are designed to fail loudly: multiple failures beyond
    the availability level block the operation rather than silently
    losing data.
    """


class IntegrityError(RecoveryError):
    """Survivors that must agree do not: two parity directories, or a
    data bucket and the parity directory.  Recovery refuses to decode
    rather than rebuild from a parity bucket that missed a Δ."""


class RecoveryPacer:
    """Token bucket throttling rebuild transfers against foreground load.

    An unpaced rebuild fires its survivor dumps and spare loads
    back-to-back, parking a burst of work on every survivor's service
    queue — foreground reads then wait behind the rebuild, exactly the
    recovery-starves-clients failure mode.  With pacing, ``rate``
    tokens accrue per clock unit (up to ``burst``); each transfer costs
    its weight in records moved, and on a deficit the recovery *waits*
    — advancing the simulated clock, which drains survivor queues —
    before continuing.
    """

    def __init__(self, network, rate: float, burst: float):
        if rate <= 0:
            raise ValueError("pace rate must be positive")
        if burst < 1:
            raise ValueError("burst must allow at least one transfer")
        self.network = network
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self._last = network.now
        self.waits = 0
        self.waited = 0.0

    def _refill(self) -> None:
        now = self.network.now
        self.tokens = min(self.burst, self.tokens + (now - self._last) * self.rate)
        self._last = now

    def pace(self, cost: float = 1.0) -> None:
        """Take ``cost`` tokens, waiting out any deficit first."""
        net = self.network
        self._refill()
        if self.tokens < cost:
            wait = (cost - self.tokens) / self.rate
            self.waits += 1
            self.waited += wait
            if net.tracer is not None:
                net.tracer.emit("recovery.paced", round(wait, 3))
            if net.metrics is not None:
                net.metrics.counter(
                    "recovery.pace.waits", "rebuild transfers throttled"
                ).inc()
                net.metrics.gauge(
                    "recovery.pace.waited", "total clock units recovery yielded"
                ).inc(wait)
            net.advance(wait)
            self._refill()
        self.tokens -= cost


def parse_node_id(file_id: str, node_id: str):
    """Classify a node id: ("data", bucket), ("parity", group, index),
    or None for foreign/client/coordinator nodes."""
    prefix = f"{file_id}."
    if not node_id.startswith(prefix):
        return None
    rest = node_id[len(prefix):]
    if rest.startswith("d") and rest[1:].isdigit():
        return ("data", int(rest[1:]))
    if rest.startswith("p"):
        parts = rest[1:].split(".")
        if len(parts) == 2 and all(p.isdigit() for p in parts):
            return ("parity", int(parts[0]), int(parts[1]))
    return None


def reconstruct_state(levels: dict[int, int], n0: int) -> tuple[int, int]:
    """A6-style file-state reconstruction from bucket levels.

    ``levels`` maps surviving bucket numbers to their levels j_m.  The
    split boundary (j_{m-1} = j_m + 1) pins (n, i) exactly; if it is not
    visible (all equal levels, or the boundary bucket among the lost),
    the identity M = n + 2^i N over the largest observed bucket is used.
    """
    if not levels:
        raise RecoveryError("no surviving buckets to reconstruct the state from")
    i = min(levels.values())
    for m in sorted(levels):
        if m - 1 in levels and levels[m - 1] == levels[m] + 1:
            return m, levels[m]
    if max(levels.values()) == i:
        # All levels equal: either n = 0, or the boundary is hidden by a
        # loss; fall back to the extent identity.
        total = max(levels) + 1
        n = total - (1 << i) * n0
        return max(n, 0), i
    # Mixed levels but no adjacent boundary visible: the pointer bucket
    # itself is lost; the first bucket still at level i bounds it.
    return min(m for m, j in levels.items() if j == i), i


# -- a rebuild's columns: every (ranks x m) array below is in rank order --
def _directory_of(data: dict[int, dict], m: int, field):
    """What :func:`_align` gives, from the data dumps when no data is lost:
    ranks, directory, longest member (symbols), no parity stripes."""
    ranks = np.unique(np.fromiter(
        chain.from_iterable(dump["ranks"] for dump in data.values()), np.int64
    ))
    keys = np.full((len(ranks), m), NO_KEY, dtype=np.int64)
    lengths = np.full((len(ranks), m), ABSENT, dtype=np.int64)
    for pos, dump in data.items():
        rows = ranks.searchsorted(dump["ranks"])
        keys[rows, pos] = dump["keys"]
        lengths[rows, pos] = list(map(len, dump["payloads"]))
    longest = np.maximum.reduce(lengths, axis=1, initial=0)
    return ranks, keys, lengths, field.symbol_length_for_bytes(longest), {}


def _directory(image: dict) -> tuple:
    """A store image's rows in rank order: ``(rows, ranks, keys,
    lengths)``, ``rows`` the image row of each."""
    rank_of = np.array(image["rank_of"], dtype=np.int64)
    cells = np.array([image["dir_keys"], image["dir_lengths"]], dtype=np.int64)
    cells = cells.reshape(2, len(rank_of), image["slots"])
    if image["rank_of"] == sorted(image["rank_of"]):  # the usual case
        return np.arange(len(rank_of)), rank_of, *cells
    rows = rank_of.argsort()
    return rows, rank_of[rows], *cells[:, rows]


def _align(group: int, parity_dumps: dict[int, dict], m: int):
    """``(ranks, keys, lengths, extents, stripes)`` of the surviving
    parity images: the directory they share and the widest extent per
    rank, in rank order, and under each one's codeword position the
    image with its row of every rank.  Their directories must agree."""
    images = {m + index: dump["store"] for index, dump in parity_dumps.items()}
    base = next(iter(images.values()))
    order, *directory = _directory(base)
    alike, others, stripes = [], [], {}
    for pos, image in images.items():
        if image["rank_of"] == base["rank_of"]:  # its rows in the same order
            rows = order
            agree = (image["dir_keys"], image["dir_lengths"]) == (
                base["dir_keys"], base["dir_lengths"]
            )
            alike.append(image["extents"])
        else:
            rows, *mine = _directory(image)
            agree = all(map(np.array_equal, mine, directory))
            others.append(np.array(image["extents"], dtype=np.int64)[rows])
        if not agree:
            raise IntegrityError(
                f"group {group}: surviving parity directories disagree"
            )
        stripes[pos] = image, rows
    extents = np.maximum.reduce(np.array(alike, dtype=np.int64), axis=0)[order]
    for other in others:
        np.maximum(extents, other, out=extents)
    return (*directory, extents, stripes)


class RecoveryManager:
    """Executes recovery on behalf of an :class:`RSCoordinator`."""

    def __init__(self, coordinator: "RSCoordinator"):
        self.coordinator = coordinator
        #: counters for the experiments
        self.groups_recovered = 0
        self.records_reconstructed = 0
        self.degraded_reads_served = 0
        #: groups with a recovery in progress (reentrancy guard: dumping
        #: a survivor can flush Δs to a dead parity bucket, whose
        #: unavailability report must not start a nested recovery of the
        #: very group being rebuilt)
        self._recovering_groups: set[int] = set()

    # ------------------------------------------------------------------
    # shortcuts into the coordinator's world
    # ------------------------------------------------------------------
    @property
    def _file_id(self) -> str:
        return self.coordinator.file_id

    @property
    def _net(self):
        return self.coordinator._net()

    def _codec(self, group: int) -> RSCodec:
        cfg = self.coordinator.config
        return RSCodec(
            m=cfg.group_size,
            k=self.coordinator.group_level(group),
            field=self.coordinator.field,
            kind=cfg.generator,
        )

    def _account_transfer(self, pacer, node_id: str, payload: dict) -> None:
        """Account one rebuild transfer's weight (``payload`` is the
        dump reply or the load sent: a data bucket's columns or a parity
        bucket's ``store`` image).

        A dump/load moves a whole bucket in one RPC, not one request's
        worth of work: the service plane (when installed) parks one unit
        of serialization backlog per record moved on the node, and the
        pacer is charged the same cost — so ``recovery_pace_rate`` reads
        as records per clock unit.  Pacing *after* the transfer lets the
        just-charged queue drain before the next one fires.
        """
        records = payload["store"]["rank_of"] if "store" in payload else payload["keys"]
        units = float(max(1, len(records)))
        net = self._net
        if net.service is not None:
            net.service.charge_bulk(node_id, units, net.now)
        if pacer is not None:
            pacer.pace(units)

    # ------------------------------------------------------------------
    # entry point: a set of failed nodes
    # ------------------------------------------------------------------
    def recover_nodes(self, node_ids: list[str], best_effort: bool = False) -> dict:
        """Recover every listed failed node, grouping work per bucket group.

        With ``best_effort=True`` (the self-healing probe loop) a group
        whose recovery fails — more than k members down, or the spare
        pool exhausted — is *recorded* under ``errors`` instead of
        aborting the sweep, so one doomed group never blocks the repair
        of the others.
        """
        per_group: dict[int, dict[str, list[int]]] = {}
        for node_id in node_ids:
            parsed = parse_node_id(self._file_id, node_id)
            if parsed is None:
                raise RecoveryError(f"cannot recover foreign node {node_id!r}")
            if parsed[0] == "data":
                bucket = parsed[1]
                g = group_of(bucket, self.coordinator.config.group_size)
                per_group.setdefault(g, {"data": [], "parity": []})["data"].append(bucket)
            else:
                _, g, index = parsed
                per_group.setdefault(g, {"data": [], "parity": []})["parity"].append(index)
        summary = {"groups": 0, "data_buckets": 0, "parity_buckets": 0, "records": 0}
        errors: list[dict] = []
        for g, lost in sorted(per_group.items()):
            if g in self._recovering_groups:
                continue  # already being rebuilt higher up the stack
            try:
                stats = self.recover_group(g, lost["data"], lost["parity"])
            except RecoveryError as err:
                if not best_effort:
                    raise
                errors.append({"group": g, "error": str(err)})
                continue
            summary["groups"] += 1
            summary["data_buckets"] += len(lost["data"])
            summary["parity_buckets"] += len(lost["parity"])
            summary["records"] += stats["records"]
        if best_effort:
            summary["errors"] = errors
        return summary

    # ------------------------------------------------------------------
    # group recovery
    # ------------------------------------------------------------------
    def recover_group(
        self, group: int, lost_data: list[int], lost_parity: list[int]
    ) -> dict:
        """Rebuild the given lost buckets of one group onto spares."""
        if group in self._recovering_groups:
            return {
                "group": group,
                "data_buckets": [],
                "parity_buckets": [],
                "records": 0,
                "skipped": True,
            }
        self._recovering_groups.add(group)
        lost_data, lost_parity = sorted(set(lost_data)), sorted(set(lost_parity))
        tracer = self._net.tracer
        # Recovery intent: a coordinator crash mid-rebuild leaves this
        # begin record open, and the takeover re-probes the group (the
        # rebuild itself is idempotent roll-forward — spares are fresh).
        begin = self.coordinator._journal(
            "intent.begin",
            op="recover",
            group=group,
            lost_data=lost_data,
            lost_parity=lost_parity,
        )
        span = nullcontext() if tracer is None else tracer.span(
            "recovery", group=group, lost_data=lost_data, lost_parity=lost_parity
        )
        try:
            try:
                with span:
                    stats = self._recover_group_locked(
                        group, lost_data, lost_parity
                    )
            except RecoveryError:
                self.coordinator._journal(
                    "intent.end", begin=begin.lsn, outcome="abort"
                )
                raise
            self.coordinator._journal("intent.end", begin=begin.lsn)
            return stats
        finally:
            self._recovering_groups.discard(group)

    def _recover_group_locked(
        self, group: int, lost_data: list[int], lost_parity: list[int]
    ) -> dict:
        """The rebuild in its phases: collect the survivors, promote the
        stale ones, claim the spares, decode, install."""
        coordinator = self.coordinator
        tracer = self._net.tracer
        if tracer is not None:
            tracer.emit("recovery.start", group)
        cfg = coordinator.config
        # A fresh token bucket per rebuild (None = pacing off).
        pacer = None if cfg.recovery_pace_rate is None else RecoveryPacer(
            self._net, cfg.recovery_pace_rate, cfg.recovery_pace_burst
        )
        data_dumps, parity_dumps, lost_data, lost_parity = (
            self._collect_survivors(group, lost_data, lost_parity, pacer)
        )
        # Crash point: survivors dumped, nothing claimed or installed
        # yet — the window a takeover must re-probe (see recover_group's
        # intent record).
        coordinator._crash_hook("recover.mid")
        lost_parity = self._promote_stale(
            group, data_dumps, parity_dumps, lost_data, lost_parity
        )
        # Claim every needed spare before the rebuild: pool exhaustion
        # must abort before any server is torn down, never mid-install.
        for _ in range(len(lost_data) + len(lost_parity)):
            coordinator.take_spare()

        new_data, new_parity, decoded = self._rebuild(
            group, data_dumps, parity_dumps, lost_data, lost_parity
        )
        self._install(group, data_dumps, parity_dumps, new_data, new_parity, pacer)

        self.groups_recovered += 1
        self.records_reconstructed += decoded
        if tracer is not None:
            tracer.emit(
                "recovery.end", group, decoded, len(lost_data),
                len(lost_parity),
            )
        return {
            "group": group,
            "data_buckets": lost_data,
            "parity_buckets": lost_parity,
            "records": decoded,
        }

    def _dump(self, node_id: str, kind: str, pacer: RecoveryPacer | None) -> dict:
        """One member's ``bucket.dump`` / ``parity.dump``, accounted."""
        dump = self._net.call(self.coordinator.node_id, node_id, kind)
        self._account_transfer(pacer, node_id, dump)
        return dump

    def dump_data(
        self, group: int, lost: list[int] = (), pacer: RecoveryPacer | None = None
    ) -> dict[int, dict]:
        """Dumps of ``group``'s data buckets not in ``lost``, by bucket
        number; a dead one raises ``NodeUnavailable``."""
        cfg = self.coordinator.config
        return {
            b: self._dump(data_node(self._file_id, b), "bucket.dump", pacer)
            for b in group_buckets(
                group, cfg.group_size, self.coordinator.state.bucket_count
            )
            if b not in lost
        }

    def _collect_survivors(
        self, group: int, lost_data: list[int], lost_parity: list[int],
        pacer: RecoveryPacer | None,
    ) -> tuple[dict[int, dict], dict[int, dict], list[int], list[int]]:
        """Dump every member not lost (counted messages); returns the
        data dumps, the parity dumps and the widened loss lists."""
        m = self.coordinator.config.group_size
        k = self.coordinator.group_level(group)
        data_buckets = group_buckets(group, m, self.coordinator.state.bucket_count)
        for bucket in lost_data:
            if bucket not in data_buckets:
                raise RecoveryError(
                    f"bucket {bucket} is not an existing member of group {group}"
                )
        for index in lost_parity:
            if index >= k:
                raise RecoveryError(
                    f"parity index {index} beyond group {group}'s level {k}"
                )
        # Widen to any additional members found unavailable right now.
        available = self._net.is_available
        lost_data = sorted({*lost_data, *(
            b for b in data_buckets
            if not available(data_node(self._file_id, b))
        )})
        lost_parity = sorted({*lost_parity, *(
            i for i in range(k)
            if not available(parity_node(self._file_id, group, i))
        )})

        # Every dump is a top-level call, so the clock ticks between
        # them and a scheduled failure can take a survivor down *mid-
        # recovery*.  Fold the casualty into the lost set and restart
        # the collection rather than decoding from a torn survivor set.
        while True:
            if len(lost_data) + len(lost_parity) > k:
                raise RecoveryError(
                    f"group {group}: {len(lost_data)} data + "
                    f"{len(lost_parity)} parity buckets lost exceeds "
                    f"availability level k={k}"
                )
            try:
                data_dumps = self.dump_data(group, lost_data, pacer)
                parity_dumps = {
                    i: self._dump(
                        parity_node(self._file_id, group, i), "parity.dump", pacer
                    )
                    for i in range(k) if i not in lost_parity
                }
            except NodeUnavailable as failure:
                parsed = parse_node_id(self._file_id, failure.node_id)
                if parsed is None:  # pragma: no cover - own group members only
                    raise
                if parsed[0] == "data":
                    lost_data = sorted({*lost_data, parsed[1]})
                else:
                    lost_parity = sorted({*lost_parity, parsed[2]})
                continue
            return data_dumps, parity_dumps, lost_data, lost_parity

    def _promote_stale(
        self, group: int, data_dumps: dict[int, dict],
        parity_dumps: dict[int, dict], lost_data: list[int],
        lost_parity: list[int],
    ) -> list[int]:
        """Stale-survivor promotion; returns the widened ``lost_parity``.

        A surviving parity bucket whose Δ channel lags a surviving data
        bucket's sequence counter missed traffic (fire-and-forget mode,
        or a crash report racing the Δ fan-out).  Folding a decode
        through its payloads would resurrect deleted records, so it is
        promoted into the lost set (its dump dropped) and re-encoded
        from current data.
        """
        k = self.coordinator.group_level(group)
        data_seqs = self._data_seqs(data_dumps)
        stale = sorted(
            index for index, dump in parity_dumps.items()
            if any(
                dump.get("expected_seqs", {}).get(pos, 1) < seq + 1
                for pos, seq in data_seqs.items()
            )
        )
        if len(lost_data) + len(lost_parity) + len(stale) > k:
            raise RecoveryError(
                f"group {group}: surviving parity {stale} lag the data "
                f"buckets; rebuilding them too exceeds availability "
                f"level k={k}"
            )
        for index in stale:
            del parity_dumps[index]
        return sorted({*lost_parity, *stale})

    def _data_seqs(self, data_dumps: dict[int, dict]) -> dict[int, int]:
        """Group position -> Δ sequence counter of each dumped bucket."""
        m = self.coordinator.config.group_size
        return {
            position_of(b, m): dump.get("parity_seq", 0)
            for b, dump in data_dumps.items()
        }

    # ------------------------------------------------------------------
    def _rebuild(
        self,
        group: int,
        data_dumps: dict[int, dict],
        parity_dumps: dict[int, dict],
        lost_data: list[int],
        lost_parity: list[int],
    ) -> tuple[dict[int, dict], dict[int, dict], int]:
        """Decode every affected record group; assemble spare contents.

        Everything is a column: the key / length directory is the
        surviving parity images aligned by rank (with no data lost, the
        data buckets' columns).  The survivors are the same for every
        rank, so the ranks split by the lost data positions they hold —
        at most 2^|lost data| loss patterns, each one
        :meth:`RSCodec.recover_stripes` call (zero padding to the widest
        stripe is semantically free).  A rebuilt parity bucket comes out
        as a store image, a rebuilt data bucket as columns of one blob.
        """
        m = self.coordinator.config.group_size
        codec = self._codec(group)
        field = codec.field
        lost_at = [position_of(b, m) for b in lost_data]
        data = {position_of(b, m): dump for b, dump in data_dumps.items()}
        if lost_data and not parity_dumps:
            raise RecoveryError(
                f"group {group}: data lost but no parity bucket survives"
            )
        # ``need``: each rank's stripe length in symbols, its longest
        # surviving share — the widest parity extent if parity survives
        # (an extent covers every Δ folded), else the longest member
        ranks, keys, lengths, need, stripes = (
            _align(group, parity_dumps, m) if lost_data
            else _directory_of(data, m, field)
        )
        width = int(np.maximum.reduce(need, initial=0))
        stride = width * field.width // 8  # bytes a row
        blank = partial(np.zeros, dtype=field.symbol_dtype)

        # The ranks to decode as one run of rows per loss pattern, runs in
        # the order of their first rank and ranks in order within a run:
        # a run is a slice of the shares, which are gathered once.
        member = lengths != ABSENT
        bits = [1 << lost_at.index(p) if p in lost_at else 0 for p in range(m)]
        codes = member.dot(bits)  # bit j of a rank's code: it holds lost_at[j]
        active = np.arange(len(ranks)) if lost_parity else codes.nonzero()[0]
        coded = codes[active]
        patterns = list(dict.fromkeys(coded.tolist()))
        runs = (
            [active[coded == code] for code in patterns] if len(patterns) > 1
            else [active] * len(patterns)
        )
        order = np.concatenate(runs) if len(runs) > 1 else active
        row_of = np.full(len(ranks), len(order))  # one past: not decoded
        row_of[order] = np.arange(len(order))
        grid = len(order), width  # the shape of a share, of a rebuilt position

        # Every surviving data record in one stack with a zero row after
        # them for the members a bucket does not hold (or has no bucket
        # yet): each surviving position's share is one gather from it.
        alive = [pos for pos in range(m) if pos not in lost_at]
        payloads = list(chain.from_iterable(d["payloads"] for d in data.values()))
        of_rank = list(chain.from_iterable(d["ranks"] for d in data.values()))
        owner = np.array([alive.index(pos) for pos in data], dtype=np.intp).repeat(
            [len(d["ranks"]) for d in data.values()]
        )
        rows = ranks.searchsorted(of_rank)
        cells, at = lengths[:, alive], np.minimum(rows, len(ranks) - 1)
        if lost_data and (  # every member a record, each where it belongs
            np.count_nonzero(cells != ABSENT) != len(payloads)
            or ranks[at].tolist() != of_rank
            or cells[at, owner].tolist() != list(map(len, payloads))
        ):
            raise IntegrityError(
                f"group {group}: a surviving data bucket disagrees with "
                "the parity directory"
            )
        pick = np.full((len(alive), len(order) + 1), len(payloads))
        pick[owner, row_of[rows]] = np.arange(len(payloads))
        gathered = field.stack_payloads([*payloads, bytes(stride)], width)[pick[:, :-1]]
        shares = dict(zip(alive, gathered))
        # The decode reads m shares: the surviving data positions', then
        # parity in index order (``select_rows``); no other is gathered.
        for pos, (image, rows) in list(stripes.items())[: m - len(alive)]:
            matrix = field.symbols_from_bytes(image["matrix"], copy=False)
            matrix = matrix.reshape(len(ranks), image["width"])
            share = shares[pos] = matrix[rows[order], :width]
            if share.shape[1] < width:
                shares[pos] = np.pad(share, ((0, 0), (0, width - share.shape[1])))

        rebuilt: dict[int, np.ndarray] = {}
        stats = getattr(self._net, "stats", None)
        tracer = self._net.tracer
        start = 0
        for code, rows in zip(patterns, runs):
            run, start = slice(start, start + len(rows)), start + len(rows)
            want = [pos for j, pos in enumerate(lost_at) if code >> j & 1]
            want += [m + i for i in lost_parity]
            recovered = codec.recover_stripes(
                {pos: share[run] for pos, share in shares.items()}, want
            )
            stripes_run = need[rows]
            if stats is not None:
                # CPU model: rebuilding one position of one rank costs m
                # multiply-accumulates per stripe symbol, regardless of
                # how the work was dispatched.
                stats.record_symbols(len(want) * m * int(stripes_run.sum()))
            if tracer is not None:
                for rank, stripe in zip(ranks[rows].tolist(), stripes_run.tolist()):
                    tracer.emit("recovery.rank", group, rank, list(want), stripe)
            if len(runs) == 1:  # the one run is every row
                rebuilt = recovered
                continue
            for pos in want:
                rebuilt.setdefault(pos, blank(grid))[run] = recovered[pos]

        def in_rank_order(pos: int, rows) -> bytes:
            """``pos``'s rebuilt rows of directory ``rows`` as one blob."""
            matrix = rebuilt.get(pos, blank((0, width)))
            if len(runs) > 1:  # (one run: ``rows`` are all of its rows or none)
                matrix = matrix[row_of[rows]]
            return field.bytes_from_symbols(matrix.reshape(-1))

        new_data: dict[int, dict] = {}
        for bucket, pos in zip(lost_data, lost_at):
            rows = member[:, pos].nonzero()[0]
            blob = in_rank_order(pos, rows)
            new_data[bucket] = {
                "keys": keys[rows, pos].tolist(),
                "ranks": ranks[rows].tolist(),
                "payloads": [
                    blob[row * stride : row * stride + size]
                    for row, size in enumerate(lengths[rows, pos].tolist())
                ],
            }
        new_parity = {
            index: {
                "slots": m,
                "width": width,
                "rank_of": ranks.tolist(),
                "extents": need.tolist(),
                "matrix": in_rank_order(m + index, slice(None)),
                "dir_keys": keys.reshape(-1).tolist(),
                "dir_lengths": lengths.reshape(-1).tolist(),
            }
            for index in lost_parity
        }
        decoded = sum(len(content["keys"]) for content in new_data.values())
        return new_data, new_parity, decoded

    # ------------------------------------------------------------------
    def _install(
        self, group: int, data_dumps: dict[int, dict],
        parity_dumps: dict[int, dict], new_data: dict[int, dict],
        new_parity: dict[int, dict], pacer: RecoveryPacer | None,
    ) -> None:
        """Install the rebuilt contents under their logical addresses.

        Δ-channel bookkeeping first: a rebuilt data bucket resumes its
        sequence counter from the most advanced surviving parity channel
        (that channel saw every Δ the lost bucket issued); a rebuilt
        parity bucket expects the next Δ after each data counter, so
        in-flight retransmissions arrive as duplicates, never as
        double-applied folds.
        """
        coordinator = self.coordinator
        m = coordinator.config.group_size
        data_seqs = self._data_seqs(data_dumps)
        for bucket, content in new_data.items():
            pos = position_of(bucket, m)
            data_seqs[pos] = max((
                dump.get("expected_seqs", {}).get(pos, 1) - 1
                for dump in parity_dumps.values()
            ), default=0)
            level = coordinator.state.level_of(bucket)
            self._install_spare(
                data_node(self._file_id, bucket),
                partial(coordinator.make_server, bucket, level),
                "bucket.load",
                {"level": level, **content, "parity_seq": data_seqs[pos]},
                pacer,
            )
        expected_seqs = {pos: seq + 1 for pos, seq in data_seqs.items()}
        for index, image in new_parity.items():
            self._install_spare(
                parity_node(self._file_id, group, index),
                partial(coordinator.make_parity_server, group, index),
                "parity.load",
                {"store": image, "expected_seqs": expected_seqs},
                pacer,
            )

    def _install_spare(
        self, node_id: str, make_server, kind: str, payload: dict,
        pacer: RecoveryPacer | None,
    ) -> None:
        """Put a fresh server under a logical address — a lost bucket's,
        or one not registered yet (a raise's new parity bucket) — behind
        a new epoch fence, and load its content."""
        coordinator = self.coordinator
        if coordinator.config.durability:
            coordinator.bump_epoch(node_id)
        if node_id in self._net.nodes:
            self._net.unregister(node_id)
        self._net.register(make_server())
        try:
            self._net.send(coordinator.node_id, node_id, kind, payload)
        except NodeUnavailable:
            # A scheduled failure hit the spare on this very tick: it is
            # now just another unavailable bucket for the next sweep.
            pass
        self._account_transfer(pacer, node_id, payload)

    # ------------------------------------------------------------------
    # scalable availability: a new parity bucket is a rebuilt one
    # ------------------------------------------------------------------
    def encode_parity(self, group: int, data_dumps: dict[int, dict], indices) -> None:
        """Build parity buckets ``indices`` of ``group`` from its members'
        dumps: the decode of a lost parity bucket, for one that never
        existed.  Nothing is lost, so no intent, spare or counter."""
        _, new_parity, _ = self._rebuild(group, data_dumps, {}, [], list(indices))
        self._install(group, data_dumps, {}, {}, new_parity, None)

    # ------------------------------------------------------------------
    # delta catch-up (durable restart rejoin)
    # ------------------------------------------------------------------
    def catch_up_data(self, bucket: int, payload: dict) -> bool:
        """Catch a cleanly-restarted data bucket up from its Δ tail — the
        mirror of :meth:`catch_up_parity`.

        The bucket replayed its WAL to ``payload["seq"]`` and is fenced.
        Every live parity bucket's per-position ring holds the runs it
        applied; the newest that covers the gap past that prefix ships
        them in one ``runs.catchup``, which the bucket replays as its own
        WAL frames.  Returns False when the evidence is insufficient — no
        reachable parity, no newest ring reaching back far enough — and
        the caller must fall back to a full RS rebuild.  Repair traffic
        scales with the missed tail, not with the bucket.
        """
        coordinator = self.coordinator
        m = coordinator.config.group_size
        group = group_of(bucket, m)
        if group in self._recovering_groups:
            return False  # the group is mid-rebuild higher up the stack
        pos = position_of(bucket, m)
        disk_seq = payload["seq"]

        def parity_tails(after: int) -> dict[int, dict]:
            # a parity bucket that is down is the probe loop's business
            tails = {i: self._tail(parity_node(self._file_id, group, i),
                                   after, pos)
                     for i in range(coordinator.group_level(group))}
            return {i: tail for i, tail in tails.items() if tail is not None}

        tails = parity_tails(disk_seq)
        if coordinator.group_level(group) > 0 and not tails:
            # Without parity evidence the durable prefix cannot be
            # proven complete against what was acknowledged.
            return False

        live_max = max((t["live"] for t in tails.values()), default=disk_seq)
        runs: list[list] = []
        if live_max > disk_seq:
            source = next(
                (t for t in tails.values()
                 if t["live"] == live_max and t["covered"]),
                None,
            )
            if source is None:
                return False  # too stale: no newest ring reaches back
            runs = source["runs"]

        min_live = min((t["live"] for t in tails.values()), default=disk_seq)
        target = max(live_max, disk_seq)
        self._net.call(
            coordinator.node_id, data_node(self._file_id, bucket), "runs.catchup",
            {"runs": runs,
             "resend_after": min_live if min_live < disk_seq else None},
        )

        # Post-verify every live parity channel against the final
        # sequence: the resend above closes lags it can reach back to
        # (``floor``); anything still gapped would otherwise stay
        # silently behind until the next Δ arrives — or forever, under
        # quiescence — so it is rebuilt now.
        lagging = [
            index for index, check in parity_tails(target).items()
            if check["live"] < target
        ]
        if lagging:
            self.recover_nodes(
                [parity_node(self._file_id, group, i) for i in lagging],
                best_effort=True,
            )
        return True

    def catch_up_parity(self, group: int, index: int, payload: dict) -> bool:
        """Catch a cleanly-restarted parity bucket up from member WALs.

        Each group member returns its WAL tail past the parity's
        restored channel expectation; the runs (as the member logged
        them, in per-channel sequence order) are folded through the
        normal channel check.  Returns False — full-rebuild fallback — when a
        member is unreachable, a tail is no longer covered by the
        member's history ring, or a member's live sequence is *behind*
        the parity's expectation (the member lost a WAL tail this
        parity had applied: the channel's numbering diverged and
        re-encoding from current data is the only safe repair).
        """
        coordinator = self.coordinator
        if group in self._recovering_groups:
            return False
        m = coordinator.config.group_size
        expected = {
            int(p): s for p, s in payload.get("expected_seqs", {}).items()
        }
        runs: list[list] = []
        for bucket in group_buckets(group, m, coordinator.state.bucket_count):
            after = expected.get(position_of(bucket, m), 1) - 1
            tail = self._tail(data_node(self._file_id, bucket), after)
            # a member down, diverged (see above) or past its ring
            if tail is None or tail["live"] < after or not tail["covered"]:
                return False
            runs.extend(tail["runs"])

        reply = self._net.call(
            coordinator.node_id, parity_node(self._file_id, group, index),
            "runs.catchup", {"runs": runs},
        )
        return bool(reply["ok"])

    def _tail(
        self, node_id: str, after: int, pos: int | None = None
    ) -> dict | None:
        """``node_id``'s ``runs.tail`` past ``after`` (of data position
        ``pos`` at a parity bucket); None, unasked, when it is down."""
        if not self._net.is_available(node_id):
            return None
        payload = {"after": after}
        if pos is not None:
            payload["pos"] = pos
        try:
            return self._net.call(
                self.coordinator.node_id, node_id, "runs.tail", payload
            )
        except NodeUnavailable:
            return None

    # ------------------------------------------------------------------
    # record recovery (degraded reads)
    # ------------------------------------------------------------------
    def recover_record(self, key: int) -> tuple[bool, bytes | None]:
        """Serve one key whose data bucket is unavailable.

        Returns ``(found, payload)``; ``(False, None)`` is *certain* —
        the parity directory proves the key was never stored.  The
        group's first live parity bucket serves it in one
        ``parity.recover`` call (:meth:`ParityServer.handle_parity_recover`);
        only when that call itself fails does the next one get asked.
        """
        coordinator = self.coordinator
        m = coordinator.config.group_size
        bucket = coordinator.state.address(key)
        group = group_of(bucket, m)
        k = coordinator.group_level(group)
        if k == 0:
            raise RecoveryError(
                f"bucket {bucket} is unavailable and group {group} has no parity"
            )
        net, nodes = self._net, coordinator.parity_nodes(group)
        alive = [i for i in range(k) if net.is_available(nodes[i])]
        for n, index in enumerate(alive):
            try:
                reply = net.call(
                    coordinator.node_id, nodes[index], "parity.recover",
                    {"key": key, "level": k, "parity": alive[n + 1:]},
                )
            except (NodeUnavailable, DeliveryFault):
                continue
            if not reply["found"]:
                return False, None
            self.records_reconstructed += 1
            self.degraded_reads_served += 1
            return True, reply["value"]
        raise RecoveryError(f"group {group}: no parity bucket available")

    # ------------------------------------------------------------------
    # integrity auditing via algebraic signatures
    # ------------------------------------------------------------------
    def audit_group(self, group: int, signature_count: int = 2) -> dict:
        """Scrub one bucket group for silent corruption.

        Collects algebraic signatures — constant bytes per record — from
        every member, then checks the GF-linear relation
        ``sig(parity_i) = XOR_j λ_ij sig(data_j)`` per record group.
        With k >= 2 parity rows the mismatch syndromes identify *which*
        column is corrupt (the error signature e must satisfy
        ``s_i = λ_ij · e`` for every row i); with k = 1 only the fact of
        corruption per rank is known.

        Returns ``{"clean", "mismatched_ranks", "suspects"}`` where
        suspects maps rank -> codeword position (data pos, or m+i for
        parity) when identified.
        """
        coordinator = self.coordinator
        m = coordinator.config.group_size
        k = coordinator.group_level(group)
        field = coordinator.field
        coord_id = coordinator.node_id
        from repro.gf.signatures import combine

        buckets = group_buckets(group, m, coordinator.state.bucket_count)
        data_sigs: dict[int, dict[int, tuple]] = {}
        for bucket in buckets:
            dump = self._net.call(
                coord_id, data_node(self._file_id, bucket),
                "signature.dump", {"count": signature_count},
            )
            data_sigs[dump["position"]] = dump["ranks"]
        parity_sigs: dict[int, dict[int, tuple]] = {}
        for index in range(k):
            dump = self._net.call(
                coord_id, parity_node(self._file_id, group, index),
                "signature.dump", {"count": signature_count},
            )
            parity_sigs[index] = dump["ranks"]

        rows = {i: coordinator.parity_row(i) for i in range(k)}
        all_ranks = set()
        for sigs in parity_sigs.values():
            all_ranks |= set(sigs)
        for sigs in data_sigs.values():
            all_ranks |= set(sigs)

        mismatched: list[int] = []
        suspects: dict[int, int | None] = {}
        for rank in sorted(all_ranks):
            members = {
                pos: sigs[rank]
                for pos, sigs in data_sigs.items() if rank in sigs
            }
            # Syndromes per parity row and signature symbol.
            syndromes: dict[int, list[int]] = {}
            for index in range(k):
                expected = [
                    combine(
                        field,
                        [rows[index][pos] for pos in members],
                        [sig[s] for sig in members.values()],
                    )
                    for s in range(signature_count)
                ]
                actual = list(
                    parity_sigs[index].get(rank, (0,) * signature_count)
                )
                syndromes[index] = [e ^ a for e, a in zip(expected, actual)]
            if all(all(s == 0 for s in v) for v in syndromes.values()):
                continue
            mismatched.append(rank)
            suspects[rank] = self._identify_corruption(
                field, rows, syndromes, members, m, k
            )
        return {
            "group": group,
            "clean": not mismatched,
            "mismatched_ranks": mismatched,
            "suspects": suspects,
        }

    @staticmethod
    def _identify_corruption(field, rows, syndromes, members, m, k):
        """Single-column corruption localization from syndromes.

        A corrupted data column j gives s_i = λ_ij · e for every parity
        row i; a corrupted parity row i0 gives s_i = 0 for i != i0.
        Needs k >= 2 to discriminate; returns the codeword position or
        None when ambiguous.
        """
        candidates = []
        if k >= 2:
            # Parity-column candidates.
            dirty_rows = [i for i, v in syndromes.items() if any(v)]
            if len(dirty_rows) == 1:
                candidates.append(m + dirty_rows[0])
            else:
                # Data-column candidates: consistent error signature.
                for pos in members:
                    errors = set()
                    ok = True
                    for i, vector in syndromes.items():
                        coefficient = rows[i][pos]
                        err = tuple(
                            field.div(s, coefficient) for s in vector
                        )
                        errors.add(err)
                    if len(errors) == 1 and any(next(iter(errors))):
                        candidates.append(pos)
        return candidates[0] if len(candidates) == 1 else None

    def audit_file(self, signature_count: int = 2) -> dict:
        """Scrub every group; returns {"clean", "reports"}."""
        reports = [
            self.audit_group(group, signature_count)
            for group in sorted(self.coordinator.group_levels)
        ]
        return {
            "clean": all(r["clean"] for r in reports),
            "reports": [r for r in reports if not r["clean"]],
        }

    def repair_corruption(self, group: int, suspect_position: int) -> dict:
        """Rebuild a corrupted column from the clean remainder.

        The suspect is treated as a loss: its current (corrupt) content
        is excluded and re-decoded from the other members — the scrub-
        and-repair loop of the signature literature.
        """
        m = self.coordinator.config.group_size
        if suspect_position < m:
            bucket = group * m + suspect_position
            return self.recover_group(group, [bucket], [])
        return self.recover_group(group, [], [suspect_position - m])

    # ------------------------------------------------------------------
    # file-state recovery (A6)
    # ------------------------------------------------------------------
    def recover_file_state(self) -> tuple[int, int]:
        """Reconstruct (n, i) from the surviving data buckets' levels.

        Best-effort by design: buckets that do not answer the status
        probe are tolerated — their levels are filled in from the newest
        coordinator checkpoint held in the parity buckets' headers (the
        "parity directory dump" of the SDDS line).  Only when the
        survivors plus the parity evidence are below what A6 needs does
        this raise a :class:`RecoveryError` naming the missing evidence.
        """
        coordinator = self.coordinator
        targets = {
            b: data_node(self._file_id, b)
            for b in coordinator.state.buckets()
        }
        replies, unavailable = self._net.multicast(
            coordinator.node_id, list(targets.values()), "status"
        )
        levels = {r["bucket"]: r["level"] for r in replies.values()}
        missing = sorted(b for b in targets if b not in levels)
        if missing:
            checkpoint = coordinator.newest_checkpoint()
            if checkpoint is not None:
                from repro.lh.state import FileState

                ghost = FileState(
                    n0=coordinator.state.n0, n=checkpoint.n, i=checkpoint.i
                )
                for bucket in missing:
                    if bucket < ghost.bucket_count:
                        levels.setdefault(bucket, ghost.level_of(bucket))
        if not levels:
            raise RecoveryError(
                "cannot reconstruct (n, i): no data bucket answered the "
                "status probe and no parity checkpoint is available; "
                f"missing evidence: data buckets {sorted(targets)} "
                f"(unavailable: {sorted(unavailable)})"
            )
        return reconstruct_state(levels, coordinator.state.n0)
