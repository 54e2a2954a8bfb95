"""Facade assembling a complete LH*RS file.

``LHRSFile`` is the public entry point of this library: it wires up the
network, the RS coordinator (which creates data buckets and parity
buckets), and clients, and exposes key operations, scans, failure
injection and recovery, plus the oracle inspection the experiments use
(storage overhead, parity consistency, availability estimates).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.availability import file_availability
from repro.core.client import RSClient
from repro.core.config import LHRSConfig
from repro.core.coordinator import RSCoordinator
from repro.core.data_bucket import RSDataServer
from repro.core.group import group_count, parity_node
from repro.core.parity_bucket import ParityServer
from repro.core.recovery import reconstruct_state
from repro.rs.codec import RSCodec
from repro.core.standby import StandbyCoordinator
from repro.sdds.coordinator import SplitPolicy
from repro.sdds.file import LHStarFile
from repro.sim.failure import FailureInjector


class LHRSFile(LHStarFile):
    """A running LH*RS file, its coordinator, servers and default client."""

    coordinator_class = RSCoordinator
    client_class = RSClient

    def __init__(
        self,
        config: LHRSConfig | None = None,
        file_id: str = "f",
        split_policy: SplitPolicy | None = None,
        network=None,
    ):
        self.config = config or LHRSConfig()
        super().__init__(
            file_id=file_id,
            capacity=self.config.bucket_capacity,
            n0=self.config.group_size,
            policy=split_policy,
            network=network,
            config=self.config,
        )
        self.failures = FailureInjector(self.network)
        #: standby coordinator replicas (empty without HA)
        self.standbys: list[StandbyCoordinator] = []
        if self.config.coordinator_replicas:
            self._attach_standbys(self.config.coordinator_replicas)
        #: set by enable_observability (None until then)
        self.tracer = None
        self.metrics = None
        self.auditor = None

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def enable_observability(
        self,
        trace_capacity: int | None = None,
        audit: bool = True,
        audit_tail: int = 200,
        strict: bool = True,
    ):
        """Install a tracer, a metrics registry and (optionally) the
        invariant auditor on this file's network.

        Returns ``(tracer, metrics, auditor)`` — also kept as
        attributes.  ``trace_capacity`` bounds what ``tracer.events``
        exposes (None keeps everything, the replay-comparison mode);
        the one ring holds ``max(trace_capacity, audit_tail)`` events,
        and a violation's tail is read from it.  On a file already in
        service the auditor starts from the network's current failure
        state.  With nothing enabled the cluster pays a single
        ``is None`` check per emission site — see docs/observability.md.
        """
        from repro.obs import InvariantAuditor, MetricsRegistry, Tracer

        self.tracer = Tracer(capacity=trace_capacity)
        self.metrics = MetricsRegistry()
        self.network.install_tracer(self.tracer)
        self.network.install_metrics(self.metrics)
        self.auditor = (
            InvariantAuditor(self.tracer, tail=audit_tail, strict=strict,
                             network=self.network)
            if audit
            else None
        )
        return self.tracer, self.metrics, self.auditor

    def enable_service_model(self, model=None, **kwargs):
        """Install a latency/queue plane on this file's network.

        Pass a prebuilt :class:`~repro.sim.network.ServiceModel` or its
        constructor keywords (``link_latency``, ``service_time``,
        ``drain_rate``).  With it installed, deliveries accrue virtual
        latency (stretched by any slow rules on the fault plane),
        bounded bucket queues shed with typed ``busy`` replies, and the
        clients' deadline/hedge/breaker discipline (``read_deadline``)
        becomes active.  Returns the model.
        """
        from repro.sim.network import ServiceModel

        if model is None:
            model = ServiceModel(**kwargs)
        self.network.install_service_model(model)
        return model

    def _client_kwargs(self) -> dict[str, Any]:
        return {
            "retry": self.config.retry_policy,
            "ack_writes": self.config.client_acks,
            "coord_replicas": self.config.coordinator_replicas,
            "deadline": self.config.read_deadline,
            "batch_ops": self.config.batch_ops,
            "batch_max_ops": self.config.batch_max_ops,
        }

    # ------------------------------------------------------------------
    # coordinator high availability
    # ------------------------------------------------------------------
    def _attach_standbys(self, count: int) -> None:
        """Register ``count`` standby replicas and start heartbeating.

        Standbys seed their journal from the primary's (bootstrap is
        already in it), watch the lease as clock listeners, and receive
        every subsequent append synchronously.
        """
        primary = self.rs_coordinator
        standby_ids = [
            f"{self.file_id}.coord.r{j}" for j in range(1, count + 1)
        ]
        for node_id in standby_ids:
            standby = StandbyCoordinator(
                node_id=node_id,
                file_id=self.file_id,
                config=self.config,
                policy=primary.policy,
                primary_id=primary.node_id,
                peer_ids=standby_ids,
            )
            self.network.register(standby)
            standby.journal.ingest(primary.journal.since(0))
            standby.last_beat = self.network.now
            self.network.add_clock_listener(standby.on_tick)
            self.standbys.append(standby)
        primary.standby_ids = list(standby_ids)
        self.network.add_clock_listener(primary._heartbeat_tick)

    def fail_coordinator(self) -> str:
        """Crash the active coordinator; returns its node id."""
        self.network.fail(self._coordinator_id)
        return self._coordinator_id

    def await_takeover(self, max_advance: float = 400.0) -> RSCoordinator:
        """Advance the clock until a standby has promoted; returns the
        new primary (tests/benchmarks convenience)."""
        if not self.standbys:
            raise RuntimeError("no standby replicas are configured")
        advanced = 0.0
        step = self.config.lease_timeout
        while not self.network.is_available(self._coordinator_id):
            if advanced > max_advance:
                raise TimeoutError(
                    "no standby took over within the advance budget"
                )
            self.network.advance(step)
            advanced += step
        return self.rs_coordinator

    # ------------------------------------------------------------------
    # typing conveniences
    # ------------------------------------------------------------------
    @property
    def rs_coordinator(self) -> RSCoordinator:
        return self.coordinator  # type: ignore[return-value]

    def data_servers(self) -> list[RSDataServer]:
        return super().data_servers()  # type: ignore[return-value]

    def parity_servers(self, group: int | None = None) -> list[ParityServer]:
        """Parity servers of one group, or of the whole file."""
        coordinator = self.rs_coordinator
        groups = (
            [group] if group is not None else sorted(coordinator.group_levels)
        )
        return [
            self.network.nodes[node_id]
            for g in groups
            for node_id in coordinator.parity_nodes(g)
        ]

    # ------------------------------------------------------------------
    # failure & recovery conveniences
    # ------------------------------------------------------------------
    def fail_data_bucket(self, bucket: int) -> str:
        """Crash the server of data bucket ``bucket``; returns its node id."""
        node_id = f"{self.file_id}.d{bucket}"
        self.network.fail(node_id)
        return node_id

    def fail_parity_bucket(self, group: int, index: int) -> str:
        """Crash parity bucket ``index`` of ``group``; returns its node id."""
        node_id = parity_node(self.file_id, group, index)
        self.network.fail(node_id)
        return node_id

    def recover(self, node_ids: list[str]) -> dict:
        """Explicitly recover the given failed nodes (tests/benchmarks)."""
        return self.rs_coordinator.recovery.recover_nodes(node_ids)

    def recover_record(self, key: int) -> tuple[bool, bytes | None]:
        """Degraded-mode read of one key (record recovery)."""
        return self.rs_coordinator.recovery.recover_record(key)

    def reconstruct_file_state(self) -> tuple[int, int]:
        """Run the A6-style file-state reconstruction and return (n, i)."""
        return self.rs_coordinator.recovery.recover_file_state()

    # ------------------------------------------------------------------
    # integrity auditing (algebraic signatures)
    # ------------------------------------------------------------------
    def audit(self, signature_count: int = 2) -> dict:
        """Scrub the whole file for silent corruption via algebraic
        signatures (constant bytes per record on the wire)."""
        return self.rs_coordinator.recovery.audit_file(signature_count)

    def audit_group(self, group: int, signature_count: int = 2) -> dict:
        """Scrub one bucket group; see RecoveryManager.audit_group."""
        return self.rs_coordinator.recovery.audit_group(group, signature_count)

    def repair_corruption(self, group: int, position: int) -> dict:
        """Rebuild the corrupted column an audit identified."""
        return self.rs_coordinator.recovery.repair_corruption(group, position)

    # ------------------------------------------------------------------
    # oracle inspection for experiments
    # ------------------------------------------------------------------
    def group_levels(self) -> dict[int, int]:
        return self.rs_coordinator.group_levels

    def data_storage_bytes(self) -> int:
        """Payload bytes held in data buckets."""
        return sum(
            len(payload)
            for server in self.data_servers()
            for payload in server.bucket.records.values()
        )

    def parity_storage_bytes(self) -> int:
        """Parity payload bytes held in parity buckets."""
        return sum(server._store.nbytes() for server in self.parity_servers())

    def storage_overhead(self) -> float:
        """Parity bytes / data bytes — the paper's ~k/m figure."""
        data = self.data_storage_bytes()
        return self.parity_storage_bytes() / data if data else 0.0

    def parity_bucket_count(self) -> int:
        return len(self.parity_servers())

    def analytic_availability(self, p: float) -> float:
        """P(all data servable) given per-bucket availability p, using
        the per-group levels this file actually carries."""
        coordinator = self.rs_coordinator
        m = self.config.group_size
        total = coordinator.state.bucket_count
        levels = [
            coordinator.group_level(g)
            for g in range(group_count(total, m))
        ]
        return file_availability(total, m, p, k_per_group=levels)

    # ------------------------------------------------------------------
    def verify_parity_consistency(self) -> list[str]:
        """Oracle check of DESIGN.md invariant 3.

        Recomputes every group's parity from the data records and
        compares with what the parity buckets hold.  Returns a list of
        discrepancy descriptions (empty = consistent).
        """
        problems: list[str] = []
        coordinator = self.rs_coordinator
        m = self.config.group_size
        field = coordinator.field

        # Gather data records per (group, rank, pos).
        stripes: dict[int, dict[int, dict[int, bytes]]] = {}
        keys_map: dict[int, dict[int, dict[int, int]]] = {}
        for server in self.data_servers():
            for key, payload in server.bucket.records.items():
                rank = server.ranks[key]
                stripes.setdefault(server.group, {}).setdefault(rank, {})[
                    server.position
                ] = payload
                keys_map.setdefault(server.group, {}).setdefault(rank, {})[
                    server.position
                ] = key

        for group, level in coordinator.group_levels.items():
            codec = RSCodec(m, level, field, coordinator.config.generator)
            group_stripes = stripes.get(group, {})
            for index in range(level):
                server: ParityServer = self.network.nodes[
                    parity_node(self.file_id, group, index)
                ]
                expected_ranks = set(group_stripes)
                actual_ranks = set(server._store)
                if expected_ranks != actual_ranks:
                    problems.append(
                        f"group {group} parity {index}: ranks {actual_ranks} "
                        f"!= expected {expected_ranks}"
                    )
                    continue
                for rank, members in group_stripes.items():
                    record = server._store.snapshot(rank)
                    if record["keys"] != keys_map[group][rank]:
                        problems.append(
                            f"group {group} parity {index} rank {rank}: key "
                            f"directory mismatch"
                        )
                    # the lengths a degraded read trims a decode to
                    if record["lengths"] != {
                        pos: len(payload) for pos, payload in members.items()
                    }:
                        problems.append(
                            f"group {group} parity {index} rank {rank}: "
                            f"length directory mismatch"
                        )
                    payloads: list[bytes | None] = [None] * m
                    for pos, payload in members.items():
                        payloads[pos] = payload
                    expected = codec.encode(payloads)[index]
                    actual = record["parity"]
                    length = max(len(expected), len(actual))
                    if expected.ljust(length, b"\0") != actual.ljust(length, b"\0"):
                        problems.append(
                            f"group {group} parity {index} rank {rank}: "
                            f"parity bytes mismatch"
                        )
        return problems

    def census_with_ranks(self) -> dict[int, dict[int, tuple[int, bytes]]]:
        """{bucket -> {key -> (rank, payload)}} snapshot for equality checks."""
        return {
            server.number: {
                key: (server.ranks[key], payload)
                for key, payload in server.bucket.records.items()
            }
            for server in self.data_servers()
        }

    def levels_census(self) -> dict[int, int]:
        """{bucket -> level} directly from servers (oracle)."""
        return {s.number: s.level for s in self.data_servers()}

    def check_reconstructed_state(self) -> bool:
        """A6 sanity: reconstruction from levels matches the true state."""
        n, i = reconstruct_state(self.levels_census(), self.config.group_size)
        return (n, i) == self.rs_coordinator.state.as_tuple()
