"""Node base class: handler dispatch and sending conveniences."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.proto.wire import HANDLER_NAMES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.messages import Message
    from repro.sim.network import Network


class Node:
    """A network participant; subclasses implement ``handle_<kind>``.

    Message kinds map to methods by replacing non-identifier characters
    with underscores: a ``"key.search"`` message dispatches to
    ``handle_key_search(message)``.
    """

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.network: "Network | None" = None
        #: bounded inbound queue (None = unbounded).  With a service
        #: model installed, sheddable messages arriving while this
        #: node's backlog is at the bound are refused with
        #: :class:`~repro.sim.network.NodeBusy` — backpressure.
        self.inbound_queue_limit: int | None = None

    # ------------------------------------------------------------------
    def receive(self, message: "Message") -> Any:
        # Late-bound on purpose: a handler swapped on the class at run
        # time (span recorders, validation mutants) is the one that runs.
        handler = getattr(self, HANDLER_NAMES[message.kind], None)
        if handler is None:
            raise NotImplementedError(
                f"{type(self).__name__} {self.node_id!r} has no handler for "
                f"message kind {message.kind!r}"
            )
        return handler(message)

    # ------------------------------------------------------------------
    def _net(self) -> "Network":
        if self.network is None:
            raise RuntimeError(f"node {self.node_id!r} is not attached to a network")
        return self.network

    def send(self, recipient: str, kind: str, payload: Any = None,
             size: int = 0) -> None:
        """Fire-and-forget to another node (1 message).

        ``size`` optionally carries the wire size (header included) of
        a payload the sender already sized — one Δ fanned out to k
        parity buckets is sized once.  It must be what
        :func:`~repro.sim.messages.estimate_size` produces for this
        payload and kind; 0 means "estimate for me".
        """
        (self.network or self._net()).send(self.node_id, recipient, kind,
                                           payload, size=size)

    def call(self, recipient: str, kind: str, payload: Any = None,
             size: int = 0) -> Any:
        """Request/reply to another node (2 messages).  ``size`` as in
        :meth:`send` (applies to the request; the reply is estimated)."""
        return (self.network or self._net()).call(self.node_id, recipient,
                                                  kind, payload, size=size)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.node_id!r})"
