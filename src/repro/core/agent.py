"""The per-host Polyraptor protocol endpoint."""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.config import PolyraptorConfig
from repro.core.packets import (
    DoneAckPayload,
    DonePayload,
    PullPayload,
    RequestPayload,
    SymbolPayload,
)
from repro.core.pull_queue import PullPacer
from repro.core.receiver import ReceiverSession
from repro.core.sender import SenderSession
from repro.network.host import Host
from repro.network.packet import Packet
from repro.rq.backend import CodecContext
from repro.sim.engine import Simulator
from repro.sim.trace import TraceLog
from repro.transport.base import TransferRegistry

#: Protocol name packets are tagged with and hosts dispatch on.
POLYRAPTOR_PROTOCOL = "polyraptor"


class PolyraptorAgent:
    """One Polyraptor endpoint per host.

    The agent owns the host's pull pacer, creates sender/receiver sessions and
    demultiplexes arriving packets to them.  Transfers are recorded in the
    shared :class:`~repro.transport.base.TransferRegistry`:

    * push sessions (one-to-many): start recorded when the sender starts,
      completion when the **last** receiver reports DONE;
    * fetch sessions (many-to-one): start recorded when the receiver sends
      its requests, completion when the receiver decodes the object.
    """

    PROTOCOL = POLYRAPTOR_PROTOCOL

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        config: Optional[PolyraptorConfig] = None,
        registry: Optional[TransferRegistry] = None,
        trace: Optional[TraceLog] = None,
        codec_context: Optional[CodecContext] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.config = config or PolyraptorConfig()
        self.registry = registry
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        # One CodecContext is normally shared by every agent of a simulation
        # (the runner passes it in) so all sessions amortise one plan cache;
        # a per-agent context is created only for standalone agents.
        self.codec = codec_context or CodecContext(kernel=self.config.codec_kernel)
        self.pacer = PullPacer(sim, host, self.config)
        self._senders: dict[int, SenderSession] = {}
        self._receivers: dict[int, ReceiverSession] = {}
        #: object payloads available on this host for fetch serving (payload mode)
        self._stored_objects: dict[int, bytes] = {}
        host.register_protocol(POLYRAPTOR_PROTOCOL, self)

    # Session creation -----------------------------------------------------------

    def start_push_session(
        self,
        session_id: int,
        object_bytes: int,
        receiver_host_ids: list[int],
        multicast_group: Optional[int] = None,
        label: str = "",
        register: bool = True,
        object_data: Optional[bytes] = None,
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> SenderSession:
        """Start a one-to-many (or unicast) push session from this host."""
        if session_id in self._senders:
            raise ValueError(f"session {session_id} already exists on {self.host.name}")
        if register and self.registry is not None:
            self.registry.record_start(
                session_id, object_bytes, self.sim.now,
                protocol=POLYRAPTOR_PROTOCOL, label=label,
            )

        def _all_done(now: float) -> None:
            if register and self.registry is not None:
                self.registry.record_completion(session_id, now)
            if on_complete is not None:
                on_complete(now)

        session = SenderSession(
            agent=self,
            session_id=session_id,
            object_bytes=object_bytes,
            receiver_host_ids=receiver_host_ids,
            multicast_group=multicast_group,
            object_data=object_data,
            on_all_receivers_done=_all_done,
        )
        self._senders[session_id] = session
        session.start()
        return session

    def start_fetch_session(
        self,
        session_id: int,
        object_bytes: int,
        sender_host_ids: list[int],
        label: str = "",
        register: bool = True,
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> ReceiverSession:
        """Start a many-to-one fetch session terminating at this host."""
        if session_id in self._receivers:
            raise ValueError(f"session {session_id} already exists on {self.host.name}")
        if register and self.registry is not None:
            self.registry.record_start(
                session_id, object_bytes, self.sim.now,
                protocol=POLYRAPTOR_PROTOCOL, label=label,
            )

        def _decoded(now: float) -> None:
            if register and self.registry is not None:
                self.registry.record_completion(session_id, now)
            if on_complete is not None:
                on_complete(now)

        session = ReceiverSession(
            agent=self,
            session_id=session_id,
            object_bytes=object_bytes,
            expected_senders=sender_host_ids,
            on_complete=_decoded,
        )
        self._receivers[session_id] = session
        session.start_fetch()
        return session

    def store_object(self, session_id: int, data: bytes) -> None:
        """Make object bytes available for serving a fetch session (payload mode)."""
        self._stored_objects[session_id] = data

    # Lookup ------------------------------------------------------------------------

    def sender_session(self, session_id: int) -> SenderSession:
        """Return a sender session hosted on this agent."""
        return self._senders[session_id]

    def receiver_session(self, session_id: int) -> ReceiverSession:
        """Return a receiver session hosted on this agent."""
        return self._receivers[session_id]

    def has_receiver_session(self, session_id: int) -> bool:
        """Whether a receiver session exists for the given id."""
        return session_id in self._receivers

    @property
    def all_sender_sessions(self) -> list[SenderSession]:
        """Every sender session hosted on this agent (stats collection)."""
        return list(self._senders.values())

    @property
    def all_receiver_sessions(self) -> list[ReceiverSession]:
        """Every receiver session hosted on this agent (stats collection)."""
        return list(self._receivers.values())

    # Packet handling ------------------------------------------------------------------

    def handle_packet(self, packet: Packet) -> None:
        """Dispatch one arriving Polyraptor packet."""
        payload = packet.payload
        if isinstance(payload, SymbolPayload):
            self._on_symbol_packet(payload, packet)
        elif isinstance(payload, PullPayload):
            session = self._senders.get(payload.session_id)
            if session is not None:
                session.on_pull(payload)
        elif isinstance(payload, RequestPayload):
            self._on_request(payload)
        elif isinstance(payload, DonePayload):
            session = self._senders.get(payload.session_id)
            if session is not None:
                session.on_done(payload)
        elif isinstance(payload, DoneAckPayload):
            session = self._receivers.get(payload.session_id)
            if session is not None:
                session.on_done_ack(payload)
        else:
            raise TypeError(f"unexpected Polyraptor payload: {payload!r}")

    def _on_symbol_packet(self, payload: SymbolPayload, packet: Packet) -> None:
        session = self._receivers.get(payload.session_id)
        if session is None:
            # Push sessions create receiver state on first contact.
            session = ReceiverSession(
                agent=self,
                session_id=payload.session_id,
                object_bytes=payload.object_bytes,
                expected_senders=[payload.sender_host],
            )
            self._receivers[payload.session_id] = session
        session.on_symbol(
            payload,
            packet.trimmed,
            ce=packet.ce,
            multicast=packet.is_multicast,
            sent_at=packet.created_at,
        )

    def _on_request(self, request: RequestPayload) -> None:
        if request.session_id in self._senders:
            return
        object_data = self._stored_objects.get(request.session_id)
        session = SenderSession(
            agent=self,
            session_id=request.session_id,
            object_bytes=request.object_bytes,
            receiver_host_ids=[request.receiver_host],
            multicast_group=None,
            sender_index=request.sender_index,
            num_senders=request.num_senders,
            object_data=object_data,
        )
        self._senders[request.session_id] = session
        session.start()
