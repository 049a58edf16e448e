"""Baseline NIC models: RDMA and Portals 4 (no sPIN).

The receive pipeline implements §4.2's hardware matching: a header packet
searches the full match list (30 ns) and installs a channel in a CAM; every
following packet of the message hits the CAM (2 ns).  Matching proceeds in
parallel with the network gap because the match unit is its own server.

Matched put data is DMA-written to host memory packet by packet; the
message's completion actions (events, counters — which may fire triggered
operations — and ACKs) run once all packets have arrived *and* all DMA
writes are durable.  Get requests are served by DMA-reading the matched
region and streaming a reply message back.

The sPIN NIC (:class:`repro.core.nic.SpinNIC`) subclasses this model and
reroutes matched messages whose ME carries a handler binding.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.des.engine import PRIORITY_URGENT, Environment, Event, env_flag
from repro.des.resources import ServeChain, Server
from repro.network.packets import Message, Packet
from repro.portals.events import PortalsEvent
from repro.portals.matching import MatchResult
from repro.portals.types import EventKind, PortalsError

__all__ = ["BaselineNIC"]


def _fast_rx_default() -> bool:
    return env_flag("REPRO_NIC_FAST_RX")


class _MessageRx:
    """Receiver-side state for one in-flight message."""

    __slots__ = (
        "message",
        "match",
        "bytes_seen",
        "packets_seen",
        "dma_events",
        "dropped_bytes",
        "finished",
        "extra",
    )

    def __init__(self, message: Message, match: Optional[MatchResult]):
        self.message = message
        self.match = match
        self.bytes_seen = 0
        self.packets_seen = 0
        self.dma_events: list[Event] = []
        self.dropped_bytes = 0
        self.finished = False
        self.extra: dict = {}

    @property
    def complete(self) -> bool:
        return self.bytes_seen + self.dropped_bytes >= self.message.length


class _RxChain:
    """Callback-driven receive pipeline for one non-header packet.

    Push-structure mirror of ``_rx_packet``'s generator path: the pseudo
    URGENT begin stands in for the process initialize, the match-unit and
    memory-port requests are the same FIFO Request events the generator
    would issue, and the service completions are fire-and-forget callbacks
    at the positions of the generator's serve timeouts.  Deposits for
    baseline-mode put/atomic/reply packets run inline; anything needing
    model logic beyond the plain deposit (sPIN handler modes) is handed
    back to the generator tail via ``process_inline``, which preserves the
    event order exactly.

    Subclasses of :class:`BaselineNIC` that change ``_deliver_packet``
    semantics for *baseline-mode* packets must set ``fast_rx = False``.
    """

    __slots__ = ("nic", "pkt", "state", "req", "t0", "bw", "offset", "nbytes",
                 "data", "reply")

    def __init__(self, nic: "BaselineNIC", pkt: Packet):
        self.nic = nic
        self.pkt = pkt
        self.state: Optional[_MessageRx] = None
        self.req = None
        self.t0 = 0
        self.bw = 0
        self.offset = 0
        self.nbytes = 0
        self.data = None
        self.reply = False

    def _begin(self) -> None:
        """Mirrors the rx process initialize: issue the match-unit lookup."""
        nic = self.nic
        self.t0 = nic.env._now
        self.req = req = nic.match_unit.request()
        if req.callbacks is None:
            self._match_granted(req)
        else:
            req.callbacks.append(self._match_granted)

    def _match_granted(self, _event: Event) -> None:
        nic = self.nic
        params = nic.params
        dur = params.header_match_ps if self.pkt.is_header else params.cam_lookup_ps
        nic.env.schedule_fn(dur, self._match_done)

    def _match_done(self) -> None:
        """Match-unit service done: account, release, dispatch the deposit."""
        nic = self.nic
        env = nic.env
        now = env._now
        pkt = self.pkt
        msg = pkt.message
        mu = nic.match_unit
        params = nic.params
        is_header = pkt.is_header
        dur = params.header_match_ps if is_header else params.cam_lookup_ps
        mu.busy_time += dur
        mu.jobs_served += 1
        mu.release(self.req)
        self.req = None
        if nic.timeline.enabled:
            nic.timeline.record(
                nic.rank, "NIC", self.t0, now, "match" if is_header else "cam"
            )
        if is_header:
            match = nic._match_message(msg)
            self.state = state = _MessageRx(msg, match)
            nic._rx[msg.msg_id] = state
            hook = nic._header_hook(state, pkt)
            if hook is not None:
                # Header handlers (sPIN): generator path, inline.
                env.process_inline(
                    nic._hook_tail(hook, state, pkt), name=nic._rx_name
                )
                return
        else:
            self.state = state = nic._rx.get(msg.msg_id)
            if state is None:
                # Unknown flow: the header packet was lost in the network
                # (congestion tail-drop), so there is no channel to deposit
                # into — drop the packet, as real NICs do.
                nic.rx_orphan_packets += 1
                return
            mode = state.extra.get("mode", "baseline")
            if mode == "process":
                # sPIN payload handlers: the dispatch itself is yield-free
                # (flow-control checks + HPU process spawn) — run it inline.
                nic._spin_payload(state, pkt)
                self._after_deposit()
                return
            if mode == "drop":
                state.dropped_bytes += pkt.payload_len
                self._after_deposit()
                return
            if mode == "undecided":
                # Header handler still running: the generator path waits on
                # its completion event.
                env.process_inline(nic._rx_tail(state, pkt), name=nic._rx_name)
                return
            # "baseline" and "proceed" both take the plain deposit below.
        if msg.kind in ("put", "atomic"):
            if state.match is None or not state.match.matched:
                state.dropped_bytes += pkt.payload_len
                pt = nic._pt_for(msg)
                if pt is not None:
                    pt.record_drop(pkt.payload_len)
                self._after_deposit()
                return
            entry = state.match.entry
            offset = entry.start + state.match.deposit_offset + pkt.payload_offset
            self.offset = offset if nic.machine.memory is not None else 0
            self.reply = False
        elif msg.kind == "reply":
            md = nic.machine.ni.mds.get(msg.meta.get("md_id", -1))
            base = (md.start if md else 0) + msg.meta.get("reply_offset", 0)
            self.offset = base + pkt.payload_offset
            self.reply = True
        elif msg.kind in ("get", "ack"):
            # Header-only kinds; mirrored for completeness.
            state.bytes_seen += pkt.payload_len
            self._after_deposit()
            return
        else:
            raise ValueError(f"unknown message kind {msg.kind!r}")
        # -- the DMA write toward host memory (mirrors DMAEngine.write) --
        self.data = pkt.payload
        self.nbytes = pkt.payload_len
        dma = nic.machine.dma
        self.t0 = now
        self.bw = dma._bw_ps(self.nbytes)
        self.req = req = dma.mem_port.request()
        if req.callbacks is None:
            self._mem_granted(req)
        else:
            req.callbacks.append(self._mem_granted)

    def _mem_granted(self, _event: Event) -> None:
        self.nic.env.schedule_fn(self.bw, self._mem_done)

    def _mem_done(self) -> None:
        """Memory-port service done: durability callback + bookkeeping."""
        nic = self.nic
        env = nic.env
        dma = nic.machine.dma
        port = dma.mem_port
        port.busy_time += self.bw
        port.jobs_served += 1
        port.release(self.req)
        self.req = None
        nbytes = self.nbytes
        dma.bytes_written += nbytes
        if dma.timeline.enabled:
            msg_id = self.pkt.message.msg_id
            label = f"rx-reply m{msg_id}" if self.reply else f"rx m{msg_id}"
            dma.timeline.record(dma.rank, "DMA", self.t0, env._now, label)
        completed = Event(env)
        memory, offset, data = dma.memory, self.offset, self.data

        def land() -> None:
            if memory is not None and data is not None and nbytes:
                memory.write(offset, data)
            completed.succeed(env._now)

        env.schedule_fn(dma.latency_ps, land)
        state = self.state
        state.dma_events.append(completed)
        state.bytes_seen += nbytes
        self._after_deposit()

    def _after_deposit(self) -> None:
        state = self.state
        state.packets_seen += 1
        if state.complete and not state.finished:
            state.finished = True
            nic = self.nic
            nic.env.process_inline(nic._finish_tail(state), name=nic._rx_name)


class _SendChain:
    """Callback-driven host-send staging pipeline for one message.

    Push-structure mirror of ``_send_now`` with ``from_host=True``: pseudo
    initialize (URGENT), the DMA request latency, the memory-port fill of
    the first packet (real FIFO request), the background staging of the
    remaining bytes (:class:`ServeChain`), then the fabric injection.  The
    ``done`` event fires at the position the wrapper process would have
    completed, with the same value (the injection-finish time).
    """

    __slots__ = ("nic", "msg", "done", "bw", "req")

    def __init__(self, nic: "BaselineNIC", msg: Message):
        self.nic = nic
        self.msg = msg
        self.done = Event(nic.env)
        self.bw = 0
        self.req = None
        # Begin synchronously (no URGENT 0-delay hop): _staged's timestamp
        # is identical and the counter bump is not simulation-visible.
        nic.messages_sent += 1
        nic.env.schedule_fn(nic.machine.dma.latency_ps, self._staged)

    def _staged(self) -> None:
        nic = self.nic
        first = min(self.msg.length, nic.loggp.mtu)
        dma = nic.machine.dma
        self.bw = nic.params.dma_per_op_ps + round(first * dma.G_eff)
        self.req = req = nic.machine.mem_port.request()
        if req.callbacks is None:
            self._granted(req)
        else:
            req.callbacks.append(self._granted)

    def _granted(self, _event: Event) -> None:
        self.nic.env.schedule_fn(self.bw, self._filled)

    def _filled(self) -> None:
        nic = self.nic
        port = nic.machine.mem_port
        port.busy_time += self.bw
        port.jobs_served += 1
        port.release(self.req)
        self.req = None
        rest = self.msg.length - min(self.msg.length, nic.loggp.mtu)
        if rest > 0:
            # Remaining bytes stream behind the wire; account their
            # memory-port occupancy without blocking injection.
            ServeChain(port, round(rest * nic.machine.dma.G_eff))
        injected = nic.machine.fabric.inject(self.msg)
        injected.callbacks.append(self._injected)

    def _injected(self, _event: Event) -> None:
        self.done.succeed(self.nic.env._now)


class BaselineNIC:
    """An RDMA / Portals 4 NIC attached to one machine."""

    #: Fault-injection hook (see :mod:`repro.faults`): when set on an
    #: instance, ``(label, code) -> code`` is consulted after each handler
    #: invocation on sPIN NICs.  A class-level ``None`` keeps the default
    #: path to a single identity test.
    _handler_fault = None

    #: Observer probe slots (see :mod:`repro.obs`), both neutral
    #: class-level ``None`` defaults set as *instance* attributes by an
    #: attached observer — pure readers, never scheduling kernel events:
    #:
    #: * ``_obs_msg_probe``: ``(rank, now_ps, message) -> None``, fired
    #:   when a received message completes (all packets arrived, DMA
    #:   durable) on both the baseline and sPIN completion paths;
    #: * ``_obs_hpu_probe``: ``(rank, now_ps, waiting) -> None``, fired by
    #:   the sPIN NIC after each payload-packet dispatch with the HPU
    #:   input-queue depth (the §3.2 flow-control signal).
    _obs_msg_probe = None
    _obs_hpu_probe = None

    def __init__(self, env: Environment, machine) -> None:
        self.env = env
        self.machine = machine
        self.rank = machine.rank
        self.params = machine.config.nic
        self.loggp = machine.config.loggp
        self.timeline = machine.timeline
        #: Serializes match-unit work; pipelined with packet arrivals.
        self.match_unit = Server(env, f"match[{self.rank}]")
        self._rx: dict[int, _MessageRx] = {}
        self._rx_name = f"rx[{self.rank}]"
        self._tx_name = f"tx[{self.rank}]"
        #: Packets take the callback chain (:class:`_RxChain`) instead of a
        #: generator process; structure-preserving, so traces are identical
        #: — disable to force the generator path everywhere.
        self.fast_rx = _fast_rx_default()
        self.messages_received = 0
        self.messages_sent = 0
        #: Non-header packets with no rx state (their header packet was
        #: dropped upstream by the congestion fabric).
        self.rx_orphan_packets = 0

    def reset(self) -> None:
        """Restore construction state (cluster reuse; see Session pooling)."""
        self.match_unit.reset()
        self._rx.clear()
        self.messages_received = 0
        self.messages_sent = 0
        self.rx_orphan_packets = 0
        # Drop any instance-level fault/observer hooks back to the class
        # defaults.
        self.__dict__.pop("_handler_fault", None)
        self.__dict__.pop("_obs_msg_probe", None)
        self.__dict__.pop("_obs_hpu_probe", None)

    @property
    def pending_rx(self) -> int:
        """In-flight receiver message states (``_MessageRx`` entries)."""
        return len(self._rx)

    @property
    def rx_stalled_messages(self) -> int:
        """Messages whose remaining payload can never arrive.

        A message whose header was matched but whose payload packets were
        tail-dropped by the congestion fabric stays incomplete forever —
        no retransmission in this model.  While the simulation is running
        an incomplete state may still be fed; once the DES has quiesced,
        every incomplete state counts here (and leaks unless reaped).
        """
        return sum(1 for state in self._rx.values() if not state.finished)

    def reap_stalled(self) -> int:
        """Drop rx states that never finished; returns how many.

        Call after the DES has drained: the silence is definitive, so the
        per-message state (match result, pending DMA events, payload
        buffers) is unreachable bookkeeping — exactly the leak this
        repairs.  Finished states are mid-completion continuations and are
        left alone.
        """
        stalled = [msg_id for msg_id, state in self._rx.items()
                   if not state.finished]
        for msg_id in stalled:
            del self._rx[msg_id]
        return len(stalled)

    # ------------------------------------------------------------------ RX --
    def on_packet(self, pkt: Packet) -> None:
        """Fabric delivery entry point (one pipeline per packet)."""
        if self.fast_rx:
            # Begin synchronously: match-unit requests join the FIFO in
            # delivery order either way, and every downstream timestamp is
            # unchanged — the URGENT 0-delay hop only cost a queue trip.
            _RxChain(self, pkt)._begin()
        else:
            self.env.process(self._rx_packet(pkt), name=self._rx_name)

    def _rx_packet(self, pkt: Packet) -> Generator:
        msg = pkt.message
        if pkt.is_header:
            start = self.env.now
            yield from self.match_unit.serve(self.params.header_match_ps)
            self.timeline.record(self.rank, "NIC", start, self.env.now, "match")
            match = self._match_message(msg)
            state = _MessageRx(msg, match)
            self._rx[msg.msg_id] = state
            hook = self._header_hook(state, pkt)
            if hook is not None:
                yield from hook
        else:
            start = self.env.now
            yield from self.match_unit.serve(self.params.cam_lookup_ps)
            self.timeline.record(self.rank, "NIC", start, self.env.now, "cam")
            state = self._rx.get(msg.msg_id)
            if state is None:
                # Unknown flow (header lost to congestion tail-drop): no
                # channel to deposit into — drop, as real NICs do.
                self.rx_orphan_packets += 1
                return

        yield from self._rx_tail(state, pkt)

    def _rx_tail(self, state: _MessageRx, pkt: Packet) -> Generator:
        """Everything after matching: deposit, bookkeeping, completion."""
        yield from self._deliver_packet(state, pkt)
        state.packets_seen += 1
        if state.complete and not state.finished:
            state.finished = True
            yield from self._finish_message(state)
            del self._rx[state.message.msg_id]

    def _finish_tail(self, state: _MessageRx) -> Generator:
        """Completion continuation for the fast RX chain."""
        yield from self._finish_message(state)
        del self._rx[state.message.msg_id]

    def _hook_tail(self, hook: Generator, state: _MessageRx,
                   pkt: Packet) -> Generator:
        """Header-handler continuation for the fast RX chain."""
        yield from hook
        yield from self._rx_tail(state, pkt)

    def _match_message(self, msg: Message) -> Optional[MatchResult]:
        """Route the header through Portals matching (None for ack/reply)."""
        if msg.kind in ("ack", "reply"):
            return None
        pt_index = msg.meta.get("pt_index", 0)
        kind = "get" if msg.kind == "get" else "put"
        length = msg.meta.get("get_length", msg.length) if kind == "get" else msg.length
        return self.machine.ni.match(
            pt_index,
            msg.source,
            msg.match_bits,
            kind=kind,
            length=length,
            requested_offset=msg.offset,
            header_meta={"hdr_data": msg.hdr_data, "user_hdr": msg.user_hdr},
        )

    def _header_hook(self, state: _MessageRx,
                     pkt: Packet) -> Optional[Generator]:
        """Hook for subclasses (sPIN header handlers).

        Called synchronously right after matching; return a generator to
        run timed header work, or None when the message takes the plain
        deposit path (which lets the fast RX chain stay inline).
        """
        return None

    # -- per-packet data movement ----------------------------------------
    def _deliver_packet(self, state: _MessageRx, pkt: Packet) -> Generator:
        msg = state.message
        if msg.kind in ("put", "atomic"):
            if state.match is None or not state.match.matched:
                state.dropped_bytes += pkt.payload_len
                pt = self._pt_for(msg)
                if pt is not None:
                    pt.record_drop(pkt.payload_len)
                return
            yield from self._deposit_put_packet(state, pkt)
        elif msg.kind == "reply":
            yield from self._deposit_reply_packet(state, pkt)
        elif msg.kind in ("get", "ack"):
            state.bytes_seen += pkt.payload_len  # header-only messages
        else:
            raise ValueError(f"unknown message kind {msg.kind!r}")

    def _deposit_put_packet(self, state: _MessageRx, pkt: Packet) -> Generator:
        entry = state.match.entry
        offset = entry.start + state.match.deposit_offset + pkt.payload_offset
        completion = yield from self.machine.dma.write(
            offset if self.machine.memory is not None else 0,
            pkt.payload,
            nbytes=pkt.payload_len,
            label=f"rx m{state.message.msg_id}",
        )
        state.dma_events.append(completion)
        state.bytes_seen += pkt.payload_len

    def _deposit_reply_packet(self, state: _MessageRx, pkt: Packet) -> Generator:
        msg = state.message
        md = self.machine.ni.mds.get(msg.meta.get("md_id", -1))
        base = (md.start if md else 0) + msg.meta.get("reply_offset", 0)
        completion = yield from self.machine.dma.write(
            base + pkt.payload_offset,
            pkt.payload,
            nbytes=pkt.payload_len,
            label=f"rx-reply m{msg.msg_id}",
        )
        state.dma_events.append(completion)
        state.bytes_seen += pkt.payload_len

    # -- message completion ---------------------------------------------------
    def _finish_message(self, state: _MessageRx) -> Generator:
        msg = state.message
        if state.dma_events:
            evs = state.dma_events
            # A 1-element AllOf is just its event; skip the extra hop.
            yield evs[0] if len(evs) == 1 else self.env.all_of(evs)
        self.messages_received += 1
        if self._obs_msg_probe is not None:
            self._obs_msg_probe(self.rank, self.env.now, msg)
        if msg.kind in ("put", "atomic"):
            yield from self._complete_put(state)
        elif msg.kind == "get":
            yield from self._serve_get(state)
        elif msg.kind == "reply":
            self._complete_initiator(msg, EventKind.REPLY)
        elif msg.kind == "ack":
            self._complete_initiator(msg, EventKind.ACK)

    def _complete_put(self, state: _MessageRx) -> Generator:
        msg = state.message
        match = state.match
        if match is None or not match.matched:
            return  # dropped: flow-control event was already raised
        entry = match.entry
        if entry.counter is not None:
            entry.counter.increment(1, nbytes=state.bytes_seen)
        if entry.event_queue is not None:
            kind = (
                EventKind.PUT_OVERFLOW
                if match.list_name == "overflow"
                else EventKind.PUT
            )
            entry.event_queue.push(
                PortalsEvent(
                    kind=kind,
                    initiator=msg.source,
                    match_bits=msg.match_bits,
                    length=msg.length,
                    offset=match.deposit_offset,
                    hdr_data=msg.hdr_data,
                    user_ptr=entry.user_ptr,
                    when_ps=self.env.now,
                    meta={"user_hdr": msg.user_hdr},
                )
            )
        if msg.meta.get("ack"):
            ack = Message(
                source=self.rank,
                target=msg.source,
                length=0,
                kind="ack",
                match_bits=msg.match_bits,
                meta={"md_id": msg.meta.get("md_id", -1), "acked_bytes": msg.length},
            )
            yield from self._send_now(ack, from_host=False)

    def _serve_get(self, state: _MessageRx) -> Generator:
        msg = state.message
        match = state.match
        if match is None or not match.matched:
            return
        entry = match.entry
        nbytes = msg.meta.get("get_length", 0)
        src_offset = entry.start + msg.meta.get("get_offset", 0)
        data = yield from self.machine.dma.read(
            src_offset, nbytes, label=f"get m{msg.msg_id}"
        )
        if entry.counter is not None:
            entry.counter.increment(1, nbytes=nbytes)
        if entry.event_queue is not None:
            entry.event_queue.push(
                PortalsEvent(
                    kind=EventKind.GET,
                    initiator=msg.source,
                    match_bits=msg.match_bits,
                    length=nbytes,
                    when_ps=self.env.now,
                    user_ptr=entry.user_ptr,
                )
            )
        reply = Message(
            source=self.rank,
            target=msg.source,
            length=nbytes,
            kind="reply",
            payload=data,
            match_bits=msg.match_bits,
            meta={
                "md_id": msg.meta.get("md_id", -1),
                "reply_offset": msg.meta.get("reply_offset", 0),
            },
        )
        yield from self._send_now(reply, from_host=False)

    def _complete_initiator(self, msg: Message, kind: EventKind) -> None:
        md = self.machine.ni.mds.get(msg.meta.get("md_id", -1))
        if md is None:
            return
        if md.counter is not None:
            md.counter.increment(1, nbytes=msg.meta.get("acked_bytes", msg.length))
        if md.event_queue is not None:
            md.event_queue.push(
                PortalsEvent(
                    kind=kind,
                    initiator=msg.source,
                    match_bits=msg.match_bits,
                    length=msg.length,
                    when_ps=self.env.now,
                )
            )

    # ------------------------------------------------------------------- TX --
    def send(self, msg: Message, from_host: bool = True) -> Event:
        """Queue a message for transmission; returns the injection-done event.

        ``from_host`` charges the source-side DMA staging (L + first-packet
        fill at the DMA rate) and streams the remaining bytes through the
        memory port in the background — NIC sends from device buffers
        (sPIN put-from-device, ACKs, get replies) skip all of that and hand
        the message straight to the fabric, no wrapper process needed.
        """
        if not from_host or msg.length == 0:
            self.messages_sent += 1
            return self.machine.fabric.inject(msg)
        if self.fast_rx:  # one switch governs both NIC fast paths
            return _SendChain(self, msg).done
        return self.env.process(
            self._send_now(msg, from_host), name=self._tx_name
        )

    def _send_now(self, msg: Message, from_host: bool) -> Generator:
        self.messages_sent += 1
        if from_host and msg.length > 0:
            yield self.env.timeout(self.machine.dma.latency_ps)
            first = min(msg.length, self.loggp.mtu)
            yield from self.machine.mem_port.serve(
                self.params.dma_per_op_ps + round(first * self.machine.dma.G_eff)
            )
            rest = msg.length - first
            if rest > 0:
                # Remaining bytes stream behind the wire; account their
                # memory-port occupancy without blocking injection.
                self.env.process(
                    self.machine.mem_port.serve(round(rest * self.machine.dma.G_eff)),
                    name=self._tx_name,
                )
        done = self.machine.fabric.inject(msg)
        yield done
        return self.env.now

    # -- misc ------------------------------------------------------------------
    def _pt_for(self, msg: Message):
        """The message's portal table entry, or None if it is unallocated."""
        try:
            return self.machine.ni.pt(msg.meta.get("pt_index", 0))
        except PortalsError:
            return None
