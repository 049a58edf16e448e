"""Generator reference walks: the oracle for the production callback chains.

The simulator runs its hot paths — fabric TX serialization, the
congestion fabric's per-hop walk, the NIC receive pipeline and host-send
staging — as callback chains (``_TxChain``, ``_departed`` callbacks,
``_RxChain``, ``_SendChain``).  Each chain is *push-structure preserving*:
it schedules exactly the kernel events, at the same ``(time, priority)``
and in the same push order, as the straightforward generator process
written here.  These generators are that straightforward version, kept
only as the reference the tests compare the chains against: same
``Timeline.canonical_bytes()``, same results, same interleaving under
timestamp ties.

:data:`PATCHES` lists the class attributes the reference replaces; the
``select_walk`` fixture in ``conftest.py`` swaps them in and out.
"""

from __future__ import annotations

from typing import Generator

from repro.des.engine import Timeout
from repro.des.resources import RateLimiter
from repro.machine.nic import BaselineNIC, _MessageRx
from repro.network.congestion import CongestionFabric
from repro.network.fabric import Fabric
from repro.network.packets import Message, Packet, packetize

__all__ = ["PATCHES", "wait_turn"]


def wait_turn(limiter: RateLimiter) -> Timeout:
    """The next ``g`` grant of ``limiter`` as a timeout event."""
    env = limiter.env
    return env.timeout(limiter.claim() - env._now)


# -- fabric TX ---------------------------------------------------------------
def fabric_inject(fabric: Fabric, message: Message):
    if message.source not in fabric._msg_limiter:
        # Dead or unattached source: no walk at all, same as production.
        return _CHAIN_INJECT(fabric, message)
    return fabric.env.process(
        _send_proc(fabric, message),
        name=f"tx[{message.source}->{message.target}]",
    )


def _send_proc(fabric: Fabric, message: Message) -> Generator:
    loggp = fabric.params.loggp
    src = message.source
    packets = packetize(message, loggp.mtu)
    fabric.messages_injected += 1
    # g: minimum spacing between message starts at this NIC.
    yield wait_turn(fabric._msg_limiter[src])
    latency = fabric.topology.latency_ps(src, message.target)
    env = fabric.env
    wire = fabric._wire[src]
    timeline = fabric.timeline
    for pkt in packets:
        start = env._now
        yield from wire.serve(loggp.serialization_ps(pkt.wire_bytes))
        if timeline.enabled:
            timeline.record(
                src, "NIC-tx", start, env._now,
                f"m{message.msg_id}p{pkt.seq}",
            )
        fabric._dispatch(pkt, latency)
    return env.now


# -- congestion fabric hop ---------------------------------------------------
def congestion_enter(fabric: CongestionFabric, pkt: Packet, route: tuple,
                     hop: int) -> None:
    """Admission as in production, then wait on a pre-built Timeout."""
    link, _delay = route[hop]
    env = fabric.env
    wait = link.admit(env._now, pkt.wire_bytes * fabric._G, fabric._depth)
    if fabric._link_probe is not None:
        fabric._link_probe(link, env._now, wait, pkt)
    if wait < 0:
        fabric.packets_dropped_links += 1
        return
    gate = Timeout(env, wait)
    env.process(_hop_proc(fabric, gate, pkt, route, hop),
                name=f"hop[{link.name}]")


def _hop_proc(fabric: CongestionFabric, gate: Timeout, pkt: Packet,
              route: tuple, hop: int) -> Generator:
    yield gate
    fabric._departed(pkt, route, hop)


# -- NIC receive -------------------------------------------------------------
def nic_on_packet(nic: BaselineNIC, pkt: Packet) -> None:
    nic.env.process(_rx_packet(nic, pkt), name=nic._rx_name)


def _rx_packet(nic: BaselineNIC, pkt: Packet) -> Generator:
    msg = pkt.message
    if pkt.is_header:
        start = nic.env.now
        yield from nic.match_unit.serve(nic.params.header_match_ps)
        nic.timeline.record(nic.rank, "NIC", start, nic.env.now, "match")
        match = nic._match_message(msg)
        state = _MessageRx(msg, match)
        nic._rx[msg.msg_id] = state
        hook = nic._header_hook(state, pkt)
        if hook is not None:
            yield from hook
    else:
        start = nic.env.now
        yield from nic.match_unit.serve(nic.params.cam_lookup_ps)
        nic.timeline.record(nic.rank, "NIC", start, nic.env.now, "cam")
        state = nic._rx.get(msg.msg_id)
        if state is None:
            # Unknown flow (header lost to congestion tail-drop): drop.
            nic.rx_orphan_packets += 1
            return
    if state.extra.get("mode", "baseline") == "baseline":
        deliver = _deliver_packet(nic, state, pkt)
    else:
        deliver = nic._deliver_packet(state, pkt)  # sPIN handler modes
    yield from deliver
    state.packets_seen += 1
    if state.complete and not state.finished:
        state.finished = True
        yield from nic._finish_message(state)
        del nic._rx[state.message.msg_id]


def _deliver_packet(nic: BaselineNIC, state: _MessageRx,
                    pkt: Packet) -> Generator:
    """The plain deposit: DMA-write matched put/reply data to host memory."""
    msg = state.message
    if msg.kind in ("put", "atomic"):
        if state.match is None or not state.match.matched:
            state.dropped_bytes += pkt.payload_len
            pt = nic._pt_for(msg)
            if pt is not None:
                pt.record_drop(pkt.payload_len)
            return
        entry = state.match.entry
        offset = entry.start + state.match.deposit_offset + pkt.payload_offset
        if nic.machine.memory is None:
            offset = 0
        label = f"rx m{msg.msg_id}"
    elif msg.kind == "reply":
        md = nic.machine.ni.mds.get(msg.meta.get("md_id", -1))
        base = (md.start if md else 0) + msg.meta.get("reply_offset", 0)
        offset = base + pkt.payload_offset
        label = f"rx-reply m{msg.msg_id}"
    elif msg.kind in ("get", "ack"):
        state.bytes_seen += pkt.payload_len  # header-only messages
        return
    else:
        raise ValueError(f"unknown message kind {msg.kind!r}")
    completion = yield from nic.machine.dma.write(
        offset, pkt.payload, nbytes=pkt.payload_len, label=label,
    )
    state.dma_events.append(completion)
    state.bytes_seen += pkt.payload_len


# -- NIC host send -----------------------------------------------------------
def nic_send(nic: BaselineNIC, msg: Message, from_host: bool = True):
    if not from_host or msg.length == 0:
        # Device-buffer sends hand straight to the fabric in production too.
        return _CHAIN_SEND(nic, msg, from_host)
    return nic.env.process(_send_from_host(nic, msg), name=nic._tx_name)


def _send_from_host(nic: BaselineNIC, msg: Message) -> Generator:
    nic.messages_sent += 1
    machine = nic.machine
    yield nic.env.timeout(machine.dma.latency_ps)
    first = min(msg.length, nic.loggp.mtu)
    yield from machine.mem_port.serve(
        nic.params.dma_per_op_ps + round(first * machine.dma.G_eff)
    )
    rest = msg.length - first
    if rest > 0:
        # Remaining bytes stream behind the wire without blocking it.
        nic.env.process(
            machine.mem_port.serve(round(rest * machine.dma.G_eff)),
            name=nic._tx_name,
        )
    yield machine.fabric.inject(msg)
    return nic.env.now


_CHAIN_INJECT = Fabric.inject
_CHAIN_SEND = BaselineNIC.send

#: (class, attribute, production chain, generator reference).
PATCHES = (
    (Fabric, "inject", Fabric.inject, fabric_inject),
    (CongestionFabric, "_enter", CongestionFabric._enter, congestion_enter),
    (BaselineNIC, "on_packet", BaselineNIC.on_packet, nic_on_packet),
    (BaselineNIC, "send", BaselineNIC.send, nic_send),
)
