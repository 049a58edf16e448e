"""In-memory RAID-5 storage cluster (§5.3, Fig. 7b/7c).

Topology: rank 0 = client, ranks 1..ndata = data servers, rank ndata+1 =
parity server.  A write of N bytes is striped as N/ndata contiguous bytes
per data server; the parity region holds the XOR of the data chunks
(p' = p ⊕ n ⊕ n').

Write protocols (Fig. 7b):

* **rdma** — client put → server CPU (poll, read old + new, XOR, write
  new) → put diff → parity CPU (poll, read old parity, XOR, write) → ACK →
  server CPU → ACK → client.
* **spin** — client put → server payload handlers (DMA read old, XOR on
  the HPU, DMA write new, put diff *from the device*, per packet) → parity
  payload handlers fold each diff with handler concurrency control → parity
  completion handler ACKs from the device → the server's ACK-forward header
  handler relays to the client, all without any server CPU.

Reads: **rdma** models a Lustre-style request served by the server CPU;
**spin** serves it in the read header handler via put-from-host (C.3.5's
``primary_read_header_handler``).

Data paths move real bytes; :meth:`RaidCluster.verify` recomputes parity
with numpy and checks every stored block.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import PtlHPUAllocMem, spin_me
from repro.core.handlers import ReturnCode
from repro.core.nic import SpinNIC
from repro.des.resources import Resource
from repro.handlers_library import XOR_CYCLES_PER_BYTE, xor_bytes
from repro.machine.cluster import Cluster
from repro.machine.config import MachineConfig
from repro.network.topology import UniformLatency
from repro.machine.config import CROSS_POD_LATENCY_PS, config_by_name
from repro.portals.matching import MatchEntry
from repro.portals.types import ME_OP_PUT

__all__ = ["RAID_WRITE_TAG", "RaidCluster"]

RAID_WRITE_TAG = 40
RAID_READ_TAG = 41
PARITY_TAG = 53       # the paper's PARITY_TAG
SERVER_ACK_TAG = 30   # parity → data server
CLIENT_ACK_TAG = 31   # data server → client
READ_DATA_TAG = 42    # read replies to the client


class RaidCluster:
    """A RAID-5 storage array on the simulated fabric."""

    def __init__(
        self,
        mode: str,
        config: MachineConfig | str,
        ndata: int = 4,
        region_bytes: int = 1 << 20,
        with_memory: bool = False,
    ):
        if isinstance(config, str):
            config = config_by_name(config)
        if mode not in ("rdma", "spin"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.ndata = ndata
        self.region_bytes = region_bytes
        self.with_memory = with_memory
        self.cluster = Cluster(
            ndata + 2,
            config=config,
            nic_factory=SpinNIC,
            topology=UniformLatency(latency=CROSS_POD_LATENCY_PS),
            with_memory=with_memory,
        )
        self.env = self.cluster.env
        self.client = self.cluster[0]
        self.data_nodes = [self.cluster[i + 1] for i in range(ndata)]
        self.parity_node = self.cluster[ndata + 1]
        self.mtu = config.loggp.mtu
        # Client-side ACK accounting.
        self.ack_counter = self.client.new_counter("client-acks")
        self.client.post_me(0, MatchEntry(
            match_bits=CLIENT_ACK_TAG, length=1 << 30, counter=self.ack_counter,
        ))
        self.read_counter = self.client.new_counter("client-reads")
        self.client.post_me(0, MatchEntry(
            match_bits=READ_DATA_TAG, length=1 << 30, counter=self.read_counter,
            options=ME_OP_PUT,
        ))
        if mode == "rdma":
            self._setup_rdma()
        else:
            self._setup_spin()
        # Reference state for verification.  Timing-only runs never touch
        # it, so they skip the region-sized arrays: a finished cluster is
        # cyclic garbage and would hold them until a full GC pass.
        self._expected = ([np.zeros(region_bytes, np.uint8) for _ in range(ndata)]
                          if with_memory else [])
        # Cumulative completion bookkeeping (supports concurrent operations).
        self._acks_promised = 0
        self._reads_promised = 0

    # ------------------------------------------------------------------
    def _setup_rdma(self) -> None:
        # Incoming writes/diffs land in a staging area behind the data
        # region (a bounce buffer): the CPU protocol then reads old + new
        # and updates the region — the extra copy RDMA cannot avoid.
        for node in self.data_nodes:
            eq = node.new_eq()
            node.post_me(0, MatchEntry(match_bits=RAID_WRITE_TAG,
                                       start=self.region_bytes,
                                       length=self.region_bytes, event_queue=eq))
            req = node.new_eq()
            node.post_me(0, MatchEntry(match_bits=RAID_READ_TAG,
                                       length=1 << 20, event_queue=req))
            ack = node.new_eq()
            node.post_me(0, MatchEntry(match_bits=SERVER_ACK_TAG, length=16,
                                       event_queue=ack))
            self.env.process(self._rdma_data_server(node, eq, ack))
            self.env.process(self._rdma_read_server(node, req))
        # One source-filtered staging area per data server so concurrent
        # diffs never collide in the bounce buffer.
        peq = self.parity_node.new_eq()
        for i, node in enumerate(self.data_nodes):
            self.parity_node.post_me(0, MatchEntry(
                match_bits=PARITY_TAG, source=node.rank,
                start=self.region_bytes * (1 + i),
                length=self.region_bytes, event_queue=peq,
            ))
        self.env.process(self._rdma_parity_server(peq))

    def _rdma_data_server(self, node, eq, ack_eq):
        while True:
            ev = yield from node.wait_event(eq)
            # Read old + staged new, XOR for the diff, write the new data.
            yield from node.cpu.touch(ev.length, passes=3, label="raid-rmw")
            yield from node.cpu.compute_cycles(
                ev.length * XOR_CYCLES_PER_BYTE, label="raid-xor"
            )
            diff = None
            if self.with_memory:
                staged = node.memory.read(self.region_bytes + ev.offset, ev.length)
                old = node.memory.read(ev.offset, ev.length)
                diff = np.bitwise_xor(staged, old)
                node.memory.write(ev.offset, staged)
            yield from node.host_put(
                self.parity_node.rank, ev.length, match_bits=PARITY_TAG,
                offset=ev.offset, hdr_data=ev.initiator, payload=diff,
            )
            ack = yield from node.wait_event(ack_eq)
            yield from node.host_put(int(ack.hdr_data), 1,
                                     match_bits=CLIENT_ACK_TAG)

    def _rdma_parity_server(self, eq):
        node = self.parity_node
        while True:
            ev = yield from node.wait_event(eq)
            yield from node.cpu.touch(ev.length, passes=3, label="parity-rmw")
            yield from node.cpu.compute_cycles(
                ev.length * XOR_CYCLES_PER_BYTE, label="parity-xor"
            )
            if self.with_memory:
                staging = self.region_bytes * (ev.initiator)  # server i+1 → area i+1
                diff = node.memory.read(staging + ev.offset, ev.length)
                parity = node.memory.view(ev.offset, ev.length)
                parity ^= diff
            yield from node.host_put(
                ev.initiator, 1, match_bits=SERVER_ACK_TAG, hdr_data=ev.hdr_data,
            )

    def _rdma_read_server(self, node, req_eq):
        while True:
            ev = yield from node.wait_event(req_eq)
            yield from node.cpu.match()
            yield from node.host_put(ev.initiator, int(ev.hdr_data),
                                     match_bits=READ_DATA_TAG)

    # ------------------------------------------------------------------
    def _setup_spin(self) -> None:
        parity_rank = self.parity_node.rank
        for node in self.data_nodes:
            node.post_me(0, spin_me(
                match_bits=RAID_WRITE_TAG, length=self.region_bytes,
                header_handler=self._primary_header,
                payload_handler=self._make_primary_payload(parity_rank),
                hpu_memory=PtlHPUAllocMem(node, 1024),
            ))
            node.post_me(0, spin_me(
                match_bits=RAID_READ_TAG, length=1 << 20,
                header_handler=self._primary_read_header,
                hpu_memory=PtlHPUAllocMem(node, 256),
            ))
            node.post_me(0, spin_me(
                match_bits=SERVER_ACK_TAG, length=16,
                header_handler=self._ack_forward_header,
                hpu_memory=PtlHPUAllocMem(node, 256),
            ))
        # Striped locks: diffs touching the same MTU-aligned parity range
        # serialize (RMW correctness); different ranges fold in parallel
        # across HPUs.
        stripe_locks: dict[int, Resource] = {}
        self.parity_node.post_me(0, spin_me(
            match_bits=PARITY_TAG, length=self.region_bytes,
            header_handler=self._parity_header,
            payload_handler=self._make_parity_payload(stripe_locks, self.mtu),
            completion_handler=self._parity_completion,
            hpu_memory=PtlHPUAllocMem(self.parity_node, 4096),
        ))

    # -- data-server handlers (per-message state keyed by msg id) ---------
    @staticmethod
    def _primary_header(ctx, h):
        ctx.charge(4)
        ctx.state.vars[("msg", h.msg_id)] = {
            "source": h.source, "client": h.hdr_data,
        }
        return ReturnCode.PROCESS_DATA

    def _make_primary_payload(self, parity_rank: int):
        def payload(ctx, p):
            # The ME-relative base already includes the put's remote offset;
            # handlers address packet-relative positions only.
            info = ctx.state.vars[("msg", ctx.message.msg_id)]
            old = yield from ctx.dma_from_host_b(p.payload_offset, p.payload_len)
            ctx.charge_per_byte(p.payload_len, XOR_CYCLES_PER_BYTE)
            diff = None
            new = None
            if old is not None and p.payload is not None:
                new = np.asarray(p.payload)
                diff = xor_bytes(old, new)
            yield from ctx.dma_to_host_b(new, p.payload_offset,
                                         nbytes=p.payload_len)
            yield from ctx.put_from_device(
                diff, target=parity_rank, match_bits=PARITY_TAG,
                nbytes=p.payload_len, hdr_data=info["client"],
                user_hdr={
                    "block_offset": ctx.message.offset + p.payload_offset,
                    "server": ctx.nic.rank,
                },
            )
            return ReturnCode.SUCCESS

        return payload

    @staticmethod
    def _primary_read_header(ctx, h):
        """C.3.5 primary_read_header_handler: serve the read from the NIC."""
        ctx.charge(6)
        nbytes = (h.user_hdr or {}).get("length", h.hdr_data) or h.hdr_data
        # The ME-relative base already includes the request's remote offset.
        yield from ctx.put_from_host(
            0, int(nbytes), target=h.source, match_bits=READ_DATA_TAG
        )
        return ReturnCode.DROP  # request consumed on the NIC

    @staticmethod
    def _ack_forward_header(ctx, h):
        """Forward the parity ACK straight to the client, from the device."""
        ctx.charge(4)
        yield from ctx.put_from_device(
            None, target=int(h.hdr_data), match_bits=CLIENT_ACK_TAG, nbytes=1
        )
        return ReturnCode.DROP

    # -- parity handlers ---------------------------------------------------
    @staticmethod
    def _parity_header(ctx, h):
        ctx.charge(6)
        user = h.user_hdr or {}
        ctx.state.vars[("msg", h.msg_id)] = {
            "source": h.source, "client": h.hdr_data,
            "block_offset": user.get("block_offset", h.offset),
        }
        return ReturnCode.PROCESS_DATA

    @staticmethod
    def _make_parity_payload(stripe_locks: dict, mtu: int):
        def payload(ctx, p):
            info = ctx.state.vars[("msg", ctx.message.msg_id)]
            base = info["block_offset"]
            # Handler concurrency control (§3.2): diffs for the same parity
            # range fold under a lock so read-modify-write never loses
            # updates; disjoint ranges proceed in parallel.
            stripe = (base + p.payload_offset) // mtu
            lock = stripe_locks.setdefault(stripe, Resource(ctx.env, capacity=1))
            req = lock.request()
            yield req
            try:
                old = yield from ctx.dma_from_host_b(base + p.payload_offset,
                                                     p.payload_len)
                ctx.charge_per_byte(p.payload_len, XOR_CYCLES_PER_BYTE)
                folded = None
                if old is not None and p.payload is not None:
                    folded = xor_bytes(old, np.asarray(p.payload))
                write_done = yield from ctx.dma_to_host_b(
                    folded, base + p.payload_offset, nbytes=p.payload_len
                )
                yield write_done
            finally:
                lock.release(req)
            return ReturnCode.SUCCESS

        return payload

    @staticmethod
    def _parity_completion(ctx, dropped_bytes, flow_control_triggered):
        info = ctx.state.vars.pop(("msg", ctx.message.msg_id))
        ctx.charge(4)
        yield from ctx.put_from_device(
            None, target=info["source"], match_bits=SERVER_ACK_TAG,
            nbytes=1, hdr_data=info["client"],
        )
        return ReturnCode.SUCCESS

    # ------------------------------------------------------------------
    def acks_for_write(self, total_bytes: int) -> int:
        """ACKs the client must collect for one striped write."""
        chunk = -(-total_bytes // self.ndata)
        if self.mode == "rdma":
            return self.ndata
        # sPIN: every MTU-sized diff message is ACKed independently.
        return sum(
            -(-min(chunk, total_bytes - i * chunk) // self.mtu)
            for i in range(self.ndata)
        )

    def client_write(self, total_bytes: int, offset: int = 0):
        """Striped write; completes when all ACKs arrived (Fig. 7c metric)."""
        chunk = -(-total_bytes // self.ndata)
        self._acks_promised += self.acks_for_write(total_bytes)
        expected = self._acks_promised
        rng = np.random.default_rng(total_bytes)
        for i, node in enumerate(self.data_nodes):
            nbytes = min(chunk, total_bytes - i * chunk)
            if nbytes <= 0:
                break
            payload = None
            if self.with_memory:
                payload = rng.integers(0, 256, nbytes, dtype=np.uint8)
                self._expected[i][offset : offset + nbytes] = payload
            yield from self.client.host_put(
                node.rank, nbytes, match_bits=RAID_WRITE_TAG,
                offset=offset, payload=payload, hdr_data=self.client.rank,
            )
        gate = self.env.event()
        self.ack_counter.on_threshold(expected, lambda: gate.succeed(self.env.now))
        yield gate
        yield from self.client.cpu.poll()
        return self.env.now

    def client_read(self, node_index: int, nbytes: int, offset: int = 0):
        """Read ``nbytes`` from one data server (request/reply protocol)."""
        node = self.data_nodes[node_index]
        self._reads_promised += 1
        expected = self._reads_promised
        yield from self.client.host_put(
            node.rank, 0, match_bits=RAID_READ_TAG, offset=offset,
            hdr_data=nbytes, user_hdr={"length": nbytes},
        )
        gate = self.env.event()
        self.read_counter.on_threshold(expected, lambda: gate.succeed(self.env.now))
        yield gate
        yield from self.client.cpu.poll()
        return self.env.now

    # ------------------------------------------------------------------
    def verify(self) -> bool:
        """Check stored data and parity against the numpy reference."""
        if not self.with_memory:
            raise RuntimeError("verify() requires with_memory=True")
        for i, node in enumerate(self.data_nodes):
            if not np.array_equal(
                node.memory.read(0, self.region_bytes), self._expected[i]
            ):
                return False
        expected_parity = np.zeros(self.region_bytes, np.uint8)
        for arr in self._expected:
            expected_parity ^= arr
        return np.array_equal(
            self.parity_node.memory.read(0, self.region_bytes), expected_parity
        )
