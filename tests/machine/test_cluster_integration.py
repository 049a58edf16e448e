"""Integration tests: puts, gets, acks, and triggered ops through the stack."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.des import ns
from repro.machine import Cluster, integrated_config, discrete_config
from repro.network import UniformLatency
from repro.portals import (
    EventKind,
    MatchEntry,
    ME_MANAGE_LOCAL,
    ME_OP_GET,
    ME_OP_PUT,
    MemoryDescriptor,
)


def two_node_cluster(config=None, **kw):
    return Cluster(2, config=config or integrated_config(), **kw)


class TestPut:
    def test_put_deposits_payload_and_raises_event(self):
        cluster = two_node_cluster()
        env = cluster.env
        src, dst = cluster[0], cluster[1]
        eq = dst.new_eq()
        buf = dst.memory.alloc(4096)
        dst.post_me(0, MatchEntry(match_bits=5, start=buf, length=4096, event_queue=eq))
        data = np.arange(256, dtype=np.uint8)

        def sender():
            yield from src.host_put(1, 256, match_bits=5, payload=data)

        def receiver():
            ev = yield from dst.wait_event(eq)
            return ev

        env.process(sender())
        p = env.process(receiver())
        ev = env.run(until=p)
        assert ev.kind == EventKind.PUT
        assert ev.length == 256
        assert ev.initiator == 0
        assert np.array_equal(dst.memory.read(buf, 256), data)

    def test_put_latency_breakdown_small_message(self):
        """One-way small put ≈ o + src DMA + serialization + L + match + DMA write + L_dma."""
        cfg = integrated_config()
        cluster = Cluster(2, config=cfg, topology=UniformLatency(latency=ns(450)))
        env = cluster.env
        src, dst = cluster[0], cluster[1]
        eq = dst.new_eq()
        dst.post_me(0, MatchEntry(match_bits=1, start=0, length=64, event_queue=eq))

        def sender():
            yield from src.host_put(1, 8, match_bits=1)

        arrival = []
        eq.on_next(lambda ev: arrival.append(env.now))
        env.process(sender())
        env.run()
        o = ns(65)
        src_dma = ns(50) + ns(10) + round(8 * 6.7)
        ser = 8 * 20
        L = ns(450)
        match = ns(30)
        dep = ns(10) + round(8 * 6.7)
        land = ns(50)
        assert arrival[0] == o + src_dma + ser + L + match + dep + land

    def test_multi_packet_put_round_trip_data(self):
        cluster = two_node_cluster()
        env = cluster.env
        src, dst = cluster[0], cluster[1]
        eq = dst.new_eq()
        buf = dst.memory.alloc(20_000)
        dst.post_me(0, MatchEntry(match_bits=2, start=buf, length=20_000, event_queue=eq))
        rng = np.random.default_rng(42)
        data = rng.integers(0, 256, 20_000, dtype=np.uint8)

        def sender():
            yield from src.host_put(1, 20_000, match_bits=2, payload=data)

        env.process(sender())
        env.run()
        assert np.array_equal(dst.memory.read(buf, 20_000), data)
        assert eq.poll().length == 20_000

    def test_unmatched_put_trips_flow_control(self):
        cluster = two_node_cluster()
        env = cluster.env
        src, dst = cluster[0], cluster[1]
        eq = dst.new_eq()
        dst.ni.pt_alloc(0, eq=eq)

        def sender():
            yield from src.host_put(1, 128, match_bits=77)

        env.process(sender())
        env.run()
        assert not dst.ni.pt(0).enabled
        assert dst.ni.pt(0).dropped_bytes >= 128
        assert eq.poll().kind == EventKind.PT_DISABLED

    def test_put_with_ack_increments_md_counter(self):
        cluster = two_node_cluster()
        env = cluster.env
        src, dst = cluster[0], cluster[1]
        dst.post_me(0, MatchEntry(match_bits=3, length=1024))
        ct = src.new_counter()
        md = src.bind_md(MemoryDescriptor(length=1024, counter=ct))

        def sender():
            yield from src.host_put(1, 512, match_bits=3, ack=True, md=md)

        env.process(sender())
        env.run()
        assert ct.success == 1
        assert ct.bytes == 512


class TestGet:
    def test_get_fetches_remote_data(self):
        cluster = two_node_cluster()
        env = cluster.env
        requester, server = cluster[0], cluster[1]
        # Server exposes data.
        sbuf = server.memory.alloc(1024)
        payload = np.arange(100, dtype=np.uint8)
        server.memory.write(sbuf, payload)
        server.post_me(0, MatchEntry(match_bits=9, options=ME_OP_GET, start=sbuf, length=1024))
        # Requester's landing zone.
        rbuf = requester.memory.alloc(1024)
        ct = requester.new_counter()
        md = requester.bind_md(MemoryDescriptor(start=rbuf, length=1024, counter=ct))

        def proc():
            yield from requester.host_get(1, 100, match_bits=9, md=md)

        env.process(proc())
        env.run()
        assert ct.success == 1
        assert np.array_equal(requester.memory.read(rbuf, 100), payload)

    def test_get_reply_offset(self):
        cluster = two_node_cluster()
        env = cluster.env
        requester, server = cluster[0], cluster[1]
        sbuf = server.memory.alloc(256)
        server.memory.write(sbuf, np.full(16, 3, np.uint8))
        server.post_me(0, MatchEntry(match_bits=1, options=ME_OP_GET, start=sbuf, length=256))
        rbuf = requester.memory.alloc(256)
        md = requester.bind_md(MemoryDescriptor(start=rbuf, length=256))

        def proc():
            yield from requester.host_get(1, 16, match_bits=1, md=md, reply_offset=32)

        env.process(proc())
        env.run()
        assert np.array_equal(requester.memory.read(rbuf + 32, 16), np.full(16, 3, np.uint8))


class TestTriggered:
    def test_triggered_put_fires_without_host(self):
        """Portals 4 ping-pong: pong pre-armed, no CPU involvement."""
        cluster = two_node_cluster()
        env = cluster.env
        a, b = cluster[0], cluster[1]
        # b: ME for the ping, counter-attached.
        ct = b.new_counter()
        b.post_me(0, MatchEntry(match_bits=1, length=4096, counter=ct))
        # b: pre-arm the pong (fires when ping's counter reaches 1).
        pong_eq = a.new_eq()
        a.post_me(0, MatchEntry(match_bits=2, length=4096, event_queue=pong_eq))
        from repro.network.packets import Message

        b.ni.triggered.arm(
            ct, 1,
            lambda: b.nic.send(
                Message(source=1, target=0, length=64, kind="put", match_bits=2),
                from_host=True,
            ),
            "pong",
        )

        def pinger():
            yield from a.host_put(1, 64, match_bits=1)

        got = []
        pong_eq.on_next(lambda ev: got.append(env.now))
        env.process(pinger())
        env.run()
        assert len(got) == 1
        assert b.ni.triggered.fired == 1

    def test_manage_local_me_packs_messages(self):
        cluster = two_node_cluster()
        env = cluster.env
        src, dst = cluster[0], cluster[1]
        buf = dst.memory.alloc(4096)
        dst.post_me(
            0,
            MatchEntry(
                match_bits=0,
                ignore_bits=(1 << 64) - 1,
                options=ME_OP_PUT | ME_MANAGE_LOCAL,
                start=buf,
                length=4096,
            ),
        )

        def sender():
            for i in range(3):
                done = yield from src.host_put(
                    1, 10, match_bits=i, payload=np.full(10, i + 1, np.uint8)
                )
                yield done

        env.process(sender())
        env.run()
        expect = np.repeat(np.array([1, 2, 3], np.uint8), 10)
        assert np.array_equal(dst.memory.read(buf, 30), expect)


class TestConfigContrast:
    @pytest.mark.parametrize("size", [8, 65536])
    def test_discrete_slower_than_integrated(self, size):
        def one_way(config):
            cluster = Cluster(2, config=config, topology=UniformLatency(latency=ns(450)))
            env = cluster.env
            src, dst = cluster[0], cluster[1]
            eq = dst.new_eq()
            dst.post_me(0, MatchEntry(match_bits=1, start=0, length=size, event_queue=eq))
            env.process(src.host_put(1, size, match_bits=1))
            seen = []
            eq.on_next(lambda ev: seen.append(env.now))
            env.run()
            return seen[0]

        assert one_way(discrete_config()) > one_way(integrated_config())


class TestPortalLookup:
    def test_unallocated_pt_index_reads_as_none(self):
        node = two_node_cluster()[1]
        node.post_me(0, MatchEntry(match_bits=1, start=0, length=64))
        assert node.nic._pt_for(SimpleNamespace(meta={})) is node.ni.pt(0)
        assert node.nic._pt_for(SimpleNamespace(meta={"pt_index": 7})) is None

    def test_other_lookup_errors_propagate(self, monkeypatch):
        node = two_node_cluster()[1]

        def broken(index):
            raise RuntimeError("portal table corrupted")

        monkeypatch.setattr(node.ni, "pt", broken)
        with pytest.raises(RuntimeError, match="corrupted"):
            node.nic._pt_for(SimpleNamespace(meta={"pt_index": 0}))
