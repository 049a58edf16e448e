"""Callback chains ≡ generator reference walks.

The fabric TX chain, the NIC RX chain, and the host-send chain must be
*byte-for-byte* trace-equivalent to the generator processes kept in
``tests/reference_walks.py``: same ``Timeline.canonical_bytes()``, same
results, same event interleaving under timestamp ties.  These tests run
every experiment on both walks and compare, and drive randomized
cross-message contention patterns through a raw fabric to exercise the
FIFO-interleaving machinery.
"""

import random

import pytest

from repro.des.engine import Environment
from repro.des.trace import Timeline
from repro.experiments.accumulate import accumulate_completion_ns
from repro.experiments.broadcast import broadcast_latency_ns
from repro.experiments.pingpong import PINGPONG_MODES, pingpong_half_rtt_ns
from repro.machine.nic import BaselineNIC
from repro.network.fabric import Fabric
from repro.network.loggp import NetworkParams
from repro.network.packets import Message
from repro.network.topology import FatTree
from repro.sim import ClusterSpec, Session

import reference_walks


def _pingpong(mode, size):
    sink = []
    value = pingpong_half_rtt_ns(size, mode, "int", timeline_sink=sink)
    return value, sink[0].digest()


@pytest.mark.parametrize("mode", PINGPONG_MODES)
@pytest.mark.parametrize("size", (64, 8192, 65536))
def test_pingpong_fast_equals_slow(select_walk, mode, size):
    select_walk(False)
    fast = _pingpong(mode, size)
    select_walk(True)
    slow = _pingpong(mode, size)
    assert fast == slow


@pytest.mark.parametrize("mode", ("rdma", "spin"))
def test_accumulate_fast_equals_slow(select_walk, mode):
    def run():
        sink = []
        value = accumulate_completion_ns(16384, mode, "int", timeline_sink=sink)
        return value, sink[0].digest()

    select_walk(False)
    fast = run()
    select_walk(True)
    slow = run()
    assert fast == slow


@pytest.mark.parametrize("mode", ("rdma", "spin"))
def test_broadcast_fast_equals_slow(select_walk, mode):
    """Tree broadcast: parents send back-to-back — the contention path."""
    select_walk(False)
    fast = broadcast_latency_ns(8, 65536, mode, "int")
    select_walk(True)
    slow = broadcast_latency_ns(8, 65536, mode, "int")
    assert fast == slow


def _run_contention_pattern(seed: int):
    """Random overlapping sends on one NIC; returns (trace bytes, arrivals).

    Injection times are dense relative to per-message serialization time,
    so messages pile up at the source wire and interleave packet-by-packet
    — the exact scenario where closed-form fast paths go wrong.
    """
    rng = random.Random(seed)
    params = NetworkParams()
    env = Environment()
    timeline = Timeline(enabled=True)
    topology = FatTree(params=params, nhosts=4)
    fabric = Fabric(env, topology, params, timeline=timeline)

    arrivals = []
    for nid in range(4):
        fabric.attach(
            nid,
            lambda pkt, nid=nid: arrivals.append(
                (env.now, nid, pkt.message.msg_id, pkt.seq)
            ),
        )

    messages = []
    for i in range(20):
        messages.append(
            (
                rng.randrange(0, 3_000_000),            # inject time (ps)
                rng.choice((1, 2, 3)),                  # target
                rng.choice((1, 2000, 4096, 9000, 20000)),  # size in bytes
            )
        )

    def injector(at, target, size, msg_id):
        yield env.timeout(at)
        msg = Message(source=0, target=target, length=size)
        # Pin msg_id for run-to-run comparability across path flavours.
        msg.msg_id = msg_id
        done = fabric.inject(msg)
        yield done

    for i, (at, target, size) in enumerate(messages):
        env.process(injector(at, target, size, i))
    env.run()
    return timeline.canonical_bytes(), arrivals


@pytest.mark.parametrize("seed", range(12))
def test_random_contention_fast_equals_slow(select_walk, seed):
    """Property: arbitrary contention patterns are trace-identical."""
    fast_trace, fast_arrivals = _run_contention_pattern(seed)
    select_walk(True)
    slow_trace, slow_arrivals = _run_contention_pattern(seed)
    assert fast_arrivals == slow_arrivals
    assert fast_trace == slow_trace


def test_contention_interleaves_packets():
    """Sanity: the pattern actually creates cross-message interleaving."""
    trace, arrivals = _run_contention_pattern(0)
    order = [msg_id for _, _, msg_id, _ in arrivals]
    # Some message's packets must be split around another message's.
    interleaved = any(
        order[i] != order[i + 1] and order[i] in order[i + 2:]
        for i in range(len(order) - 2)
    )
    assert interleaved, "contention pattern produced no interleaving"


def test_timeline_sink_matches_untraced_results():
    """Tracing must not perturb the chains' timings (and vice versa)."""
    sink = []
    traced = pingpong_half_rtt_ns(65536, "spin_stream", "int", timeline_sink=sink)
    untraced = pingpong_half_rtt_ns(65536, "spin_stream", "int")
    assert traced == untraced


def test_select_walk_never_reuses_a_session_built_on_the_other_walk(
        select_walk):
    """``Cluster`` binds ``nic.on_packet`` at build time, so a pooled
    session built on one walk must not serve the other."""
    spec = ClusterSpec(nodes=2)
    select_walk(True)
    ref = Session.checkout(spec)
    assert ref.cluster.fabric._rx[0].__func__ is reference_walks.nic_on_packet
    ref.release()
    select_walk(False)
    chains = Session.checkout(spec)
    assert chains is not ref
    assert chains.cluster.fabric._rx[0].__func__ is BaselineNIC.on_packet
