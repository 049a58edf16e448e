"""Session reuse pool: reset-equivalence and pooling policy.

The pool's contract is *reuse is indistinguishable from a fresh build*: a
released session is rewound (kernel clock/seq, message-id space, machines,
fabric, timeline) so the next tenant observes exactly the state — and
therefore exactly the simulation — a newly constructed cluster would give.
"""

import pytest

from repro.experiments.pingpong import PINGPONG_MODES, pingpong_half_rtt_ns
from repro.portals.matching import MatchEntry
from repro.sim.session import ClusterSpec, Session, _POOL, _pool_clear

TAG = 0x51


@pytest.fixture(autouse=True)
def _fresh_pool():
    _pool_clear()
    yield
    _pool_clear()


def _run_exchange(sess, size=256):
    """A deterministic two-rank put; returns (finish time, trace bytes)."""
    env = sess.env
    ct = sess[1].new_counter()
    sess.install(1, MatchEntry(match_bits=TAG, length=size, counter=ct))

    def proc():
        done = yield from sess[0].host_put(1, size, match_bits=TAG)
        yield done
        return env.now

    p = sess.process(proc())
    end = sess.run(until=p)
    sess.drain()
    return end, sess.timeline.canonical_bytes()


class TestResetEquivalence:
    def test_reset_run_matches_fresh_run_trace_bytes(self):
        """Full-stack rewind: rerun on a reset cluster == fresh cluster.

        Trace recording is on, so agreement is byte-for-byte over every
        CPU/NIC/DMA busy span — not just the headline timestamp.
        """
        spec = ClusterSpec(config="int", trace=True, with_memory=False)
        fresh = Session(spec)
        end_fresh, bytes_fresh = _run_exchange(fresh)
        assert bytes_fresh  # the workload actually traced something

        reused = Session(spec)
        end_first, bytes_first = _run_exchange(reused)
        assert (end_first, bytes_first) == (end_fresh, bytes_fresh)
        reused.cluster.reset()
        end_again, bytes_again = _run_exchange(reused)
        assert (end_again, bytes_again) == (end_fresh, bytes_fresh)

    def test_reset_refuses_pending_events(self):
        sess = Session(ClusterSpec(config="int", with_memory=False))
        sess.env.timeout(1_000_000)
        with pytest.raises(Exception):
            sess.cluster.reset()

    def test_reset_refuses_host_memory(self):
        sess = Session(ClusterSpec(config="int", with_memory=True))
        with pytest.raises(ValueError):
            sess.cluster.reset()

    @pytest.mark.parametrize("mode", PINGPONG_MODES)
    def test_pingpong_values_stable_under_pooled_reuse(self, mode):
        pooled = [pingpong_half_rtt_ns(64, mode, "int") for _ in range(3)]
        _pool_clear()  # the next run builds its session from scratch
        cold = pingpong_half_rtt_ns(64, mode, "int")
        assert pooled == [cold] * 3


class TestPoolPolicy:
    def test_checkout_release_roundtrip_reuses_object(self):
        spec = ClusterSpec(config="int", with_memory=False)
        sess = Session.checkout(spec)
        assert sess._pool_key is not None
        sess.release()
        again = Session.checkout(spec)
        assert again is sess
        assert (again.env.now, again.env.events_scheduled) == (0, 0)
        again.release()

    def test_unpoolable_specs_bypass_the_pool(self):
        for spec in (
            ClusterSpec(config="int", with_memory=True),
            ClusterSpec(config="int", trace=True, with_memory=False),
            ClusterSpec(config="int", with_memory=False, noise=object()),
            ClusterSpec(config="int", with_memory=False, fabric="congestion"),
            ClusterSpec(config="int", with_memory=False, topology="fattree"),
        ):
            assert spec.pool_key() is None
            sess = Session.checkout(spec)
            sess.release()
        assert _POOL == {}

    def test_release_discards_sessions_with_pending_events(self):
        spec = ClusterSpec(config="int", with_memory=False)
        sess = Session.checkout(spec)
        sess.env.timeout(1_000_000)  # never drained
        sess.release()
        assert _POOL.get(spec.pool_key(), []) == []

    def test_pool_keys_keep_configs_apart(self):
        int_spec = ClusterSpec(config="int", with_memory=False)
        dis_spec = ClusterSpec(config="dis", with_memory=False)
        assert int_spec.pool_key() != dis_spec.pool_key()
        a = Session.checkout(int_spec)
        b = Session.checkout(dis_spec)
        a.release()
        b.release()
        assert Session.checkout(int_spec) is a
        assert Session.checkout(dis_spec) is b

    def test_release_is_safe_to_call_twice(self):
        spec = ClusterSpec(config="int", with_memory=False)
        sess = Session.checkout(spec)
        sess.release()
        sess.release()
        # Depth guard: the double release must not duplicate the entry.
        assert len(_POOL[spec.pool_key()]) == 1
