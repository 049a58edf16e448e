"""Oracle tests: the event heap pops in exact ``(time, priority, seq)`` order.

Randomized schedules — mixed priorities, delays spanning microseconds,
nested mid-drain scheduling, interleaved cancellations — run through the
kernel and are compared against a reference model that keeps its pending
entries in a plain list and takes ``sorted()``'s first element at every
step.  Pop logs, event counts and final clocks must agree exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import engine as E
from repro.des.engine import PRIORITY_NORMAL, PRIORITY_URGENT

#: ~1.05 µs in picoseconds: delays range over several multiples of it and
#: include 0 and the values either side of its multiples.
_SPAN = 1 << 20

_DELAY = st.one_of(
    st.integers(min_value=0, max_value=5 * _SPAN),
    st.sampled_from([0, 1, _SPAN - 1, _SPAN, _SPAN + 1, 3 * _SPAN]),
)

_OPS = st.lists(
    st.tuples(_DELAY, st.sampled_from([PRIORITY_URGENT, PRIORITY_NORMAL])),
    min_size=1, max_size=60,
)


def _nested_delay(tag):
    return (tag * 7919) % (2 * _SPAN)


def _run_schedule(ops, cancel_every, nested):
    """One full scheduling scenario on the kernel; returns the pop log."""
    env = E.Environment()
    log = []
    handles = []

    def make_cb(tag, depth):
        def cb():
            log.append((env.now, tag, depth))
            if depth < nested:
                # Mid-drain push with a deterministically derived delay.
                env.schedule_fn(_nested_delay(tag), make_cb(tag, depth + 1))
        return cb

    for i, (delay, prio) in enumerate(ops):
        handles.append(env.schedule_callback(delay, make_cb(i, 0), prio))
    if cancel_every:
        for i, handle in enumerate(handles):
            if i % cancel_every == 0:
                handle.cancel()
    env.run()
    return log, env.events_scheduled, env.now


def _oracle(ops, cancel_every, nested):
    """The same scenario on a sorted-list reference queue."""
    cancelled = {i for i in range(len(ops))
                 if cancel_every and i % cancel_every == 0}
    pending = []
    seq = 0
    for i, (delay, prio) in enumerate(ops):
        seq += 1
        pending.append((delay, prio, seq, i, 0))
    log = []
    now = 0
    while pending:
        entry = sorted(pending)[0]
        pending.remove(entry)
        now, _prio, _seq, tag, depth = entry
        if depth == 0 and tag in cancelled:
            continue  # a cancelled entry still pops and moves the clock
        log.append((now, tag, depth))
        if depth < nested:
            seq += 1
            pending.append((now + _nested_delay(tag), PRIORITY_NORMAL, seq,
                            tag, depth + 1))
    return log, seq, now


@settings(max_examples=60, deadline=None)
@given(ops=_OPS, cancel_every=st.sampled_from([0, 2, 3]),
       nested=st.integers(min_value=0, max_value=2))
def test_heap_pops_in_sorted_order(ops, cancel_every, nested):
    got = _run_schedule(ops, cancel_every, nested)
    assert got == _oracle(ops, cancel_every, nested)  # log, count, clock


@settings(max_examples=30, deadline=None)
@given(ops=_OPS)
def test_timeout_events_pop_in_sorted_order(ops):
    """Event payloads (timeouts + callbacks lists) follow the same order."""
    env = E.Environment()
    observed = []
    for i, (delay, _prio) in enumerate(ops):
        ev = env.timeout(delay, value=i)
        ev.callbacks.append(lambda e: observed.append((env.now, e.value)))
    env.run()
    assert observed == sorted((delay, i) for i, (delay, _prio) in enumerate(ops))
    assert env.events_scheduled == len(ops)
    assert env.now == max(delay for delay, _prio in ops)


def test_peek_is_non_mutating():
    """peek() only observes: a later, earlier-timestamped push runs first."""
    env = E.Environment()
    log = []
    env.schedule_fn(5_000_000, lambda: log.append(("far", env.now)))
    assert env.peek() == 5_000_000
    assert env.peek() == 5_000_000  # idempotent
    env.schedule_fn(1_000, lambda: log.append(("near", env.now)))
    assert env.peek() == 1_000
    env.run()
    assert log == [("near", 1_000), ("far", 5_000_000)]


def test_peek_interleaved_with_drain():
    """peek() between steps names the time the next step() moves to."""
    env = E.Environment()
    clocks = []
    for delay in (7, 70, 7_000, 70_000_000):
        env.schedule_fn(delay, lambda: clocks.append(env.now))
    while env.peek() is not None:
        nxt = env.peek()
        env.step()
        assert env.now == nxt
    assert clocks == sorted(clocks) == [7, 70, 7_000, 70_000_000]
    assert env.peek() is None


def test_reset_rewinds_clock_and_seq():
    env = E.Environment()
    env.schedule_fn(123, lambda: None)
    env.run()
    assert (env.now, env.events_scheduled) == (123, 1)
    env.reset()
    assert (env.now, env.events_scheduled) == (0, 0)
    # A second run schedules with the same seq numbering as the first.
    env.schedule_fn(123, lambda: None)
    env.run()
    assert (env.now, env.events_scheduled) == (123, 1)
