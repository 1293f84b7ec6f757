"""Mailbox: the engine's one untimed FIFO hand-off.

Every untimed receive and accept queue in the stack (TCP stream bytes,
RD messages, accepted TCP/SCTP connections, ready RC QPs, a stream
socket's accepted children) is a :class:`Mailbox`, so the RC accepts in
the fig10/fig11 socket-path pin rest on the order pinned here.
"""

from hypothesis import given, settings, strategies as st

from repro.simnet.engine import Mailbox, Simulator


def test_gets_before_puts_resolve_in_order():
    sim = Simulator()
    box = Mailbox(sim)
    gets = [box.get() for _ in range(3)]
    assert not any(f.done for f in gets)
    for item in "abc":
        box.put(item)
    assert [f.value for f in gets] == ["a", "b", "c"]


def test_puts_before_gets_resolve_in_order():
    sim = Simulator()
    box = Mailbox(sim)
    for item in "abc":
        box.put(item)
    gets = [box.get() for _ in range(3)]
    assert [f.value for f in gets] == ["a", "b", "c"]
    assert not box.get().done


def test_cancelled_get_is_skipped_by_the_next_put():
    sim = Simulator()
    box = Mailbox(sim)
    first, second = box.get(), box.get()
    box.cancel(first)
    box.put("x")
    assert not first.done
    assert second.value == "x"


def test_close_resolves_every_waiting_get():
    sim = Simulator()
    box = Mailbox(sim)
    gets = [box.get() for _ in range(3)]
    box.close(None)
    assert all(f.done for f in gets)
    assert [f.value for f in gets] == [None, None, None]


def test_after_close_queued_items_come_first_then_the_close_value():
    sim = Simulator()
    box = Mailbox(sim)
    box.put("left")
    box.close("closed")
    assert box.get().value == "left"
    assert box.get().value == "closed"


def test_put_resumes_the_waiter_through_call_at_now():
    """``put`` never runs a waiter's callback itself: it lands in the
    event queue at ``now`` and runs as an event of its own."""
    sim = Simulator()
    box = Mailbox(sim)
    seen = []
    box.get().add_callback(lambda value: seen.append((sim.now, value)))
    sim.run(until=10)
    box.put("item")
    assert seen == []
    assert [entry[0] for entry in sim._heap] == [10]
    sim.run()
    assert seen == [(10, "item")]
    assert sim.events_processed == 1


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put")),
        st.tuples(st.just("get")),
        st.tuples(st.just("cancel"), st.integers(0, 20)),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(_OPS)
def test_items_reach_getters_in_fifo_order(ops):
    """Over any put/get/cancel sequence, the getters that are not
    cancelled receive the items in put order, each in its get order."""
    sim = Simulator()
    box = Mailbox(sim)
    gets, waiting, cancelled = [], [], set()
    put_count = 0
    for op in ops:
        if op[0] == "put":
            box.put(put_count)
            put_count += 1
        elif op[0] == "get":
            fut = box.get()
            gets.append(fut)
            if not fut.done:
                waiting.append(fut)
        elif waiting:
            fut = waiting.pop(op[1] % len(waiting))
            box.cancel(fut)
            cancelled.add(id(fut))
        waiting = [f for f in waiting if not f.done]
    delivered = [f.value for f in gets if f.done]
    assert delivered == list(range(len(delivered)))
    assert len(delivered) == min(put_count, len(gets) - len(cancelled))
    assert not any(f.done for f in gets if id(f) in cancelled)
    # Every uncancelled getter that got nothing came after every one
    # that did.
    served = [f.done for f in gets if id(f) not in cancelled]
    assert served == sorted(served, reverse=True)
