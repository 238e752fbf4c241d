"""Unit tests for the event queue (the simulator's binary-heap scheduler)."""

import bisect

import pytest
from hypothesis import given, strategies as st

from repro.sim.event_queue import EventQueue

#: One queue class, parametrized so the tests keep their ``[heap]`` IDs.
QUEUES = [pytest.param(EventQueue, id="heap")]


@pytest.fixture(params=QUEUES)
def queue(request):
    return request.param()


def test_push_pop_orders_by_time(queue):
    order = []
    queue.push(5.0, lambda: order.append("b"))
    queue.push(1.0, lambda: order.append("a"))
    queue.push(9.0, lambda: order.append("c"))
    while queue:
        queue.pop()[2]()
    assert order == ["a", "b", "c"]


def test_same_time_preserves_insertion_order(queue):
    order = []
    for i in range(10):
        queue.push(4.0, lambda i=i: order.append(i))
    while queue:
        queue.pop()[2]()
    assert order == list(range(10))


def test_negative_time_rejected(queue):
    with pytest.raises(ValueError):
        queue.push(-1.0, lambda: None)
    assert not queue


def test_push_returns_nothing_on_fast_path(queue):
    assert queue.push(1.0, lambda: None) is None


def test_peek_time_and_len(queue):
    assert queue.peek_time() is None
    assert len(queue) == 0
    queue.push(3.0, lambda: None)
    queue.push(1.5, lambda: None)
    assert queue.peek_time() == 1.5
    assert len(queue) == 2
    queue.clear()
    assert len(queue) == 0
    assert not queue


def test_pop_empty_returns_none(queue):
    assert queue.pop() is None


def test_push_behind_a_popped_time_still_pops_in_order(queue):
    """The raw queue API allows pushing earlier than the last popped time;
    the queue must keep returning the global minimum."""
    queue.push(100.0, lambda: None)
    queue.push(500.0, lambda: None)
    assert queue.pop()[0] == 100.0
    queue.push(1.0, lambda: None)        # far behind the last pop
    queue.push(200.0, lambda: None)
    assert [queue.pop()[0] for _ in range(3)] == [1.0, 200.0, 500.0]


@pytest.mark.parametrize("make_queue", QUEUES)
@given(st.lists(st.floats(min_value=0, max_value=1e7, allow_nan=False),
                min_size=1, max_size=200))
def test_pop_order_is_always_nondecreasing(make_queue, times):
    q = make_queue()
    for t in times:
        q.push(t, lambda: None)
    popped = []
    while q:
        popped.append(q.pop()[0])
    assert popped == sorted(popped)
    assert len(popped) == len(times)


# -- ordering model ----------------------------------------------------------------

_EVENT_TIMES = st.floats(min_value=0, max_value=1e6, allow_nan=False)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _EVENT_TIMES),
        st.tuples(st.just("pop")),
        st.tuples(st.just("peek")),
    ),
    min_size=1, max_size=150,
)


class _SortedListModel:
    """Reference model: every pending event in one list kept sorted by
    ``(time, seq)``."""

    def __init__(self):
        self.entries = []
        self.seq = 0

    def push(self, time):
        bisect.insort(self.entries, (time, self.seq))
        self.seq += 1

    def pop(self):
        return self.entries.pop(0) if self.entries else None

    def peek_time(self):
        return self.entries[0][0] if self.entries else None


@given(_OPS)
def test_event_queue_matches_sorted_list_model(ops):
    """Any interleaving of push, pop and peek_time pops the same ``[time,
    seq]`` sequence, and keeps the same pending count, as a sorted-list model
    of the ordering contract."""
    queue, model = EventQueue(), _SortedListModel()
    for op in ops:
        if op[0] == "push":
            model.push(op[1])
            queue.push(op[1], lambda: None)
        elif op[0] == "pop":
            entry, expected = queue.pop(), model.pop()
            assert (entry is None) == (expected is None)
            if entry is not None:
                assert tuple(entry[:2]) == expected
        else:
            assert queue.peek_time() == model.peek_time()
        assert len(queue) == len(model.entries)
        assert bool(queue) == bool(model.entries)
    while True:
        entry, expected = queue.pop(), model.pop()
        assert (entry is None) == (expected is None)
        if entry is None:
            break
        assert tuple(entry[:2]) == expected


# -- no backend registry ---------------------------------------------------------

def test_registry_and_default():
    """The event queue is not a pluggable backend: the heap is the one queue
    the simulator builds, and ``repro.sim`` exports no backend registry."""
    import repro.sim as sim_pkg
    from repro.sim import Simulator

    queues = [name for name in sim_pkg.__all__ if name.endswith("Queue")]
    assert queues == ["EventQueue"]
    assert not [name for name in sim_pkg.__all__ if name.endswith("_BACKENDS")]
    sim = Simulator()
    assert type(sim.events) is EventQueue
    sim.reset()
    assert type(sim.events) is EventQueue
