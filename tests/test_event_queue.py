"""Unit tests for the event-scheduler backends.

Every behavioral test runs against both the binary heap and the calendar
queue: the two backends promise the exact same ``[time, seq]`` total order,
so they must be observationally interchangeable.
"""

import bisect

import pytest
from hypothesis import given, strategies as st

from repro.sim.event_queue import (DEFAULT_SCHEDULER, SCHEDULER_BACKENDS,
                                   CalendarQueue, EventQueue,
                                   make_event_queue, resolve_scheduler)

BACKENDS = sorted(SCHEDULER_BACKENDS)


@pytest.fixture(params=BACKENDS)
def queue(request):
    return SCHEDULER_BACKENDS[request.param]()


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
    with pytest.raises(ValueError):
        queue.push_handle(-1.0, lambda: None)


def test_push_returns_nothing_on_fast_path(queue):
    assert queue.push(1.0, lambda: None) is None


def test_cancelled_events_are_skipped(queue):
    fired = []
    handle = queue.push_handle(1.0, lambda: fired.append("cancelled"))
    queue.push(2.0, lambda: fired.append("kept"))
    assert not handle.cancelled
    handle.cancel()
    assert handle.cancelled
    assert len(queue) == 1
    popped = []
    while queue:
        entry = queue.pop()
        popped.append(entry)
        entry[2]()
    assert fired == ["kept"]
    assert len(popped) == 1


def test_cancel_is_idempotent_and_safe_after_fire(queue):
    fired = []
    handle = queue.push_handle(1.0, lambda: fired.append("ran"))
    handle.cancel()
    handle.cancel()  # double cancel must not corrupt the live count
    assert len(queue) == 0

    other = queue.push_handle(2.0, lambda: fired.append("other"))
    queue.pop()[2]()
    other.cancel()  # cancelling after the event fired is a no-op
    assert fired == ["other"]
    assert len(queue) == 0


def test_handle_reports_time(queue):
    handle = queue.push_handle(3.5, lambda: None)
    assert handle.time == 3.5


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


def test_peek_time_skips_cancelled_head(queue):
    head = queue.push_handle(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    head.cancel()
    assert queue.peek_time() == 2.0
    assert len(queue) == 1


def test_pop_empty_returns_none(queue):
    assert queue.pop() is None


def test_pop_does_not_share_the_live_entry(queue):
    """pop() hands back a fresh entry; the stored one is nulled so a late
    handle cancel cannot corrupt the returned callback."""
    handle = queue.push_handle(1.0, lambda: None)
    entry = queue.pop()
    assert entry[2] is not None
    handle.cancel()          # fires after the pop: must be a no-op
    assert entry[2] is not None
    assert len(queue) == 0


def test_cancel_after_clear_is_safe(queue):
    handle = queue.push_handle(1.0, lambda: None)
    queue.clear()
    handle.cancel()          # must not corrupt the live count
    assert len(queue) == 0
    queue.push(2.0, lambda: None)
    assert len(queue) == 1
    assert queue


def test_push_behind_a_popped_time_still_pops_in_order(queue):
    """The raw queue API allows pushing earlier than the last popped time;
    both backends must keep returning the global minimum."""
    queue.push(100.0, lambda: None)
    queue.push(500.0, lambda: None)
    assert queue.pop()[0] == 100.0
    queue.push(1.0, lambda: None)        # far behind the last pop
    queue.push(200.0, lambda: None)
    assert [queue.pop()[0] for _ in range(3)] == [1.0, 200.0, 500.0]


@pytest.mark.parametrize("backend", BACKENDS)
@given(st.lists(st.floats(min_value=0, max_value=1e7, allow_nan=False),
                min_size=1, max_size=200))
def test_pop_order_is_always_nondecreasing(backend, times):
    q = SCHEDULER_BACKENDS[backend]()
    for t in times:
        q.push(t, lambda: None)
    popped = []
    while q:
        popped.append(q.pop()[0])
    assert popped == sorted(popped)
    assert len(popped) == len(times)


# -- cross-backend equivalence ---------------------------------------------------

_EVENT_TIMES = st.floats(min_value=0, max_value=1e6, allow_nan=False)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _EVENT_TIMES, st.booleans()),
        st.tuples(st.just("pop")),
        st.tuples(st.just("peek")),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30)),
    ),
    min_size=1, max_size=150,
)


@given(_OPS)
def test_calendar_queue_matches_heap_exactly(ops):
    """Golden cross-backend equivalence: any interleaving of pushes (handled
    or not), pops, peeks and cancels yields the identical [time, seq] pop
    sequence and live counts on both backends."""
    heap, calendar = EventQueue(), CalendarQueue()
    handles = []
    for op in ops:
        if op[0] == "push":
            _, time, with_handle = op
            if with_handle:
                handles.append((heap.push_handle(time, lambda: None),
                                calendar.push_handle(time, lambda: None)))
            else:
                heap.push(time, lambda: None)
                calendar.push(time, lambda: None)
        elif op[0] == "pop":
            a, b = heap.pop(), calendar.pop()
            assert (a is None) == (b is None)
            if a is not None:
                assert a[:2] == b[:2]
        elif op[0] == "peek":
            assert heap.peek_time() == calendar.peek_time()
        else:  # cancel
            if handles:
                h1, h2 = handles.pop(op[1] % len(handles))
                h1.cancel()
                h2.cancel()
        assert len(heap) == len(calendar)
        assert bool(heap) == bool(calendar)
    while True:
        a, b = heap.pop(), calendar.pop()
        assert (a is None) == (b is None)
        if a is None:
            break
        assert a[:2] == b[:2]


class _SortedListModel:
    """Reference model: every live event in one list kept sorted by
    ``(time, seq)``; cancelling removes the entry outright."""

    def __init__(self):
        self.entries = []
        self.seq = 0

    def push(self, time):
        key = (time, self.seq)
        self.seq += 1
        bisect.insort(self.entries, key)
        return key

    def cancel(self, key):
        index = bisect.bisect_left(self.entries, key)
        if index < len(self.entries) and self.entries[index] == key:
            del self.entries[index]

    def pop(self):
        return self.entries.pop(0) if self.entries else None

    def peek_time(self):
        return self.entries[0][0] if self.entries else None


@given(_OPS)
def test_event_queue_matches_sorted_list_model(ops):
    """Any interleaving of push, push_handle, cancel, pop and peek_time pops
    the same ``[time, seq]`` sequence, and keeps the same live count, as a
    sorted-list model of the ordering contract."""
    queue, model = EventQueue(), _SortedListModel()
    handles = []
    for op in ops:
        if op[0] == "push":
            _, time, with_handle = op
            key = model.push(time)
            if with_handle:
                handles.append((queue.push_handle(time, lambda: None), key))
            else:
                queue.push(time, lambda: None)
        elif op[0] == "pop":
            entry, expected = queue.pop(), model.pop()
            assert (entry is None) == (expected is None)
            if entry is not None:
                assert tuple(entry[:2]) == expected
        elif op[0] == "peek":
            assert queue.peek_time() == model.peek_time()
        elif handles:  # cancel, possibly of an event that already fired
            handle, key = handles.pop(op[1] % len(handles))
            handle.cancel()
            model.cancel(key)
        assert len(queue) == len(model.entries)
        assert bool(queue) == bool(model.entries)
    while True:
        entry, expected = queue.pop(), model.pop()
        assert (entry is None) == (expected is None)
        if entry is None:
            break
        assert tuple(entry[:2]) == expected


def test_calendar_flood_drain_compacts_the_spine():
    """Draining a same-timestamp flood must not shift the whole spine per pop
    (quadratic) nor retain the consumed prefix: the physical spine stays
    within a small factor of the live tail, and pushes landing mid-drain
    (even behind already-popped times) still pop in order."""
    q = CalendarQueue()
    for _ in range(5000):
        q.push(100.0, lambda: None)
    for _ in range(2500):
        q.pop()
    assert len(q._spine) - q._spine_pos == len(q) == 2500
    assert len(q._spine) <= 2 * len(q) + 128    # consumed prefix compacted
    q.push(50.0, lambda: None)                  # behind every popped time
    q.push(100.0, lambda: None)                 # ties break by insertion seq
    assert q.pop()[0] == 50.0
    drained = [q.pop()[:2] for _ in range(len(q))]
    assert drained == sorted(drained)
    assert q.pop() is None


def test_calendar_narrow_with_active_spine_keeps_order():
    """Regression: a _narrow() while the spine still holds live entries must
    not leave the horizon inside the spine's time range — a later spine-range
    push would land in the calendar and dispatch after later spine entries.
    Surfaced as a SimulationError ('scheduled in the past') in smoke runs."""
    heap, cal = EventQueue(), CalendarQueue()

    def push(t):
        heap.push(t, lambda: None)
        cal.push(t, lambda: None)

    for i in range(10):                      # one initial-width day (no. 2)
        push(130.0 + i * 6.875)              # 130 .. 191.875
    assert heap.pop()[:2] == cal.pop()[:2]   # promotes it: spine now active
    for i in range(520):                     # adjacent hot day -> narrows
        push(192.05 + i * 0.119)
    push(191.5)                              # inside the live spine's range
    drained = []
    while heap:
        a, b = heap.pop(), cal.pop()
        assert a[:2] == b[:2]
        drained.append(a[0])
    assert drained == sorted(drained)
    assert cal.pop() is None


def test_calendar_clear_restores_initial_geometry():
    """clear() must undo a _narrow()-shrunken day width: a reset simulator
    would otherwise inherit pathologically fine one-event days."""
    q = CalendarQueue()
    for i in range(600):  # one hot day spanning nonzero time -> narrows
        q.push(1000.0 + i * 0.001, lambda: None)
    assert q._width < q._initial_width
    q.clear()
    assert q._width == q._initial_width
    assert q._horizon_day == 0 and len(q) == 0
    # ...and the queue still orders correctly afterwards.
    heap = EventQueue()
    for t in (5.0, 1.0, 9.0, 1.0):
        q.push(t, lambda: None)
        heap.push(t, lambda: None)
    while heap:
        assert q.pop()[0] == heap.pop()[0]


def test_calendar_same_time_flood_and_narrow_keep_order():
    """A same-timestamp flood (unsplittable) and a wide spread (which narrows
    the day width) must both preserve the heap's order exactly."""
    for times in ([100.0] * 2000,
                  [(i * 37 % 1000) * 0.25 for i in range(2000)]):
        heap, calendar = EventQueue(), CalendarQueue()
        for t in times:
            heap.push(t, lambda: None)
            calendar.push(t, lambda: None)
        while heap:
            assert heap.pop()[:2] == calendar.pop()[:2]
        assert calendar.pop() is None


# -- backend registry ------------------------------------------------------------

def test_registry_and_default():
    assert set(SCHEDULER_BACKENDS) == {"heap", "calendar"}
    assert DEFAULT_SCHEDULER == "heap"
    assert isinstance(make_event_queue("heap"), EventQueue)
    assert isinstance(make_event_queue("calendar"), CalendarQueue)


def test_resolve_scheduler_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
    assert resolve_scheduler() == "heap"
    monkeypatch.setenv("REPRO_SCHEDULER", "calendar")
    assert resolve_scheduler() == "calendar"
    assert resolve_scheduler("heap") == "heap"   # explicit beats the env
    assert resolve_scheduler(" Calendar ") == "calendar"
    with pytest.raises(ValueError, match="unknown scheduler"):
        resolve_scheduler("splay-tree")
    monkeypatch.setenv("REPRO_SCHEDULER", "nonsense")
    with pytest.raises(ValueError, match="unknown scheduler"):
        resolve_scheduler()
