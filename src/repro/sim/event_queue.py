"""The discrete-event scheduler used by every timed component in the simulator.

:class:`EventQueue` is a binary heap (``heapq``) of plain ``[time, seq, fn,
a, b]`` lists.  The sequence number guarantees a deterministic,
insertion-ordered tie-break for events scheduled at the same cycle (and,
because it is unique, the later elements never participate in entry
comparisons), which in turn makes every simulation run reproducible.

An entry carries its call's arguments so hot paths need no closure: the run
loop calls ``fn()`` when ``a is None`` and ``fn(a, b)`` otherwise.  Events
cannot be cancelled, so the heap's length is the number of pending events.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

#: A heap entry: ``[time, seq, fn, a, b]``.
Entry = List[object]


class EventQueue:
    """A deterministic min-heap of ``[time, seq, fn, a, b]`` entries."""

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback()`` to run at absolute ``time``."""
        if time < 0:
            raise ValueError(f"cannot schedule an event at negative time {time}")
        heapq.heappush(self._heap, [time, self._seq, callback, None, None])
        self._seq += 1

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the next event, or ``None`` if empty."""
        heap = self._heap
        return heap[0][0] if heap else None  # type: ignore[return-value]

    def pop(self) -> Optional[Entry]:
        """Remove and return the next ``[time, seq, fn, a, b]`` entry, or
        ``None`` if the queue is empty."""
        heap = self._heap
        return heapq.heappop(heap) if heap else None

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
