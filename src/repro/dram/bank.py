"""A DRAM bank with an open-row policy and FIFO service.

The same bank model backs both the DDR baseline channels and the HMC vault
controllers; only the timing parameters differ.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..sim import SharedResource, Simulator
from .timing import DRAMTiming


class DRAMBank(SharedResource):
    """One bank: tracks the open row and serializes accesses.

    ``access()`` runs once per DRAM access on the hot path, so it inlines the
    row-state decision and the ``reserve()`` arithmetic and writes its
    counter cells, bound at construction, directly.
    """

    def __init__(self, sim: Simulator, name: str, timing: DRAMTiming) -> None:
        super().__init__(sim, name)
        self.timing = timing
        self.open_row: Optional[int] = None
        self._row_closed_cycles = timing.row_closed_cycles
        self._row_hit_cycles = timing.row_hit_cycles
        self._row_miss_cycles = timing.row_miss_cycles
        self._h_row_closed = self.counter_handle("row_closed")
        self._h_row_hit = self.counter_handle("row_hit")
        self._h_row_miss = self.counter_handle("row_miss")
        self._h_accesses = self.counter_handle("accesses")

    def access_latency(self, row: int) -> float:
        """Service time of the next access to ``row`` given the open-row state."""
        if self.open_row is None:
            latency = self._row_closed_cycles
            self._h_row_closed.value += 1
        elif self.open_row == row:
            latency = self._row_hit_cycles
            self._h_row_hit.value += 1
        else:
            latency = self._row_miss_cycles
            self._h_row_miss.value += 1
        return latency

    def access(self, row: int, earliest: Optional[float] = None) -> Tuple[float, float]:
        """Reserve the bank for an access to ``row``.

        Returns ``(start, finish)`` in CPU cycles.  The row becomes (or stays)
        open afterwards, mirroring an open-page policy.
        """
        open_row = self.open_row
        if open_row is None:
            latency = self._row_closed_cycles
            self._h_row_closed.value += 1
        elif open_row == row:
            latency = self._row_hit_cycles
            self._h_row_hit.value += 1
        else:
            latency = self._row_miss_cycles
            self._h_row_miss.value += 1
        # Inlined SharedResource.reserve (latency is always non-negative).
        if earliest is None:
            earliest = self.sim.now
        start = self.busy_until
        if start < earliest:
            start = earliest
        finish = start + latency
        self.busy_until = finish
        wait = start - earliest
        if wait > 0:
            self._queue_wait_cycles.value += wait
        self._busy_cycles.value += latency
        self.open_row = row
        self._h_accesses.value += 1
        return start, finish

    def precharge(self) -> None:
        """Close the open row (used by tests and refresh modelling)."""
        self.open_row = None
