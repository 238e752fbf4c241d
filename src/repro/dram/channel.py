"""A DDR channel: banks behind a shared data bus with FR-FCFS-like behaviour.

Requests are served in arrival order per bank (open-row hits are naturally
cheap because the bank keeps its row open), and every transfer also occupies
the channel data bus, which is the bandwidth bottleneck of the DDR baseline
relative to the HMC memory network.
"""

from __future__ import annotations

from typing import List, Optional

from ..mem import DRAMAddressMapping
from ..sim import Component, SharedResource, Simulator
from .bank import DRAMBank
from .timing import DRAMTiming


class DDRChannel(Component):
    """One memory channel of the conventional DRAM baseline."""

    def __init__(self, sim: Simulator, channel_id: int, mapping: DRAMAddressMapping,
                 timing: DRAMTiming, bus_bytes_per_cycle: float = 6.4,
                 controller_latency: float = 20.0) -> None:
        super().__init__(sim, f"dram.ch{channel_id}")
        self.channel_id = channel_id
        self.mapping = mapping
        self.timing = timing
        self.controller_latency = controller_latency
        self.bus = SharedResource(sim, f"{self.name}.bus")
        self.bus_bytes_per_cycle = bus_bytes_per_cycle
        # access() runs once per DRAM access: hoist the address-decode
        # strides (same math as DRAMAddressMapping.rank_of/bank_of/row_of)
        # and bind the counter cells.  Banks are built on first access and
        # indexed densely by rank and bank.
        self._block_size = mapping.block_size
        self._ranks = mapping.ranks_per_channel
        self._rank_stride = mapping.block_size * mapping.ranks_per_channel
        self._banks_per_rank = mapping.banks_per_rank
        self._row_stride = self._rank_stride * mapping.banks_per_rank
        self._blocks_per_row = max(1, mapping.row_size // mapping.block_size)
        self._banks: List[Optional[DRAMBank]] = [None] * (self._ranks * self._banks_per_rank)
        self._h_accesses = self.counter_handle("accesses")
        self._h_reads = self.counter_handle("reads")
        self._h_writes = self.counter_handle("writes")
        self._h_bytes = self.counter_handle("bytes")

    def access(self, addr: int, size: int, is_write: bool) -> float:
        """Reserve bank + bus for an access starting now; returns the finish time."""
        rank = (addr // self._block_size) % self._ranks
        bank_idx = (addr // self._rank_stride) % self._banks_per_rank
        row = (addr // self._row_stride) // self._blocks_per_row
        index = rank * self._banks_per_rank + bank_idx
        bank = self._banks[index]
        if bank is None:
            bank = self._banks[index] = DRAMBank(
                self.sim, f"{self.name}.r{rank}b{bank_idx}", self.timing)
        _, bank_finish = bank.access(row, earliest=self.sim.now + self.controller_latency)
        occupancy = size / self.bus_bytes_per_cycle
        # Inlined self.bus.reserve(occupancy, earliest=bank_finish).
        bus = self.bus
        start = bus.busy_until
        if start < bank_finish:
            start = bank_finish
        bus_finish = start + occupancy
        bus.busy_until = bus_finish
        wait = start - bank_finish
        if wait > 0:
            bus._queue_wait_cycles.value += wait
        bus._busy_cycles.value += occupancy
        self._h_accesses.value += 1
        if is_write:
            self._h_writes.value += 1
        else:
            self._h_reads.value += 1
        self._h_bytes.value += size
        return bus_finish

    @property
    def num_banks_touched(self) -> int:
        return sum(bank is not None for bank in self._banks)
