"""The conventional DDR memory system used by the DRAM baseline configuration."""

from __future__ import annotations

from typing import List

from ..mem import AccessType, DRAMAddressMapping, MemoryRequest
from ..sim import Component, Simulator
from .channel import DDRChannel
from .timing import DDR_TIMING, DRAMTiming


class DRAMSystem(Component):
    """4-channel DDR memory behind the last-level cache.

    Implements the ``MemorySystem`` protocol: :meth:`access` takes a
    :class:`~repro.mem.MemoryRequest`, models the latency (including channel
    and bank contention) and schedules the request's completion callback.
    """

    #: DRAM access energy, per bit moved on/off the DIMM (paper: 39 pJ/bit).
    ENERGY_PJ_PER_BIT = 39.0

    def __init__(self, sim: Simulator, mapping: DRAMAddressMapping | None = None,
                 timing: DRAMTiming = DDR_TIMING, bus_bytes_per_cycle: float = 6.4,
                 controller_latency: float = 20.0) -> None:
        super().__init__(sim, "dram")
        self.mapping = mapping or DRAMAddressMapping()
        self.timing = timing
        self.channels: List[DDRChannel] = [
            DDRChannel(sim, ch, self.mapping, timing,
                       bus_bytes_per_cycle=bus_bytes_per_cycle,
                       controller_latency=controller_latency)
            for ch in range(self.mapping.num_channels)
        ]
        # access() runs once per block request: bind its cells once.  The
        # per-access-type byte cells are indexed by ``AccessType._code``
        # (an enum-keyed dict would hash through a Python-level call).
        self._h_requests = self.counter_handle("requests")
        self._h_bytes = self.counter_handle("bytes")
        self._h_type_bytes = [self.counter_handle(f"bytes.{access_type.value}")
                              for access_type in AccessType]
        self._h_energy_pj = self.counter_handle("energy_pj")
        self._hist_latency = sim.stats.histogram(f"{self.name}.latency")

    @property
    def is_network_memory(self) -> bool:
        return False

    def access(self, request: MemoryRequest) -> None:
        """Service one block request; completion fires ``request.on_complete``."""
        now = self.sim.now
        request.issue_time = request.issue_time or now
        access_type = request.access_type
        size = request.size
        channel = self.channels[self.mapping.channel_of(request.addr)]
        finish = channel.access(request.addr, size, access_type.is_write)
        self._h_requests.value += 1
        self._h_bytes.value += size
        self._h_type_bytes[access_type._code].value += size
        self._h_energy_pj.value += size * 8 * self.ENERGY_PJ_PER_BIT
        self._hist_latency.add(finish - now)
        # The unbound method takes (request, finish) as the event's arguments.
        self.sim.schedule_at(finish, MemoryRequest.complete, request, finish)

    def peak_bandwidth_bytes_per_cycle(self) -> float:
        """Aggregate peak data-bus bandwidth across channels."""
        return sum(ch.bus_bytes_per_cycle for ch in self.channels)
