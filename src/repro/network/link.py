"""SerDes link model with serialization delay and FIFO queueing.

A link is a unidirectional channel between two memory-network nodes.  Each
packet occupies the link for ``size / bandwidth`` cycles; packets that arrive
while the link is busy queue up (the ``busy_until`` reservation), which is what
produces the many-to-one hot-spot behaviour of the static ART scheme in the
paper (Section 5.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..sim import SharedResource, Simulator
from .packet import MOVEMENT_CATEGORIES, Packet


@dataclass(frozen=True)
class LinkConfig:
    """Physical parameters of one memory-network link.

    Defaults follow Table 4.1: 16 lanes at 12.5 Gbps each gives 25 GB/s per
    direction, i.e. 12.5 bytes per 2 GHz CPU cycle; propagation plus SerDes
    latency is a few cycles.
    """

    bandwidth_bytes_per_cycle: float = 12.5
    latency_cycles: float = 4.0
    energy_pj_per_bit: float = 5.0

    def serialization_cycles(self, size_bytes: int) -> float:
        return size_bytes / self.bandwidth_bytes_per_cycle


class Link(SharedResource):
    """One direction of a cube-to-cube or controller-to-cube connection."""

    def __init__(self, sim: Simulator, src: int, dst: int,
                 config: LinkConfig | None = None) -> None:
        super().__init__(sim, f"link.{src}->{dst}")
        self.src = src
        self.dst = dst
        self.config = config or LinkConfig()
        #: Fault-injection state.  The network's fault-aware delivery path
        #: checks this at each packet's arrival instant; the default hop path
        #: never reads it (failure-free runs stay byte-identical and pay
        #: nothing).  Both directions of a pair are flipped together by
        #: MemoryNetwork.set_link_state().
        self.up = True
        #: Packets parked on this link while it is down, drained in FIFO
        #: order at recovery: first the in-flight casualties (transmitted
        #: before the failure, so reserved — and arriving — before anything
        #: below), then the blocked submissions in submission order.  This
        #: preserves exact per-link FIFO across a down/up cycle, which the
        #: Active-Routing gather protocol depends on (a gather request must
        #: never overtake the updates that preceded it on the same tree edge).
        self._park_inflight: list = []
        self._park_blocked: list = []
        # transmit() runs once per hop; hoist the config scalars and bind every
        # counter up front so the hot path is pure arithmetic + cell updates.
        # Energy per byte is exact (8 x the per-bit cost), so per-hop energy
        # sums stay exact integers at the default costs.
        self._bandwidth = self.config.bandwidth_bytes_per_cycle
        self._latency = self.config.latency_cycles
        self._energy_pj_per_byte = 8 * self.config.energy_pj_per_bit
        self._h_packets = self.counter_handle("packets")
        self._h_bytes = self.counter_handle("bytes")
        self._h_energy_pj = self.counter_handle("energy_pj")
        #: Per-category byte cells, indexed by ``Packet._cat_index``.
        self._cat_handles = [self.counter_handle(f"bytes.{category}")
                             for category in MOVEMENT_CATEGORIES]

    # -- aggregation-friendly readers ----------------------------------------
    # Network-wide aggregations (off-chip traffic, per-node load) read these
    # cells directly instead of resolving dotted names in the registry.
    def total_bytes(self) -> float:
        """Bytes that crossed this link so far."""
        return self._h_bytes.value

    def bytes_by_category(self) -> Dict[str, float]:
        """Bytes that crossed this link, keyed by movement category."""
        return {category: handle.value
                for category, handle in zip(MOVEMENT_CATEGORIES, self._cat_handles)}

    def transmit(self, packet: Packet, earliest: float | None = None) -> Tuple[float, float]:
        """Send ``packet`` over the link.

        Returns ``(arrival_time, queue_delay)``.  Arrival is when the tail of
        the packet reaches the far end; queue delay is the time spent waiting
        for the link to become free.
        """
        size = packet.size
        serialization = size / self._bandwidth
        if earliest is None:
            earliest = self.sim.now
        start = self.busy_until
        if start < earliest:
            start = earliest
        finish = start + serialization
        self.busy_until = finish
        queue_delay = start - earliest
        if queue_delay > 0:
            self._queue_wait_cycles.value += queue_delay
        self._busy_cycles.value += serialization
        self._h_packets.value += 1
        self._h_bytes.value += size
        self._cat_handles[packet._cat_index].value += size
        self._h_energy_pj.value += size * self._energy_pj_per_byte
        return finish + self._latency, queue_delay
