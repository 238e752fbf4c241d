"""A Hybrid Memory Cube: vaults + crossbar switch + (optionally) an Active-Routing engine.

The cube is a memory-network endpoint.  Passive read/write packets destined to
it are serviced by the appropriate vault and answered with a response packet
(the network forwards passive packets in transit without involving the cube);
active packets are handed to the cube's Active-Routing engine when one is
installed (ART/ARF configurations).
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from ..mem import HMCAddressMapping
from ..network.packet import (
    MemReadPacket,
    MemRespPacket,
    MemWritePacket,
    Packet,
    PacketType,
)
from ..sim import Component, Simulator
from .config import HMCConfig
from .vault import VaultController

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.engine import ActiveRoutingEngine
    from ..network.network import MemoryNetwork


class HMCCube(Component):
    """One cube of the memory network."""

    def __init__(self, sim: Simulator, node_id: int, mapping: HMCAddressMapping,
                 config: Optional[HMCConfig] = None) -> None:
        super().__init__(sim, f"hmc.cube{node_id}")
        self.node_id = node_id
        self.mapping = mapping
        self.config = config or HMCConfig()
        self.vaults: List[VaultController] = [
            VaultController(sim, node_id, v, mapping, self.config)
            for v in range(self.config.num_vaults)
        ]
        self.network: Optional["MemoryNetwork"] = None
        self.are: Optional["ActiveRoutingEngine"] = None
        self._crossbar_latency = self.config.crossbar_latency
        # local_access()/_serve_memory_packet() run once per vault access:
        # bind their counter cells up front.
        self._h_local_accesses = self.counter_handle("local_accesses")
        self._h_served_reads = self.counter_handle("served_reads")
        self._h_served_writes = self.counter_handle("served_writes")

    # -- wiring ---------------------------------------------------------------
    def connect(self, network: "MemoryNetwork") -> None:
        """Attach the cube to the memory network and register as its endpoint."""
        self.network = network
        network.register_endpoint(self.node_id, self)

    def install_engine(self, engine: "ActiveRoutingEngine") -> None:
        """Install an Active-Routing engine on this cube's logic layer."""
        self.are = engine

    # -- local DRAM access ----------------------------------------------------
    def local_access(self, addr: int, size: int, is_write: bool) -> float:
        """Access the vault holding ``addr``; returns the completion cycle."""
        vault = self.vaults[self.mapping.vault_of(addr)]
        finish = vault.service(addr, size, is_write) + self._crossbar_latency
        self._h_local_accesses.value += 1
        return finish

    # -- network endpoint -----------------------------------------------------
    def receive_packet(self, packet: Packet, from_node: int) -> None:
        if packet.is_active:
            are = self.are
            if are is None:
                raise RuntimeError(
                    f"cube {self.node_id} received active packet {packet.ptype} "
                    "but has no Active-Routing engine installed"
                )
            # Inlined ActiveRoutingEngine.handle_packet: this fires for every
            # active packet that crosses the cube, and the extra frame is
            # measurable at fleet scale.
            are._h_active_packets.value += 1
            handler = are._dispatch[packet.ptype._code]
            if handler is None:
                raise RuntimeError(
                    f"{are.name} cannot handle packet type {packet.ptype}")
            handler(packet, from_node)
            return
        self._serve_memory_packet(packet)

    def _serve_memory_packet(self, packet: Packet) -> None:
        assert self.network is not None, "cube is not connected to a network"
        ptype = packet.ptype
        if ptype is PacketType.READ_REQ:
            is_read = True
            size = 64
        elif ptype is PacketType.WRITE_REQ:
            is_read = False
            size = packet.size
        else:
            raise RuntimeError(f"cube {self.node_id} cannot serve packet type {ptype}")
        addr = packet.addr
        finish = self.local_access(addr, size, is_write=not is_read)
        if is_read:
            self._h_served_reads.value += 1
        else:
            self._h_served_writes.value += 1
        response = MemRespPacket(src=self.node_id, dst=packet.src,
                                 addr=addr, is_read=is_read, req_id=packet.req_id)
        self.sim.schedule_at(finish, self.network.inject, response, self.node_id)

    # -- statistics -----------------------------------------------------------
    def total_vault_accesses(self) -> float:
        """Accesses served by this cube's vaults (each vault's ``accesses``)."""
        total = 0.0
        for vault in self.vaults:
            total += vault._h_accesses.value
        return total
