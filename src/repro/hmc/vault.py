"""HMC vault controller: per-vault DRAM banks behind a TSV data path."""

from __future__ import annotations

from typing import Dict

from ..mem import HMCAddressMapping
from ..sim import Component, SharedResource, Simulator
from ..dram.bank import DRAMBank
from .config import HMCConfig


class VaultController(Component):
    """One of the 32 vaults on a cube's logic layer.

    The vault controller serializes accesses to its banks (open-row policy)
    and its TSV bundle, and reports access energy using the HMC per-bit cost.
    """

    def __init__(self, sim: Simulator, cube_id: int, vault_id: int,
                 mapping: HMCAddressMapping, config: HMCConfig) -> None:
        super().__init__(sim, f"hmc.cube{cube_id}.vault{vault_id}")
        self.cube_id = cube_id
        self.vault_id = vault_id
        self.mapping = mapping
        self.config = config
        self.tsv = SharedResource(sim, f"{self.name}.tsv")
        self._banks: Dict[int, DRAMBank] = {}
        # service() runs once per vault access: hoist the address-decode
        # strides (same math as HMCAddressMapping.bank_of/row_of), bind the
        # counter cells, and inline the TSV reservation.  Energy per byte is
        # exact (8 x the per-bit cost).
        self._bank_stride = mapping.block_size * mapping.num_vaults
        self._banks_per_vault = mapping.banks_per_vault
        self._row_stride = self._bank_stride * mapping.banks_per_vault
        self._blocks_per_row = mapping.row_size // mapping.block_size
        self._bytes_per_cycle = config.vault_bytes_per_cycle
        self._controller_latency = config.vault_controller_latency
        self._energy_pj_per_byte = 8 * config.energy_pj_per_bit
        self._h_accesses = self.counter_handle("accesses")
        self._h_reads = self.counter_handle("reads")
        self._h_writes = self.counter_handle("writes")
        self._h_bytes = self.counter_handle("bytes")
        self._h_energy_pj = self.counter_handle("energy_pj")

    def _bank(self, index: int) -> DRAMBank:
        bank = self._banks.get(index)
        if bank is None:
            bank = DRAMBank(self.sim, f"{self.name}.bank{index}", self.config.vault_timing)
            self._banks[index] = bank
        return bank

    def service(self, addr: int, size: int, is_write: bool) -> float:
        """Reserve bank + TSV for one access starting now; returns finish time."""
        bank_idx = (addr // self._bank_stride) % self._banks_per_vault
        row = (addr // self._row_stride) // self._blocks_per_row
        bank = self._banks.get(bank_idx)
        if bank is None:
            bank = self._bank(bank_idx)
        earliest = self.sim.now + self._controller_latency
        _, bank_finish = bank.access(row, earliest=earliest)
        occupancy = size / self._bytes_per_cycle
        # Inlined self.tsv.reserve(occupancy, earliest=bank_finish).
        tsv = self.tsv
        start = tsv.busy_until
        if start < bank_finish:
            start = bank_finish
        tsv_finish = start + occupancy
        tsv.busy_until = tsv_finish
        wait = start - bank_finish
        if wait > 0:
            tsv._queue_wait_cycles.value += wait
        tsv._busy_cycles.value += occupancy
        if is_write:
            self._h_writes.value += 1
        else:
            self._h_reads.value += 1
        self._h_accesses.value += 1
        self._h_bytes.value += size
        self._h_energy_pj.value += size * self._energy_pj_per_byte
        return tsv_finish

    @property
    def banks_touched(self) -> int:
        return len(self._banks)
