"""Unit tests for the on-chip mesh model."""

import pytest

from repro.cpu import MeshNoC
from repro.cpu.cache import CacheHierarchy
from repro.cpu.config import CacheConfig, CMPConfig, CoreConfig
from repro.sim import Simulator


def test_coords_and_hops(sim):
    noc = MeshNoC(sim, rows=4, cols=4)
    assert noc.num_tiles == 16
    assert noc.coords(0) == (0, 0)
    assert noc.coords(5) == (1, 1)
    assert noc.hops(0, 15) == 6
    assert noc.hops(3, 3) == 0
    with pytest.raises(ValueError):
        noc.coords(16)


def test_corner_tiles_and_mc_placement(sim):
    noc = MeshNoC(sim, rows=4, cols=4)
    assert noc.corner_tiles() == [0, 3, 12, 15]
    assert noc.mc_tile(0) == 0
    assert noc.mc_tile(3) == 15
    small = MeshNoC(sim, rows=1, cols=1)
    assert small.corner_tiles() == [0]


def test_transfer_latency_and_energy(sim):
    """Each L2 probe is a 16-byte request and a block-sized response between
    the core's tile and the bank's tile, accounted in the NoC's cells."""
    config = CMPConfig(num_cores=1, mesh_rows=2, mesh_cols=2, core=CoreConfig(),
                       cache=CacheConfig(l1_size=1024, l1_assoc=2, l2_size=4096,
                                         l2_assoc=4, l2_banks=4, prefetch_degree=0))
    cc = config.cache
    noc = MeshNoC(sim, rows=2, cols=2, hop_latency=3.0, energy_pj_per_byte_hop=1.0)
    cache = CacheHierarchy(sim, config, noc, memory_system=None)
    block = 3                                  # L2 bank 3, on tile 3
    assert noc.hops(noc.core_tile(0), noc.bank_tile(block % cc.l2_banks)) == 2
    cache.l2.fill(block)
    latency = cache.access(0, addr=block * cc.block_size, is_write=False)
    assert latency == cc.l1_latency + cc.l2_latency + 2 * 2 * 3.0
    moved = 16 + cc.block_size
    assert sim.stats.counter("noc.transfers") == 2
    assert sim.stats.counter("noc.bytes") == moved
    assert sim.stats.counter("noc.byte_hops") == 2 * moved
    assert sim.stats.counter("noc.energy_pj") == 2 * moved


def test_invalid_mesh(sim):
    with pytest.raises(ValueError):
        MeshNoC(sim, rows=0, cols=4)
