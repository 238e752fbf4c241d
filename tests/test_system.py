"""Tests for system configuration, machine building and the run driver."""

import re

import pytest

from repro.dram import DRAMSystem
from repro.hmc import HMCMemorySystem
from repro.system import (
    CONFIG_ORDER,
    SystemKind,
    all_system_configs,
    build_system,
    make_system_config,
    run_program,
    run_workload,
    table_4_1,
)
from repro.sim import SimulationError
from repro.system.results import collect_results
from repro.system.runner import check_cores_finished
from repro.workloads import make_workload, WorkloadConfig

from helpers import tiny_params


def test_system_kind_properties():
    assert SystemKind.DRAM.uses_hmc is False
    assert SystemKind.HMC.uses_hmc and not SystemKind.HMC.uses_active_routing
    assert SystemKind.ARF_TID.uses_active_routing
    assert SystemKind.ART.scheme is not None
    assert SystemKind.HMC.scheme is None
    assert SystemKind.from_name("arf-addr") is SystemKind.ARF_ADDR
    with pytest.raises(ValueError):
        SystemKind.from_name("weird")


def test_config_order_matches_paper():
    assert [k.value for k in CONFIG_ORDER] == ["DRAM", "HMC", "ART", "ARF-tid", "ARF-addr"]
    assert len(all_system_configs()) == 5


def test_make_system_config_profiles():
    paper = make_system_config("ARF-tid", profile="paper")
    scaled = make_system_config("ARF-tid", profile="scaled")
    assert paper.cmp.num_cores == 16
    assert paper.cmp.cache.l2_size == 16 * 1024 * 1024
    assert scaled.cmp.num_cores == 4
    assert scaled.cmp.cache.l2_size < paper.cmp.cache.l2_size
    with pytest.raises(ValueError):
        make_system_config("HMC", profile="huge")


def test_table_4_1_contents():
    rows = dict(table_4_1())
    assert "CPU Core" in rows and "16 O3cores" in rows["CPU Core"]
    assert "HMC-Net" in rows and "dragonfly" in rows["HMC-Net"]
    assert "DRAM Baseline" in rows


def test_build_system_kinds():
    dram = build_system("DRAM", num_cores=2)
    assert isinstance(dram.memory, DRAMSystem)
    assert dram.ar_host is None and dram.trace_mode == "baseline"
    hmc = build_system("HMC", num_cores=2)
    assert isinstance(hmc.memory, HMCMemorySystem)
    assert hmc.ar_host is None
    arf = build_system("ARF-tid", num_cores=2)
    assert arf.ar_host is not None and arf.trace_mode == "active"
    assert all(cube.are is not None for cube in arf.memory.cubes)


def test_run_program_rejects_wrong_mode():
    workload = make_workload("reduce", WorkloadConfig(num_threads=2), array_elements=128)
    active_program = workload.generate("active")
    config = make_system_config("DRAM", num_cores=2)
    with pytest.raises(ValueError):
        run_program(config, active_program)


def test_unfinished_cores_are_named_with_their_state():
    workload = make_workload("mac", WorkloadConfig(num_threads=2), array_elements=256)
    program = workload.generate("baseline")
    system = build_system("HMC", num_cores=2)
    system.cmp.load_program(program)
    system.cmp.start()
    system.sim.run(max_events=50)   # stop early: both miss windows are full
    length = len(program.threads[0])
    with pytest.raises(SimulationError) as info:
        check_cores_finished(system, program.name)
    message = str(info.value)
    assert message.startswith("run of 'mac' on HMC ended with unfinished cores: ")
    for core_id in (0, 1):
        assert (f"core {core_id} at pc 72/{length}, blocked on mem_window, "
                f"48 outstanding mem") in message
    system.sim.run_until_idle()
    check_cores_finished(system, program.name)   # finished: no error


def test_unfinished_flows_are_named_oldest_first():
    workload = make_workload("pagerank", WorkloadConfig(num_threads=2),
                             num_vertices=96, avg_degree=4)
    program = workload.generate("active")
    system = build_system("ARF-tid", num_cores=2)
    system.cmp.load_program(program)
    system.cmp.start()
    system.sim.run(max_events=1000)   # stop early: gathers are in flight
    with pytest.raises(SimulationError) as info:
        check_cores_finished(system, program.name)
    cores, _, flows = str(info.value).partition("; oldest unfinished flows: ")
    assert cores.startswith("run of 'pagerank' on ARF-tid ended with unfinished cores: ")
    flows = flows.split("; ")
    assert len(flows) == 3            # the three oldest of more in flight
    assert system.ar_host.active_flows > 3
    assert flows[0] == ("flow 0x10001000 (mac): 0/5 updates completed, "
                        "1/1 gathers arrived, pending response ports [0]")
    assert flows[1].startswith("flow 0x10001008 (mac): ")


def test_per_cube_vault_accesses_count_vault_accesses_only():
    program = make_workload("mac", WorkloadConfig(num_threads=2),
                            array_elements=512).generate("baseline")
    system = build_system("HMC", num_cores=2)
    system.cmp.load_program(program)
    system.cmp.start()
    system.sim.run_until_idle()
    result = collect_results(system, program)
    counters = system.sim.stats.counters()
    per_cube = result.per_cube["vault_accesses"]
    assert sorted(per_cube) == list(range(16))
    for cube_id, accesses in per_cube.items():
        assert accesses == sum(
            value for name, value in counters.items()
            if re.fullmatch(rf"hmc\.cube{cube_id}\.vault\d+\.accesses", name))
    assert sum(per_cube.values()) > 0


def test_run_workload_rejects_too_many_threads():
    config = make_system_config("HMC", num_cores=2)
    with pytest.raises(ValueError):
        run_workload(config, "reduce", num_threads=4, array_elements=128)


@pytest.mark.parametrize("kind", ["DRAM", "HMC", "ART", "ARF-tid", "ARF-addr"])
def test_run_workload_mac_on_every_configuration(kind):
    result = run_workload(kind, "mac", num_threads=2, array_elements=512)
    assert result.cycles > 0
    assert result.instructions > 0
    assert result.energy.total_j > 0
    assert result.flows_verified
    assert result.config == kind
    summary = result.summary()
    assert summary["cycles"] == result.cycles
    if kind in ("ART", "ARF-tid", "ARF-addr"):
        assert result.mode == "active"
        assert result.update_roundtrip > 0
        checked, mismatched = result.flow_checks
        assert checked >= 1 and mismatched == 0
        assert result.data_movement["active_req"] > 0
    else:
        assert result.mode == "baseline"
        assert result.data_movement["active_req"] == 0.0


def test_speedup_and_result_helpers():
    slow = run_workload("DRAM", "rand_mac", num_threads=2, array_elements=768)
    fast = run_workload("ARF-tid", "rand_mac", num_threads=2, array_elements=768)
    assert fast.speedup_over(slow) == pytest.approx(slow.cycles / fast.cycles)
    assert fast.total_data_bytes > 0
    assert fast.ipc > 0


@pytest.mark.parametrize("name", ["pagerank", "lud", "sgemm", "spmv", "backprop"])
def test_benchmarks_run_and_verify_on_arf(name):
    result = run_workload("ARF-tid", name, num_threads=2, **tiny_params(name))
    assert result.flows_verified
    assert result.cycles > 0
    per_cube_updates = result.per_cube["updates_received"]
    assert sum(per_cube_updates.values()) > 0


# -- network-variant configuration labels ----------------------------------------

def test_network_labels_default_and_variant():
    from repro.hmc import HMCNetworkConfig, default_network

    default = make_system_config(SystemKind.ARF_TID)
    assert default.network_label is None
    assert default.label == "ARF-tid"                  # unchanged from PR 3
    assert default_network().label == "dragonfly16c4"

    variant = make_system_config(SystemKind.ARF_TID, topology="mesh")
    assert variant.network_label == "mesh16c4"
    assert variant.label == "ARF-tid@mesh16c4"

    # The DRAM baseline has no memory network: its label never forks, so one
    # cached baseline serves every network sweep.
    dram = make_system_config(SystemKind.DRAM, topology="mesh")
    assert dram.network_label is None and dram.label == "DRAM"

    # Non-shape deviations fold into a digest suffix so labels stay unique.
    import dataclasses
    tweaked = variant.with_network(
        dataclasses.replace(variant.hmc_net, router_delay=5.0))
    assert tweaked.network_label.startswith("mesh16c4-")
    assert tweaked.network_label != variant.network_label


def test_make_system_config_rejects_impossible_networks_eagerly():
    with pytest.raises(ValueError, match="exactly 18 cubes"):
        make_system_config(SystemKind.ART, topology="dragonfly", num_cubes=18)


def test_build_system_with_variant_network():
    config = make_system_config(SystemKind.HMC, topology="torus", num_cubes=8)
    system = build_system(config)
    assert isinstance(system.memory, HMCMemorySystem)
    assert len(system.memory.cubes) == 8
    assert system.memory.topology.name == "torus2x4"


def test_run_workload_does_not_mutate_callers_workload_config():
    wconfig = WorkloadConfig(num_threads=4)
    # A real parameter (unknown names now fail fast) that the override below
    # would clobber if run_workload wrote through into the caller's dict.
    wconfig.extra["array_elements"] = 64
    run_workload("HMC", "mac", num_threads=2, workload_config=wconfig,
                 array_elements=128)
    # The caller's object keeps its thread count and its extra dict untouched.
    assert wconfig.num_threads == 4
    assert wconfig.extra == {"array_elements": 64}
