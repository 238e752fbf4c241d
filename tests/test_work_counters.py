"""Work-counter ratchet: deterministic counts of the simulator's work per cell.

Wall time on a shared machine is too noisy to gate, but the work a run does
is exact.  For one mid-size HMC, DRAM and ARF-tid cell this test pins, inside
``Simulator.run_until_idle`` only:

* the executed events, exactly;
* the Python calls, as a ceiling: cProfile ``ncalls`` summed over every
  function, builtins included (perfbench's ``sim.calls_per_event``
  definition).  The sum runs over the profiler's raw per-code-object
  entries: ``pstats`` keys functions by ``(file, line, name)``, so the
  ``__init__`` of every dataclass (all compiled from ``<string>`` line 2)
  would collapse into one entry whose count depends on which class wins;
* the packet constructions (``__init__`` calls in ``network/packet.py``),
  as a ceiling.

It is a ratchet.  A change that raises a count fails here; a change that
lowers one lowers its pin in the same change.  The counts were recorded with
CPython 3.11.
"""

import cProfile
import gc

import pytest

from repro.system import make_system_config
from repro.system.builder import build_system
from repro.system.runner import prepare_program

NUM_THREADS = 4
WARM_UP = {"num_vertices": 96, "avg_degree": 4}

#: (config, workload, vertices) -> (events, Python calls, packet constructions).
#: The DRAM cell is the perfbench ``baseline-closed`` pagerank job.
CELLS = {
    ("HMC", "pagerank", 2048): (45_166, 562_543, 8_786),
    ("DRAM", "pagerank", 4096): (52_557, 1_228_551, 0),
    ("ARF-tid", "pagerank", 1024): (53_245, 781_533, 19_556),
}


def _build(kind, num_vertices, avg_degree=3):
    config = make_system_config(kind, num_cores=NUM_THREADS)
    program = prepare_program(config, "pagerank", num_threads=NUM_THREADS,
                              num_vertices=num_vertices, avg_degree=avg_degree)
    system = build_system(config)
    system.cmp.load_program(program)
    system.cmp.start()
    return system


def count_work(kind, num_vertices):
    """(events, Python calls, packet constructions) of one profiled run,
    after an unprofiled warm-up run of the same configuration in this
    process (first-use work is not part of a run's cost)."""
    _build(kind, **WARM_UP).sim.run_until_idle()
    system = _build(kind, num_vertices)
    profiler = cProfile.Profile()
    # The collector stays off while profiling: gc.callbacks registered by
    # other libraries in this process (Hypothesis has one) would otherwise
    # add calls that depend on when collections happen to run.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    profiler.enable()
    try:
        system.sim.run_until_idle()
    finally:
        profiler.disable()
        if gc_was_enabled:
            gc.enable()
    calls = packet_inits = 0
    for entry in profiler.getstats():
        calls += entry.callcount
        code = entry.code
        if (not isinstance(code, str) and code.co_name == "__init__"
                and code.co_filename.replace("\\", "/").endswith("network/packet.py")):
            packet_inits += entry.callcount
    return system.sim.executed_events, calls, packet_inits


@pytest.mark.parametrize("cell", list(CELLS), ids=[f"{w}@{k}-{n}" for k, w, n in CELLS])
def test_work_counts_do_not_grow(cell):
    kind, _workload, num_vertices = cell
    events_pin, calls_pin, packets_pin = CELLS[cell]
    events, calls, packet_inits = count_work(kind, num_vertices)
    assert events == events_pin
    assert calls <= calls_pin, (
        f"{calls} Python calls ({calls / events:.2f} per event) exceed the pin "
        f"{calls_pin} ({calls_pin / events_pin:.2f} per event)")
    assert packet_inits <= packets_pin
    if kind in ("HMC", "DRAM"):
        # The baseline hot path stays under 24 calls per event.
        assert calls / events <= 24.0
