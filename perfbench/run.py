"""Run one benchmark workload of the Active-Routing simulator and print its metrics.

    python3 perfbench/run.py --workload ar-closed --seed 7 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): ``ar-closed``,
``baseline-closed``, ``open-tenants`` and ``suite-tiny``.  The simulator is
single-threaded, so every workload runs in this one process, one job at a time.

``--trace 0`` measures the end-to-end metrics for ``--seconds``: set-up time
(median of several fresh interpreters), then cold passes over the job list,
then a few warm passes that read the results back from the run cache and
must simulate nothing.  ``--trace 1`` makes
one untraced pass, one pass with spans around the simulator's public calls,
and one pass with a profiler inside simulate, and prints the per-layer
metrics; the spans and profile are written to
``.perfbench/trace-<workload>-seed<seed>.json``.

Every job's simulated outputs are fingerprinted and checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--update-reference`` re-records the reference
fingerprints of a workload at the default seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "probe.py"
WORK_DIR = ROOT / ".perfbench"

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 5
#: Warm passes per run; they check the run-cache path and are timed, not gated.
WARM_PASSES = 5

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mib": "MiB",
}

#: ``repro`` modules whose self time inside simulate is reported one by one;
#: self time of any other ``repro`` module is reported as ``other.self_s``.
PROFILED_MODULES: Tuple[str, ...] = (
    "core.alu", "core.engine", "core.flow_table", "core.host",
    "core.operand_buffer", "core.schemes",
    "cpu.cache", "cpu.cmp", "cpu.core", "cpu.message_interface", "cpu.noc", "cpu.sync",
    "dram.bank", "dram.channel", "dram.dram_system", "dram.timing",
    "hmc.cube", "hmc.hmc_controller", "hmc.hmc_memory", "hmc.vault",
    "isa.operations", "isa.program",
    "mem.address", "mem.layout", "mem.request",
    "network.faults", "network.network", "network.packet", "network.routing",
    "network.topology",
    "sim.component", "sim.event_queue", "sim.simulator", "sim.stats",
    "system.builder",
    "workloads.drivers",
)

PER_LAYER: Dict[str, str] = {
    "workloads.generate_s": "s",
    "system.build_s": "s",
    "sim.simulate_s": "s",
    "system.collect_s": "s",
    "experiments.cache_get_s": "s",
    "experiments.cache_put_s": "s",
    "experiments.plan_s": "s",
    "experiments.warm_pass_s": "s",
    **{f"{module}.self_s": "s" for module in PROFILED_MODULES},
    "other.self_s": "s",
    "stdlib.self_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.calls_per_event": "calls/event",
    "network.packet_inits": "count",
    "network.hops": "count",
    "network.queue_delay_per_hop": "cycles",
    "core.updates": "count",
    "core.operand_buffer_stalls": "count",
    "cpu.requests": "count",
    "cpu.l1_hit_rate": "fraction",
    "cpu.l2_hit_rate": "fraction",
    "experiments.simulated": "count",
    "experiments.cache_hits": "count",
    "trace.overhead": "ratio",
    "trace.profile_overhead": "ratio",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed, default 7 (suite-tiny always "
                             "runs the suite's own fixed seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement budget of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true",
                        help="re-record the workload's reference fingerprints")
    return parser.parse_args(argv)


def time_setup(workload: str, scratch: Path) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    ``repro`` and prepared the workload."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(PROBE), workload, str(scratch)],
                          stdout=subprocess.PIPE, text=True) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.stdout.read()
    if probe.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} exited with {probe.returncode}")
    return elapsed


def make_run(harness, workload: str, seed: int, ledger, scratch: Path):
    if workload == harness.SUITE_WORKLOAD:
        return harness.SuiteRun(ledger, scratch)
    return harness.KernelRun(harness.kernel_jobs(workload), seed, ledger, scratch)


def report(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<32} {value:>14.6g} {unit:<12} {note}")


def timed_run(harness, args: argparse.Namespace, ledger, scratch: Path,
              deadline: float) -> Dict[str, float]:
    setup = [time_setup(args.workload, scratch / f"probe{i}") for i in range(SETUP_PROBES)]
    run = make_run(harness, args.workload, args.seed, ledger, scratch)
    passes: List[float] = []
    while not passes or time.perf_counter() + statistics.median(passes) < deadline:
        # Collect the previous pass's garbage outside the timed region, so
        # that every pass starts from the same heap.
        gc.collect()
        passes.append(run.cold())
    warms = [run.warm() for _ in range(WARM_PASSES)]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for label, result in run.results.items():
        print(harness.simulated_stats(label, result))
    values = {"setup_s": statistics.median(setup),
              "pass_s": statistics.median(passes),
              "peak_rss_mib": peak_rss_mib}
    samples = {"setup_s": len(setup), "pass_s": len(passes), "peak_rss_mib": 1}
    for name, value in values.items():
        report(name, value, END_TO_END[name], f"median of {samples[name]}")
    print("pass_s samples " + " ".join(f"{seconds:.4f}" for seconds in passes))
    report("warm pass (not gated)", statistics.median(warms), "s",
           f"median of {len(warms)}")
    return values


def traced_run(harness, spans, args: argparse.Namespace, ledger,
               scratch: Path) -> Dict[str, float]:
    run = make_run(harness, args.workload, args.seed, ledger, scratch)
    gc.collect()
    untraced = run.cold()
    warms = [run.warm() for _ in range(WARM_PASSES)]
    values: Dict[str, float] = harness.work_counts(run.results.values())
    values["experiments.warm_pass_s"] = statistics.median(warms)
    values["experiments.simulated"] = float(run.simulated)
    values["experiments.cache_hits"] = float(run.cache_hits)

    tracer = spans.Tracer()
    gc.collect()
    with tracer.installed():
        traced = run.cold()
        run.warm()
    profiler = spans.Tracer(profile=True)
    gc.collect()
    with profiler.installed():
        profiled = run.cold()

    values.update(tracer.layer_times())
    simulate_s = values["sim.simulate_s"]
    values["sim.events_per_s"] = values["sim.events"] / simulate_s if simulate_s else 0.0
    self_s, calls, packet_inits = profiler.profile_summary()
    for module in PROFILED_MODULES:
        values[f"{module}.self_s"] = self_s.get(module, 0.0)
    values["stdlib.self_s"] = self_s.get("stdlib", 0.0)
    values["other.self_s"] = sum(seconds for module, seconds in self_s.items()
                                 if module not in PROFILED_MODULES and module != "stdlib")
    events = values["sim.events"]
    values["sim.calls_per_event"] = calls / events if events else 0.0
    values["network.packet_inits"] = float(packet_inits)
    values["trace.overhead"] = traced / untraced
    values["trace.profile_overhead"] = profiled / untraced

    out = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(out, "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "pass_s": {"untraced": untraced, "traced": traced,
                              "profiled": profiled},
                   "spans": tracer.span_records(),
                   "profiled_spans": profiler.span_records(),
                   "self_s_by_module": self_s, "metrics": values},
                  handle, indent=1, sort_keys=True)
    simulated_total = sum(self_s.values())
    for name in PER_LAYER:
        note = ""
        if name.endswith(".self_s") and simulated_total:
            note = f"{100.0 * values[name] / simulated_total:5.1f}% of simulate self time"
        report(name, values[name], PER_LAYER[name], note)
    print(f"trace written to {out.relative_to(ROOT)}")
    return values


def main(argv: List[str]) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    # An inherited knob (scheduler, packet pool, summary, cache dir...) must
    # not change what is measured.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    import spans

    if args.seed is None:
        args.seed = harness.DEFAULT_SEED
    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.update_reference and args.seed != harness.DEFAULT_SEED:
        print(f"perfbench: references are recorded at seed {harness.DEFAULT_SEED}",
              file=sys.stderr)
        return 2
    reference = None if args.update_reference else harness.load_reference(
        args.workload, args.seed)
    ledger = harness.Ledger(reference=reference)

    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        if args.trace:
            values = traced_run(harness, spans, args, ledger, scratch)
            units = PER_LAYER
        else:
            values = timed_run(harness, args, ledger, scratch, start + args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for problem in ledger.problems:
        print(f"FAILED {problem}")
    print(f"jobs attempted {ledger.attempted}, failed {ledger.failed} "
          f"(failed_frac {ledger.failed / max(1, ledger.attempted):.4f})")
    if args.update_reference:
        with open(harness.REFERENCE_FILE) as handle:
            recorded = json.load(handle)
        recorded["workloads"][args.workload] = dict(sorted(ledger.fingerprints.items()))
        with open(harness.REFERENCE_FILE, "w") as handle:
            json.dump(recorded, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps({
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
