"""Workloads, timed passes and correctness accounting of the benchmark.

Every workload is a fixed list of simulation jobs.  A *cold pass* produces
every job's result from nothing: it generates the trace, builds a fresh
machine (caches and memory system start empty), simulates and collects.  A
*warm pass* fetches the same results from the run cache and must simulate
nothing.  Every result a pass yields is checked by :class:`Ledger`.

Of the run path it calls only what the ROADMAP keeps: ``run_workload``,
``RunResult``, ``EvaluationSuite`` and ``RunCache``.  ``build_system`` and
``collect_results`` are timed from the outside by :mod:`spans`.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.experiments import EvaluationSuite, RunCache
from repro.experiments.run_cache import code_digest
from repro.system import RunResult, SystemConfig, make_system_config, runner
from repro.workloads import WorkloadConfig

NUM_THREADS = 4
#: The seed the reference fingerprints were recorded at (WorkloadConfig's default).
DEFAULT_SEED = WorkloadConfig().seed
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

PAGERANK = {"num_vertices": 4096, "avg_degree": 3}
ARRAY = {"array_elements": 6144}
OPEN_TENANTS = {"driver": "open", "tenant_mix": "mac,pagerank,reduce,rand_mac",
                "zipf_s": 1.1, "arrival_rate": 40.0, "stream_requests": 2048}

#: (config, workload, params) per job of each kernel workload.
KERNEL_WORKLOADS: Dict[str, Tuple[Tuple[str, str, Dict[str, object]], ...]] = {
    "ar-closed": (("ARF-tid", "pagerank", PAGERANK),
                  ("ARF-tid", "mac", ARRAY),
                  ("ART", "reduce", ARRAY)),
    "baseline-closed": (("HMC", "pagerank", PAGERANK),
                        ("DRAM", "pagerank", PAGERANK),
                        ("HMC", "mac", ARRAY),
                        ("DRAM", "reduce", ARRAY)),
    # With a tenant mix the open driver ignores the base workload name.
    "open-tenants": (("ARF-tid", "mac", OPEN_TENANTS),
                     ("HMC", "mac", OPEN_TENANTS)),
}
SUITE_WORKLOAD = "suite-tiny"
WORKLOADS = (*KERNEL_WORKLOADS, SUITE_WORKLOAD)


@dataclass(frozen=True)
class Job:
    config: SystemConfig
    workload: str
    params: Dict[str, object]

    @property
    def label(self) -> str:
        name = "open" if self.params.get("driver") == "open" else self.workload
        return f"{name}@{self.config.label}"


def kernel_jobs(workload: str) -> List[Job]:
    return [Job(make_system_config(kind, num_cores=NUM_THREADS), name, dict(params))
            for kind, name, params in KERNEL_WORKLOADS[workload]]


def make_tiny_suite(cache_dir: Path) -> EvaluationSuite:
    return EvaluationSuite("tiny", workers=1, cache_dir=cache_dir)


def prepare(workload: str, scratch: Path) -> object:
    """Everything a workload needs before its first timed job: the job list
    for a kernel workload, or the constructed suite (whose construction
    includes the code digest every cache key carries)."""
    if workload == SUITE_WORKLOAD:
        suite = make_tiny_suite(scratch)
        code_digest()
        return suite
    return kernel_jobs(workload)


# --------------------------------------------------------------- correctness
def fingerprint(result: RunResult) -> str:
    """Hash of a job's simulated outputs.  The event count is left out, so a
    change that removes events but not behaviour still matches."""
    payload = {"cycles": result.cycles, "instructions": result.instructions,
               "summary": result.summary(), "network": result.network_stats,
               "requests": result.request_stats}
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def result_problems(result: RunResult) -> List[str]:
    checked, mismatched = result.flow_checks
    problems = []
    if mismatched:
        problems.append(f"{mismatched} of {checked} flows mismatched")
    if result.mode == "active" and checked == 0:
        problems.append("Active-Routing job checked zero flows")
    return problems


def load_reference(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """Reference fingerprints for this run, or ``None`` when the run must
    instead agree with itself.  The suite runs its own fixed seed, so its
    reference applies whatever ``seed`` is."""
    if seed != DEFAULT_SEED and workload != SUITE_WORKLOAD:
        return None
    with open(REFERENCE_FILE) as handle:
        return json.load(handle)["workloads"].get(workload, {})


@dataclass
class Ledger:
    """Counts attempted and failed jobs across every pass of a run."""

    reference: Optional[Dict[str, str]] = None
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Last fingerprint seen per job label.
    fingerprints: Dict[str, str] = field(default_factory=dict)

    def fail(self, label: str, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{label}: {why}")

    def flag(self, count: int, why: str) -> None:
        """Mark ``count`` already-attempted jobs as failed."""
        self.failed = min(self.attempted, self.failed + count)
        self.problems.append(why)

    def check(self, label: str, result: RunResult) -> None:
        problems = result_problems(result)
        fp = fingerprint(result)
        if self.reference is not None:
            expected = self.reference.get(label)
        else:
            expected = self.fingerprints.get(label, fp)
        self.fingerprints[label] = fp
        if expected is None:
            problems.append("no reference fingerprint")
        elif fp != expected:
            problems.append(f"fingerprint {fp} differs from {expected}")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")

    def check_all(self, results: Dict[str, RunResult]) -> None:
        for label, result in results.items():
            self.check(label, result)
        if self.reference is not None:
            for label in sorted(set(self.reference) - set(results)):
                self.fail(label, "missing from the pass's results")


def _error(exc: BaseException) -> str:
    return traceback.format_exception_only(type(exc), exc)[-1].strip()


# ------------------------------------------------------------ kernel passes
def cold_kernel_pass(jobs: Iterable[Job], seed: int,
                     ledger: Ledger) -> Tuple[float, Dict[str, RunResult]]:
    """Run every job from nothing; returns (seconds, results by label)."""
    results: Dict[str, RunResult] = {}
    errors: Dict[str, str] = {}
    start = time.perf_counter()
    for job in jobs:
        try:
            results[job.label] = runner.run_workload(
                job.config, job.workload, num_threads=NUM_THREADS,
                workload_config=WorkloadConfig(seed=seed), **job.params)
        except Exception as exc:  # a failed job is counted, not fatal
            errors[job.label] = _error(exc)
    elapsed = time.perf_counter() - start
    for label, why in errors.items():
        ledger.fail(label, why)
    for label, result in results.items():
        ledger.check(label, result)
    return elapsed, results


def _cache_key(job: Job, seed: int) -> Dict[str, object]:
    return RunCache.make_key(scale="perfbench", workload=job.label,
                             params={**job.params, "seed": seed},
                             config_label=job.config.label, profile="scaled",
                             num_threads=NUM_THREADS)


def fill_cache(cache: RunCache, jobs: Iterable[Job], seed: int,
               results: Dict[str, RunResult]) -> None:
    for job in jobs:
        if job.label in results:
            cache.put(_cache_key(job, seed), results[job.label])


def warm_kernel_pass(cache: RunCache, jobs: Iterable[Job], seed: int,
                     ledger: Ledger) -> float:
    """Fetch every job's result from the run cache; a miss would mean
    re-simulating, so it counts as a failed job."""
    start = time.perf_counter()
    found = {job.label: cache.get(_cache_key(job, seed)) for job in jobs}
    elapsed = time.perf_counter() - start
    for label, result in found.items():
        if result is None:
            ledger.fail(label, "warm pass missed the run cache and would re-simulate")
        else:
            ledger.check(label, result)
    return elapsed


# ------------------------------------------------------------- suite passes
def suite_pass(suite: EvaluationSuite, ledger: Ledger, *, warm: bool,
               figures: Optional[List[str]] = None
               ) -> Tuple[float, Dict[str, int], Dict[str, RunResult]]:
    """One ``prefetch()``: cold into an empty cache dir, or warm from a full
    one; returns (seconds, prefetch summary, results by label).  A cold pass
    that finds cached results, or a warm pass that simulates, fails that many
    jobs."""
    start = time.perf_counter()
    try:
        summary = suite.prefetch(figures)
    except Exception as exc:  # the pass is lost; every reference job fails
        elapsed = time.perf_counter() - start
        for label in sorted(ledger.reference) if ledger.reference else ["suite"]:
            ledger.fail(label, _error(exc))
        return elapsed, {"simulated": 0, "disk_hits": 0}, {}
    elapsed = time.perf_counter() - start
    # The suite's result matrix is the only view that also holds its
    # bespoke and sweep cells.
    results = {f"{workload}@{label}": result
               for (workload, label), result in suite._results.items()}
    ledger.check_all(results)
    wrong = summary["simulated"] if warm else summary["disk_hits"]
    if wrong:
        kind = "simulated" if warm else "found cached"
        ledger.flag(wrong, f"{'warm' if warm else 'cold'} suite pass {kind} {wrong} jobs")
    return elapsed, summary, results


# ------------------------------------------------------------ work counters
def work_counts(results: Iterable[RunResult]) -> Dict[str, float]:
    """Modelled work of one pass, summed over its jobs.  These repeat exactly
    for a given seed and explain what each workload makes the model do."""
    results = list(results)
    hops = sum(r.network_stats.get("hops", 0.0) for r in results)
    delay = sum(r.network_stats.get("queue_delay_cycles", 0.0) for r in results)
    l1 = sum(r.cache_stats.get("l1_accesses", 0.0) for r in results)
    l2 = sum(r.cache_stats.get("l2_accesses", 0.0) for r in results)
    l1_hits = sum(r.cache_stats.get("l1_hit_rate", 0.0) * r.cache_stats.get("l1_accesses", 0.0)
                  for r in results)
    l2_hits = sum(r.cache_stats.get("l2_hit_rate", 0.0) * r.cache_stats.get("l2_accesses", 0.0)
                  for r in results)
    return {
        "sim.events": float(sum(r.events_executed for r in results)),
        "network.hops": hops,
        "network.queue_delay_per_hop": delay / hops if hops else 0.0,
        "core.updates": sum(sum(r.per_cube.get("updates_received", {}).values())
                            for r in results),
        "core.operand_buffer_stalls": sum(
            sum(r.per_cube.get("operand_buffer_stalls", {}).values()) for r in results),
        "cpu.requests": l1,
        "cpu.l1_hit_rate": l1_hits / l1 if l1 else 0.0,
        "cpu.l2_hit_rate": l2_hits / l2 if l2 else 0.0,
    }


def simulated_stats(label: str, result: RunResult) -> str:
    """One report line of a job's simulated (not host) statistics."""
    p99 = result.request_stats.get("p99")
    tail = f"  request p99 {p99:.1f} cycles" if p99 is not None else ""
    return (f"  {label:<44} cycles {result.cycles:>12.1f}  IPC {result.ipc:.4f}  "
            f"energy {result.energy.total_j:.4e} J{tail}")


# --------------------------------------------------------------- pass pairs
class KernelRun:
    """Cold and warm passes of one kernel workload.  The first cold pass's
    results fill the run cache that every warm pass reads."""

    def __init__(self, jobs: List[Job], seed: int, ledger: Ledger, scratch: Path) -> None:
        self.jobs = jobs
        self.seed = seed
        self.ledger = ledger
        self.cache = RunCache(scratch / "kernel-cache")
        self.results: Dict[str, RunResult] = {}
        self.simulated = 0
        self.cache_hits = 0

    def cold(self) -> float:
        elapsed, results = cold_kernel_pass(self.jobs, self.seed, self.ledger)
        if not self.results:
            fill_cache(self.cache, self.jobs, self.seed, results)
            self.results = results
            self.simulated = len(results)
        return elapsed

    def warm(self) -> float:
        hits_before = self.cache.hits
        elapsed = warm_kernel_pass(self.cache, self.jobs, self.seed, self.ledger)
        self.cache_hits = self.cache.hits - hits_before
        return elapsed


class SuiteRun:
    """Cold and warm ``prefetch()`` passes of an evaluation suite.  Each cold
    pass gets an empty cache dir; warm passes read the first one's."""

    def __init__(self, ledger: Ledger, scratch: Path,
                 make_suite: Callable[[Path], EvaluationSuite] = make_tiny_suite,
                 figures: Optional[List[str]] = None) -> None:
        self.ledger = ledger
        self.scratch = scratch
        self.make_suite = make_suite
        self.figures = figures
        self.warm_dir: Optional[Path] = None
        self.results: Dict[str, RunResult] = {}
        self.simulated = 0
        self.cache_hits = 0
        self._passes = 0

    def cold(self) -> float:
        self._passes += 1
        cache_dir = self.scratch / f"suite-cache{self._passes}"
        suite = self.make_suite(cache_dir)
        elapsed, summary, results = suite_pass(suite, self.ledger, warm=False,
                                               figures=self.figures)
        if self.warm_dir is None:
            self.warm_dir = cache_dir
            self.results = results
            self.simulated = summary["simulated"]
        else:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return elapsed

    def warm(self) -> float:
        suite = self.make_suite(self.warm_dir)
        elapsed, summary, _ = suite_pass(suite, self.ledger, warm=True,
                                         figures=self.figures)
        self.cache_hits = summary["disk_hits"]
        return elapsed
