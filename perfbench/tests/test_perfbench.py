"""Tests of the benchmark itself: its failure accounting, tracer and metric names.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import re
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from repro.experiments import EvaluationSuite  # noqa: E402
from repro.system import SystemKind, make_system_config, runner  # noqa: E402
from repro.workloads.base import Workload  # noqa: E402

SMALL_AR_JOB = harness.Job(make_system_config("ART", num_cores=4), "reduce",
                           {"array_elements": 256})
SMALL_BASELINE_JOB = harness.Job(make_system_config("DRAM", num_cores=4), "reduce",
                                 {"array_elements": 256})


def small_suite(cache_dir):
    return EvaluationSuite("tiny", workloads=["reduce"],
                           kinds=[SystemKind.DRAM, SystemKind.ART],
                           workers=1, cache_dir=cache_dir)


def test_clean_passes_fail_nothing(tmp_path):
    ledger = harness.Ledger()
    kernel = harness.KernelRun([SMALL_AR_JOB, SMALL_BASELINE_JOB], 3, ledger, tmp_path)
    kernel.cold()
    kernel.cold()
    kernel.warm()
    assert (ledger.attempted, ledger.failed) == (6, 0), ledger.problems
    assert kernel.cache_hits == 2


def test_forced_flow_mismatch_is_a_failure(monkeypatch):
    generate = Workload.generate

    def wrong_expectations(self, mode="baseline"):
        program = generate(self, mode)
        program.expected_results = {target: value + 1.0
                                    for target, value in program.expected_results.items()}
        return program

    monkeypatch.setattr(Workload, "generate", wrong_expectations)
    ledger = harness.Ledger()
    harness.cold_kernel_pass([SMALL_AR_JOB], 3, ledger)
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert "flows mismatched" in ledger.problems[0]


def test_fingerprint_mismatch_is_a_failure():
    ledger = harness.Ledger()
    _, results = harness.cold_kernel_pass([SMALL_AR_JOB], 3, ledger)
    assert ledger.failed == 0
    wrong = harness.Ledger(reference={SMALL_AR_JOB.label: "0" * 20})
    wrong.check_all(results)
    assert (wrong.attempted, wrong.failed) == (1, 1)
    # A run with another seed has no reference: its passes must agree instead.
    changed = dataclasses.replace(results[SMALL_AR_JOB.label], cycles=1.0)
    ledger.check(SMALL_AR_JOB.label, changed)
    assert ledger.failed == 1


def test_fingerprint_ignores_the_event_count():
    _, results = harness.cold_kernel_pass([SMALL_AR_JOB], 3, harness.Ledger())
    result = results[SMALL_AR_JOB.label]
    fewer_events = dataclasses.replace(result, events_executed=1)
    assert harness.fingerprint(fewer_events) == harness.fingerprint(result)


def test_zero_checked_flows_fail_an_active_routing_job():
    _, results = harness.cold_kernel_pass([SMALL_AR_JOB], 3, harness.Ledger())
    unchecked = dataclasses.replace(results[SMALL_AR_JOB.label], flow_checks=(0, 0))
    assert harness.result_problems(unchecked) == ["Active-Routing job checked zero flows"]


def test_warm_suite_pass_that_resimulates_is_a_failure(tmp_path):
    ledger = harness.Ledger()
    suite = harness.SuiteRun(ledger, tmp_path, make_suite=small_suite, figures=["speedup"])
    suite.cold()
    suite.warm()
    assert (ledger.attempted, ledger.failed) == (4, 0), ledger.problems
    assert (suite.simulated, suite.cache_hits) == (2, 2)
    next(suite.warm_dir.glob("*.pkl")).unlink()
    suite.warm()
    assert (ledger.attempted, ledger.failed) == (6, 1)
    assert "warm suite pass simulated 1 jobs" in ledger.problems


def test_warm_kernel_pass_that_misses_the_cache_is_a_failure(tmp_path):
    ledger = harness.Ledger()
    kernel = harness.KernelRun([SMALL_BASELINE_JOB], 3, ledger, tmp_path)
    kernel.cold()
    for entry in kernel.cache.root.glob("*.pkl"):
        entry.unlink()
    kernel.warm()
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_tracer_spans_profile_and_restore(tmp_path):
    original = runner.run_workload
    tracer = spans.Tracer(profile=True)
    with tracer.installed():
        harness.cold_kernel_pass([SMALL_AR_JOB], 3, harness.Ledger())
    assert runner.run_workload is original
    times = tracer.layer_times()
    assert times["sim.simulate_s"] > 0 and times["workloads.generate_s"] > 0
    assert times["experiments.plan_s"] == 0
    jobs = {span.job for span in tracer.spans}
    assert jobs == {0}, "every span of the one job shares its identifier"
    self_s, calls, packet_inits = tracer.profile_summary()
    assert self_s["core.engine"] > 0 and calls > 0 and packet_inits > 0


def test_metric_names_and_units_match_benchmark_json():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    for name in [*run.END_TO_END, *run.PER_LAYER]:
        assert pattern.fullmatch(name), name
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(harness.WORKLOADS)
