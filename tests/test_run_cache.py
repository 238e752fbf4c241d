"""Persistent run cache + suite prefetch orchestration tests (tiny scale)."""

import os

import pytest

from repro.experiments import (
    FIGURE_REGISTRY,
    EvaluationSuite,
    RunCache,
    code_digest,
    estimated_cost,
    full_report,
)
from repro.experiments.run_cache import default_cache_dir
from repro.system import AR_CONFIGS, CONFIG_ORDER, SystemKind, normalize_workers


def _key(digest=None, workload="mac"):
    key = RunCache.make_key(scale="tiny", workload=workload,
                            params={"array_elements": 64}, config_label="HMC",
                            profile="scaled", num_threads=2)
    if digest is not None:
        key["digest"] = digest
    return key


# -- RunCache unit behavior ------------------------------------------------------

def test_cache_roundtrip_and_key_isolation(tmp_path):
    cache = RunCache(tmp_path)
    key = _key()
    assert cache.get(key) is None           # cold
    cache.put(key, {"cycles": 123.0})       # any picklable payload
    assert cache.get(key) == {"cycles": 123.0}
    assert cache.get(_key(workload="lud")) is None
    assert len(cache) == 1


def test_cache_code_digest_invalidates(tmp_path):
    cache = RunCache(tmp_path)
    cache.put(_key(), "result")
    stale = _key(digest="0" * 64)
    assert stale["digest"] != code_digest()
    assert cache.get(stale) is None


def test_cache_tolerates_corrupt_entries(tmp_path):
    cache = RunCache(tmp_path)
    key = _key()
    path = cache.put(key, "result")
    for garbage in (b"not a pickle",
                    b"\x80\x07unsupported-protocol",      # raises ValueError
                    b"\x80\x04\x95\xff\xff\xff\xff\xff\xff\xff\xff"):
        path.write_bytes(garbage)
        assert cache.get(key) is None
    cache.put(key, "result")                # overwrite repairs the entry
    assert cache.get(key) == "result"


def test_put_failure_leaves_no_tmp_litter(tmp_path):
    cache = RunCache(tmp_path)

    class Unpicklable:
        def __reduce__(self):
            raise RuntimeError("cannot pickle me")

    with pytest.raises(RuntimeError):
        cache.put(_key(), Unpicklable())
    assert list(tmp_path.glob("*.tmp*")) == []
    assert len(cache) == 0
    cache.put(_key(), "result")              # the cache still works afterwards
    assert cache.get(_key()) == "result"


def test_prune_drops_orphaned_tmp_and_stale_entries(tmp_path):
    cache = RunCache(tmp_path)
    cache.put(_key(), "fresh")
    # A stale entry from an old code digest, an unreadable entry, and tmp
    # litter from a writer that is long gone (pid 2**22-1 is above the default
    # Linux pid_max) plus one with no pid at all.
    stale_key = _key(digest="0" * 64, workload="lud")
    path = cache.path_for(stale_key)
    import pickle
    path.write_bytes(pickle.dumps({"key": stale_key, "result": "old"}))
    (tmp_path / "corrupt.pkl").write_bytes(b"not a pickle")
    (tmp_path / f"dead.pkl.tmp{2**22 - 1}").write_bytes(b"partial")
    (tmp_path / "orphan.pkl.tmp").write_bytes(b"partial")
    live = tmp_path / f"live.pkl.tmp{os.getpid()}"
    live.write_bytes(b"in flight")

    summary = cache.prune()
    assert summary == {"tmp_removed": 2, "stale_removed": 2, "kept": 1}
    assert cache.get(_key()) == "fresh"      # the current-digest entry survives
    assert live.exists()                     # a live writer's tmp file is left alone
    assert sorted(p.name for p in tmp_path.glob("*.tmp*")) == [live.name]
    assert cache.prune() == {"tmp_removed": 0, "stale_removed": 0, "kept": 1}


def test_prune_on_missing_directory_is_a_noop(tmp_path):
    cache = RunCache(tmp_path / "never-created")
    assert cache.prune() == {"tmp_removed": 0, "stale_removed": 0, "kept": 0}


def test_default_cache_dir_honors_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
    assert default_cache_dir() == tmp_path / "custom"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "repro"


# -- workers validation ----------------------------------------------------------

def test_normalize_workers_guards():
    assert normalize_workers(None) == 1
    assert normalize_workers(1) == 1
    assert normalize_workers(-5) == 1
    assert normalize_workers(0) == (os.cpu_count() or 1)
    assert normalize_workers(7) == 7


def test_suite_normalizes_workers():
    assert EvaluationSuite("tiny", workers=-3).workers == 1
    assert EvaluationSuite("tiny", workers=0).workers == (os.cpu_count() or 1)


# -- figure registry / prefetch planning -----------------------------------------

def test_registry_covers_every_figure():
    assert set(FIGURE_REGISTRY) == {"speedup", "latency", "lud_heatmap",
                                    "data_movement", "power", "energy", "edp",
                                    "dynamic_offload", "topology", "degraded",
                                    "saturation"}


def test_required_pairs_per_figure():
    suite = EvaluationSuite("tiny", workloads=["mac", "pagerank"])
    full = {(w, k) for w in ("mac", "pagerank") for k in CONFIG_ORDER}
    assert suite.required_pairs(["speedup"]) == full
    assert suite.required_pairs(["latency"]) == {
        (w, k) for w in ("mac", "pagerank") for k in AR_CONFIGS}
    assert suite.required_pairs(["lud_heatmap"]) == {
        ("lud", SystemKind.ARF_TID), ("lud", SystemKind.ARF_ADDR)}
    movement = suite.required_pairs(["data_movement"])
    assert ("mac", SystemKind.HMC) in movement
    assert ("mac", SystemKind.DRAM) not in movement
    assert suite.required_pairs(["dynamic_offload"]) == set()
    # The union is a plain set union, and unknown figures are rejected.
    union = suite.required_pairs(["speedup", "lud_heatmap"])
    assert union == full | suite.required_pairs(["lud_heatmap"])
    with pytest.raises(ValueError):
        suite.required_pairs(["figure-9000"])


def test_pending_jobs_are_cost_ordered():
    suite = EvaluationSuite("tiny")
    jobs = suite.pending_jobs(suite.required_pairs(["speedup"]))
    assert len(jobs) == len(suite.workloads) * len(CONFIG_ORDER)
    costs = [estimated_cost(workload, params, config.kind)
             for _key, config, workload, params in jobs]
    assert costs == sorted(costs, reverse=True)
    # Stragglers first: the batch starts on an Active-Routing scheme and ends
    # on a cheap baseline.
    assert jobs[0][1].kind in AR_CONFIGS
    assert jobs[-1][1].kind in (SystemKind.DRAM, SystemKind.HMC)


# -- cached runs vs fresh runs ---------------------------------------------------

def test_disk_cache_hit_equals_fresh_run(tmp_path):
    fresh = EvaluationSuite("tiny", workloads=["mac"])
    warm_writer = EvaluationSuite("tiny", workloads=["mac"], cache_dir=tmp_path)
    reader = EvaluationSuite("tiny", workloads=["mac"], cache_dir=tmp_path)

    baseline = fresh.result("mac", "HMC")
    written = warm_writer.result("mac", "HMC")
    loaded = reader.result("mac", "HMC")

    assert warm_writer.simulations_run == 1
    assert reader.simulations_run == 0 and reader.disk_hits == 1
    for result in (written, loaded):
        assert result.summary() == baseline.summary()
        assert result.cycles == baseline.cycles
        assert result.events_executed == baseline.events_executed


def test_second_report_is_zero_simulation_and_byte_identical(tmp_path):
    kwargs = dict(scale="tiny", workloads=["mac", "lud"], workers=2,
                  cache_dir=tmp_path)
    cold_suite = EvaluationSuite(**kwargs)
    cold = full_report(cold_suite)
    assert cold_suite.simulations_run > 0

    warm_suite = EvaluationSuite(**kwargs)
    warm = full_report(warm_suite)
    assert warm_suite.simulations_run == 0           # zero simulations
    assert warm_suite.disk_hits == cold_suite.simulations_run
    assert warm == cold                              # byte-identical report


def test_prefetch_runs_bespoke_jobs_in_the_parallel_batch(tmp_path):
    from repro.experiments import fig_dynamic_offload

    suite = EvaluationSuite("tiny", workers=2, cache_dir=tmp_path)
    stats = suite.prefetch(figures=["dynamic_offload"])
    assert stats == {"pairs": 3, "reused": 0, "disk_hits": 0, "simulated": 3}

    # The figure is then served entirely from the prefetched batch...
    before = suite.simulations_run
    data = fig_dynamic_offload.compute(suite)
    assert suite.simulations_run == before
    assert set(data["runs"]) == {"HMC", "ARF-tid", "ARF-tid-adaptive"}

    # ...and the pooled runs are identical to the lazy in-process path.
    lazy = fig_dynamic_offload.compute(EvaluationSuite("tiny"))
    assert lazy["runs"] == data["runs"]
    assert lazy["speedups"] == data["speedups"]


def test_prefetch_dedupes_repeated_figures():
    suite = EvaluationSuite("tiny")
    stats = suite.prefetch(figures=["dynamic_offload", "dynamic_offload"])
    assert stats == {"pairs": 3, "reused": 0, "disk_hits": 0, "simulated": 3}


def test_prefetch_stats_and_run_all_reuse(tmp_path):
    kinds = [SystemKind.DRAM, SystemKind.HMC]
    suite = EvaluationSuite("tiny", workloads=["mac"], kinds=kinds,
                            cache_dir=tmp_path)
    stats = suite.prefetch(figures=["speedup"])
    assert stats == {"pairs": 2, "reused": 0, "disk_hits": 0, "simulated": 2}
    # The cache dir holds the two result entries and nothing else.
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".pkl", ".pkl"]

    again = suite.prefetch(figures=["speedup"])
    assert again["simulated"] == 0 and again["reused"] == again["pairs"]

    # run_all reuses every in-memory pair it needs; a second suite pulls the
    # same pairs from disk without simulating.
    suite.run_all()
    assert suite.simulations_run == 2
    other = EvaluationSuite("tiny", workloads=["mac"], kinds=kinds,
                            cache_dir=tmp_path)
    other.run_all()
    assert other.simulations_run == 0 and other.disk_hits == 2


# -- network fingerprints in cache keys -------------------------------------------

def test_make_key_layout_unchanged_for_default_network():
    """Default-network keys must stay bit-identical to the PR 3 layout, so a
    populated cache survives the topology dimension unchanged."""
    key = _key()
    assert key == {
        "digest": code_digest(),
        "scale": "tiny",
        "workload": "mac",
        "params": {"array_elements": 64},
        "config": "HMC",
        "profile": "scaled",
        "num_threads": 2,
    }


def test_network_variants_occupy_distinct_cache_entries(tmp_path):
    """Regression for the cache-collision bug: two network variants of the
    same (workload, kind, scale) must never share a RunCache entry, while the
    default network keeps its historical key."""
    from repro.hmc import HMCNetworkConfig

    default = EvaluationSuite("tiny", workloads=["mac"], cache_dir=tmp_path)
    mesh = EvaluationSuite("tiny", workloads=["mac"], cache_dir=tmp_path,
                           net=HMCNetworkConfig(topology="mesh"))
    torus = EvaluationSuite("tiny", workloads=["mac"], cache_dir=tmp_path,
                            net=HMCNetworkConfig(topology="torus"))
    params = default.scale.params_for("mac")

    labels = [s.config_for(SystemKind.HMC).label for s in (default, mesh, torus)]
    assert labels == ["HMC", "HMC@mesh16c4", "HMC@torus16c4"]
    paths = {s.cache.path_for(s._cache_key("mac", label, params))
             for s, label in zip((default, mesh, torus), labels)}
    assert len(paths) == 3

    # End to end: each variant simulates once, then hits only its own entry.
    default.result("mac", SystemKind.HMC)
    mesh.result("mac", SystemKind.HMC)
    torus.result("mac", SystemKind.HMC)
    assert (default.simulations_run, mesh.simulations_run,
            torus.simulations_run) == (1, 1, 1)
    warm = EvaluationSuite("tiny", workloads=["mac"], cache_dir=tmp_path,
                           net=HMCNetworkConfig(topology="mesh"))
    assert warm.result("mac", SystemKind.HMC).cycles == \
        mesh.result("mac", SystemKind.HMC).cycles
    assert warm.simulations_run == 0 and warm.disk_hits == 1

    # The DRAM baseline is network-independent and shared across variants.
    default.result("mac", SystemKind.DRAM)
    assert mesh.result("mac", SystemKind.DRAM).cycles == \
        default.result("mac", SystemKind.DRAM).cycles
    assert mesh.simulations_run == 1      # loaded from disk, not re-simulated
    assert mesh.disk_hits == 1


def test_prefetch_reuses_in_memory_extra_jobs():
    """An extra (network-variant) cell already in the in-memory matrix must be
    counted as reused, not re-simulated (cache disabled) or re-read from disk."""
    from repro.experiments import fig_topology

    suite = EvaluationSuite("tiny", workloads=["mac"])        # no cache
    fig_topology.compute(suite)                               # lazy path first
    before = suite.simulations_run
    stats = suite.prefetch(figures=["topology"])
    assert suite.simulations_run == before
    assert stats["simulated"] == 0
    assert stats["reused"] == stats["pairs"]


def test_suite_rejects_impossible_network_at_construction(tmp_path):
    from repro.hmc import HMCNetworkConfig

    with pytest.raises(ValueError, match="exactly 18 cubes"):
        EvaluationSuite("tiny", net=HMCNetworkConfig(num_cubes=18))


def test_saturation_figure_prefetches_then_renders_warm(tmp_path):
    """The saturation sweep's open-stream cells behave like every other
    bespoke run: one cold prefetch batch, then a warm suite renders the
    figure byte-identically with zero simulations."""
    from repro.experiments import fig_saturation

    rates = [10.0, 160.0]
    topologies = ["dragonfly"]
    cold = EvaluationSuite("tiny", workers=2, cache_dir=tmp_path)
    jobs = fig_saturation.bespoke_jobs(cold, topologies=topologies,
                                       rates=rates)
    assert len(jobs) == 2 * len(rates)             # 2 schemes x 2 rates
    text = fig_saturation.render(fig_saturation.compute(
        cold, topologies=topologies, rates=rates))
    assert cold.simulations_run == len(jobs)
    assert "p999" in text and "knee" in text

    warm = EvaluationSuite("tiny", cache_dir=tmp_path)
    warm_text = fig_saturation.render(fig_saturation.compute(
        warm, topologies=topologies, rates=rates))
    assert warm.simulations_run == 0               # zero simulations
    assert warm.disk_hits == len(jobs)
    assert warm_text == text                       # byte-identical figure


def test_suite_traffic_spec_routes_open_params_into_cells(tmp_path):
    """A suite built with an open TrafficSpec runs open streams for its
    matrix cells — and keys them apart from the closed cells on disk."""
    from repro.workloads import TrafficSpec

    spec = TrafficSpec(driver="open", arrival_rate=30.0,
                       stream_requests=32, stream_keys=128)
    suite = EvaluationSuite("tiny", workloads=["mac"], cache_dir=tmp_path,
                            traffic=spec)
    assert suite._params_for("mac") == spec.params()
    result = suite.result("mac", "HMC")
    assert result.workload == "open:mac"
    assert result.request_stats["count"] == 4 * 32

    closed = EvaluationSuite("tiny", workloads=["mac"], cache_dir=tmp_path)
    assert closed._params_for("mac") == closed.scale.params_for("mac")
    # The open run must not alias the closed cell's cache entry.
    closed_result = closed.result("mac", "HMC")
    assert closed.simulations_run == 1
    assert closed_result.workload == "mac"
