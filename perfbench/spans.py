"""Spans around the simulator's public calls, and a profiler inside simulate.

:class:`Tracer` records a span (name, start, end, parent, job) around each
call the run path makes, by wrapping those calls from the outside while it is
installed; the ``repro`` source is not touched.  With ``profile=True`` it also
runs ``cProfile`` inside the simulate spans only, so module self time, Python
call counts and packet-constructor counts describe the event loop and nothing
else.  Everything stays in memory; the caller writes it out at the end.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import repro
from repro.cpu.cmp import ChipMultiprocessor
from repro.experiments import EvaluationSuite, RunCache
from repro.sim.simulator import Simulator
from repro.system import runner
from repro.workloads.base import Workload
from repro.workloads.drivers import TrafficDriver

REPRO_DIR = Path(repro.__file__).resolve().parent

#: Per-layer span metric -> the span names whose outermost occurrences it sums.
LAYER_SPANS: Dict[str, Tuple[str, ...]] = {
    "workloads.generate_s": ("driver_build", "generate"),
    "system.build_s": ("build_system", "load_program"),
    "sim.simulate_s": ("cmp_start", "run_until_idle"),
    "system.collect_s": ("collect_results",),
    "experiments.cache_get_s": ("cache_get",),
    "experiments.cache_put_s": ("cache_put",),
}
SIMULATE_SPANS = LAYER_SPANS["sim.simulate_s"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: Index of the enclosing span, or -1.
    parent: int
    #: Index of the enclosing ``run_workload`` span: spans of one job share it.
    job: int


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _patch_points() -> List[Tuple[object, str, str]]:
    """(owner, attribute, span name) for every call the tracer wraps."""
    points: List[Tuple[object, str, str]] = [
        (runner, "run_workload", "run_workload"),
        (runner, "build_system", "build_system"),
        (runner, "collect_results", "collect_results"),
        (ChipMultiprocessor, "load_program", "load_program"),
        (ChipMultiprocessor, "start", "cmp_start"),
        (Simulator, "run_until_idle", "run_until_idle"),
        (RunCache, "get", "cache_get"),
        (RunCache, "put", "cache_put"),
        (EvaluationSuite, "prefetch", "prefetch"),
    ]
    points += [(cls, "generate", "generate") for cls in _subclasses(Workload)
               if "generate" in vars(cls)]
    points += [(cls, "build", "driver_build") for cls in _subclasses(TrafficDriver)
               if "build" in vars(cls)]
    return points


class Tracer:
    def __init__(self, profile: bool = False) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self.profiler: Optional[cProfile.Profile] = cProfile.Profile() if profile else None
        self._profiling = False

    def _wrap(self, fn, name: str):
        profiled = self.profiler is not None and name in SIMULATE_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            job = index if name == "run_workload" else (
                self.spans[parent].job if parent >= 0 else -1)
            span = Span(name, time.perf_counter(), 0.0, parent, job)
            self.spans.append(span)
            self._open.append(index)
            profiling = profiled and not self._profiling
            if profiling:
                self._profiling = True
                self.profiler.enable()
            try:
                return fn(*args, **kwargs)
            finally:
                if profiling:
                    self.profiler.disable()
                    self._profiling = False
                span.end = time.perf_counter()
                self._open.pop()

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every patch point for the duration of the block."""
        saved = []
        try:
            for owner, attribute, name in _patch_points():
                original = vars(owner)[attribute]
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(original, name))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    # -------------------------------------------------------------- analysis
    def _outermost_total(self, names: Tuple[str, ...]) -> float:
        """Summed duration of spans named ``names`` with no ancestor of those
        names (so a ``generate`` that calls its base class counts once)."""
        total = 0.0
        for span in self.spans:
            if span.name not in names:
                continue
            parent = span.parent
            while parent >= 0 and self.spans[parent].name not in names:
                parent = self.spans[parent].parent
            if parent < 0:
                total += span.end - span.start
        return total

    def self_time(self, name: str) -> float:
        """Duration of the ``name`` spans minus the time their children cover."""
        total = 0.0
        for span in self.spans:
            if span.name == name:
                total += span.end - span.start
            elif span.parent >= 0 and self.spans[span.parent].name == name:
                total -= span.end - span.start
        return total

    def layer_times(self) -> Dict[str, float]:
        times = {metric: self._outermost_total(names)
                 for metric, names in LAYER_SPANS.items()}
        times["experiments.plan_s"] = self.self_time("prefetch")
        return times

    def profile_summary(self) -> Tuple[Dict[str, float], int, int]:
        """(self seconds by module, Python calls, packet-constructor calls)
        inside the simulate spans.  Modules outside ``repro`` (builtins and
        the standard library) are grouped as ``stdlib``."""
        self_s: Dict[str, float] = {}
        calls = 0
        packet_inits = 0
        if self.profiler is None:
            return self_s, calls, packet_inits
        for (filename, _line, func), (_cc, ncalls, tottime, _ct, _callers) in \
                pstats.Stats(self.profiler).stats.items():
            module = module_of(filename)
            self_s[module] = self_s.get(module, 0.0) + tottime
            calls += ncalls
            if module == "network.packet" and func in ("__init__", "reset"):
                packet_inits += ncalls
        return self_s, calls, packet_inits

    def span_records(self) -> List[Dict[str, object]]:
        return [asdict(span) for span in self.spans]


def module_of(filename: str) -> str:
    """``core.engine`` for ``.../repro/core/engine.py``; ``stdlib`` otherwise."""
    path = Path(filename)
    try:
        relative = path.resolve().relative_to(REPRO_DIR)
    except (ValueError, OSError):
        return "stdlib"
    return ".".join(relative.with_suffix("").parts)
