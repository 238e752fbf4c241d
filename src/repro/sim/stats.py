"""Statistics primitives shared by every simulated component.

The registry is intentionally simple: counters (monotonic sums), scalar gauges,
and histograms with summary statistics.  Components register their stats under a
dotted name (``"network.link.cube3->cube7.bytes"``) so the experiment harness can
aggregate by prefix.

Every counter has exactly one store, a :class:`CounterHandle` cell.  Hot code
resolves its cells once at construction (gem5-style) and writes each count into
its cell at the moment it happens; :meth:`StatsRegistry.add` writes the same
cell by name.  The only values computed at read time are true folds — a
:class:`FoldedCounter` (a sum over other cells in a fixed order) and a
:class:`FoldedHistogram` (per-writer parts merged in a fixed order) — and each
is computed when that name itself is read.  Reading therefore never runs
another component's code and never changes a value: a run that reads its
statistics mid-flight ends with the same statistics as one that does not.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

#: Default retained-sample cap for histograms (see :class:`Histogram`).
DEFAULT_HISTOGRAM_SAMPLES = 65_536

#: Fixed seed for the histogram sampling reservoirs: every run draws the same
#: pseudo-random replacement sequence, keeping simulations reproducible.
DEFAULT_RESERVOIR_SEED = 0x5EED

class CounterHandle:
    """The one mutable store of a counter, bound to one registry name.

    Hot code increments ``handle.value`` directly; the owning registry reads
    the cell back whenever the counter is queried by name.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0.0) -> None:
        self.name = name
        self.value = value

    def add(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CounterHandle {self.name}={self.value}>"


class FoldedCounter:
    """A read-only counter: the sum of other counter cells times ``scale``.

    The sum is an explicit left-to-right loop over ``cells`` in list order
    (not ``sum()``, which compensates float sums on newer Pythons), computed
    each time the counter is read and never stored.
    """

    __slots__ = ("name", "cells", "scale")

    def __init__(self, name: str, cells: List[CounterHandle],
                 scale: float = 1.0) -> None:
        self.name = name
        self.cells = cells
        self.scale = scale

    @property
    def value(self) -> float:
        total = 0.0
        for cell in self.cells:
            total += cell.value
        return total * self.scale


@dataclass
class Histogram:
    """Streaming summary of a sample population (mean, min, max, percentiles).

    ``count``/``total``/``min``/``max`` (and therefore ``mean``) are always
    exact.  Retained samples are capped at ``max_samples`` so long simulations
    cannot grow memory without bound; once the cap is hit ``truncated`` is set
    and :meth:`percentile` becomes approximate.  Beyond the cap the retained
    set is maintained as a seeded reservoir (Algorithm R), so it stays a
    uniform sample of *every* observation instead of an early-simulation
    prefix, and the same observation sequence always keeps the same samples.
    """

    samples: List[float] = field(default_factory=list)
    keep_samples: bool = True
    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    max_samples: Optional[int] = DEFAULT_HISTOGRAM_SAMPLES
    truncated: bool = False
    seed: int = DEFAULT_RESERVOIR_SEED
    #: Observations offered to the reservoir (>= len(samples); merge() replays
    #: the other side's retained samples, so this can be < count).
    _seen: int = field(default=0, repr=False, compare=False)
    _rng: Optional[random.Random] = field(default=None, repr=False, compare=False)

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if self.keep_samples:
            # Inlined _offer_sample() below the cap: one sample per miss,
            # response and request makes this the common case.  ``_seen``
            # bounds ``len(samples)`` from above, so a count below the cap
            # means room without a len() call; _offer_sample() rechecks.
            if self.max_samples is None or self._seen < self.max_samples:
                self._seen += 1
                self.samples.append(value)
            else:
                self._offer_sample(value)

    def _offer_sample(self, value: float) -> None:
        """Retain ``value`` outright below the cap, else reservoir-replace."""
        self._seen += 1
        if self.max_samples is None or len(self.samples) < self.max_samples:
            self.samples.append(value)
            return
        self.truncated = True
        if self._rng is None:
            self._rng = random.Random(self.seed)
        slot = self._rng.randrange(self._seen)
        if slot < self.max_samples:
            self.samples[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Return the ``fraction`` quantile (0..1) of the retained samples.

        Quantiles interpolate linearly between the two closest ranks (the
        same convention as ``statistics.quantiles(..., method='inclusive')``
        and numpy's default), so even- and odd-sized populations behave
        consistently.  Exact while every observation is retained; once
        ``truncated`` is set the result is an estimate over the reservoir.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("percentile fraction must be within [0, 1]")
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        position = fraction * (len(ordered) - 1)
        lower = math.floor(position)
        upper = math.ceil(position)
        if lower == upper:
            return ordered[lower]
        weight = position - lower
        return ordered[lower] * (1.0 - weight) + ordered[upper] * weight

    def merge(self, other: "Histogram") -> None:
        population_self, population_other = self.count, other.count
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self.truncated = self.truncated or other.truncated
        if not (self.keep_samples and other.keep_samples):
            return
        if (self.max_samples is None
                or (not self.truncated
                    and len(self.samples) + len(other.samples) <= self.max_samples)):
            # Both sides retain their full populations and the union fits:
            # concatenating stays exact.
            self.samples.extend(other.samples)
            self._seen += len(other.samples)
            return
        # Truncating merge: stratified draw where each side contributes in
        # proportion to the population its retained set represents, so the
        # result approximates a uniform sample of the union rather than
        # re-weighting the other side as if it were len(other.samples)
        # observations.
        if self._rng is None:
            self._rng = random.Random(self.seed)
        capacity = self.max_samples
        population = population_self + population_other
        take_other = min(len(other.samples),
                         round(capacity * population_other / population) if population else 0)
        take_self = min(len(self.samples), capacity - take_other)
        take_other = min(len(other.samples), capacity - take_self)
        self.samples[:] = (self._subsample(self.samples, take_self)
                           + self._subsample(other.samples, take_other))
        self.truncated = True
        # Future add()s continue Algorithm R over the whole merged population.
        self._seen = population

    def _subsample(self, pool: List[float], size: int) -> List[float]:
        """A seeded uniform without-replacement draw of ``size`` from ``pool``."""
        if size >= len(pool):
            return list(pool)
        return self._rng.sample(pool, size)

    def reset(self) -> None:
        """Return to the freshly-constructed state (configuration fields stay)."""
        self.samples.clear()
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.truncated = False
        self._seen = 0
        self._rng = None

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "total": self.total,
            "mean": self.mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
        }


class FoldedHistogram(Histogram):
    """A histogram re-derived from per-writer part histograms.

    Multiple hot writers (one Active-Routing engine per cube) each own a
    private :class:`Histogram`, and the registry-visible aggregate is folded
    from those parts in attach order whenever a registry reader resolves it.
    Folding in a fixed part order makes the aggregate's float fields
    (``total`` above all) independent of how the writers' observations
    interleaved in time, and a refold of unchanged parts yields the same
    fields, so reading it never changes it.

    The folded object must never be fed through :meth:`Histogram.add`; it is
    rebuilt wholesale from its parts.
    """

    def __init__(self) -> None:
        super().__init__()
        self.parts: List[Histogram] = []

    def attach(self, part: Histogram) -> None:
        """Register one writer's private histogram.  Attach order is the fold
        order and must be deterministic (components attach at construction)."""
        self.parts.append(part)

    def refresh(self) -> None:
        """Re-derive the aggregate fields from the parts, in attach order."""
        count = 0
        total = 0.0
        minimum = math.inf
        maximum = -math.inf
        truncated = False
        samples: List[float] = []
        for part in self.parts:
            count += part.count
            total += part.total
            if part.minimum < minimum:
                minimum = part.minimum
            if part.maximum > maximum:
                maximum = part.maximum
            truncated = truncated or part.truncated
            samples.extend(part.samples)
        self.count = count
        self.total = total
        self.minimum = minimum
        self.maximum = maximum
        self.truncated = truncated
        self.samples[:] = samples

    def reset(self) -> None:
        for part in self.parts:
            part.reset()
        super().reset()


def _fresh(hist: Histogram) -> Histogram:
    """``hist`` as a reader must see it: folded histograms refold first."""
    if type(hist) is FoldedHistogram:
        hist.refresh()
    return hist


class StatsRegistry:
    """A flat namespace of counters, gauges and histograms."""

    def __init__(self) -> None:
        #: One entry per counter name, in registration order: a writable
        #: :class:`CounterHandle` or a read-only :class:`FoldedCounter`.
        self._handles: Dict[str, CounterHandle | FoldedCounter] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- counters -----------------------------------------------------------
    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.counter_handle(name).value += amount

    def counter_handle(self, name: str) -> CounterHandle:
        """Return the counter cell for ``name``, creating it on first use."""
        handle = self._handles.get(name)
        if handle is None:
            handle = CounterHandle(name)
            self._handles[name] = handle
        elif type(handle) is not CounterHandle:
            raise ValueError(f"counter {name!r} is a fold and cannot be written")
        return handle

    def folded_counter(self, name: str, cells: List[CounterHandle],
                       scale: float = 1.0) -> None:
        """Register ``name`` as the sum of ``cells`` (in list order) times
        ``scale``, computed each time ``name`` is read."""
        if name in self._handles:
            raise ValueError(f"counter {name!r} already exists")
        self._handles[name] = FoldedCounter(name, cells, scale)

    def counter(self, name: str) -> float:
        handle = self._handles.get(name)
        return 0.0 if handle is None else handle.value

    def _iter_counters(self, prefix: str = "") -> Iterator[Tuple[str, float]]:
        """Every counter under ``prefix`` as ``(name, value)``.

        Counters whose value is 0.0 are skipped, so pre-binding a cell at
        construction (or registering a fold) does not make the counter visible
        to readers before it counts anything: a zero total reads as "never
        counted", the meaningful reading for monotonic counters.  A fold is
        computed only when its name matches ``prefix``.
        """
        for name, handle in self._handles.items():
            if name.startswith(prefix):
                value = handle.value
                if value != 0.0:
                    yield name, value

    def counters(self, prefix: str = "") -> Dict[str, float]:
        """Return all counters whose name starts with ``prefix``."""
        return dict(self._iter_counters(prefix))

    def sum(self, prefix: str) -> float:
        """Sum every counter whose name starts with ``prefix``, in
        registration order."""
        total = 0.0
        for _, value in self._iter_counters(prefix):
            total += value
        return total

    # -- gauges -------------------------------------------------------------
    def set_gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def gauge(self, name: str, default: float = 0.0) -> float:
        return self._gauges.get(name, default)

    def gauges(self, prefix: str = "") -> Dict[str, float]:
        return {k: v for k, v in self._gauges.items() if k.startswith(prefix)}

    # -- histograms ---------------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        hist = self._histograms.get(name)
        if hist is None:
            hist = Histogram()
            self._histograms[name] = hist
        hist.add(value)

    def histogram(self, name: str) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = Histogram()
            self._histograms[name] = hist
        return _fresh(hist)

    def folded_histogram(self, name: str) -> FoldedHistogram:
        """Return the :class:`FoldedHistogram` registered under ``name``,
        creating it on first use."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = FoldedHistogram()
            self._histograms[name] = hist
        elif not isinstance(hist, FoldedHistogram):
            raise ValueError(f"histogram {name!r} already exists and is not folded")
        return hist

    def histograms(self, prefix: str = "") -> Dict[str, Histogram]:
        return {k: _fresh(v) for k, v in self._histograms.items() if k.startswith(prefix)}

    # -- bulk helpers ---------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Flatten everything into a single scalar mapping (histograms -> mean)."""
        flat: Dict[str, float] = dict(self._iter_counters())
        flat.update(self._gauges)
        for name, hist in self._histograms.items():
            hist = _fresh(hist)
            if hist.count == 0:
                # Pre-bound but never-sampled histograms stay invisible, like
                # never-incremented counter handles.
                continue
            flat[f"{name}.mean"] = hist.mean
            flat[f"{name}.count"] = float(hist.count)
        return flat

    def __iter__(self) -> Iterator[Tuple[str, float]]:
        return iter(self.snapshot().items())

    def clear(self) -> None:
        # Cells stay registered (components hold references to them) but
        # restart from zero; folds follow their cells.
        for handle in self._handles.values():
            if type(handle) is CounterHandle:
                handle.value = 0.0
        self._gauges.clear()
        # Histograms are likewise reset in place rather than dropped, so a
        # component-bound Histogram and the registry never diverge into two
        # stores for the same name.
        for hist in self._histograms.values():
            hist.reset()


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values (0 if the iterable is empty)."""
    values = list(values)
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires strictly positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
