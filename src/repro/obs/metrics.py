"""Process-local metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is a flat namespace of named instruments.  Like
the tracer (:mod:`repro.obs.tracer`), nothing is recorded unless a
registry is installed via :func:`install_metrics` / :func:`metrics_scope`
— the default :func:`active_metrics` is ``None`` and instrumented code
guards on that once per run.

The registry is **mergeable**: each sweep trial records into a scratch
registry and ships its :meth:`MetricsRegistry.to_dict` dump, and
:meth:`MetricsRegistry.merge` folds those dumps into the parent in task
order — counters and histogram buckets are sums (order independent) and
gauges are last-write-wins (task order), so ``jobs=N`` aggregates
bit-identically to ``jobs=1``.

Histograms use *fixed* bucket bounds chosen at creation (default: decade
bounds suited to model-time costs).  Fixed bounds are what makes two
histograms from different processes mergeable by plain elementwise
addition of counts.
"""

from __future__ import annotations

import bisect
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active_metrics",
    "install_metrics",
    "uninstall_metrics",
    "metrics_scope",
    "DEFAULT_BUCKETS",
]

#: Metrics-dump schema (bumped when the JSON layout changes).
METRICS_SCHEMA_VERSION = 1

#: Decade bounds covering model-time costs from O(1) supersteps to the
#: multi-million-slot schedules of the scheduling layer.
DEFAULT_BUCKETS = (1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0)


class Counter:
    """Monotonic float counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Last-written value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bound histogram: ``len(bounds)+1`` buckets, the last open.

    Bucket ``i`` counts observations ``v <= bounds[i]``; the final bucket
    counts everything above the largest bound.
    """

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.bounds: List[float] = sorted(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


class MetricsRegistry:
    """Named counters/gauges/histograms, mergeable by dump."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument accessors (create on first use) ----------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge()
        return g

    def histogram(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(bounds)
        return h

    # -- export -----------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Columnar JSON-ready dump of every instrument."""
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {k: h.to_dict() for k, h in sorted(self._histograms.items())},
        }

    # -- parent-side merge -------------------------------------------------
    def merge(self, dump: Dict[str, Any]) -> None:
        """Fold another registry's :meth:`to_dict` dump into this one."""
        for k, v in dump.get("counters", {}).items():
            self.counter(k).inc(v)
        for k, v in dump.get("gauges", {}).items():
            self.gauge(k).set(v)
        for k, spec in dump.get("histograms", {}).items():
            h = self.histogram(k, spec["bounds"])
            if h.bounds != [float(b) for b in spec["bounds"]]:
                raise ValueError(
                    f"histogram {k!r} bucket bounds differ; fixed bounds are "
                    "required for cross-process merging"
                )
            for i, c in enumerate(spec["counts"]):
                h.counts[i] += c
            h.total += spec["sum"]
            h.count += spec["count"]


# -- the process-global hook (None = metrics disabled, the default) -------
_ACTIVE: Optional[MetricsRegistry] = None


def active_metrics() -> Optional[MetricsRegistry]:
    """The installed registry, or ``None`` (the zero-overhead default)."""
    return _ACTIVE


def install_metrics(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install (and return) a registry; instrumented code records into it."""
    global _ACTIVE
    _ACTIVE = registry if registry is not None else MetricsRegistry()
    return _ACTIVE


def uninstall_metrics() -> Optional[MetricsRegistry]:
    """Remove the active registry (returning it) — back to the no-op default."""
    global _ACTIVE
    registry, _ACTIVE = _ACTIVE, None
    return registry


@contextmanager
def metrics_scope(registry: Optional[MetricsRegistry] = None) -> Iterator[MetricsRegistry]:
    """Scope a registry installation; restores the previous one on exit."""
    global _ACTIVE
    previous = _ACTIVE
    installed = install_metrics(registry)
    try:
        yield installed
    finally:
        _ACTIVE = previous
