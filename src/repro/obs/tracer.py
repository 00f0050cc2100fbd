"""Hierarchical span tracer — zero overhead unless explicitly installed.

The engine barrier, the scheduler bridge, the reliable transport and the
sweep runner all ask :func:`active_tracer` once per run (a module-global
read that returns ``None`` by default) and emit spans only when a
:class:`Tracer` has been installed — so the disabled path costs one
module-global read per run plus a handful of ``is not None`` checks per
superstep (guarded to stay within the engine-throughput budget pinned by
``benchmarks/bench_obs_overhead.py``), and model times are bit-identical
with tracing on or off (spans *record* model time, they never participate
in pricing).

Span model
----------
Spans are flat records with a parent index, forming the trees::

    run > superstep N > {freeze, price, deliver}   (engine)
    sweep > trial > run                            (sweep runner)
    round R > run                                  (reliable transport)

Each span carries **two clocks**:

* ``model_start`` / ``model_dur`` — the paper's deterministic model time.
  The tracer owns a cumulative :attr:`Tracer.model_clock` so successive
  runs (e.g. the transport's data/ack supersteps) lay out sequentially on
  one model-time axis.
* ``wall_start`` / ``wall_dur`` — ``time.perf_counter`` seconds, for the
  simulator's own phases (freeze/price/deliver) where model time does not
  apply.

``args`` holds the :class:`~repro.core.events.CostBreakdown` components,
fault/retry counters, and any other attributes — these become Chrome
``trace_event`` args in :mod:`repro.obs.export`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "active_tracer",
    "install_tracer",
    "uninstall_tracer",
    "traced",
    "tracing",
    "export_spans",
    "splice_spans",
]


class Span:
    """One traced interval; flat storage, tree structure via ``parent``."""

    __slots__ = (
        "index",
        "parent",
        "name",
        "cat",
        "track",
        "wall_start",
        "wall_dur",
        "model_start",
        "model_dur",
        "args",
    )

    def __init__(
        self,
        index: int,
        parent: Optional[int],
        name: str,
        cat: str,
        track: str,
        wall_start: Optional[float] = None,
        wall_dur: Optional[float] = None,
        model_start: Optional[float] = None,
        model_dur: Optional[float] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.index = index
        self.parent = parent
        self.name = name
        self.cat = cat
        self.track = track
        self.wall_start = wall_start
        self.wall_dur = wall_dur
        self.model_start = model_start
        self.model_dur = model_dur
        self.args = args if args is not None else {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        clock = (
            f"model {self.model_start}+{self.model_dur}"
            if self.model_dur is not None
            else f"wall {self.wall_dur}"
        )
        return f"Span({self.name!r}, cat={self.cat!r}, {clock})"


class Tracer:
    """Collects :class:`Span` records from every instrumented layer.

    ``begin``/``end`` maintain a stack so nested emitters (sweep > trial >
    run > superstep) agree on parentage without passing spans around;
    :meth:`add` records an already-complete span (the per-superstep and
    per-processor fast path).  ``model_clock`` is the cumulative model-time
    axis shared by every run traced into this tracer.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.model_clock: float = 0.0
        self._stack: List[int] = []

    # -- stack-scoped spans ---------------------------------------------
    def begin(self, name: str, cat: str = "", track: str = "main", **args: Any) -> Span:
        span = Span(
            index=len(self.spans),
            parent=self._stack[-1] if self._stack else None,
            name=name,
            cat=cat,
            track=track,
            wall_start=time.perf_counter(),
            args=dict(args) if args else {},
        )
        self.spans.append(span)
        self._stack.append(span.index)
        return span

    def end(self, span: Span, model_dur: Optional[float] = None, **args: Any) -> Span:
        """Close ``span`` (tolerating children left open by an exception)."""
        span.wall_dur = time.perf_counter() - span.wall_start
        if model_dur is not None:
            span.model_dur = model_dur
        if args:
            span.args.update(args)
        while self._stack:
            top = self._stack.pop()
            if top == span.index:
                break
        return span

    @contextmanager
    def span(self, name: str, cat: str = "", track: str = "main", **args: Any) -> Iterator[Span]:
        s = self.begin(name, cat, track, **args)
        try:
            yield s
        finally:
            self.end(s)

    # -- complete spans (no stack interaction beyond parent lookup) ------
    def add(
        self,
        name: str,
        cat: str = "",
        track: str = "main",
        *,
        parent: Optional[Span] = None,
        wall_start: Optional[float] = None,
        wall_dur: Optional[float] = None,
        model_start: Optional[float] = None,
        model_dur: Optional[float] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> Span:
        span = Span(
            index=len(self.spans),
            parent=parent.index if parent is not None else (self._stack[-1] if self._stack else None),
            name=name,
            cat=cat,
            track=track,
            wall_start=wall_start,
            wall_dur=wall_dur,
            model_start=model_start,
            model_dur=model_dur,
            args=args if args is not None else {},
        )
        self.spans.append(span)
        return span

    # -- queries ----------------------------------------------------------
    def find(self, cat: Optional[str] = None, name: Optional[str] = None) -> List[Span]:
        """Spans matching a category and/or exact name, record order."""
        out = self.spans
        if cat is not None:
            out = [s for s in out if s.cat == cat]
        if name is not None:
            out = [s for s in out if s.name == name]
        return list(out)

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent == span.index]

    def __len__(self) -> int:
        return len(self.spans)


# -- worker-span shipping (sweep pool) -------------------------------------

def export_spans(tracer: Tracer) -> Dict[str, Any]:
    """A picklable dump of a scratch tracer's spans for shipping from a
    worker process back to the parent (:func:`splice_spans` re-attaches
    them).  Spans become plain tuples; clocks stay worker-relative — the
    parent re-bases both axes when splicing."""
    return {
        "spans": [
            (s.parent, s.name, s.cat, s.track, s.wall_start, s.wall_dur,
             s.model_start, s.model_dur, s.args)
            for s in tracer.spans
        ],
        "model_clock": tracer.model_clock,
    }


def splice_spans(
    tracer: Tracer,
    dump: Dict[str, Any],
    parent: Optional[Span] = None,
    wall_offset: float = 0.0,
    model_offset: Optional[float] = None,
) -> List[Span]:
    """Graft an :func:`export_spans` dump into ``tracer`` under ``parent``.

    Worker-relative wall clocks are shifted by ``wall_offset`` (seconds on
    the parent's ``perf_counter`` axis); model clocks are re-based to
    ``model_offset`` (default: the parent tracer's current
    ``model_clock``, which then advances by the dump's total model time so
    successive trials lay out sequentially, exactly as a serial run
    would).  Returns the new spans in dump order.
    """
    if model_offset is None:
        model_offset = tracer.model_clock
    base = len(tracer.spans)
    parent_index = parent.index if parent is not None else None
    out: List[Span] = []
    for rel_parent, name, cat, track, ws, wd, ms, md, args in dump.get("spans", ()):
        span = Span(
            index=len(tracer.spans),
            parent=base + rel_parent if rel_parent is not None else parent_index,
            name=name,
            cat=cat,
            track=track,
            wall_start=None if ws is None else ws + wall_offset,
            wall_dur=wd,
            model_start=None if ms is None else ms + model_offset,
            model_dur=md,
            args=dict(args) if args else {},
        )
        tracer.spans.append(span)
        out.append(span)
    tracer.model_clock = model_offset + float(dump.get("model_clock", 0.0))
    return out


# -- the process-global hook (None = tracing disabled, the default) -------
_ACTIVE: Optional[Tracer] = None


def active_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` (the zero-overhead default)."""
    return _ACTIVE


def install_tracer(tracer: Optional[Tracer] = None) -> Tracer:
    """Install (and return) a tracer; subsequent runs emit spans into it."""
    global _ACTIVE
    _ACTIVE = tracer if tracer is not None else Tracer()
    return _ACTIVE


def uninstall_tracer() -> Optional[Tracer]:
    """Remove the active tracer (returning it) — runs go back to no-op."""
    global _ACTIVE
    tracer, _ACTIVE = _ACTIVE, None
    return tracer


@contextmanager
def traced(name: str, cat: str = "", track: str = "main", **args: Any) -> Iterator[Optional[Span]]:
    """A context span on the installed tracer, or nothing when none is
    installed: for labelling a call that runs the same either way."""
    tracer = _ACTIVE
    if tracer is None:
        yield None
        return
    with tracer.span(name, cat, track, **args) as span:
        yield span


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Scope a tracer installation; restores the previous one on exit."""
    global _ACTIVE
    previous = _ACTIVE
    installed = install_tracer(tracer)
    try:
        yield installed
    finally:
        _ACTIVE = previous
