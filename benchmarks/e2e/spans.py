"""Benchmark-owned wall-clock spans around the layers' public callables.

The traced run must be the run being measured, so it installs none of
``repro.obs`` (an active tracer, metrics registry or ledger turns off the
direct, compiled and batched fast paths).  Instead :func:`install`
replaces each public callable named in :data:`LAYERS` with a thin wrapper
that records one span per call, at every place the callable is bound: its
defining module or class, and every module that imported it by name.
Callers that look a name up at call time therefore go through the
wrapper; the program's own code is unchanged.

Spans nest per thread.  A span's *self time* is its duration minus the
time covered by its direct children on the same thread, so each layer is
charged only for its own work.  A target that no longer exists is
reported as absent, never as an error: deleting a function does not
require editing the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: metric name -> the public callables it covers, as ``module:attr.path``
#: (a path step into a dict indexes it).  ``units`` entries count work
#: items per call for per-item figures.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "serve.protocol.fingerprint": ("repro.serve.protocol:request_fingerprint",),
    "serve.admission.submit": ("repro.serve.admission:AdmissionController.submit",),
    "serve.admission.next_round": (
        "repro.serve.admission:AdmissionController.next_round",
    ),
    "store.get": ("repro.store.disk:DiskStore.get",),
    "store.put": ("repro.store.disk:DiskStore.put",),
    "serve.executor.run_scenario": ("repro.serve.executor:run_scenario",),
    "workloads.relation": (
        "repro.workloads.relations:uniform_random_relation",
        "repro.workloads.relations:zipf_h_relation",
        "repro.workloads.relations:balanced_h_relation",
        "repro.workloads.relations:one_to_all_relation",
    ),
    "scheduling.unbalanced_send": ("repro.scheduling.static_send:unbalanced_send",),
    "scheduling.execute_schedule": ("repro.scheduling.execute:execute_schedule",),
    "scheduling.evaluate_schedule": ("repro.scheduling.analysis:evaluate_schedule",),
    "scheduling.compile_schedule": ("repro.scheduling.execute:compile_schedule",),
    "experiments.pricing_ablation": (
        "repro.experiments:EXPERIMENTS.pricing_ablation",
    ),
    "sweep.run_sweep": ("repro.sweep.runner:run_sweep",),
    "core.batched.replay_batch": ("repro.core.batched:replay_batch",),
    "core.engine.run.bsp_g": ("repro.models.bsp_g:BSPg.run",),
    "core.engine.run.bsp_m": ("repro.models.bsp_m:BSPm.run",),
    "core.engine.run.qsm_g": ("repro.models.qsm_g:QSMg.run",),
    "core.engine.run.qsm_m": ("repro.models.qsm_m:QSMm.run",),
    "algorithms.one_to_all": ("repro.algorithms.one_to_all:one_to_all",),
    "algorithms.broadcast": ("repro.algorithms.broadcast:broadcast",),
    "algorithms.summation": ("repro.algorithms.prefix:summation",),
    "algorithms.columnsort": ("repro.algorithms.sorting:columnsort",),
    "algorithms.sample_sort": ("repro.algorithms.sample_sort:sample_sort",),
    "algorithms.list_ranking": (
        "repro.algorithms.list_ranking:list_ranking_contraction",
    ),
}

#: per-call work items: ``replay_batch(compiled, machines)`` prices one trial per machine
UNITS: Dict[str, Callable[[tuple, dict], int]] = {
    "core.batched.replay_batch": lambda args, kwargs: len(
        kwargs["machines"] if "machines" in kwargs else args[1]
    ),
}


class SpanRecorder:
    """Thread-safe in-memory span log with per-thread nesting.

    Each closed span is kept as ``(name, start, end, self_s, units)`` with
    ``time.monotonic()`` stamps, which are comparable across processes on
    one host, so a client can select the spans of its timed rounds from a
    daemon's dump.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.spans: List[tuple] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        frame = [name, self.clock(), 0.0]  # name, start, time in children
        self._stack().append(frame)
        return frame

    def end(self, frame: list, units: int = 0) -> None:
        now = self.clock()
        stack = self._stack()
        stack.pop()
        duration = now - frame[1]
        if stack:
            stack[-1][2] += duration
        with self._lock:
            self.spans.append((frame[0], frame[1], now, duration - frame[2], units))

    def aggregate(self, windows: Optional[Sequence[Tuple[float, float]]] = None
                  ) -> Dict[str, Dict[str, float]]:
        """Per-name ``calls``, ``self_s`` and ``units`` of the spans that
        started inside one of ``windows`` (all spans when ``None``)."""
        return aggregate(self.spans, windows)


def aggregate(spans, windows=None) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for name, start, _end, self_s, units in spans:
        if windows is not None and not any(a <= start < b for a, b in windows):
            continue
        acc = out.setdefault(name, {"calls": 0, "self_s": 0.0, "units": 0})
        acc["calls"] += 1
        acc["self_s"] += self_s
        acc["units"] += units
    return out


def _wrap(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    units = UNITS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = recorder.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(frame, units(args, kwargs) if units else 0)

    return wrapper


def _resolve(target: str):
    """``(owner, key, original)`` for ``module:attr.path``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *steps, key = path.split(".")
    for step in steps:
        owner = owner[step] if isinstance(owner, dict) else getattr(owner, step)
    original = owner[key] if isinstance(owner, dict) else getattr(owner, key)
    return owner, key, original


def _bind(owner, key, value) -> Callable[[], None]:
    """Set ``owner.key`` (or ``owner[key]``); return the undo."""
    if isinstance(owner, dict):
        old = owner[key]
        owner[key] = value
        return lambda: owner.__setitem__(key, old)
    had_own = isinstance(owner, type) and key in owner.__dict__
    old = getattr(owner, key)
    setattr(owner, key, value)
    if isinstance(owner, type) and not had_own:
        return lambda: delattr(owner, key)  # it was inherited: uncover it again
    return lambda: setattr(owner, key, old)


def install(recorder: SpanRecorder,
            layers: Optional[Dict[str, Sequence[str]]] = None
            ) -> Tuple[Callable[[], None], List[str]]:
    """Wrap every resolvable target; return ``(uninstall, absent)`` where
    ``absent`` lists the targets that no longer exist.

    All targets are resolved before any is wrapped, so a subclass never
    picks up a wrapper installed on its base."""
    layers = LAYERS if layers is None else layers
    resolved, absent = [], []
    for name, targets in layers.items():
        for target in targets:
            try:
                resolved.append((name, *_resolve(target)))
            except (ImportError, AttributeError, KeyError):
                absent.append(target)
    undo: List[Callable[[], None]] = []
    for name, owner, key, original in resolved:
        wrapper = _wrap(recorder, name, original)
        undo.append(_bind(owner, key, wrapper))
        if isinstance(owner, type):
            continue  # methods are looked up through the class
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace or namespace is getattr(owner, "__dict__", None):
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    undo.append(_bind(module, attr, wrapper))

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall, absent


def absent_layers(absent_targets: Sequence[str],
                  layers: Optional[Dict[str, Sequence[str]]] = None) -> List[str]:
    """Metric names none of whose targets could be wrapped."""
    layers = LAYERS if layers is None else layers
    missing = set(absent_targets)
    return [name for name, targets in layers.items()
            if all(t in missing for t in targets)]


def layer_metrics(totals: Dict[str, Dict[str, float]], ops: int,
                  absent: Sequence[str],
                  layers: Optional[Dict[str, Sequence[str]]] = None
                  ) -> Dict[str, float]:
    """``X_us`` (mean self time per op, microseconds) and ``X.calls``
    (calls per op) for every layer ``X``; absent and uncalled layers read 0."""
    layers = LAYERS if layers is None else layers
    out: Dict[str, float] = {}
    for name in layers:
        acc = totals.get(name) if name not in absent else None
        calls = acc["calls"] if acc else 0
        self_s = acc["self_s"] if acc else 0.0
        out[f"{name}_us"] = self_s / ops * 1e6 if ops else 0.0
        out[f"{name}.calls"] = calls / ops if ops else 0.0
    return out
