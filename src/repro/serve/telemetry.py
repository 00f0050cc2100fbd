"""Server-side queueing telemetry, carried by the :mod:`repro.obs`
metrics machinery so ``python -m repro compare`` can gate dumps.

One :class:`ServerMetrics` instance lives for the daemon's lifetime.  It
wraps a :class:`repro.obs.MetricsRegistry` (same schema, same exporter,
same comparator) and namespaces everything under ``serve.``:

counters
    ``serve.requests.{submitted,ok,failed}``, the shed/reject family
    ``serve.shed.{queue_full,oversized,deadline,quarantined,draining}``,
    resilience counters ``serve.retry.{attempts,quarantined}`` and
    ``serve.worker.crashes``, cache effectiveness
    ``serve.cache.{hits,misses}``.
gauges
    ``serve.queue.depth``, ``serve.inflight``, ``serve.rounds``.
histograms
    ``serve.wait_s`` (admission → start of service), ``serve.service_s``
    (inside the handler), ``serve.compute.wait_s`` (a compute's wait for
    the compute lane), ``serve.round.window`` and
    ``serve.round.overloaded_slots`` (the Unbalanced-Send draw).

``snapshot()`` is what ``GET /v1/metrics`` returns and what the CI smoke
job uploads; it is a plain :meth:`MetricsRegistry.to_dict` dump, so the
regression comparator consumes it unchanged.  ``GET /v1/metrics?format=
prom`` renders the same dump through
:func:`repro.obs.prom.prometheus_exposition`.

Event stream
------------
:class:`ServerMetrics` also keeps a bounded ring of **admission-round
events** — one JSON-ready dict per scheduled Unbalanced-Send round
(sequence number, window size, overloaded slots, request count, queue
depth) plus lifecycle markers (``drain``).  ``GET /v1/events`` long-polls
:meth:`wait_events`: a client passes the last sequence number it saw and
blocks until newer events exist (or the timeout lapses), which is what
``python -m repro top`` rides.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, List, Tuple

from repro.obs.metrics import MetricsRegistry

__all__ = ["ServerMetrics", "EVENT_RING_SIZE"]

#: admission-round events retained for ``GET /v1/events`` late joiners
EVENT_RING_SIZE = 1024


class ServerMetrics:
    """Thread-safe façade over a registry (one lock; counters are cheap)."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=EVENT_RING_SIZE)
        self._event_seq = 0
        self._event_cond = threading.Condition(self._lock)

    # counter/gauge/histogram helpers --------------------------------------
    def inc(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.registry.counter(f"serve.{name}").inc(value)

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.registry.gauge(f"serve.{name}").set(value)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            self.registry.histogram(f"serve.{name}").observe(value)

    # request lifecycle ----------------------------------------------------
    def shed(self, code: str) -> None:
        """Count a structured rejection under its error code."""
        key = {
            "E_QUEUE_FULL": "shed.queue_full",
            "E_OVERSIZED": "shed.oversized",
            "E_DEADLINE": "shed.deadline",
            "E_QUARANTINED": "shed.quarantined",
            "E_DRAINING": "shed.draining",
            "E_CRASHED": "shed.crashed",
            "E_BAD_REQUEST": "shed.bad_request",
        }.get(code, "shed.other")
        self.inc(key)

    def round_scheduled(
        self,
        window: int,
        overloaded_slots: int,
        size: int,
        queue_depth: int = 0,
        cache_hits: int = 0,
    ) -> None:
        self.inc("rounds.scheduled")
        self.inc("rounds.requests", size)
        self.observe("round.window", float(window))
        self.observe("round.overloaded_slots", float(overloaded_slots))
        self.emit_event(
            "round",
            window=int(window),
            overloaded_slots=int(overloaded_slots),
            requests=int(size),
            queue_depth=int(queue_depth),
            cache_hits=int(cache_hits),
        )

    # event stream ---------------------------------------------------------
    def emit_event(self, kind: str, **fields: Any) -> int:
        """Append one event to the ring and wake every long-poll waiter.
        Returns the event's sequence number (monotonic from 1)."""
        with self._event_cond:
            self._event_seq += 1
            event = {"seq": self._event_seq, "kind": kind, "t": time.time()}
            event.update(fields)
            self._events.append(event)
            self._event_cond.notify_all()
            return self._event_seq

    def wait_events(
        self, since: int, timeout: float = 10.0, limit: int = EVENT_RING_SIZE
    ) -> Tuple[List[Dict[str, Any]], int]:
        """Long-poll: block until events newer than ``since`` exist or the
        timeout lapses.  Returns ``(events, latest_seq)`` — an empty list
        with the current sequence number on timeout, so a client can keep
        its cursor without re-reading history."""
        deadline = time.monotonic() + max(0.0, timeout)
        with self._event_cond:
            while True:
                fresh = [e for e in self._events if e["seq"] > since]
                if fresh:
                    return fresh[:limit], self._event_seq
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return [], self._event_seq
                self._event_cond.wait(remaining)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return self.registry.to_dict()
