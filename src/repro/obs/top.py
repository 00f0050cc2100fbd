"""``python -m repro top`` — a live terminal view of the serving/sweep
stack, stdlib-curses only.

Two attachment modes:

* **daemon** (``--url http://host:port`` or ``--uds /path.sock``):
  :class:`DaemonSource` polls ``/v1/healthz`` + ``/v1/metrics`` and rides
  the ``/v1/events`` long-poll for admission-round events — window size
  against the bandwidth budget ``m``, overloaded slots, queue depth,
  cache hits, shed/retry counters.  Read-only: it submits nothing, so
  attaching to a live daemon never perturbs results.
* **telemetry file** (``--telemetry sweep.json``): :class:`FileSource`
  tails a :meth:`repro.sweep.SweepResult.to_json` dump, or a CLI
  ``--json`` record that nests one under ``telemetry`` (``repro chaos
  --trials N``), re-reading on change, and renders utilization,
  per-worker busy/steal columns, error counters, and the ledger block
  when the sweep recorded one.  A file with no sweep telemetry gets the
  ``unreadable`` frame.

The rendering core is :func:`render_frame` — a pure function from a
frame dict to text lines — so tests (and ``--once``, which prints a
single frame to stdout and exits) never need a terminal.  The curses
loop only handles keys (``q`` quits) and repaints.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

__all__ = [
    "DaemonSource",
    "FileSource",
    "render_frame",
    "run_top",
]

#: recent admission rounds kept for the in-frame history columns
ROUND_HISTORY = 12

_BAR = "█"


def _bar(value: float, limit: float, width: int = 20) -> str:
    """A bounded horizontal bar; overflow is marked with ``+``."""
    if limit <= 0:
        return ""
    frac = value / limit
    filled = int(min(1.0, frac) * width)
    bar = _BAR * filled + "·" * (width - filled)
    return bar + ("+" if frac > 1.0 else " ")


def _fmt_count(value: Any) -> str:
    try:
        f = float(value)
    except (TypeError, ValueError):
        return str(value)
    if f == int(f):
        return str(int(f))
    return f"{f:.3g}"


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------


class DaemonSource:
    """Frames from a running daemon: healthz + metrics polls, plus the
    ``/v1/events`` cursor for admission rounds."""

    def __init__(self, client) -> None:
        self.client = client
        self.cursor = 0
        self.rounds: List[Dict[str, Any]] = []
        self.budget_m: Optional[int] = None
        self.last_error: Optional[str] = None

    def _refresh_budget(self) -> None:
        if self.budget_m is None:
            try:
                self.budget_m = int(self.client.stats()["admission"]["budget_m"])
            except Exception:  # noqa: BLE001 - stats is advisory
                self.budget_m = None

    def frame(self, poll_s: float = 0.0) -> Dict[str, Any]:
        try:
            health = self.client.healthz()
            metrics = self.client.metrics()
            events, self.cursor = self.client.events(
                since=self.cursor, timeout=poll_s
            )
            self.last_error = None
        except Exception as exc:  # noqa: BLE001 - shown in the frame
            self.last_error = f"{type(exc).__name__}: {exc}"
            return {
                "source": self.describe(),
                "status": "unreachable",
                "error": self.last_error,
            }
        self._refresh_budget()
        for e in events:
            if e.get("kind") == "round":
                self.rounds.append(e)
        self.rounds = self.rounds[-ROUND_HISTORY:]
        counters = dict(metrics.get("counters", {}))
        return {
            "source": self.describe(),
            "status": health.get("status", "?"),
            "queue_depth": health.get("queue_depth", 0),
            "in_flight": health.get("in_flight", 0),
            "outstanding": health.get("outstanding", 0),
            "budget_m": self.budget_m,
            "counters": counters,
            "rounds": list(self.rounds),
        }

    def describe(self) -> str:
        if getattr(self.client, "uds", None):
            return f"daemon uds:{self.client.uds}"
        return f"daemon {self.client.url}"


class FileSource:
    """Frames from a sweep telemetry JSON file, re-read when it changes."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._mtime: Optional[float] = None
        self._data: Any = None
        self.last_error: Optional[str] = None

    def _unreadable(self, reason: str) -> Dict[str, Any]:
        self.last_error = reason
        return {"source": f"file {self.path}", "status": "unreadable", "error": reason}

    def frame(self, poll_s: float = 0.0) -> Dict[str, Any]:
        try:
            mtime = os.path.getmtime(self.path)
            if self._data is None or mtime != self._mtime:
                with open(self.path) as fh:
                    self._data = json.load(fh)
                self._mtime = mtime
            self.last_error = None
        except (OSError, json.JSONDecodeError) as exc:
            return self._unreadable(f"{type(exc).__name__}: {exc}")
        d = self._data
        if isinstance(d, dict) and isinstance(d.get("telemetry"), dict):
            d = d["telemetry"]  # a CLI --json record nests its sweep telemetry
        if not isinstance(d, dict) or not isinstance(d.get("trials"), int):
            return self._unreadable("no sweep telemetry: the file has no integer 'trials'")
        backend = d.get("backend") or {}
        return {
            "source": f"file {self.path}",
            "status": d.get("name", "sweep"),
            "trials": d.get("trials"),
            "elapsed_s": d.get("elapsed_s"),
            "utilization": d.get("utilization"),
            "jobs": d.get("jobs"),
            "counters": {
                "errors.skipped": (d.get("errors") or {}).get("skipped", 0),
                "errors.retries": (d.get("errors") or {}).get("retries", 0),
            },
            "backend": backend,
            "workers": backend.get("busy_s_per_worker") or {},
            "steals": backend.get("steals", 0),
            "worker_deaths": backend.get("worker_deaths", 0),
            "ledger": d.get("ledger"),
        }


# ---------------------------------------------------------------------------
# rendering (pure)
# ---------------------------------------------------------------------------


def _render_daemon(frame: Dict[str, Any], lines: List[str]) -> None:
    lines.append(
        f"  queue {frame.get('queue_depth', 0):>4}   in-flight "
        f"{frame.get('in_flight', 0):>3}   outstanding "
        f"{frame.get('outstanding', 0):>3}"
    )
    budget = frame.get("budget_m")
    rounds = frame.get("rounds") or []
    if rounds:
        lines.append("")
        header = "  round   window"
        if budget:
            header += f" (vs m={budget})"
        header += "  over  queue  reqs  cache"
        lines.append(header)
        for e in rounds:
            window = e.get("window", 0)
            bar = _bar(float(window), float(budget), 16) if budget else ""
            lines.append(
                f"  #{e.get('seq', 0):<5} {window:>6}  {bar} "
                f"{e.get('overloaded_slots', 0):>4}  {e.get('queue_depth', 0):>5}"
                f"  {e.get('requests', 0):>4}  {e.get('cache_hits', 0):>5}"
            )
    counters = frame.get("counters") or {}
    interesting = [
        ("ok", "serve.requests.ok"),
        ("failed", "serve.requests.failed"),
        ("submitted", "serve.requests.submitted"),
        ("retries", "serve.retry.attempts"),
        ("crashes", "serve.worker.crashes"),
        ("cache hit", "serve.cache.hits"),
        ("cache miss", "serve.cache.misses"),
    ]
    shed = {
        k.split("serve.shed.", 1)[1]: v
        for k, v in counters.items()
        if k.startswith("serve.shed.") and v
    }
    lines.append("")
    lines.append(
        "  " + "   ".join(
            f"{label} {_fmt_count(counters.get(key, 0))}"
            for label, key in interesting
        )
    )
    if shed:
        lines.append(
            "  shed: " + "  ".join(
                f"{k}={_fmt_count(v)}" for k, v in sorted(shed.items())
            )
        )


def _render_sweep(frame: Dict[str, Any], lines: List[str]) -> None:
    util = frame.get("utilization")
    lines.append(
        f"  trials {frame.get('trials', '?')}   jobs {frame.get('jobs', '?')}"
        f"   elapsed {frame.get('elapsed_s', 0.0):.3f}s"
        + (f"   utilization {util:.2f} {_bar(util, 1.0, 16)}" if util is not None else "")
    )
    workers = frame.get("workers") or {}
    if workers:
        busiest = max(workers.values()) or 1.0
        lines.append("")
        lines.append(f"  worker        busy_s          steals={frame.get('steals', 0)}"
                     f"  deaths={frame.get('worker_deaths', 0)}")
        for pid, busy in sorted(workers.items(), key=lambda kv: str(kv[0])):
            lines.append(
                f"  {str(pid):>8}  {float(busy):>8.3f}  {_bar(float(busy), busiest, 16)}"
            )
    counters = frame.get("counters") or {}
    lines.append("")
    lines.append(
        "  " + "   ".join(f"{k} {_fmt_count(v)}" for k, v in sorted(counters.items()))
    )
    ledger = frame.get("ledger")
    if ledger:
        by = ledger.get("charge_by_binding") or {}
        total = ledger.get("charge") or 0.0
        lines.append("")
        lines.append(
            f"  ledger: {ledger.get('supersteps', 0)} supersteps, "
            f"total charge {total:g}, max h {ledger.get('max_h', 0):g}"
        )
        for name in ("local", "global", "neither"):
            charge = float(by.get(name, 0.0))
            share = charge / total if total else 0.0
            lines.append(
                f"    {name:>7}  {charge:>10g}  {_bar(charge, total or 1.0, 16)} "
                f"{share * 100:5.1f}%"
            )
        lines.append(
            f"    util_local mean {ledger.get('util_local_mean', 0.0):.2f}"
            f"   util_global mean {ledger.get('util_global_mean', 0.0):.2f}"
        )


def render_frame(frame: Dict[str, Any], width: int = 80) -> List[str]:
    """Pure: one frame dict → display lines (no curses, no I/O)."""
    lines: List[str] = []
    stamp = time.strftime("%H:%M:%S")
    lines.append(f"repro top — {frame.get('source', '?')}  "
                 f"[{frame.get('status', '?')}]  {stamp}")
    lines.append("─" * min(width, 72))
    if frame.get("error"):
        lines.append(f"  {frame['error']}")
        lines.append("  (retrying…)")
        return lines
    if "rounds" in frame or "queue_depth" in frame:
        _render_daemon(frame, lines)
    else:
        _render_sweep(frame, lines)
    return [line[:width] for line in lines]


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------


def make_source(
    url: Optional[str] = None,
    uds: Optional[str] = None,
    telemetry: Optional[str] = None,
):
    """Build the frame source the CLI flags describe (exactly one)."""
    chosen = [x for x in (url, uds, telemetry) if x]
    if len(chosen) != 1:
        raise ValueError("pass exactly one of --url, --uds, --telemetry")
    if telemetry is not None:
        return FileSource(telemetry)
    from repro.serve.client import ServeClient

    client = ServeClient(url) if url is not None else ServeClient(uds=uds)
    return DaemonSource(client)


def run_top(
    source,
    interval: float = 1.0,
    once: bool = False,
    max_frames: Optional[int] = None,
) -> int:
    """Drive the top loop.  ``once`` renders a single frame to stdout
    (no curses — usable in pipes and tests); otherwise a curses screen
    repaints every ``interval`` seconds until ``q``.  ``max_frames``
    bounds the curses loop (tests/timeboxing)."""
    if once:
        for line in render_frame(source.frame(poll_s=0.0)):
            print(line)
        return 0

    import curses

    def loop(stdscr) -> None:
        curses.curs_set(0)
        stdscr.nodelay(True)
        stdscr.timeout(int(interval * 1000))
        frames = 0
        while True:
            frame = source.frame(poll_s=min(interval, 5.0))
            height, width = stdscr.getmaxyx()
            stdscr.erase()
            for y, line in enumerate(render_frame(frame, width=width - 1)):
                if y >= height - 1:
                    break
                stdscr.addstr(y, 0, line)
            stdscr.refresh()
            frames += 1
            if max_frames is not None and frames >= max_frames:
                return
            try:
                key = stdscr.getch()
            except curses.error:  # pragma: no cover - terminal quirk
                key = -1
            if key in (ord("q"), ord("Q")):
                return

    curses.wrapper(loop)
    return 0
