"""The ``repro serve`` daemon: JSON-over-HTTP front end wiring admission,
execution, the persistent store, and telemetry together.

Endpoints (all JSON):

``POST /v1/submit``
    Long-poll submission.  The body names a kind, params, seed, and an
    optional relative ``deadline_s``.  The handler blocks until the
    request is served or shed, then answers with the structured payload
    and matching HTTP status — a client never hangs on an unanswered
    accepted request.
``GET /v1/healthz``
    Liveness + drain state + queue/in-flight gauges.
``GET /v1/metrics``
    The :class:`repro.serve.telemetry.ServerMetrics` snapshot (a
    ``repro.obs`` metrics dump; ``repro compare`` consumes it as-is).
    ``?format=prom`` renders the same registry as Prometheus text
    exposition (format 0.0.4) for a stock scraper; an unknown
    ``?format=`` is a structured 406 ``E_NOT_ACCEPTABLE``.
``GET /v1/events``
    JSONL long-poll stream of admission-round events (window size,
    overloaded slots, request count, queue depth, cache hits).
    ``?since=<seq>`` resumes after a cursor, ``?timeout=<s>`` bounds the
    poll, ``?max=<n>`` caps the batch; the latest sequence number rides
    the ``X-Repro-Events-Seq`` header so an empty poll still advances
    nothing and loses nothing.  ``python -m repro top`` rides this.
``GET /v1/stats``
    Store statistics, quarantine list, admission/executor config.
``POST /v1/drain``
    Programmatic equivalent of SIGTERM: stop admitting, finish queued
    work, then shut down.

Every response carries an explicit ``Content-Length`` and a charset on
its ``Content-Type`` (JSON replies are ``application/json;
charset=utf-8``), on every path — including errors.

Drain discipline (the zero-loss guarantee): ``drain()`` closes
admission (new submissions shed with ``E_DRAINING``), waits for the
executor's outstanding counter to hit zero — every accepted request has
its completion event set — waits for all handler threads to finish
writing responses, and only then shuts the listener down.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.serve.admission import AdmissionConfig, AdmissionController
from repro.serve.chaos import ChaosPlan
from repro.serve.executor import ExecutorConfig, RequestExecutor
from repro.serve.protocol import (
    KINDS,
    PROTOCOL_VERSION,
    Request,
    ServeError,
    error_payload,
    estimate_cost,
    ok_payload,
    request_fingerprint,
)
from repro.serve.telemetry import ServerMetrics
from repro.store.disk import DiskStore

__all__ = ["ReproServer"]

#: request bodies above this are rejected outright (E_BAD_REQUEST)
MAX_BODY_BYTES = 1 << 20
#: hard cap on how long a submit handler will wait for its completion
#: event — a backstop against executor bugs, not a normal code path
SUBMIT_WAIT_CAP_S = 600.0
#: ceiling on a single /v1/events long-poll (clients re-poll with their
#: cursor; an unbounded wait would pin handler threads through a drain)
EVENTS_POLL_CAP_S = 55.0


class _UnixThreadingHTTPServer(ThreadingHTTPServer):
    """HTTP over a Unix-domain socket (``repro serve --uds /path.sock``).

    ``HTTPServer.server_bind`` unpacks ``host, port = server_address[:2]``
    — an AF_UNIX address is a single path string, so that base method is
    bypassed in favor of the raw ``TCPServer`` bind plus fixed
    name/port attributes (only used for the ``Server:`` header and
    logging, neither meaningful on a socket file).
    """

    address_family = socket.AF_UNIX

    def server_bind(self) -> None:
        path = self.server_address
        if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
            os.unlink(path)  # stale socket from a previous daemon
        socketserver.TCPServer.server_bind(self)
        self.server_name = "localhost"
        self.server_port = 0

    def server_close(self) -> None:
        super().server_close()
        path = self.server_address
        if isinstance(path, (str, os.PathLike)):
            try:
                os.unlink(path)
            except OSError:
                pass


class ReproServer:
    """Owns the HTTP listener and the serve stack; one per process."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        admission: Optional[AdmissionConfig] = None,
        executor: Optional[ExecutorConfig] = None,
        store: Optional[DiskStore] = None,
        chaos: Optional[ChaosPlan] = None,
        request_timeout: float = 30.0,
        uds: Optional[str] = None,
    ) -> None:
        self.metrics = ServerMetrics()
        self.admission = AdmissionController(admission or AdmissionConfig())
        self.executor = RequestExecutor(
            self.admission,
            self.metrics,
            config=executor,
            store=store,
            chaos=chaos,
        )
        self.store = store
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._responding = 0  # handler threads between admission and reply
        self._responding_lock = threading.Lock()
        self._responding_done = threading.Condition(self._responding_lock)
        self._drained = threading.Event()
        self._started = False

        handler = _make_handler(self, request_timeout)
        self.uds = uds
        if uds is not None:
            self.httpd: ThreadingHTTPServer = _UnixThreadingHTTPServer(
                uds, handler
            )
        else:
            self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        if self.uds is not None:
            return (self.uds, 0)
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        if self.uds is not None:
            return f"http+unix://{self.uds}"
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        """Start executor threads and the listener (non-blocking)."""
        self.executor.start()
        self._started = True
        t = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-serve-http",
            daemon=True,
        )
        t.start()
        self._http_thread = t

    def serve_until_drained(self) -> None:
        """Block until :meth:`drain` completes (the CLI's main loop)."""
        self._drained.wait()

    def drain(self, timeout: Optional[float] = 60.0) -> bool:
        """Graceful shutdown: shed new work, finish accepted work, stop.

        Returns ``True`` if every accepted request was answered within
        ``timeout``.  Safe to call more than once (SIGTERM + atexit).
        """
        self.admission.start_drain()
        self.metrics.emit_event("drain")  # wakes /v1/events long-pollers
        clean = self.executor.wait_idle(timeout)
        # every completion event is set; wait for handlers to finish
        # writing their responses before tearing the listener down
        end = None if timeout is None else time.monotonic() + timeout
        with self._responding_lock:
            while self._responding:
                remaining = None if end is None else end - time.monotonic()
                if remaining is not None and remaining <= 0:
                    clean = False
                    break
                self._responding_done.wait(remaining if remaining is not None else 0.5)
        self.executor.stop()
        if self._started:
            self.httpd.shutdown()
        self.httpd.server_close()
        self._drained.set()
        return clean

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (main thread only)."""
        import signal

        def _handle(signum, frame):  # pragma: no cover - signal path
            threading.Thread(
                target=self.drain, name="repro-serve-drain", daemon=True
            ).start()

        signal.signal(signal.SIGTERM, _handle)
        signal.signal(signal.SIGINT, _handle)

    # -- submission (called from handler threads) ----------------------
    def submit(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """Validate, admit, wait, and build the (status, payload) reply."""
        self.metrics.inc("requests.submitted")
        try:
            req = self._build_request(body)
        except ServeError as err:
            self.metrics.shed(err.code)
            return err.http_status, error_payload(err)
        try:
            self.executor.check_quarantine(req.fingerprint)
            depth = self.admission.submit(req)
        except ServeError as err:
            self.metrics.shed(err.code)
            return err.http_status, error_payload(err)
        self.executor.note_admitted()
        self.metrics.gauge("queue.depth", depth)
        with self._responding_lock:
            self._responding += 1
        try:
            return self._await_reply(req)
        finally:
            with self._responding_lock:
                self._responding -= 1
                self._responding_done.notify_all()

    def _await_reply(self, req: Request) -> Tuple[int, Dict[str, Any]]:
        event: threading.Event = req.extra["event"]
        if not event.wait(SUBMIT_WAIT_CAP_S):  # pragma: no cover - backstop
            err = ServeError(
                "E_INTERNAL",
                f"no completion within {SUBMIT_WAIT_CAP_S}s (executor wedged?)",
            )
            return err.http_status, error_payload(err)
        error: Optional[ServeError] = req.extra.get("error")
        if error is not None:
            return error.http_status, error_payload(error)
        outcome = req.extra["result"]
        payload = ok_payload(
            outcome["payload"],
            kind=req.kind,
            seed=req.seed,
            fingerprint=req.fingerprint,
            cached=outcome["cached"],
            attempts=outcome["attempts"],
            cost=req.cost,
        )
        return 200, payload

    def _build_request(self, body: Dict[str, Any]) -> Request:
        if not isinstance(body, dict):
            raise ServeError("E_BAD_REQUEST", "body must be a JSON object")
        kind = body.get("kind")
        if kind not in KINDS:
            raise ServeError(
                "E_BAD_REQUEST", f"kind must be one of {KINDS}, got {kind!r}"
            )
        params = body.get("params", {})
        if not isinstance(params, dict):
            raise ServeError("E_BAD_REQUEST", "params must be a JSON object")
        try:
            seed = int(body.get("seed", 0))
        except (TypeError, ValueError):
            raise ServeError("E_BAD_REQUEST", f"seed must be an int, got "
                             f"{body.get('seed')!r}")
        deadline_s = body.get("deadline_s")
        now = time.monotonic()
        deadline = None
        if deadline_s is not None:
            try:
                deadline = now + float(deadline_s)
            except (TypeError, ValueError):
                raise ServeError(
                    "E_BAD_REQUEST",
                    f"deadline_s must be a number, got {deadline_s!r}",
                )
        try:
            cost = estimate_cost(kind, params)
        except (TypeError, ValueError) as exc:
            raise ServeError("E_BAD_REQUEST", f"bad params: {exc}")
        with self._seq_lock:
            self._seq += 1
            seq = self._seq
        return Request(
            seq=seq,
            kind=kind,
            params=params,
            seed=seed,
            fingerprint=request_fingerprint(kind, params, seed),
            cost=cost,
            deadline=deadline,
            submitted=now,
            extra={"event": threading.Event()},
        )

    # -- introspection -------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "protocol_version": PROTOCOL_VERSION,
            "status": "draining" if self.admission.draining else "serving",
            "queue_depth": self.admission.depth(),
            "in_flight": self.executor.in_flight(),
            "outstanding": self.executor.outstanding(),
        }

    def stats(self) -> Dict[str, Any]:
        cfg = self.admission.config
        ecfg = self.executor.config
        out: Dict[str, Any] = {
            "ok": True,
            "admission": {
                "budget_m": cfg.budget_m,
                "epsilon": cfg.epsilon,
                "max_queue": cfg.max_queue,
                "oversized_factor": cfg.oversized_factor,
                "max_batch": cfg.max_batch,
                "max_cost": self.admission.max_cost,
            },
            "executor": {
                "workers": ecfg.workers,
                "max_attempts": ecfg.max_attempts,
                "quarantine_after": ecfg.quarantine_after,
                "engine": ecfg.engine,
            },
            "quarantined": self.executor.quarantined(),
        }
        if self.store is not None:
            out["store"] = self.store.stats().to_dict()
            out["store_path"] = str(self.store.root)
        return out


def _make_handler(server: ReproServer, request_timeout: float):
    """Bind a handler class to one :class:`ReproServer` instance."""

    class Handler(BaseHTTPRequestHandler):
        # slow-client stall protection: a socket that stops sending mid
        # body times out instead of pinning a handler thread forever
        timeout = request_timeout
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve/1"

        def log_message(self, fmt, *args):  # quiet by default
            pass

        # -- helpers ---------------------------------------------------
        def _reply_bytes(
            self,
            status: int,
            blob: bytes,
            content_type: str,
            extra_headers: Optional[Dict[str, str]] = None,
        ) -> None:
            """Every reply goes through here: explicit Content-Length and
            a charset-qualified Content-Type on every path."""
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(blob)))
            for key, value in (extra_headers or {}).items():
                self.send_header(key, value)
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(blob)

        def _reply(self, status: int, payload: Dict[str, Any]) -> None:
            self._reply_bytes(
                status, json.dumps(payload).encode(),
                "application/json; charset=utf-8",
            )

        def _reply_error(self, err: ServeError) -> None:
            self._reply(err.http_status, error_payload(err))

        def _read_body(self) -> Dict[str, Any]:
            header = self.headers.get("Content-Length") or "0"
            # ASCII digits only: int() would also take "-1", "+5" and "1_0"
            if not (header.isascii() and header.isdigit()) or (
                int(header) > MAX_BODY_BYTES
            ):
                # the body's extent is unknown or unread: the connection
                # cannot carry another request after this reply
                self.close_connection = True
                raise ServeError(
                    "E_BAD_REQUEST",
                    f"Content-Length {header!r} is not a byte count in "
                    f"[0, {MAX_BODY_BYTES}]",
                )
            length = int(header)
            raw = self.rfile.read(length) if length else b"{}"
            try:
                return json.loads(raw.decode() or "{}")
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ServeError("E_BAD_REQUEST", f"body is not JSON: {exc}")

        def _query(self) -> Tuple[str, Dict[str, str]]:
            """Split the request target into (path, last-wins query dict)."""
            parts = urlsplit(self.path)
            query = {
                k: v[-1] for k, v in parse_qs(parts.query, keep_blank_values=True).items()
            }
            return parts.path, query

        def _check_format(self, query: Dict[str, str], *supported: str) -> str:
            """Validate ``?format=`` against the endpoint's renderings
            (the first entry is the default); unknown values raise the
            structured 406."""
            fmt = query.get("format", supported[0])
            if fmt not in supported:
                raise ServeError(
                    "E_NOT_ACCEPTABLE",
                    f"unknown format {fmt!r}",
                    supported=list(supported),
                )
            return fmt

        def _get_metrics(self, query: Dict[str, str]) -> None:
            fmt = self._check_format(query, "json", "prom")
            if fmt == "prom":
                from repro.obs.prom import PROM_CONTENT_TYPE, prometheus_exposition

                text = prometheus_exposition(server.metrics.snapshot())
                self._reply_bytes(200, text.encode(), PROM_CONTENT_TYPE)
            else:
                self._reply(200, {"ok": True, "metrics": server.metrics.snapshot()})

        def _get_events(self, query: Dict[str, str]) -> None:
            self._check_format(query, "jsonl")
            try:
                since = int(query.get("since", 0))
                timeout = min(float(query.get("timeout", 10.0)), EVENTS_POLL_CAP_S)
                limit = max(1, int(query.get("max", 1000)))
            except (TypeError, ValueError) as exc:
                raise ServeError("E_BAD_REQUEST", f"bad events query: {exc}")
            events, latest = server.metrics.wait_events(
                since, timeout=timeout, limit=limit
            )
            blob = "".join(json.dumps(e) + "\n" for e in events).encode()
            self._reply_bytes(
                200, blob, "application/x-ndjson; charset=utf-8",
                extra_headers={"X-Repro-Events-Seq": str(latest)},
            )

        # -- routes ----------------------------------------------------
        def do_GET(self) -> None:
            try:
                path, query = self._query()
                try:
                    if path == "/v1/healthz":
                        self._check_format(query, "json")
                        self._reply(200, server.healthz())
                    elif path == "/v1/metrics":
                        self._get_metrics(query)
                    elif path == "/v1/events":
                        self._get_events(query)
                    elif path == "/v1/stats":
                        self._check_format(query, "json")
                        self._reply(200, server.stats())
                    else:
                        raise ServeError(
                            "E_BAD_REQUEST", f"unknown path {self.path}"
                        )
                except ServeError as err:
                    self._reply_error(err)
            except (BrokenPipeError, ConnectionResetError):  # client went away
                pass

        def do_POST(self) -> None:
            try:
                path, _query = self._query()
                if path == "/v1/submit":
                    try:
                        body = self._read_body()
                    except ServeError as err:
                        self._reply_error(err)
                        return
                    status, payload = server.submit(body)
                    self._reply(status, payload)
                elif path == "/v1/drain":
                    self._reply(202, {"ok": True, "status": "draining"})
                    threading.Thread(
                        target=server.drain, name="repro-serve-drain", daemon=True
                    ).start()
                else:
                    self._reply_error(
                        ServeError("E_BAD_REQUEST", f"unknown path {self.path}")
                    )
            except (BrokenPipeError, ConnectionResetError):
                pass

    return Handler
