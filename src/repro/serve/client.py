"""Minimal stdlib client for the ``repro serve`` daemon.

Structured rejections surface as :class:`ServeRequestError` carrying the
server's error code and detail — client code branches on ``err.code``
(``E_QUEUE_FULL`` → back off and retry, ``E_DEADLINE`` → give up,
``E_QUARANTINED`` → fix the request) instead of parsing strings.

Transport is TCP (``ServeClient("http://host:port")``, optionally with a
path prefix) or a Unix-domain socket (``ServeClient(uds="/path.sock")``)
when the daemon was started with ``--uds`` — same protocol, same
payloads, no open port.  Both go through one exchange,
:meth:`ServeClient._call_raw`: a fresh ``http.client`` connection per
call, one request sent with ``Connection: close``, the whole reply read,
the connection closed.  Proxy variables (``http_proxy`` and kin) are not
read.  A reply of HTTP 400 or above raises :class:`ServeRequestError`,
and a body that is not JSON where JSON is due is ``E_INTERNAL``.
"""

from __future__ import annotations

import functools
import http.client
import json
import socket
from typing import Any, Dict, Optional
from urllib.parse import urlsplit

__all__ = ["ServeClient", "ServeRequestError"]


class ServeRequestError(Exception):
    """A structured error answer from the daemon."""

    def __init__(self, code: str, detail: str, http_status: int,
                 extra: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(f"{code} (HTTP {http_status}): {detail}")
        self.code = code
        self.detail = detail
        self.http_status = http_status
        self.extra = extra or {}


class _UnixHTTPConnection(http.client.HTTPConnection):
    """``http.client`` connection over an AF_UNIX socket path."""

    def __init__(self, path: str, timeout: Optional[float] = None) -> None:
        super().__init__("localhost", timeout=timeout)
        self._uds_path = path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if self.timeout is not None:
            sock.settimeout(self.timeout)
        sock.connect(self._uds_path)
        self.sock = sock


def _json_body(raw: bytes, status: int) -> Any:
    """Decode a reply body; one that is not JSON is ``E_INTERNAL``."""
    try:
        return json.loads(raw.decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise ServeRequestError(
            "E_INTERNAL", f"non-JSON body (HTTP {status})", status
        ) from None


class ServeClient:
    """Talk to one daemon; all calls are synchronous.

    Exactly one transport: pass ``url`` (``http://host[:port][/prefix]``)
    for TCP or ``uds`` for a Unix-domain socket path.
    """

    def __init__(
        self,
        url: Optional[str] = None,
        timeout: float = 120.0,
        *,
        uds: Optional[str] = None,
    ) -> None:
        if (url is None) == (uds is None):
            raise ValueError("pass exactly one of url= or uds=")
        self.url = None if url is None else url.rstrip("/")
        self.uds = uds
        self.timeout = timeout
        if uds is not None:
            self._connect = functools.partial(_UnixHTTPConnection, uds)
            self._prefix = ""
            return
        # http.client speaks plain HTTP to whatever it is pointed at
        try:
            parts = urlsplit(self.url)
            parts.port  # raises unless the port is an integer in 0-65535
            ok = (parts.scheme == "http" and bool(parts.hostname)
                  and "@" not in parts.netloc and not (parts.query or parts.fragment))
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"url must be http://host[:port][/prefix], got {url!r}")
        self._connect = functools.partial(http.client.HTTPConnection, parts.netloc)
        self._prefix = parts.path

    # -- transport -----------------------------------------------------
    def _call_raw(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> "tuple[int, Dict[str, str], bytes]":
        """One exchange on a fresh connection: returns ``(status,
        headers, body bytes)``.  A reply of HTTP 400 or above raises
        :class:`ServeRequestError` with the daemon's error code."""
        headers = {"Connection": "close", "Content-Type": "application/json"}
        data = None if body is None else json.dumps(body).encode()
        conn = self._connect(timeout=timeout or self.timeout)
        try:
            conn.request(method, self._prefix + path, body=data, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
        finally:
            conn.close()
        if resp.status >= 400:
            err = _json_body(raw, resp.status).get("error", {})
            raise ServeRequestError(
                err.get("code", "E_INTERNAL"),
                err.get("detail", "unknown error"),
                resp.status,
                {k: v for k, v in err.items() if k not in ("code", "detail")},
            )
        return resp.status, dict(resp.getheaders()), raw

    def _call(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        status, _headers, raw = self._call_raw(method, path, body, timeout)
        return _json_body(raw, status)

    # -- API -----------------------------------------------------------
    def submit(
        self,
        kind: str,
        params: Optional[Dict[str, Any]] = None,
        *,
        seed: int = 0,
        deadline_s: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Submit and block for the answer (long-poll).

        Returns the full ``ok`` payload (``result``, ``cached``,
        ``attempts``, ``fingerprint``, ...); raises
        :class:`ServeRequestError` on a structured rejection.
        """
        body: Dict[str, Any] = {"kind": kind, "params": params or {}, "seed": seed}
        if deadline_s is not None:
            body["deadline_s"] = deadline_s
        return self._call("POST", "/v1/submit", body, timeout=timeout)

    def ping(self) -> Dict[str, Any]:
        return self.submit("ping")

    def healthz(self) -> Dict[str, Any]:
        return self._call("GET", "/v1/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._call("GET", "/v1/metrics")["metrics"]

    def metrics_prom(self) -> str:
        """The registry as Prometheus text exposition (``?format=prom``)."""
        _status, _headers, raw = self._call_raw("GET", "/v1/metrics?format=prom")
        return raw.decode()

    def events(
        self,
        since: int = 0,
        timeout: float = 10.0,
        max_events: int = 1000,
    ) -> "tuple[list[Dict[str, Any]], int]":
        """Long-poll ``/v1/events``: block until events newer than
        ``since`` exist (or the server timeout lapses).  Returns
        ``(events, latest_seq)``; pass ``latest_seq`` back as the next
        ``since`` cursor."""
        path = f"/v1/events?since={int(since)}&timeout={timeout:g}&max={int(max_events)}"
        # the HTTP read must outlive the server-side poll
        _status, headers, raw = self._call_raw(
            "GET", path, timeout=timeout + 10.0
        )
        events = [json.loads(line) for line in raw.decode().splitlines() if line]
        latest = int(headers.get("X-Repro-Events-Seq", since))
        if events:
            latest = max(latest, max(e.get("seq", 0) for e in events))
        return events, latest

    def stats(self) -> Dict[str, Any]:
        return self._call("GET", "/v1/stats")

    def drain(self) -> Dict[str, Any]:
        return self._call("POST", "/v1/drain")
