"""Wire protocol of the ``repro serve`` daemon: request/response shapes,
structured error codes, canonical fingerprints, and cost estimation.

Everything is JSON over HTTP.  A request is::

    POST /v1/submit
    {"kind": "scenario", "params": {...}, "seed": 0, "deadline_s": 5.0}

and the response is either ``{"ok": true, "result": {...}, ...}`` or a
*structured* rejection ``{"ok": false, "error": {"code": "E_QUEUE_FULL",
...}}`` with a matching HTTP status — the daemon sheds load explicitly,
it never hangs a client.

Two protocol invariants matter for the rest of the stack:

* :func:`request_fingerprint` is the canonical identity of a request's
  *content* — the quarantine list, the response cache, and the chaos
  plan's deterministic kill decisions all key on it, so it must not
  depend on submission order, request ids, or wall clock.
* :func:`estimate_cost` is the request's size ``x_i`` in flits for the
  Unbalanced-Send admission discipline (:mod:`repro.serve.admission`) —
  the paper's "processor with x_i flits to send" maps to "request with
  x_i flits of simulated traffic".

:func:`scenario_params` is the one definition of a scenario's parameters:
the daemon rejects bad ones at submit with ``E_BAD_REQUEST``, and the
scenario handler takes its defaults from it.  Like the rest of this
module it is plain Python, so the daemon's front end never imports
NumPy.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = [
    "PROTOCOL_VERSION",
    "ERROR_CODES",
    "KINDS",
    "SCENARIO_DEFAULTS",
    "SCENARIO_WORKLOADS",
    "Request",
    "ServeError",
    "canonical_params",
    "error_payload",
    "estimate_cost",
    "is_integer",
    "is_positive",
    "ok_payload",
    "request_fingerprint",
    "scenario_params",
]

PROTOCOL_VERSION = 1

#: request kinds the executor knows how to serve.  ``scenario`` routes one
#: h-relation (bit-identical to the batch ``route()`` call at the same
#: seed); ``experiment`` runs a registered experiment in the daemon's
#: process at ``jobs=1``; ``ping`` is the health/latency probe (cost 1,
#: never cached).
KINDS = ("ping", "scenario", "experiment")

#: code -> HTTP status.  E_QUEUE_FULL is the 429-style load shed of the
#: bounded admission queue; E_OVERSIZED sheds requests larger than the
#: configured multiple of the send window; E_DEADLINE is an expired
#: per-request deadline (at admission, in queue, or mid-run via
#: ``RunAborted``); E_QUARANTINED rejects content fingerprints that
#: crashed too many times; E_DRAINING rejects new work during SIGTERM
#: drain; E_CRASHED is a request that kept failing before quarantine
#: kicked in; E_NOT_ACCEPTABLE rejects an unknown ``?format=`` on a GET
#: endpoint (the supported renderings are listed in the error payload).
ERROR_CODES: Dict[str, int] = {
    "E_BAD_REQUEST": 400,
    "E_NOT_ACCEPTABLE": 406,
    "E_OVERSIZED": 413,
    "E_QUARANTINED": 422,
    "E_QUEUE_FULL": 429,
    "E_CRASHED": 500,
    "E_INTERNAL": 500,
    "E_DRAINING": 503,
    "E_DEADLINE": 504,
}


class ServeError(Exception):
    """A structured rejection; serialized by :func:`error_payload`."""

    def __init__(self, code: str, detail: str, **extra: Any) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail
        self.http_status = ERROR_CODES[code]
        self.extra = extra


@dataclass
class Request:
    """One admitted unit of work, as the admission queue carries it."""

    seq: int  # server-assigned submission sequence number
    kind: str
    params: Dict[str, Any]
    seed: int
    fingerprint: str
    cost: int  # flits, for the Unbalanced-Send draw
    deadline: Optional[float]  # absolute time.monotonic(), None = no deadline
    submitted: float  # time.monotonic() at acceptance
    attempts: int = 0


def canonical_params(params: Dict[str, Any]) -> str:
    """Order-independent canonical JSON of a params dict (the only value
    shapes the wire accepts are JSON-native already)."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def request_fingerprint(kind: str, params: Dict[str, Any], seed: int) -> str:
    """Content identity of a request — stable across submissions."""
    blob = f"{kind}\n{canonical_params(params)}\n{seed}".encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def estimate_cost(kind: str, params: Dict[str, Any]) -> int:
    """The request's Unbalanced-Send size ``x_i`` in flits.

    Scenario cost is its relation size ``n``; experiment cost scales the
    per-trial flit volume by the trial count.  Estimates only steer
    scheduling fairness and oversized shedding — they never change
    results.
    """
    if kind == "ping":
        return 1
    n = int(params.get("n", 20_000))
    if kind == "scenario":
        return max(1, n)
    trials = int(params.get("trials", 1))
    return max(1, n * max(1, trials))


#: a scenario's parameters and their defaults
SCENARIO_DEFAULTS: Dict[str, Any] = {
    "p": 64, "n": 20_000, "m": 32, "L": 1.0,
    "epsilon": 0.2, "alpha": 1.2, "workload": "uniform",
}

#: the relation shapes a scenario can route
SCENARIO_WORKLOADS = ("uniform", "zipf", "balanced", "one_to_all")

#: integer scenario params and their least valid value
_SCENARIO_INTS = {"p": 1, "n": 0, "m": 1}


def _finite(value: Any) -> bool:
    """A JSON number, not a boolean, whose float value is finite:
    ``json.loads`` reads ``Infinity`` and ``1e400`` as inf, and an
    integer literal can exceed the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


def is_integer(value: Any, least: int) -> bool:
    """``value`` is an integer >= ``least``; an integral float such as
    ``2e4`` counts, a boolean does not."""
    return _finite(value) and value == int(value) and value >= least


def is_positive(value: Any) -> bool:
    """``value`` is a finite number > 0, not a boolean."""
    return _finite(value) and value > 0


def scenario_params(params: Dict[str, Any]) -> Dict[str, Any]:
    """A scenario's params with every default filled in, or
    ``E_BAD_REQUEST``.

    ``p`` and ``m`` are integers >= 1 and ``n`` an integer >= 0 (an
    integral float such as ``2e4`` is accepted); ``L``, ``epsilon`` and
    ``alpha`` are finite numbers > 0; ``workload`` is one of
    :data:`SCENARIO_WORKLOADS`.  Any other key is rejected.
    """
    unknown = sorted(set(params) - set(SCENARIO_DEFAULTS))
    if unknown:
        raise ServeError(
            "E_BAD_REQUEST", f"scenario does not accept {unknown}",
            accepted=sorted(SCENARIO_DEFAULTS),
        )
    out = {**SCENARIO_DEFAULTS, **params}
    for key, value in out.items():
        if key == "workload":
            if value not in SCENARIO_WORKLOADS:
                raise ServeError(
                    "E_BAD_REQUEST",
                    f"unknown workload {value!r}; choose one of {SCENARIO_WORKLOADS}",
                )
            continue
        if key in _SCENARIO_INTS:
            least = _SCENARIO_INTS[key]
            if not is_integer(value, least):
                raise ServeError(
                    "E_BAD_REQUEST",
                    f"scenario {key} must be an integer >= {least}, got {value!r}",
                )
            out[key] = int(value)
        else:
            if not is_positive(value):
                raise ServeError(
                    "E_BAD_REQUEST",
                    f"scenario {key} must be a finite number > 0, got {value!r}",
                )
            out[key] = float(value)
    return out


def ok_payload(result: Any, **meta: Any) -> Dict[str, Any]:
    out = {"ok": True, "protocol_version": PROTOCOL_VERSION, "result": result}
    out.update(meta)
    return out


def error_payload(err: ServeError) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "ok": False,
        "protocol_version": PROTOCOL_VERSION,
        "error": {"code": err.code, "detail": err.detail, **err.extra},
    }
    return payload
