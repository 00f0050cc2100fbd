"""Request execution behind the admission controller: handlers, the
response cache, deadline enforcement, and the crash/retry/quarantine
state machine.

Layout:

* a single **dispatcher** thread pulls Unbalanced-Send rounds from the
  :class:`repro.serve.admission.AdmissionController` and feeds requests,
  in service order, to a bounded pool of **worker** threads;
* the workers do each request's bookkeeping — deadline and quarantine
  checks, cache get/put, retry/backoff, chaos — and hand its compute to
  the **compute lane** of :mod:`repro.serve.engine`, one thread that
  runs every compute in turn (the GIL lets one thread compute at a time
  anyway, and a single computing thread keeps a single malloc arena);
* each request carries a ``threading.Event`` in ``Request.extra``; the
  HTTP handler that accepted it blocks on that event, so an admitted
  request always gets an answer — success or structured error — before
  its connection closes (the zero-loss drain guarantee);
* results of deterministic kinds (``scenario``, ``experiment``) are
  cached in the crash-safe :class:`repro.store.DiskStore` under
  ``("response", fingerprint)`` keys, so a warm-cache reply is the
  *same object* the cold run produced — bit-identical by construction;
* a failing request is retried with exponential backoff
  (``base · 2^(attempt-1)``, capped); once a content fingerprint has
  accumulated ``quarantine_after`` failures it is quarantined and all
  future submissions shed with ``E_QUARANTINED`` (poison-request
  containment).  :class:`repro.serve.chaos.ChaosPlan` injects the seeded
  worker kills these paths are tested against;
* every compute runs once, alone, on the lane, in the daemon's own
  process: a ``scenario`` is one :func:`run_scenario` call and an
  ``experiment`` runs at ``jobs=1``.

Determinism contract: handlers derive every RNG from the *request's*
seed via :func:`repro.util.rng.derive_seed_sequence`, never from server
state, so a daemon-served result equals the same library call made
directly — cold, warm, or after a crash-retry.

Everything the handlers compute with (NumPy, the engine, the models,
scheduling) is imported inside them, so a daemon answering only pings
and cache hits never loads it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.serve.admission import AdmissionController
from repro.serve.chaos import ChaosPlan
from repro.serve.engine import ComputeLane
from repro.serve.protocol import KINDS, Request, ServeError, is_integer, is_positive
from repro.serve.telemetry import ServerMetrics
from repro.store.disk import DiskStore

if TYPE_CHECKING:
    from repro.core.engine import RunAborted

__all__ = [
    "ExecutorConfig",
    "RequestExecutor",
    "experiment_params",
    "run_scenario",
]


@dataclass(frozen=True)
class ExecutorConfig:
    """Tunables of the execution/retry layer."""

    workers: int = 4  # bookkeeping threads; compute runs on the one lane
    max_attempts: int = 3  # tries per submission before E_CRASHED
    backoff_base: float = 0.05  # seconds; attempt k sleeps base * 2^(k-1)
    backoff_cap: float = 2.0  # ceiling on a single backoff sleep
    quarantine_after: int = 3  # cumulative failures before E_QUARANTINED

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1, got {self.quarantine_after}"
            )

    def backoff(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based)."""
        return min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 1))


# ----------------------------------------------------------------------
# handlers — module-level pure functions so tests can call them directly
# and assert bit-identity with the daemon's answers
# ----------------------------------------------------------------------


def _aborted_error(exc: RunAborted) -> ServeError:
    """The structured reply for a run that raised ``RunAborted``: a
    deadline abort is ``E_DEADLINE`` naming its superstep, any other
    abort is ``E_INTERNAL``."""
    if exc.reason == "deadline":
        return ServeError(
            "E_DEADLINE",
            f"deadline expired mid-run at superstep {exc.superstep}",
            superstep=exc.superstep,
        )
    return ServeError("E_INTERNAL", f"run aborted: {exc}")


def run_scenario(
    params: Dict[str, Any], seed: int, *, deadline: Optional[float] = None
) -> Dict[str, Any]:
    """Route one h-relation on a BSP(m): the ``scenario`` kind.

    Pure in ``(params, seed)`` — the daemon's answer for a scenario is
    exactly this function's return value, which is how the determinism
    tests compare served vs. direct execution.  Params are read through
    :func:`repro.serve.protocol.scenario_params`, which supplies the
    defaults and rejects bad values with ``E_BAD_REQUEST``.  ``deadline``
    (absolute monotonic) aborts the run before its superstep 0 with
    ``RunAborted(reason="deadline")``.
    """
    from repro.models.bsp_m import BSPm
    from repro.core.params import MachineParams
    from repro.scheduling import evaluate_schedule
    from repro.scheduling.execute import execute_schedule
    from repro.scheduling.static_send import unbalanced_send
    from repro.serve.protocol import scenario_params
    from repro.util.rng import derive_seed_sequence
    from repro.workloads.relations import build_relation

    pp = scenario_params(params)
    p, m, L, workload = pp["p"], pp["m"], pp["L"], pp["workload"]
    rel = build_relation(
        workload, p, pp["n"], pp["alpha"],
        derive_seed_sequence(seed, "scenario", workload),
    )
    sched = unbalanced_send(
        rel, m, pp["epsilon"],
        seed=derive_seed_sequence(seed, "scenario", "route"),
    )
    res = execute_schedule(
        BSPm(MachineParams(p=p, m=m, L=L)), sched, deadline=deadline
    )
    return {
        "kind": "scenario",
        "workload": workload,
        "p": p,
        "n": int(rel.n),
        "m": m,
        "model_time": float(res.time),
        "supersteps": int(res.supersteps),
        "schedule": evaluate_schedule(sched, m=m, L=L).to_dict(),
    }


def _experiment_value(name: str, key: str, value: Any, default: Any) -> Any:
    """``value`` checked against the type of the parameter's ``default``
    (an integral float for an int parameter comes back as an int), or
    ``E_BAD_REQUEST``."""
    if isinstance(default, bool):
        ok, want = isinstance(value, bool), "a boolean"
    elif isinstance(default, int):
        ok, want = is_integer(value, 1), "an integer >= 1"
        if ok:
            value = int(value)
    elif isinstance(default, float):
        ok, want = is_positive(value), "a finite number > 0"
    elif isinstance(default, tuple):
        ok = isinstance(value, list) and bool(value) and all(map(is_positive, value))
        want = "a non-empty list of finite numbers > 0"
    else:
        return value
    if not ok:
        raise ServeError(
            "E_BAD_REQUEST",
            f"experiment {name!r} param {key} must be {want}, got {value!r}",
        )
    return value


def experiment_params(params: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """A served experiment's name and keyword arguments, or
    ``E_BAD_REQUEST``.

    ``params.name`` must be a registered experiment; every other key must
    be one of its parameters.  Placement follows the daemon's machine,
    never the client, so ``jobs`` is not accepted.  Each value other than
    ``seed`` (the request's seed replaces it) is checked against the
    parameter's default: a bool default takes a JSON boolean, an int
    default an integer >= 1 (an integral float such as ``8e2`` is
    accepted), a float default a finite number > 0, a tuple default a
    non-empty list of finite numbers > 0, and ``on_error`` a sweep error
    policy (:func:`repro.sweep.parse_on_error`).
    """
    import inspect

    from repro.experiments import EXPERIMENTS
    from repro.sweep import parse_on_error

    kwargs = dict(params)
    name = kwargs.pop("name", None)
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ServeError(
            "E_BAD_REQUEST",
            f"params.name must be a registered experiment, got {name!r}",
            choices=sorted(EXPERIMENTS),
        )
    defaults = {
        key: param.default
        for key, param in inspect.signature(EXPERIMENTS[name]).parameters.items()
        if key != "jobs"
    }
    unknown = sorted(set(kwargs) - set(defaults))
    if unknown:
        raise ServeError(
            "E_BAD_REQUEST",
            f"experiment {name!r} does not accept {unknown}",
            accepted=sorted(defaults),
        )
    for key, value in kwargs.items():
        if key == "seed":
            continue
        if key == "on_error":
            try:
                parse_on_error(value)
            except ValueError as exc:
                raise ServeError("E_BAD_REQUEST", str(exc))
            continue
        kwargs[key] = _experiment_value(name, key, value, defaults[key])
    return name, kwargs


def _run_experiment_kind(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """The ``experiment`` kind: a registered experiment by name, run in
    the daemon's process at the experiment's default ``jobs=1``.

    Params are checked first (:func:`experiment_params`), so input the
    experiment cannot run is ``E_BAD_REQUEST``, never a crash.  The
    request seed *always* wins over any seed smuggled into params: the
    fingerprint covers the seed field.
    """
    from repro.experiments import run_experiment

    name, kwargs = experiment_params(params)
    kwargs["seed"] = seed
    return {"kind": "experiment", "name": name,
            "result": run_experiment(name, **kwargs)}


# ----------------------------------------------------------------------
# the executor proper
# ----------------------------------------------------------------------


class RequestExecutor:
    """Dispatcher + worker pool with retry, quarantine, and caching."""

    def __init__(
        self,
        admission: AdmissionController,
        metrics: ServerMetrics,
        *,
        config: Optional[ExecutorConfig] = None,
        store: Optional[DiskStore] = None,
        chaos: Optional[ChaosPlan] = None,
    ) -> None:
        self.admission = admission
        self.metrics = metrics
        self.config = config or ExecutorConfig()
        self.store = store
        self.chaos = chaos or ChaosPlan()
        self._lane = ComputeLane(metrics)
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._in_flight = 0
        self._outstanding = 0  # admitted but not yet completed
        self._failures: Dict[str, int] = {}  # fingerprint -> crash count
        self._quarantined: Dict[str, str] = {}  # fingerprint -> last error
        self._work: "list[Request]" = []
        self._work_ready = threading.Condition(self._lock)
        self._stop = False
        self._threads: list[threading.Thread] = []

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        self._lane.start()
        dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
        )
        dispatcher.start()
        self._threads.append(dispatcher)
        for i in range(self.config.workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"repro-serve-worker-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)

    def stop(self) -> None:
        with self._lock:
            self._stop = True
            self._work_ready.notify_all()
            self._idle.notify_all()
        self.admission.start_drain()
        self._lane.shutdown()

    def note_admitted(self) -> None:
        """Called by the server right after ``admission.submit`` succeeds.

        The outstanding counter is the drain invariant: it covers a
        request through *every* intermediate state — queued, mid-round in
        the dispatcher, in ``_work``, running — and only drops when its
        completion event is set, so ``wait_idle`` cannot return early in
        the window where a round has left the admission queue but not yet
        reached the worker list.
        """
        with self._lock:
            self._outstanding += 1

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until every admitted request has been answered.

        This is the drain barrier: with admission closed, idle means
        every accepted request has had its completion event set.
        """
        end = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._outstanding:
                remaining = None if end is None else end - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining if remaining is not None else 0.5)
            return True

    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def cache_hit_count(self) -> int:
        """Served-from-cache count so far (rides the round event stream)."""
        with self.metrics._lock:
            return int(self.metrics.registry.counter("serve.cache.hits").value)

    def outstanding(self) -> int:
        with self._lock:
            return self._outstanding

    # -- quarantine ----------------------------------------------------
    def check_quarantine(self, fingerprint: str) -> None:
        """Raise ``E_QUARANTINED`` if this content is poisoned (called by
        the server *before* admission, so poison never occupies queue)."""
        with self._lock:
            last = self._quarantined.get(fingerprint)
        if last is not None:
            raise ServeError(
                "E_QUARANTINED",
                f"request fingerprint {fingerprint} is quarantined after "
                f"{self.config.quarantine_after} failures",
                last_error=last,
            )

    def quarantined(self) -> Dict[str, str]:
        with self._lock:
            return dict(self._quarantined)

    # -- dispatch / workers --------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                if self._stop:
                    return
            rnd = self.admission.next_round(timeout=0.1)
            if rnd is None:
                continue
            depth = self.admission.depth()
            self.metrics.round_scheduled(
                rnd.window, rnd.overloaded_slots, len(rnd.order),
                queue_depth=depth,
                cache_hits=self.cache_hit_count(),
            )
            self.metrics.gauge("queue.depth", depth)
            with self._lock:
                for _slot, req in rnd.order:  # already in service order
                    self._work.append(req)
                self._work_ready.notify_all()

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._work and not self._stop:
                    self._work_ready.wait(0.25)
                if self._stop and not self._work:
                    return
                req = self._work.pop(0)
                self._in_flight += 1
                self.metrics.gauge("inflight", self._in_flight)
            try:
                self._serve_one(req)
            finally:
                with self._lock:
                    self._in_flight -= 1
                    self.metrics.gauge("inflight", self._in_flight)
                    self._idle.notify_all()

    # -- per-request execution -----------------------------------------
    def _serve_one(self, req: Request) -> None:
        started = time.monotonic()
        self.metrics.observe("wait_s", started - req.submitted)
        try:
            payload = self._execute(req)
            self._complete(req, payload, None)
            self.metrics.inc("requests.ok")
        except ServeError as err:
            self.metrics.shed(err.code)
            self.metrics.inc("requests.failed")
            self._complete(req, None, err)
        except Exception as exc:  # defense: never let a worker die silently
            err = ServeError("E_INTERNAL", f"{type(exc).__name__}: {exc}")
            self.metrics.shed(err.code)
            self.metrics.inc("requests.failed")
            self._complete(req, None, err)
        finally:
            self.metrics.observe("service_s", time.monotonic() - started)

    def _complete(
        self, req: Request, payload: Any, error: Optional[ServeError]
    ) -> None:
        req.extra["result"] = payload
        req.extra["error"] = error
        with self._lock:
            if self._outstanding > 0:
                self._outstanding -= 1
            self._idle.notify_all()
        event = req.extra.get("event")
        if event is not None:
            event.set()

    def _check_deadline(self, req: Request) -> None:
        if req.deadline is not None and time.monotonic() > req.deadline:
            raise ServeError(
                "E_DEADLINE",
                f"request deadline expired before service "
                f"(waited {time.monotonic() - req.submitted:.3f}s in queue)",
            )

    def _cache_get(self, req: Request) -> Optional[Dict[str, Any]]:
        if self.store is None or req.kind == "ping":
            return None
        hit, value = self.store.get(("response", req.fingerprint))
        return value if hit else None

    def _cache_put(self, req: Request, payload: Dict[str, Any]) -> None:
        if self.store is not None and req.kind != "ping":
            self.store.put(("response", req.fingerprint), payload)

    def _execute(self, req: Request) -> Dict[str, Any]:
        self._check_deadline(req)
        self.check_quarantine(req.fingerprint)
        cached = self._cache_get(req)
        if cached is not None:
            self.metrics.inc("cache.hits")
            return {"cached": True, "attempts": 0, "payload": cached}
        if req.kind != "ping":
            self.metrics.inc("cache.misses")

        cfg = self.config
        attempt = 0
        while True:
            attempt += 1
            req.attempts = attempt
            try:
                self.chaos.kill_if_planned(req.fingerprint, attempt)
                payload = self._handle(req)
            except ServeError:
                raise
            except Exception as exc:
                self.metrics.inc("worker.crashes")
                with self._lock:
                    self._failures[req.fingerprint] = (
                        self._failures.get(req.fingerprint, 0) + 1
                    )
                    failures = self._failures[req.fingerprint]
                    poisoned = failures >= cfg.quarantine_after
                    if poisoned and req.fingerprint not in self._quarantined:
                        self._quarantined[req.fingerprint] = repr(exc)
                        self.metrics.inc("retry.quarantined")
                if poisoned:
                    raise ServeError(
                        "E_CRASHED",
                        f"request crashed {failures} times and is now "
                        f"quarantined: {exc!r}",
                        attempts=attempt,
                        quarantined=True,
                    )
                if attempt >= cfg.max_attempts:
                    raise ServeError(
                        "E_CRASHED",
                        f"request failed after {attempt} attempts: {exc!r}",
                        attempts=attempt,
                    )
                self.metrics.inc("retry.attempts")
                self._check_deadline(req)  # don't sleep past the deadline
                time.sleep(cfg.backoff(attempt))
                continue
            self._cache_put(req, payload)
            return {"cached": False, "attempts": attempt, "payload": payload}

    def _handle(self, req: Request) -> Dict[str, Any]:
        if req.kind == "ping":
            return {"kind": "ping", "seed": req.seed}
        if req.kind not in KINDS:
            raise ServeError(
                "E_BAD_REQUEST", f"unknown kind {req.kind!r}; choose one of {KINDS}"
            )
        return self._lane.call(req.kind, req.params, req.seed, req.deadline)
