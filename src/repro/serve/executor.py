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
* results of deterministic kinds (``scenario``, ``experiment``,
  ``sweep``) are cached in the crash-safe :class:`repro.store.DiskStore`
  under ``("response", fingerprint)`` keys, so a warm-cache reply is the
  *same object* the cold run produced — bit-identical by construction;
* a failing request is retried with exponential backoff
  (``base · 2^(attempt-1)``, capped); once a content fingerprint has
  accumulated ``quarantine_after`` failures it is quarantined and all
  future submissions shed with ``E_QUARANTINED`` (poison-request
  containment).  :class:`repro.serve.chaos.ChaosPlan` injects the seeded
  worker kills these paths are tested against;
* a worker popping a deadline-free ``scenario`` also pops every queued
  request that matches it in everything but ``L`` (same seed and params
  otherwise, up to :data:`MAX_COALESCE`) and answers the group from one
  :func:`run_scenario_batch` call on the lane — the same function that
  answers a solo scenario as a batch of one, so each member's payload is
  its solo answer.  Per-request caching, chaos, retry, and quarantine
  bookkeeping are untouched.

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
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.serve.admission import AdmissionController
from repro.serve.chaos import ChaosPlan
from repro.serve.engine import ComputeLane
from repro.serve.protocol import KINDS, Request, ServeError
from repro.serve.telemetry import ServerMetrics
from repro.store.disk import DiskStore

if TYPE_CHECKING:
    from repro.core.engine import RunAborted

__all__ = [
    "MAX_COALESCE",
    "ExecutorConfig",
    "RequestExecutor",
    "run_scenario",
    "run_scenario_batch",
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


#: requests fused into a single coalesced scenario batch, at most
MAX_COALESCE = 16


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
    """Route one h-relation on a BSP(m): the ``scenario`` kind, and the
    batch of one of :func:`run_scenario_batch`.

    Pure in ``(params, seed)`` — the daemon's answer for a scenario is
    exactly this function's return value, which is how the determinism
    tests compare served vs. direct execution.  ``deadline`` (absolute
    monotonic) aborts the run before its superstep 0 with
    ``RunAborted(reason="deadline")``.
    """
    return run_scenario_batch([params], seed, deadline=deadline)[0]


def run_scenario_batch(
    params_list: "list[Dict[str, Any]]",
    seed: int,
    *,
    deadline: Optional[float] = None,
) -> "list[Dict[str, Any]]":
    """Scenario requests that differ only in ``L``, in one fused pass.

    The scenario handler factors cleanly: the workload relation, the
    Unbalanced-Send schedule, and the recorded routing structure depend
    on ``(workload, p, n, m, epsilon, alpha, seed)`` but *not* on ``L``
    — latency only re-prices the recorded superstep.  So a burst of
    compatible requests costs one relation build, one schedule, one
    compiled program, and one
    :func:`repro.scheduling.execute.execute_schedule_batch` pass; a solo
    scenario is the batch of one.  Params are read through
    :func:`repro.serve.protocol.scenario_params`, which supplies the
    defaults and rejects bad values with ``E_BAD_REQUEST``.
    """
    from repro.models.bsp_m import BSPm
    from repro.core.params import MachineParams
    from repro.scheduling import evaluate_schedule
    from repro.scheduling.execute import execute_schedule_batch
    from repro.scheduling.static_send import unbalanced_send
    from repro.serve.protocol import scenario_params
    from repro.util.rng import derive_seed_sequence
    from repro.workloads.relations import build_relation

    trials = [scenario_params(pp) for pp in params_list]
    base = trials[0]
    p, m, workload = base["p"], base["m"], base["workload"]
    rel = build_relation(
        workload, p, base["n"], base["alpha"],
        derive_seed_sequence(seed, "scenario", workload),
    )
    sched = unbalanced_send(
        rel, m, base["epsilon"],
        seed=derive_seed_sequence(seed, "scenario", "route"),
    )
    machines = [BSPm(MachineParams(p=p, m=m, L=t["L"])) for t in trials]
    runs = execute_schedule_batch(machines, sched, deadline=deadline)
    return [
        {
            "kind": "scenario",
            "workload": workload,
            "p": p,
            "n": int(rel.n),
            "m": m,
            "model_time": float(res.time),
            "supersteps": int(res.supersteps),
            "schedule": evaluate_schedule(sched, m=m, L=mach.params.L).to_dict(),
        }
        for mach, res in zip(machines, runs)
    ]


def _coalesce_key(req: Request) -> Optional[Any]:
    """Batch-compatibility key, or ``None`` when the request must run
    alone.  Only deadline-free scenarios coalesce, and only with requests
    sharing the same seed and every parameter except ``L`` — exactly the
    precondition of :func:`run_scenario_batch`."""
    if req.kind != "scenario" or req.deadline is not None:
        return None
    from repro.serve.protocol import canonical_params

    rest = {k: v for k, v in req.params.items() if k != "L"}
    return (req.seed, canonical_params(rest))


class _ScenarioBatch:
    """Lazily-computed fused result shared by one coalesced group.

    The batch runs at most once, on the compute lane, for the first
    member that actually needs a compute (members answered from the
    response cache never trigger it).  A member's retry reuses the
    already-computed value — the handlers are pure in ``(params, seed)``,
    so recomputing could only return the same payload.
    """

    def __init__(self, requests: "list[Request]", lane: ComputeLane) -> None:
        self.requests = list(requests)
        self._lane = lane
        self._payloads: Optional[Dict[int, Dict[str, Any]]] = None

    def payload_for(self, req: Request) -> Dict[str, Any]:
        if self._payloads is None:
            results = self._lane.run(
                run_scenario_batch,
                [r.params for r in self.requests],
                self.requests[0].seed,
            )
            self._payloads = {
                id(r): res for r, res in zip(self.requests, results)
            }
        return self._payloads[id(req)]


def _run_experiment_kind(
    kind: str, params: Dict[str, Any], seed: int
) -> Dict[str, Any]:
    """``experiment`` / ``sweep`` kinds: a registered experiment by name.

    Placement follows the daemon's machine, never the client: a request
    cannot set ``jobs``.  ``experiment`` runs at the experiment's default
    ``jobs=1``; ``sweep`` runs at ``jobs=0`` (all usable cores) and
    defaults to the skip-don't-die error policy, which a request may
    override with ``on_error``.  The request seed *always* wins over any
    seed smuggled into params: the fingerprint covers the seed field.
    """
    import inspect

    from repro.experiments import EXPERIMENTS, UnknownExperimentError, run_experiment

    params = dict(params)
    name = params.pop("name", None)
    if not name or name not in EXPERIMENTS:
        raise ServeError(
            "E_BAD_REQUEST",
            f"params.name must be a registered experiment, got {name!r}",
            choices=sorted(EXPERIMENTS),
        )
    accepted = set(inspect.signature(EXPERIMENTS[name]).parameters) - {"jobs"}
    unknown = sorted(set(params) - accepted)
    if unknown:
        raise ServeError(
            "E_BAD_REQUEST",
            f"experiment {name!r} does not accept {unknown}",
            accepted=sorted(accepted),
        )
    kwargs = dict(params)
    kwargs["seed"] = seed
    if kind == "sweep":
        kwargs["jobs"] = 0
        if "on_error" in accepted:
            kwargs.setdefault("on_error", "skip")
    try:
        result = run_experiment(name, **kwargs)
    except UnknownExperimentError as exc:  # pragma: no cover - pre-checked
        raise ServeError("E_BAD_REQUEST", str(exc))
    return {"kind": kind, "name": name, "result": result}


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
                group = [req]
                if self._work:
                    key = _coalesce_key(req)
                    if key is not None:
                        keep: "list[Request]" = []
                        for other in self._work:
                            if (
                                len(group) < MAX_COALESCE
                                and _coalesce_key(other) == key
                            ):
                                group.append(other)
                            else:
                                keep.append(other)
                        if len(group) > 1:
                            self._work[:] = keep
                self._in_flight += len(group)
                self.metrics.gauge("inflight", self._in_flight)
            try:
                if len(group) == 1:
                    self._serve_one(req)
                else:
                    self.metrics.inc("batch.rounds")
                    self.metrics.inc("batch.coalesced", len(group))
                    ctx = _ScenarioBatch(group, self._lane)
                    for member in group:
                        self._serve_one(member, batch=ctx)
            finally:
                with self._lock:
                    self._in_flight -= len(group)
                    self.metrics.gauge("inflight", self._in_flight)
                    self._idle.notify_all()

    # -- per-request execution -----------------------------------------
    def _serve_one(
        self, req: Request, batch: Optional[_ScenarioBatch] = None
    ) -> None:
        started = time.monotonic()
        self.metrics.observe("wait_s", started - req.submitted)
        try:
            payload = self._execute(req, started, batch)
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

    def _execute(
        self,
        req: Request,
        started: float,
        batch: Optional[_ScenarioBatch] = None,
    ) -> Dict[str, Any]:
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
                payload = self._handle(req, batch)
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

    def _handle(
        self, req: Request, batch: Optional[_ScenarioBatch] = None
    ) -> Dict[str, Any]:
        if req.kind == "ping":
            return {"kind": "ping", "seed": req.seed}
        if req.kind not in KINDS:
            raise ServeError(
                "E_BAD_REQUEST", f"unknown kind {req.kind!r}; choose one of {KINDS}"
            )
        if batch is not None:
            return batch.payload_for(req)
        return self._lane.call(req.kind, req.params, req.seed, req.deadline)
