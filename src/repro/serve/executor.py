"""Request execution behind the admission controller: handlers, the
response cache, deadline enforcement, and the crash/retry/quarantine
state machine.

Layout:

* each admitted request is served on the HTTP handler thread that
  accepted it: :meth:`RequestExecutor.serve` waits in
  :meth:`repro.serve.admission.AdmissionController.take` until the
  request is next in its Unbalanced-Send round's service order and fewer
  than ``workers`` requests are in service, then answers it, success or
  structured error, so an admitted request always gets an answer before
  its connection closes (the zero-loss drain guarantee);
* that thread does the request's bookkeeping — deadline and quarantine
  checks, cache get/put, retry/backoff, chaos — and hands its compute to
  the **compute lane** of :mod:`repro.serve.engine`, one thread that
  runs every compute in turn (the GIL lets one thread compute at a time
  anyway, and a single computing thread keeps a single malloc arena);
  both waits, for the turn and for the lane, are bounded by
  :data:`repro.serve.engine.WAIT_CAP_S`, after which the request gets
  ``E_INTERNAL``;
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

from repro.serve import engine
from repro.serve.admission import AdmissionController, Round
from repro.serve.chaos import ChaosPlan
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

    workers: int = 4  # requests in service at once; compute runs on the one lane
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
    non-empty list of finite numbers > 0, ``on_error`` a sweep error
    policy (:func:`repro.sweep.parse_on_error`) and ``model`` (of
    ``pricing_ablation``) one of its ablation models.
    """
    import inspect

    from repro.experiments import _ABLATION_MODELS, EXPERIMENTS
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
        if key == "model":
            if value not in _ABLATION_MODELS:
                raise ServeError(
                    "E_BAD_REQUEST",
                    f"experiment {name!r} param model must be one of "
                    f"{list(_ABLATION_MODELS)}, got {value!r}",
                    choices=list(_ABLATION_MODELS),
                )
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
    """Serves admitted requests in their turn, with retry, quarantine and
    caching."""

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
        self._lane = engine.ComputeLane(metrics)
        self._lock = threading.Lock()
        self._failures: Dict[str, int] = {}  # fingerprint -> crash count
        self._quarantined: Dict[str, str] = {}  # fingerprint -> last error

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        self._lane.start()

    def stop(self) -> None:
        self.admission.start_drain()
        self._lane.shutdown()

    def cache_hit_count(self) -> int:
        """Served-from-cache count so far (rides the round event stream)."""
        with self.metrics._lock:
            return int(self.metrics.registry.counter("serve.cache.hits").value)

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

    # -- per-request service -------------------------------------------
    def serve(self, req: Request) -> Dict[str, Any]:
        """Wait for an admitted request's turn, run it and return its
        outcome; a structured failure is raised as :class:`ServeError`."""
        try:
            self.admission.take(
                req, self.config.workers, engine.WAIT_CAP_S, self._round_drawn
            )
        except ServeError as err:
            self._failed(err)
            raise
        started = time.monotonic()
        self.metrics.gauge("inflight", self.admission.in_service())
        self.metrics.observe("wait_s", started - req.submitted)
        try:
            outcome = self._execute(req)
        except ServeError as err:
            self._failed(err)
            raise
        except Exception as exc:  # defense: a bookkeeping bug still answers
            err = ServeError("E_INTERNAL", f"{type(exc).__name__}: {exc}")
            self._failed(err)
            raise err from exc
        finally:
            self.admission.done()
            self.metrics.gauge("inflight", self.admission.in_service())
            self.metrics.observe("service_s", time.monotonic() - started)
        self.metrics.inc("requests.ok")
        return outcome

    def _round_drawn(self, rnd: Round) -> None:
        """Report a round this request's thread drew (admission's lock is
        held, so the depth is exact)."""
        depth = self.admission.depth()
        self.metrics.round_scheduled(
            rnd.window, rnd.overloaded_slots, len(rnd.order),
            queue_depth=depth,
            cache_hits=self.cache_hit_count(),
        )
        self.metrics.gauge("queue.depth", depth)

    def _failed(self, err: ServeError) -> None:
        self.metrics.shed(err.code)
        self.metrics.inc("requests.failed")

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
