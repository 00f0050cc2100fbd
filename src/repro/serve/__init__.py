"""Simulation-as-a-service: the ``python -m repro serve`` daemon.

A long-lived front end over the batch library — JSON over HTTP, bounded
queues with Unbalanced-Send admission control (the paper's §6 discipline
applied to the server's own request traffic), a crash-safe persistent
response cache (:mod:`repro.store`), per-request deadlines that
propagate into the engine, seeded-chaos-tested retry/quarantine, and
graceful drain with zero lost accepted requests.  See ``docs/serving.md``.

Exports load on first access (:mod:`repro._lazy`): the daemon's front
end — HTTP, protocol, admission, response cache, telemetry — imports
only the standard library, and NumPy plus the compute stack load on the
first request that computes.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.serve.admission": ["AdmissionConfig", "AdmissionController", "Round"],
    "repro.serve.chaos": ["ChaosPlan", "WorkerKilled", "plan_from_env"],
    "repro.serve.client": ["ServeClient", "ServeRequestError"],
    "repro.serve.daemon": ["ReproServer"],
    "repro.serve.engine": ["ComputeLane"],
    "repro.serve.executor": ["ExecutorConfig", "RequestExecutor", "run_scenario"],
    "repro.serve.protocol": [
        "ERROR_CODES",
        "KINDS",
        "PROTOCOL_VERSION",
        "Request",
        "ServeError",
        "canonical_params",
        "error_payload",
        "estimate_cost",
        "ok_payload",
        "request_fingerprint",
    ],
    "repro.serve.telemetry": ["ServerMetrics"],
})
