"""Unified observability: tracing, metrics, exporters, manifests, and the
bench-regression comparator.

The paper's argument is about *where time goes* — work vs. bandwidth vs.
latency vs. contention under local (``g·h``) vs. global (``f_m(m_t)``)
charging — and this package makes every layer of the reproduction answer
that question for a concrete run:

* :mod:`repro.obs.tracer` — hierarchical spans (``run > superstep >
  {freeze, price, deliver}``, ``sweep > trial > run``, transport retry
  rounds) carrying :class:`~repro.core.events.CostBreakdown` components
  and fault/retry counters; **zero overhead unless installed** (the
  default :func:`active_tracer` is ``None`` and instrumented code checks
  once per run).
* :mod:`repro.obs.metrics` — process-local counters / gauges /
  fixed-bucket histograms, mergeable across sweep workers so ``jobs=N``
  aggregates bit-identically to ``jobs=1``.
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (open in
  Perfetto; one track per processor on a model-time axis), columnar
  metrics dumps, and the terminal cost-attribution table.
* :mod:`repro.obs.ledger` — the per-superstep bandwidth **load ledger**:
  which restriction (local ``g·h`` vs. global ``f_m(m_t)``) bound each
  superstep's charge, recorded at the engine barrier under the same
  zero-overhead contract as the tracer.
* :mod:`repro.obs.manifest` — per-run provenance (params, seed
  expression, git SHA, penalty family, cache hit rate, artifact paths).
* :mod:`repro.obs.compare` — the ``python -m repro compare`` BENCH-file
  regression comparator.
* :mod:`repro.obs.prom` — Prometheus text exposition rendered from a
  :class:`MetricsRegistry` dump (the serve daemon's
  ``/v1/metrics?format=prom``).
* :mod:`repro.obs.top` — the ``python -m repro top`` live terminal view
  of a running serve daemon or a sweep telemetry file.

CLI: ``--trace PATH`` / ``--metrics PATH`` / ``--ledger PATH`` on
``experiment``, ``chaos`` and ``profile``; ``python -m repro ledger`` /
``python -m repro top``.  See docs/observability.md.

Exports load on first access (:mod:`repro._lazy`): the serve daemon's
telemetry imports :mod:`repro.obs.metrics` without the NumPy-backed
ledger.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.obs.tracer": [
        "Span",
        "Tracer",
        "active_tracer",
        "install_tracer",
        "uninstall_tracer",
        "tracing",
    ],
    "repro.obs.metrics": [
        "MetricsRegistry",
        "active_metrics",
        "install_metrics",
        "uninstall_metrics",
        "metrics_scope",
    ],
    "repro.obs.ledger": [
        "LoadLedger",
        "LedgerView",
        "active_ledger",
        "install_ledger",
        "uninstall_ledger",
        "ledger_scope",
        "ledger_table",
        "binding_of",
    ],
    "repro.obs.export": [
        "chrome_trace",
        "write_chrome_trace",
        "write_metrics_json",
        "cost_attribution_table",
    ],
    "repro.obs.prom": ["prometheus_exposition"],
    "repro.obs.manifest": ["build_manifest", "manifest_path", "write_manifest"],
    "repro.obs.compare": ["BenchComparison", "compare_bench", "compare_files"],
})
