"""Shared utilities: integer math, RNG plumbing, validation, reporting.

These helpers are deliberately tiny and dependency-free so that every other
subpackage can import them without cycles.  Exports load on first access
(:mod:`repro._lazy`), so the stdlib-only helpers never pull in the
NumPy-backed :mod:`repro.util.rng`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.util.intmath": ["ceil_div", "ilog2", "ilog", "log_star", "next_pow2"],
    "repro.util.rng": ["as_generator", "spawn_children"],
    "repro.util.validation": [
        "check_positive",
        "check_nonnegative",
        "check_in_range",
        "check_prob",
    ],
    "repro.util.reporting": ["Table", "format_float"],
})
