"""Fused numeric kernels for the superstep hot loop — Numba-optional.

This module is the single home of the array-in/array-out primitives the
engine's barrier loop and the models' ``_price_batch`` methods are built on:

* :func:`penalty_charges` — the per-slot charge vector ``f_m(m_t)`` for the
  built-in penalty families, evaluated in one pass;
* :func:`slot_charge_stats_batched` — the full aggregate-bandwidth
  statistics of one slot histogram under B ``(m, penalty)`` columns
  (``c_m`` with idle-slot accounting, the literal paper charge, span,
  overloaded-slot count, peak load) shared by BSP(m) and QSM(m), whether
  a superstep is priced for one machine or a batch of trials;
* :func:`stable_group_order` — the delivery permutation (a stable argsort
  by small integer keys) computed via a combined-key ``np.sort``, which is
  ~7× faster than ``np.argsort(kind="stable")`` at engine scales;
* :func:`group_bounds` — counting-sort group boundaries, which slice the
  delivery permutation into per-processor inboxes (engine delivery and the
  compiled routing frame).

JIT policy
----------
When Numba is importable (``pip install repro[numba]``) the elementwise
penalty kernel is compiled with ``numba.njit`` at import time; otherwise a
pure-NumPy implementation with *identical per-element arithmetic* is used.
The environment variable ``REPRO_NUMBA=0`` forces the NumPy fallback even
when Numba is installed.  Reductions over the charge vector (the float
sums behind ``c_m``) always run through ``np.sum`` so that summation order
— and therefore every model time — is bit-identical across the JIT and
fallback paths.  The equivalence is gated by ``tests/test_fused_kernel.py``
in both configurations, and ``tests/test_pricing_oracle.py`` checks the
priced charges against the ``repro.core.costs`` formulas in both.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

__all__ = [
    "NUMBA_ENABLED",
    "KIND_LINEAR",
    "KIND_EXPONENTIAL",
    "KIND_POLYNOMIAL",
    "penalty_charges",
    "slot_charge_stats_batched",
    "stable_group_order",
    "group_bounds",
]

_I64 = np.int64

#: Kernel ids for the built-in penalty families (see ``repro.core.costs``).
KIND_LINEAR = 0
KIND_EXPONENTIAL = 1
KIND_POLYNOMIAL = 2


def _numpy_penalty_charges(
    counts: np.ndarray, m: int, kind: int, param: float
) -> np.ndarray:
    """Pure-NumPy ``f_m`` evaluation, arithmetically identical to the
    historical :meth:`repro.core.costs.PenaltyFunction.__call__` masks."""
    counts_arr = np.asarray(counts, dtype=np.float64)
    out = np.zeros_like(counts_arr)
    in_band = (counts_arr >= 1) & (counts_arr <= m)
    out[in_band] = 1.0
    over = counts_arr > m
    if np.any(over):
        rho = counts_arr[over] / m
        if kind == KIND_LINEAR:
            out[over] = rho
        elif kind == KIND_EXPONENTIAL:
            with np.errstate(over="ignore"):
                out[over] = np.exp(rho - 1.0)
        else:
            out[over] = rho**param
    return out


def _load_numba():
    """Import-time JIT selection: compiled kernel or ``None``."""
    if os.environ.get("REPRO_NUMBA", "").lower() in ("0", "off", "false"):
        return None
    try:
        import numba
    except ImportError:
        return None

    @numba.njit(cache=True)
    def _jit_penalty_charges(counts, m, kind, param):  # pragma: no cover - needs numba
        out = np.zeros(counts.size, dtype=np.float64)
        for i in range(counts.size):
            c = counts[i]
            if c < 1.0:
                continue
            if c <= m:
                out[i] = 1.0
            else:
                rho = c / m
                if kind == KIND_LINEAR:
                    out[i] = rho
                elif kind == KIND_EXPONENTIAL:
                    out[i] = np.exp(rho - 1.0)
                else:
                    out[i] = rho**param
        return out

    return _jit_penalty_charges


_jit_charges = _load_numba()

#: True when the Numba-compiled penalty kernel is active for this process.
NUMBA_ENABLED: bool = _jit_charges is not None


def penalty_charges(
    counts: np.ndarray, m: int, kind: int, param: float = 0.0
) -> np.ndarray:
    """Per-slot charges ``f_m(m_t)`` for a built-in penalty family.

    ``kind`` is one of :data:`KIND_LINEAR` / :data:`KIND_EXPONENTIAL` /
    :data:`KIND_POLYNOMIAL` (``param`` = polynomial degree).  Dispatches to
    the Numba kernel when available, else the NumPy implementation; the two
    are gated bit-identical by the test suite.
    """
    if _jit_charges is not None:
        return _jit_charges(
            np.asarray(counts, dtype=np.float64), float(m), kind, float(param)
        )
    return _numpy_penalty_charges(counts, m, kind, param)


def slot_charge_stats_batched(counts: np.ndarray, m_col, penalties):
    """Aggregate-bandwidth statistics of one slot-injection histogram under
    B parameter points.

    ``counts`` is the histogram of a single recorded superstep; ``m_col``
    and ``penalties`` give the per-trial aggregate-bandwidth limit and
    :class:`~repro.core.costs.PenaltyFunction` for each of the ``B``
    trials (``B = 1`` for a single machine).  Returns ``(comm, c_m_paper,
    span, overloaded, max_load)``: ``comm[b] = sum_t max(f_m(m_t), 1)`` is
    the engine's idle-slot-counting charge, ``c_m_paper[b] = sum_t
    f_m(m_t)`` the literal paper charge and ``overloaded[b]`` the number of
    slots with ``m_t > m`` (length-``B`` arrays); the schedule ``span`` and
    peak slot load ``max_load`` are scalars shared by every trial.

    Built-in penalty families route through :func:`penalty_charges`
    (JIT-able), custom subclasses through their own ``__call__``; each
    distinct ``(family, m)`` charge row is evaluated once and shared.  The
    per-trial reductions are one ``np.sum`` along ``axis=1`` of the stacked
    charge matrix, so every trial's floats are independent of which other
    trials share its batch (a reduction over a C-contiguous row sums in the
    same pairwise order as a 1-D ``np.sum``).
    """
    B = len(penalties)
    if counts.size == 0:
        zeros = np.zeros(B, dtype=np.float64)
        return zeros, zeros.copy(), 0.0, np.zeros(B, dtype=_I64), 0
    charges = np.empty((B, counts.size), dtype=np.float64)
    cache: dict = {}
    for b in range(B):
        pen = penalties[b]
        m = m_col[b]
        kind: Optional[int] = getattr(pen, "kernel_kind", None)
        if kind is not None:
            key = (kind, float(getattr(pen, "kernel_param", 0.0)), float(m))
        else:
            key = (id(pen), float(m))
        row = cache.get(key)
        if row is None:
            if kind is not None:
                row = penalty_charges(
                    counts, m, kind, getattr(pen, "kernel_param", 0.0)
                )
            else:
                row = np.asarray(pen(counts, m), dtype=np.float64)
            cache[key] = row
        charges[b] = row
    comm = np.sum(np.maximum(charges, 1.0), axis=1)
    c_m_paper = np.sum(charges, axis=1)
    span = float(counts.size)
    m_arr = np.asarray(m_col)
    overloaded = np.sum(
        np.asarray(counts)[None, :] > m_arr[:, None], axis=1, dtype=_I64
    )
    max_load = int(counts.max())
    return comm, c_m_paper, span, overloaded, max_load


# ----------------------------------------------------------------------
# Delivery grouping
# ----------------------------------------------------------------------

#: Past this element count the combined sort key ``key*n + i`` could
#: overflow int64 for large key ranges; fall back to argsort.
_COMBINED_SORT_LIMIT = np.iinfo(np.int64).max


def stable_group_order(keys: np.ndarray, max_key: int) -> np.ndarray:
    """Permutation that stably sorts ``keys`` (small non-negative ints).

    Exactly ``np.argsort(keys, kind="stable")``, but computed by sorting
    the combined key ``keys * n + arange(n)`` — a plain ``np.sort`` on
    int64, which is ~7× faster than a stable argsort at the engine's
    typical batch sizes (the combined keys are distinct, so ascending
    order is (key, original-index) order, i.e. stable).
    """
    n = keys.size
    if n <= 1:
        return np.arange(n, dtype=_I64)
    if (max_key + 1) * n >= _COMBINED_SORT_LIMIT:  # pragma: no cover - huge runs
        return np.argsort(keys, kind="stable")
    combined = keys * _I64(n) + np.arange(n, dtype=_I64)
    np.ndarray.sort(combined)
    return combined % n


def group_bounds(keys: np.ndarray, n_groups: int) -> np.ndarray:
    """Counting-sort boundaries: ``bounds[k]:bounds[k+1]`` spans group ``k``
    in the stable order returned by :func:`stable_group_order`."""
    counts = np.bincount(keys, minlength=n_groups)
    bounds = np.empty(counts.size + 1, dtype=_I64)
    bounds[0] = 0
    np.cumsum(counts, out=bounds[1:])
    return bounds
