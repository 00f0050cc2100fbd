"""Fused numeric kernels for the superstep hot loop.

This module is the single home of the array-in/array-out primitives the
engine's barrier loop and the models' ``_price_batch`` methods are built on:

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

The per-slot charge ``f_m`` itself is defined once, by
:class:`~repro.core.costs.PenaltyFunction` (the 0/1 bands plus each
family's ``overload``); :func:`slot_charge_stats_batched` evaluates every
penalty, built-in or custom, through that one definition.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "slot_charge_stats_batched",
    "stable_group_order",
    "group_bounds",
]

_I64 = np.int64


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

    Each distinct ``(penalty, m)`` charge row is evaluated once, by
    :meth:`~repro.core.costs.PenaltyFunction.charges` on a float64 copy of
    the histogram made once per call, and shared.  The per-trial
    reductions are one ``np.sum`` along ``axis=1`` of the stacked charge
    matrix, so every trial's floats are independent of which other trials
    share its batch (a reduction over a C-contiguous row sums in the same
    pairwise order as a 1-D ``np.sum``).
    """
    B = len(penalties)
    if counts.size == 0:
        zeros = np.zeros(B, dtype=np.float64)
        return zeros, zeros.copy(), 0.0, np.zeros(B, dtype=_I64), 0
    counts_f = np.asarray(counts, dtype=np.float64)
    charges = np.empty((B, counts.size), dtype=np.float64)
    cache: dict = {}
    for b in range(B):
        pen = penalties[b]
        m = m_col[b]
        key = (id(pen), m)
        row = cache.get(key)
        if row is None:
            row = cache[key] = pen.charges(counts_f, m)
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
