"""Fused numeric kernels for the superstep hot loop.

This module is the single home of the array-in/array-out primitives the
engine's barrier loop and the models' ``_price_batch`` methods are built on:

* :func:`slot_charge_stats_batched` — the full aggregate-bandwidth
  statistics of one slot histogram under B ``(m, penalty)`` columns
  (``c_m`` with idle-slot accounting, the literal paper charge, span,
  overloaded-slot count, peak load) shared by BSP(m) and QSM(m), whether
  a superstep is priced for one machine or a batch of trials — each
  distinct column is charged and reduced once, and its scalars are
  scattered to every trial that shares it;
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

    ``f_m`` depends only on the penalty and ``m``, so each distinct
    ``(penalty, m)`` column is charged once, by
    :meth:`~repro.core.costs.PenaltyFunction.charges` on a float64 copy of
    the histogram made once per call, and reduced to its three scalars on
    the spot; every trial of that column receives the same scalars.  The
    span-sized work and memory scale with the number of distinct columns,
    not with B, and a trial's floats are the 1-D sums its batch of one
    computes, whatever else shares its batch.
    """
    B = len(penalties)
    comm = np.zeros(B, dtype=np.float64)
    c_m_paper = np.zeros(B, dtype=np.float64)
    overloaded = np.zeros(B, dtype=_I64)
    if counts.size == 0:
        return comm, c_m_paper, 0.0, overloaded, 0
    counts_f = np.asarray(counts, dtype=np.float64)
    columns: dict = {}  # (id(penalty), m) -> (comm, c_m_paper, overloaded)
    for b, (pen, m) in enumerate(zip(penalties, m_col)):
        key = (id(pen), m)
        column = columns.get(key)
        if column is None:
            row = pen.charges(counts_f, m)
            column = columns[key] = (
                np.sum(np.maximum(row, 1.0)),
                np.sum(row),
                np.count_nonzero(counts > m),
            )
        comm[b], c_m_paper[b], overloaded[b] = column
    return comm, c_m_paper, float(counts.size), overloaded, int(counts.max())


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
