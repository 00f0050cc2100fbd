"""Penalty functions ``f_m`` and superstep cost formulas.

Section 2 of the paper defines, for globally-limited models, a per-slot charge

.. math::

    f_m(m_t) = \\begin{cases}
        0 & m_t = 0 \\\\
        1 & 1 \\le m_t \\le m \\\\
        \\ge m_t / m \\text{ (increasing)} & m_t > m
    \\end{cases}

with two canonical instantiations: the **linear** charge ``m_t / m`` (used for
lower bounds — a network that absorbs any injection rate at throughput m) and
the **exponential** charge ``e^{m_t/m - 1}`` (used for upper bounds — a network
that deteriorates drastically past its aggregate limit).

A *superstep charge* is then ``c_m = sum_t f_m(m_t)`` and the five cost
metrics of the paper are expressed on top of it:

======================  =====================================
model                   superstep cost
======================  =====================================
BSP(g)                  ``max(w, g*h, L)``
BSP(m)                  ``max(w, h, c_m, L)``
self-scheduling BSP(m)  ``max(w, h, n/m, L)``
QSM(g)                  ``max(w, g*h, kappa)``
QSM(m)                  ``max(w, h, kappa, c_m)``
======================  =====================================

All penalty functions here are vectorized over NumPy arrays of slot counts so
that schedule evaluation over millions of slots stays in compiled code.
:meth:`PenaltyFunction.charges` is the one definition of ``f_m``: the
validated :meth:`PenaltyFunction.__call__` and the engine's pricing kernel
(:func:`repro.core.kernels.slot_charge_stats_batched`) both evaluate it,
for the built-in families and custom subclasses alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.util.validation import check_positive

__all__ = [
    "PenaltyFunction",
    "LinearPenalty",
    "ExponentialPenalty",
    "PolynomialPenalty",
    "CapacityPenalty",
    "LINEAR",
    "EXPONENTIAL",
    "superstep_charge",
    "slot_charges",
    "bsp_g_cost",
    "bsp_m_cost",
    "self_scheduling_cost",
    "qsm_g_cost",
    "qsm_m_cost",
]

ArrayLike = Union[int, float, np.ndarray]


class PenaltyFunction:
    """Base class for per-slot charges ``f_m``.

    Subclasses implement :meth:`overload`, the charge for ``m_t > m`` given
    the overload ratio ``rho = m_t / m > 1``.  The 0/1 regimes are handled
    uniformly here, guaranteeing every subclass satisfies the paper's
    contract (``f_m(0)=0``, ``f_m(m_t)=1`` on ``[1, m]``, and
    ``f_m(m_t) >= m_t/m`` increasing above ``m`` — the latter is checked by
    the property-based tests rather than at runtime).
    """

    name: str = "abstract"

    def overload(self, rho: np.ndarray) -> np.ndarray:
        """Charge for overload ratios ``rho > 1`` (vectorized)."""
        raise NotImplementedError

    def __call__(self, counts: ArrayLike, m: int) -> np.ndarray:
        """Evaluate ``f_m`` on an array of per-slot injection counts."""
        check_positive("m", m)
        counts_arr = np.asarray(counts, dtype=np.float64)
        if np.any(counts_arr < 0):
            raise ValueError("slot counts must be non-negative")
        return self.charges(counts_arr, m)

    def charges(self, counts: np.ndarray, m: int) -> np.ndarray:
        """Unvalidated ``f_m`` on a float64 array of non-negative counts.

        :meth:`__call__` validates its input and then calls this; the
        pricing kernel (:func:`repro.core.kernels.slot_charge_stats_batched`)
        calls it directly."""
        out = np.zeros_like(counts)
        in_band = (counts >= 1) & (counts <= m)
        out[in_band] = 1.0
        over = counts > m
        if np.any(over):
            out[over] = self.overload(counts[over] / m)
        return out

    def scalar(self, count: float, m: int) -> float:
        """Scalar convenience wrapper around :meth:`__call__`."""
        return float(self(np.asarray([count]), m)[0])

    def cache_key(self) -> str:
        """Stable identity of the penalty *family* (not the instance), used
        by the sweep engine's memo cache to key priced reports.  Subclasses
        with shape parameters must fold them in (see
        :class:`PolynomialPenalty`)."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class LinearPenalty(PenaltyFunction):
    """The minimum admissible charge ``f_m(m_t) = m_t / m`` — the paper's
    lower-bound model of a network that absorbs arbitrary injection rates at
    sustained throughput ``m``."""

    name = "linear"

    def overload(self, rho: np.ndarray) -> np.ndarray:
        return rho


class ExponentialPenalty(PenaltyFunction):
    """The pessimistic charge ``f_m(m_t) = e^{m_t/m - 1}`` for ``m_t > m`` —
    the paper's upper-bound model where ``m`` is the breaking point past
    which network performance deteriorates drastically."""

    name = "exponential"

    def overload(self, rho: np.ndarray) -> np.ndarray:
        # Extreme overloads saturate to inf, which is the semantically
        # correct charge for a drastically deteriorated network.
        with np.errstate(over="ignore"):
            return np.exp(rho - 1.0)


@dataclass
class PolynomialPenalty(PenaltyFunction):
    """Ablation family ``f_m(m_t) = (m_t/m)^k`` for ``m_t > m``.

    ``k = 1`` recovers :class:`LinearPenalty`; larger ``k`` interpolates
    toward the exponential regime.  Used by the penalty-family ablation
    benchmark.
    """

    degree: float = 2.0
    name = "polynomial"

    def __post_init__(self) -> None:
        if self.degree < 1.0:
            raise ValueError(
                f"degree must be >= 1 so that f_m >= m_t/m, got {self.degree}"
            )

    def overload(self, rho: np.ndarray) -> np.ndarray:
        return rho**self.degree

    def cache_key(self) -> str:
        return f"{self.name}(degree={self.degree:g})"


class CapacityPenalty(PenaltyFunction):
    """An *inadmissible* hard-capacity charge ``f_m = 1`` for every nonempty
    slot, modeling LOGP/PRAM(m)-style capacity constraints where overload is
    simply forbidden.  Evaluating it on an overloaded slot raises — this is
    the executable statement that such models cannot price overload."""

    name = "capacity"

    def overload(self, rho: np.ndarray) -> np.ndarray:
        raise OverflowError(
            "hard-capacity network overloaded: "
            f"max injection ratio {float(np.max(rho)):.3f} > 1"
        )


#: Module-level singletons for the two canonical penalties.
LINEAR = LinearPenalty()
EXPONENTIAL = ExponentialPenalty()


def slot_charges(
    counts: ArrayLike, m: int, penalty: PenaltyFunction = EXPONENTIAL
) -> np.ndarray:
    """Per-slot charges ``f_m(m_t)`` for an array of injection counts."""
    return penalty(counts, m)


def superstep_charge(
    counts: ArrayLike, m: int, penalty: PenaltyFunction = EXPONENTIAL
) -> float:
    """The aggregate-bandwidth charge ``c_m = sum_t f_m(m_t)`` of a superstep
    whose slot-injection histogram is ``counts``."""
    return float(np.sum(penalty(counts, m)))


# ----------------------------------------------------------------------
# Superstep cost formulas (Section 2)
# ----------------------------------------------------------------------


def bsp_g_cost(w: float, h: float, g: float, L: float) -> float:
    """BSP(g) superstep cost ``max(w, g*h, L)``."""
    return max(w, g * h, L)


def bsp_m_cost(w: float, h: float, c_m: float, L: float) -> float:
    """BSP(m) superstep cost ``max(w, h, c_m, L)``."""
    return max(w, h, c_m, L)


def self_scheduling_cost(w: float, h: float, n: float, m: int, L: float) -> float:
    """Self-scheduling BSP(m) superstep cost ``max(w, h, n/m, L)`` where
    ``n`` is the number of messages transmitted in the superstep."""
    check_positive("m", m)
    return max(w, h, n / m, L)


def qsm_g_cost(w: float, h: float, g: float, kappa: float) -> float:
    """QSM(g) phase cost ``max(w, g*h, kappa)`` (``h`` already includes the
    model's ``max(1, ...)`` clamp; see :mod:`repro.models.qsm_g`)."""
    return max(w, g * h, kappa)


def qsm_m_cost(w: float, h: float, kappa: float, c_m: float) -> float:
    """QSM(m) phase cost ``max(w, h, kappa, c_m)``."""
    return max(w, h, kappa, c_m)
