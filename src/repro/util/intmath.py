"""Small integer/logarithm helpers used across cost formulas.

The paper's bounds use ``lg`` (base-2 logarithm), iterated logarithms and
ceilings pervasively; centralizing them avoids subtle off-by-one mistakes in
the formula modules.
"""

from __future__ import annotations

import math

__all__ = [
    "ceil_div", "ilog2", "ilog", "tree_rounds", "log_star", "next_pow2", "lg", "safe_log_ratio",
]


def ceil_div(a: int, b: int) -> int:
    """Exact integer ceiling of ``a / b`` for ``b > 0``.

    >>> ceil_div(7, 3)
    3
    >>> ceil_div(6, 3)
    2
    >>> ceil_div(0, 5)
    0
    """
    if b <= 0:
        raise ValueError(f"ceil_div requires b > 0, got {b}")
    if a < 0:
        raise ValueError(f"ceil_div requires a >= 0, got {a}")
    return -(-a // b)


def ilog2(n: int) -> int:
    """Floor of the base-2 logarithm of a positive integer.

    >>> ilog2(1)
    0
    >>> ilog2(8)
    3
    >>> ilog2(9)
    3
    """
    if n <= 0:
        raise ValueError(f"ilog2 requires n > 0, got {n}")
    return n.bit_length() - 1


def ilog(n: int, base: int) -> int:
    """Floor of ``log_base(n)`` computed without floating point drift.

    >>> ilog(27, 3)
    3
    >>> ilog(26, 3)
    2
    """
    if n <= 0:
        raise ValueError(f"ilog requires n > 0, got {n}")
    if base <= 1:
        raise ValueError(f"ilog requires base > 1, got {base}")
    k = 0
    power = 1
    while power * base <= n:
        power *= base
        k += 1
    return k


def tree_rounds(a: int, b: int) -> int:
    """Rounds of a ``b``-ary reduction (or broadcast) tree over ``a``
    leaves: ``ceil(log_b a)``, and 0 for at most one leaf.

    >>> tree_rounds(1, 2)
    0
    >>> tree_rounds(8, 2)
    3
    >>> tree_rounds(9, 2)
    4
    >>> tree_rounds(64, 4)
    3
    """
    return 0 if a <= 1 else ilog(a - 1, b) + 1


def log_star(n: float) -> int:
    """Iterated base-2 logarithm ``lg* n`` — how many times ``lg`` must be
    applied before the value drops to at most 1.

    >>> log_star(1)
    0
    >>> log_star(2)
    1
    >>> log_star(16)
    3
    >>> log_star(65536)
    4
    """
    if n < 0:
        raise ValueError(f"log_star requires n >= 0, got {n}")
    count = 0
    x = float(n)
    while x > 1.0:
        x = math.log2(x)
        count += 1
    return count


def next_pow2(n: int) -> int:
    """Smallest power of two that is ``>= n`` (with ``next_pow2(0) == 1``).

    >>> next_pow2(5)
    8
    >>> next_pow2(8)
    8
    """
    if n < 0:
        raise ValueError(f"next_pow2 requires n >= 0, got {n}")
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def lg(x: float) -> float:
    """Base-2 logarithm clamped below at 1 argument — the conventional
    ``lg`` of asymptotic bounds, where ``lg x`` is never negative.

    >>> lg(8.0)
    3.0
    >>> lg(0.5)
    0.0
    """
    if x <= 1.0:
        return 0.0
    return math.log2(x)


def safe_log_ratio(num: float, den: float) -> float:
    """Compute ``lg(num) / lg(den)`` with both logs clamped to at least 1,
    the standard reading of bounds such as ``lg p / lg g`` when ``g`` is
    close to 1 (the bound degenerates to ``lg p``).
    """
    return max(lg(num), 1.0) / max(lg(den), 1.0)
