"""Unbalanced h-relation workloads.

An *h-relation* is a set of point-to-point messages in which no processor
sends or receives more than ``h`` flits.  The paper's central objects are
**unbalanced** h-relations — the total volume ``n`` can be far below ``p*h``
— because that is exactly where globally-limited models beat locally-limited
ones (the BSP(g) pays ``g*h`` while the BSP(m) pays ``max(n/m, h)``).

:class:`HRelation` stores messages in structure-of-arrays form (NumPy
``src`` / ``dest`` / ``length``) so the schedulers and evaluators can stay
vectorized at millions of messages, per the HPC guides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_positive, check_nonnegative

__all__ = [
    "HRelation",
    "balanced_h_relation",
    "permutation_relation",
    "one_to_all_relation",
    "all_to_one_relation",
    "total_exchange_relation",
    "uniform_random_relation",
    "zipf_h_relation",
    "geometric_h_relation",
    "two_class_relation",
    "variable_length_relation",
    "build_relation",
]


@dataclass
class HRelation:
    """A set of point-to-point messages on a ``p``-processor machine.

    Attributes
    ----------
    p:
        Number of processors.
    src, dest:
        Integer arrays (same length, one entry per message).
    length:
        Flit counts per message (``>= 1``); unit lengths for the fixed-size
        message setting.
    """

    p: int
    src: np.ndarray
    dest: np.ndarray
    length: np.ndarray

    def __post_init__(self) -> None:
        check_positive("p", self.p)
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dest = np.asarray(self.dest, dtype=np.int64)
        self.length = np.asarray(self.length, dtype=np.int64)
        if not (self.src.shape == self.dest.shape == self.length.shape):
            raise ValueError("src, dest and length must have identical shapes")
        if self.src.size:
            if self.src.min() < 0 or self.src.max() >= self.p:
                raise ValueError("src indices out of range")
            if self.dest.min() < 0 or self.dest.max() >= self.p:
                raise ValueError("dest indices out of range")
            if self.length.min() < 1:
                raise ValueError("message lengths must be >= 1")

    # ------------------------------------------------------------------
    @property
    def n_messages(self) -> int:
        """Number of messages."""
        return int(self.src.size)

    @property
    def n(self) -> int:
        """Total volume in flits (the paper's ``n``)."""
        return int(self.length.sum())

    @property
    def sizes(self) -> np.ndarray:
        """Per-source flit totals ``x_i`` (length ``p``)."""
        return np.bincount(self.src, weights=self.length, minlength=self.p).astype(
            np.int64
        )

    @property
    def recv_sizes(self) -> np.ndarray:
        """Per-destination flit totals ``y_i`` (length ``p``)."""
        return np.bincount(self.dest, weights=self.length, minlength=self.p).astype(
            np.int64
        )

    @property
    def x_bar(self) -> int:
        """Maximum flits sent by any processor (paper's ``x̄``)."""
        return int(self.sizes.max()) if self.p else 0

    @property
    def y_bar(self) -> int:
        """Maximum flits received by any processor (paper's ``ȳ``)."""
        return int(self.recv_sizes.max()) if self.p else 0

    @property
    def h(self) -> int:
        """The h of the h-relation: ``max(x̄, ȳ)``."""
        return max(self.x_bar, self.y_bar)

    @property
    def max_length(self) -> int:
        """Longest single message (paper's ``ℓ̂``)."""
        return int(self.length.max()) if self.length.size else 0

    @property
    def mean_length(self) -> float:
        """Average message length (paper's ``ℓ̄``)."""
        return float(self.length.mean()) if self.length.size else 0.0

    def imbalance(self) -> float:
        """Skew measure ``x̄ / (n/p)`` — 1 for perfectly balanced sends; the
        globally-limited advantage kicks in once this exceeds ``g``."""
        if self.n == 0:
            return 1.0
        return self.x_bar / (self.n / self.p)

    def bsp_g_lower_bound(self, g: float, L: float = 0.0) -> float:
        """Proposition 6.1 lower bound ``g * (x̄ + ȳ) + L`` — actually
        ``Θ(g(x̄+ȳ)+L)``; we return the additive form used as the baseline."""
        return g * (self.x_bar + self.y_bar) + L

    def bsp_m_lower_bound(self, m: int) -> float:
        """The global-bandwidth lower bound ``max(n/m, x̄, ȳ)``."""
        check_positive("m", m)
        return max(self.n / m, self.x_bar, self.y_bar)

    def concat(self, other: "HRelation") -> "HRelation":
        """Union of two message sets on the same machine."""
        if other.p != self.p:
            raise ValueError("cannot concat relations with different p")
        return HRelation(
            p=self.p,
            src=np.concatenate([self.src, other.src]),
            dest=np.concatenate([self.dest, other.dest]),
            length=np.concatenate([self.length, other.length]),
        )

    @staticmethod
    def from_counts(counts: np.ndarray, dest_rng: SeedLike = None) -> "HRelation":
        """Build a unit-length relation where processor ``i`` sends
        ``counts[i]`` messages to uniformly random other processors."""
        counts = np.asarray(counts, dtype=np.int64)
        p = counts.size
        check_positive("p", p)
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        rng = as_generator(dest_rng)
        src = np.repeat(np.arange(p, dtype=np.int64), counts)
        n = int(counts.sum())
        if p > 1:
            dest = rng.integers(0, p - 1, size=n)
            dest = np.where(dest >= src, dest + 1, dest)  # exclude self-sends
        else:
            dest = np.zeros(n, dtype=np.int64)
        return HRelation(p=p, src=src, dest=dest.astype(np.int64), length=np.ones(n, dtype=np.int64))


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------


def balanced_h_relation(p: int, h: int, seed: SeedLike = None) -> HRelation:
    """Every processor sends exactly ``h`` unit messages; destinations are
    ``h`` independent random permutations, so every processor also receives
    exactly ``h`` — the classical balanced h-relation where BSP(g) is
    optimal and the global model has no advantage."""
    check_positive("p", p)
    check_nonnegative("h", h)
    rng = as_generator(seed)
    srcs = []
    dests = []
    for _ in range(h):
        perm = rng.permutation(p)
        srcs.append(np.arange(p, dtype=np.int64))
        dests.append(perm.astype(np.int64))
    if not srcs:
        empty = np.zeros(0, dtype=np.int64)
        return HRelation(p=p, src=empty, dest=empty.copy(), length=empty.copy())
    src = np.concatenate(srcs)
    dest = np.concatenate(dests)
    return HRelation(p=p, src=src, dest=dest, length=np.ones(src.size, dtype=np.int64))


def permutation_relation(p: int, seed: SeedLike = None) -> HRelation:
    """A 1-relation: each processor sends one unit message along a uniformly
    random permutation."""
    return balanced_h_relation(p, 1, seed)


def one_to_all_relation(p: int, length: int = 1, root: int = 0) -> HRelation:
    """One-to-all personalized communication (paper Section 1's motivating
    example): the root sends a distinct message to each other processor.
    Maximally send-unbalanced: ``x̄ = n = (p-1)*length``."""
    check_positive("p", p)
    check_positive("length", length)
    dest = np.array([i for i in range(p) if i != root], dtype=np.int64)
    src = np.full(dest.size, root, dtype=np.int64)
    return HRelation(p=p, src=src, dest=dest, length=np.full(dest.size, length, dtype=np.int64))


def all_to_one_relation(p: int, length: int = 1, root: int = 0) -> HRelation:
    """Every processor sends one message to the root — maximally
    receive-unbalanced (``ȳ = n``)."""
    rel = one_to_all_relation(p, length, root)
    return HRelation(p=p, src=rel.dest, dest=rel.src, length=rel.length)


def total_exchange_relation(
    p: int,
    length: int = 1,
    seed: SeedLike = None,
    max_length: Optional[int] = None,
) -> HRelation:
    """Total exchange (all-to-all personalized): one message per ordered
    pair.  With ``max_length`` set, lengths are uniform on
    ``[1, max_length]`` — the *unbalanced total-exchange* ("chatting")
    problem of Bhatt et al. discussed in Section 3."""
    check_positive("p", p)
    src, dest = np.meshgrid(np.arange(p), np.arange(p), indexing="ij")
    mask = src != dest
    src = src[mask].astype(np.int64)
    dest = dest[mask].astype(np.int64)
    if max_length is not None:
        rng = as_generator(seed)
        lengths = rng.integers(1, max_length + 1, size=src.size).astype(np.int64)
    else:
        lengths = np.full(src.size, length, dtype=np.int64)
    return HRelation(p=p, src=src, dest=dest, length=lengths)


def uniform_random_relation(p: int, n: int, seed: SeedLike = None) -> HRelation:
    """``n`` unit messages with independent uniform sources and (distinct)
    destinations — the mildly-unbalanced baseline (x̄ ≈ n/p + O(sqrt))."""
    check_positive("p", p)
    check_nonnegative("n", n)
    rng = as_generator(seed)
    src = rng.integers(0, p, size=n).astype(np.int64)
    if p > 1:
        dest = rng.integers(0, p - 1, size=n)
        dest = np.where(dest >= src, dest + 1, dest).astype(np.int64)
    else:
        dest = np.zeros(n, dtype=np.int64)
    return HRelation(p=p, src=src, dest=dest, length=np.ones(n, dtype=np.int64))


def zipf_h_relation(p: int, n: int, alpha: float = 1.2, seed: SeedLike = None) -> HRelation:
    """``n`` unit messages whose *sources* follow a Zipf(``alpha``) law over
    processors — the "skew in the inputs" scenario of Section 6.  A few
    processors send most of the traffic, so ``x̄ >> n/p`` and the
    locally-limited lower bound ``g*x̄`` far exceeds ``n/m``."""
    check_positive("p", p)
    check_nonnegative("n", n)
    check_positive("alpha", alpha)
    rng = as_generator(seed)
    weights = 1.0 / np.arange(1, p + 1, dtype=np.float64) ** alpha
    weights /= weights.sum()
    counts = rng.multinomial(n, weights)
    # Shuffle which processor gets which rank so the heavy sender is random.
    counts = counts[rng.permutation(p)]
    return HRelation.from_counts(counts, dest_rng=rng)


def geometric_h_relation(p: int, base_count: int, ratio: float = 0.5, seed: SeedLike = None) -> HRelation:
    """Processor ranked ``k`` sends ``ceil(base_count * ratio**k)`` unit
    messages — exponentially decaying skew ("nearly-sorted list" style)."""
    check_positive("p", p)
    check_nonnegative("base_count", base_count)
    if not (0 < ratio <= 1):
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    rng = as_generator(seed)
    ranks = np.arange(p, dtype=np.float64)
    counts = np.ceil(base_count * ratio**ranks).astype(np.int64)
    counts = np.maximum(counts, 0)
    counts = counts[rng.permutation(p)]
    return HRelation.from_counts(counts, dest_rng=rng)


def two_class_relation(
    p: int,
    heavy_fraction: float,
    heavy_count: int,
    light_count: int = 1,
    seed: SeedLike = None,
) -> HRelation:
    """A ``heavy_fraction`` of processors send ``heavy_count`` unit messages
    each, the rest send ``light_count`` — the stylized two-class imbalance
    used to position the crossover ``h = g * n/p`` of Section 1."""
    check_positive("p", p)
    if not (0 <= heavy_fraction <= 1):
        raise ValueError(f"heavy_fraction must be in [0,1], got {heavy_fraction}")
    check_nonnegative("heavy_count", heavy_count)
    check_nonnegative("light_count", light_count)
    rng = as_generator(seed)
    n_heavy = int(round(heavy_fraction * p))
    counts = np.full(p, light_count, dtype=np.int64)
    heavy_ids = rng.choice(p, size=n_heavy, replace=False)
    counts[heavy_ids] = heavy_count
    return HRelation.from_counts(counts, dest_rng=rng)


def variable_length_relation(
    p: int,
    n_messages: int,
    mean_length: float = 8.0,
    dist: str = "geometric",
    max_length: Optional[int] = None,
    seed: SeedLike = None,
) -> HRelation:
    """Random-source relation with variable message lengths, for the
    long-message senders of Section 6.1.

    ``dist`` selects the length law: ``"geometric"`` (memoryless, mean
    ``mean_length``), ``"uniform"`` (on ``[1, 2*mean_length - 1]``) or
    ``"pareto"`` (heavy-tailed, shape 2).  Lengths are clipped to
    ``max_length`` when given.
    """
    check_positive("p", p)
    check_nonnegative("n_messages", n_messages)
    check_positive("mean_length", mean_length)
    rng = as_generator(seed)
    if dist == "geometric":
        lengths = rng.geometric(min(1.0, 1.0 / mean_length), size=n_messages)
    elif dist == "uniform":
        hi = max(1, int(round(2 * mean_length - 1)))
        lengths = rng.integers(1, hi + 1, size=n_messages)
    elif dist == "pareto":
        lengths = np.ceil((rng.pareto(2.0, size=n_messages) + 1) * mean_length / 2).astype(np.int64)
    else:
        raise ValueError(f"unknown length distribution {dist!r}")
    lengths = np.maximum(1, lengths.astype(np.int64))
    if max_length is not None:
        lengths = np.minimum(lengths, max_length)
    src = rng.integers(0, p, size=n_messages).astype(np.int64)
    if p > 1:
        dest = rng.integers(0, p - 1, size=n_messages)
        dest = np.where(dest >= src, dest + 1, dest).astype(np.int64)
    else:
        dest = np.zeros(n_messages, dtype=np.int64)
    return HRelation(p=p, src=src, dest=dest, length=lengths)


def build_relation(
    workload: str, p: int, n: int, alpha: float = 1.2, seed: SeedLike = None
) -> HRelation:
    """The scenario workload menu of served scenarios and of the
    ``schedule`` and ``chaos`` commands.

    ``uniform`` (also ``route-verify``, the pinned routing profile: uniform
    traffic at whatever ``(p, n)`` the harness pinned), ``zipf`` with skew
    ``alpha``, ``balanced`` (an ``n // p``-relation, at least 1) and
    ``one-to-all`` (served requests spell it ``one_to_all``).
    """
    if workload in ("uniform", "route-verify"):
        return uniform_random_relation(p, n, seed=seed)
    if workload == "zipf":
        return zipf_h_relation(p, n, alpha=alpha, seed=seed)
    if workload == "balanced":
        return balanced_h_relation(p, max(1, n // p), seed=seed)
    if workload in ("one-to-all", "one_to_all"):
        return one_to_all_relation(p)
    raise ValueError(
        f"unknown workload {workload!r}; choose from uniform, route-verify, "
        "zipf, balanced, one-to-all"
    )
