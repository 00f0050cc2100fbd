"""Unbalanced-Send admission control: the paper's §6 scheduler as a
server-side queueing discipline.

The daemon eats its own dogfood.  Theorem 6.2's Unbalanced-Send schedules
``p`` processors with ``x_i`` flits each against a global bandwidth ``m``
by drawing a uniform start slot in a window ``W = ceil((1+eps)·n/m)`` and
occupying ``x_i`` cyclic slots; oversized senders (``x_i > W``) start at
slot 0.  Here the mapping is *request = processor, estimated cost =
x_i, global budget m = flits the backend may carry per slot*:

* queued requests are batched into **rounds**; each round draws seeded
  uniform start slots over its own window and is serviced in
  ``(start_slot, submission_seq)`` order — cheap requests interleave
  fairly ahead of heavyweight sweeps instead of convoying behind them,
  exactly the property the paper proves for unbalanced traffic;
* a request whose cost exceeds ``oversized_factor × budget_m`` (more
  traffic than ``oversized_factor`` exclusive slots of budget) is **shed
  at submission** with ``E_OVERSIZED`` — the serving analogue of the
  paper's oversized senders, which would monopolize the window;
* the queue is **bounded**: beyond ``max_queue`` pending requests,
  submission fails fast with ``E_QUEUE_FULL`` (429-style) — never a hang;
* per-round telemetry (window, overloaded slots — slots whose drawn load
  exceeds ``m`` — queue depth) flows to :mod:`repro.serve.telemetry`.

The draw is seeded per ``(server_seed, round_index)`` so a replay of the
same submission sequence schedules identically — chaos tests rely on it.
A round holds at most ``max_batch`` requests, so the whole draw is plain
integer arithmetic: the start slots come from a stdlib
:class:`random.Random` seeded with the BLAKE2b digest of ``(seed,
"admission", round_index)``, and the overloaded-slot count from a
difference array over the window.  No NumPy is involved, which keeps
the daemon's front end (HTTP, protocol, admission, response cache,
telemetry) on the standard library.

The overloaded-slot count is defined by a brute-force oracle: lay each
request's ``cost`` flits cyclically, one per slot, starting at its
drawn slot (``cost // W`` full turns plus ``cost % W`` slots), then
count the slots carrying more than ``budget_m`` flits.
"""

from __future__ import annotations

import hashlib
import random
import threading
from collections import deque
from dataclasses import dataclass, field
from math import ceil
from typing import Deque, List, Optional, Tuple

from repro.serve.protocol import Request, ServeError

__all__ = ["AdmissionConfig", "AdmissionController", "Round"]


def _round_rng(seed: int, index: int) -> random.Random:
    """The stdlib generator of round ``index`` under server seed ``seed``."""
    blob = f"{seed}\x1fadmission\x1f{index}".encode()
    digest = hashlib.blake2b(blob, digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _overloaded_slots(
    starts: List[int], costs: List[int], window: int, budget_m: int
) -> int:
    """Slots of a ``window``-slot cycle carrying more than ``budget_m``
    flits when request ``i`` lays ``costs[i]`` flits one per slot from
    ``starts[i]`` (the oracle of the module docstring, in O(W + n))."""
    turns = 0
    diff = [0] * (window + 1)
    for start, cost in zip(starts, costs):
        q, rem = divmod(cost, window)
        turns += q
        if rem:
            end = start + rem
            diff[start] += 1
            if end <= window:
                diff[end] -= 1
            else:  # the tail wraps round to slot 0
                diff[0] += 1
                diff[end - window] -= 1
    load = turns
    over = 0
    for slot in range(window):
        load += diff[slot]
        over += load > budget_m
    return over


@dataclass(frozen=True)
class AdmissionConfig:
    """Tunables of the admission discipline."""

    budget_m: int = 4096  # flits per slot the backend is budgeted for
    epsilon: float = 0.2  # window slack, as in send_window()
    max_queue: int = 64  # pending requests before E_QUEUE_FULL
    oversized_factor: int = 64  # shed when cost > factor * budget_m
    max_batch: int = 16  # requests scheduled per round
    seed: int = 0  # root of the per-round start-slot draws

    def __post_init__(self) -> None:
        if self.budget_m < 1:
            raise ValueError(f"budget_m must be >= 1, got {self.budget_m}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.oversized_factor < 1:
            raise ValueError(
                f"oversized_factor must be >= 1, got {self.oversized_factor}"
            )
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if not self.epsilon >= 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")


@dataclass
class Round:
    """One scheduled batch: requests in Unbalanced-Send service order."""

    index: int
    window: int
    total_cost: int
    overloaded_slots: int
    #: ``(start_slot, request)`` in service order
    order: List[Tuple[int, Request]] = field(default_factory=list)


class AdmissionController:
    """Bounded queue + per-round Unbalanced-Send scheduling (thread-safe)."""

    def __init__(self, config: AdmissionConfig) -> None:
        self.config = config
        self._queue: Deque[Request] = deque()
        self._lock = threading.Lock()
        self._nonempty = threading.Condition(self._lock)
        self._rounds = 0
        self._draining = False
        self.max_cost = config.oversized_factor * config.budget_m

    # ------------------------------------------------------------------
    # submission side
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> int:
        """Admit a request; returns queue depth after admission.

        Raises :class:`ServeError` with ``E_DRAINING``, ``E_OVERSIZED`` or
        ``E_QUEUE_FULL`` — the three explicit sheds.  Admission is the
        point of no return: an admitted request is either served or
        answered with a structured error, never silently dropped.
        """
        if request.cost > self.max_cost:
            raise ServeError(
                "E_OVERSIZED",
                f"request cost {request.cost} flits exceeds the admission "
                f"ceiling {self.max_cost} "
                f"(oversized_factor={self.config.oversized_factor} × "
                f"budget_m={self.config.budget_m})",
                cost=request.cost,
                max_cost=self.max_cost,
            )
        with self._lock:
            if self._draining:
                raise ServeError(
                    "E_DRAINING", "server is draining; not accepting new work"
                )
            if len(self._queue) >= self.config.max_queue:
                raise ServeError(
                    "E_QUEUE_FULL",
                    f"admission queue is at its bound "
                    f"({self.config.max_queue} pending requests)",
                    queue_depth=len(self._queue),
                )
            self._queue.append(request)
            depth = len(self._queue)
            self._nonempty.notify()
            return depth

    def start_drain(self) -> None:
        """Stop admitting; already-queued requests still get served."""
        with self._lock:
            self._draining = True
            self._nonempty.notify_all()

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def depth(self) -> int:
        with self._lock:
            return len(self._queue)

    # ------------------------------------------------------------------
    # dispatch side
    # ------------------------------------------------------------------
    def next_round(self, timeout: Optional[float] = None) -> Optional[Round]:
        """Block until work is pending, then schedule up to ``max_batch``
        requests with the Unbalanced-Send draw.  Returns ``None`` on
        timeout (or when woken empty during drain) so the dispatcher loop
        can re-check its stop flag."""
        with self._lock:
            if not self._queue:
                self._nonempty.wait(timeout)
            if not self._queue:
                return None
            batch = [
                self._queue.popleft()
                for _ in range(min(self.config.max_batch, len(self._queue)))
            ]
            self._rounds += 1
            index = self._rounds
        return self._schedule(index, batch)

    def _schedule(self, index: int, batch: List[Request]) -> Round:
        """The §6 draw over one batch (see module docstring)."""
        cfg = self.config
        costs = [int(r.cost) for r in batch]
        total = sum(costs)
        window = max(1, ceil((1.0 + cfg.epsilon) * total / cfg.budget_m))
        rng = _round_rng(cfg.seed, index)
        drawn = [rng.randrange(window) for _ in batch]
        # the paper's oversized rule: senders with more flits than the
        # window has slots start deterministically at slot 0
        starts = [0 if cost > window else s for cost, s in zip(costs, drawn)]
        order = sorted(zip(starts, batch), key=lambda e: (e[0], e[1].seq))
        # overloaded slots are the paper's penalized ones — the server
        # just counts them as backpressure telemetry
        return Round(
            index=index,
            window=window,
            total_cost=total,
            overloaded_slots=_overloaded_slots(starts, costs, window, cfg.budget_m),
            order=order,
        )
