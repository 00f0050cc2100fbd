"""Unbalanced-Send admission control: the paper's §6 scheduler as a
server-side queueing discipline.

The daemon eats its own dogfood.  Theorem 6.2's Unbalanced-Send schedules
``p`` processors with ``x_i`` flits each against a global bandwidth ``m``
by drawing a uniform start slot in a window ``W = ceil((1+eps)·n/m)`` and
occupying ``x_i`` cyclic slots; oversized senders (``x_i > W``) start at
slot 0.  Here the mapping is *request = processor, estimated cost =
x_i, global budget m = flits the backend may carry per slot*:

* queued requests are batched into **rounds**; each round draws seeded
  uniform start slots over its own window and is served in
  ``(start_slot, submission_seq)`` order.  A round is drawn when a
  request may start and none are drawn, so rounds form whenever there is
  a backlog.  A request costing more than its round's window ``W`` is
  oversized and starts at slot 0, so oversized requests keep arrival
  order.  Under the default budget (``budget_m = 4096``, ``eps = 0.2``)
  ``W`` is about 0.03% of the round's total cost (94 slots for 16
  scenarios of ``n = 20000``), so nearly every request is oversized;
  only a much cheaper one, such as a ping among scenarios, is drawn
  across the window, and it is then served after the oversized ones;
* a request whose cost exceeds ``oversized_factor × budget_m`` (more
  traffic than ``oversized_factor`` exclusive slots of budget) is **shed
  at submission** with ``E_OVERSIZED`` — the serving analogue of the
  paper's oversized senders, which would monopolize the window;
* the queue is **bounded**: once ``max_queue`` requests are queued or
  drawn, submission fails fast with ``E_QUEUE_FULL`` (429-style) — never
  a hang;
* each admitted request is served on the thread that submitted it:
  :meth:`AdmissionController.take` blocks that thread until its request
  is next in service order and fewer than ``limit`` requests are in
  service, and :meth:`AdmissionController.done` frees its place.  The
  controller is the daemon's only queue and its only count of
  unfinished requests (queued + drawn + in service), which the drain
  barrier :meth:`AdmissionController.wait_idle` reads;
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
import time
from collections import deque
from dataclasses import dataclass, field
from math import ceil
from typing import Callable, Deque, List, Optional, Tuple

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
    """The daemon's one queue: bounded admission, per-round
    Unbalanced-Send draws, and the turns of the requests in service
    (thread-safe, one lock)."""

    def __init__(self, config: AdmissionConfig) -> None:
        self.config = config
        self._queue: Deque[Request] = deque()  # admitted, not yet drawn
        self._drawn: Deque[Request] = deque()  # drawn, in service order
        self._in_service = 0  # took a turn, not yet done()
        # reentrant: take() calls next_round() with the lock held
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        self._rounds = 0
        self._draining = False
        self.max_cost = config.oversized_factor * config.budget_m

    # ------------------------------------------------------------------
    # submission side
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> int:
        """Admit a request; returns the queue depth after admission.

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
            depth = len(self._queue) + len(self._drawn)
            if depth >= self.config.max_queue:
                raise ServeError(
                    "E_QUEUE_FULL",
                    f"admission queue is at its bound "
                    f"({self.config.max_queue} queued or drawn requests)",
                    queue_depth=depth,
                )
            self._queue.append(request)
            return depth + 1

    def start_drain(self) -> None:
        """Stop admitting; already-admitted requests still get served."""
        with self._lock:
            self._draining = True

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def depth(self) -> int:
        """Requests waiting for their turn: queued or drawn."""
        with self._lock:
            return len(self._queue) + len(self._drawn)

    def in_service(self) -> int:
        """Requests that took their turn and are not yet done."""
        with self._lock:
            return self._in_service

    def outstanding(self) -> int:
        """Admitted requests not yet done: queued, drawn or in service."""
        with self._lock:
            return len(self._queue) + len(self._drawn) + self._in_service

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no admitted request is unfinished (the drain
        barrier); ``False`` if ``timeout`` lapsed first."""
        with self._changed:
            return self._changed.wait_for(
                lambda: not (self._queue or self._drawn or self._in_service),
                timeout,
            )

    # ------------------------------------------------------------------
    # service side
    # ------------------------------------------------------------------
    def take(
        self,
        request: Request,
        limit: int,
        timeout: float,
        on_round: Callable[[Round], None],
    ) -> None:
        """Block until ``request`` is next in service order and fewer than
        ``limit`` requests are in service, then count it in service.

        A caller that finds a free place and no drawn requests draws the
        next round (:meth:`next_round`) and hands it to ``on_round``,
        with the lock held.  After ``timeout`` seconds without a turn the
        request leaves the queue and ``E_INTERNAL`` is raised.
        """
        end = time.monotonic() + timeout
        with self._changed:
            while True:
                if self._in_service < limit:
                    if not self._drawn and self._queue:
                        on_round(self.next_round())
                    if self._drawn and self._drawn[0] is request:
                        self._drawn.popleft()
                        self._in_service += 1
                        self._changed.notify_all()  # the next may start too
                        return
                remaining = end - time.monotonic()
                if remaining <= 0:
                    for waiting in (self._queue, self._drawn):
                        if request in waiting:
                            waiting.remove(request)
                    self._changed.notify_all()
                    raise ServeError(
                        "E_INTERNAL",
                        f"no turn within {timeout}s (service wedged?)",
                    )
                self._changed.wait(remaining)

    def done(self) -> None:
        """Free the place of a request that :meth:`take` put in service."""
        with self._changed:
            self._in_service -= 1
            self._changed.notify_all()

    def next_round(self) -> Optional[Round]:
        """Draw up to ``max_batch`` queued requests as the next round;
        they then wait in its service order.  ``None`` if none is queued."""
        with self._changed:
            if not self._queue:
                return None
            batch = [
                self._queue.popleft()
                for _ in range(min(self.config.max_batch, len(self._queue)))
            ]
            self._rounds += 1
            rnd = self._schedule(self._rounds, batch)
            self._drawn.extend(req for _slot, req in rnd.order)
            self._changed.notify_all()  # the round's head may start
            return rnd

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
