"""List ranking — Table 1, row 4.

Input: a linked list given as a successor array (``succ[i]`` is the next
node, ``-1`` at the tail); output: for every node its distance to the tail.

Two algorithms:

* :func:`list_ranking_wyllie` — Wyllie's pointer jumping, ``ceil(lg n)``
  rounds, one node per processor.  Per round every live node queries its
  successor and halves its pointer chain.  Communication is perfectly
  *balanced* (in/out degree 1), so on locally-limited machines this is
  already near the ``Ω(g lg n / lg lg n)`` lower bound — but its total
  message volume is ``Θ(n lg n)``, so on a globally-limited machine it
  cannot reach the Table-1 bound.

* :func:`list_ranking_contraction` — work-efficient randomized contraction
  (random-mate): nodes are block-distributed over ``a = min(p, m)``
  simulator processors; each round every live node flips a coin and a
  head-node splices out its tail-successor, so a constant fraction of the
  list disappears per round w.h.p. and the total message volume is
  ``O(n)``.  Spliced nodes record ``(parent, offset)``; a reverse-order
  expansion then assigns final ranks.  On the BSP(m) the bandwidth term is
  ``O(n/m)`` and the latency term ``O(L lg n)`` — the Table-1 shape
  ``O(L lg m + n/m)`` up to ``lg n`` vs ``lg m`` in the latency term (the
  paper gets ``lg m`` by switching to pointer jumping once the list fits
  in ``m``; we run contraction to the end, which only affects the
  latency-dominated regime).

Slot discipline for the contraction: only the ``a <= m`` simulators ever
send, each tagging its ``k``-th message of a superstep with slot ``k`` — so
no slot can exceed ``m`` injections, with zero coordination.
"""

from __future__ import annotations

import random as _random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import Machine, RunResult
from repro.util.intmath import ilog2
from repro.util.rng import SeedLike, as_generator

__all__ = [
    "list_ranking_wyllie",
    "list_ranking_contraction",
    "random_list",
    "sequential_ranks",
]

NIL = -1

#: runs of the randomized contraction before a stall is reported
CONTRACTION_ATTEMPTS = 4


def random_list(n: int, seed: SeedLike = None) -> np.ndarray:
    """A uniformly random linked list over nodes ``0..n-1`` as a successor
    array (tail has successor ``-1``)."""
    rng = as_generator(seed)
    order = rng.permutation(n)
    succ = np.full(n, NIL, dtype=np.int64)
    succ[order[:-1]] = order[1:]
    return succ


def sequential_ranks(succ: Sequence[int]) -> np.ndarray:
    """Host-side oracle: distance of each node to the tail."""
    succ = np.asarray(succ, dtype=np.int64)
    n = succ.size
    is_succ = np.zeros(n, dtype=bool)
    valid = succ[succ != NIL]
    is_succ[valid] = True
    heads = np.nonzero(~is_succ)[0]
    if n and heads.size != 1:
        raise ValueError(f"input is not a single list (found {heads.size} heads)")
    ranks = np.zeros(n, dtype=np.int64)
    if n == 0:
        return ranks
    chain = []
    node = int(heads[0])
    while node != NIL:
        chain.append(node)
        node = int(succ[node])
    if len(chain) != n:
        raise ValueError("successor array contains a cycle or is disconnected")
    for dist_from_head, node in enumerate(chain):
        ranks[node] = n - 1 - dist_from_head
    return ranks


# ----------------------------------------------------------------------
# Wyllie pointer jumping (one node per processor)
# ----------------------------------------------------------------------


def _wyllie_bsp_program(ctx, rounds: int, succ0: int):
    pid = ctx.pid
    succ = succ0
    rank = 0 if succ == NIL else 1
    for _ in range(rounds):
        if succ != NIL:
            ctx.send(succ, ("q", pid), slot=ctx.stagger_slot())
        yield
        queries = [msg.payload[1] for msg in ctx.receive() if msg.payload[0] == "q"]
        for q in queries:  # at most one predecessor in a list
            ctx.send(q, ("a", succ, rank), slot=ctx.stagger_slot())
        yield
        for msg in ctx.receive():
            tag, nxt, nxt_rank = msg.payload
            rank += nxt_rank
            succ = nxt
    return rank


def _wyllie_qsm_program(ctx, rounds: int, succ0: int):
    pid = ctx.pid
    succ = succ0
    rank = 0 if succ == NIL else 1
    for r in range(rounds):
        ctx.write(("wy", r, pid), (succ, rank), slot=ctx.stagger_slot())
        yield
        handle = None
        if succ != NIL:
            handle = ctx.read(("wy", r, succ), slot=ctx.stagger_slot())
        yield
        if handle is not None:
            nxt, nxt_rank = handle.value
            rank += nxt_rank
            succ = nxt
    return rank


def list_ranking_wyllie(machine: Machine, succ: Sequence[int]) -> Tuple[RunResult, np.ndarray]:
    """Wyllie pointer jumping; requires one node per processor
    (``len(succ) == p``).  Returns ``(run_result, ranks)``."""
    succ = np.asarray(succ, dtype=np.int64)
    p = machine.params.p
    if succ.size != p:
        raise ValueError(f"Wyllie needs one node per processor ({succ.size} != {p})")
    rounds = max(1, ilog2(max(1, p - 1)) + 1)
    per_proc = [(int(s),) for s in succ]
    program = _wyllie_qsm_program if machine.uses_shared_memory else _wyllie_bsp_program
    res = machine.run(program, args=(rounds,), per_proc_args=per_proc)
    return res, np.asarray(res.results, dtype=np.int64)


# ----------------------------------------------------------------------
# Work-efficient randomized contraction on a = min(p, m) simulators
# ----------------------------------------------------------------------


def _contraction_program(ctx, a: int, max_rounds: int, nodes: Dict[int, int], seed: int):
    """Simulator program: ``nodes`` maps node id -> successor for the block
    owned by this processor.  Returns ``{node: rank}``.

    Message vocabulary (all routed to ``owner(v) = v % a``):
    ``("c", u, v, coin)``   u tells its successor v its id and coin;
    ``("s", v, u, sv, wv)`` v grants the splice: u absorbs v;
    ``("f", v, rank)``      expansion: v's final rank.
    """
    pid = ctx.pid
    if pid >= a:
        # Non-simulators idle but must match the simulators' yield count.
        for _ in range(2 * max_rounds + 1 + max_rounds + 1):
            yield
        return {}

    rng = _random.Random(seed)
    owner = lambda v: v % a
    succ = dict(nodes)
    weight = {u: (0 if s == NIL else 1) for u, s in succ.items()}
    alive = set(succ)
    spliced_at: Dict[int, List[Tuple[int, int, int]]] = {}  # round -> [(child, w_before)]
    splice_round_of: Dict[int, int] = {}

    # Each superstep's messages go out as one columnar batch; the k-th
    # message keeps slot k (the <= m senders discipline above), so the
    # slot column is just arange(count).
    def send_batch(dests: List[int], payloads: List[tuple]) -> None:
        if not dests:
            return
        ctx.send_many(
            np.asarray(dests, dtype=np.int64),
            payloads=payloads,
            slots=np.arange(len(dests), dtype=np.int64),
        )
        ctx.work(len(dests))

    # ---- contraction ----
    for rnd in range(max_rounds):
        # One coin per live node per round, used consistently whether the
        # node acts as a head (splicer) or a tail (splicee) — inconsistent
        # coins would let a node be spliced out while absorbing its own
        # successor, orphaning part of the list.
        coins = {u: rng.random() < 0.5 for u in sorted(alive)}
        senders = [u for u in sorted(alive) if succ[u] != NIL]
        send_batch(
            [owner(succ[u]) for u in senders],
            [("c", u, succ[u], coins[u]) for u in senders],
        )
        yield
        grants = []
        for _tag, u, v, coin_u in ctx.receive().payloads:
            if v in alive:
                # u=head (coin H), v=tail (coin T): v is spliced out by u.
                if coin_u and not coins[v]:
                    grants.append((v, u))
        send_batch(
            [owner(u) for _v, u in grants],
            [("s", v, u, succ[v], weight[v]) for v, u in grants],
        )
        for v, u in grants:
            alive.discard(v)
            splice_round_of[v] = rnd
        yield
        absorbed = ctx.receive().payloads
        for _tag, v, u, sv, wv in absorbed:
            spliced_at.setdefault(rnd, []).append((u, v, weight[u]))
            weight[u] += wv
            succ[u] = sv
        ctx.work(len(absorbed))

    # ---- finalize survivors ----
    ranks: Dict[int, int] = {}
    leftovers = [u for u in alive if succ[u] != NIL]
    for u in alive:
        if succ[u] == NIL:
            ranks[u] = weight[u]
    yield  # alignment barrier before expansion

    # ---- expansion (reverse round order) ----
    for rnd in range(max_rounds - 1, -1, -1):
        final = [
            (u, v, w_before)
            for (u, v, w_before) in spliced_at.get(rnd, ())
            if u in ranks
        ]
        send_batch(
            [owner(v) for _u, v, _w in final],
            [("f", v, ranks[u] - w_before) for u, v, w_before in final],
        )
        yield
        for _tag, v, rank_v in ctx.receive().payloads:
            ranks[v] = rank_v

    return {"ranks": ranks, "unfinished": leftovers}


def list_ranking_contraction(
    machine: Machine,
    succ: Sequence[int],
    seed: SeedLike = None,
    max_rounds: Optional[int] = None,
) -> Tuple[RunResult, np.ndarray]:
    """Randomized contraction list ranking on ``a = min(p, m)`` simulators
    (all ``p`` when the machine is locally limited).

    Returns ``(run_result, ranks)``.  The contraction is a Las Vegas
    algorithm: ``max_rounds`` (default ``4 ceil(lg n) + 16``) rounds leave
    some nodes unspliced with small but not negligible probability at
    small ``n`` (about 1 in 700 runs at ``n = 15``, 32 rounds).  Such a
    run is repeated with fresh per-processor seeds drawn from the same
    generator, up to ``CONTRACTION_ATTEMPTS`` runs in all.  The returned
    :class:`RunResult` carries the supersteps of every attempt, so its
    ``time`` is the whole cost paid; a first attempt that finishes is
    returned as is.  Raises :class:`RuntimeError` when every attempt
    leaves nodes unspliced (e.g. ``max_rounds`` far too small).
    """
    if machine.uses_shared_memory:
        raise ValueError(
            "contraction ranking is implemented for message-passing machines; "
            "use list_ranking_wyllie on QSM machines"
        )
    succ = np.asarray(succ, dtype=np.int64)
    n = succ.size
    p = machine.params.p
    m = machine.params.m
    a = min(p, m) if m is not None else p
    if max_rounds is None:
        max_rounds = 4 * (ilog2(max(1, n)) + 1) + 16
    rng = as_generator(seed)
    blocks: List[Dict[int, int]] = [dict() for _ in range(p)]
    for u in range(n):
        blocks[u % a][u] = int(succ[u])
    runs: List[RunResult] = []
    for _attempt in range(CONTRACTION_ATTEMPTS):
        seeds = rng.integers(0, 2**62, size=p)
        per_proc = [(blocks[i], int(seeds[i])) for i in range(p)]
        runs.append(
            machine.run(_contraction_program, args=(a, max_rounds), per_proc_args=per_proc)
        )
        left = sum(len(out["unfinished"]) for out in runs[-1].results if out)
        if not left:
            break
    else:
        raise RuntimeError(
            f"contraction did not finish in {max_rounds} rounds on any of "
            f"{CONTRACTION_ATTEMPTS} attempts ({left} nodes left on the last)"
        )
    res = runs[-1] if len(runs) == 1 else _concat_runs(runs)
    ranks = np.full(n, -1, dtype=np.int64)
    for out in res.results:
        if out:
            for u, r in out["ranks"].items():
                ranks[u] = r
    if n and (ranks < 0).any():
        raise RuntimeError("some nodes never received a final rank")
    return res, ranks


def _concat_runs(runs: List[RunResult]) -> RunResult:
    """One result holding every attempt's supersteps, the last one's
    outputs, and (when a ledger recorded them) every attempt's rows."""
    first, last = runs[0], runs[-1]
    ledger = None
    if first.ledger is not None and last.ledger is not None:
        ledger = last.ledger.ledger.view(first.ledger.start, last.ledger.stop)
    return RunResult(
        params=last.params,
        records=[rec for run in runs for rec in run.records],
        results=last.results,
        ledger=ledger,
    )
