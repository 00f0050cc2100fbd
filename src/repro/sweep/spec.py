"""Sweep specifications: what to run, over which grid, how many trials.

A :class:`SweepSpec` names a pure trial function and a parameter grid; it
expands into a flat, ordered list of :class:`TrialTask` objects, one per
``(grid point, trial)`` pair.  Each task carries its own
:class:`~numpy.random.SeedSequence`, derived from the sweep's root seed via
:func:`repro.util.rng.derive_seed_sequence` on the stable path
``(sweep name, point key, trial index)`` — so any single trial can be
re-run in isolation, in any process, and two sweeps sharing a root seed
never collide on a trial stream (the failure mode of ``seed + t``
arithmetic).

The trial function contract: a module-level (hence picklable) callable
invoked as ``fn(seed=<SeedSequence>, **point_params, **common_params)``
returning a JSON-serializable value.  Purity — same params + seed in, same
value out, no shared mutable state — is what makes the pool runner's output
bit-identical to the serial path.

:attr:`SweepSpec.point_keys` labels the grid without deriving any seed, so
a caller that prices the grid another way (``pricing_ablation``'s fused
replay pass) names its cells exactly as the sweep would.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Sequence, Union

import numpy as np

from repro.util.rng import SeedLike, derive_seed_sequence

__all__ = ["TrialTask", "SweepSpec", "grid_points"]


@dataclass(frozen=True)
class TrialTask:
    """One unit of sweep work: a grid point's parameters at one trial index."""

    fn: Callable[..., Any]
    params: Dict[str, Any]
    seed: np.random.SeedSequence
    index: int  # position in the sweep's flat task order
    point: str  # grid-point key
    trial: int  # trial index within the point
    label: str  # "name[point:trial]" — shown in telemetry and errors

    def run(self) -> Any:
        """Execute the trial in the current process."""
        return self.fn(seed=self.seed, **self.params)


def _point_key(point: Mapping[str, Any]) -> str:
    """Stable key for an unlabeled grid point: sorted scalar items."""
    parts = []
    for k in sorted(point):
        v = point[k]
        parts.append(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v!r}")
    return ",".join(parts) if parts else "point"


@dataclass
class SweepSpec:
    """A named sweep: ``fn`` fanned over ``grid`` × ``trials``.

    ``grid`` is either a mapping ``{point_key: params}`` (the key names the
    point in seed derivation, telemetry, and errors — use this when params
    contain arrays or relations whose repr is not a usable key) or a plain
    sequence of param dicts (keys are derived from the sorted scalar
    items).  ``common`` params are merged under every point (point wins on
    conflict).  ``trials`` replicates every point with independent
    per-trial seed streams.
    """

    name: str
    fn: Callable[..., Any]
    grid: Union[Mapping[str, Mapping[str, Any]], Sequence[Mapping[str, Any]]] = field(
        default_factory=lambda: [{}]
    )
    trials: int = 1
    common: Mapping[str, Any] = field(default_factory=dict)
    seed: SeedLike = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if isinstance(self.grid, Mapping):
            self._points = [(str(k), dict(v)) for k, v in self.grid.items()]
        else:
            self._points = [(_point_key(pt), dict(pt)) for pt in self.grid]
        if not self._points:
            raise ValueError("sweep grid is empty")
        keys = [k for k, _ in self._points]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ValueError(f"duplicate grid-point keys {dupes}; label points explicitly")

    @property
    def point_keys(self) -> List[str]:
        """Grid-point keys in task order."""
        return [k for k, _ in self._points]

    def task_seed(self, point: str, trial: int) -> np.random.SeedSequence:
        """The exact seed stream of one ``(point, trial)`` cell — what a
        failed trial's error message tells you to replay."""
        return derive_seed_sequence(self.seed, self.name, point, trial)

    def tasks(self) -> List[TrialTask]:
        """Expand into the flat, ordered task list (points major, trials
        minor) — the order results are reassembled in, pool or serial."""
        out: List[TrialTask] = []
        for key, point in self._points:
            for t in range(self.trials):
                out.append(
                    TrialTask(
                        fn=self.fn,
                        params={**self.common, **point},
                        seed=self.task_seed(key, t),
                        index=len(out),
                        point=key,
                        trial=t,
                        label=f"{self.name}[{key}:{t}]",
                    )
                )
        return out


def grid_points(**axes: Sequence[Any]) -> List[Dict[str, Any]]:
    """Cartesian product of named axes as a list of param dicts:
    ``grid_points(p=[64, 128], L=[1.0, 4.0])`` → 4 points."""
    names = list(axes)
    return [dict(zip(names, combo)) for combo in itertools.product(*axes.values())]
