"""The CRCW PRAM(m) model (Mansour–Nisan–Vishkin; paper Sections 2–3, 5).

``p`` processors communicate *only* through ``m`` shared memory cells,
addressed ``0 .. m-1``, readable and writable concurrently (Arbitrary write
resolution).  The input lives in a separate concurrently-readable Read Only
Memory whose access is free — the model's distinguishing feature, which is
why (as the paper notes) distributing the input costs nothing here while it
costs ``n/m`` on the QSM(m).

Programs receive the ROM as a plain sequence captured at :meth:`PRAMm.run`
time; reading it is unrestricted and uncharged, matching the model.  Shared
cells are accessed through the usual ``ctx.read`` / ``ctx.write`` API, and
addresses outside ``range(m)`` raise :class:`~repro.core.engine.ModelViolation`.

Each synchronous step costs 1 (``max(w, 1)`` with explicit local work).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.core.engine import Machine, ModelViolation, PriceResult
from repro.core.events import SuperstepRecord
from repro.core.params import MachineParams
from repro.models.pram import PRAM, ConcurrencyRule

__all__ = ["PRAMm"]


class PRAMm(PRAM):
    """CRCW PRAM with ``m`` shared cells and a free input ROM."""

    def __init__(self, params: MachineParams) -> None:
        params.require_m()
        super().__init__(params, rule=ConcurrencyRule.CRCW)
        self.rom: Sequence[Any] = ()

    def set_rom(self, rom: Sequence[Any]) -> None:
        """Install the read-only input memory for subsequent runs."""
        self.rom = rom

    def _validate_addresses(self, record: SuperstepRecord) -> None:
        m = self.params.require_m()
        for batch in (record.read_batch, record.write_batch):
            if not batch.n:
                continue
            addr = batch.addr
            if isinstance(addr, np.ndarray):
                # integer-addressed batch: one vectorized range check
                if addr.min() < 0 or addr.max() >= m:
                    bad = int(addr[(addr < 0) | (addr >= m)][0])
                    raise ModelViolation(
                        f"PRAM(m) shared address must be an int in [0, {m}), "
                        f"got {bad!r}"
                    )
            else:
                for a in addr:
                    if not isinstance(a, (int, np.integer)) or not (0 <= a < m):
                        raise ModelViolation(
                            f"PRAM(m) shared address must be an int in [0, {m}), "
                            f"got {a!r}"
                        )

    def _price_batch(
        self, record: SuperstepRecord, machines: Sequence[Machine]
    ) -> List[PriceResult]:
        for mach in machines:
            mach._validate_addresses(record)
        return super()._price_batch(record, machines)

    def run(self, program: Callable[..., Any], *, rom: Optional[Sequence[Any]] = None, **kwargs):
        """Run ``program(ctx, rom, *args)``; ``rom`` defaults to the machine's
        installed ROM.  ROM reads are free, so the program simply indexes the
        sequence."""
        if rom is not None:
            self.set_rom(rom)
        base_args = kwargs.pop("args", ())
        return super().run(program, args=(self.rom, *base_args), **kwargs)
