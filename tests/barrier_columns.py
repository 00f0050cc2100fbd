"""Columns of finished runs, captured at each superstep's barrier.

A :class:`~repro.core.events.SuperstepRecord` releases its three batches
when its barrier ends, so a finished ``RunResult`` holds prices and
counts only.  A test that compares or re-prices a run's columns after the
run reads them from here instead:

* :func:`barrier_columns` wraps ``Machine._price``, through which every
  live barrier prices its record, and keeps each record's batches as it
  is priced;
* :func:`replay_columns` gives the same view of a compiled replay, whose
  one superstep is ``CompiledProgram.batch``.

Both hand back *twins*: records with the run record's index, work and
price that still hold the batches, so they can be compared column by
column, re-priced or audited.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from repro.core.engine import Machine
from repro.core.events import SuperstepRecord

__all__ = ["BarrierColumns", "barrier_columns", "replay_columns"]


def _twin(record: SuperstepRecord, msg, read, write) -> SuperstepRecord:
    return SuperstepRecord(
        record.index, record.work, msg_batch=msg, read_batch=read, write_batch=write,
        cost=record.cost, breakdown=record.breakdown, stats=record.stats,
    )


class BarrierColumns:
    """The batches every record held at its barrier, keyed by record."""

    def __init__(self) -> None:
        self._batches: Dict[SuperstepRecord, Tuple] = {}

    def _capture(self, record: SuperstepRecord) -> None:
        # the auditor prices a record a second time: keep the first
        if record not in self._batches:
            self._batches[record] = (record.msg_batch, record.read_batch, record.write_batch)

    def __getitem__(self, record: SuperstepRecord) -> SuperstepRecord:
        """A twin of ``record`` holding the batches it had at its barrier."""
        return _twin(record, *self._batches[record])

    def of(self, run) -> List[SuperstepRecord]:
        """The twins of ``run.records``, in order."""
        return [self[record] for record in run.records]


@contextmanager
def barrier_columns() -> Iterator[BarrierColumns]:
    """Capture the batches of every record priced at a barrier inside the
    block (any machine, any run, nested runs included)."""
    columns = BarrierColumns()
    price = Machine._price

    def capture(self, record):
        columns._capture(record)
        return price(self, record)

    Machine._price = capture
    try:
        yield columns
    finally:
        Machine._price = price


def replay_columns(compiled, run) -> List[SuperstepRecord]:
    """The twins of a replayed run's records: every replay prices
    ``compiled.batch``."""
    return [_twin(record, compiled.batch, None, None) for record in run.records]
