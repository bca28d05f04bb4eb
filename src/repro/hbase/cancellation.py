"""Cooperative cancellation for region-side scan work.

A :class:`CancellationToken` is created per query by the fan-out client
(or handed in by the caller, e.g. the REST tier holding it for an
abandoned connection) and threaded into every region invocation's
:class:`~repro.hbase.coprocessor.CoprocessorContext`.  Scan loops call
:meth:`CancellationToken.checkpoint` every few dozen cells; a tripped
token raises :class:`~repro.errors.QueryCancelled` *mid-scan*, so a
blown deadline or an abandoned query stops burning CPU instead of
finishing work nobody can use.

Deadline enforcement is **deterministic**: the budget is measured in
*simulated* cost (setup + cells x per-record cost against the cluster's
calibrated cost model), not wall time, so the same query over the same
data always cancels at the same cell regardless of host speed or
thread interleaving.  ``cancel()`` is the wall-clock escape hatch for
abandonment — it trips the token for every region of the query.
"""

from __future__ import annotations

import threading
from typing import Optional

from ..errors import QueryCancelled

#: Cells between checkpoint probes inside region scan loops.  Small
#: enough that a cancelled scan stops within a sub-millisecond of
#: simulated work, large enough that the per-cell overhead is one
#: integer modulo.
CHECK_EVERY_CELLS = 64

#: Cancel reason stamped when a query deadline (simulated budget) blew.
#: A deadline abort degrades the answer: the region lands in
#: ``missing_regions`` and lowers coverage.
REASON_DEADLINE = "deadline"

#: Cancel reason stamped by the top-k merger when it *proves* a region's
#: remaining emission cannot enter the top k (threshold algorithm).  A
#: proof abort is complete-by-proof: the answer stays exact, coverage is
#: untouched, and the region must never appear in ``missing_regions``.
#: Traces distinguish the two via this reason string.
REASON_TOPK_PROOF = "topk_proof"


class CancellationToken:
    """Shared per-query cancellation state.

    Parameters
    ----------
    deadline_ms:
        The query's whole-query deadline in simulated milliseconds;
        None makes the token abandonment-only (checkpoints then cost a
        single flag read).
    cost_per_record_ms / setup_ms:
        The cost-model terms a region invocation's simulated spend is
        computed from at each checkpoint.
    strict:
        In strict mode one region blowing its budget trips the *shared*
        token, so sibling regions of the same query abort at their next
        checkpoint (the whole query fails anyway).  Non-strict keeps the
        trip region-local: survivors still contribute partials and the
        query degrades instead of dying.
    """

    __slots__ = (
        "deadline_ms",
        "cost_per_record_ms",
        "setup_ms",
        "strict",
        "check_every",
        "_cancelled",
        "_reason",
        "_lock",
    )

    def __init__(
        self,
        deadline_ms: Optional[float] = None,
        cost_per_record_ms: float = 0.0,
        setup_ms: float = 0.0,
        strict: bool = False,
        check_every: int = CHECK_EVERY_CELLS,
    ) -> None:
        self.deadline_ms = deadline_ms
        self.cost_per_record_ms = cost_per_record_ms
        self.setup_ms = setup_ms
        self.strict = strict
        self.check_every = max(1, int(check_every))
        self._cancelled = False
        self._reason: Optional[str] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------ state

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def reason(self) -> Optional[str]:
        return self._reason

    def cancel(self, reason: str = "cancelled") -> bool:
        """Trip the token for every holder.  First cancel wins; returns
        True when this call flipped the state."""
        with self._lock:
            if self._cancelled:
                return False
            self._cancelled = True
            self._reason = reason
            return True

    # ------------------------------------------------------- checkpoints

    def remaining_ms(self, spent_ms: float) -> float:
        """Budget left after ``spent_ms`` of simulated work; +inf when
        the token carries no deadline."""
        if self.deadline_ms is None:
            return float("inf")
        return self.deadline_ms - spent_ms

    def _spent_ms(self, records: int, extra_ms: float = 0.0) -> float:
        return self.setup_ms + records * self.cost_per_record_ms + extra_ms

    def first_blown(self, first: int, last: int) -> Optional[int]:
        """The smallest ``records`` in ``[first, last]`` at which
        :meth:`checkpoint` would raise, or None.  Spend is monotone in
        ``records``, so a run of consecutive checkpoints is probed at
        its end and, when that fails, cut at its first failing count —
        what probing every count in turn would have found."""
        if first > last:
            return None
        if self._cancelled:
            return first
        if self.deadline_ms is None:
            return None
        if self._spent_ms(last) < self.deadline_ms:
            return None
        while first < last:
            middle = (first + last) // 2
            if self._spent_ms(middle) >= self.deadline_ms:
                last = middle
            else:
                first = middle + 1
        return first

    def checkpoint(self, records: int, extra_ms: float = 0.0) -> None:
        """Raise :class:`QueryCancelled` when the token is tripped or
        this invocation's simulated spend has blown the deadline.

        ``records`` is the calling invocation's cells-touched-so-far;
        ``extra_ms`` any additional simulated spend it accumulated
        (retry backoff, injected stalls).  Cheap on the clean path: one
        flag read plus a multiply-compare.
        """
        if self._cancelled:
            raise QueryCancelled(
                "scan cancelled (%s)" % (self._reason or "cancelled")
            )
        if self.deadline_ms is None:
            return
        spent_ms = self._spent_ms(records, extra_ms)
        if spent_ms >= self.deadline_ms:
            if self.strict:
                # The whole query is dead: siblings should stop too.
                self.cancel("deadline")
            raise QueryCancelled(
                "region budget exhausted mid-scan: %.2fms spent of the "
                "%.2fms query deadline" % (spent_ms, self.deadline_ms)
            )
