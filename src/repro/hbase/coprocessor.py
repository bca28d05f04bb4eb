"""Region coprocessors.

The paper's key query optimization (Section 2.2): "Each coprocessor is
responsible for a region of the Visit Repository table ... multiple get
requests are issued in parallel.  Increasing the regions number leads to
increase in coprocessors number and thus achieves higher degree of
parallelism within a single query."

A :class:`Coprocessor` is an endpoint deployed on a table.  When the
client invokes it, every region runs the endpoint *locally* against its
own data through a :class:`CoprocessorContext`, and the client merges the
per-region partial results.  The context records how many records the
endpoint touched, which feeds the cluster cost model.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from ..errors import CoprocessorError
from .cell import Cell
from .filters import ScanFilter
from .region import Region


class _NoopStage:
    """Stage-span stand-in when no tracer was propagated: accepts tags,
    records nothing.  Keeps ``hbase`` free of a ``core`` import."""

    __slots__ = ()

    def tag(self, key: str, value: Any) -> "_NoopStage":
        return self

    def finish(self) -> None:
        pass

    def __enter__(self) -> "_NoopStage":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NOOP_STAGE = _NoopStage()


class CorruptPartial:
    """Marker the fault injector substitutes for a region's partial
    result to model a wire-corrupted response.  Any coprocessor's
    :meth:`Coprocessor.validate_partial` rejects it, which routes the
    invocation through the retry/hedge machinery like a raised error.
    """

    __slots__ = ("original",)

    def __init__(self, original: Any = None) -> None:
        self.original = original

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "CorruptPartial(...)"


class StreamingPartial:
    """Marker base for partials that are *streams*, not finished lists.

    An endpoint whose region-side work is complete but whose emission is
    incremental (the top-k path: score-sorted batches plus an upper
    bound on the unemitted rest) returns a ``StreamingPartial`` subclass
    from :meth:`Coprocessor.run`.  The fan-out engine detects the marker
    and, instead of the plain list merge, drives the endpoint's
    :meth:`Coprocessor.stream_merge` *before* building per-region cost
    tasks, so only the items a stream actually shipped are charged to
    the web tier's merge cost.

    Subclasses must expose: ``region_id``, ``shipped`` (items that
    crossed the wire), ``cells_decoded``, ``cells_avoided``, ``pruned``
    (terminated complete-by-proof), ``aborted`` (terminated by
    deadline), and ``finished``.
    """

    __slots__ = ()


class CoprocessorContext:
    """Region-local view handed to a coprocessor endpoint.

    Wraps the region's read API and counts touched records so the
    simulation can charge the invocation's cost precisely.
    """

    def __init__(
        self,
        region: Region,
        tracer: Optional[Any] = None,
        span: Optional[Any] = None,
        cache: Optional[Any] = None,
        cancellation: Optional[Any] = None,
    ) -> None:
        self._region = region
        self.records_scanned = 0
        #: Per-query :class:`~repro.hbase.cancellation.CancellationToken`
        #: (None on the default path).  Endpoints with long scan loops
        #: should probe it every ``cancellation.check_every`` cells via
        #: :meth:`checkpoint`; a tripped token raises
        #: :class:`~repro.errors.QueryCancelled` mid-scan.
        self.cancellation = cancellation
        #: Region scan cache (see :mod:`repro.hbase.cache`) this
        #: invocation may consult; None on the uncached path and for
        #: any invocation the fault injector touched — a faulted run
        #: must neither serve nor populate cached partials.
        self.cache = cache
        #: Free-form endpoint counters (e.g. ``cells_decoded``); the
        #: client sums them across regions into the call result so a
        #: query's work profile is observable end to end.
        self.counters: Dict[str, int] = {}
        #: Trace context propagated from the client (see
        #: ``repro.core.tracing``): ``span`` is this invocation's
        #: region-level span, and :meth:`trace` opens stage spans under
        #: it.  Both default to the no-op path.
        self._tracer = tracer
        self.span = span

    def count(self, name: str, amount: int = 1) -> None:
        """Bump an endpoint-defined counter."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def checkpoint(self, records: int, extra_ms: float = 0.0) -> None:
        """Probe this query's cancellation token (no-op when none was
        propagated).  ``records`` is the endpoint's own cells-touched
        tally — the simulated-spend basis for deadline enforcement."""
        if self.cancellation is not None:
            self.cancellation.checkpoint(records, extra_ms)

    def trace(self, name: str, **tags: Any):
        """Open a stage span under this invocation's region span.

        Returns a context-manager span; with tracing disabled it is the
        shared no-op span, so endpoints can instrument stages without
        checking whether tracing is on.
        """
        if self._tracer is None:
            return _NOOP_STAGE
        return self._tracer.span(name, parent=self.span, **tags)

    @property
    def region_id(self) -> int:
        return self._region.region_id

    @property
    def data_seqid(self) -> int:
        """The region's current data sequence id.  Endpoints capture it
        *before* :meth:`cache_lookup` and stop reading and filling the
        cache once it moves: a mutation raced with the invocation."""
        return self._region.data_seqid

    def cache_lookup(self, owner_of: Callable[[bytes], Any]) -> Optional[Any]:
        """This region's scan-cache generation, brought up to the writes
        journaled so far (:meth:`RegionScanCache.lookup
        <repro.hbase.cache.RegionScanCache.lookup>`); ``owner_of`` maps
        a written row to the key owner whose entries it stales.  None
        without a cache, or when the invocation is not admitted."""
        if self.cache is None:
            return None
        return self.cache.lookup(self._region, owner_of)

    @property
    def start_key(self) -> Optional[bytes]:
        return self._region.start_key

    @property
    def end_key(self) -> Optional[bytes]:
        return self._region.end_key

    def get(self, row: bytes, family: str, qualifier: bytes) -> Optional[bytes]:
        """Region-local point get."""
        self.records_scanned += 1
        return self._region.get(row, family, qualifier)

    def get_row(self, row: bytes, family: str) -> Dict[bytes, bytes]:
        """Region-local whole-row get."""
        values = self._region.get_row(row, family)
        self.records_scanned += max(1, len(values))
        return values

    def scan(
        self,
        family: str,
        start_row: Optional[bytes] = None,
        stop_row: Optional[bytes] = None,
        scan_filter: Optional[ScanFilter] = None,
    ) -> Iterator[Cell]:
        """Region-local filtered scan; every emitted cell is counted."""
        for cell in self._region.scan(family, start_row, stop_row, scan_filter):
            self.records_scanned += 1
            yield cell

    def scan_cells(
        self,
        family: str,
        start_row: Optional[bytes] = None,
        stop_row: Optional[bytes] = None,
    ) -> Sequence[Cell]:
        """Region-local range read, materialized and *uncounted* (see
        :meth:`Region.scan_cells <repro.hbase.region.Region.scan_cells>`).

        For endpoints that fold one key range after another: the cells
        of a range arrive as one sequence — usually a slice of the one
        run that holds them — and the endpoint reports their number
        once via :meth:`add_scanned` instead of paying a counting
        generator frame per cell.  Callers MUST report, or the cost
        model undercharges.
        """
        return self._region.scan_cells(family, start_row, stop_row)

    def add_scanned(self, count: int) -> None:
        """Report cells read through :meth:`scan_cells`."""
        self.records_scanned += count

    def contains_row(self, row: bytes) -> bool:
        """True if this region owns ``row`` — endpoints use it to skip
        get requests for keys another region serves."""
        return self._region.contains_row(row)


class Coprocessor:
    """Base class for endpoint coprocessors.

    Subclasses implement :meth:`run`, which receives the region context
    plus the caller's request object and returns a serializable partial
    result.  The client merges partials with :meth:`merge`.
    """

    name = "coprocessor"

    def run(self, context: CoprocessorContext, request: Any) -> Any:
        """Execute region-locally.  Must be overridden."""
        raise CoprocessorError(
            "%s does not implement run()" % type(self).__name__
        )

    def merge(self, partials: List[Any]) -> Any:
        """Combine per-region partial results (default: concatenate lists)."""
        merged: List[Any] = []
        for partial in partials:
            if partial:
                merged.extend(partial)
        return merged

    def stream_merge(
        self, streams: List[Any], deadline_token: Optional[Any] = None
    ) -> Any:
        """Merge :class:`StreamingPartial` results incrementally.

        Called by the fan-out engine (instead of :meth:`merge`) when
        region invocations returned streaming partials.  Endpoints that
        emit streams must override this; the base class has no streaming
        protocol.
        """
        raise CoprocessorError(
            "%s returned StreamingPartial results but does not "
            "implement stream_merge()" % type(self).__name__
        )

    def validate_partial(self, partial: Any) -> bool:
        """Sanity-check one region's partial before accepting it.

        The resilient fan-out calls this only when a fault injector is
        armed; an invalid partial is treated exactly like a raised
        region error (retry, then hedge, then degrade).  The base check
        rejects the injector's corruption marker; endpoints with a known
        partial shape should also verify structure.
        """
        return not isinstance(partial, CorruptPartial)
