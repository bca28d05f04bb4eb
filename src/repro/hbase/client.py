"""Cluster-level HBase client.

Owns every table, places regions on simulated nodes, and executes
coprocessor calls: the *work* runs for real, one region after another
in the calling thread, while the *latency* is produced by the cluster
simulation's scheduler and cost model (which is where the regions of
one query overlap, as they do on HBase).

The fan-out is **resilient**: a region invocation that raises (a real
coprocessor bug or an injected fault) is retried with exponential
backoff + deterministic jitter, hedged once against a surviving node,
and — only when every avenue is exhausted — dropped, with the query
completing from the surviving partials (``degraded=True``, the missing
region list and a coverage fraction on the call result).  A per-node
circuit breaker short-circuits requests to repeatedly failing nodes.
With no faults the recovery machinery never engages and results,
timelines and traces are byte-identical to the non-resilient path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence

from ..cluster import ClusterSimulation, QueryTimeline, Task
from ..config import ClusterConfig, FaultsConfig
from ..errors import (
    ConfigError,
    CoprocessorError,
    QueryCancelled,
    QueryDeadlineExceeded,
    RegionNotFoundError,
    RegionUnavailableError,
    TableExistsError,
    TableNotFoundError,
)
from .cache import RegionScanCache
from .cancellation import CancellationToken
from .coprocessor import Coprocessor, CoprocessorContext, StreamingPartial
from .region import Region
from .table import HTable, TableDescriptor
from .wal import RegionWALHandle, ServerWAL

#: Fault-kind strings shared with :mod:`repro.core.faults` (duplicated
#: as literals so ``hbase`` never imports ``core``).
_FAULT_ERROR = "error"
_FAULT_HANG = "hang"
_FAULT_CORRUPT = "corrupt"
#: Attempt index hedged re-executions present to the fault injector.
_HEDGE_ATTEMPT = -1
#: A region's first retry backs off this long (simulated); each further
#: retry multiplies it.
RETRY_BACKOFF_MS = 2.0
RETRY_BACKOFF_MULTIPLIER = 2.0
#: Fan-outs a node's breaker stays open before admitting a probe.
BREAKER_COOLDOWN_FANOUTS = 4


@dataclass
class CoprocessorCallResult:
    """Outcome of one coprocessor invocation across a table's regions."""

    result: Any
    timeline: QueryTimeline
    per_region_records: Dict[int, int] = field(default_factory=dict)
    #: Size of each region's partial result (items shipped to the
    #: client for merging).
    per_region_results: Dict[int, int] = field(default_factory=dict)
    #: Regions of the table the client never invoked because routing
    #: proved they own none of the queried keys.
    regions_pruned: int = 0
    #: Endpoint-reported counters, summed across invoked regions
    #: (e.g. ``cells_decoded`` from the lazy visit-decode path).
    counters: Dict[str, int] = field(default_factory=dict)
    #: True when one or more invoked regions never answered within the
    #: retry/hedge budget and the merge ran on the surviving partials.
    degraded: bool = False
    #: Region ids whose partials are missing from ``result``.
    missing_regions: List[int] = field(default_factory=list)
    #: Fraction of invoked regions that contributed a partial (1.0 on
    #: the clean path; 0 < coverage < 1 on a degraded result).
    coverage: float = 1.0
    #: Recovery work this call performed (0 on the clean path).
    retries: int = 0
    hedges: int = 0
    #: Region scans that aborted mid-scan on a tripped cancellation
    #: token (deadline blown or caller abandoned the query); their
    #: regions are also in ``missing_regions``.
    cancelled_regions: int = 0

    @property
    def latency_ms(self) -> float:
        """Simulated end-to-end latency of the call in milliseconds."""
        return self.timeline.latency_ms

    @property
    def records_scanned(self) -> int:
        return self.timeline.records_scanned


class _QueryState:
    """One query's passage through the fan-out stages: what the plan
    stage decided for it, then what its regions produced, absorbed as
    each region completes."""

    __slots__ = (
        # The call the query belongs to (shared by every query of it).
        "qi",
        "coprocessor",
        "tracer",
        "injector",
        "epoch",
        "placement",
        # Plan.
        "deadline_ms",
        "token",
        "parent_span",
        # Absorbed from the regions, in invocation order.
        "tasks",
        "partials",
        "counters",
        "spans",
        "missing",
        "retries",
        "hedges",
        "breaker_skips",
        "cancelled",
    )

    def __init__(
        self,
        qi: int,
        coprocessor: Coprocessor,
        tracer: Optional[Any],
        injector: Optional[Any],
        epoch: int,
        placement: Mapping[int, int],
    ) -> None:
        self.qi = qi
        self.coprocessor = coprocessor
        #: None unless tracing is enabled / the injector is armed, so
        #: the stages probe one thing.
        self.tracer = tracer
        self.injector = injector
        self.epoch = epoch
        self.placement = placement
        self.deadline_ms: Optional[float] = None
        self.token: Optional[CancellationToken] = None
        self.parent_span: Optional[Any] = None
        #: Each invoked region's cost account, which is also what the
        #: simulator schedules: records scanned over every attempt,
        #: items shipped, recovery seconds.
        self.tasks: Dict[int, Task] = {}
        self.partials: List[Any] = []
        self.counters: Dict[str, int] = {}
        self.spans: Dict[int, Any] = {}
        self.missing: List[int] = []
        self.retries = 0
        self.hedges = 0
        self.breaker_skips = 0
        self.cancelled = 0


class _BreakerState:
    """Per-node circuit-breaker bookkeeping."""

    __slots__ = ("failures", "open_until")

    def __init__(self) -> None:
        self.failures = 0
        #: Fan-out epoch at which a probe request is admitted; -1 closed.
        self.open_until = -1


class HBaseCluster:
    """The facade the platform's repositories talk to.

    Parameters
    ----------
    config:
        Cluster shape and cost model; defaults to the paper's 16-node
        setup.
    faults_config:
        Retry/hedge/breaker/deadline knobs for the resilient fan-out
        (and injection rates, consumed by ``fault_injector``);
        defaults to :class:`~repro.config.FaultsConfig` — injection off,
        recovery armed.
    metrics, event_log, fault_injector, retry_budget, scan_cache:
        The collaborators the fan-out reports into or consults; each
        None by default (see the attributes of the same names).
    """

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        faults_config: Optional[FaultsConfig] = None,
        metrics: Optional[Any] = None,
        event_log: Optional[Any] = None,
        fault_injector: Optional[Any] = None,
        retry_budget: Optional[Any] = None,
        scan_cache: Optional[RegionScanCache] = None,
    ) -> None:
        self.config = config or ClusterConfig()
        self.faults_config = faults_config or FaultsConfig()
        self.simulation = ClusterSimulation(self.config)
        self._tables: Dict[str, HTable] = {}
        #: node_id -> that region server's durable log.  Every region of
        #: every table writes through a handle on the log of the node it
        #: is placed on, from creation (see :meth:`_follow_placement`).
        self._server_wals: Dict[int, ServerWAL] = {
            node.node_id: ServerWAL(node.node_id)
            for node in self.simulation.nodes
        }
        #: Fault injector (see :class:`repro.core.faults.FaultInjector`)
        #: armed on the query fan-out; None keeps the clean path
        #: injection-free.
        self.fault_injector = fault_injector
        #: Metrics sink (duck-typed ``PlatformMetrics``) for the fan-out's
        #: resilience counters: retries, hedges, missing regions, breaker
        #: trips.
        self.metrics = metrics
        #: Region scan cache (see :mod:`repro.hbase.cache`) handed to
        #: every *clean* invocation; invocations the fault injector
        #: touched never see it.  None keeps the fan-out cache-free.
        self.scan_cache = scan_cache
        #: Wide-event log (a :class:`repro.core.telemetry.WideEventLog`);
        #: breaker flips and node fail/recover become structured events
        #: (always kept — they are rare and load-bearing for incident
        #: timelines).
        self.event_log = event_log
        #: Cluster supervisor (see :class:`repro.core.supervisor.
        #: ClusterSupervisor`, which sets itself here): heartbeat-lease
        #: death detection, WAL-split recovery and storage scrubbing;
        #: injected ``fail`` entries then go through :meth:`crash_node`.
        #: None keeps failure handling manual: fail_node/recover_node.
        self.supervisor: Optional[Any] = None
        #: Global retry budget (duck-typed ``repro.core.admission.
        #: RetryBudget``) gating the retry and hedge paths, so recovery
        #: cannot amplify an overload into a retry storm; None leaves
        #: them bounded only by the per-region knobs.
        self.retry_budget = retry_budget
        self._fanout_lock = threading.Lock()
        self._fanout_epoch = 0
        self._breaker_lock = threading.Lock()
        self._breakers: Dict[int, _BreakerState] = {}

    # ------------------------------------------------------ observability

    def _emit_event(self, event: Mapping, keep: bool = True) -> None:
        if self.event_log is not None:
            self.event_log.emit(dict(event), keep=keep)

    def scan_cache_sweep(self) -> int:
        """Reap the scan-cache generations of regions whose write
        journal no longer reaches back to them.  Returns the number of
        entries dropped; 0 when no cache is attached."""
        if self.scan_cache is None:
            return 0
        return self.scan_cache.sweep(self.regions())

    def _count(
        self, name: str, amount: int = 1, labels: Optional[Mapping] = None
    ) -> None:
        if self.metrics is not None:
            self.metrics.increment(name, amount, labels=labels)

    # -------------------------------------------------------------- DDL

    def create_table(self, descriptor: TableDescriptor) -> HTable:
        if descriptor.name in self._tables:
            raise TableExistsError("table %r already exists" % descriptor.name)
        table = HTable(descriptor, on_split=self._replace_regions)
        self._tables[descriptor.name] = table
        self._replace_regions()
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise TableNotFoundError("table %r does not exist" % name)
        del self._tables[name]
        self._replace_regions()

    def table(self, name: str) -> HTable:
        try:
            return self._tables[name]
        except KeyError:
            raise TableNotFoundError("table %r does not exist" % name) from None

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def regions(self) -> Iterator[Region]:
        """Every region of every table, tables in name order."""
        for name in sorted(self._tables):
            yield from self._tables[name].regions

    def region(self, region_id: int) -> Region:
        for region in self.regions():
            if region.region_id == region_id:
                return region
        raise RegionNotFoundError("no region %r in this cluster" % region_id)

    def server_wal(self, node_id: int) -> ServerWAL:
        """The durable log of region server ``node_id``."""
        return self._server_wals[node_id]

    def _replace_regions(self) -> None:
        """Re-run region placement after any region-set change (a table
        created or dropped, a region split)."""
        before = self.simulation.region_placement
        self.simulation.place_regions([r.region_id for r in self.regions()])
        self._follow_placement(before)

    def _follow_placement(self, before: Mapping[int, int]) -> None:
        """Placement just changed from ``before``: bring the logs along.

        Every region that is new or now lives on another node gets its
        log on — or has its records (live and archived) moved to — that
        node's :class:`ServerWAL`, and its cached partials are dropped:
        they were produced under the old placement, possibly on a
        server that just disappeared mid-write.  Regions that left the
        cluster (a dropped table, a split parent) take their records
        and cached partials with them.
        """
        after = self.simulation.region_placement
        regions = {region.region_id: region for region in self.regions()}
        moved = [rid for rid, node in after.items() if before.get(rid) != node]
        for rid in moved:
            region, server = regions[rid], self._server_wals[after[rid]]
            if region.wal is None:
                region.wal = RegionWALHandle(server, rid)
            else:
                region.wal.rehome(server)
        gone = before.keys() - after.keys()
        for rid in gone:
            self._server_wals[before[rid]].remove_region(rid)
        if self.scan_cache is not None and (moved or gone):
            self.scan_cache.invalidate_regions([*moved, *gone])

    # ----------------------------------------------------- coprocessors

    def coprocessor_exec_routed(
        self,
        table_name: str,
        coprocessor: Coprocessor,
        routed_requests: Sequence[Mapping[Region, Any]],
        route_items: Optional[Sequence[int]] = None,
        tracer: Optional[Any] = None,
        trace_parents: Optional[Sequence[Any]] = None,
        deadlines: Optional[Sequence[Optional[float]]] = None,
        cancel_tokens: Optional[Sequence[Optional[CancellationToken]]] = None,
    ) -> List[CoprocessorCallResult]:
        """Route-then-stream fan-out: each request already partitioned
        per region.

        ``routed_requests[qi]`` maps each region to the region-local
        request it should run; regions absent from the mapping are never
        invoked (they are reported via ``regions_pruned``).  This is the
        only fan-out: the client partitions a friend list by salted key
        prefix, and a caller that wants every region maps each of
        ``table.regions`` to its request.  Every query's regions run in
        region-id order on the calling thread, through six stages over
        one :class:`_QueryState` per query; the cluster simulation is
        what makes the regions of a batch overlap in (simulated) time.

        ``route_items[qi]`` is the number of keys the client routed for
        request ``qi`` (e.g. the friend count); the simulation charges
        the routing term for them, keeping latencies honest about the
        client-side work.

        ``tracer``/``trace_parents`` propagate trace context into the
        fan-out: with a tracer, every region invocation opens a
        ``region.scan`` span under ``trace_parents[qi]`` and the parent
        is tagged with straggler attribution (which region dominated
        the simulated fan-out and by how much).

        ``deadlines[qi]`` is request ``qi``'s client-supplied deadline
        (ms); it tightens the config's ``query_deadline_ms`` and arms a
        per-query cancellation token so region scans abort mid-scan
        once their simulated spend blows the budget.  ``cancel_tokens``
        lets the caller hand in its own tokens (e.g. the REST tier
        cancelling an abandoned query from another thread).
        """
        table = self.table(table_name)
        client_setup_s = None
        if route_items is not None:
            cm = self.simulation.cost_model
            client_setup_s = [cm.routing_cost_s(n) for n in route_items]
        injector = self.fault_injector
        if not getattr(injector, "enabled", False):
            injector = None
        if injector is not None:
            # Applies any due node fail/recover schedule entries, so the
            # placement snapshot below sees the post-event cluster.
            injector.on_fanout_start(self)
        with self._fanout_lock:
            self._fanout_epoch += 1
            epoch = self._fanout_epoch
        if not getattr(tracer, "enabled", False):
            tracer = None
        placement = self.simulation.region_placement

        states: List[_QueryState] = []
        for qi, mapping in enumerate(routed_requests):
            q = _QueryState(qi, coprocessor, tracer, injector, epoch, placement)
            # 1. plan
            self._plan(
                q,
                deadlines[qi] if deadlines is not None else None,
                cancel_tokens[qi] if cancel_tokens is not None else None,
                trace_parents[qi]
                if tracer is not None and trace_parents is not None
                else None,
            )
            # 2. run regions, in region-id order
            for region, request in sorted(
                mapping.items(), key=lambda item: item[0].region_id
            ):
                self._run_region(q, region, request)
            # 3. merge streams, timed under the query's fan-out span
            if q.parent_span is None:
                self._merge_streams(q)
            else:
                with tracer.span("merge", parent=q.parent_span) as span:
                    span.tag("pois", self._merge_streams(q))
            # 4. account
            self._account(q)
            states.append(q)
        # 5. simulate: one pass over the whole batch, so concurrent
        # queries contend for the same simulated cores (Figure 3).
        timelines = self.simulation.run_queries(
            [list(q.tasks.values()) for q in states],
            client_setup_s=client_setup_s,
        )
        # 6. finish
        total_regions = len(table.regions)
        return [
            self._finish(q, timeline, total_regions)
            for q, timeline in zip(states, timelines)
        ]

    # ------------------------------------------------------ fan-out stages

    def _plan(
        self,
        q: _QueryState,
        client_deadline_ms: Optional[float],
        token: Optional[CancellationToken],
        parent_span: Optional[Any],
    ) -> None:
        """Effective deadline, cancellation token and parent span of
        one query."""
        fcfg = self.faults_config
        # A client-supplied deadline tightens the config default.
        deadline_ms = fcfg.query_deadline_ms
        if client_deadline_ms is not None:
            deadline_ms = (
                client_deadline_ms if deadline_ms is None
                else min(deadline_ms, client_deadline_ms)
            )
        if token is None and deadline_ms is not None and (
            fcfg.strict_deadline or client_deadline_ms is not None
        ):
            # Cooperative cancellation engages only in strict mode or
            # under an explicit client deadline; the default graceful
            # path stays byte-identical to the token-free build.
            token = CancellationToken(
                deadline_ms=deadline_ms, strict=fcfg.strict_deadline
            )
        if token is not None:
            # Stamp the cost-model terms so checkpoints translate
            # cells-touched into simulated spend deterministically.
            cm = self.simulation.cost_model
            token.cost_per_record_ms = cm.cost_per_record_s * 1e3
            token.setup_ms = (cm.rpc_latency_s + cm.coprocessor_setup_s) * 1e3
        q.deadline_ms = deadline_ms
        q.token = token
        q.parent_span = parent_span

    def _run_region(self, q: _QueryState, region: Region, request: Any) -> None:
        """Availability gates, then the primary attempts, then the
        hedge, for one region of one query.  ``unanswered`` is why the
        region has no partial yet; None once it has."""
        rid = region.region_id
        node_id = q.placement.get(rid)
        task = q.tasks[rid] = Task(
            region_id=rid, records_scanned=0, query_id=q.qi
        )
        if self.retry_budget is not None:
            self.retry_budget.record_request()
        if q.injector is not None and not q.injector.region_available(rid):
            # The region's data died with its node: no retry or hedge
            # can answer, and the (healthy) serving node's breaker must
            # not be charged for it.
            unanswered = "region_lost"
        elif node_id is not None and not self.simulation.is_live(node_id):
            # Placement still points at a crashed server (the supervisor
            # has not reassigned yet): nobody is home, and a hedge must
            # not "answer" from the corpse's region object — its
            # memstore died with the node.
            unanswered = "node_down"
        else:
            if self._breaker_allow(node_id, q.epoch):
                unanswered = self._try_primary(q, region, request, task, node_id)
            else:
                # Node known-bad: skip the primary, go straight to the
                # hedge against a healthier node.
                unanswered = "breaker_open"
            if unanswered is not None and unanswered != "cancelled":
                unanswered = self._hedge_region(
                    q, region, request, task, node_id, unanswered
                )
        if unanswered is not None:
            q.missing.append(rid)
            if unanswered == "cancelled":
                q.cancelled += 1
            if unanswered == "breaker_open":
                q.breaker_skips += 1

    def _try_primary(
        self,
        q: _QueryState,
        region: Region,
        request: Any,
        task: Task,
        node_id: Optional[int],
    ) -> Optional[str]:
        """Attempts against the region's own node, backing off between
        failures, until one answers (returns None) or the per-region
        retry allowance, the global retry budget or the query deadline
        runs out (returns which)."""
        fcfg = self.faults_config
        cm = self.simulation.cost_model
        budget = self.retry_budget
        backoff_ms = RETRY_BACKOFF_MS
        attempt = 0
        while True:
            try:
                # A straggling primary is abandoned only once the
                # region's recovery budget (derived from the whole-query
                # deadline) is blown.
                unanswered = self._attempt(
                    q, region, request, task, node_id, attempt,
                    stall_budget_ms=q.deadline_ms,
                )
            except QueryCancelled:
                # A tripped token is shed work, not a node failure: no
                # breaker charge, no retry, no hedge.  The aborted
                # scan's cells are still charged to the task.
                return "cancelled"
            except Exception as exc:  # noqa: BLE001 - resilience boundary
                self._breaker_record(node_id, False, q.epoch)
                attempt += 1
                if attempt > fcfg.max_retries:
                    return type(exc).__name__
                if budget is not None and not budget.try_spend():
                    # Global retry budget exhausted: degrade now rather
                    # than amplify the overload.
                    self._count("fanout.retries_denied")
                    return "retry_budget"
                q.retries += 1
                jitter_ms = (
                    q.injector.backoff_jitter_ms(region.region_id, attempt)
                    if q.injector is not None
                    else 0.0
                )
                # A failed attempt costs the backoff plus a fresh RPC +
                # coprocessor setup; its scanned records are already on
                # the task.
                task.extra_cost_s += (
                    (backoff_ms + jitter_ms) / 1e3
                    + cm.rpc_latency_s
                    + cm.coprocessor_setup_s
                )
                backoff_ms *= RETRY_BACKOFF_MULTIPLIER
                if (
                    q.deadline_ms is not None
                    and task.extra_cost_s * 1e3 >= q.deadline_ms
                ):
                    return "deadline"
            else:
                if unanswered is None:
                    self._breaker_record(node_id, True, q.epoch)
                return unanswered

    def _attempt(
        self,
        q: _QueryState,
        region: Region,
        request: Any,
        task: Task,
        node_id: Optional[int],
        attempt: int,
        stall_budget_ms: Optional[float] = None,
        send_cost_s: float = 0.0,
    ) -> Optional[str]:
        """One try at ``region`` on ``node_id``: the injector decides
        the attempt's fault, a hang is charged as a stall, an injected
        error raises, otherwise the endpoint runs and the query absorbs
        its partial.  Returns "deadline", without running, when the
        region's stalls so far reach ``stall_budget_ms``; charges
        ``send_cost_s`` once the request is actually sent; raises
        whatever the try raised."""
        rid = region.region_id
        fault = (
            q.injector.decide(rid, node_id, attempt)
            if q.injector is not None
            else None
        )
        if fault is not None and fault.kind == _FAULT_HANG:
            task.extra_cost_s += fault.latency_ms / 1e3
            if (
                stall_budget_ms is not None
                and task.extra_cost_s * 1e3 >= stall_budget_ms
            ):
                return "deadline"
            fault = None  # a straggler still answers
        if fault is not None and fault.kind == _FAULT_ERROR:
            raise RegionUnavailableError(
                "injected fault: region %d attempt %d" % (rid, attempt)
            )
        task.extra_cost_s += send_cost_s
        self._invoke_region(q, region, request, task, node_id, attempt, fault)
        return None

    def _invoke_region(
        self,
        q: _QueryState,
        region: Region,
        request: Any,
        task: Task,
        node_id: Optional[int],
        attempt: int,
        fault: Optional[Any],
    ) -> None:
        """One region invocation with span bookkeeping; the query
        absorbs the partial of one that succeeds.

        The ``region.scan`` span is finished in a ``finally`` — an
        endpoint that raises can no longer orphan its span — and failed
        attempts are tagged ``error=<exception class>``.
        """
        # A faulted invocation must neither serve nor populate the scan
        # cache: its partial may be corrupted in flight, and a degraded
        # answer must never become a future query's "clean" data.
        cache = self.scan_cache if fault is None else None
        span = None
        if q.tracer is not None:
            tags: Dict[str, Any] = {"region_id": region.region_id, "node": node_id}
            if attempt == _HEDGE_ATTEMPT:
                tags["hedged"] = True
            elif attempt:
                tags["attempt"] = attempt
            span = q.tracer.span("region.scan", parent=q.parent_span, **tags)
        context = CoprocessorContext(
            region, tracer=q.tracer, span=span, cache=cache,
            cancellation=q.token,
        )
        try:
            partial = q.coprocessor.run(context, request)
            if fault is not None and fault.kind == _FAULT_CORRUPT:
                partial = q.injector.corrupt(partial)
            if q.injector is not None and not q.coprocessor.validate_partial(
                partial
            ):
                raise CoprocessorError(
                    "corrupt partial from region %d" % region.region_id
                )
        except Exception as exc:
            if span is not None:
                span.tag("error", type(exc).__name__)
            raise
        finally:
            task.records_scanned += context.records_scanned
            if span is not None:
                span.tag("records_scanned", context.records_scanned)
                span.tag("region_scans_served", region.scans_served)
                for name, value in context.counters.items():
                    span.tag(name, value)
                span.finish()
        q.partials.append(partial)
        if span is not None:
            q.spans[region.region_id] = span
        try:
            task.results_returned = len(partial)
        except TypeError:
            task.results_returned = 1  # scalar partial result
        for name, value in context.counters.items():
            q.counters[name] = q.counters.get(name, 0) + value

    def _hedge_region(
        self,
        q: _QueryState,
        region: Region,
        request: Any,
        task: Task,
        primary_node: Optional[int],
        unanswered: str,
    ) -> Optional[str]:
        """Last-resort re-execution against the replica on a surviving
        node.  Returns None when the hedge answered; a hedge that is
        denied or fails leaves the region ``unanswered``."""
        if not self.faults_config.hedge_enabled:
            return unanswered
        if self.retry_budget is not None and not self.retry_budget.try_spend():
            # Hedges draw from the same global budget as retries.
            self._count("fanout.hedges_denied")
            return unanswered
        if (
            q.token is not None
            and q.token.remaining_ms(task.extra_cost_s * 1e3) <= 0
        ):
            return unanswered  # no deadline budget left to spend
        if q.injector is not None and not q.injector.region_available(
            region.region_id
        ):
            return unanswered  # the data is gone until the node recovers
        hedge_node = self._hedge_target(primary_node)
        if hedge_node is None:
            return unanswered
        cm = self.simulation.cost_model
        try:
            # No stall budget: a slow hedge still answers.  An injected
            # error refuses the hedge before it is sent, so only the
            # others pay the fresh RPC + coprocessor setup.
            self._attempt(
                q, region, request, task, hedge_node, _HEDGE_ATTEMPT,
                send_cost_s=cm.rpc_latency_s + cm.coprocessor_setup_s,
            )
        except QueryCancelled:
            return "cancelled"
        except Exception:  # noqa: BLE001 - resilience boundary
            return unanswered
        q.hedges += 1
        return None

    def _merge_streams(self, q: _QueryState) -> int:
        """The endpoint returned score-sorted streams, merged *here* —
        before the timeline is simulated — so ``results_returned`` (and
        with it the web tier's per-item merge cost) counts the items
        each region actually emitted or answered probes for.  Only a
        merge that ran threshold-algorithm rounds reports ``topk.*``
        counters; a drained one has none to report.  Returns how many
        ranked rows the merge kept."""
        streams = q.partials
        if not streams or not all(
            isinstance(p, StreamingPartial) for p in streams
        ):
            return 0
        merged_stream, topk_stats = q.coprocessor.stream_merge(
            streams, deadline_token=q.token
        )
        counters = q.counters
        for stream in streams:
            q.tasks[stream.region_id].results_returned = stream.shipped
        counters["cells_decoded"] = (
            counters.get("cells_decoded", 0) + topk_stats["cells_decoded"]
        )
        if topk_stats["rounds"]:
            for key in (
                "rounds",
                "probes",
                "candidates",
                "cells_avoided",
                "pruned_regions",
            ):
                counters["topk." + key] = (
                    counters.get("topk." + key, 0) + topk_stats[key]
                )
            self._count("topk.queries")
            self._count("topk.rounds", topk_stats["rounds"])
            self._count("topk.cells_avoided", topk_stats["cells_avoided"])
            if topk_stats["pruned_regions"]:
                self._count(
                    "topk.regions_pruned_early", topk_stats["pruned_regions"]
                )
        aborted = topk_stats["aborted_regions"]
        if aborted:
            # Deadline hit mid-merge: emission from these regions never
            # finished, so undiscovered candidates may be missing —
            # honest degraded semantics, unlike proof-pruned regions
            # which stay fully covered.
            q.missing.extend(rid for rid in aborted if rid not in q.missing)
            q.cancelled += len(aborted)
        q.partials = [merged_stream]
        return len(merged_stream)

    def _account(self, q: _QueryState) -> None:
        """Resilience counters and strict mode's mid-scan abort."""
        q.missing.sort()
        if q.retries:
            self._count("fanout.retries", q.retries)
        if q.hedges:
            self._count("fanout.hedges", q.hedges)
        if q.missing:
            self._count("fanout.regions_missing", len(q.missing))
            self._count("fanout.degraded_queries")
        if q.breaker_skips:
            self._count("fanout.breaker_skips", q.breaker_skips)
        if q.cancelled:
            self._count("fanout.cancelled", q.cancelled)
        if self.faults_config.strict_deadline and q.cancelled:
            # Strict mode aborts the query the moment scans tripped the
            # deadline token — before the timeline is even simulated,
            # rather than detecting the overrun post-hoc.
            raise QueryDeadlineExceeded(
                "query %d aborted mid-scan: %d region scan(s) "
                "cancelled at the %.1fms deadline"
                % (q.qi, q.cancelled, q.deadline_ms)
            )

    def _finish(
        self, q: _QueryState, timeline: QueryTimeline, total_regions: int
    ) -> CoprocessorCallResult:
        """Client-side merge, straggler attribution, strict mode's
        post-hoc deadline check, and the call result."""
        merged = q.coprocessor.merge(q.partials)
        invoked = len(q.tasks)
        regions_pruned = total_regions - invoked
        coverage = 1.0 if invoked == 0 else (invoked - len(q.missing)) / invoked
        if q.tracer is not None:
            self._attribute_fanout(q, timeline, regions_pruned)
        if (
            self.faults_config.strict_deadline
            and q.deadline_ms is not None
            and timeline.latency_ms > q.deadline_ms
        ):
            raise QueryDeadlineExceeded(
                "query %d finished at %.1fms, over the %.1fms deadline"
                % (q.qi, timeline.latency_ms, q.deadline_ms)
            )
        return CoprocessorCallResult(
            result=merged,
            timeline=timeline,
            per_region_records={
                rid: task.records_scanned for rid, task in q.tasks.items()
            },
            per_region_results={
                rid: task.results_returned for rid, task in q.tasks.items()
            },
            regions_pruned=regions_pruned,
            counters=q.counters,
            degraded=bool(q.missing),
            missing_regions=q.missing,
            coverage=coverage,
            retries=q.retries,
            hedges=q.hedges,
            cancelled_regions=q.cancelled,
        )

    def _hedge_target(self, primary_node: Optional[int]) -> Optional[int]:
        """The surviving node a hedge runs against (deterministic: the
        lowest-numbered live node other than the primary)."""
        live = self.simulation.live_nodes()
        for candidate in live:
            if candidate != primary_node:
                return candidate
        return live[0] if live else None

    # -------------------------------------------------- circuit breaker

    def _breaker_allow(self, node_id: Optional[int], epoch: int) -> bool:
        if node_id is None:
            return True
        with self._breaker_lock:
            state = self._breakers.get(node_id)
            if state is None or state.open_until < 0:
                return True
            if epoch < state.open_until:
                return False
            # Half-open: admit a probe; one more failure re-opens.
            state.open_until = -1
            state.failures = self.faults_config.breaker_threshold - 1
        self._emit_event(
            {"type": "breaker.half_open", "node": node_id, "epoch": epoch}
        )
        return True

    def _breaker_record(
        self, node_id: Optional[int], ok: bool, epoch: int
    ) -> None:
        if node_id is None:
            return
        opened = False
        closed = False
        with self._breaker_lock:
            state = self._breakers.setdefault(node_id, _BreakerState())
            if ok:
                # A success after accumulated failures closes the
                # breaker (half-open probe succeeding is the usual way).
                closed = state.failures > 0
                state.failures = 0
                state.open_until = -1
            else:
                state.failures += 1
                if (
                    state.failures >= self.faults_config.breaker_threshold
                    and state.open_until < 0
                ):
                    state.open_until = epoch + BREAKER_COOLDOWN_FANOUTS
                    opened = True
        if opened:
            self._count("fanout.breaker_opened", labels={"node": node_id})
            self._emit_event(
                {
                    "type": "breaker.opened",
                    "node": node_id,
                    "epoch": epoch,
                    "cooldown_fanouts": BREAKER_COOLDOWN_FANOUTS,
                }
            )
        elif closed:
            self._emit_event(
                {"type": "breaker.closed", "node": node_id, "epoch": epoch}
            )

    def _breaker_reset(self, node_id: int) -> None:
        with self._breaker_lock:
            self._breakers.pop(node_id, None)

    def breaker_states(self) -> Dict[int, Dict[str, int]]:
        """Circuit-breaker snapshot for admin surfaces and tests."""
        with self._breaker_lock:
            return {
                node_id: {
                    "failures": state.failures,
                    "open_until": state.open_until,
                }
                for node_id, state in sorted(self._breakers.items())
            }

    def _attribute_fanout(
        self, q: _QueryState, timeline: QueryTimeline, regions_pruned: int
    ) -> None:
        """Per-region cost + straggler tags for one traced fan-out.

        Each region span gains ``sim_cost_ms`` (its invocation's cost
        under the calibrated model); the fan-out parent is tagged with
        the straggler region — the single invocation that dominated the
        simulated fan-out — and the total/max region costs, which is the
        p99 attribution an operator needs (one hot region explains a
        slow query even when the mean region was cheap).  Degraded
        fan-outs additionally carry ``degraded``/``missing_regions``,
        and any recovery work shows up as ``retries``/``hedges`` tags
        (all omitted on the clean path, keeping zero-fault traces
        unchanged)."""
        cm = self.simulation.cost_model
        total_cost_ms = 0.0
        straggler_region = None
        straggler_cost_ms = 0.0
        for region_id, task in q.tasks.items():
            cost_ms = cm.coprocessor_cost_s(task.records_scanned) * 1e3
            total_cost_ms += cost_ms
            span = q.spans.get(region_id)
            if span is not None:
                span.tag("sim_cost_ms", cost_ms)
            if straggler_region is None or cost_ms > straggler_cost_ms:
                straggler_region = region_id
                straggler_cost_ms = cost_ms
        parent_span = q.parent_span
        if parent_span is None:
            return
        parent_span.tag("regions_used", len(q.tasks))
        parent_span.tag("regions_pruned", regions_pruned)
        parent_span.tag("sim_region_cost_ms_total", total_cost_ms)
        parent_span.tag("sim_latency_ms", timeline.latency_ms)
        if q.missing:
            parent_span.tag("degraded", True)
            parent_span.tag("missing_regions", list(q.missing))
        if q.retries:
            parent_span.tag("retries", q.retries)
        if q.hedges:
            parent_span.tag("hedges", q.hedges)
        if straggler_region is not None:
            parent_span.tag("straggler_region", straggler_region)
            parent_span.tag("straggler_cost_ms", straggler_cost_ms)
            parent_span.tag(
                "straggler_node",
                self.simulation.region_placement.get(straggler_region),
            )

    # ------------------------------------------------------------ admin

    def flush_all(self) -> None:
        for table in self._tables.values():
            table.flush()

    def fail_node(self, node_id: int) -> List[int]:
        """Simulate a region-server death: the node's regions move to
        the survivors and subsequent queries run at reduced capacity.

        Without a fault injector, results stay exact (only latency
        degrades).  With one attached, the injector is notified so it
        can model stale region locations and lost replicas — the
        degraded-result path."""
        before = self.simulation.region_placement
        moved = self.simulation.fail_node(node_id)
        self._breaker_reset(node_id)
        self._follow_placement(before)
        if self.fault_injector is not None and moved:
            self.fault_injector.on_node_failed(node_id, moved)
        self._emit_event(
            {
                "type": "node.failed",
                "node": node_id,
                "regions_moved": list(moved),
            }
        )
        return moved

    def crash_node(self, node_id: int) -> List[int]:
        """Kill a region server WITHOUT failover: placement still points
        at the corpse, its memstores are lost, and nothing recovers
        until the supervisor's heartbeat lease expires and it runs
        WAL-split recovery.  This is the honest crash the self-healing
        loop exists for; requires a supervisor, because without one the
        stranded regions would stay dark forever."""
        if self.supervisor is None:
            raise ConfigError(
                "crash_node requires an attached ClusterSupervisor; "
                "use fail_node for instantaneous-failover simulation"
            )
        downed = self.simulation.crash_node(node_id)
        self._breaker_reset(node_id)
        # Nothing moves, so the logs stay put — on the dead server,
        # where recovery will split them.  The memstores are gone; the
        # seqid bump of each crash() retires the cached partials.
        dropped_cells = sum(self.region(rid).crash() for rid in downed)
        self._emit_event(
            {
                "type": "node.crashed",
                "node": node_id,
                "regions_stranded": list(downed),
                "memstore_cells_lost": dropped_cells,
            }
        )
        return downed

    def reassign_regions(self, mapping: Dict[int, int]) -> None:
        """Supervisor-driven placement change: point regions at new
        nodes; their logs and cached partials follow (they will be
        served by a different server, possibly after WAL replay)."""
        if not mapping:
            return
        before = self.simulation.region_placement
        self.simulation.reassign_regions(mapping)
        self._follow_placement(before)
        self._emit_event(
            {
                "type": "regions.reassigned",
                "mapping": {str(k): v for k, v in mapping.items()},
            }
        )

    def recover_node(self, node_id: int) -> None:
        """Bring a failed node back and rebalance regions onto it."""
        before = self.simulation.region_placement
        self.simulation.recover_node(node_id)
        self._breaker_reset(node_id)
        # The rebalance moves regions onto the returning node.
        self._follow_placement(before)
        if self.fault_injector is not None:
            self.fault_injector.on_node_recovered(node_id)
        self._emit_event({"type": "node.recovered", "node": node_id})

    def describe(self) -> dict:
        out = {
            "tables": {
                name: len(table.regions) for name, table in self._tables.items()
            },
            "cluster": self.simulation.describe(),
        }
        if self.fault_injector is not None:
            out["faults"] = self.fault_injector.describe()
        return out
