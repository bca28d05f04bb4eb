"""Run one workload against the all-on platform and print its metrics.

One process per run.  Reads go through ``RestApi.handle_json`` (JSON
string in, JSON string out), writes through ``MoDisSENSE.ingest_visits``.
``--trace 0`` measures a ``--seconds`` window untraced and prints the
end-to-end metrics; ``--trace 1`` runs a fixed number of ops untraced,
the same number traced, and prints the per-layer metrics.  Either way a
correctness gate runs in the same command, and any failure of it exits
non-zero without printing a result line.
"""

from __future__ import annotations

import argparse
import collections
import gc
import itertools
import json
import os
import platform as host_platform
import resource
import statistics
import sys
import threading
import time
from typing import (
    Deque, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro import RestApi, SearchQuery
from repro.errors import BackpressureError
from repro.geo import BoundingBox

from . import REPO_ROOT, metrics, profile, workloads
from .hostclock import REFERENCE_MS, Calibrator, ScaledStopwatch, pin_to_one_cpu
from .profile import BenchmarkError
from .tracing import Span, Tracer, account, blocking_path
from .workloads import SEARCH, SQL, Op, Workload

GC_POLICY = "gc.collect(); gc.freeze() after set-up"
#: Share of ``--seconds`` the ingest workload's open-loop phase lasts,
#: and visits the burst that follows submits per second of ``--seconds``.
OPEN_LOOP_SHARE = 0.75
OPEN_LOOP_PARTS = 4
BURST_VISITS_PER_S = 2_000
#: The traced run's two ingest segments, each: open-loop seconds, burst.
TRACE_OPEN_S = 6.0
TRACE_BURST_VISITS = 6_000
#: Relative tolerance on scores against the client-side oracle: the
#: region path adds a POI's grades region by region, the oracle friend
#: by friend, so 6000-friend sums differ in the last bits (~1e-16).
SCORE_RTOL = 1e-9


class Sample(NamedTuple):
    kind: str
    client: int
    slice: int        # calibration slice the op ran in
    started: float    # perf_counter seconds
    ms: float         # wall, JSON string in -> JSON string out
    sim_ms: float     # simulated cluster latency the response carries
    failed: bool
    request_bytes: int
    response_bytes: int


class Window(NamedTuple):
    samples: List[Sample]
    #: (slice, wall seconds, ops completed) per stretch of steady-state
    #: client work (the ingest burst is not one).
    stretches: List[Tuple[int, float, int]]
    #: Ingest only: (slice, ms from a batch's due time to applied).
    lags: List[Tuple[int, float]]
    #: Ingest only: (slice, visits, seconds until all were applied).
    burst: Optional[Tuple[int, int, float]]
    write_batches: int
    write_batches_refused: int
    generator_late_ms_max: float


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def execute(api: RestApi, op: Op, client: int, slice_index: int) -> Sample:
    started = time.perf_counter()
    response = api.handle_json("search", op.body)
    ms = (time.perf_counter() - started) * 1e3
    envelope = json.loads(response)
    data = envelope.get("data") if envelope.get("status") == "ok" else None
    failed = (
        data is None
        or data["degraded"]
        or data["coverage"] < 1
        or bool(data["missing_regions"])
    )
    return Sample(
        op.kind, client, slice_index, started, ms,
        data["latency_ms"] if data else 0.0, failed,
        len(op.body), len(response),
    )


def _run_clients(
    api: RestApi, clients: List[Iterator[Op]], ops_each: int, slice_index: int
) -> List[Sample]:
    """Each client runs ``ops_each`` ops closed-loop; one thread each."""
    if len(clients) == 1:
        return [
            execute(api, op, 0, slice_index)
            for op in itertools.islice(clients[0], ops_each)
        ]
    results: List[object] = [None] * len(clients)

    def run(index: int) -> None:
        try:
            results[index] = [
                execute(api, op, index, slice_index)
                for op in itertools.islice(clients[index], ops_each)
            ]
        except BaseException as exc:  # re-raised on the main thread
            results[index] = exc

    threads = [
        threading.Thread(target=run, args=(i,), name="client-%d" % i)
        for i in range(len(clients))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    samples: List[Sample] = []
    for result in results:
        if isinstance(result, BaseException):
            raise result
        samples.extend(result)
    return samples


def run_closed(
    api: RestApi, workload: Workload, calibrator: Calibrator,
    seconds: Optional[float] = None, ops_each: Optional[int] = None,
) -> Window:
    """Closed loop in slices with a calibration boundary before each:
    until ``seconds`` passed and ``min_ops`` completed, or — when
    ``ops_each`` is given — until every client ran exactly that many."""
    samples: List[Sample] = []
    stretches = []
    begun = time.perf_counter()
    while True:
        done_each = len(samples) // len(workload.clients)
        if ops_each is not None:
            if done_each >= ops_each:
                break
            todo = min(workload.slice_ops, ops_each - done_each)
        else:
            if (time.perf_counter() - begun >= seconds
                    and len(samples) >= workload.min_ops):
                break
            todo = workload.slice_ops
        index = calibrator.mark()
        started = time.perf_counter()
        batch = _run_clients(api, workload.clients, todo, index)
        stretches.append((index, time.perf_counter() - started, len(batch)))
        samples.extend(batch)
    calibrator.mark()
    return Window(samples, stretches, [], None, 0, 0, 0.0)


class _IngestGenerator(threading.Thread):
    """Offers visit batches and watches ``platform.ingest.applied``.

    ``rate`` batches/s are offered on a fixed schedule (open loop: a
    batch is due when it is due, however long the previous submit
    blocked); ``rate=None`` offers them back to back.  A batch's lag
    runs from its due time until ``applied`` covers its last visit.
    """

    def __init__(self, platform, batches: List[list], rate: Optional[float]):
        super().__init__(name="ingest-generator")
        self.platform = platform
        self.batches = batches
        self.rate = rate
        self.lags_ms: List[float] = []
        self.refused = 0
        self.late_ms_max = 0.0
        self.submitting = True
        self.started_at = 0.0
        self.all_applied_at = 0.0
        self.error: Optional[BaseException] = None
        #: (due time, ``submitted`` counter value that covers the batch).
        self._pending: Deque[Tuple[float, int]] = collections.deque()

    def _observe(self) -> None:
        applied = self.platform.ingest.applied
        now = time.perf_counter()
        while self._pending and applied >= self._pending[0][1]:
            due, _target = self._pending.popleft()
            self.lags_ms.append((now - due) * 1e3)

    def run(self) -> None:
        try:
            self._run()
        except BaseException as exc:  # re-raised by the harness
            self.error = exc
        finally:
            self.submitting = False

    def _run(self) -> None:
        ingest = self.platform.ingest
        self.started_at = time.perf_counter()
        for index, batch in enumerate(self.batches):
            due = self.started_at
            if self.rate is not None:
                due += index / self.rate
                while True:
                    self._observe()
                    wait = due - time.perf_counter()
                    if wait <= 0:
                        break
                    time.sleep(min(0.001, wait))
                self.late_ms_max = max(
                    self.late_ms_max, (time.perf_counter() - due) * 1e3
                )
            try:
                self.platform.ingest_visits(batch)
            except BackpressureError:
                self.refused += 1
            self._pending.append((due, ingest.submitted))
        self.submitting = False
        give_up = time.perf_counter() + 60.0
        while self._pending:
            self._observe()
            if time.perf_counter() > give_up:
                raise BenchmarkError(
                    "%d ingest batches never applied" % len(self._pending)
                )
            time.sleep(0.001)
        self.all_applied_at = time.perf_counter()


def run_ingest(
    platform, api: RestApi, workload: Workload, calibrator: Calibrator,
    open_s: float, burst_visits: int,
) -> Window:
    """Open-loop phase, then burst phase, one query client beside both.

    The open loop runs in ``OPEN_LOOP_PARTS`` back-to-back parts so that
    calibration boundaries — each a quiescent point reached by draining
    the ingest tier, three kernel timings — sit close enough together
    to follow the host's speed."""
    client = workload.clients[0]
    samples: List[Sample] = []
    stretches = []
    lags: List[Tuple[int, float]] = []
    offered = refused = 0
    late = 0.0
    burst = None
    steady_rate = float(workloads.INGEST_BATCHES_PER_S)
    phases = [
        (int(open_s * steady_rate / OPEN_LOOP_PARTS), steady_rate)
    ] * OPEN_LOOP_PARTS
    phases.append((burst_visits // workloads.INGEST_BATCH, None))
    for batches, rate in phases:
        index = calibrator.mark(3)
        generator = _IngestGenerator(
            platform, list(itertools.islice(workload.ingest, batches)), rate
        )
        generator.start()
        started = time.perf_counter()
        done = 0
        while generator.submitting:
            samples.append(execute(api, next(client), 0, index))
            done += 1
        wall = time.perf_counter() - started
        generator.join()
        if generator.error is not None:
            raise generator.error
        # "Applied" is not yet "idle": the tier may still be pushing
        # coalesced hotness refreshes, which would slow the kernel.
        platform.ingest.drain()
        offered += batches
        refused += generator.refused
        late = max(late, generator.late_ms_max)
        if rate is not None:
            stretches.append((index, wall, done))
            lags.extend((index, ms) for ms in generator.lags_ms)
        else:
            burst = (
                index, batches * workloads.INGEST_BATCH,
                generator.all_applied_at - generator.started_at,
            )
    calibrator.mark(3)
    return Window(samples, stretches, lags, burst, offered, refused, late)


# ------------------------------------------------------------- metrics


def _scaled(window: Window, calibrator: Calibrator, kind: str) -> List[float]:
    """Latencies of ``kind`` scaled to the reference host."""
    factor = calibrator.factor
    return [s.ms / factor(s.slice) for s in window.samples if s.kind == kind]


def _ops_per_s(window: Window, calibrator: Calibrator) -> float:
    seconds = sum(
        wall / calibrator.factor(i) for i, wall, _ops in window.stretches
    )
    return sum(ops for _i, _wall, ops in window.stretches) / seconds


def _sim_ms_p50(window: Window, prefix: int) -> float:
    sims = [
        s.sim_ms for s in window.samples if s.kind == SEARCH and s.client == 0
    ]
    return statistics.median(sims[:prefix])


def end_to_end(
    window: Window, workload: Workload, calibrator: Calibrator, setup_s: float
) -> Dict[str, float]:
    # On the ingest workload the open loop is the steady state; reads
    # beside the burst are left out (its stretch is not in
    # ``window.stretches`` either).
    steady = window
    if window.burst is not None:
        steady = window._replace(
            samples=[s for s in window.samples if s.slice != window.burst[0]]
        )
    return {
        "setup_s": setup_s,
        "ops_per_s": _ops_per_s(steady, calibrator),
        "search_p50_ms": statistics.median(_scaled(steady, calibrator, SEARCH)),
        "sim_ms_p50": _sim_ms_p50(steady, workload.sim_prefix),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def user_metrics(window: Window, calibrator: Calibrator) -> Dict[str, float]:
    """What a user sees on some workloads only; 0 where it does not
    apply or the sample cannot support the percentile (ten samples must
    lie beyond it: 200 for a p95, 100 for a p90)."""
    factor = calibrator.factor

    def pct(values: List[float], p: float) -> float:
        beyond = len(values) * (100 - p) / 100.0
        return percentile(values, p) if values and beyond >= 10 else 0.0

    search = _scaled(window, calibrator, SEARCH)
    sql = _scaled(window, calibrator, SQL)
    lags = [ms / factor(i) for i, ms in window.lags]
    out = {
        "user.search_p95_ms": pct(search, 95),
        "user.sql_p50_ms": statistics.median(sql) if sql else 0.0,
        "user.sql_p95_ms": pct(sql, 95),
        "user.ingest_lag_p50_ms": statistics.median(lags) if lags else 0.0,
        "user.ingest_lag_p90_ms": pct(lags, 90),
        "user.ingest_burst_per_s": 0.0,
    }
    if window.burst is not None:
        index, visits, seconds = window.burst
        out["user.ingest_burst_per_s"] = visits / (seconds / factor(index))
    return out


#: Per-layer counts that are one ``admin_metrics`` counter each, under
#: their own name unless listed in ``_COUNTER_LABELS``.
_PLAIN_COUNTS = (
    "records.scanned", "cells.decoded", "cells.avoided", "regions.used",
    "regions.pruned", "regions.pruned_early", "topk.rounds",
    "queries.coalesced", "admission.rejected", "fanout.retries",
    "ingest.batches", "ingest.wal_group_commits", "ingest.hotin_refreshes",
    "ingest.backpressure_events",
)
_COUNTER_LABELS = {
    "ingest.backpressure_events": "ingest.backpressure_events{policy=block}",
}


def _counters(api: RestApi) -> Dict[str, int]:
    return profile.call(api, "admin_metrics", {})["counters"]


def layer_metrics(
    tracer: Tracer, before: Dict[str, int], after: Dict[str, int],
    gen2_collections: int, untraced: Window, traced: Window,
    calibrator: Calibrator,
) -> Dict[str, float]:
    """Every per-layer metric, per request of the traced segment."""
    requests = len(traced.samples) + traced.write_batches
    # One host-speed factor for the whole traced segment: spans are not
    # tied to slices.
    seconds = sum(wall for _i, wall, _ops in traced.stretches)
    scaled = sum(
        wall / calibrator.factor(i) for i, wall, _ops in traced.stretches
    )
    to_ref_ms = 1e3 * scaled / seconds
    out: Dict[str, float] = {}
    totals = account(tracer.spans)
    for point in metrics.TRACE_POINTS:
        row = totals.get(point, {"self_s": 0.0, "cpu_s": 0.0, "calls": 0})
        out[point + ".self_ms"] = row["self_s"] * to_ref_ms / requests
        out[point + ".cpu_ms"] = row["cpu_s"] * to_ref_ms / requests
        out[point + ".calls"] = row["calls"] / requests

    def delta(counter: str) -> int:
        return after.get(counter, 0) - before.get(counter, 0)

    def share(cache: str) -> float:
        hits = delta("cache.hits{cache=%s}" % cache)
        lookups = hits + delta("cache.misses{cache=%s}" % cache)
        return 100.0 * hits / lookups if lookups else 0.0

    for name in _PLAIN_COUNTS:
        out[name] = delta(_COUNTER_LABELS.get(name, name)) / requests
    batches = delta("ingest.batches")
    out["ingest.batch_size_mean"] = (
        delta("ingest.applied") / batches if batches else 0.0
    )
    out["cache.scan.hit_share"] = share("scan")
    out["cache.hot_poi.hit_share"] = share("hot_poi")
    out["rest.request_bytes"] = statistics.mean(
        s.request_bytes for s in traced.samples
    )
    out["rest.response_bytes"] = statistics.mean(
        s.response_bytes for s in traced.samples
    )
    out["gc.gen2_collections"] = gen2_collections / requests

    out.update(user_metrics(untraced, calibrator))
    plain = statistics.median(_scaled(untraced, calibrator, SEARCH))
    with_spans = statistics.median(_scaled(traced, calibrator, SEARCH))
    samples = calibrator.all_samples()
    out.update({
        "harness.trace_overhead_pct": 100.0 * (with_spans / plain - 1.0),
        "harness.blocking_path_pct": _blocking_path_pct(tracer.spans, traced),
        "harness.trace_points_missing": float(len(tracer.missing)),
        "harness.calib_ms_min": min(samples),
        "harness.calib_ms_max": max(samples),
        "harness.generator_late_ms_max": max(
            untraced.generator_late_ms_max, traced.generator_late_ms_max
        ),
        "harness.search_tail_ms": max(_scaled(untraced, calibrator, SEARCH)),
    })
    return out


def _blocking_path_pct(spans: List[Span], traced: Window) -> float:
    """Blocking-path seconds of the first traced personalized request
    as a share of its wall time measured from outside the tracer."""
    sample = next(s for s in traced.samples if s.kind == SEARCH)
    ended = sample.started + sample.ms / 1e3
    roots = [
        s for s in spans
        if s.parent == 0 and s.name == "rest.handle_json"
        and s.start >= sample.started and s.end <= ended
    ]
    if not roots:
        raise BenchmarkError("no root span for the first traced search")
    root = max(roots, key=lambda s: s.end - s.start)
    request = [s for s in spans if s.request == root.request]
    path_ms = 1e3 * sum(seconds for _name, seconds in blocking_path(root, request))
    pct = 100.0 * path_ms / sample.ms
    if not 90.0 <= pct <= 110.0:
        raise BenchmarkError(
            "blocking path sums to %.1f ms, request took %.1f ms"
            % (path_ms, sample.ms)
        )
    return pct


# ---------------------------------------------------- correctness gate


def oracle_check(platform, api: RestApi, ops: Iterator[Op], count: int = 3) -> None:
    """``count`` personalized requests must equal the client-side
    baseline on (poi_id, score, visit_count), in order."""
    for op in itertools.islice(ops, count):
        request = json.loads(op.body)
        got = profile.call(api, "search", request)
        want = platform.query_answering.search_personalized_client_side(
            SearchQuery(
                bbox=(BoundingBox.from_tuple(request["bbox"])
                      if request.get("bbox") else None),
                keywords=tuple(request.get("keywords") or ()),
                friend_ids=tuple(request["friend_ids"]),
                since=request.get("since"),
                until=request.get("until"),
                sort_by=request["sort_by"],
                limit=request["limit"],
            )
        )
        rows = [(p["poi_id"], p["score"], p["visit_count"]) for p in got["pois"]]
        expected = [(p.poi_id, p.score, p.visit_count) for p in want.pois]
        same = len(rows) == len(expected) and all(
            r[0] == e[0] and r[2] == e[2]
            and abs(r[1] - e[1]) <= SCORE_RTOL * max(abs(e[1]), 1.0)
            for r, e in zip(rows, expected)
        )
        if not same or got["degraded"]:
            raise BenchmarkError(
                "oracle mismatch on %d friends:\n  served   %r\n  expected %r"
                % (len(request["friend_ids"]), rows, expected)
            )


def conservation_check(platform, loaded: int) -> None:
    """After a drain, every visit submitted and not shed is stored."""
    ingest = platform.ingest
    if not ingest.drain():
        raise BenchmarkError("ingest tier did not drain")
    stored = platform.visits_repository.count()
    expected = loaded + ingest.submitted - ingest.shed
    if stored != expected or ingest.applied != ingest.submitted:
        raise BenchmarkError(
            "visit conservation: stored %d, expected %d (loaded %d + "
            "submitted %d - shed %d), applied %d"
            % (stored, expected, loaded, ingest.submitted, ingest.shed,
               ingest.applied)
        )


# ----------------------------------------------------------------- run


def _commit() -> str:
    """HEAD's hash, read from ``.git`` by hand (the driver's checkout is
    not a repository, and no process is started to find out)."""
    try:
        with open(os.path.join(REPO_ROOT, ".git", "HEAD")) as head:
            ref = head.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(REPO_ROOT, ".git", ref[5:])) as target:
                ref = target.read().strip()
        return ref[:12]
    except OSError:
        return "unknown"


def _info(**fields) -> None:
    print("# " + " ".join("%s=%s" % item for item in fields.items()), flush=True)


def _measure(platform, api, workload, calibrator, seconds, ops_each) -> Window:
    if workload.ingest is not None:
        if ops_each is None:
            return run_ingest(
                platform, api, workload, calibrator,
                OPEN_LOOP_SHARE * seconds, int(BURST_VISITS_PER_S * seconds),
            )
        return run_ingest(
            platform, api, workload, calibrator, TRACE_OPEN_S, TRACE_BURST_VISITS
        )
    return run_closed(api, workload, calibrator, seconds, ops_each)


def _untraced_run(platform, api, workload, calibrator, seconds, setup_s):
    """The ``--trace 0`` window; returns ``(windows, metric values)``."""
    window = _measure(platform, api, workload, calibrator, seconds, None)
    values = end_to_end(window, workload, calibrator, setup_s)
    raw = [s.ms for s in window.samples if s.kind == SEARCH]
    samples = calibrator.all_samples()
    _info(
        ops=len(window.samples), searches=len(raw),
        write_batches=window.write_batches,
        search_p50_raw_ms="%.3f" % statistics.median(raw),
        search_max_raw_ms="%.3f" % max(raw),
        calib_ms_min="%.2f" % min(samples),
        calib_ms_median="%.2f" % statistics.median(samples),
        calib_ms_max="%.2f" % max(samples),
    )
    for key, value in user_metrics(window, calibrator).items():
        if value:
            _info(**{key: "%.4f" % value})
    return [window], values


def _traced_run(platform, api, workload, calibrator, seconds):
    """The ``--trace 1`` segments (untraced, then traced) and the span
    dump; returns ``(windows, metric values)``."""
    ops_each = workload.trace_ops
    untraced = _measure(platform, api, workload, calibrator, seconds, ops_each)
    tracer = Tracer()
    before = _counters(api)
    gen2 = gc.get_stats()[2]["collections"]
    tracer.install(metrics.TRACE_POINTS)
    try:
        traced = _measure(platform, api, workload, calibrator, seconds, ops_each)
    finally:
        tracer.finish()
    gen2 = gc.get_stats()[2]["collections"] - gen2
    after = _counters(api)
    values = layer_metrics(
        tracer, before, after, gen2, untraced, traced, calibrator
    )
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    dump = os.path.join(
        out_dir, "spans-%s-%d.jsonl" % (workload.name, workload.seed)
    )
    tracer.dump(dump)
    _info(spans=len(tracer.spans), span_dump=os.path.relpath(dump),
          trace_points_missing=",".join(tracer.missing) or "none")
    return [untraced, traced], values


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cpu = pin_to_one_cpu()
    calibrator = Calibrator()
    _info(
        workload=name, seed=seed, seconds=seconds, trace=int(trace),
        nproc=os.cpu_count(), pinned_cpu=cpu,
        python=host_platform.python_version(), commit=_commit(),
    )
    _info(gc_policy=repr(GC_POLICY), reference_calib_ms=REFERENCE_MS)

    stopwatch = ScaledStopwatch(calibrator)
    platform, api, pois, loaded = profile.build(stopwatch)
    try:
        workload = workloads.make(name, seed, pois)
        for op in workload.warmup:
            if execute(api, op, 0, 0).failed:
                raise BenchmarkError("warm-up request failed: %s" % op.body[:200])
        profile.assert_all_on(api)
        stopwatch.lap()
        setup_s = stopwatch.scaled_s()
        gc.collect()
        gc.freeze()
        _info(setup_wall_s="%.3f" % stopwatch.wall_s(), visits_loaded=loaded,
              warmup_ops=len(workload.warmup), **workload.notes)

        if trace:
            windows, values = _traced_run(
                platform, api, workload, calibrator, seconds
            )
            wanted = metrics.per_layer()
        else:
            windows, values = _untraced_run(
                platform, api, workload, calibrator, seconds, setup_s
            )
            wanted = [(n, u, b) for n, u, b, _bound in metrics.END_TO_END]

        if workload.ingest is not None:
            conservation_check(platform, loaded)
        oracle_check(platform, api, workload.oracle)
    finally:
        profile.shutdown(platform)

    attempted = sum(len(w.samples) + w.write_batches for w in windows)
    failed = sum(
        sum(s.failed for s in w.samples) + w.write_batches_refused
        for w in windows
    )
    _info(attempted=attempted, failed=failed,
          failed_share="%.6f" % (failed / attempted))
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit, _better in wanted
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e")
    parser.add_argument("--workload", choices=sorted(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="span-accounting and contract self-test")
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="print BENCHMARK.json's content and exit")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        print(json.dumps(metrics.render(), indent=2))
        return 0
    if args.selftest:
        from .selftest import selftest

        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print("FAILED: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0
