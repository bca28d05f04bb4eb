"""Job execution: map → combine → shuffle → sort → reduce."""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import MapReduceError
from .io import InputSplit, make_splits
from .job import Counters, JobResult, MapReduceJob


class _NoopPhase:
    """Phase-span stand-in when no tracer is configured (keeps
    ``mapreduce`` free of a ``core`` import)."""

    __slots__ = ()

    def tag(self, key: str, value: Any) -> "_NoopPhase":
        return self

    def __enter__(self) -> "_NoopPhase":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NOOP_PHASE = _NoopPhase()


class JobRunner:
    """Runs a job's map and reduce tasks one after another, in split
    order, on the calling thread (``job.num_mappers`` sets how many
    splits there are, not how many run at once).

    ``tracer``/``metrics`` (both optional) give the batch tier the same
    observability as the query tier: each run emits a ``mapreduce.job``
    span with ``map``/``shuffle``/``reduce`` phase children, plus
    per-job wall-time histograms labeled by job name.
    """

    def __init__(
        self,
        tracer: Optional[Any] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics

    def run(self, job: MapReduceJob, records: Sequence[Any]) -> JobResult:
        """Execute one job over ``records`` and return its output."""
        tracer = self.tracer
        root = (
            tracer.span("mapreduce.job", job=job.name, records=len(records))
            if tracer is not None
            else None
        )
        wall_start = time.perf_counter()
        try:
            result = self._run_phases(job, records, tracer, root)
        finally:
            if root is not None:
                root.finish()
        if self.metrics is not None:
            wall_ms = (time.perf_counter() - wall_start) * 1e3
            self.metrics.increment("mapreduce.jobs", labels={"job": job.name})
            self.metrics.record_latency(
                "mapreduce.job_wall", wall_ms, labels={"job": job.name}
            )
            self.metrics.set_gauge(
                "mapreduce.last_output_pairs",
                len(result.pairs),
                labels={"job": job.name},
            )
        return result

    def _run_phases(
        self,
        job: MapReduceJob,
        records: Sequence[Any],
        tracer: Optional[Any],
        root: Optional[Any],
    ) -> JobResult:
        def phase(name: str, **tags):
            if tracer is None:
                return _NOOP_PHASE
            return tracer.span(name, parent=root, **tags)

        splits = make_splits(records, job.num_mappers)
        counters = Counters()
        if not splits:
            return JobResult(
                job_name=job.name,
                pairs=[],
                counters=counters,
                map_tasks=0,
                reduce_tasks=0,
            )

        # ---- map phase (one task per split)
        with phase("map", tasks=len(splits)):
            map_outputs = [self._run_map_task(job, split) for split in splits]

        # ---- shuffle: group by reducer partition, then by key
        with phase("shuffle") as shuffle_span:
            partitions: List[Dict[Any, List[Any]]] = [
                {} for _ in range(job.num_reducers)
            ]
            shuffled = 0
            for task_pairs, task_counters in map_outputs:
                counters.merge(task_counters)
                for key, value in task_pairs:
                    idx = job.partitioner.partition(key, job.num_reducers)
                    partitions[idx].setdefault(key, []).append(value)
                    shuffled += 1
            shuffle_span.tag("pairs", shuffled)

        # ---- reduce phase (one task per non-empty partition)
        busy = [p for p in partitions if p]
        with phase("reduce", tasks=len(busy)):
            pairs: List[Tuple[Any, Any]] = []
            for grouped in busy:
                task_pairs, task_counters = self._run_reduce_task(job, grouped)
                counters.merge(task_counters)
                pairs.extend(task_pairs)
            # Output order independent of the partitioning.
            pairs.sort(key=lambda kv: repr(kv[0]))

        return JobResult(
            job_name=job.name,
            pairs=pairs,
            counters=counters,
            map_tasks=len(splits),
            reduce_tasks=len(busy),
        )

    # ------------------------------------------------------------- tasks

    @staticmethod
    def _run_map_task(job: MapReduceJob, split: InputSplit):
        counters = Counters()
        out: List[Tuple[Any, Any]] = []

        def emit(key: Any, value: Any) -> None:
            out.append((key, value))

        for record in split.records:
            job.mapper(record, emit, counters)
            counters.increment("map.records_in")
        counters.increment("map.records_out", len(out))

        if job.combiner is not None:
            grouped: Dict[Any, List[Any]] = {}
            for key, value in out:
                grouped.setdefault(key, []).append(value)
            combined: List[Tuple[Any, Any]] = []

            def emit_combined(key: Any, value: Any) -> None:
                combined.append((key, value))

            for key, values in grouped.items():
                job.combiner(key, values, emit_combined, counters)
            counters.increment("combine.records_out", len(combined))
            out = combined

        return out, counters

    @staticmethod
    def _run_reduce_task(job: MapReduceJob, grouped: Dict[Any, List[Any]]):
        counters = Counters()
        out: List[Tuple[Any, Any]] = []

        def emit(key: Any, value: Any) -> None:
            out.append((key, value))

        # Hadoop presents keys to a reducer in sorted order.
        for key in sorted(grouped, key=repr):
            job.reducer(key, grouped[key], emit, counters)
            counters.increment("reduce.keys_in")
        counters.increment("reduce.records_out", len(out))
        return out, counters
