"""``python3 -m benchmarks.e2e --selftest``: span accounting and the
contract file, checked without building a platform.

(The second half of the span check — that the blocking path of a real
traced request adds up to its wall time — runs inside every ``--trace
1`` run, which fails if it is off by more than 10 %.)
"""

from __future__ import annotations

import json
import os
import sys
from typing import List

from . import REPO_ROOT, metrics
from .tracing import Span, Tracer, account, blocking_path

MAIN, WORKER_A, WORKER_B = 1, 2, 3


def _synthetic() -> List[Span]:
    """One request: root -> fan-out -> two overlapping workers (one of
    them consuming a generator and a cache lookup) -> merge."""
    return [
        Span(1, "root", 0, 1, MAIN, 0.0, 10.0, cpu=3.0),
        Span(2, "fanout", 1, 1, MAIN, 1.0, 8.0, cpu=0.5),
        Span(3, "worker", 2, 1, WORKER_A, 1.5, 6.0, cpu=2.0),
        Span(4, "worker", 2, 1, WORKER_B, 2.0, 7.5, cpu=2.5),
        Span(5, "scan", 3, 1, WORKER_A, 1.6, 5.9, cpu=1.2, busy=1.2),
        Span(6, "lookup", 3, 1, WORKER_A, 2.0, 2.3, cpu=0.25),
        Span(7, "merge", 1, 1, MAIN, 8.5, 9.5, cpu=1.0),
    ]


def _close(got: float, want: float) -> bool:
    return abs(got - want) < 1e-9


def check_accounting() -> List[str]:
    errors = []
    totals = account(_synthetic())
    expected = {
        # name: (self wall, self cpu, calls)
        "root": (10.0 - 7.0 - 1.0, 3.0 - 0.5 - 1.0, 1),
        # Workers cover [1.5, 7.5] of the fan-out's [1, 8]; their CPU
        # ran on other threads and is not the fan-out's.
        "fanout": (7.0 - 6.0, 0.5, 1),
        # Worker A: 4.5 s minus lookup (0.3) minus scan busy (1.2);
        # worker B: all 5.5 s its own.
        "worker": ((4.5 - 0.3 - 1.2) + 5.5, (2.0 - 0.25 - 1.2) + 2.5, 2),
        "scan": (1.2, 1.2, 1),
        "lookup": (0.3, 0.25, 1),
        "merge": (1.0, 1.0, 1),
    }
    for name, (wall, cpu, calls) in expected.items():
        row = totals[name]
        if not (_close(row["self_s"], wall) and _close(row["cpu_s"], cpu)
                and row["calls"] == calls):
            errors.append("account(%s) = %r, expected %r"
                          % (name, row, (wall, cpu, calls)))

    spans = _synthetic()
    path = blocking_path(spans[0], spans)
    names = [name for name, _s in path]
    # Worker B finished last, so it is what the fan-out waited for;
    # worker A overlaps it and is off the path.
    if names != ["merge", "worker", "fanout", "root"]:
        errors.append("blocking path is %r" % names)
    if not _close(sum(s for _n, s in path), 10.0):
        errors.append("blocking path sums to %r, not 10.0" % sum(s for _n, s in path))
    return errors


def check_wrappers() -> List[str]:
    """The wrappers against stand-ins: stack parenthood, hand-off to a
    worker thread, and a generator timed inside ``next``."""
    import threading
    import types

    errors = []
    demo = types.ModuleType("benchmarks_e2e_selftest_demo")

    class Region:
        def scan(self):
            yield from range(3)

    class Coprocessor:
        def run(self, context, request):
            return sum(Region().scan())

    class Cluster:
        def coprocessor_exec_routed(self, table, coprocessor, routed):
            results = []

            def work(request):
                results.append(coprocessor.run(None, request))

            threads = [
                threading.Thread(target=work, args=(request,))
                for mapping in routed for request in mapping.values()
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return results

    demo.Region, demo.Coprocessor, demo.Cluster = Region, Coprocessor, Cluster
    sys.modules[demo.__name__] = demo
    tracer = Tracer()
    tracer.install({
        "hbase.fanout": [(demo.__name__, "Cluster", "coprocessor_exec_routed")],
        "coproc.run": [(demo.__name__, "Coprocessor", "run")],
        "region.scan": [(demo.__name__, "Region", "scan")],
        "gone": [(demo.__name__, "Cluster", "no_such_method")],
    })
    try:
        got = Cluster().coprocessor_exec_routed(
            "t", Coprocessor(), [{"r1": object(), "r2": object()}]
        )
    finally:
        tracer.uninstall()
        del sys.modules[demo.__name__]
    if got != [3, 3]:
        errors.append("wrapped calls returned %r" % (got,))
    if tracer.missing != ["gone"]:
        errors.append("missing trace points: %r" % tracer.missing)
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    fanout = by_name.get("hbase.fanout", [])
    runs = by_name.get("coproc.run", [])
    scans = by_name.get("region.scan", [])
    if (len(fanout), len(runs), len(scans)) != (1, 2, 2):
        errors.append("span counts %r" % {k: len(v) for k, v in by_name.items()})
    else:
        if any(r.parent != fanout[0].sid or r.request != fanout[0].request
               or r.thread == fanout[0].thread for r in runs):
            errors.append("worker spans did not adopt the fan-out span")
        if {s.parent for s in scans} != {r.sid for r in runs}:
            errors.append("generator spans are not children of their consumer")
        if any(s.busy is None for s in scans):
            errors.append("generator spans carry no busy time")
    if Cluster.coprocessor_exec_routed.__name__ != "coprocessor_exec_routed":
        errors.append("uninstall did not restore the original")
    return errors


def check_contract() -> List[str]:
    """``BENCHMARK.json`` must be ``metrics.render()``."""
    path = os.path.join(REPO_ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            on_disk = json.load(handle)
    except OSError as exc:
        return ["cannot read %s: %s" % (path, exc)]
    if on_disk != metrics.render():
        return ["BENCHMARK.json differs from metrics.render(); rewrite it with "
                "--write-benchmark-json"]
    return []


def selftest() -> int:
    errors = check_accounting() + check_wrappers() + check_contract()
    for error in errors:
        print("SELFTEST FAILED: %s" % error, file=sys.stderr)
    if not errors:
        print("selftest ok: span accounting, wrappers, BENCHMARK.json")
    return 1 if errors else 0
