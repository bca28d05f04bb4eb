"""Web-server tier sizing (paper Section 3.1).

"We identified that two 4-cores web servers with 4 GB of RAM each are
more than enough to avoid such bottlenecks."  This bench sweeps the web
farm size under Figure-3-style concurrency and reproduces the
diminishing-returns point at two servers, plus a node-failure drill on
the HBase tier.
"""

from __future__ import annotations

import pytest

from repro.cluster import MergeWork, WebServerFarm

from ._report import register_table
from ._workload import (
    friend_count,
    friend_sample,
    region_records_for_friends,
    simulate_query_ms,
)


def test_web_server_sizing(bench_platform, benchmark):
    """Mean merge completion for 50 concurrent 6000-friend queries as
    the web farm grows."""
    work_profile = region_records_for_friends(
        bench_platform, friend_sample(friend_count(6000), seed=91)
    )
    items_per_query = sum(results for _recs, results in work_profile.values())

    def sweep():
        out = {}
        for servers in (1, 2, 3, 4):
            farm = WebServerFarm(num_servers=servers, cores_per_server=4)
            work = [
                MergeWork(query_id=i, items=items_per_query, ready_at=0.0)
                for i in range(50)
            ]
            finishes = farm.schedule_merges(work)
            out[servers] = sum(finishes) / len(finishes)
        return out

    means = benchmark.pedantic(sweep, rounds=1, iterations=1)
    register_table(
        "Web tier sizing: mean merge completion (s), 50 concurrent"
        " queries x %d items" % items_per_query,
        ["web servers", "mean completion (s)"],
        [[s, "%.3f" % t] for s, t in sorted(means.items())],
    )
    # Two servers help; beyond two, returns diminish (the paper's
    # "more than enough" point).
    assert means[2] < means[1]
    assert (means[2] - means[4]) < (means[1] - means[2])


def test_node_failure_drill(bench_platform, benchmark):
    """Latency of the same query as the 16-node cluster loses nodes.

    There is no paper figure for this, but fault tolerance is the
    stated reason for choosing HBase; the drill records the degradation
    curve and that answers stay exact.
    """
    ids = friend_sample(friend_count(4000), seed=92)
    work = region_records_for_friends(bench_platform, ids)

    def sweep():
        from repro.cluster import ClusterSimulation, Task
        from repro.config import ClusterConfig
        from ._workload import (
            COST_PER_RECORD_US,
            MERGE_COST_PER_ITEM_US,
            REGIONS,
        )

        sim = ClusterSimulation(
            ClusterConfig(
                num_nodes=16,
                regions_per_table=REGIONS,
                cost_per_record_us=COST_PER_RECORD_US,
                merge_cost_per_item_us=MERGE_COST_PER_ITEM_US,
            )
        )
        sim.place_regions(sorted(work))
        tasks = [
            Task(region_id=r, records_scanned=w[0], results_returned=w[1])
            for r, w in sorted(work.items())
        ]
        out = {}
        out[0] = sim.run_query(list(tasks)).latency_ms
        failed = 0
        for failures in (1, 2, 4, 8):
            while failed < failures:
                sim.fail_node(failed)
                failed += 1
            out[failures] = sim.run_query(list(tasks)).latency_ms
        return out

    latencies = benchmark.pedantic(sweep, rounds=1, iterations=1)
    register_table(
        "Fault drill: %d-friend query latency vs failed nodes"
        " (16-node cluster)" % len(ids),
        ["failed nodes", "latency (ms)"],
        [[k, "%.0f" % v] for k, v in sorted(latencies.items())],
    )
    values = [latencies[k] for k in sorted(latencies)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    # Losing half the cluster roughly doubles the latency.
    assert latencies[8] > 1.7 * latencies[0]
