"""Tests for the cluster simulation: nodes, scheduling, cost model."""

import pytest

from repro.cluster import ClusterSimulation, CostModel, Node, Task
from repro.config import ClusterConfig
from repro.errors import ConfigError


class TestNode:
    def test_requires_a_core(self):
        with pytest.raises(ConfigError):
            Node(node_id=0, cores=0)

    def test_schedule_on_idle_core(self):
        node = Node(node_id=0, cores=2)
        assert node.schedule(ready_at=0.0, duration=1.0) == 1.0
        # Second task goes to the other idle core.
        assert node.schedule(ready_at=0.0, duration=1.0) == 1.0
        # Third task queues behind one of them.
        assert node.schedule(ready_at=0.0, duration=1.0) == 2.0

    def test_ready_time_respected(self):
        node = Node(node_id=0, cores=1)
        assert node.schedule(ready_at=5.0, duration=1.0) == 6.0

    def test_reset(self):
        node = Node(node_id=0, cores=2)
        node.schedule(0.0, 10.0)
        node.reset()
        assert node.core_available_at == [0.0, 0.0]


class TestCostModel:
    def test_from_config(self):
        config = ClusterConfig(rpc_latency_ms=2.0, cost_per_record_us=10.0)
        cm = CostModel.from_config(config)
        assert cm.rpc_latency_s == pytest.approx(0.002)
        assert cm.cost_per_record_s == pytest.approx(1e-5)

    def test_coprocessor_cost_linear_in_records(self):
        cm = CostModel()
        c0 = cm.coprocessor_cost_s(0)
        c1000 = cm.coprocessor_cost_s(1000)
        c2000 = cm.coprocessor_cost_s(2000)
        assert c2000 - c1000 == pytest.approx(c1000 - c0)


class TestClusterSimulation:
    def _sim(self, nodes, regions):
        sim = ClusterSimulation(ClusterConfig(num_nodes=nodes))
        sim.place_regions(list(range(regions)))
        return sim

    def test_round_robin_placement(self):
        sim = self._sim(nodes=4, regions=8)
        placement = sim.region_placement
        # Each node gets exactly two regions.
        counts = {}
        for node in placement.values():
            counts[node] = counts.get(node, 0) + 1
        assert counts == {0: 2, 1: 2, 2: 2, 3: 2}

    def test_unplaced_region_raises(self):
        sim = ClusterSimulation(ClusterConfig(num_nodes=2))
        with pytest.raises(ConfigError):
            sim.node_for_region(99)

    def test_latency_linear_in_records(self):
        sim = self._sim(nodes=4, regions=8)
        def query(records):
            tasks = [Task(region_id=r, records_scanned=records) for r in range(8)]
            return sim.run_query(tasks).latency_s
        t1 = query(1000)
        t2 = query(2000)
        t4 = query(4000)
        assert t2 > t1
        # Doubling records roughly doubles the compute part.
        assert (t4 - t2) == pytest.approx(2 * (t2 - t1), rel=0.2)

    def test_more_nodes_lower_latency(self):
        def latency(nodes):
            sim = self._sim(nodes=nodes, regions=32)
            tasks = [Task(region_id=r, records_scanned=5000) for r in range(32)]
            return sim.run_query(tasks).latency_s
        l4, l8, l16 = latency(4), latency(8), latency(16)
        assert l4 > l8 > l16

    def test_concurrent_queries_slower_than_single(self):
        sim = self._sim(nodes=4, regions=8)
        tasks = [Task(region_id=r, records_scanned=5000) for r in range(8)]
        single = sim.run_query(tasks).latency_s
        many = sim.run_queries([list(tasks) for _ in range(10)])
        mean = sum(t.latency_s for t in many) / len(many)
        assert mean > single

    def test_concurrency_growth_flatter_on_bigger_cluster(self):
        def mean_latency(nodes, concurrency):
            sim = self._sim(nodes=nodes, regions=32)
            tasks = [Task(region_id=r, records_scanned=2000) for r in range(32)]
            timelines = sim.run_queries([list(tasks)] * concurrency)
            return sum(t.latency_s for t in timelines) / concurrency
        growth_small = mean_latency(4, 20) - mean_latency(4, 10)
        growth_big = mean_latency(16, 20) - mean_latency(16, 10)
        assert growth_big < growth_small

    def test_timeline_records_accounting(self):
        sim = self._sim(nodes=2, regions=4)
        tasks = [Task(region_id=r, records_scanned=10) for r in range(4)]
        timeline = sim.run_query(tasks)
        assert timeline.records_scanned == 40
        assert timeline.tasks == 4

    def test_mismatched_submit_at_rejected(self):
        sim = self._sim(nodes=2, regions=2)
        with pytest.raises(ConfigError):
            sim.run_queries([[Task(0, 1)]], submit_at=[0.0, 1.0])

