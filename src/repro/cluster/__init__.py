"""Simulated distributed cluster.

The paper evaluates MoDisSENSE on OpenStack clusters of 4, 8 and 16
dual-core VMs.  This package reproduces that environment in-process:

- :class:`Node` models one VM with a fixed number of cores;
- :class:`ClusterSimulation` places HBase regions on nodes and schedules
  region-local work (coprocessor invocations) onto cores with a
  deterministic list scheduler and a calibrated cost model, yielding the
  *simulated* latencies the benchmarks report.

Parallelism is *modelled*, by that scheduler; the region functions
themselves run for real, one after another, in the thread that asked
(the HBase client's fan-out, the MapReduce runner), so results are
always computed, never faked.  Wall-clock is therefore about the sum of
the region work while simulated ms is about the scheduled maximum.
"""

from .node import Node
from .simulation import CostModel, Task, QueryTimeline, ClusterSimulation
from .webfarm import WebServerFarm, MergeWork

__all__ = [
    "Node",
    "CostModel",
    "Task",
    "QueryTimeline",
    "ClusterSimulation",
    "WebServerFarm",
    "MergeWork",
]
