"""A Hadoop-style MapReduce engine, in process.

The platform's batch jobs — HotIn aggregation, MR-DBSCAN event
detection, classifier training — run as MapReduce jobs here exactly as
they do on the paper's Hadoop cluster: input splits feed mappers,
optional combiners pre-aggregate map output, a partitioner routes keys
to reducers, and reducers emit the final pairs.  The tasks run one
after another on the calling thread.
"""

from .job import MapReduceJob, JobResult, Counters
from .io import InputSplit, make_splits
from .partitioner import HashPartitioner, RangePartitioner
from .runner import JobRunner

__all__ = [
    "MapReduceJob",
    "JobResult",
    "Counters",
    "InputSplit",
    "make_splits",
    "HashPartitioner",
    "RangePartitioner",
    "JobRunner",
]
