"""Tests for the MapReduce engine."""

import pytest

from repro.errors import MapReduceError
from repro.mapreduce import (
    HashPartitioner,
    InputSplit,
    JobRunner,
    MapReduceJob,
    RangePartitioner,
    make_splits,
)


def word_count_job(combiner=None, **kwargs):
    def mapper(record, emit, counters):
        for word in record.split():
            emit(word, 1)

    def reducer(key, values, emit, counters):
        emit(key, sum(values))

    return MapReduceJob(
        name="wc", mapper=mapper, reducer=reducer, combiner=combiner, **kwargs
    )


class TestSplits:
    def test_even_division(self):
        splits = make_splits(list(range(10)), 5)
        assert [len(s) for s in splits] == [2, 2, 2, 2, 2]

    def test_uneven_division(self):
        splits = make_splits(list(range(10)), 3)
        assert [len(s) for s in splits] == [4, 3, 3]
        assert [r for s in splits for r in s.records] == list(range(10))

    def test_fewer_records_than_splits(self):
        splits = make_splits([1, 2], 10)
        assert len(splits) == 2

    def test_empty_input(self):
        assert make_splits([], 4) == []

    def test_invalid_split_count(self):
        with pytest.raises(MapReduceError):
            make_splits([1], 0)


class TestPartitioners:
    def test_hash_is_deterministic_and_in_range(self):
        p = HashPartitioner()
        for key in ("abc", 42, ("tuple", 1)):
            idx = p.partition(key, 7)
            assert idx == p.partition(key, 7)
            assert 0 <= idx < 7

    def test_hash_invalid_reducers(self):
        with pytest.raises(MapReduceError):
            HashPartitioner().partition("x", 0)

    def test_range_partitioner(self):
        p = RangePartitioner(boundaries=[10, 20])
        assert p.partition(5, 3) == 0
        assert p.partition(10, 3) == 1
        assert p.partition(15, 3) == 1
        assert p.partition(25, 3) == 2

    def test_range_partitioner_clamps(self):
        p = RangePartitioner(boundaries=[10, 20, 30])
        assert p.partition(99, 2) == 1

    def test_range_requires_sorted(self):
        with pytest.raises(MapReduceError):
            RangePartitioner(boundaries=[3, 1])


class TestJobRunner:
    def test_word_count(self):
        runner = JobRunner()
        result = runner.run(
            word_count_job(num_mappers=3, num_reducers=2),
            ["a b a", "b c", "c c c"],
        )
        assert result.as_dict() == {"a": 2, "b": 2, "c": 4}
        assert result.map_tasks == 3

    def test_combiner_gives_same_result(self):
        def combiner(key, values, emit, counters):
            emit(key, sum(values))

        records = ["x y x"] * 50
        runner = JobRunner()
        plain = runner.run(word_count_job(num_mappers=4), records)
        combined = runner.run(
            word_count_job(combiner=combiner, num_mappers=4), records
        )
        assert plain.as_dict() == combined.as_dict()
        # The combiner must shrink the shuffle.
        assert combined.counters.get("combine.records_out") < plain.counters.get(
            "map.records_out"
        )

    def test_empty_input(self):
        runner = JobRunner()
        result = runner.run(word_count_job(), [])
        assert result.pairs == []
        assert result.map_tasks == 0

    def test_counters_aggregate(self):
        runner = JobRunner()
        result = runner.run(word_count_job(num_mappers=2), ["a", "b b"])
        assert result.counters.get("map.records_in") == 2
        assert result.counters.get("map.records_out") == 3

    def test_output_deterministic_across_runs(self):
        records = ["m n o p"] * 20
        runner = JobRunner()
        a = runner.run(word_count_job(num_mappers=8), records).pairs
        b = runner.run(word_count_job(num_mappers=8), records).pairs
        assert a == b
        # Splits run in input order and the output is sorted by key, so
        # it does not depend on how many splits there were.
        for num_mappers in (1, 3, 20):
            job = word_count_job(num_mappers=num_mappers, num_reducers=3)
            assert runner.run(job, records).pairs == a

    def test_task_exception_propagates_as_itself(self):
        def mapper(record, emit, counters):
            raise ValueError("bad record %r" % (record,))

        job = MapReduceJob(name="boom", mapper=mapper,
                           reducer=lambda key, values, emit, counters: None)
        with pytest.raises(ValueError, match="bad record 1"):
            JobRunner().run(job, [1, 2])

    def test_duplicate_keys_in_as_dict_rejected(self):
        def mapper(record, emit, counters):
            emit("k", record)

        def reducer(key, values, emit, counters):
            for v in values:
                emit(key, v)  # deliberately emits per value

        job = MapReduceJob(name="dup", mapper=mapper, reducer=reducer)
        runner = JobRunner()
        result = runner.run(job, [1, 2])
        with pytest.raises(MapReduceError):
            result.as_dict()

    def test_invalid_job_parameters(self):
        def f(*args):
            pass

        with pytest.raises(MapReduceError):
            MapReduceJob(name="bad", mapper=f, reducer=f, num_reducers=0)
        with pytest.raises(MapReduceError):
            MapReduceJob(name="bad", mapper=f, reducer=f, num_mappers=0)

    def test_reducer_sees_sorted_keys(self):
        seen = []

        def mapper(record, emit, counters):
            emit(record, 1)

        def reducer(key, values, emit, counters):
            seen.append(key)
            emit(key, sum(values))

        job = MapReduceJob(
            name="sorted", mapper=mapper, reducer=reducer, num_reducers=1
        )
        runner = JobRunner()
        runner.run(job, ["c", "a", "b"])
        assert seen == sorted(seen)
