"""The scan contract (DESIGN.md §9), property-tested.

1. ``Region.scan_cells(f, start, stop) == list(Region.scan(f, start,
   stop))`` — always: a hypothesis state machine drives one region
   through every mutation that can change what a reader sees or how it
   is stored, and compares the two reads over a grid of ranges after
   every step.  ``bulk_load`` is one of them, and with it the read that
   joins two plain runs' slices when their rows do not interleave.
2. The memstore's in-place absorb and its one-pass rebuild are the same
   function of the write sequence: contents, ``size_bytes``, length and
   ``plain`` agree with each other and with cell-at-a-time puts.
3. The snapshot rule: a scan in progress sees every cell that existed
   when it started exactly once, whatever is written meanwhile.
"""

import itertools
from unittest import mock

from hypothesis import example, given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

import repro.hbase.memstore as memstore_mod
from repro.hbase import Cell, MemStore, Region, RegionWALHandle

FAMILY = "f"
#: Few rows, qualifiers and timestamps, so versions, tombstones and
#: same-row neighbours with other coordinates are all common.
ROWS = [b"c", b"c\x00", b"cc", b"d", b"m", b"m1", b"m2", b"w", b"x\xff"]
QUALIFIERS = [b"q", b"r"]
TIMESTAMPS = st.integers(min_value=0, max_value=6)
#: The region is [b"b", b"y"): bounds below, on, inside, on and above it.
BOUNDS = [None, b"a", b"b", b"c", b"c\x00", b"cd", b"m", b"m1\x00",
          b"k150", b"w", b"x\xff", b"y", b"z"]
RANGES = list(itertools.product(BOUNDS, BOUNDS))

small_cells = st.builds(
    Cell,
    row=st.sampled_from(ROWS),
    family=st.just(FAMILY),
    qualifier=st.sampled_from(QUALIFIERS),
    timestamp=TIMESTAMPS,
    value=st.binary(max_size=3),
)


def bulk_cells(first, count, timestamp):
    """``count`` distinct-row puts starting at row ``k<first>`` — the
    batch sizes that cross the absorb/rebuild threshold."""
    return [
        Cell(row=b"k%03d" % i, family=FAMILY, qualifier=b"q",
             timestamp=timestamp, value=b"v%d" % timestamp)
        for i in range(first, first + count)
    ]


class RegionScanMachine(RuleBasedStateMachine):
    """One region, every mutation; after each, ``scan_cells`` must equal
    the generic merged scan on a grid of ranges (empty, unbounded,
    single-row and out-of-region ones included)."""

    @initialize()
    def build(self):
        self.region = Region(
            [FAMILY], start_key=b"b", end_key=b"y", wal=RegionWALHandle()
        )
        self.last = None

    @rule(cell=small_cells)
    def put(self, cell):
        self.region.put(cell)
        self.last = cell

    @rule(shift=st.sampled_from([-1, 0, 1]), value=st.binary(max_size=3))
    def put_same_coordinates(self, shift, value):
        """A newer, equal or older version of the last cell written."""
        if self.last is None:
            return
        self.region.put(
            Cell(
                row=self.last.row, family=FAMILY,
                qualifier=self.last.qualifier,
                timestamp=max(0, self.last.timestamp + shift), value=value,
            )
        )

    @rule(row=st.sampled_from(ROWS), qualifier=st.sampled_from(QUALIFIERS),
          timestamp=TIMESTAMPS)
    def delete(self, row, qualifier, timestamp):
        self.region.delete(row, FAMILY, qualifier, timestamp)

    @rule(cells=st.lists(small_cells, min_size=1, max_size=10))
    def put_batch_small(self, cells):
        self.region.put_batch(cells)

    @rule(first=st.integers(0, 400), count=st.sampled_from([1, 10, 300]),
          timestamp=TIMESTAMPS)
    def put_batch_bulk(self, first, count, timestamp):
        self.region.put_batch(bulk_cells(first, count, timestamp))

    @rule(first=st.integers(0, 400), count=st.sampled_from([1, 10, 300]),
          timestamp=TIMESTAMPS)
    def bulk_load(self, first, count, timestamp):
        """A sorted run adopted as store-file data: its rows may already
        sit in the memstore, a store file or an earlier staged run."""
        self.region.bulk_load(FAMILY, bulk_cells(first, count, timestamp))

    @rule(cells=st.lists(small_cells, min_size=1, max_size=10))
    def bulk_load_small(self, cells):
        """The same over the few rows the other rules version and
        tombstone."""
        unique = {cell.sort_key(): cell for cell in cells}
        self.region.bulk_load(FAMILY, [unique[key] for key in sorted(unique)])

    @rule()
    def flush(self):
        self.region.flush()

    @rule()
    def flush_family(self):
        # Leaves the WAL untruncated: a later crash + replay puts cells
        # back into the memstore that a store file also holds.
        self.region.flush(FAMILY)

    @rule()
    def minor_compact(self):
        self.region.minor_compact(FAMILY)

    @rule()
    def compact(self):
        self.region.compact()

    @rule(cutoff=TIMESTAMPS)
    def set_ttl_cutoff(self, cutoff):
        self.region.set_ttl_cutoff(FAMILY, cutoff)

    @rule()
    def crash_and_replay(self):
        self.region.crash()
        self.region.replay_cells(list(self.region.wal.replay()))

    @rule(start=st.none() | st.binary(max_size=3),
          stop=st.none() | st.binary(max_size=3))
    def any_range(self, start, stop):
        assert self.region.scan_cells(FAMILY, start, stop) == list(
            self.region.scan(FAMILY, start, stop)
        )

    @invariant()
    def scan_cells_is_the_scan(self):
        region = self.region
        for start, stop in RANGES:
            assert region.scan_cells(FAMILY, start, stop) == list(
                region.scan(FAMILY, start, stop)
            ), (start, stop)


RegionScanMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestRegionScanContract = RegionScanMachine.TestCase


class TestSlicePathConditions:
    """``scans_sliced`` moves exactly when the runs holding the range
    are plain, their rows do not interleave and the family has no TTL
    horizon."""

    @staticmethod
    def _sliced(region, start=None, stop=None):
        before = region.scans_sliced, region.scans_served
        cells = region.scan_cells(FAMILY, start, stop)
        assert cells == list(region.scan(FAMILY, start, stop))
        # One scan_cells call and the comparison scan, never more.
        assert region.scans_served - before[1] == 2
        return region.scans_sliced - before[0] == 1

    def _region(self):
        region = Region([FAMILY])
        for i in range(10):
            region.put(Cell(row=b"r%d" % i, family=FAMILY, qualifier=b"q",
                            timestamp=5, value=b"v"))
        return region

    def test_one_plain_run_is_sliced_wherever_it_lives(self):
        region = self._region()
        assert self._sliced(region)                  # memstore
        assert self._sliced(region, b"r3", b"r5")
        assert self._sliced(region, b"zz", None)     # nothing there
        region.flush()
        assert self._sliced(region)                  # one store file
        region.put(Cell(row=b"r3x", family=FAMILY, qualifier=b"q",
                        timestamp=5, value=b"v"))
        assert not self._sliced(region)              # two runs overlap
        assert self._sliced(region, b"r4", None)     # only the file
        assert self._sliced(region, b"r3x", b"r4")   # only the memstore
        region.compact()
        assert self._sliced(region)

    def test_tombstones_and_versions_end_plainness_until_compaction(self):
        for spoil in (
            lambda r: r.delete(b"r3", FAMILY, b"q", 9),
            lambda r: r.put(Cell(row=b"r3", family=FAMILY, qualifier=b"q",
                                 timestamp=6, value=b"new")),
            lambda r: r.put_batch([
                Cell(row=b"r3", family=FAMILY, qualifier=b"q",
                     timestamp=t, value=b"new") for t in (1, 2)
            ]),
        ):
            region = self._region()
            spoil(region)
            assert not self._sliced(region)
            assert not self._sliced(region, b"r8", None)  # run-wide flag
            region.flush()
            assert not self._sliced(region)  # the file inherits it
            region.compact()
            assert self._sliced(region)

    def test_same_version_rewrite_stays_plain(self):
        region = self._region()
        region.put(Cell(row=b"r3", family=FAMILY, qualifier=b"q",
                        timestamp=5, value=b"again"))
        region.put(Cell(row=b"r3", family=FAMILY, qualifier=b"other",
                        timestamp=5, value=b"v"))
        assert self._sliced(region)

    def test_bulk_loaded_runs_seal_into_one_plain_file(self):
        region = Region([FAMILY])
        rows = [b"r%d" % i for i in range(10)]
        for chunk in (rows[0::2], rows[1::2]):
            region.bulk_load(FAMILY, [
                Cell(row=row, family=FAMILY, qualifier=b"q", timestamp=5,
                     value=b"v") for row in chunk
            ])
        assert self._sliced(region)
        assert region.store_file_count(FAMILY) == 1
        assert self._sliced(region, b"r3", b"r5")

    @given(file_rows=st.sets(st.sampled_from(ROWS), min_size=1),
           memstore_rows=st.sets(st.sampled_from(ROWS), min_size=1))
    # Visits written since the load: newer timestamps sort first, so
    # the memstore's rows all come before the file's: concatenation.
    @example(file_rows={b"m", b"m1", b"m2", b"w"}, memstore_rows={b"c", b"d"})
    # A late-arriving older visit lands inside the file's row range.
    @example(file_rows={b"c", b"m2"}, memstore_rows={b"c\x00", b"m"})
    @settings(max_examples=80, deadline=None)
    def test_two_plain_runs_slice_iff_their_rows_do_not_interleave(
        self, file_rows, memstore_rows
    ):
        region = Region([FAMILY])
        region.bulk_load(FAMILY, [
            Cell(row=row, family=FAMILY, qualifier=b"q", timestamp=1,
                 value=b"base") for row in sorted(file_rows)
        ])
        for row in memstore_rows:
            region.put(Cell(row=row, family=FAMILY, qualifier=b"q",
                            timestamp=2, value=b"new"))
        disjoint = (
            max(memstore_rows) < min(file_rows)
            or max(file_rows) < min(memstore_rows)
        )
        assert self._sliced(region) == disjoint

    def test_ttl_horizon_ends_slicing_for_its_family_only(self):
        region = Region([FAMILY, "g"])
        for family in (FAMILY, "g"):
            region.put(Cell(row=b"r", family=family, qualifier=b"q",
                            timestamp=5, value=b"v"))
        region.set_ttl_cutoff("g", 3)
        assert self._sliced(region)
        region.set_ttl_cutoff(FAMILY, 3)
        assert not self._sliced(region)


# ---------------------------------------------------- memstore equivalence

memstore_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), small_cells),
        st.tuples(st.just("batch"),
                  st.lists(small_cells, min_size=1, max_size=12)),
        st.tuples(st.just("bulk"),
                  st.tuples(st.integers(0, 200),
                            st.sampled_from([1, 10, 150, 300]), TIMESTAMPS)),
        st.tuples(st.just("tombstone"), small_cells),
        st.tuples(st.just("read"), st.none()),
        st.tuples(st.just("clear"), st.none()),
    ),
    min_size=1, max_size=25,
)


def _observe(store, absorb_max_cells):
    """What a reader can tell about the store, consolidating with the
    given absorb threshold (0: always rebuild; huge: always in place)."""
    with mock.patch.object(
        memstore_mod, "ABSORB_MAX_CELLS", absorb_max_cells
    ):
        return store.snapshot(), store.size_bytes, len(store), store.plain


#: One cell rewritten at the same version, for the pinned example.
_C0 = Cell(row=b"c", family=FAMILY, qualifier=b"q", timestamp=0, value=b"")


class TestMemStoreAbsorbEqualsRebuild:
    @given(memstore_ops)
    # A tombstone overwritten inside one consolidation window must lower
    # ``plain`` exactly as it does when every write consolidates alone.
    @example([("batch", [_C0, _C0]), ("tombstone", _C0), ("put", _C0)])
    @settings(max_examples=150, deadline=None)
    def test_in_place_rebuild_and_sequential_puts_agree(self, ops):
        """Three stores take the same writes: one always absorbs in
        place, one always rebuilds, one is written a cell at a time."""
        in_place, rebuilt, sequential = MemStore(), MemStore(), MemStore()

        def agree():
            want = _observe(sequential, memstore_mod.ABSORB_MAX_CELLS)
            assert _observe(in_place, 1 << 60) == want
            assert _observe(rebuilt, 0) == want
            return want

        for op, arg in ops:
            if op == "read":
                agree()
                continue
            if op == "clear":
                for store in (in_place, rebuilt, sequential):
                    store.clear()
                continue
            if op == "put":
                cells = [arg]
            elif op == "tombstone":
                cells = [Cell(row=arg.row, family=FAMILY,
                              qualifier=arg.qualifier,
                              timestamp=arg.timestamp, is_delete=True)]
            elif op == "batch":
                cells = arg
            else:
                cells = bulk_cells(*arg)
            for store in (in_place, rebuilt):
                if len(cells) == 1:
                    store.put(cells[0])
                else:
                    store.put_batch(cells)
            for cell in cells:
                sequential.put(cell)
        cells, _size, _length, plain = agree()
        keys = [c.sort_key() for c in cells]
        assert keys == sorted(set(keys))
        # ``plain`` is a promise that a slice of the run needs no
        # version or tombstone resolution: it may only be true of a run
        # that has neither.
        if plain:
            assert not any(c.is_delete for c in cells)
            coords = [c.coordinates() for c in cells]
            assert len(coords) == len(set(coords))


# ------------------------------------------------------------ snapshot rule


class TestSnapshotRule:
    """No scan hands out a live iterator over a list a later write
    mutates (in-place inserts shift it under the cursor)."""

    @staticmethod
    def _cells(rows, value=b"old"):
        return [
            Cell(row=row, family=FAMILY, qualifier=b"q", timestamp=1,
                 value=value)
            for row in rows
        ]

    def _write_around_cursor(self, write, consolidate):
        existing = self._cells(b"m%02d" % i for i in range(40))
        region = Region([FAMILY])
        for cell in existing:
            region.put(cell)
        scan = region.scan(FAMILY)  # full range: the un-copied branch
        seen = [next(scan) for _ in range(10)]
        # Sorting before the cursor (shifts what is ahead), after it,
        # and replacing a cell it has yet to reach.
        write(region, self._cells([b"a00", b"a01", b"m05x", b"z00"], b"new")
              + self._cells([b"m30"], b"rewritten"))
        consolidate(region)
        seen.extend(scan)
        assert seen == existing

    def test_full_scan_survives_puts(self):
        def write(region, cells):
            for cell in cells:
                region.put(cell)

        self._write_around_cursor(write, lambda region: None)

    def test_full_scan_survives_an_absorbed_put_batch(self):
        self._write_around_cursor(
            lambda region, cells: region.put_batch(cells),
            # Any ordered read merges the pending batch in place.
            lambda region: region.scan_cells(FAMILY),
        )

    def test_memstore_scan_is_a_copy(self):
        store = MemStore()
        existing = self._cells(b"m%02d" % i for i in range(8))
        store.put_batch(existing)
        cells = store.scan()
        store.put(self._cells([b"a"])[0])
        store.put_batch(self._cells([b"b", b"z"]))
        assert len(store) == 11
        assert cells == existing
