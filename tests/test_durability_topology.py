"""Durability and topology are things the cluster has (DESIGN.md §10).

1. A seeded sequence of every operation that changes the region set,
   the placement or the data — DDL, writes, flushes, splits, node
   failures, crashes healed by the supervisor, reassignments — keeps
   four invariants after every step: each region's log sits on the node
   placement names; no server log holds records of a region that left
   the cluster; the region index agrees with the tables; and crashing
   every node and replaying its regions' logs yields scans equal to a
   twin that took the same writes and never crashed.
2. The platform answers, emits and folds the same whichever of the
   ingest tier and the supervisor is constructed first.
3. ``crash()`` + replay works on a bare ``HBaseCluster``: no platform,
   no supervisor, no ingest tier handed the regions their logs.
4. Bulk-loaded data is durable without a log: it outlives a node crash
   with nothing replayed for it, moves with its region, splits like
   any store file — and, having no log copy, cannot be repaired.
"""

import random
import warnings

import pytest

from repro.config import (
    ClusterConfig,
    IngestConfig,
    PlatformConfig,
)
from repro.core.ingest import StreamingIngestTier
from repro.core.modules.hotin_update import IncrementalHotIn
from repro.core.modules.query_answering import SearchQuery
from repro.core.platform import MoDisSENSE
from repro.core.repositories.poi import POI
from repro.core.repositories.visits import VisitStruct
from repro.core.scheduler import build_platform_scheduler
from repro.core.supervisor import ClusterSupervisor
from repro.errors import ChecksumError, RegionNotFoundError, StorageError
from repro.hbase import Cell, HBaseCluster, TableDescriptor

FAMILY = "f"
NODES = 4


def _contents(cluster):
    return {
        name: [
            (c.row, c.qualifier, c.timestamp, c.value)
            for c in cluster.table(name).scan(FAMILY)
        ]
        for name in cluster.table_names()
    }


class _Drill:
    """One cluster driven through the rules, beside a twin that takes
    the same DDL and writes and nothing else."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        config = ClusterConfig(num_nodes=NODES)
        self.cluster = HBaseCluster(config)
        self.twin = HBaseCluster(config)
        self.supervisor = ClusterSupervisor(self.cluster)
        self.now = 0.0
        self.tables_made = 0
        #: Ids of regions that left the cluster: dropped or split.
        self.gone = set()
        self.fired = set()
        self.crashes = 0
        self.create_table()

    # ------------------------------------------------------------- rules

    def create_table(self):
        if len(self.cluster.table_names()) >= 4:
            return
        self.tables_made += 1
        for cluster in (self.cluster, self.twin):
            cluster.create_table(TableDescriptor(
                name="t%d" % self.tables_made, families=[FAMILY],
                num_regions=self.rng.choice([1, 2, 4]),
                flush_threshold_bytes=self.rng.choice([600, 1 << 22]),
            ))

    def drop_table(self):
        names = self.cluster.table_names()
        if len(names) < 2:
            return
        name = self.rng.choice(names)
        self.gone.update(self.cluster.table(name).region_ids())
        self.cluster.drop_table(name)
        self.twin.drop_table(name)

    def _cell(self):
        rng = self.rng
        return Cell(
            row=bytes([rng.randrange(256)]) + b"-%02d" % rng.randrange(40),
            family=FAMILY, qualifier=rng.choice([b"q", b"r"]),
            timestamp=rng.randrange(8), value=b"v%d" % rng.randrange(1000),
            is_delete=rng.random() < 0.15,
        )

    def _table(self):
        name = self.rng.choice(self.cluster.table_names())
        return self.cluster.table(name), self.twin.table(name)

    def put(self):
        table, twin = self._table()
        for _ in range(self.rng.randrange(1, 6)):
            cell = self._cell()
            table.put(cell)
            twin.put(cell)

    def put_batch(self):
        """Group commits, routed the way the ingest appliers route."""
        table, twin = self._table()
        by_region = {}
        for _ in range(self.rng.randrange(2, 40)):
            cell = self._cell()
            by_region.setdefault(table.region_for_row(cell.row), []).append(cell)
            twin.put(cell)
        for region, cells in by_region.items():
            region.put_batch(cells)

    def bulk_load(self):
        """Store-file data that never sees a log: the crash-everything
        check must find it all, once."""
        table, twin = self._table()
        cells = [self._cell() for _ in range(self.rng.randrange(1, 60))]
        assert table.bulk_load(cells) == twin.bulk_load(cells)

    def flush(self):
        table, _twin = self._table()
        region = self.rng.choice(table.regions)
        self.rng.choice([
            table.flush,
            region.flush,
            # Leaves the log untruncated: replay then repeats cells a
            # store file already holds.
            lambda: region.flush(FAMILY),
        ])()

    def split_region(self):
        table, _twin = self._table()
        parent = self.rng.choice(table.regions)
        table.split_region(parent)
        if parent not in table.regions:
            self.gone.add(parent.region_id)

    def _live(self):
        return self.cluster.simulation.live_nodes()

    def fail_node(self):
        if len(self._live()) >= 2:
            self.cluster.fail_node(self.rng.choice(self._live()))

    def recover_node(self):
        down = sorted(set(range(NODES)) - set(self._live()))
        if down:
            self.cluster.recover_node(self.rng.choice(down))

    def crash_node(self):
        """A real crash, healed by nothing but the supervisor's ticks."""
        if len(self._live()) < 2:
            return
        history = self.supervisor.recovery_history
        recoveries = len(history)
        node = self.rng.choice(self._live())
        self.cluster.crash_node(node)
        for _ in range(6):
            self.now += 1.0
            self.supervisor.heartbeat_tick(self.now)
        # (The lease of a node lost to fail_node may expire here too.)
        assert node in [record["node"] for record in history[recoveries:]]
        self.crashes += 1

    def reassign_regions(self):
        regions = list(self.cluster.regions())
        chosen = self.rng.sample(regions, self.rng.randrange(1, len(regions) + 1))
        self.cluster.reassign_regions({
            region.region_id: self.rng.choice(self._live())
            for region in chosen
        })

    RULES = (
        create_table, drop_table, put, put, put_batch, put_batch,
        bulk_load, flush, split_region, fail_node, recover_node,
        crash_node, reassign_regions,
    )

    def step(self):
        self.now += 1.0
        self.supervisor.heartbeat_tick(self.now)
        rule = self.rng.choice(self.RULES)
        self.fired.add(rule.__name__)
        rule(self)

    # -------------------------------------------------------- invariants

    def check(self):
        cluster = self.cluster
        placement = cluster.simulation.region_placement
        regions = list(cluster.regions())
        # One region index, agreeing with the tables and the placement.
        assert regions == [
            region
            for name in cluster.table_names()
            for region in cluster.table(name).regions
        ]
        assert sorted(placement) == sorted(r.region_id for r in regions)
        for region in regions:
            assert cluster.region(region.region_id) is region
        for rid in self.gone:
            with pytest.raises(RegionNotFoundError):
                cluster.region(rid)
        # Each region's log sits on the node placement names.
        for region in regions:
            assert region.wal.region_id == region.region_id
            assert region.wal.server is cluster.server_wal(
                placement[region.region_id]
            )
        # No server log holds records of a region that is not there.
        live_ids = set(placement)
        for node in range(NODES):
            server = cluster.server_wal(node)
            assert set(server.split_by_region()) <= {
                rid for rid in live_ids if placement[rid] == node
            }
            for rid in self.gone:
                assert server.records_for(rid) == []
                assert server.archived_for(rid) == []
        # Any node may crash now: what its regions replay is what a
        # never-crashed twin holds (daughters of a split included).
        for node in range(NODES):
            for rid in cluster.simulation.regions_on(node):
                region = cluster.region(rid)
                region.crash()
                region.replay_cells(region.wal.replay())
        assert _contents(cluster) == _contents(self.twin)


def test_logs_follow_placement_and_replay_matches_a_never_crashed_twin():
    fired, gone, crashes = set(), 0, 0
    for seed in range(8):
        drill = _Drill(seed)
        drill.check()
        for step in range(60):
            drill.step()
            try:
                drill.check()
            except AssertionError as exc:
                raise AssertionError("seed %d step %d" % (seed, step)) from exc
        fired |= drill.fired
        gone += len(drill.gone)
        crashes += drill.crashes
    # The sequences exercised what they claim to.
    assert fired == {rule.__name__ for rule in _Drill.RULES}
    assert gone and crashes


# ------------------------------------------------------- bare cluster


def test_crash_and_replay_on_a_bare_cluster():
    cluster = HBaseCluster(ClusterConfig(num_nodes=3))
    table = cluster.create_table(
        TableDescriptor(name="t", families=[FAMILY], num_regions=4)
    )
    for i in range(64):
        table.put(Cell(row=bytes([i * 4]) + b"-r", family=FAMILY,
                       qualifier=b"q", timestamp=1, value=b"v%d" % i))
    table.regions[0].flush()  # one region's cells are in a store file
    before = _contents(cluster)
    placement = cluster.simulation.region_placement
    for region in table.regions:
        assert region.wal.server is cluster.server_wal(
            placement[region.region_id]
        )
        region.crash()
    assert _contents(cluster) != before
    for region in table.regions:
        region.replay_cells(region.wal.replay())
    assert _contents(cluster) == before


def test_bulk_loaded_data_is_durable_without_a_log():
    cluster = HBaseCluster(ClusterConfig(num_nodes=3))
    supervisor = ClusterSupervisor(cluster)
    table = cluster.create_table(
        TableDescriptor(name="t", families=[FAMILY], num_regions=4)
    )
    cells = [
        Cell(row=bytes([i]) + b"-r", family=FAMILY, qualifier=b"q",
             timestamp=1, value=b"v%d" % i)
        for i in range(0, 256, 2)
    ]
    # Out of order and in two calls: sorted and cut per region, staged,
    # sealed by the first read.
    assert table.bulk_load(cells[64:]) + table.bulk_load(cells[:64]) == 128
    assert [len(region.wal) for region in table.regions] == [0] * 4
    before = _contents(cluster)
    assert [row for row, *_ in before["t"]] == [c.row for c in cells]
    assert [r.store_file_count(FAMILY) for r in table.regions] == [1] * 4

    # Node crash -> lease expiry -> WAL-split recovery: nothing to
    # replay for bulk-loaded cells, none lost, none doubled.
    placement = cluster.simulation.region_placement
    victim = placement[table.regions[0].region_id]
    stranded = cluster.crash_node(victim)
    now = 0.0
    for _ in range(6):
        now += 1.0
        supervisor.heartbeat_tick(now)
    (record,) = supervisor.recovery_history
    assert sorted(r["region"] for r in record["regions"]) == sorted(stranded)
    assert record["cells_replayed"] == 0
    assert _contents(cluster) == before
    assert table.total_rows(FAMILY) == len(cells)

    # A streamed write above the loaded data is replayed; the data
    # below it is still not.
    late = Cell(row=cells[0].row + b"-late", family=FAMILY, qualifier=b"q",
                timestamp=2, value=b"late")
    table.put(late)
    region = table.region_for_row(late.row)
    assert region.crash() == 1
    assert region.replay_cells(region.wal.replay()) == 1
    assert table.total_rows(FAMILY) == len(cells) + 1

    # The files move with their region, and split like any other.
    target = next(n for n in cluster.simulation.live_nodes()
                  if n != placement[region.region_id])
    cluster.reassign_regions({region.region_id: target})
    assert region.wal.server is cluster.server_wal(target)
    table.split_region(region)
    assert region not in table.regions
    after = _contents(cluster)
    assert [x for x in after["t"] if x[0] != late.row] == before["t"]

    # Bit rot in a bulk-loaded block has no log copy to rebuild from:
    # the scrubber quarantines it and reads fail loudly.
    rotten = table.regions[-1]
    (sf,) = rotten.store_files_for(FAMILY)
    sf.corrupt_block(0)
    summary = supervisor.scrub_tick(now)
    assert summary["blocks_corrupt"] == 1
    assert summary["blocks_repaired"] == 0
    assert summary["blocks_quarantined"] == 1
    with pytest.raises(ChecksumError, match="quarantined"):
        list(rotten.scan(FAMILY))
    with pytest.raises(ChecksumError, match="quarantined"):
        rotten.scan_cells(FAMILY)


def test_region_bulk_load_validates_before_it_stages():
    cluster = HBaseCluster(ClusterConfig(num_nodes=2))
    table = cluster.create_table(
        TableDescriptor(name="t", families=[FAMILY, "g"], num_regions=2)
    )
    low, high = table.regions

    def cell(row, family=FAMILY):
        return Cell(row=row, family=family, qualifier=b"q", timestamp=1,
                    value=b"v")

    inside = [cell(b"\x01a"), cell(b"\x01b")]
    for bad in (
        [inside[1], inside[0]],                      # not sorted
        [inside[0], inside[0]],                      # a key twice
        inside + [cell(b"\x01c", family="g")],       # another family
        inside + [cell(high.start_key + b"x")],      # outside the range
    ):
        seqid = low.data_seqid
        with pytest.raises(StorageError):
            low.bulk_load(FAMILY, bad)
        assert low.approx_rows(FAMILY) == 0 and low.data_seqid == seqid
    with pytest.raises(StorageError):
        low.bulk_load("nope", inside)
    with pytest.raises(StorageError):
        table.bulk_load(inside + [cell(b"\x01c", family="nope")])
    assert table.total_rows(FAMILY) == 0
    low.bulk_load(FAMILY, inside)
    assert (low.data_seqid, low.write_count) == (seqid + 2, 2)
    assert [c.row for c in low.scan(FAMILY)] == [b"\x01a", b"\x01b"]
    # Families load side by side; a later cell with an equal key wins.
    newer = Cell(row=b"\x01a", family=FAMILY, qualifier=b"q", timestamp=1,
                 value=b"newer")
    assert table.bulk_load([cell(b"\x01a", family="g"), inside[0], newer]) == 2
    assert low.get(b"\x01a", FAMILY, b"q") == b"newer"
    assert low.get(b"\x01a", "g", b"q") == b"v"


def test_dropped_table_leaves_no_records_behind():
    cluster = HBaseCluster(ClusterConfig(num_nodes=2))
    table = cluster.create_table(
        TableDescriptor(name="t", families=[FAMILY], num_regions=2)
    )
    for region in table.regions:
        row = (region.start_key or b"\x00") + b"x"
        for ts in (1, 2):
            region.put(Cell(row=row, family=FAMILY, qualifier=b"q",
                            timestamp=ts, value=b"v"))
        region.flush()  # archived records
        region.put(Cell(row=row, family=FAMILY, qualifier=b"q",
                        timestamp=3, value=b"v"))  # and a live one
    ids = table.region_ids()
    servers = [cluster.server_wal(node) for node in range(2)]
    assert any(s.archived_for(rid) for s in servers for rid in ids)
    cluster.drop_table("t")
    for server in servers:
        assert server.split_by_region() == {}
        for rid in ids:
            assert server.archived_for(rid) == []


# ------------------------------------------------- construction order


def _attach_ingest(p):
    p.incremental_hotin = IncrementalHotIn()
    p.ingest = StreamingIngestTier(
        p.visits_repository, p.poi_repository, p.incremental_hotin,
        config=IngestConfig(), metrics=p.metrics, tracer=p.tracer,
        hot_poi_cache=p.hot_poi_cache, event_log=p.telemetry.events,
    ).start()
    p.admission.ingest = p.ingest


def _attach_supervisor(p):
    p.supervisor = ClusterSupervisor(
        p.hbase, metrics=p.metrics, tracer=p.tracer,
        event_log=p.telemetry.events,
    )


def _run_platform(order):
    """Build the production stack, then replace its ingest tier and
    supervisor with ones built directly in ``order``; stream visits in,
    crash a node, let the supervisor heal it, stream more; report what
    a user and an operator can see."""
    p = MoDisSENSE(PlatformConfig.small())
    p.ingest.stop(drain=True)
    for attach in order:
        attach(p)
    p.poi_repository.add(POI(poi_id=1, name="A", lat=37.98, lon=23.73,
                             keywords=("x",), category="cafe"))
    base = min(p.visits_repository.table.region_ids())
    scheduler = build_platform_scheduler(p)
    query = SearchQuery(friend_ids=tuple(range(1, 60)), sort_by="hotness")

    def stream(users):
        for uid in users:
            p.ingest.submit(VisitStruct(
                user_id=uid, poi_id=1, timestamp=uid, grade=0.5,
                poi_name="A", lat=37.98, lon=23.73, keywords=("x",)))
        assert p.ingest.drain(timeout_s=30.0)

    stream(range(1, 40))
    answers = [p.search(query)]
    p.hbase.crash_node(1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        answers.append(p.search(query))  # degraded: nobody healed yet
    for _ in range(6):
        scheduler.advance_by(1.0)
    stream(range(40, 60))
    answers.append(p.search(query))
    events = [
        (
            e["type"],
            e.get("node"),
            e.get("from_node"),
            e["region"] - base if "region" in e else None,
            e.get("cells_replayed"),
            e.get("memstore_cells_lost"),
            sorted(r - base for r in e.get("regions_stranded", ())),
            sorted((int(r) - base, n) for r, n in e.get("mapping", {}).items()),
        )
        for e in p.telemetry.events.query()
        if e["type"].split(".")[0] in ("node", "region", "regions")
    ]
    seen = (
        [
            ([(s.poi_id, s.score, s.visit_count) for s in a.pois],
             a.degraded, a.coverage)
            for a in answers
        ],
        events,
        p.incremental_hotin.snapshot(),
        [r["cells_replayed"] for r in p.supervisor.recovery_history],
    )
    p.shutdown()
    return seen


def test_ingest_and_supervisor_construct_in_either_order():
    first = _run_platform([_attach_ingest, _attach_supervisor])
    second = _run_platform([_attach_supervisor, _attach_ingest])
    assert first == second
    answers, events, _snapshot, replayed = first
    assert answers[1][1] and not answers[2][1]  # degraded, then healed
    assert answers[2][0][0][2] == 59            # every visit counted
    (crashed,) = [e for e in events if e[0] == "node.crashed"]
    assert [e[0] for e in events].count("region.recovered") == len(crashed[6])
    assert replayed and replayed[0] > 0
