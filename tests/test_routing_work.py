"""Work guard for salt routing (counts, not timings).

``route_friends`` resolves a friend by hashing its id to a salt and
indexing the table's salt map; only a friend whose salt a split point
cuts takes the per-friend key-range path (``time_range_keys`` plus a
``regions_for_range`` bisect).  Routing every friend down that path
again keeps every route right — the routing property suite stays green
— so the lookups themselves are counted here.
"""

import random

import pytest

from repro.config import ClusterConfig
from repro.core.repositories.visits import VisitsRepository, VisitStruct
from repro.hbase import HBaseCluster
from repro.hbase.bytes_util import salt_int

from .test_routing import range_router

REGIONS = 32
FRIENDS = 2000


@pytest.fixture()
def counted(monkeypatch):
    """A 32-region visits repository whose two range-path primitives
    count their calls."""
    repo = VisitsRepository(
        HBaseCluster(ClusterConfig(num_nodes=4, regions_per_table=REGIONS)),
        num_regions=REGIONS,
    )
    calls = {"time_range_keys": 0, "regions_for_range": 0}
    time_range_keys = VisitsRepository.time_range_keys

    def counting_keys(*args):
        calls["time_range_keys"] += 1
        return time_range_keys(*args)

    def counting_regions(*args):
        calls["regions_for_range"] += 1
        return type(repo.table).regions_for_range(repo.table, *args)

    monkeypatch.setattr(
        VisitsRepository, "time_range_keys", staticmethod(counting_keys)
    )
    monkeypatch.setattr(repo.table, "regions_for_range", counting_regions)
    return repo, calls


def friends(seed=5):
    return random.Random(seed).sample(range(1, 100_000), FRIENDS)


def test_an_unsplit_table_routes_without_a_range_lookup(counted):
    repo, calls = counted
    for window in ((None, None), (1000, None), (None, 5000), (9, 5)):
        routed = repo.route_friends(friends(), *window)
        assert sum(map(len, routed.values())) == FRIENDS
    assert calls == {"time_range_keys": 0, "regions_for_range": 0}


def test_a_split_costs_one_range_lookup_per_friend_in_the_cut_salt(counted):
    repo, calls = counted
    table = repo.table
    # Three users who share one salt, three visits each: the midpoint
    # split of their region lands on a row key inside that salt.
    salt = salt_int(7)
    sharing = [u for u in range(1, 2_000_000) if salt_int(u) == salt][:3]
    for uid in sharing:
        for ts in (100, 200, 300):
            repo.store(VisitStruct(user_id=uid, poi_id=1, timestamp=ts,
                                   grade=0.5))
    regions = len(table.regions)
    table.split_region(table.salt_owners[table.salt_slots[salt]])
    assert len(table.regions) == regions + 1
    cut = len(table.regions)  # the slot of salt_owners' None
    assert table.salt_slots.count(cut) == 1  # just the one salt is cut
    assert table.salt_slots[salt] == cut
    calls.update(time_range_keys=0, regions_for_range=0)

    query = friends() + sharing + sharing[:1]  # one of them twice
    in_cut = sum(salt_int(f) == salt for f in query)
    routed = repo.route_friends(query)
    assert calls == {"time_range_keys": in_cut, "regions_for_range": in_cut}
    assert list(routed.items()) == list(range_router(table, query).items())
