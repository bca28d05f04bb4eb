"""Property-based proofs of the threshold-algorithm invariants
(:mod:`repro.core.modules.topk`), driven directly on synthetic
per-region score distributions.

Invariants pinned here:

1. **Bound soundness / exactness** — for any generated distribution,
   merging the streams and ranking the candidates with the documented
   stable key ``(-score, -visit_count, poi_id)`` equals a brute-force
   fold-everything-then-rank run, bit-exactly, for both scoring modes.
2. **Frontier monotonicity** — each region's upper bound on its
   unemitted items never increases as emission advances.
3. **Never prunes a true top-k member** — every brute-force top-k POI
   is in the merger's candidate set; any *undiscovered* POI scores
   strictly below the final threshold (so it cannot even tie at k).
4. **Tie determinism** — distributions engineered for heavy score ties
   at the k-th position resolve identically pruned vs exhaustive
   (``_rank``'s key is total: ties fall through visit count to poi id).
"""

from hypothesis import example, given, settings, strategies as st

from repro.core.modules.query_answering import VisitScanCoprocessor
from repro.core.modules.topk import (
    PartialAggregates,
    TopKMerger,
    TopKPartialStream,
)

#: Grades mirror the data model: finite non-negative floats.
GRADES = st.floats(
    min_value=0.0, max_value=5.0, allow_nan=False, allow_infinity=False
)

#: One region's visits: poi_id -> grades of that POI's visits there.
REGION = st.dictionaries(
    st.integers(min_value=1, max_value=30),
    st.lists(GRADES, min_size=1, max_size=5),
    max_size=12,
)

REGIONS = st.lists(REGION, min_size=1, max_size=5)

#: Tie-heavy variant: two distinct grades and tiny counts make score
#: collisions at the k-th position overwhelmingly likely.
TIE_REGION = st.dictionaries(
    st.integers(min_value=1, max_value=12),
    st.lists(st.sampled_from((1.0, 2.0)), min_size=1, max_size=3),
    max_size=8,
)

TIE_REGIONS = st.lists(TIE_REGION, min_size=1, max_size=4)


def build_streams(regions, k, hotness, batch):
    """Streams over exact aggregates, as ``VisitScanCoprocessor.run``
    builds them (the stream sorts itself), with a pre-seeded attribute
    table (no filter, no lazy decode needed)."""
    return [
        TopKPartialStream(
            region_id=region_id,
            aggregates=PartialAggregates.from_rows(
                (pid, _ordered_sum(grades), len(grades), None)
                for pid, grades in visits.items()
            ),
            poi_attrs={pid: ("p%d" % pid, 0.0, 0.0, ()) for pid in visits},
            top_k=k,
            hotness=hotness,
            batch=batch,
        )
        for region_id, visits in enumerate(regions)
    ]


def _ordered_sum(grades):
    """Left-to-right float fold, the region scan's addition order."""
    total = 0.0
    for grade in grades:
        total += grade
    return total


def brute_force(regions, k, hotness):
    """Fold every region's exact aggregate in ascending region order —
    the exhaustive web-tier merge — then rank with the documented key."""
    merged = {}
    for visits in regions:  # list index == region_id == ascending order
        for pid, grades in visits.items():
            gs, cnt = _ordered_sum(grades), len(grades)
            entry = merged.get(pid)
            if entry is None:
                merged[pid] = [gs, cnt]
            else:
                entry[0] += gs
                entry[1] += cnt
    scored = [
        (
            float(cnt) if hotness else gs / cnt,  # score
            cnt,
            pid,
        )
        for pid, (gs, cnt) in merged.items()
    ]
    scored.sort(key=lambda row: (-row[0], -row[1], row[2]))
    return merged, scored[:k]


def ranked_candidates(merged_six_tuples, k, hotness):
    scored = [
        (float(cnt) if hotness else gs / cnt, cnt, pid)
        for pid, gs, cnt, _name, _lat, _lon in merged_six_tuples
    ]
    scored.sort(key=lambda row: (-row[0], -row[1], row[2]))
    return scored[:k]


@settings(max_examples=120, deadline=None)
@given(
    regions=REGIONS,
    k=st.integers(min_value=1, max_value=8),
    hotness=st.booleans(),
    batch=st.integers(min_value=1, max_value=6),
)
def test_pruned_ranking_equals_bruteforce(regions, k, hotness, batch):
    """Invariant 1: bit-exact equality against fold-everything."""
    streams = build_streams(regions, k, hotness, batch)
    merged, stats = TopKMerger(k=k, hotness=hotness).merge(streams)
    brute_merged, brute_top = brute_force(regions, k, hotness)
    assert ranked_candidates(merged, k, hotness) == brute_top
    # Candidate aggregates are the exact global fold, bit for bit.
    for pid, gs, cnt, _n, _la, _lo in merged:
        assert (gs, cnt) == tuple(brute_merged[pid])
    assert stats["cells_avoided"] == sum(s.remaining for s in streams)


@settings(max_examples=80, deadline=None)
@given(
    regions=REGIONS,
    k=st.integers(min_value=1, max_value=8),
    hotness=st.booleans(),
    batch=st.integers(min_value=1, max_value=4),
)
def test_frontier_monotone_nonincreasing(regions, k, hotness, batch):
    """Invariant 2: a region's bound never rises as it emits."""
    for stream in build_streams(regions, k, hotness, batch):
        previous = None
        while True:
            frontier = stream.frontier()
            if frontier is None:
                break
            if previous is not None:
                assert frontier <= previous
            previous = frontier
            if not stream.next_batch() and stream.finished:
                break


#: Folded over three regions, this POI's global mean is one ulp above
#: its (identical) local means.
_ULP_GRADES = [0.0, 1.1155929275876302, 1.3349584401553218, 2.9479688642095887]


@settings(max_examples=120, deadline=None)
@given(
    regions=REGIONS,
    k=st.integers(min_value=1, max_value=6),
    hotness=st.booleans(),
    batch=st.integers(min_value=1, max_value=4),
)
# POI 3 ties the k-th score exactly while every region still holding it
# shows a frontier one ulp below: the bound needs its float slack.
@example(
    regions=[
        {1: [2.0], 6: [2.0]},
        {2: _ULP_GRADES, 3: _ULP_GRADES, 7: [2.0]},
        {2: _ULP_GRADES, 5: [2.0], 3: _ULP_GRADES},
        {4: [2.0], 2: _ULP_GRADES, 3: _ULP_GRADES},
    ],
    k=6, hotness=False, batch=1,
)
def test_threshold_never_prunes_a_topk_member(regions, k, hotness, batch):
    """Invariant 3: brute-force top-k ⊆ candidates, and everything left
    undiscovered scores strictly below the final threshold."""
    streams = build_streams(regions, k, hotness, batch)
    merged, stats = TopKMerger(k=k, hotness=hotness).merge(streams)
    brute_merged, brute_top = brute_force(regions, k, hotness)
    # The returned rows are exactly the true top k (the merger trims
    # with the ranker's total key before its final attribute fetch).
    assert {pid for pid, *_rest in merged} == {
        pid for _s, _c, pid in brute_top
    }
    # Discovery = emission: everything a cursor passed was a candidate
    # (no filters here), so the union of emitted prefixes is the
    # merger's candidate set.
    discovered = {
        pid
        for s in streams
        for _key, pid, _gs, _cnt in s.items[: s.cursor]
    }
    assert {pid for _s, _c, pid in brute_top} <= discovered
    threshold = stats["threshold"]
    if threshold is None:
        # Fewer than k candidates exist globally: nothing may be pruned.
        assert discovered == set(brute_merged)
        assert stats["pruned_regions"] == 0
    else:
        for pid, (gs, cnt) in brute_merged.items():
            if pid not in discovered:
                score = float(cnt) if hotness else gs / cnt
                assert score < threshold
    # Proof-pruned streams really were short-circuited via their token.
    for stream in streams:
        if stream.pruned:
            assert stream.prune_token.cancelled
            assert stream.prune_token.reason == "topk_proof"


@settings(max_examples=120, deadline=None)
@given(
    regions=TIE_REGIONS,
    k=st.integers(min_value=1, max_value=5),
    hotness=st.booleans(),
    batch=st.integers(min_value=1, max_value=3),
)
def test_ties_at_kth_resolve_identically(regions, k, hotness, batch):
    """Invariant 4: tie-heavy distributions rank identically pruned vs
    exhaustive — the stable key leaves no room for divergence."""
    streams = build_streams(regions, k, hotness, batch)
    merged, _stats = TopKMerger(k=k, hotness=hotness).merge(streams)
    _brute_merged, brute_top = brute_force(regions, k, hotness)
    assert ranked_candidates(merged, k, hotness) == brute_top


@settings(max_examples=60, deadline=None)
@given(
    regions=REGIONS,
    k=st.integers(min_value=1, max_value=6),
    hotness=st.booleans(),
)
def test_stream_merge_endpoint_matches_merger(regions, k, hotness):
    """The coprocessor's ``stream_merge`` hook is the merger, not a
    divergent re-implementation."""
    streams_a = build_streams(regions, k, hotness, batch=4)
    streams_b = build_streams(regions, k, hotness, batch=4)
    via_endpoint, _ = VisitScanCoprocessor().stream_merge(streams_a)
    via_merger, _ = TopKMerger(k=k, hotness=hotness).merge(streams_b)
    assert sorted(via_endpoint) == sorted(via_merger)
