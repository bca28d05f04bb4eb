"""A full simulated day of platform operation.

Drives the periodic pipeline the paper describes — Data Collection every
15 minutes, HotIn Update and Event Detection every hour — with the
deterministic scheduler, while users keep checking in and a crowd event
builds up downtown.  At the end of the day: trending reflects the crowd,
the event was auto-registered as a POI, and the platform's metrics show
what the query tier served.

Run with::

    python examples/platform_day.py
"""

from __future__ import annotations

import random

from repro import MoDisSENSE, SearchQuery, TrendingQuery
from repro.config import PlatformConfig
from repro.core.scheduler import build_platform_scheduler
from repro.datagen import ReviewGenerator, generate_pois
from repro.datagen.gps import GPSPoint
from repro.geo.distance import offset_point_m
from repro.social import CheckIn, FriendInfo

DAY0 = 1_433_030_400  # 2015-05-31 00:00 UTC
HOUR = 3600


def main() -> None:
    # Long-lived OAuth tokens (the mobile app's "offline access" grant):
    # the periodic pipeline must survive a day without re-login.
    from repro.social import NETWORK_FACEBOOK, OAuthProvider, SimulatedNetwork

    facebook_net = SimulatedNetwork(
        NETWORK_FACEBOOK,
        oauth=OAuthProvider(NETWORK_FACEBOOK, token_ttl_s=48 * HOUR),
    )
    # The paper's own pipeline (batch HotIn Update, no streaming tier):
    # the baseline profile on the small cluster shape.
    platform = MoDisSENSE(
        PlatformConfig.baseline(PlatformConfig.small().cluster),
        plugins={NETWORK_FACEBOOK: facebook_net},
    )
    pois = generate_pois(count=600, seed=70)
    platform.load_pois(pois)
    platform.text_processing.train(
        ReviewGenerator(seed=71, capacity=4000).labeled_texts(1500)
    )

    facebook = platform.plugins["facebook"]
    facebook.add_profile(FriendInfo("fb_1", "Our user", "pic"))
    for i in range(2, 26):
        facebook.add_profile(FriendInfo("fb_%d" % i, "Friend %d" % i, "pic"))
        facebook.add_friendship("fb_1", "fb_%d" % i)
    platform.register_user("facebook", "fb_1", "pw", now=float(DAY0))

    # The paper's periodic jobs (periods: repro.core.scheduler).
    scheduler = build_platform_scheduler(platform, start_at=float(DAY0))

    rng = random.Random(72)
    athens_pois = [p for p in pois if p.city == "Athens"]
    # An unknown gathering spot ~1 km from the center.
    event_lat, event_lon = offset_point_m(37.9838, 23.7275, 800.0, 600.0)

    print("Simulating 2015-05-31, hour by hour...")
    for hour in range(24):
        now = DAY0 + hour * HOUR
        # Friends check in during waking hours.
        if 8 <= hour <= 23:
            for _ in range(rng.randint(2, 5)):
                friend = rng.randint(2, 25)
                poi = rng.choice(athens_pois)
                facebook.add_checkin(
                    CheckIn("fb_%d" % friend, poi.poi_id, poi.lat, poi.lon,
                            now + rng.randint(0, HOUR - 1),
                            "lovely wonderful place"
                            if rng.random() < 0.7 else "noisy crowded"))
        # From 19:00 a crowd converges on the unknown spot.
        if 19 <= hour <= 22:
            for _ in range(40):
                north, east = rng.gauss(0, 20.0), rng.gauss(0, 20.0)
                lat, lon = offset_point_m(event_lat, event_lon, north, east)
                platform.push_gps([
                    GPSPoint(rng.randint(1, 25), lat, lon,
                             now + rng.randint(0, HOUR - 1))
                ])
        # Advance simulated time; due periodic jobs fire.
        scheduler.advance_to(float(now + HOUR))
        # Our user searches a few times a day.
        if hour in (9, 13, 20):
            platform.search(
                SearchQuery(friend_ids=tuple(range(2, 26)),
                            sort_by="interest", limit=5)
            )

    print("\nPeriodic job activity:")
    for name in ("data_collection", "hotin_update", "event_detection"):
        job = scheduler.job(name)
        print("  %-16s fired %2d times" % (name, job.fire_count))

    detected = [p for p in platform.poi_repository.all_pois() if p.auto_detected]
    print("\nAuto-detected POIs: %d" % len(detected))
    for poi in detected:
        print("  %-22s crowd %d at (%.4f, %.4f)"
              % (poi.name, int(poi.hotness), poi.lat, poi.lon))

    trending = platform.trending_events(
        TrendingQuery(now=DAY0 + 24 * HOUR, window_s=6 * HOUR,
                      friend_ids=tuple(range(2, 26)), limit=3)
    )
    print("\nTrending tonight (friends, last 6h):")
    for poi in trending.pois:
        print("  %-30s %d visits" % (poi.name, int(poi.score)))

    print("\nQuery-tier metrics:")
    snap = platform.metrics.snapshot()
    print("  personalized queries: %d"
          % snap["counters"]["queries.personalized"])
    lat = snap["latencies"]["query.personalized"]
    print("  latency mean %.1f ms, p95 %.1f ms"
          % (lat["mean_ms"], lat["p95_ms"]))

    platform.shutdown()


if __name__ == "__main__":
    main()
