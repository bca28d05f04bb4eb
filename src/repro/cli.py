"""Command-line interface: quick reproductions without pytest.

``python -m repro <command>`` supports:

- ``describe`` — stand up a platform and print its deployment summary;
- ``figure2`` — a reduced Figure 2 sweep (latency vs friends);
- ``figure4`` — a reduced Figure 4 sweep (accuracy vs training size);
- ``classify TEXT ...`` — train the sentiment pipeline and score text;
- ``stem WORD ...`` — run the Porter stemmer.

The full, assertion-checked reproductions live in ``benchmarks/``; the
CLI trades fidelity for a seconds-long turnaround.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import List, Optional

from .config import ClusterConfig, PlatformConfig, SentimentConfig


def _print_table(title: str, header, rows) -> None:
    cells = [list(map(str, header))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    print("\n=== %s ===" % title)
    for i, row in enumerate(cells):
        print("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if i == 0:
            print("  ".join("-" * w for w in widths))


def cmd_describe(args) -> int:
    from .core import MoDisSENSE
    from .datagen import generate_pois

    platform = MoDisSENSE(PlatformConfig.paper(args.nodes))
    platform.load_pois(generate_pois(count=args.pois, seed=2015))
    print(json.dumps(platform.describe(), indent=2, sort_keys=True))
    platform.shutdown()
    return 0


def cmd_figure2(args) -> int:
    import dataclasses
    import random

    from .cluster import ClusterSimulation, Task
    from .core import MoDisSENSE, SearchQuery
    from .datagen import generate_pois, generate_visits

    users = args.users
    platform = MoDisSENSE(PlatformConfig(cluster=ClusterConfig(
        num_nodes=16, regions_per_table=32, cost_per_record_us=175.0
    )))
    pois = generate_pois(count=2000, seed=2015)
    platform.load_pois(pois)
    platform.load_visits(
        generate_visits(range(1, users + 1), pois, seed=2015,
                        mean=17.0, std=10.1)
    )

    friend_counts = [f for f in (500, 2000, 3500, 5000) if f < users]
    rng = random.Random(7)
    rows = []
    qa = platform.query_answering
    for friends in friend_counts:
        ids = tuple(rng.sample(range(1, users + 1), friends))
        # The paper's mechanism is a request on the production stack: a
        # cold scan cache and a drained (exhaustive) merge.
        platform.scan_cache.clear()
        routed = qa._route_query(SearchQuery(friend_ids=ids))
        call = platform.hbase.coprocessor_exec_routed(
            "visits",
            qa._coprocessor,
            [{
                region: dataclasses.replace(request, topk_batch=0)
                for region, request in routed.items()
            }],
        )[0]
        row = [friends]
        for nodes in (4, 8, 16):
            sim = ClusterSimulation(
                ClusterConfig(num_nodes=nodes, regions_per_table=32,
                              cost_per_record_us=175.0)
            )
            sim.place_regions(sorted(call.per_region_records))
            tasks = [
                Task(region_id=r, records_scanned=c,
                     results_returned=call.per_region_results.get(r, 0))
                for r, c in sorted(call.per_region_records.items())
            ]
            row.append("%.0f" % sim.run_query(tasks).latency_ms)
        rows.append(row)
    _print_table(
        "Figure 2 (quick): query latency (ms) vs friends",
        ["friends", "4 nodes", "8 nodes", "16 nodes"],
        rows,
    )
    platform.shutdown()
    return 0


def cmd_figure4(args) -> int:
    from .datagen import ReviewGenerator
    from .text import SentimentPipeline

    capacity = args.documents
    gen = ReviewGenerator(seed=2015, capacity=capacity,
                          noise_onset=0.05, max_noise=0.30)
    corpus = gen.labeled_texts(capacity)
    sizes = [capacity // 8, capacity // 4, capacity // 2, capacity]
    rows = []
    for size in sizes:
        train = corpus[:size]
        base = SentimentPipeline(SentimentConfig.baseline())
        opt = SentimentPipeline(SentimentConfig.optimized())
        base_acc = base.train(train).training_accuracy
        opt_acc = opt.train(train).training_accuracy
        rows.append([size, "%.1f%%" % (100 * base_acc),
                     "%.1f%%" % (100 * opt_acc)])
    _print_table(
        "Figure 4 (quick): training accuracy vs training size",
        ["documents", "baseline", "optimized"],
        rows,
    )
    return 0


def cmd_classify(args) -> int:
    from .datagen import ReviewGenerator
    from .text import SentimentPipeline

    pipeline = SentimentPipeline(SentimentConfig.optimized())
    pipeline.train(
        ReviewGenerator(seed=2015, capacity=8000,
                        noise_onset=0.5, max_noise=0.2).labeled_texts(3000)
    )
    for text in args.text:
        score = pipeline.score(text)
        label = "positive" if score >= 0.5 else "negative"
        print("%.3f  %-8s  %s" % (score, label, text))
    return 0


def cmd_stem(args) -> int:
    from .text import porter_stem

    for word in args.word:
        print("%s -> %s" % (word, porter_stem(word.lower())))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MoDisSENSE reproduction utilities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="print a deployment summary")
    p.add_argument("--nodes", type=int, default=16, choices=(4, 8, 16))
    p.add_argument("--pois", type=int, default=1000)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("figure2", help="quick Figure 2 sweep")
    p.add_argument("--users", type=int, default=4000)
    p.set_defaults(func=cmd_figure2)

    p = sub.add_parser("figure4", help="quick Figure 4 sweep")
    p.add_argument("--documents", type=int, default=8000)
    p.set_defaults(func=cmd_figure4)

    p = sub.add_parser("classify", help="score text with the classifier")
    p.add_argument("text", nargs="+")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("stem", help="Porter-stem words")
    p.add_argument("word", nargs="+")
    p.set_defaults(func=cmd_stem)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
