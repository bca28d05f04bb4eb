"""The repo's one end-to-end benchmark (see README.md in this directory).

Run as ``python3 -m benchmarks.e2e --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``BENCHMARK.json`` at the root
is the machine-readable contract, ``metrics.py`` its source.
"""

import os

#: The checkout this package sits in (``<root>/benchmarks/e2e``).
REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
