"""Entry point: ``python3 -m benchmarks.e2e`` from the repository root.

The benchmark command cannot set ``PYTHONPATH``, so the program's
``src`` directory is put on ``sys.path`` here, relative to this file.
"""

import os
import sys

from . import REPO_ROOT

_SRC = os.path.join(REPO_ROOT, "src")
if not os.path.isdir(_SRC):
    sys.exit("benchmarks.e2e: the program's source (%s) is missing" % _SRC)
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from .harness import main  # noqa: E402 - needs the path set up above

if __name__ == "__main__":
    sys.exit(main())
