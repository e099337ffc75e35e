"""Set-up probe: one fresh interpreter, from start to the first unit.

``run.py`` starts this program and times it from the spawn until it
writes ``ready`` on its standard output, which it does where the
workload's first unit would start: after importing the package, and
for ``fig8-pool`` after hashing the result cache's code token and
forking the worker pool (the first worker writes it).

Usage: ``python3 perfbench/setup_probe.py <workload> <tmp-dir>``
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def ready() -> None:
    """Announce that the first unit is starting (unbuffered, fork-safe)."""
    os.write(1, b"ready\n")


if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].probe(ready, sys.argv[2])
