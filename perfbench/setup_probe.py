"""Time one workload's set-up in a fresh process.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Set-up is importing fourierprg, constructing the workload's generators and
running one warm-up batch, so lazy tables, next_prime searches and any work
moved to import time all count. numpy is imported first and not timed. The
seconds are printed as the last line.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    name, seed = argv[1], int(argv[2])
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (every process pays this before the package)

    t0 = time.perf_counter()
    import fourierprg  # noqa: F401
    import_s = time.perf_counter() - t0
    import workloads

    w = workloads.make(name, seed, ROOT)
    t1 = time.perf_counter()
    w.setup()
    print(repr(import_s + time.perf_counter() - t1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
