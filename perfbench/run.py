"""Run one workload of the bagdesc benchmark and print its metrics.

    python3 perfbench/run.py --workload train|eval|gen --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`. BLAS is pinned to one thread before numpy is imported, and the run
refuses to report when numpy was imported first. The last line of standard
output is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).
"""

import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    if "numpy" in sys.modules:
        print("error: numpy was imported before the BLAS thread pin; refusing to report",
              file=sys.stderr)
        return 2
    inherited = {var: os.environ.get(var) for var in THREAD_VARS}
    for var in THREAD_VARS:
        os.environ[var] = "1"
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    if not (src / "bagdesc" / "__init__.py").is_file():
        print(f"error: no bagdesc sources under {src}", file=sys.stderr)
        return 2
    import numpy  # noqa: F401  (the installed library, with its own bytecode)

    # Every module imported from here on (the program, the benchmark and the
    # standard modules numpy did not load) is compiled from source in every
    # process: the bytecode prefix names a directory that does not exist, so
    # no cache is read, and none is written. Set-up time then does not depend
    # on the bytecode an earlier run or test left behind.
    sys.pycache_prefix = str(here.parent / ".bench_work" / f"no-bytecode-{os.getpid()}")
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(here)]
    import bench

    return bench.main(sys.argv[1:], inherited=inherited)


if __name__ == "__main__":
    sys.exit(main())
