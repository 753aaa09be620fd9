"""Run the chanleak benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is concave-mid, closed-large, cli-battery, or all (each workload in
its own process, one after another). The program is imported from the
``src`` directory of the checkout this file sits in; the BLAS thread count
is fixed before numpy loads. See perfbench/README.md.
"""

import os
import sys
from pathlib import Path

BLAS_THREADS = 1


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "chanleak" / "__init__.py").is_file():
        print(f"error: no chanleak package under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    return harness.main()


if __name__ == "__main__":
    sys.exit(main())
