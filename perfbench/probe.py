"""Set-up probe: a fresh interpreter that imports chanleak and builds one
workload's pass-0 channels through the library.

Usage: python3 perfbench/probe.py SRC_DIR WORKLOAD SEED WORKDIR

Once ready it prints one JSON line, ``{"generation_s": ...}``: the time it
spent generating the benchmark's own inputs, which the caller subtracts
from the time between spawning this process and reading that line.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    src, name, seed, workdir = sys.argv[1:5]
    sys.path.insert(0, src)
    import chanleak

    start = time.perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.inputs(int(seed), 0, Path(workdir))
    generation = time.perf_counter() - start
    workload.build(chanleak, inputs)
    print(json.dumps({"generation_s": generation}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
