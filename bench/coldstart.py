"""One fresh-interpreter start behind ``setup_s``.

    python3 bench/coldstart.py <workload> <seed> <design.json> <out_dir>

Imports cqedkit, loads the design file and runs the workload's first op for
that seed, then prints one JSON line: ``done`` is ``time.monotonic()`` when
the op has returned, and ``excluded_s`` is the time spent drawing the
benchmark's own inputs, which the caller subtracts.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cqedkit as ck  # noqa: E402

import dataclasses  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402


def main() -> None:
    name, seed, design_path, out_dir = sys.argv[1:5]
    start = time.monotonic()
    import workloads

    workload = workloads.WORKLOADS[name]
    item = next(workload.items(int(seed), Path(out_dir)))
    excluded = time.monotonic() - start
    item = dataclasses.replace(item, design=ck.load_design(design_path))
    warnings.simplefilter("ignore")
    workload.op(item)
    print(json.dumps({"done": time.monotonic(), "excluded_s": excluded}))


if __name__ == "__main__":
    main()
