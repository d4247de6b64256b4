"""Write ``bench/golden.json``: default-seed outputs of the code in ``src/``.

    python3 bench/record_golden.py

Run once, at the commit whose numbers the benchmark must keep; the benchmark
then compares every run against this record.
"""

import json
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402

if __name__ == "__main__":
    warnings.simplefilter("ignore")
    out = checks.GOLDEN_PATH.parent / "out" / "probes"
    out.mkdir(parents=True, exist_ok=True)
    snapshot = checks.golden_snapshot(out)
    checks.GOLDEN_PATH.write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {checks.GOLDEN_PATH}")
