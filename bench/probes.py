"""Fresh-process measurements and the run record.

Each probe starts a new interpreter, waits for it to exit and takes the
median of several starts: single cold starts spread by about 25 %.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np
import scipy

import cqedkit as ck

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PROBE_TIMEOUT_S = 60


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _run(cmd: list[str]) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
    )


class SetupProbe:
    """Fresh interpreter -> import cqedkit, load the design file, first op done.

    Each ``start`` times one such start. One start made on construction is
    dropped: it compiles bytecode and fills the file cache, which a user's
    repeated CLI calls find done.
    """

    def __init__(self, workload: str, seed: int, out_dir: Path) -> None:
        first = next(wl.WORKLOADS[workload].items(seed, out_dir))
        design_path = out_dir / "setup_design.json"
        design_path.write_text(json.dumps(ck.design_to_dict(first.design)), encoding="utf-8")
        self._cmd = [
            sys.executable, str(BENCH / "coldstart.py"), workload, str(seed), str(design_path), str(out_dir)
        ]
        self.samples: list[float] = []
        self.start()
        self.samples.clear()

    def start(self) -> None:
        launched = time.monotonic()
        reply = json.loads(_run(self._cmd).stdout.splitlines()[-1])
        self.samples.append(reply["done"] - launched - reply["excluded_s"])


def cli_derive_seconds(out_dir: Path, starts: int) -> list[float]:
    """Wall time of ``python -m cqedkit.cli derive`` on qubit_v1, launch to exit."""
    cmd = [
        sys.executable, "-m", "cqedkit.cli", "derive",
        "--config", str(wl.BASE_DESIGN_PATH), "--out", str(out_dir / "cold_report.json"),
    ]
    samples = []
    for _ in range(starts + 1):
        launched = time.monotonic()
        _run(cmd)
        samples.append(time.monotonic() - launched)
    return samples[1:]


_IMPORT_LINE = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|( *)(\S+)")


def _scipy_cumulative_us(lines: list[tuple[int, int, str]]) -> int:
    """Cumulative time of the outermost scipy imports, including what scipy pulls in.

    ``-X importtime`` prints a module after everything it imported, so a
    line's parent is the next line that is less indented.
    """
    total = 0
    for i, (cumulative, depth, name) in enumerate(lines):
        if name.split(".")[0] != "scipy":
            continue
        parent = next((n for _, d, n in lines[i + 1 :] if d < depth), "")
        if parent.split(".")[0] != "scipy":
            total += cumulative
    return total


def import_seconds(starts: int) -> dict[str, float]:
    """Median ``-X importtime`` figures for ``import cqedkit`` and, within it, scipy."""
    cqedkit_s, scipy_s = [], []
    for _ in range(starts):
        stderr = _run([sys.executable, "-X", "importtime", "-c", "import cqedkit"]).stderr
        lines = [
            (int(m[1]), len(m[2]), m[3]) for m in map(_IMPORT_LINE.match, stderr.splitlines()) if m
        ]
        cqedkit_s += [cumulative / 1e6 for cumulative, _, name in lines if name == "cqedkit"]
        scipy_s.append(_scipy_cumulative_us(lines) / 1e6)
    return {"cqedkit": statistics.median(cqedkit_s), "scipy": statistics.median(scipy_s)}


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_record(workload: str, seed: int, seconds: int, trace: bool) -> dict[str, Any]:
    sources = sorted(SRC.rglob("*.py"))
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cqedkit": ck.__version__,
        "commit": _git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources),
    }
