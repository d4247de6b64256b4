"""The traced benchmark path of each workload, in-process and short.

A traced run wraps every name in ``bench/tracing.py`` ``LAYERS`` and divides
by call counts from the traced ops or the census, so a renamed function or a
count that drops to 0 would first show up in a traced benchmark run.
"""

import math
import sys
import warnings
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import probes  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 3
SECONDS = 0.2  # op time of each loop


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_run_gives_every_layer_metric(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(probes, "import_seconds", lambda starts: {"cqedkit": 0.1, "scipy": 0.1})
    monkeypatch.setattr(probes, "cli_derive_seconds", lambda out_dir, starts: [0.2])
    for workload_name in wl.WORKLOADS:
        (tmp_path / workload_name).mkdir()
    workload = wl.WORKLOADS[name]
    tracer = tracing.Tracer()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        problems, census_counts = run.census(SEED)
        untraced = run.closed_loop(workload, SEED, SECONDS)
        tracer.install()
        try:
            with tracer.counting_warnings():
                problems += run.census(SEED, tracer)[0]
                tracer.warnings.clear()
                traced = run.closed_loop(workload, SEED, SECONDS, tracer)
        finally:
            tracer.uninstall()
    metrics, _ = run.layer_metrics(tracer, traced, untraced, census_counts)
    assert problems + untraced.problems + traced.problems == []
    assert untraced.failed == traced.failed == 0
    assert metrics.keys() == run.PER_LAYER.keys()
    assert all(math.isfinite(value) for value in metrics.values()), metrics
