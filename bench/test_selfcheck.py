"""Self-tests for the benchmark: seeded inputs repeat, every output check
catches a corrupted value, and the tracer sees calls made inside cqedkit.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import warnings
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import cqedkit as ck  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def _first(name: str, out: Path, n: int = 1, seed: int = 1) -> list:
    return list(islice(wl.WORKLOADS[name].items(seed, out), n))


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    assert _first(name, tmp_path, 30, seed=7) == _first(name, tmp_path, 30, seed=7)
    assert _first(name, tmp_path, 30, seed=7) != _first(name, tmp_path, 30, seed=8)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_checks_pass_on_real_outputs(name, tmp_path):
    workload = wl.WORKLOADS[name]
    for item in _first(name, tmp_path, 3):
        assert checks.CHECKS[name](item, workload.op(item), Counter()) == []


def _batch_output(tmp_path):
    item = next(i for i in _first("design_batch", tmp_path, 20) if ck.derive(i.design).chi_exact_hz)
    return item, wl.batch_op(item)


def _replace(derived, record: str, **changes):
    return dataclasses.replace(derived, **{record: dataclasses.replace(getattr(derived, record), **changes)})


def test_perturbed_chi_exact_is_caught(tmp_path):
    item, (derived, text) = _batch_output(tmp_path)
    bad = dataclasses.replace(derived, chi_exact_hz=derived.chi_exact_hz * (1 + 1e-6))
    problems = checks.check_batch(item, (bad, text), Counter())
    assert any("block oracle" in p for p in problems)


def test_perturbed_closed_forms_are_caught(tmp_path):
    _, (derived, _) = _batch_output(tmp_path)
    c = derived.coupling
    assert checks.identity_problems(_replace(derived, "coupling", kappa_hz=c.kappa_hz * (1 + 1e-9)))
    assert checks.identity_problems(_replace(derived, "coupling", chi_total_hz=c.chi_total_hz * 1.001))
    f_01 = derived.transmon_perturbative.f_01_hz
    assert checks.identity_problems(_replace(derived, "transmon_perturbative", f_01_hz=f_01 + 1.0))


def test_perturbed_exact_spectrum_is_caught(tmp_path):
    _, (derived, _) = _batch_output(tmp_path)
    f_01 = derived.transmon_exact.f_01_exact_hz
    assert checks.mathieu_problems(_replace(derived, "transmon_exact", f_01_exact_hz=f_01 * (1 + 1e-7)))


def test_flipped_report_digit_is_caught(tmp_path):
    item, (derived, text) = _batch_output(tmp_path)
    shown = f"{derived.coupling.g_01_hz:.9g}"
    flipped = shown[:-1] + str((int(shown[-1]) + 1) % 10)
    bad = text.replace(f'"g_01_hz": {shown}', f'"g_01_hz": {flipped}')
    assert bad != text
    assert checks.report_problems(derived, bad)


def test_flipped_csv_digit_is_caught(tmp_path):
    item = _first("readout", tmp_path)[0]
    _, ground, _, _ = wl.readout_op(item)
    assert checks.csv_problems(item.ground_csv, ground) == []
    lines = item.ground_csv.read_text().split("\n")
    row = lines[1000].split(",")
    row[1] = row[1][:-4] + str((int(row[1][-4]) + 1) % 10) + row[1][-3:]  # one digit of re_s21
    lines[1000] = ",".join(row)
    item.ground_csv.write_text("\n".join(lines))
    assert checks.csv_problems(item.ground_csv, ground)


def test_bad_sweep_row_and_missed_tune_are_caught(tmp_path):
    item = _first("design_loop", tmp_path)[0]
    swept, tuned = wl.loop_op(item)
    assert checks.check_loop(item, (swept, tuned), Counter()) == []
    rows = list(swept.rows)
    rows[7] = dataclasses.replace(rows[7], outputs={}, status="error", error="DomainError: x")
    bad_sweep = dataclasses.replace(swept, rows=tuple(rows))
    assert checks.sweep_problems(item, bad_sweep)
    missed = dataclasses.replace(tuned, achieved_value=tuned.achieved_value * (1 + 1e-5))
    assert checks.tune_problems(item, swept, missed, Counter())


def test_golden_record_catches_drift(tmp_path):
    recorded = checks.load_golden()
    snapshot = checks.golden_snapshot(tmp_path)
    assert checks.golden_problems(snapshot, recorded) == []
    drifted = json.loads(json.dumps(snapshot))
    drifted["design_batch_quantities"][3]["chi_exact_hz"] *= 1 + 1e-8
    assert checks.golden_problems(drifted, recorded)
    drifted = json.loads(json.dumps(snapshot))
    drifted["readout_csv_sha256"][0][1] = "0" * 64
    assert checks.golden_problems(drifted, recorded)
    drifted = json.loads(json.dumps(snapshot))
    drifted["qubit_v1"]["g_01_hz"] *= 1.001
    assert checks.golden_problems(drifted, recorded)


def test_tracer_sees_stage_calls_inside_studio(tmp_path):
    original = ck.studio.exact_transmon_spectrum
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        with tracer.counting_warnings():
            ck.derive(ck.load_design(wl.BASE_DESIGN_PATH))
    finally:
        tracer.uninstall()
    assert ck.studio.exact_transmon_spectrum is original
    names = [span[0] for span in tracer.spans]
    assert names[0] == "studio.derive"  # spans are numbered as they open
    derive_index = 0
    spectrum = [s for s in tracer.spans if s[0] == "spectrum.exact_transmon_spectrum"]
    assert len(spectrum) == 1 and spectrum[0][2] == derive_index
    # qubit_v1 sits just inside the 10 g dispersive band: one warning, from coupling
    assert tracer.warnings == {"coupling.dispersive_validity_warnings": 1}
    summary = tracing.summarize(tracer.spans, lambda op: op == 0)
    assert all(ns >= 0 for ns in summary["self_ns"].values())


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == sorted(wl.WORKLOADS)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    shutil.copy(BENCH / "golden.json", tmp_path / "bench")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "readout", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_quantities_read_as_cqedkit_reads_them():
    derived = ck.derive(ck.load_design(wl.BASE_DESIGN_PATH))
    for name in checks.ALL_QUANTITIES:
        value = ck.studio.QUANTITIES[name](derived)
        assert checks.quantity(derived, name) == value or (math.isnan(value) and name == "chi_exact_hz")
