import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqedkit.cli import main
from cqedkit.studio import EXPECTED_EPR_GAPS_PERCENT

CONFIG = str(Path(__file__).resolve().parent.parent / "designs" / "qubit_v1.json")


def test_derive_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["derive", "--config", CONFIG, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["provenance"]["tool"] == "cqedkit"
    assert capsys.readouterr().out == f"report: {out}\n"


def test_derive_missing_config_is_validation_error(tmp_path, capsys):
    code = main(["derive", "--config", str(tmp_path / "nope.json"), "--out", "x.json"])
    assert code == 1


@pytest.mark.parametrize(
    "field,value",
    [("geometry", "abc"), ("geometry", [1]), ("c_s_farad", True)],
)
def test_derive_rejects_mistyped_design_field(tmp_path, capsys, field, value):
    design = json.loads(Path(CONFIG).read_text())
    design[field] = value
    config = tmp_path / "design.json"
    config.write_text(json.dumps(design))
    code = main(["derive", "--config", str(config), "--out", str(tmp_path / "r.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be ")
    assert err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; importing it would cost every CLI
    # start-up a few hundred milliseconds. Sweeps run sequentially, so
    # concurrent.futures (about 10 ms) has no business loading either.
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys, cqedkit; "
        "print(cqedkit.__file__); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
        "print(sorted(m for m in sys.modules if m.startswith('concurrent.futures')))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    module_file, scipy_modules, futures_modules = result.stdout.splitlines()
    assert Path(module_file).is_relative_to(src)
    assert scipy_modules == "[]"
    assert futures_modules == "[]"


def _write_design(path, **overrides):
    design = json.loads(Path(CONFIG).read_text())
    design.update(overrides)
    path.write_text(json.dumps(design))
    return str(path)


@pytest.mark.parametrize(
    "field,value,stage",
    [
        ("c_k_farad", 1e200, "quality factor"),
        ("l_j_henry", 1e-300, "lumped extraction"),
        ("f_r_target_hertz", 1e300, "lumped extraction"),
    ],
)
def test_derive_float_overflow_is_numerical_failure(tmp_path, capsys, field, value, stage):
    config = _write_design(tmp_path / "design.json", **{field: value})
    code = main(["derive", "--config", config, "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ")
    assert f": {stage}: " in err
    assert err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


_NUMERIC_FIELDS = (
    "c_s_farad",
    "c_g_farad",
    "c_k_farad",
    "l_j_henry",
    "f_r_target_hertz",
    "z_0_ohm",
    "r_load_ohm",
)
_LOG_UNIFORM = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)
_NOT_A_NUMBER = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    numbers=st.dictionaries(
        st.sampled_from(_NUMERIC_FIELDS), _LOG_UNIFORM, min_size=1, max_size=3
    ),
    junk=st.one_of(
        st.none(), st.tuples(st.sampled_from(_NUMERIC_FIELDS + ("geometry",)), _NOT_A_NUMBER)
    ),
)
def test_derive_any_design_file_exits_cleanly(fuzz_dir, numbers, junk):
    # every design file ends in exit 0, 1 or 2, never a traceback
    overrides = dict(numbers)
    if junk is not None:
        overrides[junk[0]] = junk[1]
    config = _write_design(fuzz_dir / "design.json", **overrides)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["derive", "--config", config, "--out", str(fuzz_dir / "r.json")])
    assert code in (0, 1, 2)
    if code != 0:
        last = err.getvalue().splitlines()[-1]
        assert last.startswith(("error: ", "numerical failure: ")), last


def test_usage_error_maps_to_validation_exit(capsys):
    assert main(["derive", "--config"]) == 1
    assert main(["bogus-command"]) == 1


def test_s21_single_state(tmp_path):
    out = tmp_path / "curve.csv"
    code = main([
        "s21", "--config", CONFIG, "--state", "ground",
        "--span-hz", "2e7", "--points", "101", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "frequency_hz,re_s21,im_s21,abs_s21"
    assert len(lines) == 102


def test_s21_both_states(tmp_path):
    out = tmp_path / "curve.csv"
    code = main([
        "s21", "--config", CONFIG, "--state", "both",
        "--span-hz", "2e7", "--points", "51", "--out", str(out),
    ])
    assert code == 0
    assert (tmp_path / "curve.ground.csv").exists()
    assert (tmp_path / "curve.excited.csv").exists()


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--config", CONFIG, "--param", "c_g_farad",
        "--from", "2e-15", "--to", "8e-15", "--steps", "4",
        "--emit", "g_01_hz,chi_total_hz", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "c_g_farad,g_01_hz,chi_total_hz,status,error"
    assert len(lines) == 5
    assert all(line.split(",")[3] == "ok" for line in lines[1:])


def test_sweep_marks_overflowing_rows_and_continues(tmp_path):
    # the coupler's Norton equivalent overflows above c_k ~ 1e142 F
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--config", CONFIG, "--param", "c_k_farad",
        "--from", "1e-15", "--to", "1e200", "--steps", "3",
        "--emit", "q_ext", "--out", str(out),
    ])
    assert code == 0
    rows = [line.split(",", 3) for line in out.read_text().splitlines()[1:]]
    assert [row[2] for row in rows] == ["ok", "error", "error"]
    assert all("OverflowError: quality factor: " in row[3] for row in rows[1:])


def test_sweep_has_no_workers_option(tmp_path, capsys):
    code = main([
        "sweep", "--config", CONFIG, "--param", "c_g_farad",
        "--from", "2e-15", "--to", "8e-15", "--steps", "4",
        "--emit", "g_01_hz", "--workers", "2", "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unrecognized arguments: --workers 2")
    assert err.count("\n") == 1


def test_sweep_rejects_unknown_quantity(tmp_path):
    code = main([
        "sweep", "--config", CONFIG, "--param", "c_g_farad",
        "--from", "2e-15", "--to", "8e-15", "--steps", "4",
        "--emit", "bogus", "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 1


def test_tune_report(tmp_path):
    out = tmp_path / "tuned.json"
    code = main([
        "tune", "--config", CONFIG, "--vary", "l_j_henry",
        "--target", "f_01_hz=4.55e9", "--bracket", "8e-9,14e-9",
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["tuned"]["parameter"] == "l_j_henry"
    assert abs(report["tuned"]["parameter_value"] - 11e-9) / 11e-9 < 0.01
    assert report["tuned"]["relative_error"] <= 1e-6


def test_tune_bad_bracket_is_numerical_failure(tmp_path, capsys):
    code = main([
        "tune", "--config", CONFIG, "--vary", "l_j_henry",
        "--target", "f_01_hz=9.9e9", "--bracket", "8e-9,14e-9",
        "--out", str(tmp_path / "t.json"),
    ])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_tune_malformed_target(tmp_path):
    code = main([
        "tune", "--config", CONFIG, "--vary", "l_j_henry",
        "--target", "f_01_hz:4.55e9", "--bracket", "8e-9,14e-9",
        "--out", str(tmp_path / "t.json"),
    ])
    assert code == 1


def test_compare_reports_gap_table(capsys, monkeypatch):
    code = main(["compare", "--config", CONFIG])
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split()[:3] == ["quantity", "analytic", "reference"]
    assert len(lines) == 5
    assert [line.split()[-1] for line in lines[1:]] == ["yes"] * 4
    assert code == 0
    # against the paper's printed 4.9% chi gap the chain's 3.1% misses,
    # so the gate reports failure
    monkeypatch.setitem(EXPECTED_EPR_GAPS_PERCENT, "chi", 4.9)
    code = main(["compare", "--config", CONFIG])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[-1] for line in lines[1:]] == ["yes", "yes", "yes", "NO"]
    assert code == 1
