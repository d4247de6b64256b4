import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqedkit import DispersiveValidityWarning, studio
from cqedkit.cli import main
from cqedkit.lumped import MAX_GEOMETRY_DEPTH
from cqedkit.readout import MAX_S21_POINTS
from cqedkit.studio import EXPECTED_EPR_GAPS_PERCENT, MAX_SWEEP_STEPS

CONFIG = str(Path(__file__).resolve().parent.parent / "designs" / "qubit_v1.json")
DATA = Path(__file__).resolve().parent / "data"


def test_derive_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["derive", "--config", CONFIG, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["provenance"]["tool"] == "cqedkit"
    assert capsys.readouterr().out == f"report: {out}\n"


@pytest.mark.parametrize(
    "overrides,expected",
    [
        ({}, "qubit_v1.report.json"),
        # g_01 = 0: zero shifts, a null T1 and t1_unbounded
        ({"c_g_farad": 0}, "qubit_v1_c_g_0.report.json"),
    ],
    ids=["qubit_v1", "c_g_0"],
)
def test_derive_report_bytes_are_pinned(tmp_path, overrides, expected):
    # the report's key names, key order and number formatting, byte for byte
    config = _write_design(tmp_path / "design.json", **overrides)
    out = tmp_path / "report.json"
    assert main(["derive", "--config", config, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / expected).read_bytes()


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


def _main_without_dispersive_warning(argv):
    # qubit_v1 is within 10 g_01 of its resonator; outside pytest's warnings
    # capture that warning would print above the one stderr line compared
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DispersiveValidityWarning)
        return main(argv)


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
    code = _main_without_dispersive_warning(
        ["derive", "--config", config, "--out", str(tmp_path / "r.json")]
    )
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
    # UTF-16 and UTF-32 start with a byte order mark that is never UTF-8
    encoding=st.sampled_from(["utf-8", "utf-8", "utf-8", "utf-16", "utf-32"]),
)
def test_derive_any_design_file_exits_cleanly(fuzz_dir, numbers, junk, encoding):
    # every design file ends in exit 0, 1 or 2, never a traceback
    overrides = dict(numbers)
    if junk is not None:
        overrides[junk[0]] = junk[1]
    config = _write_design(fuzz_dir / "design.json", **overrides)
    Path(config).write_bytes(Path(config).read_text().encode(encoding))
    codes = []
    for argv in (["derive", "--out", str(fuzz_dir / "r.json")], ["compare"]):
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code = main([*argv, "--config", config])
        assert code in (0, 1, 2)
        # a compare that misses a gap prints its table and exits 1
        if code != 0 and not out.getvalue():
            last = err.getvalue().splitlines()[-1]
            assert last.startswith(("error: ", "numerical failure: ")), last
        codes.append(code)
    # compare adds only arithmetic on four finite numbers to a derive
    if codes[0] == 0:
        assert codes[1] != 2, err.getvalue()


def test_derive_of_a_loaded_resonance_that_overflows_is_a_numerical_failure(tmp_path, capsys):
    # every input is positive, so this is no validation error (exit 1)
    config = _write_design(
        tmp_path / "design.json", f_r_target_hertz=9.94e-156, l_j_henry=4.96e-195
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["derive", "--config", config, "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert capsys.readouterr().err == (
        "numerical failure: OverflowError: quality factor: "
        "loaded resonance overflows: L_r (C_r + C*) is inf\n"
    )
    assert not (tmp_path / "r.json").exists()


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


@pytest.mark.parametrize("state", ["ground", "excited", "both"])
def test_s21_directory_out_is_validation_error(tmp_path, capsys, state):
    # "both" writes <stem>.<state><suffix> beside --out, but a directory
    # --out is refused as it is for one state, before anything is written
    out = tmp_path / "d"
    out.mkdir()
    argv = [*_WRITING_COMMANDS["s21"], "--config", CONFIG, "--out", str(out)]
    argv[argv.index("ground")] = state
    assert _main_without_dispersive_warning(argv) == 1
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(out)!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]
    assert not any(out.iterdir())


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


def test_sweep_counts_failed_rows_without_building_a_row(tmp_path, capsys, monkeypatch):
    # the count and the CSV come from the columns and the error texts
    def refuse(self, i):
        raise AssertionError(f"row {i} built")

    monkeypatch.setattr(studio.SweepRows, "_row", refuse)
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--config", CONFIG, "--param", "c_k_farad",
        "--from", "1e-15", "--to", "1e200", "--steps", "3",
        "--emit", "q_ext", "--out", str(out),
    ])
    assert code == 0
    assert capsys.readouterr().out == f"3 rows (2 failed): {out}\n"


def test_sweep_prints_at_most_one_warning_per_kind(tmp_path):
    # every one of these 400 rows is within 10 g_01 of resonance; under Python's
    # default filter the CLI printed two stderr lines for each
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(src)
    out = tmp_path / "sweep.csv"
    argv = [
        "sweep", "--config", CONFIG, "--param", "l_j_henry",
        "--from", "10e-9", "--to", "10.4e-9", "--steps", "400",
        "--emit", "f_01_hz,chi_total_hz,chi_exact_hz", "--out", str(out),
    ]
    code = "import sys; from cqedkit.cli import main; sys.exit(main(sys.argv[1:]))"
    result = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"400 rows (0 failed): {out}\n"
    lines = result.stderr.splitlines()
    kinds = [line.split(": ", 2)[1:] for line in lines if "Warning: " in line]
    kinds = [(category, message.split()[0]) for category, message in kinds]
    assert kinds == [("DispersiveValidityWarning", "detuning")]
    assert "in 400 of 400 rows" in result.stderr
    assert len(lines) == 2 * len(kinds)  # each warning's line and its source line


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


def test_compare_zero_analytic_value_is_a_missed_gap(tmp_path, capsys):
    # g_01 underflows, so chi_total is 0 and its gap is inf, not a division error
    config = _write_design(tmp_path / "design.json", c_s_farad=5.1313314446611226e138)
    code = main(["compare", "--config", config])
    captured = capsys.readouterr()
    assert code == 1
    assert "failure" not in captured.err and "error" not in captured.err
    lines = captured.out.splitlines()
    assert len(lines) == 5
    chi = lines[4].split()
    assert chi[0] == "chi" and float(chi[1]) == 0.0
    assert chi[3] == "inf" and chi[-1] == "NO"


@pytest.mark.parametrize(
    "argv,first_line",
    [
        (
            ["tune", "--vary", "l_j_henry", "--target", "f_01_hz=4.55e9",
             "--bracket", "8e-9,14e-9", "--tol", "-1e-6"],
            "error: relative tolerance must be positive and finite, got -1e-06",
        ),
        (
            ["tune", "--vary", "l_j_henry", "--target", "f_01_hz=4.55e9",
             "--bracket", "-1e-9,1e-8"],
            "error: l_j_henry must be a positive finite number, got -1e-09",
        ),
        (
            ["sweep", "--param", "c_g_farad", "--from", "-1e-15", "--to", "2e-15",
             "--steps", "4", "--emit", "g_01_hz"],
            None,
        ),
    ],
    ids=["tol", "bracket", "sweep-from"],
)
def test_negative_numbers_in_exponent_form_are_values(tmp_path, capsys, argv, first_line):
    # argparse's own pattern took -1e-15 for an option flag
    out = tmp_path / "out"
    code = main([*argv, "--config", CONFIG, "--out", str(out)])
    captured = capsys.readouterr()
    if first_line is None:
        assert code == 0 and captured.out == f"4 rows (1 failed): {out}\n"
        assert out.read_text().splitlines()[1].startswith("-1e-15,,error,")
    else:
        assert code == 1
        assert captured.err.startswith(first_line) and captured.err.count("\n") == 1


def test_tune_non_finite_target_is_validation_error(tmp_path, capsys):
    for raw in ("inf", "-inf", "nan", "1e999"):
        out = tmp_path / "t.json"
        code = main([
            "tune", "--config", CONFIG, "--vary", "l_j_henry",
            "--target", f"f_01_hz={raw}", "--bracket", "8e-9,14e-9", "--out", str(out),
        ])
        assert code == 1, raw
        err = capsys.readouterr().err
        assert err.startswith("error: target value must be finite"), err
        assert err.count("\n") == 1
        assert not out.exists()


def test_s21_infinite_span_is_validation_error(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code = _main_without_dispersive_warning([
        "s21", "--config", CONFIG, "--state", "ground",
        "--span-hz", "inf", "--points", "5", "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: span must be positive and finite")
    assert err.count("\n") == 1
    assert not out.exists()


def test_derive_non_finite_ej_ec_ratio_is_numerical_failure(tmp_path, capsys):
    config = _write_design(tmp_path / "design.json", c_s_farad=3.0e267, l_j_henry=5.1e-246)
    code = main(["derive", "--config", config, "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "numerical failure: FloatingPointError: lumped extraction: E_j/E_c is inf\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "overrides,message",
    [
        # a vanishing load overflows Q_ext, and kappa = f_loaded / Q_ext is 0
        ({"r_load_ohm": 1e-300}, "Q_ext is inf"),
        # a finite Q_ext over a vanishing f_r underflows kappa to 0
        (
            {"f_r_target_hertz": 2.4748020728251984e-135, "z_0_ohm": 7.222450225131353e49},
            "kappa underflows to 0 at f_loaded = 2.47e-135 Hz",
        ),
    ],
)
def test_derive_zero_kappa_names_the_quality_factor_stage(tmp_path, capsys, overrides, message):
    # 2|chi|/kappa would otherwise divide by zero outside every stage
    config = _write_design(tmp_path / "design.json", **overrides)
    code = _main_without_dispersive_warning(
        ["derive", "--config", config, "--out", str(tmp_path / "r.json")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"numerical failure: FloatingPointError: quality factor: {message}\n"
    assert not (tmp_path / "r.json").exists()


_WRITING_COMMANDS = {
    "derive": ["derive"],
    "s21": ["s21", "--state", "ground", "--span-hz", "2e7", "--points", "51"],
    "sweep": [
        "sweep", "--param", "c_g_farad", "--from", "2e-15", "--to", "8e-15",
        "--steps", "2", "--emit", "g_01_hz",
    ],
    "tune": ["tune", "--vary", "l_j_henry", "--target", "f_01_hz=4.55e9", "--bracket", "8e-9,14e-9"],
}


@pytest.mark.parametrize("command", sorted(_WRITING_COMMANDS))
def test_unwritable_out_is_validation_error(tmp_path, capsys, command):
    for out in (tmp_path / "missing" / "out.txt", tmp_path):
        argv = [*_WRITING_COMMANDS[command], "--config", CONFIG, "--out", str(out)]
        assert _main_without_dispersive_warning(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(out) in err


@pytest.mark.parametrize(
    "command, flag, bound, noun",
    [("s21", "--points", MAX_S21_POINTS, "points"), ("sweep", "--steps", MAX_SWEEP_STEPS, "steps")],
)
def test_a_grid_above_its_bound_is_refused_before_anything_is_allocated(
    tmp_path, capsys, command, flag, bound, noun
):
    # without the bound, --points 1e12 ended in a NumPy memory error traceback
    out = tmp_path / "out.csv"
    argv = [*_WRITING_COMMANDS[command], "--config", CONFIG, "--out", str(out)]
    argv[argv.index(flag) + 1] = str(bound + 1)
    assert _main_without_dispersive_warning(argv) == 1
    err = capsys.readouterr().err
    assert err.endswith(f" takes at most {bound} {noun}, got {bound + 1}\n")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not any(tmp_path.iterdir())


def test_derive_non_utf8_design_file_is_validation_error(tmp_path, capsys):
    config = tmp_path / "design.json"
    config.write_bytes(b"\xff\xfe{}")
    code = main(["derive", "--config", str(config), "--out", str(tmp_path / "r.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: design file {config} is not valid JSON: 'utf-8' codec")
    assert err.count("\n") == 1


def _nested_geometry(depth):
    geometry = {}
    for _ in range(depth):
        geometry = {"a": geometry}
    return geometry


_COMMANDS = {**_WRITING_COMMANDS, "compare": ["compare"]}


def _run_command(command, config, out):
    argv = [*_COMMANDS[command], "--config", str(config)]
    if command != "compare":
        argv += ["--out", str(out)]
    return _main_without_dispersive_warning(argv)


@pytest.mark.parametrize(
    "text",
    [
        # json.loads gives up on the nesting
        "[" * 100000,
        # json.loads parses it; the design refuses its geometry
        json.dumps({**json.loads(Path(CONFIG).read_text()), "geometry": _nested_geometry(600)}),
    ],
    ids=["parse", "render"],
)
def test_deeply_nested_design_file_is_validation_error(tmp_path, capsys, text):
    config = tmp_path / "design.json"
    config.write_text(text)
    for command in sorted(_COMMANDS):
        assert _run_command(command, config, tmp_path / "r") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: input nested too deeply: ") and err.count("\n") == 1, err
        assert sorted(tmp_path.iterdir()) == [config]


def test_every_command_takes_geometry_to_the_depth_bound_and_refuses_one_level_more(
    tmp_path, capsys, monkeypatch
):
    config = tmp_path / "design.json"
    design = json.loads(Path(CONFIG).read_text())
    calls = []
    counted = studio.derive
    monkeypatch.setattr(studio, "derive", lambda *a, **k: calls.append(1) or counted(*a, **k))
    for depth, code in ((MAX_GEOMETRY_DEPTH, 0), (MAX_GEOMETRY_DEPTH + 1, 1)):
        config.write_text(json.dumps({**design, "geometry": _nested_geometry(depth)}))
        for command in sorted(_COMMANDS):
            out = tmp_path / str(depth) / command
            out.parent.mkdir(exist_ok=True)
            calls.clear()
            assert _run_command(command, config, out) == code, (command, depth)
            err = capsys.readouterr().err
            if code == 0:
                assert err == ""
                assert command != "tune" or len(calls) > 2
            else:
                assert err == (
                    "error: input nested too deeply: "
                    f"geometry nests more than {MAX_GEOMETRY_DEPTH} levels\n"
                ), (command, err)
                assert calls == [] and not any(out.parent.iterdir()), command


# --- argv fuzzing: every command line ends in exit 0, 1 or 2 -----------------

_SPECIAL_TEXT = st.sampled_from(
    ["inf", "-inf", "nan", "1e999", "-1e999", "0", "-1", "1e-320", "abc", ""]
)
_NUMBER_TEXT = st.one_of(_SPECIAL_TEXT, st.floats(allow_nan=False, allow_infinity=False).map(repr))


def _number_near(lo, hi, junk=_NUMBER_TEXT):
    # two draws in three inside the physical range, the rest junk
    inside = st.floats(min_value=lo, max_value=hi).map(repr)
    return st.one_of(inside, inside, junk)


def _range_near(lo, hi, junk=_NUMBER_TEXT):
    inside = st.lists(
        st.floats(min_value=lo, max_value=hi), min_size=2, max_size=2, unique=True
    ).map(lambda pair: [repr(v) for v in sorted(pair)])
    return st.one_of(
        st.just([repr(lo), repr(hi)]),
        inside,
        st.lists(_number_near(lo, hi, junk), min_size=2, max_size=2),
    )


_OUT_KINDS = st.sampled_from(["file", "missing directory", "directory"])


def _out_path(fuzz_dir, name, kind):
    """A writable path, one in a missing directory, or an existing directory."""
    if kind == "file":
        return fuzz_dir / name
    if kind == "missing directory":
        return fuzz_dir / "missing" / name
    taken = fuzz_dir / "taken"
    stem, suffix = name.split(".")
    # s21 --state both writes next to --out, under the state's name
    for taken_name in (name, f"{stem}.ground.{suffix}", f"{stem}.excited.{suffix}"):
        (taken / taken_name).mkdir(parents=True, exist_ok=True)
    return taken / name


def _run_cli(argv):
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), contextlib.redirect_stdout(
        io.StringIO()
    ):
        warnings.simplefilter("ignore")
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code != 0:
        message = err.getvalue()
        assert message.count("\n") == 1, message
        assert message.startswith(("error: ", "numerical failure: ")), message
    return code


_TUNE_CASES = st.sampled_from([
    ("l_j_henry", "f_01_hz", 3e9, 6e9, 5e-9, 20e-9),
    ("c_k_farad", "kappa_hz", 0.3e6, 3e6, 4e-15, 16e-15),
    ("c_g_farad", "chi_total_hz", -3e6, -0.5e6, 1e-15, 9e-15),
])


@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    case=_TUNE_CASES,
    data=st.data(),
    tol=st.one_of(st.none(), _number_near(1e-9, 1e-3)),
    out_kind=_OUT_KINDS,
)
def test_tune_argv_exits_cleanly(fuzz_dir, case, data, tol, out_kind):
    vary, quantity, q_lo, q_hi, p_lo, p_hi = case
    raw_target = data.draw(_number_near(q_lo, q_hi))
    raw_bracket = data.draw(st.one_of(_range_near(p_lo, p_hi).map(",".join), st.text(max_size=8)))
    out = _out_path(fuzz_dir, "tuned.json", out_kind)
    if out_kind == "file":
        out.unlink(missing_ok=True)
    argv = [
        "tune", "--config", CONFIG, "--vary", vary, "--target", f"{quantity}={raw_target}",
        "--bracket", raw_bracket, "--out", str(out),
    ]
    if tol is not None:
        argv += ["--tol", tol]
    if _run_cli(argv) == 0:
        assert out_kind == "file", argv
        tuned = json.loads(out.read_text())["tuned"]
        target_value, achieved = tuned["target_value"], tuned["achieved_value"]
        assert target_value is not None and achieved is not None, tuned
        rel_tol = 1e-6 if tol is None else float(tol)
        # both values are written at 9 significant digits
        scale = max(abs(target_value), 1e-300)
        assert abs(achieved - target_value) <= (rel_tol + 1e-8) * scale, tuned


_SWEEP_RANGES = {
    "c_g_farad": (1e-16, 1e-13),
    "l_j_henry": (1e-9, 1e-7),
    "c_k_farad": (1e-16, 1e-13),
    "c_s_farad": (1e-14, 1e-12),
}


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    param=st.sampled_from(sorted(_SWEEP_RANGES)),
    data=st.data(),
    steps=st.one_of(st.integers(min_value=2, max_value=64), st.integers(-2, 64)).map(str),
    emit=st.sampled_from(["g_01_hz,chi_total_hz", "chi_exact_hz", "t1_seconds,q_ext", "bogus", ""]),
    out_kind=_OUT_KINDS,
)
def test_sweep_argv_exits_cleanly(fuzz_dir, param, data, steps, emit, out_kind):
    # no arbitrary floats: a capacitance of 1e16 F has every derive solve the
    # capped 401-state charge basis, and the design-file fuzz covers such values
    lo, hi = data.draw(_range_near(*_SWEEP_RANGES[param], junk=_SPECIAL_TEXT))
    argv = [
        "sweep", "--config", CONFIG, "--param", param, "--from", lo, "--to", hi,
        "--steps", steps, "--emit", emit, "--out", str(_out_path(fuzz_dir, "sweep.csv", out_kind)),
    ]
    if _run_cli(argv) == 0:
        assert out_kind == "file", argv


@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    state=st.sampled_from(["ground", "excited", "both"]),
    span=st.one_of(st.sampled_from(["1.7e308", "1e300"]), _number_near(1e5, 1e9)),
    points=st.one_of(st.integers(min_value=3, max_value=4096), st.integers(-2, 4096)).map(str),
    q_internal=st.one_of(st.none(), _number_near(1e2, 1e7)),
    out_kind=_OUT_KINDS,
)
def test_s21_argv_exits_cleanly(fuzz_dir, state, span, points, q_internal, out_kind):
    out = _out_path(fuzz_dir, "curve.csv", out_kind)
    written = [out, out.with_name("curve.ground.csv"), out.with_name("curve.excited.csv")]
    if out_kind == "file":
        for path in written:
            path.unlink(missing_ok=True)
    argv = [
        "s21", "--config", CONFIG, "--state", state, "--span-hz", span,
        "--points", points, "--out", str(out),
    ]
    if q_internal is not None:
        argv += ["--q-internal", q_internal]
    if _run_cli(argv) == 0:
        assert out_kind == "file", argv
        for path in written:
            if path.exists():
                assert "nan" not in path.read_text(), argv
