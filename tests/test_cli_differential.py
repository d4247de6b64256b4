import collections
import importlib.util
import json
import random
import time
import warnings
from pathlib import Path

from cqedkit.lumped import MAX_GEOMETRY_DEPTH

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_differential.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("cli_differential", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_differential_of_a_tree_with_itself_is_empty(tmp_path):
    tool = _load_tool()
    start = time.perf_counter()
    paths = [tmp_path / "first.jsonl", tmp_path / "second.jsonl"]
    for path in paths:
        assert tool.main(["--designs", "3", "--seed", "5", "--out", str(path)]) == 0
    first, second = (tool._read(str(path)) for path in paths)
    assert [record["command"] for record in first[:5]] == [
        "derive", "compare", "sweep", "tune", "s21",
    ]
    assert len(first) == 15 and tool.compare(first, second) == []
    assert len(tool.compare(first, [{**first[0], "exit": 9}, *first[1:]])) == 1
    assert tool.main(["--compare", *map(str, paths)]) == 0
    assert time.perf_counter() - start < 2.0


def test_a_repeat_the_cli_would_not_print_is_no_difference(tmp_path):
    tool = _load_tool()

    def cli_main(argv):
        for _ in range(3):
            warnings.warn("near degeneracy", UserWarning)
        warnings.warn("near degeneracy", UserWarning)  # another line prints again
        warnings.warn("old keyword", DeprecationWarning)
        return 0

    record = {"design": 0, "command": "tune", **tool._run_one(cli_main, [], tmp_path)}
    assert record["warnings"] == [
        *["UserWarning: near degeneracy"] * 4, "DeprecationWarning: old keyword",
    ]
    assert record["printed_warnings"] == ["UserWarning: near degeneracy"] * 2
    repeat = {**record, "warnings": record["warnings"][1:]}
    assert tool.compare([record], [repeat]) == []
    dropped = {**record, "printed_warnings": record["printed_warnings"][1:]}
    assert len(tool.compare([record], [dropped])) == 1


def test_corpus_nests_geometry_to_the_bound_a_design_accepts():
    assert _load_tool().NESTING_BOUND == MAX_GEOMETRY_DEPTH


def test_one_design_in_25_holds_ints_and_keeps_the_draws_of_the_others():
    tool = _load_tool()
    rng = random.Random(0)
    designs = [tool._design(rng, index) for index in range(50)]
    held = [i for i, d in enumerate(designs) if type(d["z_0_ohm"]) is int]
    assert held == [tool.INT_INPUTS, 25 + tool.INT_INPUTS]
    assert all(type(designs[i]["r_load_ohm"]) is int for i in held)
    assert '"z_0_ohm": 50,' in json.dumps(designs[held[0]])
    # the int is written over the draws, so the other designs are drawn as without it
    tool.INT_INPUTS = -1
    rng = random.Random(0)
    plain = [tool._design(rng, index) for index in range(50)]
    texts, plain_texts = (list(map(json.dumps, each)) for each in (designs, plain))
    assert [i for i, (a, b) in enumerate(zip(texts, plain_texts)) if a != b] == held


def _tune_record(root, relative_error, **fields):
    tuned = {"parameter": "l_j_henry", "parameter_value": root, "relative_error": relative_error}
    return {
        "design": 0, "command": "tune", "argv": ["tune", "--vary", "l_j_henry"], "exit": 0,
        "stdout": f"l_j_henry = {root!r}", "stderr": "", "warnings": [], "printed_warnings": [],
        "files": {"out": repr(root)}, "tuned": tuned, **fields,
    }


def test_tunes_that_both_meet_the_tolerance_are_a_declared_class():
    tool = _load_tool()
    parent = _tune_record(1.1e-8, 5e-7)
    moved = _tune_record(1.1000004e-8, 2e-10, printed_warnings=["UserWarning: step"])
    classes = collections.Counter()
    assert tool.compare([parent], [moved], classes) == []
    assert classes == {tool.TUNE_ROOT: 1}
    missed = _tune_record(1.1000004e-8, 2e-6)
    assert len(tool.compare([parent], [missed])) == 3  # files, stdout, tuned
    failed = {**moved, "exit": 2, "stderr": "numerical failure: ..."}
    assert len(tool.compare([parent], [failed])) > 0
    loud = _tune_record(1.1000004e-8, 2e-10, stderr="a new line")
    assert "design 0 tune: stderr: '' -> 'a new line'" in tool.compare([parent], [loud])


def _text_record(command, text):
    return {
        "design": 0, "command": command, "argv": [command], "exit": 0, "stdout": "",
        "stderr": "", "warnings": [], "printed_warnings": [], "files": {"out": text}, "text": text,
    }


def test_last_digit_rounding_is_a_declared_class():
    tool = _load_tool()
    report = '{\n  "f_01_exact_hz": 4540478240.0,\n  "chi_exact_hz": 0.0,\n  "q_ext": 4432.5\n}\n'
    csv = "l_j_henry,chi_exact_hz,f_01_hz,status,error\n1.1e-08,-936781.128,4.5e9,ok,\n"
    same = [
        (report, report.replace("4540478240.0", "4540478250.0").replace(
            '"chi_exact_hz": 0.0', '"chi_exact_hz": -4.76837158e-07'
        )),
        (csv, csv.replace("-936781.128", "-936781.127")),
        (csv.replace("-936781.128", "0.0"), csv.replace("-936781.128", "9.53674316e-07")),
    ]
    for first, second in same:
        classes = collections.Counter()
        command = "sweep" if first.startswith("l_j") else "derive"
        a, b = _text_record(command, first), _text_record(command, second)
        assert tool.compare([a], [b], classes) == [] and classes == {tool.ROUNDING: 1}
    different = [
        (report, report.replace("4540478240.0", "4540478260.0")),  # two units
        (report, report.replace("4432.5", "0.0")),  # not chi: no noise floor
        (csv, csv.replace("4.5e9", "4.5e9,").replace("error\n", "error,x\n")),
        (csv.replace("-936781.128", "0.0"), csv.replace("-936781.128", "-0.0")),
        (csv, csv.replace(",ok,", ",error,")),
    ]
    for first, second in different:
        assert tool.compare([_text_record("sweep", first)], [_text_record("sweep", second)])


def test_convergence_warnings_lost_or_reordered_are_a_declared_class():
    tool = _load_tool()
    unconverged = "ConvergenceWarning: charge basis cutoff 200 not converged"
    near = "DispersiveValidityWarning: detuning 1e8 Hz is within 10 g_01 of resonance"
    base = {
        **_text_record("derive", "{}"), "exit": 1, "stderr": "error: quality factor: ...",
        "printed_warnings": [unconverged, near, unconverged],
    }
    for printed in ([near], [near, unconverged], [unconverged, unconverged, near]):
        classes = collections.Counter()
        change = {**base, "printed_warnings": printed, "warnings": []}
        assert tool.compare([base], [change], classes) == []
        assert classes == {tool.EIGEN_LAST: 1}
    undeclared = [
        {**base, "printed_warnings": [unconverged, unconverged]},  # lost another category
        {**base, "printed_warnings": [*base["printed_warnings"], unconverged]},  # gained one
        {**base, "printed_warnings": [near], "stderr": "error: another stage"},
        {**base, "printed_warnings": [near], "exit": 2},
        {**base, "printed_warnings": [near], "files": {}},
    ]
    for change in undeclared:
        assert tool.compare([base], [change])


def test_sweep_warnings_folded_per_kind_are_a_declared_class():
    tool = _load_tool()
    csv = (
        "l_j_henry,f_01_hz,status,error\n1e-08,4.6e9,ok,\n1.1e-08,4.5e9,ok,\n"
        '1.2e-08,,error,"LabelingError: no dressed state, at all"\n1.3e-08,4.4e9,ok,\n'
    )
    near = "DispersiveValidityWarning: detuning {} Hz is within 10 g_01 of resonance; ..."
    unconverged = "ConvergenceWarning: charge basis cutoff 200 not converged: ..."
    per_row = [near.format(1), near.format(2), unconverged, near.format(3), near.format(4)]
    base = {**_text_record("sweep", csv), "warnings": per_row, "printed_warnings": per_row}
    folded_near = (
        "DispersiveValidityWarning: detuning within 10 g_01 of resonance in 3 of 4 rows, "
        "l_j_henry 1e-08 to 1.3e-08; dispersive formula unreliable"
    )
    folded_unconverged = (
        "ConvergenceWarning: charge basis cutoff not converged in 1 of 4 rows, "
        "l_j_henry 1.1e-08 to 1.1e-08; exact levels unreliable"
    )

    def change(*warned, **fields):
        return {**base, "warnings": list(warned), "printed_warnings": list(warned), **fields}

    # the failed row keeps its own warning, before the folded ones
    classes = collections.Counter()
    folded = change(near.format(3), folded_near, folded_unconverged)
    assert tool.compare([base], [folded], classes) == []
    assert classes == {tool.SWEEP_FOLDED: 1}
    undeclared = [
        change(near.format(3), folded_near),  # a kind lost
        change(folded_near, folded_unconverged),  # the failed row's warning lost
        change(near.format(3), folded_unconverged, folded_near),  # not in derive's order
        change(near.format(3), folded_near.replace("3 of 4", "2 of 4"), folded_unconverged),
        change(near.format(3), folded_near.replace("3 of 4", "3 of 3"), folded_unconverged),
        change(near.format(3), folded_near.replace("l_j_henry", "c_g_farad"), folded_unconverged),
        change(near.format(3), folded_near.replace("unreliable", "fine"), folded_unconverged),
        # 1.2e-08 is the failed row, and two kept rows cannot hold three
        change(near.format(3), folded_near.replace("to 1.3e-08", "to 1.2e-08"), folded_unconverged),
        change(near.format(3), folded_near.replace("to 1.3e-08", "to 1.1e-08"), folded_unconverged),
        change(near.format(3), folded_near, folded_unconverged, stdout="another line"),
        change(near.format(3), folded_near, folded_unconverged, text=csv.replace("4.4e9", "4.3e9")),
    ]
    for other in undeclared:
        assert tool.compare([base], [other]), other["warnings"]
    # a warning of no folded kind may not be folded away
    louder = [*per_row, "UserWarning: x"]
    loud = {**base, "warnings": louder, "printed_warnings": louder}
    assert tool.compare([loud], [folded])
