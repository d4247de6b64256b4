import collections
import hashlib
import importlib.util
import json
import random
import time
import warnings
from pathlib import Path

from cqedkit import studio
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


def test_tunes_apart_only_in_printed_warnings_are_no_moved_root():
    tool = _load_tool()
    parent = _tune_record(1.1e-8, 5e-7)
    louder = _tune_record(1.1e-8, 5e-7, printed_warnings=["UserWarning: step"])
    assert tool.declared(parent, louder) is None
    assert len(tool.compare([parent], [louder])) == 1


def test_s21_written_over_filler_writes_the_files_of_a_fresh_directory():
    tool = _load_tool()
    # seed 3 draws four s21 calls that all exit 0: both states on designs 0 and 2,
    # one state on designs 1 and 3
    runs = {}
    for rewritten in (0, 1):
        tool.REWRITTEN = rewritten
        runs[rewritten] = [r for r in tool.run(4, 3) if r["command"] == "s21"]
    assert [(r["argv"][2], r["exit"]) for r in runs[0]] == [
        ("both", 0), ("ground", 0), ("both", 0), ("excited", 0),
    ]
    # each call runs once over FILLER and once in a directory without it
    assert runs[0] == runs[1]
    assert [len(r["files"]) for r in runs[0]] == [2, 1, 2, 1]
    # seed 0's second design refuses its s21 call, which leaves the filler as it was
    tool.REWRITTEN = 1
    refused = [r for r in tool.run(2, 0) if r["command"] == "s21"][1]
    assert refused["exit"] == 1
    assert refused["files"] == {"out": hashlib.sha256(tool.FILLER).hexdigest()}


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


def test_records_apart_only_where_the_change_ran_fewer_stages_are_a_declared_class():
    tool = _load_tool()
    near = "DispersiveValidityWarning: detuning {} Hz is within 10 g_01 of resonance; ..."
    overflow = "numerical failure: OverflowError: quality factor: (34, 'Numerical result')\n"

    def record(command, *argv, **fields):
        return {**_text_record(command, ""), "argv": [command, *argv], **fields}

    def declared(base, change):
        classes = collections.Counter()
        return tool.compare([base], [change], classes) == [] and classes == {
            tool.STAGE_SKIPPED: 1
        }

    # compare needs no quality factor, and a tune's steps only their target's stages
    refused = record("compare", exit=2, stderr=overflow)
    assert declared(refused, record("compare", exit=0, stdout="quantity ..."))
    assert not declared(record("derive", exit=2, stderr=overflow), record("derive", exit=0))
    assert not declared(
        {**refused, "stderr": "error: coupling strength: beta ...\n"}, record("compare", exit=0)
    )
    steps = [near.format(1), near.format(2), near.format(3)]
    tuned = record("tune", "--target", "f_01_hz=4e9", printed_warnings=steps)
    assert declared(tuned, {**tuned, "printed_warnings": steps[2:]})
    assert not declared(tuned, {**tuned, "printed_warnings": [*steps[2:], "UserWarning: x"]})
    assert not declared(tuned, {**tuned, "printed_warnings": steps[:0:-1]})  # reordered
    chi = record("tune", "--target", "chi_total_hz=-1e6", printed_warnings=steps)
    assert not declared(chi, {**chi, "printed_warnings": steps[2:]})
    # a sweep of f_01_hz keeps a row only the quality factor refused, and warns
    # of no detuning; one of chi_total_hz also counts that row in its folded warning
    csv = (
        "c_k_farad,{},status,error\n1e-15,1.0,ok,\n"
        '2e-15,,error,"OverflowError: quality factor: (34, \'Numerical result\')"\n3e-15,3.0,ok,\n'
    )
    kept = csv.replace(",,error,\"OverflowError: quality factor: (34, 'Numerical result')\"",
                       ",2.0,ok,")
    folded = (
        "DispersiveValidityWarning: detuning within 10 g_01 of resonance in {} of 3 rows, "
        "c_k_farad 1e-15 to 3e-15; dispersive formula unreliable"
    )
    base_warned = [near.format(2), folded.format(2)]
    swept = record(
        "sweep", "--emit", "f_01_hz", text=csv.format("f_01_hz"), stdout="3 rows (1 failed)",
        warnings=base_warned, printed_warnings=base_warned,
    )
    change = {**swept, "text": kept.format("f_01_hz"), "stdout": "3 rows (0 failed)",
              "files": {"out": "another"}, "warnings": [], "printed_warnings": []}
    assert declared(swept, change)
    assert not declared(swept, {**change, "text": change["text"].replace("3.0", "3.5")})
    assert not declared(swept, {**change, "warnings": [folded.format(3)]})
    levels = csv.format("f_01_hz").replace("quality factor", "perturbative levels")
    assert not declared({**swept, "text": levels}, change)
    argv = ["sweep", "--emit", "chi_total_hz"]
    chi = {**swept, "argv": argv, "text": csv.format("chi_total_hz")}
    for count, same in ((3, True), (4, True), (5, False), (2, False)):
        warned = {**change, "argv": argv, "text": kept.format("chi_total_hz")}
        warned["warnings"] = [folded.format(count)]
        warned["printed_warnings"] = warned["warnings"]
        assert declared(chi, warned) == same, count


def test_the_stage_tables_of_the_tool_are_derives():
    tool = _load_tool()
    assert tool.STAGE_READS == studio._STAGE_READS
    assert tool.MADE_BY.items() <= studio._MADE_BY.items()
    assert {*tool.TARGETS, *tool.QUANTITIES, "f_01_exact_hz", "chi_exact_hz"} <= tool.MADE_BY.keys()
