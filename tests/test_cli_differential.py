import importlib.util
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
