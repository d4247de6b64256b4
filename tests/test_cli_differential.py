import importlib.util
import time
from pathlib import Path

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
