"""Differential test of the cqedkit CLI across two source trees.

Runs ``cqedkit.cli.main`` in-process for all five commands (derive,
compare, sweep, tune, s21) over seeded designs and writes one JSON line
per call: exit code, stdout, stderr, the warnings raised and the SHA-256
of each file the call wrote. Temporary paths are replaced by ``<tmp>``,
so two trees that behave alike give identical records. Next to every
warning raised, a record lists the ones Python's default filter prints:
each message once per category and source line, and no deprecation,
import or resource warning.

Record a tree (it is imported from PYTHONPATH), then compare two records:

    PYTHONPATH=src python tools/cli_differential.py --designs 1000 --out change.jsonl
    PYTHONPATH=../parent/src python tools/cli_differential.py --designs 1000 --out parent.jsonl
    python tools/cli_differential.py --compare parent.jsonl change.jsonl

``--compare`` prints every field that differs and exits 1 if any does. It
compares the printed warnings, not every one raised, so a repeat that the
CLI would not print is no difference. Four declared classes of difference
are counted apart and do not fail ``--compare``:

- ``TUNE_ROOT``: a record of an exit-0 ``tune`` also holds the report's
  ``tuned`` block. Two such records of one parameter, each of whose
  achieved values meets the target to the tune's ``rel_tol``, and that
  differ only in the report, the summary line, the ``tuned`` block and the
  printed warnings of the steps: a root finder that steps elsewhere lands
  elsewhere inside the tolerance. The tolerance is on the target
  quantity, so where it is flat in the parameter (f_01 in ``c_g_farad``)
  two such roots can lie 1e-4 apart, relative, in the parameter.
- ``ROUNDING``: a record of an exit-0 ``derive`` or ``sweep`` also holds
  the text it wrote. Two such records whose texts differ only in numbers
  one unit apart in the ninth significant digit, or in ``chi_exact_hz``
  values that are both below ``NOISE_HZ``: the rounding of an exact level
  that moved in its last bits, and the rounding noise of a dispersive
  shift that vanishes.
- ``EIGEN_LAST``: two records of any exit that differ only in the printed
  warnings, where the second's are the first's, as a multiset, less some
  ``ConvergenceWarning``s: ``derive`` runs its eigen stages after the
  closed forms, so a design that a closed form refuses no longer solves
  (and warns of) the transmon, and a design that warns of both warns of
  its detuning first.
- ``SWEEP_FOLDED``: two exit-0 ``sweep`` records that differ only in the
  printed warnings, where the second's are the first's with the warnings of
  the rows the batch keeps folded into one per kind (``FOLDED_KINDS``): the
  other rows' warnings, in order, then for each kind that warned, in
  derive's order, one warning naming the number of rows that warned of it,
  of all rows, the parameter, and the first and last values of ``ok`` rows
  between which that many lie. The count of each kind is the first's.

Designs: four in five have the five sweepable fields drawn +-40 % around
qubit_v1; the rest set one to three fields to 10^U(-300, 300). One in 50
gets a geometry nested 600 deep, one in 50 a geometry nested exactly
``NESTING_BOUND`` deep (the most a design accepts), one in 50 a geometry
a level deeper, and one in 50 an existing directory as the s21 ``--out``.
One in 25 writes ``z_0_ohm`` and ``r_load_ohm`` as the JSON int ``50``: a
design holding an int is not batched, so its sweep derives every row on its
own. The draws do not depend on the tree, so both trees get the same designs.
A sweep emits one to three closed-form quantities and, in two of three,
``f_01_exact_hz`` or ``chi_exact_hz``. One sweep in five has 101 steps, the
rest 2 to 25, and one in ten runs from -value to +value instead of 0.6 to 1.4
times the value, so that the rows a sweep cannot batch and derives one at a
time (invalid, failing or non-finite) show up; a tune targets ``f_01_hz``,
``g_01_hz``, ``chi_total_hz``, ``f_01_exact_hz`` or ``chi_exact_hz``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import math
import random
import re
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Any, Iterator

REFERENCE = json.loads(
    (Path(__file__).resolve().parent.parent / "designs" / "qubit_v1.json").read_text("utf-8")
)
SWEEPABLE = ("c_s_farad", "c_g_farad", "c_k_farad", "l_j_henry", "f_r_target_hertz")
QUANTITIES = ("f_01_hz", "g_01_hz", "chi_total_hz", "q_ext", "kappa_hz", "t1_seconds")
# a sweep emits no eigen quantity, one that needs the exact spectrum, or one
# that also needs the dressed-state oracle
EIGEN_EMITS = ((), ("f_01_exact_hz",), ("chi_exact_hz",))
# what Python's default filter ignores outside __main__
SILENT = (DeprecationWarning, PendingDeprecationWarning, ImportWarning, ResourceWarning)
# cqedkit.lumped.MAX_GEOMETRY_DEPTH, written out so that a tree without
# that name can be recorded too
NESTING_BOUND = 100
# design index modulo 50 -> depth of its geometry
NESTED = {17: 600, 18: NESTING_BOUND, 19: NESTING_BOUND + 1}
# design index modulo 25 of the designs whose z_0_ohm and r_load_ohm are the int 50
INT_INPUTS = 11
# the declared class of two tunes that both meet the target to the tune's tolerance
TUNE_ROOT = "tune root within rel_tol"
# fields in which two records of one TUNE_ROOT pair may differ
TUNE_ROOT_FIELDS = frozenset(("files", "stdout", "tuned", "printed_warnings"))
# the declared class of reports and sweep CSVs apart only by the rounding of the exact solve
ROUNDING = "last-digit rounding"
# a |chi_exact_hz| below this is rounding noise: levels near 1e10 Hz round to 1e-6 Hz
NOISE_HZ = 1e-5
# the declared class of printed warnings that lose ConvergenceWarnings or change order
EIGEN_LAST = "eigen stages after the closed forms"
# the declared class of a sweep whose kept rows' warnings fold into one per kind
SWEEP_FOLDED = "sweep warnings folded per kind"
# the kinds a sweep folds, in derive's order: how derive's own warning of the
# kind starts, and the folded warning's kind and consequence
FOLDED_KINDS = (
    ("DispersiveValidityWarning: detuning ",
     "DispersiveValidityWarning: detuning within 10 g_01 of resonance",
     "dispersive formula unreliable"),
    ("ConvergenceWarning: charge basis cutoff ",
     "ConvergenceWarning: charge basis cutoff not converged", "exact levels unreliable"),
    ("DispersiveValidityWarning: |detuning| ",
     "DispersiveValidityWarning: |detuning| within 5 g_01",
     "dressed-state labels may be ambiguous"),
)
FOLDED_WARNING = re.compile(r"(.+) in (\d+) of (\d+) rows, (\w+) (\S+) to (\S+); (.+)")
TARGETS = {
    "f_01_hz": (3.5e9, 5.5e9),
    "g_01_hz": (2e7, 8e7),
    "chi_total_hz": (-3e6, -5e5),
    "chi_exact_hz": (-3e6, -5e5),
    "f_01_exact_hz": (3.5e9, 5.5e9),
}


def _design(rng: random.Random, index: int) -> dict[str, Any]:
    design = dict(REFERENCE)
    if rng.random() < 0.8:
        for name in SWEEPABLE:
            design[name] = REFERENCE[name] * rng.uniform(0.6, 1.4)
    else:
        for name in rng.sample(sorted(design.keys() - {"geometry"}), rng.randint(1, 3)):
            design[name] = 10.0 ** rng.uniform(-300.0, 300.0)
    if index % 25 == INT_INPUTS:
        design["z_0_ohm"] = design["r_load_ohm"] = 50
    if index % 50 in NESTED:
        geometry: dict[str, Any] = {}
        for _ in range(NESTED[index % 50]):
            geometry = {"a": geometry}
        design["geometry"] = geometry
    return design


def _calls(rng: random.Random, index: int, design: dict[str, Any]) -> list[list[str]]:
    """argv of the five commands for one design, ``--config`` and ``--out`` left out."""
    param = rng.choice(SWEEPABLE)
    value = design[param]
    steps = 101 if rng.random() < 0.2 else rng.randint(2, 25)
    lo, hi = (-value, value) if rng.random() < 0.1 else (value * 0.6, value * 1.4)
    emit = [*rng.sample(QUANTITIES, rng.randint(1, 3)), *rng.choice(EIGEN_EMITS)]
    target = rng.choice(sorted(TARGETS))
    vary = rng.choice(("l_j_henry", "c_g_farad", "c_s_farad"))
    s21 = [
        "s21",
        "--state", rng.choice(("ground", "excited", "both")),
        "--span-hz", repr(10.0 ** rng.uniform(5.0, 8.0)),
        "--points", str(int(10.0 ** rng.uniform(math.log10(3), math.log10(3001)))),
    ]
    if rng.random() < 0.5:
        s21 += ["--q-internal", repr(10.0 ** rng.uniform(2.0, 8.0))]
    if index % 50 == 29:
        s21[2] = "both"
    return [
        ["derive"],
        ["compare"],
        [
            "sweep", "--param", param,
            "--from", repr(lo), "--to", repr(hi),
            "--steps", str(steps), "--emit", ",".join(emit),
        ],
        [
            "tune", "--vary", vary,
            "--target", f"{target}={rng.uniform(*TARGETS[target])!r}",
            "--bracket", f"{design[vary] * 0.5!r},{design[vary] * 2.0!r}",
        ],
        s21,
    ]


def _run_one(cli_main: Any, argv: list[str], tmp: Path) -> dict[str, Any]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code: int | str = cli_main(argv)
            except Exception as exc:  # a traceback at the command line
                code = f"{type(exc).__name__}: {exc}"
    files = {
        str(path.relative_to(tmp)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp.rglob("*"))
        if path.is_file() and path.name != "design.json"
    }

    def clean(text: str) -> str:
        return text.replace(str(tmp), "<tmp>")

    def line(w: warnings.WarningMessage) -> str:
        return f"{w.category.__name__}: {clean(str(w.message))}"

    printed: dict[tuple[str, type, str, int], str] = {}
    for w in caught:
        if not issubclass(w.category, SILENT):
            printed.setdefault((str(w.message), w.category, w.filename, w.lineno), line(w))
    return {
        "argv": [clean(arg) for arg in argv],
        "exit": code,
        "stdout": clean(stdout.getvalue()),
        "stderr": clean(stderr.getvalue()),
        "warnings": [line(w) for w in caught],
        "printed_warnings": list(printed.values()),
        "files": files,
    }


def run(designs: int, seed: int) -> Iterator[dict[str, Any]]:
    """One record per CLI call: five calls per design, in a fresh directory each."""
    from cqedkit import cli

    rng = random.Random(seed)
    for index in range(designs):
        design = _design(rng, index)
        for argv in _calls(rng, index, design):
            with tempfile.TemporaryDirectory() as name:
                tmp = Path(name)
                config = tmp / "design.json"
                config.write_text(json.dumps(design), encoding="utf-8")
                argv = [*argv, "--config", str(config)]
                if argv[0] != "compare":
                    out = tmp / "out"
                    if argv[0] == "s21" and index % 50 == 29:
                        out.mkdir()
                    argv += ["--out", str(out)]
                record = {"design": index, "command": argv[0], **_run_one(cli.main, argv, tmp)}
                if record["exit"] == 0 and argv[0] in ("derive", "sweep"):
                    record["text"] = (tmp / "out").read_text(encoding="utf-8")
                elif record["exit"] == 0 and argv[0] == "tune":
                    report = json.loads((tmp / "out").read_text(encoding="utf-8"))
                    record["tuned"] = report["tuned"]
                yield record


def declared(a: dict[str, Any], b: dict[str, Any]) -> str | None:
    """The declared class of the differences between two records of one call, if any."""
    differing = {key for key in a.keys() | b.keys() if a.get(key) != b.get(key)} - {"warnings"}
    if differing == {"printed_warnings"} and a["command"] == "sweep" and "text" in a:
        if _folded_apart(a, b):
            return SWEEP_FOLDED
    if differing == {"printed_warnings"}:
        first, second = (collections.Counter(r["printed_warnings"]) for r in (a, b))
        lost = first - second
        if not second - first and all(w.startswith("ConvergenceWarning: ") for w in lost):
            return EIGEN_LAST
    if a["exit"] != 0 or b["exit"] != 0:
        return None
    if "text" in a and "text" in b:
        if differing <= {"files", "text"} and _rounding_apart(a["text"], b["text"]):
            return ROUNDING
        return None
    tuned_a, tuned_b = a.get("tuned"), b.get("tuned")
    if not (tuned_a and tuned_b) or tuned_a["parameter"] != tuned_b["parameter"]:
        return None
    argv = a["argv"]
    rel_tol = float(argv[argv.index("--tol") + 1]) if "--tol" in argv else 1e-6
    if max(tuned_a["relative_error"], tuned_b["relative_error"]) > rel_tol:
        return None
    return TUNE_ROOT if differing <= TUNE_ROOT_FIELDS else None


def _folded_apart(base: dict[str, Any], change: dict[str, Any]) -> bool:
    """Whether a sweep's warnings are another's under ``SWEEP_FOLDED``'s rule.

    The change's warnings end in its folded ones; the rest must be the base's
    warnings in order, less some (the rows the batch kept). The folded ones
    must be those left, one per kind in ``FOLDED_KINDS`` order, each with as
    many rows as the base warned of that kind, the CSV's row count and
    parameter, and a first and last value that are those of kept (``ok``)
    rows, as far apart as the count needs.
    """
    header, *lines = base["text"].splitlines()
    names = header.split(",")
    kept_values = [
        cells[0] for cells in (line.split(",", len(names) - 1) for line in lines)
        if cells[-2] == "ok"
    ]
    warned = change["warnings"]
    cut = len(warned)
    while cut and FOLDED_WARNING.fullmatch(warned[cut - 1]):
        cut -= 1
    own, folded = warned[:cut], [FOLDED_WARNING.fullmatch(w).groups() for w in warned[cut:]]
    matched, left = 0, []
    for w in base["warnings"]:
        if matched < len(own) and w == own[matched]:
            matched += 1
        else:
            left.append(w)
    if matched < len(own) or not folded:
        return False
    expected = []
    for starts, kind, consequence in FOLDED_KINDS:
        count = sum(w.startswith(starts) for w in left)
        if count:
            expected.append((kind, str(count), str(len(lines)), names[0], consequence))
    if sum(int(e[1]) for e in expected) != len(left) or len(expected) != len(folded):
        return False
    for want, (kind, count, rows, name, first, last, consequence) in zip(expected, folded):
        if (kind, count, rows, name, consequence) != want:
            return False
        if first not in kept_values or last not in kept_values:
            return False
        span = len(kept_values) - kept_values[::-1].index(last) - kept_values.index(first)
        if span < int(count):
            return False
    return True


def _rounding_apart(first: str, second: str) -> bool:
    """Whether a report or sweep CSV differs from another only by ``ROUNDING``."""
    lines_a, lines_b = first.splitlines(), second.splitlines()
    if len(lines_a) != len(lines_b):
        return False
    header = lines_a[0].split(",")  # a sweep CSV's column names
    for line_a, line_b in zip(lines_a, lines_b):
        cells_a, cells_b = line_a.split(","), line_b.split(",")
        if len(cells_a) != len(cells_b):
            return False
        key = re.match(r'\s*"(\w+)": ', line_a)  # a report line's key
        for i, (cell_a, cell_b) in enumerate(zip(cells_a, cells_b)):
            if cell_a == cell_b:
                continue
            name = key.group(1) if key else header[i] if i < len(header) else ""
            try:
                x, y = (float(cell.rsplit(" ", 1)[-1]) for cell in (cell_a, cell_b))
            except ValueError:
                return False
            scale = max(abs(x), abs(y))
            if not math.isfinite(scale) or x == y:
                return False
            if name == "chi_exact_hz" and scale < NOISE_HZ:
                continue
            if abs(x - y) > 1.01 * 10.0 ** (math.floor(math.log10(scale)) - 8):
                return False
    return True


def compare(
    first: list[dict[str, Any]],
    second: list[dict[str, Any]],
    classes: collections.Counter | None = None,
) -> list[str]:
    """Every field that differs between two runs, one line each.

    Warnings count as the CLI prints them (``printed_warnings``), not as raised.
    A pair of records in a declared class gives no line; ``classes``, when
    given, counts such pairs by class.
    """
    differences = []
    if len(first) != len(second):
        differences.append(f"record count: {len(first)} -> {len(second)}")
    for a, b in zip(first, second):
        where = f"design {a['design']} {a['command']}"
        if (a["design"], a["command"]) != (b["design"], b["command"]):
            differences.append(f"{where}: paired with design {b['design']} {b['command']}")
            continue
        kind = declared(a, b)
        if kind is not None:
            if classes is not None and a != b:
                classes[kind] += 1
            continue
        for key in sorted((a.keys() | b.keys()) - {"warnings"}):
            if a.get(key) != b.get(key):
                differences.append(f"{where}: {key}: {a.get(key)!r} -> {b.get(key)!r}")
    return differences


def summary(records: list[dict[str, Any]]) -> str:
    exits = collections.Counter(str(record["exit"]) for record in records)
    files = sum(len(record["files"]) for record in records)
    designs = len({record["design"] for record in records})
    tally = ", ".join(f"{code}: {count}" for code, count in sorted(exits.items()))
    return f"{designs} designs, {len(records)} calls, exits {{{tally}}}, {files} files"


def _read(path: str) -> list[dict[str, Any]]:
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--designs", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="records file to write (JSON lines)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two records files")
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (_read(path) for path in args.compare)
        classes: collections.Counter = collections.Counter()
        differences = compare(first, second, classes)
        for line in differences:
            print(line)
        print(f"{args.compare[0]}: {summary(first)}")
        print(f"{args.compare[1]}: {summary(second)}")
        for kind, count in sorted(classes.items()):
            print(f"declared class {kind!r}: {count} differing records")
        print(f"{len(differences)} differences")
        return 1 if differences else 0
    if not args.out:
        parser.error("give --out, or --compare")
    records = list(run(args.designs, args.seed))
    text = "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
    Path(args.out).write_text(text, encoding="utf-8")
    print(summary(records), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
