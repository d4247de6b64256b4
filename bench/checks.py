"""Output checks behind ``failed_share``, and the golden record.

Every check returns a list of problems (empty when the output is right) and
runs outside the timed section. The per-op checks use oracles that share no
code with cqedkit: the closed-form identities, the Mathieu characteristic
values for the exact transmon levels (Koch et al., PRA 76, 042319 (2007),
eq. 2.3), and the excitation-number blocks of the Jaynes-Cummings
Hamiltonian for the dressed dispersive shift.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from collections import Counter
from itertools import islice
from pathlib import Path
from typing import Any

import numpy as np
from scipy.special import mathieu_a, mathieu_b

import cqedkit as ck
from cqedkit import cli

import workloads as wl

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
IDENTITY_RTOL = 1e-12
MATHIEU_RTOL = 1e-9
BLOCK_ORACLE_RTOL = 1e-8
GOLDEN_RTOL = 1e-9
TUNE_RTOL = 1e-6  # TuneSpec's default rel_tol, which every tune op uses
ORACLE_SKIP_RATIO = 5.0  # derive skips the dressed oracle at |detuning| <= 5 g
# qubit_v1 headline numbers at the precision the README prints them
README_NUMBERS = {
    "f_01_hz": 4.5489e9,
    "g_01_hz": 4.7372e7,
    "chi_total_hz": -1.4141e6,
    "chi_exact_hz": -1.4327e6,
}
GOLDEN_DESIGNS = 8
GOLDEN_LOOP_OPS = 2
GOLDEN_READOUT_OPS = 2

_ATTRIBUTES = {
    "e_j_hz": ("lumped", "e_j_hz"),
    "e_c_hz": ("lumped", "e_c_hz"),
    "ej_ec_ratio": ("lumped", "ej_ec_ratio"),
    "c_r_farad": ("lumped", "c_r_farad"),
    "l_r_henry": ("lumped", "l_r_henry"),
    "c_sigma_farad": ("lumped", "c_sigma_farad"),
    "beta": ("lumped", "beta"),
    "f_01_hz": ("transmon_perturbative", "f_01_hz"),
    "f_12_hz": ("transmon_perturbative", "f_12_hz"),
    "anharmonicity_hz": ("transmon_perturbative", "anharmonicity_hz"),
    "f_01_exact_hz": ("transmon_exact", "f_01_exact_hz"),
    "anharmonicity_exact_hz": ("transmon_exact", "anharmonicity_exact_hz"),
    "v_rms_volt": ("coupling", "v_rms_volt"),
    "g_01_hz": ("coupling", "g_01_hz"),
    "detuning_hz": ("coupling", "detuning_0_hz"),
    "chi_01_hz": ("coupling", "chi_01_hz"),
    "chi_12_hz": ("coupling", "chi_12_hz"),
    "chi_total_hz": ("coupling", "chi_total_hz"),
    "q_ext": ("coupling", "q_ext"),
    "kappa_hz": ("coupling", "kappa_hz"),
    "f_r_loaded_hz": ("coupling", "f_r_loaded_hz"),
    "t1_seconds": ("coupling", "t1_purcell_seconds"),
}
ALL_QUANTITIES = wl.CLOSED_FORM_QUANTITIES + wl.EIGEN_QUANTITIES


def quantity(derived: Any, name: str) -> float:
    """A named quantity read from a derived record (the names sweep and tune use)."""
    if name == "i_c_ampere":
        return ck.junction_inductance_to_critical_current(derived.lumped.inputs.l_j_henry)
    if name == "abs_detuning_hz":
        return abs(derived.coupling.detuning_0_hz)
    if name == "chi_exact_hz":
        return math.nan if derived.chi_exact_hz is None else derived.chi_exact_hz
    record, field = _ATTRIBUTES[name]
    return getattr(getattr(derived, record), field)


def _close(value: float, expected: float, rtol: float, scale: float | None = None) -> bool:
    if math.isnan(expected) or math.isinf(expected):
        return value == expected or (math.isnan(value) and math.isnan(expected))
    return abs(value - expected) <= rtol * (abs(expected) if scale is None else scale)


# ---------------------------------------------------------------------------
# per-derive checks


def identity_problems(derived: Any) -> list[str]:
    """f_01 = sqrt(8 E_j E_c) - E_c, chi = chi_01 - chi_12 / 2, kappa = f_loaded / Q_ext."""
    e_j, e_c = derived.lumped.e_j_hz, derived.lumped.e_c_hz
    c = derived.coupling
    problems = []
    if not _close(derived.transmon_perturbative.f_01_hz, math.sqrt(8.0 * e_j * e_c) - e_c, IDENTITY_RTOL):
        problems.append("f_01 != sqrt(8 E_j E_c) - E_c")
    scale = max(abs(c.chi_01_hz), abs(c.chi_12_hz))
    if not _close(c.chi_total_hz, c.chi_01_hz - c.chi_12_hz / 2.0, IDENTITY_RTOL, scale):
        problems.append("chi_total != chi_01 - chi_12 / 2")
    if not _close(c.kappa_hz, c.f_r_loaded_hz / c.q_ext, IDENTITY_RTOL):
        problems.append("kappa != f_loaded / Q_ext")
    return problems


def mathieu_levels(e_j_hz: float, e_c_hz: float) -> list[float]:
    """Lowest five ground-referenced transmon levels at n_g = 0 from Mathieu values."""
    q = e_j_hz / (2.0 * e_c_hz)
    values = sorted(
        [mathieu_a(0, q), mathieu_b(2, q), mathieu_a(2, q), mathieu_b(4, q), mathieu_a(4, q)]
    )
    return [e_c_hz * (v - values[0]) for v in values]


def mathieu_problems(derived: Any) -> list[str]:
    levels = mathieu_levels(derived.lumped.e_j_hz, derived.lumped.e_c_hz)
    exact = derived.transmon_exact
    problems = []
    if not _close(exact.f_01_exact_hz, levels[1], MATHIEU_RTOL):
        problems.append(f"f_01_exact {exact.f_01_exact_hz!r} != Mathieu {levels[1]!r}")
    if not _close(exact.anharmonicity_exact_hz, levels[2] - 2.0 * levels[1], MATHIEU_RTOL):
        problems.append("anharmonicity_exact disagrees with the Mathieu levels")
    return problems


def _dressed(block: np.ndarray, bare: int) -> float:
    values, vectors = np.linalg.eigh(block)
    return float(values[int(np.argmax(np.abs(vectors[bare, :])))])


def block_oracle_chi(f_1: float, f_2: float, f_r: float, g: float) -> float:
    """chi from the one- and two-excitation blocks of the RWA Jaynes-Cummings model."""
    s = math.sqrt(2.0) * g
    one = np.array([[f_r, g], [g, f_1]])  # |0,1>, |1,0>
    two = np.array([[2.0 * f_r, s, 0.0], [s, f_1 + f_r, s], [0.0, s, f_2]])  # |0,2>, |1,1>, |2,0>
    return ((_dressed(two, 1) - _dressed(one, 1)) - _dressed(one, 0)) / 2.0


def oracle_problems(derived: Any) -> list[str]:
    c = derived.coupling
    skip = c.g_01_hz > 0.0 and abs(c.detuning_0_hz) <= ORACLE_SKIP_RATIO * c.g_01_hz
    if derived.chi_exact_hz is None:
        return [] if skip else ["dressed oracle skipped outside |detuning| <= 5 g"]
    if skip:
        return ["dressed oracle ran inside |detuning| <= 5 g"]
    levels = derived.transmon_exact.levels_hz
    chi = block_oracle_chi(levels[1], levels[2], derived.lumped.inputs.f_r_target_hertz, c.g_01_hz)
    if not _close(derived.chi_exact_hz, chi, BLOCK_ORACLE_RTOL):
        return [f"chi_exact {derived.chi_exact_hz!r} != block oracle {chi!r}"]
    return []


def derived_problems(derived: Any, counts: Counter) -> list[str]:
    counts["derives_checked"] += 1
    counts["oracle_skipped"] += derived.chi_exact_hz is None
    return identity_problems(derived) + mathieu_problems(derived) + oracle_problems(derived)


_REPORT_FIELDS = (
    ("lumped", "e_j_hz", "e_j_hz"),
    ("transmon_perturbative", "f_01_hz", "f_01_hz"),
    ("transmon_exact", "f_01_exact_hz", "f_01_exact_hz"),
    ("coupling", "g_01_hz", "g_01_hz"),
    ("coupling", "chi_total_hz", "chi_total_hz"),
    ("coupling", "kappa_hz", "kappa_hz"),
    ("oracle", "chi_exact_hz", "chi_exact_hz"),
)


def report_problems(derived: Any, text: str) -> list[str]:
    """The rendered report parses and carries the derived values at 9 digits."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    for block, key, name in _REPORT_FIELDS:
        value = quantity(derived, name)
        expected = None if math.isnan(value) else float(f"{value:.9g}")
        got = report.get(block, {}).get(key, "missing")
        if got != expected:
            problems.append(f"report {block}.{key} = {got!r}, expected {expected!r}")
    return problems


# ---------------------------------------------------------------------------
# per-op checks, one per workload


def check_batch(item: wl.BatchItem, output: Any, counts: Counter) -> list[str]:
    derived, text = output
    return derived_problems(derived, counts) + report_problems(derived, text)


def sweep_problems(item: wl.LoopItem, swept: Any) -> list[str]:
    spec = item.spec
    if len(swept.rows) != spec.steps:
        return [f"sweep has {len(swept.rows)} rows, expected {spec.steps}"]
    problems = []
    for i, row in enumerate(swept.rows):
        expected = spec.lo + (spec.hi - spec.lo) * i / (spec.steps - 1)
        if row.status != "ok":
            problems.append(f"sweep row {i} is {row.status}: {row.error}")
        elif not _close(row.parameter_value, expected, IDENTITY_RTOL):
            problems.append(f"sweep row {i} parameter {row.parameter_value!r} != grid {expected!r}")
        elif tuple(row.outputs) != spec.outputs:
            problems.append(f"sweep row {i} emits {tuple(row.outputs)}, expected {spec.outputs}")
        elif any(not math.isfinite(v) for k, v in row.outputs.items() if k != "chi_exact_hz"):
            problems.append(f"sweep row {i} has a non-finite closed-form value")
    if problems:
        return problems[:3]
    # every tune quantity is strictly monotone in its parameter
    values = [row.outputs[item.tune_quantity] for row in swept.rows]
    steps = [b - a for a, b in zip(values, values[1:])]
    if not (all(s > 0 for s in steps) or all(s < 0 for s in steps)):
        return [f"sweep of {item.tune_quantity} is not strictly monotone"]
    return []


def tune_problems(item: wl.LoopItem, swept: Any, tuned: Any, counts: Counter) -> list[str]:
    spec = item.spec
    target = swept.rows[item.target_index].outputs[item.tune_quantity]
    problems = []
    if not _close(tuned.achieved_value, target, TUNE_RTOL):
        problems.append(f"tune missed rel_tol: {tuned.achieved_value!r} vs target {target!r}")
    if not _close(quantity(tuned.derived, item.tune_quantity), tuned.achieved_value, IDENTITY_RTOL):
        problems.append("tuned design does not give the achieved value")
    if getattr(tuned.derived.lumped.inputs, spec.parameter) != tuned.parameter_value:
        problems.append("tuned design does not carry the tuned parameter value")
    step = (spec.hi - spec.lo) / (spec.steps - 1)
    if abs(tuned.parameter_value - swept.rows[item.target_index].parameter_value) > 1.5 * step:
        problems.append("tuned parameter is not next to the grid point the target came from")
    return problems + derived_problems(tuned.derived, counts)


def check_loop(item: wl.LoopItem, output: Any, counts: Counter) -> list[str]:
    swept, tuned = output
    counts["eigen_emit_ops"] += item.needs_eigen
    counts["sweep_error_rows"] += sum(row.status != "ok" for row in swept.rows)
    counts["tune_iterations"] += tuned.iterations
    return sweep_problems(item, swept) + tune_problems(item, swept, tuned, counts)


def csv_problems(path: Path, curve: Any) -> list[str]:
    """The CSV parses, matches the curve to its printed precision, and abs = |re + i im|."""
    try:
        lines = path.read_text(encoding="ascii").split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        return [f"{path.name}: cannot read: {exc}"]
    if lines[0] != "frequency_hz,re_s21,im_s21,abs_s21" or lines[-1] != "":
        return [f"{path.name}: bad header or missing final newline"]
    rows = lines[1:-1]
    if len(rows) != curve.frequency_hz.shape[0]:
        return [f"{path.name}: {len(rows)} rows, expected {curve.frequency_hz.shape[0]}"]
    try:
        table = np.array(",".join(rows).split(","), dtype=float).reshape(-1, 4)
    except ValueError as exc:
        return [f"{path.name}: does not parse: {exc}"]
    freq, re, im, mag = table.T
    problems = []
    if not np.all(np.diff(freq) > 0.0):
        problems.append(f"{path.name}: frequencies not ascending")
    if np.max(np.abs(freq - curve.frequency_hz)) > 2e-6:
        problems.append(f"{path.name}: frequencies differ from the curve")
    # values are printed with 9 decimals: each is within half a unit of the last
    # digit, plus a few ulps for parsing and for abs() of a scalar against np.abs
    for column, values, exact in (
        ("re", re, curve.s21.real),
        ("im", im, curve.s21.imag),
        ("abs", mag, np.abs(curve.s21)),
    ):
        if np.max(np.abs(values - exact)) > 5e-10 + 1e-15:
            problems.append(f"{path.name}: {column}_s21 differs from the curve")
    if np.max(np.abs(np.hypot(re, im) - mag)) > 1.5e-9:
        problems.append(f"{path.name}: abs_s21 != |re + i im|")
    return problems


def check_readout(item: wl.ReadoutItem, output: Any, counts: Counter) -> list[str]:
    derived, ground, excited, separation = output
    counts["points"] += item.n_points
    counts["csv_files"] += 2
    counts["csv_bytes"] += sum(p.stat().st_size for p in (item.ground_csv, item.excited_csv))
    problems = derived_problems(derived, counts)
    problems += csv_problems(item.ground_csv, ground) + csv_problems(item.excited_csv, excited)
    # both notches lie well inside the span, so the refined minima resolve 2 chi
    step = item.span_hz / (item.n_points - 1)
    if abs(separation - 2.0 * abs(derived.coupling.chi_total_hz)) > 2.0 * step:
        problems.append(f"notch separation {separation!r} is not 2 |chi_total|")
    return problems


CHECKS = {"design_batch": check_batch, "design_loop": check_loop, "readout": check_readout}


# ---------------------------------------------------------------------------
# golden record: default-seed outputs recorded at the benchmark's first commit


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli_sweep_csv(item: wl.LoopItem, out_dir: Path, index: int) -> Path:
    config = out_dir / f"golden_design_{index}.json"
    config.write_text(json.dumps(ck.design_to_dict(item.design)), encoding="utf-8")
    out = out_dir / f"golden_sweep_{index}.csv"
    argv = [
        "sweep", "--config", str(config), "--param", item.spec.parameter,
        "--from", repr(item.spec.lo), "--to", repr(item.spec.hi),
        "--steps", str(item.spec.steps), "--emit", ",".join(item.spec.outputs),
        "--out", str(out),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"cqedkit sweep exited {code}")
    return out


def golden_snapshot(out_dir: Path) -> dict[str, Any]:
    """The values the golden record holds, computed by the code under test."""
    seed = wl.DEFAULT_SEED
    designs = [item.design for item in islice(wl.batch_items(seed, out_dir), GOLDEN_DESIGNS)]
    quantities = []
    for design in designs:
        derived = ck.derive(design)
        quantities.append({name: quantity(derived, name) for name in ALL_QUANTITIES})
    loop = islice(wl.loop_items(seed, out_dir), GOLDEN_LOOP_OPS)
    sweep_digests = [_sha256(_cli_sweep_csv(item, out_dir, i)) for i, item in enumerate(loop)]
    readout_digests = []
    for item in islice(wl.readout_items(seed, out_dir), GOLDEN_READOUT_OPS):
        wl.readout_op(item)
        readout_digests.append([_sha256(item.ground_csv), _sha256(item.excited_csv)])
    reference = ck.derive(wl.base_design())
    return {
        "seed": seed,
        "qubit_v1": {name: quantity(reference, name) for name in README_NUMBERS},
        "design_batch_quantities": quantities,
        "design_loop_sweep_csv_sha256": sweep_digests,
        "readout_csv_sha256": readout_digests,
    }


def golden_problems(snapshot: dict[str, Any], recorded: dict[str, Any]) -> list[str]:
    problems = []
    for name, expected in README_NUMBERS.items():
        value = snapshot["qubit_v1"][name]
        if float(f"{value:.5g}") != expected:
            problems.append(f"qubit_v1 {name} = {value:.5g}, README gives {expected:.5g}")
    for i, (now, then) in enumerate(
        zip(snapshot["design_batch_quantities"], recorded["design_batch_quantities"], strict=True)
    ):
        for name, expected in then.items():
            if not _close(now[name], expected, GOLDEN_RTOL):
                problems.append(f"golden design {i}: {name} = {now[name]!r}, recorded {expected!r}")
    for key in ("design_loop_sweep_csv_sha256", "readout_csv_sha256"):
        if snapshot[key] != recorded[key]:
            problems.append(f"{key} differs from the recorded digests")
    return problems


def load_golden() -> dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
