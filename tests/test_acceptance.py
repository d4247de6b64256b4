"""End-to-end acceptance checks for the shipped reference design.

Each test covers one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them all).
"""

import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cqedkit import (
    DispersiveValidityWarning,
    SweepSpec,
    TuneSpec,
    compare_to_epr,
    coupled_spectrum_oracle,
    derive,
    exact_transmon_spectrum,
    notch_separation,
    s21_curve,
    sweep,
    tune,
)
from cqedkit.cli import main
from cqedkit.spectrum import _tridiagonal_matrix
from cqedkit.studio import QUANTITIES

DESIGN = Path(__file__).resolve().parent.parent / "designs" / "qubit_v1.json"


def _finish(criterion: str, failures: list) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if not failures else 'FAIL'}")
    for failure in failures:
        print(f"    - {failure}")
    assert not failures, f"{criterion}: {'; '.join(failures)}"


def _check(failures: list, label: str, value: float, target: float, rel_tol: float) -> None:
    gap = abs(value - target) / abs(target)
    if not gap <= rel_tol:
        failures.append(f"{label}: {value:.6g} vs {target:.6g} (gap {gap:.3%} > {rel_tol:.1%})")


def test_criterion_1_golden_numbers(reference_derived):
    failures: list = []
    q = {name: fn(reference_derived) for name, fn in QUANTITIES.items()}
    _check(failures, "I_c", q["i_c_ampere"], 29.92e-9, 0.001)
    _check(failures, "E_j", q["e_j_hz"], 14.86e9, 0.001)
    _check(failures, "E_c", q["e_c_hz"], 188.80e6, 0.005)
    if not 78.0 <= q["ej_ec_ratio"] <= 80.0:
        failures.append(f"E_j/E_c: {q['ej_ec_ratio']:.3f} outside [78, 80]")
    _check(failures, "C_r", q["c_r_farad"], 499e-15, 0.01)
    _check(failures, "L_r", q["l_r_henry"], 2.03e-9, 0.01)
    _check(failures, "f_01", q["f_01_hz"], 4.55e9, 0.003)
    _check(failures, "detuning", q["abs_detuning_hz"], 457e6, 0.01)
    _check(failures, "g_01", q["g_01_hz"], 47.38e6, 0.01)
    _check(failures, "chi", abs(q["chi_total_hz"]), 1.44e6, 0.02)
    if not q["chi_total_hz"] < 0.0:
        failures.append("chi: expected negative sign")
    _check(failures, "Q", q["q_ext"], 4432.0, 0.05)
    _check(failures, "kappa", q["kappa_hz"], 1.12e6, 0.05)
    _check(failures, "T1", q["t1_seconds"], 13e-6, 0.05)
    _finish("criterion 1 (golden-number reproduction)", failures)


def test_criterion_2_epr_gap_reproduction(reference_derived, capsys):
    failures: list = []
    comparison = compare_to_epr(reference_derived)
    for entry in comparison.entries:
        if abs(entry.gap_percent - entry.expected_percent) > 0.3:
            failures.append(
                f"{entry.quantity} gap {entry.gap_percent:.2f}% vs expected "
                f"{entry.expected_percent:.1f}% (+-0.3pp)"
            )
    exit_code = main(["compare", "--config", str(DESIGN)])
    capsys.readouterr()
    if exit_code != 0:
        failures.append(f"compare exit code {exit_code}, expected 0")
    with capsys.disabled():
        _finish("criterion 2 (EPR-gap reproduction)", failures)


def test_criterion_3_oracle_agreement(reference_derived, capsys):
    failures: list = []
    pert = reference_derived.transmon_perturbative
    exact = reference_derived.transmon_exact
    e_c = reference_derived.lumped.e_c_hz

    gap = abs(exact.f_01_exact_hz - pert.f_01_hz) / exact.f_01_exact_hz
    if not gap < 0.02:
        failures.append(f"f_01 exact-vs-perturbative gap {gap:.3%} >= 2%")
    alpha = exact.anharmonicity_exact_hz
    if not alpha < 0.0:
        failures.append(f"exact anharmonicity {alpha:.6g} not negative")
    # transmon theory (Koch et al. 2007): |alpha| / E_c = 1 + 9 xi / 16
    # + 81 xi^2 / 128 + O(xi^3) with xi = sqrt(2 E_c / E_j), so a fixed
    # upper edge of 1.1 E_c would hold only for E_j/E_c >~ 92
    xi = math.sqrt(2.0 * e_c / reference_derived.lumped.e_j_hz)
    expansion = 1.0 + 9.0 * xi / 16.0 + 81.0 * xi**2 / 128.0
    ratio = abs(alpha) / e_c
    if not ratio >= 1.0:
        failures.append(f"|alpha| = {ratio:.4f} E_c below E_c")
    if not abs(ratio / expansion - 1.0) <= 0.01:
        failures.append(
            f"|alpha| = {ratio:.4f} E_c more than 1% from the xi expansion "
            f"{expansion:.4f} E_c"
        )

    chi_formula = reference_derived.coupling.chi_total_hz
    chi_exact = reference_derived.chi_exact_hz
    if chi_exact is None:
        failures.append("dressed-state oracle did not run")
    else:
        gap = abs(chi_exact - chi_formula) / abs(chi_exact)
        if not gap < 0.10:
            failures.append(f"chi oracle-vs-formula gap {gap:.3%} >= 10%")
        if not (chi_exact < 0.0) == (chi_formula < 0.0):
            failures.append("chi sign mismatch between oracle and formula")

    # truncation stability of both oracles
    wider = exact_transmon_spectrum(
        reference_derived.lumped.e_j_hz, reference_derived.lumped.e_c_hz, 0.0, 30
    )
    drift = abs(wider.f_01_exact_hz - exact.f_01_exact_hz) / wider.f_01_exact_hz
    if not drift < 0.01:
        failures.append(f"charge-basis truncation drift {drift:.3%} >= 1%")
    f_r = reference_derived.lumped.inputs.f_r_target_hertz
    g_01 = reference_derived.coupling.g_01_hz
    larger = coupled_spectrum_oracle(wider, f_r, g_01)
    drift = abs(larger.chi_exact_hz - chi_exact) / abs(larger.chi_exact_hz)
    if not drift < 0.01:
        failures.append(f"dressed-oracle truncation drift {drift:.3%} >= 1%")
    with capsys.disabled():
        _finish("criterion 3 (oracle agreement)", failures)


def test_criterion_4_eigensolver_properties():
    # the solver calls the runtime makes: eigh for the dressed-state oracle,
    # eigvalsh of the tridiagonal builder's matrix for the transmon
    failures: list = []
    rng = np.random.default_rng(2024)
    worst_reconstruction = worst_orthonormality = 0.0
    for index in range(100):
        n = int(rng.integers(2, 201))
        matrix = rng.normal(size=(n, n))
        matrix = (matrix + matrix.T) / 2.0
        w, v = np.linalg.eigh(matrix)
        norm = np.linalg.norm(matrix)
        reconstruction = np.linalg.norm(v @ np.diag(w) @ v.T - matrix) / norm
        orthonormality = np.linalg.norm(v.T @ v - np.eye(n))
        worst_reconstruction = max(worst_reconstruction, reconstruction)
        worst_orthonormality = max(worst_orthonormality, orthonormality)
        if not np.all(np.diff(w) >= 0.0):
            failures.append(f"matrix {index}: eigenvalues not ascending")
    if not worst_reconstruction < 1e-10:
        failures.append(f"worst reconstruction residual {worst_reconstruction:.3e} >= 1e-10")
    if not worst_orthonormality < 1e-10:
        failures.append(f"worst orthonormality residual {worst_orthonormality:.3e} >= 1e-10")

    worst_path_gap = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 201))
        diagonal = rng.normal(size=n)
        off = rng.normal(size=n - 1)
        tri = np.linalg.eigvalsh(_tridiagonal_matrix(diagonal, off))
        dense = np.linalg.eigvalsh(np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1))
        scale = max(1.0, float(np.max(np.abs(dense))))
        gap = float(np.max(np.abs(tri - dense))) / scale
        worst_path_gap = max(worst_path_gap, gap)
    if not worst_path_gap < 1e-9:
        failures.append(f"tridiagonal/dense disagreement {worst_path_gap:.3e} >= 1e-9")
    _finish("criterion 4 (eigensolver property suite)", failures)


def test_criterion_5_spectrum_symmetries(reference_derived):
    failures: list = []
    e_j = reference_derived.lumped.e_j_hz
    e_c = reference_derived.lumped.e_c_hz

    def levels(n_g, cutoff=20):
        return np.array(exact_transmon_spectrum(e_j, e_c, n_g, cutoff).levels_hz[1:])

    for n_g in (0.0, 0.25, 0.5):
        base = levels(n_g)
        for other, label in ((n_g + 1.0, "+1"), (n_g - 1.0, "-1"), (-n_g, "sign flip")):
            drift = float(np.max(np.abs(levels(other) - base) / base))
            if not drift < 1e-6:
                failures.append(f"n_g={n_g} {label}: spectrum drift {drift:.3e} >= 1e-6")

    e_c_h = 0.2e9
    e_j_h = 1e4 * e_c_h
    harmonic = exact_transmon_spectrum(e_j_h, e_c_h, 0.0, 60)
    plasma = math.sqrt(8.0 * e_j_h * e_c_h)
    for m in (1, 2, 3):
        gap = abs(harmonic.levels_hz[m] - m * plasma) / (m * plasma)
        if not gap < 0.01:
            failures.append(f"harmonic level {m}: gap {gap:.3%} >= 1%")
    _finish("criterion 5 (spectrum symmetry suite)", failures)


def test_criterion_6_readout_curves(reference_derived):
    failures: list = []
    coupling = reference_derived.coupling
    ground = s21_curve(coupling, "ground", 20e6, 4001)
    excited = s21_curve(coupling, "excited", 20e6, 4001)

    separation = notch_separation(ground, excited)
    expected = 2.0 * abs(coupling.chi_total_hz)
    _check(failures, "notch separation vs 2|chi|", separation, expected, 0.02)

    for curve in (ground, excited):
        sign = 1.0 if curve.qubit_state == "ground" else -1.0
        f_state = coupling.f_r_loaded_hz + sign * coupling.chi_total_hz
        _check(
            failures,
            f"{curve.qubit_state} FWHM vs f/Q",
            curve.fwhm_hz,
            f_state / coupling.q_ext,
            0.02,
        )
        if not np.max(np.abs(curve.s21)) <= 1.0 + 1e-12:
            failures.append(f"{curve.qubit_state}: |S21| exceeds 1")

    wide = s21_curve(coupling, "ground", 60e6, 6001)
    f_state = coupling.f_r_loaded_hz + coupling.chi_total_hz
    far = np.abs(wide.frequency_hz - f_state) >= 20.0 * coupling.kappa_hz
    if not far.any():
        failures.append("no samples at 20 kappa detuning")
    elif not np.all(np.abs(wide.s21)[far] > 0.99):
        failures.append("|S21| <= 0.99 at >= 20 kappa detuning")
    _finish("criterion 6 (readout curve checks)", failures)


def test_criterion_7_tuning_round_trips(reference_inputs):
    failures: list = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DispersiveValidityWarning)
        result_lj = tune(
            reference_inputs, TuneSpec("l_j_henry", "f_01_hz", 4.55e9, (8e-9, 14e-9))
        )
        result_ck = tune(
            reference_inputs, TuneSpec("c_k_farad", "kappa_hz", 1.12e6, (4e-15, 16e-15))
        )
        _check(failures, "tuned L_j", result_lj.parameter_value, 11e-9, 0.01)
        _check(failures, "tuned C_k", result_ck.parameter_value, 8.62e-15, 0.05)

        for result in (result_lj, result_ck):
            rederived = derive(
                replace(reference_inputs, **{result.parameter: result.parameter_value})
            )
            achieved = QUANTITIES[result.target_quantity](rederived)
            gap = abs(achieved - result.target_value) / abs(result.target_value)
            if not gap <= 1e-6:
                failures.append(
                    f"fixpoint: re-derived {result.target_quantity} off by {gap:.3e}"
                )
    _finish("criterion 7 (tuning round-trips)", failures)


def test_criterion_8_determinism(tmp_path, capsys, reference_inputs):
    failures: list = []
    config = str(DESIGN)

    def run_twice(label, argv, files):
        outputs = []
        for attempt in (1, 2):
            code = main(argv)
            stdout = capsys.readouterr().out
            if code not in (0, 1):
                failures.append(f"{label}: unexpected exit code {code}")
            outputs.append((stdout, [Path(f).read_bytes() for f in files]))
        if outputs[0] != outputs[1]:
            failures.append(f"{label}: two runs differ")

    report = tmp_path / "report.json"
    run_twice("derive", ["derive", "--config", config, "--out", str(report)], [report])
    curve = tmp_path / "curve.csv"
    run_twice(
        "s21",
        ["s21", "--config", config, "--state", "both", "--span-hz", "2e7",
         "--points", "801", "--out", str(curve)],
        [tmp_path / "curve.ground.csv", tmp_path / "curve.excited.csv"],
    )
    sweep_csv = tmp_path / "sweep.csv"
    run_twice(
        "sweep",
        ["sweep", "--config", config, "--param", "c_g_farad", "--from", "2e-15",
         "--to", "8e-15", "--steps", "5", "--emit", "g_01_hz,chi_total_hz",
         "--out", str(sweep_csv)],
        [sweep_csv],
    )
    tuned = tmp_path / "tuned.json"
    run_twice(
        "tune",
        ["tune", "--config", config, "--vary", "l_j_henry", "--target",
         "f_01_hz=4.55e9", "--bracket", "8e-9,14e-9", "--out", str(tuned)],
        [tuned],
    )
    run_twice("compare", ["compare", "--config", config], [])

    spec = SweepSpec("c_g_farad", 1e-15, 9e-15, 9, ("g_01_hz", "chi_total_hz", "kappa_hz"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DispersiveValidityWarning)
        if sweep(reference_inputs, spec, workers=1) != sweep(reference_inputs, spec, workers=4):
            failures.append("parallel sweep differs from sequential sweep")
    with capsys.disabled():
        _finish("criterion 8 (determinism)", failures)
