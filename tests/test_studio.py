import collections
import hashlib
import itertools
import json
import linecache
import math
import random
import re
import sys
import time
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqedkit import (
    BracketingError,
    ConvergenceError,
    ConvergenceWarning,
    DesignInputs,
    DispersiveValidityWarning,
    DomainError,
    EprReference,
    LabelingError,
    SweepSpec,
    TuneSpec,
    compare_to_epr,
    coupled_spectrum_oracle,
    derive,
    design_from_dict,
    design_to_dict,
    ej_to_junction_inductance,
    exact_transmon_spectrum,
    input_digest,
    load_design,
    load_reference_design,
    render_report,
    sweep,
    tune,
)
from cqedkit import studio
from cqedkit.cli import main
from cqedkit.lumped import MAX_GEOMETRY_CONTAINERS, MAX_GEOMETRY_DEPTH
from cqedkit.studio import (
    EXPECTED_EPR_GAPS_PERCENT,
    MAX_SWEEP_STEPS,
    QUANTITIES,
    REFERENCE_TARGETS,
    SWEEPABLE_PARAMETERS,
    _json,
    _report_tree,
    render_tune_report,
    sweep_csv_lines,
)

REFERENCE_DESIGN = Path(__file__).resolve().parent.parent / "designs" / "qubit_v1.json"

# frozen pipeline outputs for the reference design (qubit_v1)
GOLDEN = {
    "i_c_ampere": 2.9918725315950304e-08,
    "e_j_hz": 14860137527.889196,
    "e_c_hz": 188812060.87005678,
    "f_01_hz": 4548928490.450355,
    "detuning_hz": -461071509.5496454,
    "g_01_hz": 47372196.76796313,
    "chi_total_hz": -1414076.6030755676,
    "q_ext": 4378.586696298506,
    "kappa_hz": 1134450.0144026384,
    "t1_seconds": 1.3176676517963945e-05,
    "f_01_exact_hz": 4540478237.337647,
    "anharmonicity_exact_hz": -209707663.82550812,
    "chi_exact_hz": -1432681.1356039047,
}
# gaps between the analytic chain and the shipped EPR reference, frozen
GAPS = {"f_01": 2.6144286660039446, "f_r": 3.1936127744510974,
        "alpha": 2.4457860947354177, "chi": 3.1169883569039007}


def _quiet_derive(inputs, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DispersiveValidityWarning)
        return derive(inputs, **kwargs)


def test_reference_design_file_matches_package_data(reference_inputs):
    assert design_to_dict(reference_inputs) == design_to_dict(load_reference_design())


def test_derive_reference_pipeline(reference_derived):
    for name, expected in GOLDEN.items():
        assert QUANTITIES[name](reference_derived) == pytest.approx(expected, rel=1e-9), name
    assert reference_derived.coupling.readable
    assert reference_derived.lumped.in_transmon_regime
    provenance = json.loads(render_report(reference_derived))["provenance"]
    assert provenance["tool"] == "cqedkit"
    assert provenance["input_sha256"] == input_digest(reference_derived.lumped.inputs)


def test_derive_decoupled_variant(reference_inputs):
    decoupled = _quiet_derive(replace(reference_inputs, c_g_farad=0.0))
    assert decoupled.coupling.g_01_hz == 0.0
    assert decoupled.coupling.chi_total_hz == 0.0
    assert math.isinf(decoupled.coupling.t1_purcell_seconds)
    assert not decoupled.coupling.readable
    assert decoupled.chi_exact_hz == pytest.approx(0.0, abs=1e-3)


def test_derive_near_degenerate_variant_warns_and_skips_oracle(reference_inputs):
    # junction inductance that parks the qubit ~3 g above the resonator
    e_c = 188812060.87005678
    f_target = reference_inputs.f_r_target_hertz + 1.5e8
    e_j = (f_target + e_c) ** 2 / (8.0 * e_c)
    inputs = replace(reference_inputs, l_j_henry=ej_to_junction_inductance(e_j))
    with pytest.warns(DispersiveValidityWarning):
        derived = derive(inputs)
    assert derived.chi_exact_hz is None
    assert abs(derived.coupling.detuning_0_hz) < 5.0 * derived.coupling.g_01_hz


def test_compare_to_epr_reference_gaps(reference_derived, monkeypatch):
    comparison = compare_to_epr(reference_derived)
    gaps = {entry.quantity: entry.gap_percent for entry in comparison}
    for name, expected in GAPS.items():
        assert gaps[name] == pytest.approx(expected, abs=1e-6), name
    within = {entry.quantity: entry.within_expected for entry in comparison}
    assert within == {"f_01": True, "f_r": True, "alpha": True, "chi": True}
    assert all(entry.within_expected for entry in comparison)
    # the paper's printed 4.9% chi gap is 1.8 pp from the chain's 3.12%
    monkeypatch.setitem(EXPECTED_EPR_GAPS_PERCENT, "chi", 4.9)
    comparison = compare_to_epr(reference_derived)
    within = {entry.quantity: entry.within_expected for entry in comparison}
    assert within == {"f_01": True, "f_r": True, "alpha": True, "chi": False}
    assert not all(entry.within_expected for entry in comparison)


def test_compare_to_matching_reference_gives_zero_gaps(reference_derived, monkeypatch):
    synthetic = EprReference(
        f_01_hz=reference_derived.transmon_perturbative.f_01_hz,
        f_r_hz=reference_derived.lumped.inputs.f_r_target_hertz,
        alpha_hz=reference_derived.transmon_perturbative.anharmonicity_hz,
        chi_hz=reference_derived.coupling.chi_total_hz,
    )
    monkeypatch.setattr("cqedkit.studio.EPR_REFERENCE", synthetic)
    comparison = compare_to_epr(reference_derived)
    assert all(entry.gap_percent == 0.0 for entry in comparison)


def test_alpha_gap_uses_charging_energy(reference_derived):
    entry = next(
        e for e in compare_to_epr(reference_derived) if e.quantity == "alpha"
    )
    e_c = reference_derived.lumped.e_c_hz
    assert entry.gap_percent == pytest.approx(
        abs(e_c - 193.43e6) / e_c * 100.0, rel=1e-12
    )


# --- sweeps ------------------------------------------------------------------


def test_sweep_coupling_capacitance_monotone(reference_inputs):
    spec = SweepSpec("c_g_farad", 2e-15, 8e-15, 7, ("g_01_hz", "chi_total_hz"))
    result = sweep(reference_inputs, spec)
    values = [row.outputs["g_01_hz"] for row in result.rows]
    assert all(row.status == "ok" for row in result.rows)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_sweep_junction_inductance_monotone(reference_inputs):
    spec = SweepSpec("l_j_henry", 8e-9, 14e-9, 7, ("f_01_hz",))
    result = sweep(reference_inputs, spec)
    values = [row.outputs["f_01_hz"] for row in result.rows]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_single_point_sweep_equals_derive(reference_inputs, reference_derived):
    spec = SweepSpec("l_j_henry", 11e-9, 11e-9, 1, ("f_01_hz", "chi_total_hz"))
    result = sweep(reference_inputs, spec)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.outputs["f_01_hz"] == reference_derived.transmon_perturbative.f_01_hz
    assert row.outputs["chi_total_hz"] == reference_derived.coupling.chi_total_hz


def test_sweep_rows_match_standalone_derive(reference_inputs):
    spec = SweepSpec("c_k_farad", 6e-15, 10e-15, 3, ("kappa_hz", "q_ext"))
    result = sweep(reference_inputs, spec)
    for row in result.rows:
        derived = _quiet_derive(replace(reference_inputs, c_k_farad=row.parameter_value))
        assert row.outputs["kappa_hz"] == derived.coupling.kappa_hz
        assert row.outputs["q_ext"] == derived.coupling.q_ext


def test_sweep_parallel_equals_sequential(reference_inputs):
    spec = SweepSpec("c_g_farad", 1e-15, 9e-15, 9, ("g_01_hz", "chi_total_hz", "t1_seconds"))
    sequential = sweep(reference_inputs, spec, workers=1)
    parallel = sweep(reference_inputs, spec, workers=4)
    assert sequential == parallel


def test_sweep_rejects_nonpositive_workers(reference_inputs):
    spec = SweepSpec("c_g_farad", 1e-15, 9e-15, 3, ("g_01_hz",))
    with pytest.raises(DomainError):
        sweep(reference_inputs, spec, workers=0)


def test_sweep_flags_failing_rows_and_continues(reference_inputs):
    # negative coupling capacitance is rejected by input validation
    spec = SweepSpec("c_g_farad", -2e-15, 4e-15, 3, ("g_01_hz",))
    result = sweep(reference_inputs, spec)
    statuses = [row.status for row in result.rows]
    assert statuses == ["error", "ok", "ok"]  # -2, 1, 4 fF
    assert "DomainError" in result.rows[0].error
    csv = sweep_csv_lines(result)
    assert csv[0] == "c_g_farad,g_01_hz,status,error"
    assert csv[1].startswith("-2e-15,,error,")


def test_sweep_spec_validation():
    with pytest.raises(DomainError):
        SweepSpec("c_x_farad", 1e-15, 2e-15, 3, ("g_01_hz",))
    with pytest.raises(DomainError):
        SweepSpec("c_g_farad", 1e-15, 2e-15, 3, ("nonsense",))
    with pytest.raises(DomainError):
        SweepSpec("c_g_farad", 2e-15, 1e-15, 3, ("g_01_hz",))
    with pytest.raises(DomainError):
        SweepSpec("c_g_farad", 1e-15, 2e-15, 1, ("g_01_hz",))
    # the largest sweep is built, not run
    SweepSpec("c_g_farad", 1e-15, 2e-15, MAX_SWEEP_STEPS, ("g_01_hz",))
    with pytest.raises(DomainError, match=f"^sweep takes at most {MAX_SWEEP_STEPS} steps"):
        SweepSpec("c_g_farad", 1e-15, 2e-15, MAX_SWEEP_STEPS + 1, ("g_01_hz",))


# --- tuning ------------------------------------------------------------------


def test_tune_junction_inductance_for_qubit_frequency(reference_inputs):
    spec = TuneSpec("l_j_henry", "f_01_hz", 4.55e9, (8e-9, 14e-9))
    result = tune(reference_inputs, spec)
    assert result.parameter_value == pytest.approx(11e-9, rel=1e-2)
    assert result.achieved_value == pytest.approx(4.55e9, rel=1e-6)
    # fixpoint: deriving at the tuned value reproduces the achieved target
    derived = _quiet_derive(replace(reference_inputs, l_j_henry=result.parameter_value))
    assert derived.transmon_perturbative.f_01_hz == result.achieved_value


def test_tune_coupler_for_linewidth(reference_inputs):
    spec = TuneSpec("c_k_farad", "kappa_hz", 1.12e6, (4e-15, 16e-15))
    result = tune(reference_inputs, spec)
    assert result.parameter_value == pytest.approx(8.62e-15, rel=5e-2)
    assert result.achieved_value == pytest.approx(1.12e6, rel=1e-6)


def test_tune_returns_endpoint_when_target_already_met(reference_inputs):
    f_at_8nh = QUANTITIES["f_01_hz"](_quiet_derive(replace(reference_inputs, l_j_henry=8e-9)))
    spec = TuneSpec("l_j_henry", "f_01_hz", f_at_8nh, (8e-9, 14e-9))
    result = tune(reference_inputs, spec)
    assert result.parameter_value == 8e-9
    assert result.iterations == 0


def test_tune_rejects_non_straddling_bracket(reference_inputs):
    spec = TuneSpec("l_j_henry", "f_01_hz", 9.9e9, (8e-9, 14e-9))
    with pytest.raises(BracketingError, match="f_01_hz"):
        tune(reference_inputs, spec)


def test_tune_stops_when_the_bracket_cannot_shrink(reference_inputs, monkeypatch):
    # chi_total jumps across its pole at f_12 = f_r inside this bracket; no
    # step lands on the pole, so the bracket closes on two adjacent
    # floats where chi_total changes sign without reaching the target
    inputs = replace(reference_inputs, f_r_target_hertz=4.911757023241299e9)
    spec = TuneSpec(
        "l_j_henry",
        "chi_total_hz",
        22532054.654109553,
        (7.768745354660712e-9, 9.4711129791358e-9),
    )
    calls = []

    def counting_derive(design, **kwargs):
        calls.append(design.l_j_henry)
        return _quiet_derive(design, **kwargs)

    monkeypatch.setattr(studio, "derive", counting_derive)
    with pytest.raises(ConvergenceError, match="between adjacent l_j_henry values"):
        tune(inputs, spec)
    assert len(calls) < 60
    assert len(set(calls)) == len(calls)


# quantities strictly monotone in each parameter around qubit_v1
_MONOTONE_TUNES = {
    "l_j_henry": ("f_01_hz", "e_j_hz", "i_c_ampere", "f_01_exact_hz"),
    "c_s_farad": ("e_c_hz", "f_01_hz", "beta", "ej_ec_ratio"),
    "c_g_farad": ("beta", "g_01_hz", "e_c_hz"),
    "c_k_farad": ("kappa_hz", "q_ext", "f_r_loaded_hz"),
    "f_r_target_hertz": ("c_r_farad", "v_rms_volt", "f_r_loaded_hz"),
}


def test_monotone_tunes_take_few_derives(reference_inputs, monkeypatch):
    # bisection took 12-22 derives on these; the interpolating steps take at
    # most 8, the full derive of the tuned design included
    rng = random.Random(2020)
    counts = []
    for _ in range(60):
        vary = rng.choice(sorted(_MONOTONE_TUNES))
        quantity = rng.choice(_MONOTONE_TUNES[vary])
        base = getattr(reference_inputs, vary)
        bracket = (base * rng.uniform(0.7, 0.99), base * rng.uniform(1.01, 1.3))
        at = replace(reference_inputs, **{vary: rng.uniform(*bracket)})
        target = QUANTITIES[quantity](_quiet_derive(at))
        calls = []

        def counting_derive(design, **kwargs):
            calls.append(design)
            return _quiet_derive(design, **kwargs)

        monkeypatch.setattr(studio, "derive", counting_derive)
        result = tune(reference_inputs, TuneSpec(vary, quantity, target, bracket))
        monkeypatch.undo()
        assert abs(result.achieved_value - target) <= 1e-6 * abs(target)
        counts.append(len(calls))
    assert max(counts) <= 8, counts


def test_a_step_lands_clear_of_both_ends_of_the_bracket():
    # the secant root lies 2e-16 of the way in from either end; a step that
    # close would move an end by an ulp, and the clamp keeps it 4 ulp of 2.0 in
    eps = sys.float_info.epsilon
    assert studio._chandrupatla_step(1.0, 2e-16, 2.0, -1.0, math.nan, math.nan) == 1.0 + 4 * eps
    assert studio._chandrupatla_step(2.0, 2e-16, 1.0, -1.0, math.nan, math.nan) == 2.0 - 4 * eps
    assert studio._chandrupatla_step(1.0, 1.0, 2.0, -2e-16, math.nan, math.nan) == 2.0 - 4 * eps
    # within a few ulp the step is the midpoint, and at adjacent floats there is none
    step = studio._chandrupatla_step
    assert step(1.0, 1.0, 1.0 + 4 * eps, -1.0, math.nan, math.nan) == 1.0 + 2 * eps
    assert step(1.0, 1.0, 1.0 + eps, -1.0, math.nan, math.nan) is None


@pytest.mark.parametrize("bracket", [(10e-9, 30e-9), (1e-9, 11.5e-9), (5e-9, 100e-9)])
def test_tune_keeps_stepping_where_the_slope_jumps_at_the_root(
    reference_inputs, monkeypatch, bracket
):
    # the slope drops 1e6-fold at the root, so the inverse quadratic through the
    # last points keeps passing Chandrupatla's test while it lands far from the
    # root; bisection takes 18 to 23 steps to 1e-12 here
    root = 11e-9

    def kinked(design):
        x = (design.l_j_henry - root) / root
        return 1.0 + (x if x < 0 else 1e-6 * x)

    monkeypatch.setitem(QUANTITIES, "f_01_hz", kinked)
    monkeypatch.setattr(studio, "derive", lambda design, **kwargs: design)
    result = tune(reference_inputs, TuneSpec("l_j_henry", "f_01_hz", 1.0, bracket, 1e-12))
    assert abs(result.achieved_value - 1.0) <= 1e-12
    assert result.iterations <= 32


# --- stages each quantity needs -------------------------------------------------

# c_g_farad from 0 to 3x qubit_v1: g = 0, the dispersive regime, and a point
# inside |detuning| < 5 g where derive skips the dressed-state oracle
_CG_GRID = ("c_g_farad", 0.0, 13.2e-15, 4)


@pytest.mark.parametrize("name", sorted(QUANTITIES))
def test_sweep_row_equals_full_derive_bit_for_bit(reference_inputs, name):
    rows = sweep(reference_inputs, SweepSpec(*_CG_GRID, (name,))).rows
    for row in rows:
        full = _quiet_derive(replace(reference_inputs, c_g_farad=row.parameter_value))
        assert row.outputs[name].hex() == QUANTITIES[name](full).hex(), row.parameter_value
    if name == "chi_exact_hz":
        assert math.isnan(rows[-1].outputs[name]) and math.isfinite(rows[1].outputs[name])


def _count_eigen_stages(monkeypatch, oracle=coupled_spectrum_oracle):
    calls = {"spectrum": 0, "oracle": 0}

    def spectrum(*args):
        calls["spectrum"] += 1
        return exact_transmon_spectrum(*args)

    def counted_oracle(*args):
        calls["oracle"] += 1
        return oracle(*args)

    monkeypatch.setattr(studio, "exact_transmon_spectrum", spectrum)
    monkeypatch.setattr(studio, "coupled_spectrum_oracle", counted_oracle)
    return calls


def _count_solved_rows(monkeypatch):
    """Rows each eigen stage solves: the exact spectra a sweep's batch stacks
    into ``eigvalsh`` (two parity blocks each) and the oracle matrices it
    stacks into ``eigh``, and apart from them the single solves of the row
    ``sweep`` derives as a check: ``exact_transmon_spectrum``, whose two
    blocks ``eigvalsh`` also sees, and the oracle's one matrix."""
    stacked = {"spectrum": 0, "oracle": 0}
    single = {"spectrum": 0, "oracle": 0}
    solve_spectra, solve_oracles = np.linalg.eigvalsh, np.linalg.eigh

    def spectra(matrices):
        stacked["spectrum"] += len(matrices) // 2
        return solve_spectra(matrices)

    def spectrum(*args):
        single["spectrum"] += 1
        stacked["spectrum"] -= 1
        return exact_transmon_spectrum(*args)

    def oracles(matrices):
        if matrices.ndim == 3:
            stacked["oracle"] += len(matrices)
        else:
            single["oracle"] += 1
        return solve_oracles(matrices)

    monkeypatch.setattr(np.linalg, "eigvalsh", spectra)
    monkeypatch.setattr(studio, "exact_transmon_spectrum", spectrum)
    monkeypatch.setattr(np.linalg, "eigh", oracles)
    return stacked, single


@pytest.mark.parametrize(
    ("outputs", "expected"),
    [
        (("f_01_hz", "g_01_hz", "chi_total_hz"), {"spectrum": 0, "oracle": 0}),
        (("f_01_exact_hz", "kappa_hz"), {"spectrum": 4, "oracle": 0}),
        (("anharmonicity_exact_hz",), {"spectrum": 4, "oracle": 0}),
        # the last grid point lies inside |detuning| < 5 g
        (("chi_exact_hz",), {"spectrum": 4, "oracle": 3}),
        # each name alone: the spectrum for the three exact names, the oracle for chi
        *(
            ((name,), {
                "spectrum": 4 if name.endswith("_exact_hz") else 0,
                "oracle": 3 if name == "chi_exact_hz" else 0,
            })
            for name in sorted(QUANTITIES)
        ),
    ],
)
def test_sweep_runs_only_the_stages_its_outputs_need(
    reference_inputs, monkeypatch, outputs, expected
):
    stacked, single = _count_solved_rows(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DispersiveValidityWarning)
        rows = sweep(reference_inputs, SweepSpec(*_CG_GRID, outputs)).rows
    assert all(row.status == "ok" for row in rows)
    assert stacked == expected
    assert single == {"spectrum": 0, "oracle": 0}


@pytest.mark.parametrize(
    ("parameter", "expected"),
    [
        # c_k_farad enters neither eigen stage, f_r_target_hertz only the oracle
        ("c_k_farad", {"spectrum": 1, "oracle": 1}),
        ("f_r_target_hertz", {"spectrum": 1, "oracle": 4}),
        ("l_j_henry", {"spectrum": 4, "oracle": 4}),
    ],
)
def test_sweep_solves_each_eigen_stage_once_per_distinct_input(
    reference_inputs, monkeypatch, parameter, expected
):
    base = getattr(reference_inputs, parameter)
    spec = SweepSpec(parameter, 0.98 * base, 1.02 * base, 4, tuple(sorted(QUANTITIES)))
    stacked, single = _count_solved_rows(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DispersiveValidityWarning)
        rows = sweep(reference_inputs, spec).rows
    assert stacked == expected
    assert single == {"spectrum": 0, "oracle": 0}
    monkeypatch.undo()
    for row in rows:
        full = _quiet_derive(replace(reference_inputs, **{parameter: row.parameter_value}))
        for name in spec.outputs:
            assert row.outputs[name].hex() == QUANTITIES[name](full).hex(), (name, row)


def test_sweep_warns_once_for_a_reused_exact_solve(reference_inputs):
    # the unconverged design of the test below, swept where E_j and E_c stay put
    design = replace(reference_inputs, c_s_farad=5.0e16)
    spec = SweepSpec("c_k_farad", 1e-15, 2e-15, 3, ("f_01_exact_hz",))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = sweep(design, spec).rows
    assert [row.status for row in rows] == ["ok"] * 3
    assert len({row.outputs["f_01_exact_hz"] for row in rows}) == 1
    assert sum(issubclass(w.category, ConvergenceWarning) for w in caught) == 1


def test_derive_rejects_unknown_quantity(reference_inputs):
    with pytest.raises(DomainError, match="unknown quantity 'nonsense'"):
        derive(reference_inputs, quantities=("f_01_hz", "nonsense"))


@pytest.mark.parametrize("target", ["f_01_hz", "f_01_exact_hz", "chi_exact_hz"])
def test_tune_result_is_the_full_derive_at_the_tuned_value(reference_inputs, monkeypatch, target):
    value = QUANTITIES[target](_quiet_derive(replace(reference_inputs, l_j_henry=11.3e-9)))
    calls = _count_eigen_stages(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DispersiveValidityWarning)
        result = tune(reference_inputs, TuneSpec("l_j_henry", target, value, (10.8e-9, 12e-9)))
    steps = result.iterations + 2
    # every step runs the target's stages, and the full derive at the tuned
    # value reuses what its step solved
    assert calls == {
        "f_01_hz": {"spectrum": 1, "oracle": 1},
        "f_01_exact_hz": {"spectrum": steps, "oracle": 1},
        "chi_exact_hz": {"spectrum": steps, "oracle": steps},
    }[target]
    monkeypatch.undo()
    full = _quiet_derive(replace(reference_inputs, l_j_henry=result.parameter_value))
    assert result.derived == full
    assert render_tune_report(result) == render_tune_report(replace(result, derived=full))


def test_closed_form_tune_survives_an_oracle_failure_at_a_step(reference_inputs, monkeypatch):
    spec = TuneSpec("l_j_henry", "f_01_hz", 4.55e9, (8e-9, 14e-9))
    expected = tune(reference_inputs, spec)
    tuned_g = expected.derived.coupling.g_01_hz

    def oracle(exact, f_r, g_01):
        if g_01 != tuned_g:
            raise LabelingError(
                "no dressed state has dominant overlap with bare state(s) [(1, 1)]"
            )
        return coupled_spectrum_oracle(exact, f_r, g_01)

    calls = _count_eigen_stages(monkeypatch, oracle)
    # a full derive at any step but the last fails in the oracle
    with pytest.raises(LabelingError, match="^dressed-state oracle: no dressed state"):
        _quiet_derive(replace(reference_inputs, l_j_henry=11e-9))
    calls["oracle"] = 0
    assert tune(reference_inputs, spec) == expected
    assert calls["oracle"] == 1
    chi_spec = replace(spec, target_quantity="chi_exact_hz", target_value=-1.43e6)
    with pytest.raises(LabelingError):
        tune(reference_inputs, chi_spec)


def test_tune_refuses_an_undefined_target_at_an_endpoint(reference_inputs):
    # the oracle is skipped at l_j = 10 nH (|detuning| < 5 g), so chi_exact_hz is NaN
    spec = TuneSpec("l_j_henry", "chi_exact_hz", -1147451.08, (10e-9, 12e-9))
    with warnings.catch_warnings(), pytest.raises(ConvergenceError) as caught:
        warnings.simplefilter("ignore", DispersiveValidityWarning)
        tune(reference_inputs, spec)
    assert str(caught.value) == "chi_exact_hz is undefined at l_j_henry = 1e-08"


def test_tune_refuses_an_undefined_target_at_an_interpolated_step(reference_inputs, monkeypatch):
    spec = TuneSpec("l_j_henry", "chi_exact_hz", -1.43e6, (11e-9, 13e-9))
    calls = []
    values = []

    def oracle(exact, f_r, g_01):
        calls.append(g_01)
        result = coupled_spectrum_oracle(exact, f_r, g_01)
        return replace(result, chi_exact_hz=math.nan) if len(calls) == 4 else result

    def recording_derive(design, **kwargs):
        values.append(design.l_j_henry)
        return derive(design, **kwargs)

    monkeypatch.setattr(studio, "coupled_spectrum_oracle", oracle)
    monkeypatch.setattr(studio, "derive", recording_derive)
    with warnings.catch_warnings(), pytest.raises(ConvergenceError) as caught:
        warnings.simplefilter("ignore", DispersiveValidityWarning)
        tune(reference_inputs, spec)
    # the endpoints, the secant step, then the NaN at the second interior step,
    # which interpolates: it is the midpoint of neither bracket it could halve
    assert len(calls) == len(values) == 4
    assert values[3] not in (0.5 * (values[2] + 11e-9), 0.5 * (values[2] + 13e-9))
    assert str(caught.value) == f"chi_exact_hz is undefined at l_j_henry = {values[3]!r}"


def test_closed_form_sweep_skips_the_unconverged_exact_solve(reference_inputs):
    # E_j/E_c near 1e13 needs a charge cutoff beyond the 200 the solver allows
    spec = SweepSpec("c_s_farad", 5.0e16, 5.36e16, 2, ("f_01_hz",))
    for outputs, warned in ((("f_01_hz",), False), (("f_01_hz", "f_01_exact_hz"), True)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = sweep(reference_inputs, replace(spec, outputs=outputs)).rows
        assert [row.status for row in rows] == ["ok", "ok"]
        convergence = [w for w in caught if issubclass(w.category, ConvergenceWarning)]
        assert len(convergence) == (2 if warned else 0)


def test_report_refuses_a_partial_derivation(reference_inputs):
    for quantities, stage in (
        ((), "exact diagonalization"),
        (("f_01_exact_hz",), "dressed-state oracle"),
    ):
        derived = _quiet_derive(reference_inputs, quantities=quantities)
        tuned = studio.TuneResult("l_j_henry", 11e-9, "f_01_hz", 4.55e9, 4.55e9, 0, derived)
        message = f"^cannot report a partial derivation: the {stage} stage did not run$"
        for render, result in ((render_report, derived), (render_tune_report, tuned)):
            with pytest.raises(DomainError, match=message):
                render(result)
    # inside |detuning| < 5 g the oracle does not run in a full derive either
    near = replace(reference_inputs, c_g_farad=13.2e-15)
    partial = _quiet_derive(near, quantities=("f_01_exact_hz",))
    assert partial == _quiet_derive(near)
    assert render_report(partial) == render_report(_quiet_derive(near))


def test_tune_gives_up_after_the_iteration_cap(reference_inputs, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(studio, "TUNE_MAX_ITERATIONS", 3)
    spec = TuneSpec("l_j_henry", "f_01_hz", 4.55e9, (8e-9, 14e-9))
    with pytest.raises(ConvergenceError, match="within 3 iterations"):
        tune(reference_inputs, spec)
    code = main([
        "tune", "--config", str(REFERENCE_DESIGN), "--vary", "l_j_henry",
        "--target", "f_01_hz=4.55e9", "--bracket", "8e-9,14e-9", "--out", str(tmp_path / "t"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: tune did not reach f_01_hz")
    assert err.count("\n") == 1


def test_tune_spec_validation():
    with pytest.raises(DomainError):
        TuneSpec("l_j_henry", "f_01_hz", 4.5e9, (14e-9, 8e-9))
    with pytest.raises(DomainError):
        TuneSpec("l_j_henry", "f_01_hz", 4.5e9, (8e-9, 14e-9), rel_tol=0.0)
    # an infinite target or tolerance would pass every convergence test
    for target in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="target value must be finite"):
            TuneSpec("l_j_henry", "f_01_hz", target, (8e-9, 14e-9))
    with pytest.raises(DomainError):
        TuneSpec("l_j_henry", "f_01_hz", 4.5e9, (8e-9, 14e-9), rel_tol=math.inf)
    with pytest.raises(DomainError):
        TuneSpec("l_j_henry", "bogus", 4.5e9, (8e-9, 14e-9))


# --- design files and reports ------------------------------------------------


def test_design_file_round_trip(tmp_path, reference_inputs):
    path = tmp_path / "design.json"
    path.write_text(json.dumps(design_to_dict(reference_inputs)))
    assert design_to_dict(load_design(path)) == design_to_dict(reference_inputs)


def test_design_file_rejects_unknown_keys():
    with pytest.raises(DomainError, match="c_q_farad"):
        design_from_dict({"c_q_farad": 1e-15})


def test_design_file_rejects_missing_keys():
    with pytest.raises(DomainError, match="l_j_henry"):
        design_from_dict(
            {"c_s_farad": 1e-13, "c_g_farad": 1e-15, "c_k_farad": 1e-15,
             "f_r_target_hertz": 5e9}
        )


def test_design_fields_are_listed_once(tmp_path):
    with pytest.raises(DomainError, match="design file missing key") as caught:
        design_from_dict({})
    required = str(caught.value).split(": ", 1)[1].split(", ")
    assert sorted(SWEEPABLE_PARAMETERS) == required
    assert SWEEPABLE_PARAMETERS == tuple(f.name for f in fields(DesignInputs))[:5]

    geometry = {"claw": {"length_um": 130, "legs": [1, 2.5]}, "substrate": "Si"}
    data = {**design_to_dict(load_reference_design()), "z_0_ohm": 75, "r_load_ohm": None}
    path = tmp_path / "design.json"
    path.write_text(json.dumps({**data, "geometry": geometry}))
    inputs = load_design(path)
    assert inputs.r_load_ohm == 75
    assert inputs.geometry == geometry
    path.write_text(json.dumps(design_to_dict(inputs)))
    assert load_design(path) == inputs


def test_design_file_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    # a syntax error, and UTF-16 with its byte order mark
    for content in (b"{not json", b"\xff\xfe{}"):
        path.write_bytes(content)
        with pytest.raises(DomainError, match="is not valid JSON"):
            load_design(path)


def test_design_file_nested_too_deeply_is_domain_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    with pytest.raises(DomainError, match="^input nested too deeply: "):
        load_design(path)


def test_report_of_deeply_nested_geometry_is_domain_error(reference_inputs):
    # the design refuses the geometry before any report of it is rendered
    geometry = {}
    for _ in range(600):
        geometry = {"a": geometry}
    with pytest.raises(DomainError, match="^input nested too deeply: "):
        replace(reference_inputs, geometry=geometry)


def test_input_digest_of_deeply_nested_geometry_is_domain_error(reference_inputs):
    # the design refuses the geometry before any digest of it is taken
    geometry = {}
    for _ in range(1000):
        geometry = {"a": geometry}
    with pytest.raises(DomainError, match="^input nested too deeply: "):
        replace(reference_inputs, geometry=geometry)


class _List(list):
    pass


def test_geometry_nested_to_the_bound_is_reported(reference_inputs):
    # dicts, lists and tuples, and their subclasses, count as levels alike
    nested = 0.5
    for level in range(MAX_GEOMETRY_DEPTH):
        nested = (dict, list, tuple, collections.OrderedDict, _List)[level % 5](
            {"a": nested} if level % 5 in (0, 3) else [nested]
        )
    derived = _quiet_derive(replace(reference_inputs, geometry={"deep": nested}))
    tuned = studio.TuneResult("l_j_henry", 11e-9, "f_01_hz", 4.55e9, 4.55e9, 0, derived)
    assert json.loads(render_report(derived))["inputs"]["geometry"]["deep"]
    assert json.loads(render_tune_report(tuned))["inputs"]["geometry"]["deep"]
    assert len(input_digest(derived.lumped.inputs)) == 64
    with pytest.raises(DomainError, match="^input nested too deeply: "):
        replace(reference_inputs, geometry={"deep": [nested]})


def _holds_itself():
    loop = {}
    loop["self"] = loop
    fan = collections.OrderedDict()
    fan["a"] = fan["b"] = [fan, (fan,)]
    chain = _List()
    chain.append({"next": chain})
    return loop, fan, {"list": chain}


@pytest.mark.parametrize("geometry", _holds_itself(), ids=["dict", "fan-out", "list"])
def test_geometry_that_holds_itself_is_domain_error(reference_inputs, geometry):
    # json.dumps would meet the cycle only once a digest is taken, and raise
    # a bare ValueError ("Circular reference detected")
    with pytest.raises(DomainError, match="^input nested too deeply: "):
        replace(reference_inputs, geometry=geometry)


def test_geometry_shared_at_every_level_is_refused_quickly(reference_inputs):
    # 40 levels of one list held twice: 2^40 paths, so a digest or a report
    # of it would never finish
    shared = [0.5]
    for _ in range(40):
        shared = [shared, shared]
    start = time.perf_counter()
    with pytest.raises(DomainError, match="^input nested too deeply: .* counted by path$"):
        replace(reference_inputs, geometry={"shared": shared})
    # one point held once too often, in a flat list
    point = [1.0, 2.0]
    with pytest.raises(DomainError, match="counted by path$"):
        replace(reference_inputs, geometry={"points": [point] * (MAX_GEOMETRY_CONTAINERS + 1)})
    assert time.perf_counter() - start < 1.0


def test_geometry_with_many_distinct_points_is_accepted(reference_inputs):
    points = [[0.5 * i, -0.25 * i] for i in range(50_000)]
    design = replace(reference_inputs, geometry={"outline": points})
    assert len(input_digest(design)) == 64
    # the outline and its points, at the bound
    outline = [[1.0]] * (MAX_GEOMETRY_CONTAINERS - 1)
    assert replace(reference_inputs, geometry={"outline": outline}).geometry["outline"] is outline


def test_input_digest_tracks_content(reference_inputs):
    assert input_digest(reference_inputs) == input_digest(load_reference_design())
    changed = replace(reference_inputs, l_j_henry=12e-9)
    assert input_digest(changed) != input_digest(reference_inputs)


def test_report_is_deterministic_and_rounded(reference_inputs):
    first = render_report(_quiet_derive(reference_inputs))
    second = render_report(_quiet_derive(reference_inputs))
    assert first == second
    report = json.loads(first)
    # floats are limited to 9 significant digits
    assert report["lumped"]["e_j_hz"] == 14860137500.0
    assert report["coupling"]["t1_unbounded"] is False
    summary = {row["quantity"]: row["within_tol"] for row in report["summary"]}
    assert all(summary.values())
    assert set(summary) == {name for name, _, _ in REFERENCE_TARGETS} | {"ej_ec_ratio"}
    assert report["coupling"]["abs_chi_exceeds_kappa"] is True
    # 2|chi| > kappa is reported once, as the readability flag
    assert report["coupling"]["readable"] is True
    assert "two_chi_exceeds_kappa" not in report["coupling"]
    # the oracle solves fixed excitation blocks, so no truncation is reported
    assert set(report["oracle"]) == {"chi_exact_hz", "valid"}
    assert report["oracle"]["valid"] is True


def test_report_handles_unbounded_t1(reference_inputs):
    report = json.loads(render_report(_quiet_derive(replace(reference_inputs, c_g_farad=0.0))))
    assert report["coupling"]["t1_purcell_seconds"] is None
    assert report["coupling"]["t1_unbounded"] is True


def test_derive_rejects_non_finite_ej_ec_ratio(reference_inputs):
    # E_c underflows towards 0 Hz, so E_j/E_c overflows to inf
    with pytest.raises(FloatingPointError, match="lumped extraction: E_j/E_c is inf"):
        _quiet_derive(replace(reference_inputs, c_s_farad=1e300))


def test_derive_rejects_non_finite_coupling(reference_inputs, monkeypatch):
    monkeypatch.setattr("cqedkit.studio.coupling_strength", lambda *args: math.inf)
    with pytest.raises(FloatingPointError, match="coupling strength: g_01 is inf"):
        _quiet_derive(reference_inputs)


def test_sweep_marks_non_finite_ej_ec_ratio_row(reference_inputs):
    spec = SweepSpec("c_s_farad", 1e-13, 1e300, 2, ("g_01_hz",))
    rows = sweep(reference_inputs, spec).rows
    assert [row.status for row in rows] == ["ok", "error"]
    assert rows[1].error == "FloatingPointError: lumped extraction: E_j/E_c is inf"


# the stage functions derive looks up in cqedkit.studio, and the label its
# errors carry
STAGES = [
    ("build_lumped_circuit", "lumped extraction"),
    ("perturbative_levels", "perturbative levels"),
    ("exact_transmon_spectrum", "exact diagonalization"),
    ("zero_point_voltage", "zero-point voltage"),
    ("coupling_strength", "coupling strength"),
    ("dispersive_shift", "dispersive shift"),
    ("external_quality_factor", "quality factor"),
    ("purcell_t1", "relaxation estimate"),
    ("coupled_spectrum_oracle", "dressed-state oracle"),
]


@pytest.mark.parametrize(
    ("function", "stage", "error"),
    [(function, stage, DomainError) for function, stage in STAGES]
    + [("external_quality_factor", "quality factor", OverflowError)],
)
def test_derive_labels_each_stage(reference_inputs, monkeypatch, function, stage, error):
    def fail(*args):
        raise error("boom")

    monkeypatch.setattr(f"cqedkit.studio.{function}", fail)
    with pytest.raises(error) as caught:
        _quiet_derive(reference_inputs)
    assert type(caught.value) is error
    assert str(caught.value) == f"{stage}: boom"


def test_derive_reports_a_loaded_resonance_that_does_not_converge(reference_inputs, monkeypatch):
    # a Norton capacitance that flips between two values each call keeps the
    # loaded resonance from settling
    factors = itertools.cycle((1.0, 2.0))

    def oscillating(c_k_farad, r_load_ohm, omega):
        return c_k_farad * next(factors), 1.0, True

    monkeypatch.setattr("cqedkit.coupling._norton_capacitance", oscillating)
    with pytest.raises(
        ConvergenceError, match="^quality factor: loaded resonance iteration did not converge$"
    ):
        _quiet_derive(reference_inputs)


def test_derive_reports_a_loaded_resonance_that_overflows(reference_inputs):
    # every input is positive, but a resonator of 9.94e-156 Hz has L_r C_r above 1e308
    design = replace(reference_inputs, f_r_target_hertz=9.94e-156, l_j_henry=4.96e-195)
    text = r"^quality factor: loaded resonance overflows: L_r \(C_r \+ C\*\) is inf$"
    with pytest.raises(OverflowError, match=text):
        _quiet_derive(design, quantities=("q_ext",))


def test_stage_warnings_point_at_the_calling_line(reference_inputs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        derive(reference_inputs)
    [warning] = [w for w in caught if issubclass(w.category, DispersiveValidityWarning)]
    assert "dispersive_shift(" in linecache.getline(warning.filename, warning.lineno)


def _rows_derived_alone(monkeypatch):
    """Record NumPy's error state in each row ``sweep`` leaves to ``derive``."""
    states = []
    sweep_row = studio._sweep_row

    def recorded(*args):
        states.append(np.geterr())
        return sweep_row(*args)

    monkeypatch.setattr(studio, "_sweep_row", recorded)
    return states


@pytest.mark.parametrize(
    "design_of, spec",
    [
        # an int input leaves every row to derive
        (lambda inputs: replace(inputs, z_0_ohm=50), SweepSpec("l_j_henry", 9e-9, 13e-9, 5, ("q_ext",))),
        # a resonator this fast overflows omega_r^2 in a float stage of the column derive
        (
            lambda inputs: replace(inputs, f_r_target_hertz=1e200),
            SweepSpec("c_k_farad", 1e-15, 2e-15, 5, ("q_ext",)),
        ),
    ],
    ids=["int_input", "columns_raise"],
)
def test_rows_derived_alone_run_under_the_default_error_state(
    reference_inputs, monkeypatch, design_of, spec
):
    # a RuntimeWarning in a lone derive must reach the warnings filter, not be ignored
    states = _rows_derived_alone(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DispersiveValidityWarning)
        sweep(design_of(reference_inputs), spec)
    assert states == [np.geterr()] * 5


def test_warnings_of_batched_rows_point_at_the_line_that_called_sweep(
    reference_inputs, monkeypatch
):
    # a weaker coupling at a closed-form detuning just past 5 g_01, where the
    # exact one is within it, and a design whose charge basis is capped
    weak = replace(reference_inputs, c_g_farad=reference_inputs.c_g_farad / 4)
    derived = derive(weak, quantities=())
    f_01, g_01 = derived.transmon_perturbative.f_01_hz, derived.coupling.g_01_hz
    capped = replace(reference_inputs, c_s_farad=5.0e16)
    c_k = capped.c_k_farad
    sweeps = [
        (weak, SweepSpec("f_r_target_hertz", f_01 - 5.3 * g_01, f_01 - 4.9 * g_01, 101,
                         ("chi_exact_hz", "f_01_exact_hz"))),
        (capped, SweepSpec("c_k_farad", 0.99 * c_k, 1.01 * c_k, 101, ("f_01_exact_hz", "q_ext"))),
    ]
    states = _rows_derived_alone(monkeypatch)
    categories = set()
    for design, spec in sweeps:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sweep(design, spec)
        assert caught
        assert {w.filename for w in caught} == {__file__}
        categories |= {(w.category, str(w.message).split()[0]) for w in caught}
    assert states == []  # every row batched
    assert categories == {
        (ConvergenceWarning, "charge"),
        (DispersiveValidityWarning, "detuning"),
        (DispersiveValidityWarning, "|detuning|"),
    }


# --- report bytes against the rounding pass and json.dumps they replaced -----


def _nine_sig_reference(value):
    if isinstance(value, bool) or not isinstance(value, float):
        return value
    if math.isnan(value) or math.isinf(value):
        return None
    return float(f"{value:.9g}")


def _rounded_reference(obj):
    if isinstance(obj, dict):
        return {k: _rounded_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded_reference(v) for v in obj]
    return _nine_sig_reference(obj)


def _reference_bytes(tree):
    return json.dumps(_rounded_reference(tree), indent=2) + "\n"


_GEOMETRIES = (
    {},
    {"nested": [[], {}, [1, [2.5, {"deep": []}]], {"empty": {}}], "tuple": (1.25, "t")},
    {"name \u00e9\u00df\u2603": 'Nb "200 nm" \\ on Si\n\ttab', "\"quoted\"": "\u00fc\x00\x7f"},
    {
        "flags": [True, False, None],
        "big": 2**80,
        "negative": -(10**30),
        "nan": math.nan,
        "inf": math.inf,
        "-inf": -math.inf,
        "zero": -0.0,
        "subnormal": 5e-324,
        "numpy": np.float64(1.2345678912345),
    },
    # json.dumps turns these keys into strings; each dict holds one key type
    # so that the digest's sort_keys can order it
    {
        "int_keys": {1: "a", -2: "b", 2**70: "c"},
        "float_keys": {0.1: 1, 1e300: 2, math.inf: 3, -math.inf: 4, math.nan: 5},
        "bool_keys": {True: 1, False: 0},
        "none_key": {None: "x"},
    },
)


def _report_designs(reference_inputs, count):
    rng = random.Random(20241018)
    fields = ("c_s_farad", "c_g_farad", "c_k_farad", "l_j_henry", "f_r_target_hertz")
    e_c = 188812060.87005678
    near_degenerate = ej_to_junction_inductance(
        (reference_inputs.f_r_target_hertz + 1.5e8 + e_c) ** 2 / (8.0 * e_c)
    )
    yield replace(reference_inputs, c_g_farad=0.0)
    yield replace(reference_inputs, l_j_henry=near_degenerate)
    drawn = 0
    while drawn < count:
        values = {
            name: getattr(reference_inputs, name) * rng.uniform(0.8, 1.2) for name in fields
        }
        yield replace(reference_inputs, **values, geometry=_GEOMETRIES[drawn % len(_GEOMETRIES)])
        drawn += 1


def test_report_bytes_match_rounded_json_dumps(reference_inputs):
    rendered = 0
    kinds = {"t1_unbounded": 0, "oracle_skipped": 0}
    for inputs in _report_designs(reference_inputs, 320):
        try:
            derived = _quiet_derive(inputs)
        except (ValueError, RuntimeError, ArithmeticError):
            continue
        tree = _report_tree(derived)
        text = render_report(derived)
        assert text == _reference_bytes(tree), design_to_dict(inputs)
        kinds["t1_unbounded"] += tree["coupling"]["t1_unbounded"]
        kinds["oracle_skipped"] += not tree["oracle"]["valid"]
        rendered += 1
    assert rendered >= 300
    assert kinds["t1_unbounded"] >= 1 and kinds["oracle_skipped"] >= 1


@pytest.mark.parametrize("geometry", [{"set": {1, 2}}, {"key": {(1, 2): "tuple key"}}])
def test_report_rejects_values_json_cannot_encode(reference_derived, geometry):
    inputs = replace(reference_derived.lumped.inputs, geometry=geometry)
    derived = replace(reference_derived, lumped=replace(reference_derived.lumped, inputs=inputs))
    with pytest.raises(TypeError):
        _reference_bytes(_report_tree(derived))
    with pytest.raises(TypeError):
        render_report(derived)
    # the digest raises before the emitter sees the value; the emitter
    # raises json's own error
    with pytest.raises(TypeError) as expected:
        json.dumps(geometry, indent=2)
    with pytest.raises(TypeError, match=f"^{re.escape(str(expected.value))}$"):
        _json(geometry, "")


# --- the report template against the tree it is written from -----------------


def _tune_reference_bytes(result):
    tuned = {
        "parameter": result.parameter,
        "parameter_value": result.parameter_value,
        "target_quantity": result.target_quantity,
        "target_value": result.target_value,
        "achieved_value": result.achieved_value,
        "relative_error": abs(result.achieved_value - result.target_value)
        / abs(result.target_value),
        "iterations": result.iterations,
    }
    tree = {"tuned": tuned, **_report_tree(result.derived)}
    return _reference_bytes(tree)


def _assert_template_bytes(derived):
    assert render_report(derived) == _reference_bytes(_report_tree(derived))
    tuned = studio.TuneResult("l_j_henry", 11e-9, "f_01_hz", 4.55e9, 4.5500001e9, 3, derived)
    assert render_tune_report(tuned) == _tune_reference_bytes(tuned)


_PERCENT_GEOMETRY = {
    "%": "%",
    "%s": "100%s",
    "%%": "%%d",
    "%(x)s": {"%(y)s": ["%", "%%s", "%(z)d"]},
}
_TEMPLATE_CASES = {
    # an int C_s and C_g give an int c_sigma_farad leaf
    "int": dict(c_s_farad=1, c_g_farad=1, z_0_ohm=50, r_load_ohm=25),
    "numpy": dict(
        c_s_farad=np.float64(98.19e-15),
        c_g_farad=np.float64(4.4e-15),
        l_j_henry=np.float64(11e-9),
        z_0_ohm=np.float64(50.0),
    ),
    "percent": dict(geometry=_PERCENT_GEOMETRY),
    "empty_geometry": dict(geometry={}),
    "t1_unbounded": dict(c_g_farad=0.0),
    "oracle_skipped": dict(c_g_farad=13.2e-15),
}


@pytest.mark.parametrize("case", sorted(_TEMPLATE_CASES))
def test_template_matches_rounded_json_dumps(reference_inputs, case):
    derived = _quiet_derive(replace(reference_inputs, **_TEMPLATE_CASES[case]))
    _assert_template_bytes(derived)
    kind = {
        "int": type(derived.lumped.c_sigma_farad) is int,
        "numpy": type(derived.lumped.inputs.z_0_ohm) is np.float64,
        "t1_unbounded": math.isinf(derived.coupling.t1_purcell_seconds),
        "oracle_skipped": derived.chi_exact_hz is None,
    }
    assert kind.get(case, True)


# every QUANTITIES value of the int and NumPy-scalar designs above, as its type and
# float.hex: Python's and NumPy's own scalar powers serve these inputs, which the CLI
# cannot build, since JSON gives floats
_SCALAR_INPUT_PINS = {
    "int": {
        "i_c_ampere": "float 0x1.00fff905e5e68p-25",
        "e_j_hz": "float 0x1.baddda1bf1d13p+33",
        "e_c_hz": "float 0x1.44fa806009daap-17",
        "ej_ec_ratio": "float 0x1.5cdd9d089e4d3p+50",
        "c_r_farad": "float 0x1.18e9c439aa937p-41",
        "l_r_henry": "float 0x1.15f421db2c27fp-29",
        "c_sigma_farad": "int 0x1.0000000000000p+1",
        "beta": "float 0x1.0000000000000p-1",
        "f_01_hz": "float 0x1.0c416ef6f2621p+10",
        "f_12_hz": "float 0x1.0c416ece53120p+10",
        "anharmonicity_hz": "float -0x1.44fa806009daap-17",
        "f_01_exact_hz": "float 0x1.4c58a4dfa8000p+20",
        "anharmonicity_exact_hz": "float 0x1.bb15448df0000p+19",
        "v_rms_volt": "float 0x1.e993997a71a4ep-20",
        "g_01_hz": "float 0x1.0e3051eeae626p+40",
        "detuning_hz": "float -0x1.2a9e844efa442p+32",
        "abs_detuning_hz": "float 0x1.2a9e844efa442p+32",
        "chi_01_hz": "float -0x1.e8ee1bb295923p+47",
        "chi_12_hz": "float -0x1.e8ee1bb295912p+48",
        "chi_total_hz": "float -0x1.1000000000000p-1",
        "chi_exact_hz": "float nan",
        "q_ext": "float 0x1.11a01f973a8ebp+13",
        "kappa_hz": "float 0x1.15006bc803fd3p+19",
        "f_r_loaded_hz": "float 0x1.2812b56258eccp+32",
        "t1_seconds": "float 0x1.6cd44ecf4cb53p-38",
    },
    "numpy": {
        "i_c_ampere": "float64 0x1.00fff905e5e68p-25",
        "e_j_hz": "float64 0x1.baddda1bf1d13p+33",
        "e_c_hz": "float64 0x1.6821639bd7815p+27",
        "ej_ec_ratio": "float64 0x1.3ad0352cbf940p+6",
        "c_r_farad": "float64 0x1.18e9c439aa937p-41",
        "l_r_henry": "float64 0x1.15f421db2c27fp-29",
        "c_sigma_farad": "float64 0x1.ce063797a43cap-44",
        "beta": "float64 0x1.5f591c12aa558p-5",
        "f_01_hz": "float64 0x1.0f2323ea734a7p+32",
        "f_12_hz": "float64 0x1.03e218cd948e6p+32",
        "anharmonicity_hz": "float64 -0x1.6821639bd7815p+27",
        "f_01_exact_hz": "float 0x1.0ea2331d56706p+32",
        "anharmonicity_exact_hz": "float -0x1.8ffc51fa6a900p+27",
        "v_rms_volt": "float 0x1.e993997a71a4ep-20",
        "g_01_hz": "float64 0x1.696bd2624c9dap+25",
        "detuning_hz": "float64 -0x1.b7b64958cb590p+28",
        "abs_detuning_hz": "float64 0x1.b7b64958cb590p+28",
        "chi_01_hz": "float64 -0x1.2911ecb33a5f6p+22",
        "chi_12_hz": "float64 -0x1.a585f4935b764p+22",
        "chi_total_hz": "float64 -0x1.593bc9a632910p+20",
        "chi_exact_hz": "float -0x1.5dc6922b6e000p+20",
        "q_ext": "float64 0x1.11a9631ba86c4p+12",
        "kappa_hz": "float64 0x1.14f7203afe42dp+20",
        "f_r_loaded_hz": "float 0x1.2812cbbcadd5ap+32",
        "t1_seconds": "float64 0x1.ba22ca1809167p-17",
    },
}


@pytest.mark.parametrize("case", sorted(_SCALAR_INPUT_PINS))
def test_int_and_numpy_scalar_derives_are_pinned(reference_inputs, case):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        derived = _quiet_derive(replace(reference_inputs, **_TEMPLATE_CASES[case]))
    values = {name: quantity(derived) for name, quantity in QUANTITIES.items()}
    pinned = {name: f"{type(v).__name__} {float(v).hex()}" for name, v in values.items()}
    assert pinned == _SCALAR_INPUT_PINS[case]


def test_template_escapes_percent_in_its_constants(reference_derived, monkeypatch):
    monkeypatch.setattr(studio, "_TEMPLATES", {})
    monkeypatch.setattr(studio, "TOOL_NAME", "cqed%kit %s %% %(x)s")
    _assert_template_bytes(reference_derived)


def test_template_cache_holds_one_entry_per_shape(reference_inputs, monkeypatch):
    monkeypatch.setattr(studio, "_TEMPLATES", {})
    rng = random.Random(21)
    shapes = set()
    for i in range(300):
        inputs = replace(reference_inputs, l_j_henry=11e-9 * rng.uniform(0.97, 1.03))
        derived = _quiet_derive(inputs, quantities=("f_01_exact_hz", "chi_exact_hz"))
        exact = derived.transmon_exact
        # a TransmonSpectrum from the API may hold any number of levels
        levels = exact.levels_hz[: 1 + i % 8]
        derived = replace(derived, transmon_exact=replace(exact, levels_hz=levels))
        shapes.add(len(levels))
        if i % 10 == 0:
            _assert_template_bytes(derived)
        else:
            render_report(derived)
    assert sorted(studio._TEMPLATES) == sorted(shapes) == list(range(1, 9))


def test_template_leaves_no_stale_slot(reference_inputs):
    designs = {
        "reference": reference_inputs,
        "oracle_skipped": replace(reference_inputs, c_g_farad=13.2e-15),
        "t1_unbounded": replace(reference_inputs, c_g_farad=0.0),
    }
    derived = {name: _quiet_derive(inputs) for name, inputs in designs.items()}
    assert derived["oracle_skipped"].chi_exact_hz is None
    assert math.isinf(derived["t1_unbounded"].coupling.t1_purcell_seconds)
    expected = {name: _reference_bytes(_report_tree(d)) for name, d in derived.items()}
    assert len(set(expected.values())) == 3
    order = ("reference", "oracle_skipped", "reference", "t1_unbounded", "reference")
    for name in order + order[::-1]:
        assert render_report(derived[name]) == expected[name]


@pytest.mark.parametrize("geometry", _GEOMETRIES, ids=range(len(_GEOMETRIES)))
def test_digest_of_sortable_keys_is_json_sort_keys(reference_inputs, geometry):
    inputs = replace(reference_inputs, geometry=geometry)
    text = json.dumps(design_to_dict(inputs), sort_keys=True, separators=(",", ":"))
    assert input_digest(inputs) == hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "geometry, reordered, as_strings",
    [
        ({3: 1.5, "a": 1}, {"a": 1, 3: 1.5}, {"3": 1.5, "a": 1}),
        (
            {"x": {1: 2, "y": 3}, "z": {10: 0, 9: 1}},
            {"z": {9: 1, 10: 0}, "x": {"y": 3, 1: 2}},
            # a dict whose keys sort keeps json's order: 9 before 10
            {"x": {"1": 2, "y": 3}, "z": {"9": 1, "10": 0}},
        ),
        (
            {"pads": [{3: 1.5, "b": 1}, ({2: "x", "a": None},)]},
            {"pads": [{"b": 1, 3: 1.5}, ({"a": None, 2: "x"},)]},
            # a list keeps its order, and each dict in it is ordered as one outside it
            {"pads": [{"3": 1.5, "b": 1}, [{"2": "x", "a": None}]]},
        ),
    ],
    ids=["top", "nested", "in_list"],
)
def test_mixed_key_geometry_is_digested_and_reported(
    reference_derived, geometry, reordered, as_strings
):
    inputs = replace(reference_derived.lumped.inputs, geometry=geometry)
    derived = replace(reference_derived, lumped=replace(reference_derived.lumped, inputs=inputs))
    digest = input_digest(inputs)
    assert digest == input_digest(replace(inputs, geometry=reordered))
    # ordered by the strings json writes for the keys, as written in as_strings
    data = {**design_to_dict(inputs), "geometry": as_strings}
    canonical = json.dumps({key: data[key] for key in sorted(data)}, separators=(",", ":"))
    assert digest == hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    # the geometry block is json.dumps(indent=2)'s coercion of the keys
    _assert_template_bytes(derived)
    report = json.loads(render_report(derived))
    assert report["inputs"]["geometry"] == json.loads(json.dumps(geometry))
    assert report["provenance"]["input_sha256"] == digest


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**100), max_value=2**100),
    st.floats(),
    st.floats().map(np.float64),
    st.text(max_size=6),
)
_JSON_KEYS = st.one_of(st.text(max_size=4), st.integers(), st.floats(), st.booleans(), st.none())


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.recursive(
        _JSON_LEAVES,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=3).map(tuple),
            st.dictionaries(_JSON_KEYS, children, max_size=4),
        ),
        max_leaves=12,
    )
)
def test_emitter_matches_rounded_json_dumps(tree):
    assert _json(tree, "") + "\n" == _reference_bytes(tree)


def test_readme_tune_report_bytes(reference_inputs, tmp_path, capsys):
    out = tmp_path / "tuned.json"
    code = main([
        "tune", "--config", str(REFERENCE_DESIGN), "--vary", "l_j_henry",
        "--target", "f_01_hz=4.55e9", "--bracket", "8e-9,14e-9", "--out", str(out),
    ])
    assert code == 0
    result = tune(reference_inputs, TuneSpec("l_j_henry", "f_01_hz", 4.55e9, (8e-9, 14e-9)))
    tuned = {
        "parameter": result.parameter,
        "parameter_value": result.parameter_value,
        "target_quantity": result.target_quantity,
        "target_value": result.target_value,
        "achieved_value": result.achieved_value,
        "relative_error": abs(result.achieved_value - result.target_value) / 4.55e9,
        "iterations": result.iterations,
    }
    expected = json.dumps(
        {"tuned": _rounded_reference(tuned), **_rounded_reference(_report_tree(result.derived))},
        indent=2,
    ) + "\n"
    assert out.read_text(encoding="utf-8") == expected
    assert render_tune_report(result) == expected
