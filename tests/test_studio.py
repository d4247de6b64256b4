import json
import linecache
import math
import random
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
    DesignInputs,
    DispersiveValidityWarning,
    DomainError,
    EprReference,
    SweepSpec,
    TuneSpec,
    compare_to_epr,
    derive,
    design_from_dict,
    design_to_dict,
    ej_to_junction_inductance,
    input_digest,
    load_design,
    load_reference_design,
    render_report,
    sweep,
    tune,
)
from cqedkit import studio
from cqedkit.cli import main
from cqedkit.studio import (
    EXPECTED_EPR_GAPS_PERCENT,
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
    gaps = {entry.quantity: entry.gap_percent for entry in comparison.entries}
    for name, expected in GAPS.items():
        assert gaps[name] == pytest.approx(expected, abs=1e-6), name
    within = {entry.quantity: entry.within_expected for entry in comparison.entries}
    assert within == {"f_01": True, "f_r": True, "alpha": True, "chi": True}
    assert comparison.all_within
    # the paper's printed 4.9% chi gap is 1.8 pp from the chain's 3.12%
    monkeypatch.setitem(EXPECTED_EPR_GAPS_PERCENT, "chi", 4.9)
    comparison = compare_to_epr(reference_derived)
    within = {entry.quantity: entry.within_expected for entry in comparison.entries}
    assert within == {"f_01": True, "f_r": True, "alpha": True, "chi": False}
    assert not comparison.all_within


def test_compare_to_matching_reference_gives_zero_gaps(reference_derived, monkeypatch):
    synthetic = EprReference(
        f_01_hz=reference_derived.transmon_perturbative.f_01_hz,
        f_r_hz=reference_derived.lumped.inputs.f_r_target_hertz,
        alpha_hz=reference_derived.transmon_perturbative.anharmonicity_hz,
        chi_hz=reference_derived.coupling.chi_total_hz,
    )
    monkeypatch.setattr("cqedkit.studio.EPR_REFERENCE", synthetic)
    comparison = compare_to_epr(reference_derived)
    assert all(entry.gap_percent == 0.0 for entry in comparison.entries)


def test_alpha_gap_uses_charging_energy(reference_derived):
    entry = next(
        e for e in compare_to_epr(reference_derived).entries if e.quantity == "alpha"
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
    # bisection step lands on the pole, so the bracket closes on two adjacent
    # floats where chi_total changes sign without reaching the target
    inputs = replace(reference_inputs, f_r_target_hertz=4.911757023241299e9)
    spec = TuneSpec(
        "l_j_henry",
        "chi_total_hz",
        22532054.654109553,
        (7.768745354660712e-9, 9.4711129791358e-9),
    )
    calls = []

    def counting_derive(design):
        calls.append(design.l_j_henry)
        return _quiet_derive(design)

    monkeypatch.setattr(studio, "derive", counting_derive)
    with pytest.raises(ConvergenceError, match="between adjacent l_j_henry values"):
        tune(inputs, spec)
    assert len(calls) < 60
    assert len(set(calls)) == len(calls)


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
    path.write_text("{not json")
    with pytest.raises(DomainError):
        load_design(path)


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


def test_stage_warnings_point_at_the_calling_line(reference_inputs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        derive(reference_inputs)
    [warning] = [w for w in caught if issubclass(w.category, DispersiveValidityWarning)]
    assert "dispersive_shift(" in linecache.getline(warning.filename, warning.lineno)


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
