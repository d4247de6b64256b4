"""``sweep`` evaluates its grid as one batch; these tests hold it to the
per-row loop it replaced, bit for bit, and warning for warning once the
loop's warnings are folded by ``sweep``'s rule (``_folded``)."""

import random
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cqedkit import ConvergenceWarning, DispersiveValidityWarning, SweepSpec, derive, sweep
from cqedkit import spectrum as spectrum_module
from cqedkit import studio
from cqedkit.studio import QUANTITIES, SWEEPABLE_PARAMETERS, SweepRow

CLOSED_FORMS = tuple(name for name in sorted(QUANTITIES) if "exact" not in name)


def _per_row_sweep(inputs, spec):
    """The loop ``sweep`` ran before the batch: one ``derive`` per grid point,
    with one memo of eigen-stage results for the whole sweep. Also gives the
    warnings each row raised, as (category, message) pairs."""
    solved = {}
    rows = []
    raised = []
    for value in studio._grid(spec.lo, spec.hi, spec.steps):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                design = replace(inputs, **{spec.parameter: value})
                derived = derive(design, quantities=spec.outputs, solved=solved)
                outputs = {name: QUANTITIES[name](derived) for name in spec.outputs}
                rows.append(SweepRow(parameter_value=value, outputs=outputs, status="ok"))
            except (ValueError, RuntimeError, ArithmeticError) as exc:
                rows.append(
                    SweepRow(value, {}, status="error", error=f"{type(exc).__name__}: {exc}")
                )
        raised.append([(w.category, str(w.message)) for w in caught])
    return rows, raised


# the kinds of warning a sweep folds, in derive's order: the category and first
# word of derive's own warning, and the folded warning's kind and consequence
FOLDED_KINDS = (
    (DispersiveValidityWarning, "detuning", "detuning within 10 g_01 of resonance",
     "dispersive formula unreliable"),
    (ConvergenceWarning, "charge", "charge basis cutoff not converged", "exact levels unreliable"),
    (DispersiveValidityWarning, "|detuning|", "|detuning| within 5 g_01",
     "dressed-state labels may be ambiguous"),
)


def _folded(inputs, spec, rows, raised):
    """The per-row loop's warnings as ``sweep`` raises them. A sweep that batches
    its grid (the grid and every input that does not vary are Python floats)
    keeps each failed row's warnings in grid order. It then raises one warning
    per kind for the other rows, naming how many warned of that kind and the
    first and last of their parameter values. A sweep that does not batch keeps
    every warning."""
    fixed = [getattr(inputs, name) for name in studio._DESIGN_KEYS - {spec.parameter, "geometry"}]
    if not all(type(v) is float for v in (rows[0].parameter_value, *fixed)):
        return [w for warned in raised for w in warned]
    kept = [w for row, warned in zip(rows, raised) if row.status == "error" for w in warned]
    ok = [(row.parameter_value, {(c, m.split()[0]) for c, m in warned})
          for row, warned in zip(rows, raised) if row.status == "ok"]
    kinds = {(category, word) for category, word, *_ in FOLDED_KINDS}
    assert all(found <= kinds for _, found in ok)  # no other warning is folded away
    for category, word, kind, consequence in FOLDED_KINDS:
        flagged = [value for value, found in ok if (category, word) in found]
        if flagged:
            kept.append((category, (
                f"{kind} in {len(flagged)} of {len(rows)} rows, {spec.parameter} "
                f"{flagged[0]:.9g} to {flagged[-1]:.9g}; {consequence}"
            )))
    return kept


def _bits(row):
    return (
        row.parameter_value.hex(),
        row.status,
        row.error,
        [(name, value.hex()) for name, value in row.outputs.items()],
    )


def _count_derives(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return derive(*args, **kwargs)

    monkeypatch.setattr(studio, "derive", counted)
    return calls


def _assert_same_as_per_row(design, spec):
    expected, raised = _per_row_sweep(design, spec)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = sweep(design, spec).rows
    for want, have in zip(expected, got):
        assert _bits(have) == _bits(want)
    assert len(got) == len(expected)
    got_warnings = [(w.category, str(w.message)) for w in caught]
    assert got_warnings == _folded(design, spec, expected, raised)


SPANS = {
    "around": lambda rng, v: (v * rng.uniform(0.5, 0.9), v * rng.uniform(1.1, 1.5)),
    "through_zero": lambda rng, v: (-v * rng.uniform(0.5, 1.0), v * rng.uniform(1.0, 2.0)),
    "to_overflow": lambda rng, v: (v, 10.0 ** rng.uniform(150.0, 308.0)),
    "from_underflow": lambda rng, v: (10.0 ** rng.uniform(-320.0, -150.0), v),
}


@pytest.mark.parametrize("outputs", [tuple(sorted(QUANTITIES)), CLOSED_FORMS], ids=["all", "closed"])
@pytest.mark.parametrize("span", sorted(SPANS))
@pytest.mark.parametrize("parameter", SWEEPABLE_PARAMETERS)
def test_sweep_equals_the_per_row_loop(reference_inputs, parameter, span, outputs):
    rng = random.Random(f"{parameter}:{span}:{len(outputs)}")
    design = replace(
        reference_inputs,
        **{name: getattr(reference_inputs, name) * rng.uniform(0.6, 1.4) for name in SWEEPABLE_PARAMETERS},
    )
    lo, hi = SPANS[span](rng, getattr(design, parameter))
    _assert_same_as_per_row(design, SweepSpec(parameter, lo, hi, 101, outputs))


@pytest.mark.parametrize("parameter", ["c_k_farad", "f_r_target_hertz"])
def test_sweep_of_an_unconverged_design_equals_the_per_row_loop(reference_inputs, parameter):
    # E_j/E_c near 1e13 caps the charge basis: one ConvergenceWarning per distinct (E_j, E_c)
    design = replace(reference_inputs, c_s_farad=5.0e16)
    value = getattr(design, parameter)
    spec = SweepSpec(parameter, -value, 3.0 * value, 101, tuple(sorted(QUANTITIES)))
    _assert_same_as_per_row(design, spec)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sweep(design, spec)
    assert sum(issubclass(w.category, ConvergenceWarning) for w in caught) == 1


def test_sweep_of_a_design_holding_an_int_is_derived_row_by_row(reference_inputs, monkeypatch):
    # an int input takes derive's integer arithmetic, which the batch does not repeat;
    # nor does it repeat a grid of NumPy scalars, which a NumPy lo gives
    outputs = ("f_01_hz", "q_ext", "chi_exact_hz")
    cases = ((replace(reference_inputs, z_0_ohm=50), 9e-9), (reference_inputs, np.float64(9e-9)))
    for design, lo in cases:
        spec = SweepSpec("l_j_henry", lo, 13e-9, 5, outputs)
        calls = _count_derives(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DispersiveValidityWarning)
            rows = sweep(design, spec).rows
        assert len(calls) == 5
        monkeypatch.undo()
        _assert_same_as_per_row(design, spec)
        assert [row.status for row in rows] == ["ok"] * 5


def test_a_sweep_whose_every_row_is_near_resonance_warns_once(reference_inputs, monkeypatch):
    # qubit_v1 is within 10 g_01 of its resonator at every L_j from 10 to 10.4 nH;
    # the 400 rows make one call of warnings.warn, not one a row
    calls = []
    warn = warnings.warn

    def counted(message, category=None, *args, **kwargs):
        calls.append((category, str(message)))
        return warn(message, category, *args, **kwargs)

    monkeypatch.setattr(warnings, "warn", counted)
    spec = SweepSpec("l_j_henry", 10e-9, 10.4e-9, 400, ("f_01_hz", "chi_total_hz", "chi_exact_hz"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = sweep(reference_inputs, spec)
    assert not result.errors
    assert calls == [(
        DispersiveValidityWarning,
        "detuning within 10 g_01 of resonance in 400 of 400 rows, l_j_henry 1e-08 to 1.04e-08; "
        "dispersive formula unreliable",
    )]
    assert [(w.category, str(w.message)) for w in caught] == calls


# f_r where the oracle cannot label qubit_v1's dressed states, and 3 MHz below it,
# where it can; with the charge basis capped at 12 (qubit_v1 needs 14) every row
# shares one unconverged transmon solve
FAILED_LABELING_HZ = 4.30977e9


@pytest.mark.parametrize(
    "lo",
    [FAILED_LABELING_HZ, FAILED_LABELING_HZ - 3e6, np.float64(FAILED_LABELING_HZ)],
    ids=["failing_first", "labeled_first", "numpy_lo"],
)
def test_failed_labelings_share_the_unconverged_solve_of_the_sweep(
    reference_inputs, monkeypatch, lo
):
    monkeypatch.setattr(spectrum_module, "_MAX_CHARGE_CUTOFF", 12)
    spec = SweepSpec("f_r_target_hertz", lo, lo + 20e6, 21, ("chi_exact_hz", "f_01_exact_hz"))
    _assert_same_as_per_row(reference_inputs, spec)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = sweep(reference_inputs, spec)
    assert sum(issubclass(w.category, ConvergenceWarning) for w in caught) == 1
    # the grid holds both failed labelings and labeled rows
    assert 0 < len(result.errors) < 21
    assert all("LabelingError" in error for error in result.errors.values())


@pytest.mark.parametrize(
    "design_of, spec",
    [
        # the batch writes g_01 and f_01_exact for these rows before their labeling fails
        (
            lambda inputs: inputs,
            SweepSpec(
                "f_r_target_hertz",
                FAILED_LABELING_HZ,
                FAILED_LABELING_HZ + 20e6,
                21,
                ("g_01_hz", "f_01_exact_hz", "chi_exact_hz"),
            ),
        ),
        # an int input leaves every row to derive; a negative C_g fails
        (
            lambda inputs: replace(inputs, z_0_ohm=50),
            SweepSpec("c_g_farad", -4e-15, 4e-15, 11, ("g_01_hz", "f_01_exact_hz", "chi_exact_hz")),
        ),
    ],
    ids=["failed_labeling", "int_input"],
)
def test_every_failed_row_derived_on_its_own_is_nan_in_every_column(
    reference_inputs, design_of, spec
):
    # the row view shows an error row as outputs == {}, whatever its column slots hold
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DispersiveValidityWarning)
        result = sweep(design_of(reference_inputs), spec)
    failed = sorted(result.errors)
    assert 0 < len(failed) < spec.steps
    for name, column in result.columns.items():
        assert np.isnan(column[failed]).all(), name
        assert not np.isnan(np.delete(column, failed)).any(), name


@pytest.mark.parametrize("span", ["around", "through_zero"])
def test_sweep_derives_its_columns_once_and_only_the_rows_they_refuse(
    reference_inputs, monkeypatch, span
):
    # the benchmark's traced run divides by the derives made under each sweep;
    # a batch that fell back to derive row by row would keep every bit, so
    # only this count shows it
    calls = _count_derives(monkeypatch)
    row_by_row = []
    sweep_row = studio._sweep_row

    def counted_row(inputs, spec, value, *rest):
        row_by_row.append(value)
        return sweep_row(inputs, spec, value, *rest)

    monkeypatch.setattr(studio, "_sweep_row", counted_row)
    outputs = ("g_01_hz", "kappa_hz", "chi_exact_hz")
    for parameter in SWEEPABLE_PARAMETERS:
        base = getattr(reference_inputs, parameter)
        lo, hi = (0.98 * base, 1.02 * base) if span == "around" else (-base, base)
        spec = SweepSpec(parameter, lo, hi, 101, outputs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DispersiveValidityWarning)
            rows = sweep(reference_inputs, spec).rows
        swept = getattr(calls[0], parameter)
        assert type(swept) is np.ndarray, parameter
        assert swept.tolist() == studio._grid(lo, hi, 101)
        # the rows the batch leaves to derive are the rows that fail
        refused = [row.parameter_value for row in rows if row.status == "error"]
        assert row_by_row == refused
        assert (len(refused) >= 50) is (span == "through_zero")
        # those that pass DesignInputs reach derive, each once
        assert [getattr(design, parameter) for design in calls[1:]] == [v for v in refused if v > 0]
        calls.clear()
        row_by_row.clear()


def test_no_stacked_solve_exceeds_the_byte_budget(reference_inputs, monkeypatch):
    # E_j/E_c near 1e13: every point solves the capped 401-state charge basis,
    # as an even and an odd parity block of 201 states each
    sizes = []
    single = []
    eigvalsh = np.linalg.eigvalsh
    spectrum = studio.exact_transmon_spectrum

    def counting(matrices):
        sizes.append((matrices.ndim, matrices.nbytes))
        return eigvalsh(matrices)

    def counted_spectrum(*args):
        single.append(args)
        return spectrum(*args)

    design = replace(reference_inputs, c_s_farad=5.0e16)
    spec = SweepSpec("c_s_farad", 5.0e16, 5.36e16, 101, ("f_01_exact_hz", "q_ext"))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    monkeypatch.setattr(studio, "exact_transmon_spectrum", counted_spectrum)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        rows = sweep(design, spec).rows
    stacked = [nbytes for ndim, nbytes in sizes if ndim == 3]
    # every row solved once, in stacks, and none by derive
    assert single == []
    assert sum(stacked) == 101 * 2 * 201**2 * 8
    assert max(stacked) <= spectrum_module._STACK_BYTES
    monkeypatch.undo()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        expected, _ = _per_row_sweep(design, spec)
    assert [_bits(row) for row in rows] == [_bits(row) for row in expected]
