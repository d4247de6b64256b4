"""``sweep`` returns columns: the row view built from them, equality bit for
bit, the stacked eigen kernels behind the exact columns, and the memory a
long sweep holds."""

import math
import os
import subprocess
import sys
import textwrap
import time
import warnings
from collections.abc import Sequence
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cqedkit import (
    ConvergenceWarning,
    DispersiveValidityWarning,
    LabelingError,
    SweepResult,
    SweepSpec,
    coupled_spectrum_oracle,
    exact_transmon_spectrum,
    sweep,
)
from cqedkit import spectrum as spectrum_module
from cqedkit.coupling import _batched_oracle
from cqedkit.spectrum import _MAX_CHARGE_CUTOFF, _batched_spectra, needed_charge_cutoff
from cqedkit.studio import SweepRow, SweepRows, sweep_csv_lines

SRC = Path(__file__).resolve().parent.parent / "src"
# -2, 0, 2, 4 and 6 fF: a negative C_g fails; C_g = 0 decouples the qubit
SPEC = SweepSpec("c_g_farad", -2e-15, 6e-15, 5, ("g_01_hz", "chi_total_hz", "chi_exact_hz"))


def _swept(inputs, spec=SPEC):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DispersiveValidityWarning)
        return sweep(inputs, spec)


def _hex(values):
    return [value.hex() for value in values]


def test_rows_are_a_view_built_from_the_columns(reference_inputs):
    result = _swept(reference_inputs)
    rows = result.rows
    assert isinstance(rows, Sequence) and len(rows) == 5
    assert list(result.errors) == [0] and result.errors[0].startswith("DomainError: ")
    assert rows[0] == SweepRow(-2e-15, {}, status="error", error=result.errors[0])
    assert all(math.isnan(column[0]) for column in result.columns.values())
    for i in range(1, 5):
        row = rows[i]
        assert type(row.parameter_value) is float and row.parameter_value == result.values[i]
        assert row.status == "ok" and row.error == ""
        assert list(row.outputs) == list(SPEC.outputs)
        for name, value in row.outputs.items():
            assert type(value) is float and value.hex() == result.columns[name][i].hex()
    assert rows[1].outputs["g_01_hz"] == 0.0 and rows[1].outputs["chi_exact_hz"] == 0.0


def test_row_view_indexes_slices_and_iterates_as_a_tuple_did(reference_inputs):
    rows = _swept(reference_inputs).rows
    records = tuple(rows[i] for i in range(5))
    assert tuple(rows) == records
    assert [rows[-i] for i in range(1, 6)] == [records[-i] for i in range(1, 6)]
    for cut in (slice(1, 4), slice(None, None, -2), slice(-2, None), slice(7, 9)):
        assert rows[cut] == records[cut]
    for index in (5, -6, 10**20):
        with pytest.raises(IndexError):
            rows[index]
    with pytest.raises(TypeError):
        rows["0"]


def test_the_columns_and_errors_cannot_be_written(reference_inputs):
    result = _swept(reference_inputs)
    with pytest.raises(ValueError):
        result.columns["g_01_hz"][1] = 1.0
    with pytest.raises(ValueError):
        result.values[1] = 1.0
    with pytest.raises(TypeError):
        result.errors[1] = "DomainError: x"
    with pytest.raises(TypeError):
        result.rows[1] = result.rows[2]


def _with(result, name=None, column=None, errors=None):
    columns = dict(result.columns)
    if name is not None:
        columns[name] = column
    errors = result.errors if errors is None else errors
    return SweepResult(result.spec, SweepRows(result.values.copy(), columns, errors))


def test_sweeps_are_equal_bit_for_bit(reference_inputs):
    first, second = _swept(reference_inputs), _swept(reference_inputs)
    assert first == second and first.rows == second.rows
    assert first == _with(first)
    g = first.columns["g_01_hz"]
    # a NaN equals a NaN at the same place only
    nan_at_2, nan_at_3 = g.copy(), g.copy()
    nan_at_2[2] = nan_at_3[3] = math.nan
    assert _with(first, "g_01_hz", nan_at_2) == _with(first, "g_01_hz", nan_at_2.copy())
    assert _with(first, "g_01_hz", nan_at_2) != _with(first, "g_01_hz", nan_at_3)
    # a value one ulp away, or -0.0 for 0.0 (== would take them as equal)
    nudged, signed = g.copy(), g.copy()
    nudged[3] = np.nextafter(g[3], math.inf)
    signed[1] = -g[1]
    assert g[1] == 0.0 == signed[1]
    assert _with(first, "g_01_hz", nudged) != first
    assert _with(first, "g_01_hz", signed) != first
    assert _with(first, errors={0: "DomainError: another text"}) != first
    assert _with(first, errors={**first.errors, 2: "DomainError: x"}) != first
    shorter = replace(SPEC, steps=4, hi=4e-15)
    assert _swept(reference_inputs, shorter) != first


def test_a_result_whose_rows_are_records_is_refused_when_its_columns_are_read(reference_inputs):
    result = _swept(reference_inputs)
    records = replace(result, rows=tuple(result.rows))
    for read in ("values", "columns", "errors"):
        with pytest.raises(TypeError, match="^sweep rows must be a SweepRows, not tuple$"):
            getattr(records, read)
    with pytest.raises(TypeError, match="SweepRows"):
        sweep_csv_lines(records)
    assert records != result


# --- the stacked eigen kernels ---------------------------------------------

E_C = 2.0e8


def test_cutoff_rule_on_a_column_rounds_as_on_floats():
    ratios = 10.0 ** np.random.default_rng(3).uniform(-1.0, 14.0, 3000)
    expected = [needed_charge_cutoff(ratio) for ratio in ratios.tolist()]
    assert needed_charge_cutoff(ratios).tolist() == expected


def test_stacked_spectra_carry_each_rows_own_bits(monkeypatch):
    # E_j/E_c from 1 to 1e13: cutoffs from 10 to the cap of 200, where the byte
    # budget splits a stack of nine into calls of at most six
    ratios = [1.0, 20.0, 78.7, 500.0, 3.3e4, 1e6, *(1e13 * (1.0 + k / 10) for k in range(9))]
    e_j, e_c = np.array(ratios) * E_C, np.full(len(ratios), E_C)
    calls = []
    parity_levels = spectrum_module._parity_levels

    def recorded(e_j_hz, e_c_hz, cutoff):
        calls.append((cutoff, len(e_j_hz)))
        return parity_levels(e_j_hz, e_c_hz, cutoff)

    monkeypatch.setattr(spectrum_module, "_parity_levels", recorded)
    levels, cutoff, needed = _batched_spectra(e_j, e_c)
    monkeypatch.undo()
    capped = [rows for size, rows in calls if size == _MAX_CHARGE_CUTOFF]
    assert sorted(capped) == [3, 6] and len({size for size, _ in calls}) >= 5
    assert levels.shape == (len(ratios), 8)
    for i, (ej, ec) in enumerate(zip(e_j.tolist(), e_c.tolist())):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            alone = exact_transmon_spectrum(ej, ec)
        assert _hex(levels[i].tolist()) == _hex(alone.levels_hz)
        assert cutoff[i] == alone.charge_cutoff
        assert needed[i] == needed_charge_cutoff(ej / ec)
    assert (needed[-9:] > _MAX_CHARGE_CUTOFF).all() and (cutoff[-9:] == _MAX_CHARGE_CUTOFF).all()


def test_stacked_oracle_carries_each_rows_own_bits():
    spectrum = exact_transmon_spectrum(14.86e9, 188.8e6)
    f_01 = spectrum.f_01_exact_hz
    g = 47e6
    # dispersive; ambiguous (|detuning| <= 5 g) but labeled; labels that fail,
    # with f_r 20 MHz below f_12 = f_01 - 210 MHz; decoupled
    cases = [(f_01 + 460e6, g), (f_01 + 150e6, g), (f_01 - 230e6, g), (f_01 - 30e6, 0.0)]
    levels = np.array([spectrum.levels_hz] * len(cases))
    f_r, g_01 = (np.array(column) for column in zip(*cases))
    chi, ambiguous = _batched_oracle(levels, f_r, g_01)
    outcomes = []
    for i, (f_r_hz, g_hz) in enumerate(cases):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                expected = coupled_spectrum_oracle(spectrum, f_r_hz, g_hz).chi_exact_hz
            except LabelingError:
                expected = None
        if expected is None:
            assert math.isnan(chi[i])
        else:
            assert chi[i].item().hex() == expected.hex()
        if caught:
            assert str(caught[0].message).startswith(f"|detuning| = {ambiguous[i].item():.3e} Hz")
        else:
            assert math.isnan(ambiguous[i])
        outcomes.append((expected is not None, bool(caught)))
    assert outcomes == [(True, False), (True, True), (False, True), (True, False)]


# --- memory ------------------------------------------------------------------

MEMORY_SCRIPT = textwrap.dedent(
    """
    import resource, sys, warnings
    import cqedkit
    from cqedkit.studio import QUANTITIES
    closed = tuple(name for name in sorted(QUANTITIES) if "exact" not in name)
    design = cqedkit.load_reference_design()
    warnings.simplefilter("ignore")
    cqedkit.sweep(design, cqedkit.SweepSpec("c_k_farad", 6e-15, 1e-14, 101, closed))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = cqedkit.sweep(design, cqedkit.SweepSpec("c_k_farad", 6e-15, 1e-14, 10**5, closed))
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert len(closed) == 22 and len(result.rows) == 10**5 and not result.errors
    print((after - before) / 1024)
    """
)


def test_a_sweep_of_every_closed_form_over_1e5_rows_holds_under_40_mb():
    # ru_maxrss is in kB on Linux; a fresh interpreter, so that no earlier test's peak hides it
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-c", MEMORY_SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) < 40.0
    assert time.perf_counter() - start < 10.0
