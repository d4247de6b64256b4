"""``derive`` runs, and refuses in, only the stages its quantities need: the
stages that make them and those they read (``studio._STAGE_READS``)."""

import json
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cqedkit import studio
from cqedkit.cli import main
from cqedkit.studio import QUANTITIES, SWEEPABLE_PARAMETERS, SweepSpec, derive, sweep

CONFIG = Path(__file__).resolve().parent.parent / "designs" / "qubit_v1.json"

# the nine stage functions derive calls, written out apart from studio's tables
LUMPED = {"build_lumped_circuit"}
LEVELS = LUMPED | {"perturbative_levels"}
COUPLING = LUMPED | {"zero_point_voltage", "coupling_strength"}
DISPERSIVE = LEVELS | COUPLING | {"dispersive_shift"}
QUALITY = LUMPED | {"external_quality_factor"}
RELAXATION = LEVELS | COUPLING | QUALITY | {"purcell_t1"}
EXACT = LUMPED | {"exact_transmon_spectrum"}
ORACLE = LEVELS | COUPLING | EXACT | {"coupled_spectrum_oracle"}
CALLS = {
    **dict.fromkeys(
        ("i_c_ampere", "e_j_hz", "e_c_hz", "ej_ec_ratio", "c_r_farad", "l_r_henry",
         "c_sigma_farad", "beta"),
        LUMPED,
    ),
    **dict.fromkeys(
        ("f_01_hz", "f_12_hz", "anharmonicity_hz", "detuning_hz", "abs_detuning_hz"), LEVELS
    ),
    "v_rms_volt": LUMPED | {"zero_point_voltage"},
    "g_01_hz": COUPLING,
    **dict.fromkeys(("chi_01_hz", "chi_12_hz", "chi_total_hz"), DISPERSIVE),
    **dict.fromkeys(("q_ext", "kappa_hz", "f_r_loaded_hz"), QUALITY),
    "t1_seconds": RELAXATION,
    **dict.fromkeys(("f_01_exact_hz", "anharmonicity_exact_hz"), EXACT),
    "chi_exact_hz": ORACLE,
}
STAGE_FUNCTIONS = sorted(set().union(*CALLS.values()))
CLOSED_FORMS = [name for name in QUANTITIES if CALLS[name].isdisjoint(EXACT - LUMPED)]


def _quiet(function, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return function(*args, **kwargs)


def _hex(value):
    return np.asarray(value, dtype=float).tobytes().hex()


def test_every_quantity_has_a_stage_and_every_stage_follows_what_it_reads():
    assert set(studio._MADE_BY) == set(CALLS) == set(QUANTITIES)
    assert len(STAGE_FUNCTIONS) == 9
    stages = list(studio._STAGE_READS)
    for stage, reads in studio._STAGE_READS.items():
        assert all(stages.index(read) < stages.index(stage) for read in reads)


def _count_stage_calls(monkeypatch):
    calls = []
    for name in STAGE_FUNCTIONS:
        function = getattr(studio, name)

        def counted(*args, _name=name, _function=function, **kwargs):
            calls.append(_name)
            return _function(*args, **kwargs)

        monkeypatch.setattr(studio, name, counted)
    return calls


@pytest.mark.parametrize("name", sorted(QUANTITIES))
def test_each_quantity_calls_exactly_the_stages_it_needs(reference_inputs, monkeypatch, name):
    calls = _count_stage_calls(monkeypatch)
    _quiet(derive, reference_inputs, quantities={name})
    assert sorted(calls) == sorted(CALLS[name])  # each once
    calls.clear()
    _quiet(derive, reference_inputs)
    assert sorted(calls) == STAGE_FUNCTIONS


@pytest.mark.parametrize("name", sorted(QUANTITIES))
def test_a_quantity_derived_alone_is_the_full_derives_bit_for_bit(
    reference_inputs, reference_derived, name
):
    alone = _quiet(derive, reference_inputs, quantities={name})
    assert _hex(QUANTITIES[name](alone)) == _hex(QUANTITIES[name](reference_derived))


@pytest.mark.parametrize("parameter", SWEEPABLE_PARAMETERS)
def test_a_quantity_alone_on_a_column_is_the_full_derives_bit_for_bit(
    reference_inputs, parameter
):
    value = getattr(reference_inputs, parameter)
    spec = SweepSpec(parameter, 0.8 * value, 1.2 * value, 101, tuple(QUANTITIES))
    full = _quiet(sweep, reference_inputs, spec)
    kept = np.ones(101, dtype=bool)
    kept[list(full.errors)] = False  # rows where a dressed-state labeling fails
    assert 90 < kept.sum()
    design = {name: getattr(reference_inputs, name) for name in studio._DESIGN_KEYS}
    design[parameter] = full.values
    columns = SimpleNamespace(**design)
    closed = _quiet(derive, columns, quantities=CLOSED_FORMS)
    for name in QUANTITIES:
        alone = _quiet(sweep, reference_inputs, replace(spec, outputs=(name,)))
        assert set(alone.errors) <= set(full.errors)
        assert _hex(alone.columns[name][kept]) == _hex(full.columns[name][kept]), name
        if name in CLOSED_FORMS:
            with np.errstate(all="ignore"):
                column = _quiet(derive, columns, quantities={name})
            want = np.broadcast_to(QUANTITIES[name](closed), 101)
            assert _hex(np.broadcast_to(QUANTITIES[name](column), 101)) == _hex(want), name


def test_a_design_only_the_quality_factor_refuses(
    reference_inputs, reference_derived, tmp_path, capsys
):
    design = replace(reference_inputs, c_k_farad=1e300)
    with pytest.raises(OverflowError, match="^quality factor: "):
        _quiet(derive, design)
    derived = _quiet(derive, design, quantities={"f_01_hz"})
    assert derived.transmon_perturbative == reference_derived.transmon_perturbative
    assert derived.coupling.q_ext is None and derived.transmon_exact is None
    spec = SweepSpec("l_j_henry", 10e-9, 12e-9, 11, ("f_01_hz",))
    result = _quiet(sweep, design, spec)
    assert [row.status for row in result.rows] == ["ok"] * 11
    assert result.rows == _quiet(sweep, reference_inputs, spec).rows
    # a full derive, as cqedkit derive runs, refuses it as before
    config = tmp_path / "design.json"
    config.write_text(json.dumps({**json.loads(CONFIG.read_text()), "c_k_farad": 1e300}))
    out = tmp_path / "report.json"
    assert _quiet(main, ["derive", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "numerical failure: OverflowError: quality factor: (34, 'Numerical result out of range')\n"
    )
    assert not out.exists()
    # compare reads no quality factor, and s21 does
    assert _quiet(main, ["compare", "--config", str(config)]) == 0
    assert capsys.readouterr().out.startswith("quantity ")
    argv = ["s21", "--config", str(config), "--state", "ground", "--span-hz", "2e7",
            "--points", "11", "--out", str(out)]
    assert _quiet(main, argv) == 2
    assert ": quality factor: " in capsys.readouterr().err


def test_a_sweep_folds_the_near_resonance_warning_only_when_it_runs_the_dispersive_shift(
    reference_inputs,
):
    # qubit_v1 is within 10 g_01 of its resonator at every L_j from 10 to 10.4 nH
    for outputs, warned in ((("f_01_hz", "q_ext", "chi_exact_hz"), False), (("chi_01_hz",), True)):
        spec = SweepSpec("l_j_henry", 10e-9, 10.4e-9, 40, outputs)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sweep(reference_inputs, spec)
        assert [str(w.message).split(" in ")[0] for w in caught] == (
            ["detuning within 10 g_01 of resonance"] if warned else []
        )
