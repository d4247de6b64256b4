"""Each closed-form stage function, and ``derive`` itself, takes a float or
a NumPy column. On a column it gives, row by row, the float call's bits
wherever the float call returns, and NaN in every output wherever the float
call raises."""

import math
import random
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from cqedkit import (
    DesignInputs,
    DomainError,
    charging_energy,
    coupling_strength,
    derive,
    dispersive_shift,
    external_quality_factor,
    junction_inductance_to_critical_current,
    junction_inductance_to_ej,
    norton_equivalent,
    perturbative_levels,
    purcell_t1,
    quarter_wave_equivalents,
    zero_point_voltage,
)
from cqedkit.studio import _EIGEN_STAGES, _MADE_BY, QUANTITIES

ROWS = 3000
FIELDS = ("c_s_farad", "c_g_farad", "c_k_farad", "l_j_henry", "f_r_target_hertz")


def _designs(reference_inputs):
    """Most rows scale each field by e^U(-0.4, 0.4); about one in ten sets one
    field to 10^U(-300, 300), 0 or a negative value."""
    rng = random.Random(20221)
    rows = []
    for _ in range(ROWS):
        row = {
            name: getattr(reference_inputs, name) * math.exp(rng.uniform(-0.4, 0.4))
            for name in FIELDS
        }
        if rng.random() < 0.1:
            name = rng.choice(FIELDS)
            row[name] = rng.choice((
                10.0 ** rng.uniform(-300.0, 300.0),
                0.0,
                -row[name],
            ))
        rows.append(row)
    return {name: np.array([row[name] for row in rows]) for name in FIELDS}


def _outputs(result):
    if hasattr(result, "f_01_hz"):  # the perturbative levels' record
        return (result.f_01_hz, result.f_12_hz, result.anharmonicity_hz)
    return result if isinstance(result, tuple) else (result,)


EDGES = (0.0, -0.0, -1.0, math.inf, -math.inf, math.nan, 1e308, 5e-324)


def _with_edges(columns):
    """The columns, then rows that each set one input of the first row whose
    inputs are all finite to an edge value."""
    columns = [np.broadcast_to(column, (ROWS,)) for column in columns]
    first = next(i for i in range(ROWS) if all(math.isfinite(c[i]) for c in columns))
    edges = [[c[first]] * (len(EDGES) * len(columns)) for c in columns]
    for k in range(len(columns)):
        for j, edge in enumerate(EDGES):
            edges[k][k * len(EDGES) + j] = edge
    return [np.concatenate((c, e)) for c, e in zip(columns, edges)]


def _assert_columns_match_floats(function, *columns):
    columns = _with_edges(columns)
    with np.errstate(all="ignore"), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = [output.tolist() for output in _outputs(function(*columns))]
    assert caught == []  # a column call warns of nothing
    rows = zip(*(column.tolist() for column in columns))
    raised = 0
    for i, row in enumerate(rows):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                expected = [v.hex() for v in _outputs(function(*row))]
            except (ValueError, ArithmeticError, RuntimeError):
                raised += 1
                expected = ["nan"] * len(got)
        assert [output[i].hex() for output in got] == expected, (function.__name__, row)
    return raised


@pytest.fixture(scope="module")
def chain(reference_inputs):
    """The design columns and each stage's outputs as columns, from the
    column calls themselves: NaN where an earlier stage would raise."""
    x = _designs(reference_inputs)
    with np.errstate(all="ignore"):
        x["z_0_ohm"] = x["r_load_ohm"] = np.array([50.0])
        x["c_r_farad"], x["l_r_henry"] = quarter_wave_equivalents(
            x["f_r_target_hertz"], x["z_0_ohm"]
        )
        x["e_c_hz"] = charging_energy(x["c_s_farad"], x["c_g_farad"])
        x["e_j_hz"] = junction_inductance_to_ej(x["l_j_henry"])
        x["beta"] = x["c_g_farad"] / (x["c_g_farad"] + x["c_s_farad"])
        levels = perturbative_levels(x["e_j_hz"], x["e_c_hz"])
        x["f_01_hz"], x["f_12_hz"] = levels.f_01_hz, levels.f_12_hz
        x["v_rms_volt"] = zero_point_voltage(x["f_r_target_hertz"], x["c_r_farad"])
        x["g_01_hz"] = coupling_strength(x["beta"], x["v_rms_volt"], x["e_j_hz"], x["e_c_hz"])
        x["detuning_hz"] = x["f_01_hz"] - x["f_r_target_hertz"]
        x["omega"] = 1.0 / np.sqrt(x["l_r_henry"] * x["c_r_farad"])
        x["q_ext"] = external_quality_factor(
            x["c_r_farad"], x["l_r_henry"], x["c_k_farad"], x["r_load_ohm"]
        )[0]
    return x


CALLS = {
    quarter_wave_equivalents: ("f_r_target_hertz", "z_0_ohm"),
    charging_energy: ("c_s_farad", "c_g_farad"),
    junction_inductance_to_ej: ("l_j_henry",),
    junction_inductance_to_critical_current: ("l_j_henry",),
    perturbative_levels: ("e_j_hz", "e_c_hz"),
    zero_point_voltage: ("f_r_target_hertz", "c_r_farad"),
    coupling_strength: ("beta", "v_rms_volt", "e_j_hz", "e_c_hz"),
    dispersive_shift: ("g_01_hz", "f_01_hz", "f_12_hz", "f_r_target_hertz"),
    norton_equivalent: ("c_k_farad", "r_load_ohm", "omega"),
    external_quality_factor: ("c_r_farad", "l_r_henry", "c_k_farad", "r_load_ohm"),
    purcell_t1: ("detuning_hz", "g_01_hz", "q_ext", "f_r_target_hertz"),
}


@pytest.mark.parametrize("function", CALLS, ids=lambda function: function.__name__)
def test_a_column_call_is_the_float_call_row_by_row(chain, function):
    raised = _assert_columns_match_floats(function, *(chain[name] for name in CALLS[function]))
    # the rows reach the refusals as well as the values
    assert 0 < raised < ROWS


DESIGN_FIELDS = (*FIELDS, "z_0_ohm", "r_load_ohm")
EXACT = tuple(sorted(name for name, stage in _MADE_BY.items() if stage in _EIGEN_STAGES))
CLOSED_FORMS = tuple(sorted(set(QUANTITIES) - set(EXACT)))


@pytest.fixture(scope="module")
def design_columns(reference_inputs):
    """The designs as columns of all seven fields, with the edge rows."""
    x = _designs(reference_inputs)
    columns = [x.get(name, np.array([50.0])) for name in DESIGN_FIELDS]
    return dict(zip(DESIGN_FIELDS, _with_edges(columns)))


def test_a_column_derive_is_the_float_derive_row_by_row(design_columns):
    with np.errstate(all="ignore"), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        derived = derive(SimpleNamespace(**design_columns), quantities=CLOSED_FORMS)
        got = {name: QUANTITIES[name](derived).tolist() for name in CLOSED_FORMS}
    assert caught == []  # a column derive warns of nothing
    records = (derived.lumped, derived.transmon_perturbative, derived.coupling)
    fields = [
        v.tolist() for record in records for v in vars(record).values() if type(v) is np.ndarray
    ]
    assert len(fields) == 19  # every float field of the three records is a column
    raised = 0
    for i, row in enumerate(zip(*(design_columns[name].tolist() for name in DESIGN_FIELDS))):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                design = DesignInputs(**dict(zip(DESIGN_FIELDS, row)))
                expected = derive(design, quantities=CLOSED_FORMS)
        except (ValueError, ArithmeticError, RuntimeError):
            raised += 1
            assert all(math.isnan(field[i]) for field in fields), row
            continue
        assert [got[name][i].hex() for name in CLOSED_FORMS] == [
            QUANTITIES[name](expected).hex() for name in CLOSED_FORMS
        ], row
    assert 0 < raised < ROWS


@pytest.mark.parametrize("quantities", [None, *EXACT])
def test_a_column_derive_refuses_the_exact_quantities(design_columns, quantities):
    with np.errstate(all="ignore"), pytest.raises(
        DomainError, match="^exact diagonalization: columns take only closed-form quantities$"
    ):
        derive(SimpleNamespace(**design_columns), quantities=quantities and (quantities,))
