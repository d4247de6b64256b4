import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cqedkit import (
    DesignInputs,
    DomainError,
    build_lumped_circuit,
    charging_energy,
    quarter_wave_equivalents,
)
from cqedkit.constants import ELEMENTARY_CHARGE, PLANCK

# frozen from direct constant evaluation (scipy.constants)
E_C_REFERENCE = 188812060.87005678
C_R_REFERENCE = 4.99001996007984e-13
L_R_REFERENCE = 2.0223789150167223e-09


def test_quarter_wave_reference_values():
    c_r, l_r = quarter_wave_equivalents(5.01e9, 50.0)
    assert c_r == pytest.approx(499e-15, rel=1e-2)
    assert l_r == pytest.approx(2.03e-9, rel=1e-2)
    assert c_r == pytest.approx(C_R_REFERENCE, rel=1e-12)
    assert l_r == pytest.approx(L_R_REFERENCE, rel=1e-12)


def test_quarter_wave_capacitance_scales_inversely_with_frequency():
    c_hi, _ = quarter_wave_equivalents(5.01e9, 50.0)
    c_lo, _ = quarter_wave_equivalents(2.505e9, 50.0)
    assert c_lo == pytest.approx(2.0 * c_hi, rel=1e-14)


@given(
    st.floats(min_value=1e8, max_value=2e10),
    st.floats(min_value=5.0, max_value=500.0),
)
def test_quarter_wave_round_trip(f_r, z_0):
    c_r, l_r = quarter_wave_equivalents(f_r, z_0)
    recovered = 1.0 / (2.0 * math.pi * math.sqrt(l_r * c_r))
    assert recovered == pytest.approx(f_r, rel=1e-9)


@pytest.mark.parametrize("f_r,z_0", [(0.0, 50.0), (-1e9, 50.0), (5e9, 0.0), (5e9, -1.0)])
def test_quarter_wave_rejects_nonpositive(f_r, z_0):
    with pytest.raises(DomainError):
        quarter_wave_equivalents(f_r, z_0)


def test_charging_energy_reference():
    assert charging_energy(98.19e-15, 4.40e-15) == pytest.approx(188.8e6, rel=5e-3)
    assert charging_energy(98.19e-15, 4.40e-15) == pytest.approx(E_C_REFERENCE, rel=1e-12)


def test_charging_energy_unit_cancellation():
    # C chosen so that e^2 / (2 C h) is exactly 1 GHz
    c_s = ELEMENTARY_CHARGE**2 / (2.0 * PLANCK * 1e9)
    assert charging_energy(c_s, 0.0) == pytest.approx(1e9, rel=1e-12)


def test_charging_energy_halves_when_capacitance_doubles():
    assert charging_energy(196.38e-15, 8.80e-15) == pytest.approx(
        charging_energy(98.19e-15, 4.40e-15) / 2.0, rel=1e-14
    )


def test_charging_energy_rejects_bad_inputs():
    with pytest.raises(DomainError):
        charging_energy(0.0, 1e-15)
    with pytest.raises(DomainError):
        charging_energy(1e-15, -1e-15)


def test_charging_energy_monotone_decreasing():
    rng = np.random.default_rng(7)
    for _ in range(50):
        c_s = rng.uniform(20e-15, 200e-15)
        c_g = rng.uniform(0.0, 20e-15)
        bump = rng.uniform(1e-16, 5e-15)
        assert charging_energy(c_s + bump, c_g) < charging_energy(c_s, c_g)
        assert charging_energy(c_s, c_g + bump) < charging_energy(c_s, c_g)


def test_beta_monotone_increasing_in_coupling_capacitance():
    rng = np.random.default_rng(11)
    for _ in range(50):
        c_s = rng.uniform(20e-15, 200e-15)
        c_g = rng.uniform(0.0, 20e-15)
        bump = rng.uniform(1e-16, 5e-15)

        def beta(cg):
            return cg / (cg + c_s)

        assert beta(c_g + bump) > beta(c_g)


def _inputs(**overrides):
    base = dict(
        c_s_farad=98.19e-15,
        c_g_farad=4.40e-15,
        c_k_farad=8.62e-15,
        l_j_henry=11e-9,
        f_r_target_hertz=5.01e9,
        z_0_ohm=50.0,
    )
    base.update(overrides)
    return DesignInputs(**base)


def test_build_reference_circuit(reference_inputs):
    circuit = build_lumped_circuit(reference_inputs)
    assert circuit.c_r_farad == pytest.approx(499e-15, rel=1e-2)
    assert circuit.l_r_henry == pytest.approx(2.03e-9, rel=1e-2)
    assert circuit.e_c_hz == pytest.approx(188.8e6, rel=5e-3)
    assert circuit.e_j_hz == pytest.approx(14.86e9, rel=1e-3)
    assert circuit.beta == pytest.approx(0.0429, rel=1e-3)
    assert 78.0 <= circuit.ej_ec_ratio <= 80.0
    assert circuit.in_transmon_regime
    # LC pair reproduces the design frequency
    recovered = 1.0 / (2.0 * math.pi * math.sqrt(circuit.l_r_henry * circuit.c_r_farad))
    assert recovered == pytest.approx(5.01e9, rel=1e-9)
    assert circuit.c_sigma_farad == pytest.approx(102.59e-15, rel=1e-12)


def test_beta_limits():
    assert build_lumped_circuit(_inputs(c_g_farad=0.0)).beta == 0.0
    symmetric = build_lumped_circuit(_inputs(c_g_farad=98.19e-15))
    assert symmetric.beta == pytest.approx(0.5, rel=1e-14)


def test_r_load_defaults_to_line_impedance():
    inputs = _inputs(z_0_ohm=37.0)
    assert inputs.r_load_ohm == 37.0
    explicit = _inputs(z_0_ohm=50.0, r_load_ohm=25.0)
    assert explicit.r_load_ohm == 25.0


@pytest.mark.parametrize(
    "field,value",
    [
        ("c_s_farad", 0.0),
        ("c_s_farad", -1e-15),
        ("c_g_farad", -1e-18),
        ("c_k_farad", 0.0),
        ("l_j_henry", -11e-9),
        ("f_r_target_hertz", 0.0),
        ("z_0_ohm", -50.0),
        ("c_s_farad", True),
        ("c_g_farad", False),
        ("geometry", "abc"),
        ("geometry", [1]),
    ],
)
def test_invalid_inputs_name_the_field(field, value):
    with pytest.raises(DomainError, match=field):
        _inputs(**{field: value})


def test_geometry_passes_through_untouched(reference_inputs):
    circuit = build_lumped_circuit(reference_inputs)
    assert circuit.inputs.geometry["resonator_length_mm"] == 5.76
